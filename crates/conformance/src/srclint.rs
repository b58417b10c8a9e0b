//! Source lints: concurrency hygiene (`C1`..`C6`) for the concurrent
//! runtimes — the live broker/node threads and the parallel simulation
//! driver — the sans-IO contract (`C7`) of the channel-class machine
//! they and the simulator host, the one-bus-model contract (`C8`) of
//! the live runtime, the one-wire-kernel contract (`C9`) of the
//! broker and gateway protocols, the single-owner contract (`C10`)
//! of a gateway lane's state, the integer-hashing contract (`C11`)
//! of the simulated frame path, and the one-sync-protocol contract
//! (`C12`) of the whole workspace.
//!
//! The loom model-check suites (see `crates/live/tests/loom_model.rs`
//! and `crates/sim/tests/loom_model.rs`) only prove anything about
//! code that routes its synchronization through the `rtec_sim::sync`
//! facade (re-exported as `rtec_live::sync`) — a mutex taken from
//! `std::sync` directly is invisible to the model checker. These lints
//! close that gap statically: they scan the concurrent sources and
//! reject constructs that would escape the facade or undermine the
//! protocols' failure-handling discipline.
//!
//! | rule | rejects                                                      |
//! |------|--------------------------------------------------------------|
//! | `C1` | `std::sync` / `std::thread` outside the facade itself        |
//! | `C2` | unbounded `mpsc::channel(..)` constructors                   |
//! | `C3` | `unwrap()`/`expect()` on `lock()`/`recv()`/`join()` results  |
//! | `C4` | `thread::sleep` outside clock pacing / retry backoff / chaos |
//! | `C5` | `Instant::now()`/`SystemTime::now()` outside clock + sockets |
//! | `C6` | bare `thread::spawn(..)` (runtime threads must be named)     |
//! | `C7` | clock, thread, socket, sink, bus or transport names in the    |
//! |      | channel-class machine (`crates/core/src/machine.rs` only)    |
//! | `C8` | `exact_frame_bits`, `ERROR_FRAME_BITS`, `FaultDecision`,     |
//! |      | `.decide(` under `crates/live/src`: the bus model's own      |
//! |      | arithmetic, which the broker hosts and must not restate      |
//! | `C9` | `from_le_bytes`/`to_le_bytes`/`from_be_bytes`/`to_be_bytes`  |
//! |      | under `crates/live/src` and `crates/gateway/src` (bar the    |
//! |      | sink fingerprint in `client.rs`): byte order belongs to the  |
//! |      | wire kernel in `rtec_can::codec`                             |
//! | `C10`| `Mutex`, `RwLock`, `Condvar`, `atomic`/`Atomic`, `mpsc`,      |
//! |      | `thread`, `std::net`, `std::io` in `crates/gateway/src/`     |
//! |      | `session.rs` and `egress.rs`: the lane's state has one owner |
//! | `C11`| `HashMap`, `HashSet`, `RandomState`, `DefaultHasher` in the  |
//! |      | frame path's files (`FRAME_PATH_FILES`): std's SipHash costs |
//! |      | more than the look-up; integer keys use `rtec_sim::IntMap`   |
//! | `C12`| `ETAG_SYNC`, `ETAG_FOLLOW_UP`, `.slew(` under any            |
//! |      | `crates/*/src` but `core/src/{network,binding}.rs` and       |
//! |      | `clock/src/local.rs`: the sync protocol is stated once       |
//!
//! The pass is textual, not syntactic — deliberately: it must run in
//! CI with no rustc internals and no third-party parser. To keep the
//! signal clean it first *strips* comments and string literals
//! (preserving line numbers) and *skips* `#[cfg(test)]` blocks, where
//! std primitives are fine. Scope is `crates/live/src` and
//! `crates/gateway/src` (the gateway's fanout workers ride the same
//! facade, so its loom coverage has the same blind spots) plus the two
//! concurrent files of `rtec-sim` (`parallel.rs`, `sync.rs`); the rest
//! of the simulation stack is single-threaded by construction (its
//! `trace.rs` ring, for instance, predates the facade and stays out of
//! scope). `C7` is the one rule with a scope of its own: it runs on
//! `rtec_core::machine` alone, and `C1`..`C6` do not (the machine may
//! share its calendar through a plain `std::sync::Arc`). `C8` runs on
//! `crates/live/src` on top of `C1`..`C6`, `C9` on both
//! `crates/live/src` and `crates/gateway/src`, and `C10` on the two
//! gateway files that hold a lane's state, on top of `C1`..`C6` and
//! `C9`. `Arc` stays allowed there: the frames a lane shares with the
//! other lanes and its replay ring are immutable. `C11` alone runs on
//! the frame path's files of `rtec-core` and `rtec-can` (on top of
//! `C7` for the machine): they are single-threaded, so `C1`..`C6`
//! stay out. `C12` runs on every file under `crates/*/src`.

use crate::diag::{Report, RuleId};
use std::fs;
use std::io;
use std::path::Path;

/// One source file handed to [`lint_sources`].
#[derive(Clone, Debug)]
pub struct SrcFile {
    /// Display path, used in diagnostics (e.g. `crates/live/src/node.rs`).
    pub path: String,
    /// Full file contents.
    pub text: String,
}

impl SrcFile {
    /// Convenience constructor.
    pub fn new(path: impl Into<String>, text: impl Into<String>) -> Self {
        SrcFile {
            path: path.into(),
            text: text.into(),
        }
    }

    /// The file name component of `path`.
    fn file_name(&self) -> &str {
        self.path.rsplit(['/', '\\']).next().unwrap_or(&self.path)
    }
}

/// Replace comments, string literals and char literals with spaces,
/// keeping every line break so diagnostics can cite real line numbers.
///
/// Handles line comments, (nested) block comments, plain and raw
/// strings, and char literals — while leaving lifetimes (`'a`) alone:
/// a `'` only opens a char literal when a matching closing quote
/// appears within a few characters.
fn strip_noncode(src: &str) -> String {
    let b = src.as_bytes();
    let mut out = Vec::with_capacity(b.len());
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                while i < b.len() && b[i] != b'\n' {
                    out.push(b' ');
                    i += 1;
                }
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                let mut depth = 1usize;
                out.extend_from_slice(b"  ");
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        out.extend_from_slice(b"  ");
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        depth -= 1;
                        out.extend_from_slice(b"  ");
                        i += 2;
                    } else {
                        out.push(if b[i] == b'\n' { b'\n' } else { b' ' });
                        i += 1;
                    }
                }
            }
            b'r' if i + 1 < b.len() && (b[i + 1] == b'"' || b[i + 1] == b'#') => {
                // Possible raw string r"..." / r#"..."#.
                let mut j = i + 1;
                let mut hashes = 0usize;
                while j < b.len() && b[j] == b'#' {
                    hashes += 1;
                    j += 1;
                }
                if j < b.len() && b[j] == b'"' {
                    out.resize(out.len() + hashes + 2, b' ');
                    j += 1;
                    'raw: while j < b.len() {
                        if b[j] == b'"' {
                            let mut k = j + 1;
                            let mut seen = 0usize;
                            while k < b.len() && b[k] == b'#' && seen < hashes {
                                seen += 1;
                                k += 1;
                            }
                            if seen == hashes {
                                out.resize(out.len() + hashes + 1, b' ');
                                j = k;
                                break 'raw;
                            }
                        }
                        out.push(if b[j] == b'\n' { b'\n' } else { b' ' });
                        j += 1;
                    }
                    i = j;
                } else {
                    out.push(b[i]);
                    i += 1;
                }
            }
            b'"' => {
                out.push(b' ');
                i += 1;
                while i < b.len() {
                    if b[i] == b'\\' && i + 1 < b.len() {
                        out.extend_from_slice(b"  ");
                        i += 2;
                    } else if b[i] == b'"' {
                        out.push(b' ');
                        i += 1;
                        break;
                    } else {
                        out.push(if b[i] == b'\n' { b'\n' } else { b' ' });
                        i += 1;
                    }
                }
            }
            b'\'' => {
                // Char literal iff a closing quote follows within the
                // longest escape form ('\u{10FFFF}' = 10 bytes).
                let lookahead = &b[i + 1..b.len().min(i + 12)];
                let close = if lookahead.first() == Some(&b'\\') {
                    lookahead
                        .iter()
                        .skip(1)
                        .position(|&c| c == b'\'')
                        .map(|p| p + 1)
                } else if lookahead.first() == Some(&b'\'') {
                    None // '' is not a char literal
                } else {
                    (lookahead.get(1) == Some(&b'\'')).then_some(1)
                };
                if let Some(p) = close {
                    out.resize(out.len() + p + 2, b' ');
                    i += p + 2;
                } else {
                    out.push(b[i]); // a lifetime: keep as-is
                    i += 1;
                }
            }
            c => {
                out.push(c);
                i += 1;
            }
        }
    }
    String::from_utf8(out).expect("stripping only substitutes ASCII spaces")
}

/// Blank out every `#[cfg(test)] <item>` region (attribute through the
/// matching closing brace), preserving line breaks. Test modules and
/// test-gated items may use std primitives freely — they never run
/// under the model checker.
fn blank_test_blocks(stripped: &str) -> String {
    let mut text = stripped.to_string();
    loop {
        let Some(start) = find_cfg_test(&text) else {
            return text;
        };
        let bytes = text.as_bytes();
        // Find the first `{` after the attribute, then its match.
        let Some(open) = bytes[start..].iter().position(|&c| c == b'{') else {
            return text;
        };
        let open = start + open;
        let mut depth = 0usize;
        let mut end = text.len();
        for (k, &c) in bytes[open..].iter().enumerate() {
            match c {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        end = open + k + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        let blanked: String = text[start..end]
            .chars()
            .map(|c| if c == '\n' { '\n' } else { ' ' })
            .collect();
        text.replace_range(start..end, &blanked);
    }
}

/// Locate a `#[cfg(test)]` attribute, tolerating interior whitespace.
fn find_cfg_test(text: &str) -> Option<usize> {
    let compact: Vec<(usize, char)> = text
        .char_indices()
        .filter(|(_, c)| !c.is_whitespace())
        .collect();
    let needle: Vec<char> = "#[cfg(test)]".chars().collect();
    compact
        .windows(needle.len())
        .find(|w| w.iter().map(|(_, c)| *c).eq(needle.iter().copied()))
        .map(|w| w[0].0)
}

/// A line-scoped textual rule.
struct TextRule {
    id: RuleId,
    /// Any of these substrings firing on a (stripped) line is a hit.
    needles: &'static [&'static str],
    /// File names exempt from this rule.
    allow_files: &'static [&'static str],
    /// A hit is suppressed when this substring is also present (used to
    /// let `C6` accept `Builder` chains that end in `.spawn(`).
    unless_on_line: Option<&'static str>,
    fix: &'static str,
}

const RULES: &[TextRule] = &[
    TextRule {
        id: RuleId::DirectStdSync,
        needles: &["std::sync", "std::thread"],
        allow_files: &["sync.rs"],
        unless_on_line: None,
        fix: "import the primitive from crate::sync instead",
    },
    TextRule {
        id: RuleId::UnboundedChannel,
        needles: &["mpsc::channel(", "channel::<"],
        allow_files: &[],
        unless_on_line: None,
        fix: "use crate::sync::mpsc::bounded(depth) for backpressure",
    },
    TextRule {
        id: RuleId::UnwrappedSyncResult,
        needles: &[
            "lock().unwrap()",
            "lock().expect(",
            "recv().unwrap()",
            "recv().expect(",
            "join().unwrap()",
            "join().expect(",
        ],
        allow_files: &[],
        unless_on_line: None,
        fix: "propagate the error or use unwrap_or_else(|e| e.into_inner())",
    },
    TextRule {
        id: RuleId::StraySleep,
        // `udp.rs` is allowed: its sleeps are the transport retry
        // backoff, which stalls only the failing peer's wall clock.
        // `chaos.rs` is allowed: fault-plan delays are deliberate
        // wall-clock stalls that must not advance bus time.
        // `reconnect.rs` is allowed: its sleeps are the gateway
        // client's reconnect backoff, the same scheme as the UDP
        // transport retry — only the disconnected client waits.
        needles: &["thread::sleep("],
        allow_files: &["clock.rs", "udp.rs", "chaos.rs", "reconnect.rs"],
        unless_on_line: None,
        fix: "pace through clock::Pacer so Pace::Virtual skips the wait",
    },
    TextRule {
        id: RuleId::StrayWallClock,
        // `parallel.rs` is allowed: its wall-clock reads only feed the
        // barrier-stall accounting reported next to bench results —
        // never simulated time, which stays fully virtual.
        allow_files: &["clock.rs", "udp.rs", "parallel.rs"],
        needles: &["Instant::now()", "SystemTime::now()"],
        unless_on_line: None,
        fix: "take timestamps from clock::Pacer / the broker's Welcome",
    },
    TextRule {
        id: RuleId::UnnamedThreadSpawn,
        needles: &["thread::spawn("],
        allow_files: &[],
        unless_on_line: Some("Builder"),
        fix: "use crate::sync::thread::Builder::new().name(..).spawn(..)",
    },
];

/// The one file `C7` guards (and `C1`..`C6` skip).
const MACHINE_PATH: &str = "crates/core/src/machine.rs";

/// `C7`: everything the sans-IO machine must leave to its hosts.
const MACHINE_RULES: &[TextRule] = &[TextRule {
    id: RuleId::MachineNamesIo,
    // `TraceSink` is the one sink type every host traces into.
    needles: &[
        "std::time",
        "std::thread",
        "std::net",
        "rtec_sim::sync",
        "TraceSink",
        "CanBus",
        "Ctx",
        "NodeTransport",
    ],
    allow_files: &[],
    unless_on_line: None,
    fix: "take it as an Input or ask for it with an Output; the hosts own all I/O",
}];

/// The directory `C8` guards, on top of `C1`..`C6`.
const LIVE_DIR: &str = "crates/live/src/";

/// `C8`: what only a second copy of the bus model would need.
const BUS_COPY_RULE: TextRule = TextRule {
    id: RuleId::LiveCopiesBusModel,
    needles: &[
        "exact_frame_bits",
        "ERROR_FRAME_BITS",
        "FaultDecision",
        ".decide(",
    ],
    allow_files: &[],
    unless_on_line: None,
    fix: "submit to the hosted rtec_can::CanBus and act on its notifications",
};

/// The other directory `C9` guards.
const GATEWAY_DIR: &str = "crates/gateway/src/";

/// `C9`: what only a hand-rolled codec would need.
const CODEC_RULE: TextRule = TextRule {
    id: RuleId::HandRolledCodec,
    needles: &[
        "from_le_bytes",
        "to_le_bytes",
        "from_be_bytes",
        "to_be_bytes",
    ],
    // `SinkDigest::absorb` folds a frame into a fingerprint as words;
    // it reads bytes, it does not define a format.
    allow_files: &["client.rs"],
    unless_on_line: None,
    fix: "write with rtec_can::codec::Put and read with codec::Reader (or codec::read_frame)",
};

/// The files `C10` guards: a gateway lane's session accounting and
/// egress queue, which only the lane's worker ever touches.
const LANE_STATE_FILES: &[&str] = &[
    "crates/gateway/src/session.rs",
    "crates/gateway/src/egress.rs",
];

/// `C10`: what only state shared between threads, or doing I/O, needs.
const LANE_STATE_RULE: TextRule = TextRule {
    id: RuleId::SharedLaneState,
    needles: &[
        "Mutex", "RwLock", "Condvar", "atomic", "Atomic", "mpsc", "thread", "std::net", "std::io",
    ],
    allow_files: &[],
    unless_on_line: None,
    fix: "keep the state in the lane its worker owns; pass bus time and frames in as arguments",
};

/// The files `C11` guards: every table a simulated frame passes
/// through, from publish to delivery.
const FRAME_PATH_FILES: &[&str] = &[
    MACHINE_PATH,
    "crates/core/src/network.rs",
    "crates/core/src/node.rs",
    "crates/core/src/stats.rs",
    "crates/core/src/policy.rs",
    "crates/core/src/binding.rs",
    "crates/can/src/bus.rs",
    "crates/can/src/controller.rs",
    "crates/can/src/fault.rs",
];

/// `C11`: std's hash tables, whose default hasher is SipHash under a
/// random key.
const FRAME_PATH_RULE: TextRule = TextRule {
    id: RuleId::SipHashOnFramePath,
    needles: &["HashMap", "HashSet", "RandomState", "DefaultHasher"],
    allow_files: &[],
    unless_on_line: None,
    fix: "key the table with rtec_sim::IntMap, or index a Vec by the key",
};

/// The files `C12` lets name the sync protocol: the one host that runs
/// it, the module that reserves its etags, and the clock that defines
/// `slew`.
const SYNC_PROTOCOL_FILES: &[&str] = &[
    "crates/core/src/network.rs",
    "crates/core/src/binding.rs",
    "crates/clock/src/local.rs",
];

/// `C12`: what only a second implementation of the sync protocol needs.
const SYNC_PROTOCOL_RULE: TextRule = TextRule {
    id: RuleId::SyncProtocolRestated,
    needles: &["ETAG_SYNC", "ETAG_FOLLOW_UP", ".slew("],
    allow_files: &[],
    unless_on_line: None,
    fix: "run the network's sync service (NetworkBuilder::clock_sync) and read NetStats",
};

/// The concurrent files of `rtec-sim`, which `C1`..`C6` guard beside
/// the live runtime and the gateway.
const SIM_CONCURRENT_FILES: &[&str] = &["crates/sim/src/parallel.rs", "crates/sim/src/sync.rs"];

/// Lint a set of already-loaded sources. Pure — the unit of testing.
pub fn lint_sources(files: &[SrcFile]) -> Report {
    let has = |file: &SrcFile, paths: &[&str]| paths.iter().any(|p| file.path.ends_with(p));
    let mut report = Report::new();
    for file in files {
        let code = blank_test_blocks(&strip_noncode(&file.text));
        let live = file.path.contains(LIVE_DIR);
        let gateway = file.path.contains(GATEWAY_DIR);
        let rules = if file.path.ends_with(MACHINE_PATH) {
            MACHINE_RULES
        } else if live || gateway || has(file, SIM_CONCURRENT_FILES) {
            RULES
        } else {
            &[]
        };
        let live_only = live.then_some(&BUS_COPY_RULE);
        let wire = (live || gateway).then_some(&CODEC_RULE);
        let lane_state = has(file, LANE_STATE_FILES).then_some(&LANE_STATE_RULE);
        let siphash = has(file, FRAME_PATH_FILES).then_some(&FRAME_PATH_RULE);
        let sync = (!has(file, SYNC_PROTOCOL_FILES)).then_some(&SYNC_PROTOCOL_RULE);
        let extra = live_only
            .into_iter()
            .chain(wire)
            .chain(lane_state)
            .chain(siphash)
            .chain(sync);
        for rule in rules.iter().chain(extra) {
            if rule.allow_files.contains(&file.file_name()) {
                continue;
            }
            for (lineno, line) in code.lines().enumerate() {
                if rule.unless_on_line.is_some_and(|ok| line.contains(ok)) {
                    continue;
                }
                if let Some(needle) = rule.needles.iter().find(|n| line.contains(**n)) {
                    report.error(
                        rule.id,
                        format!(
                            "{}:{}: `{}` — {}",
                            file.path,
                            lineno + 1,
                            needle.trim_end_matches('('),
                            rule.id.description()
                        ),
                        rule.fix,
                    );
                }
            }
        }
    }
    report
}

/// Lint every `.rs` file below a workspace root's `crates/*/src`, in
/// path order; each rule picks its own files out of them.
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    let mut files = Vec::new();
    for krate in fs::read_dir(root.join("crates"))? {
        let src = krate?.path().join("src");
        if src.is_dir() {
            collect_rs(&src, &mut files)?;
        }
    }
    files.sort_by(|a, b| a.path.cmp(&b.path));
    // Diagnostics cite workspace-relative paths.
    for f in &mut files {
        if let Some(rel) = f.path.strip_prefix(&format!("{}/", root.display())) {
            f.path = rel.to_string();
        }
    }
    Ok(lint_sources(&files))
}

fn collect_rs(dir: &Path, out: &mut Vec<SrcFile>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(SrcFile {
                path: path.display().to_string(),
                text: fs::read_to_string(&path)?,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_one(name: &str, text: &str) -> Report {
        lint_sources(&[SrcFile::new(format!("crates/live/src/{name}"), text)])
    }

    #[test]
    fn c1_fires_on_direct_std_sync() {
        let rep = lint_one("node.rs", "use std::sync::Mutex;\n");
        assert!(rep.fired(RuleId::DirectStdSync), "{rep}");
        let rep = lint_one("broker.rs", "let h = std::thread::current();\n");
        assert!(rep.fired(RuleId::DirectStdSync), "{rep}");
    }

    #[test]
    fn c1_allows_the_facade_itself() {
        let rep = lint_one("sync.rs", "pub use std::sync::{Arc, Mutex};\n");
        assert!(rep.passes(), "{rep}");
    }

    #[test]
    fn c2_fires_on_unbounded_channel() {
        let rep = lint_one("transport.rs", "let (tx, rx) = mpsc::channel();\n");
        assert!(rep.fired(RuleId::UnboundedChannel), "{rep}");
        let rep = lint_one("transport.rs", "let p = channel::<Frame>();\n");
        assert!(rep.fired(RuleId::UnboundedChannel), "{rep}");
    }

    #[test]
    fn c3_fires_on_unwrapped_lock_recv_join() {
        for stmt in [
            "let g = self.state.lock().unwrap();",
            "let g = self.state.lock().expect(\"poisoned\");",
            "let msg = rx.recv().unwrap();",
            "let out = handle.join().unwrap();",
        ] {
            let rep = lint_one("cluster.rs", stmt);
            assert!(rep.fired(RuleId::UnwrappedSyncResult), "{stmt}: {rep}");
        }
        // The sanctioned poison-recovery form is fine.
        let rep = lint_one(
            "cluster.rs",
            "let g = m.lock().unwrap_or_else(|e| e.into_inner());\n",
        );
        assert!(rep.passes(), "{rep}");
    }

    #[test]
    fn c4_fires_on_sleep_outside_the_clock() {
        let rep = lint_one("node.rs", "crate::sync::thread::sleep(d);\n");
        assert!(rep.fired(RuleId::StraySleep), "{rep}");
        // The pacing clock, the retry backoff, and the chaos fault
        // plans stall wall time on purpose.
        for allowed in ["clock.rs", "udp.rs", "chaos.rs"] {
            let rep = lint_one(allowed, "crate::sync::thread::sleep(d);\n");
            assert!(!rep.fired(RuleId::StraySleep), "{allowed}: {rep}");
        }
    }

    #[test]
    fn c5_fires_on_wall_clock_outside_clock_and_udp() {
        let rep = lint_one("broker.rs", "let t = Instant::now();\n");
        assert!(rep.fired(RuleId::StrayWallClock), "{rep}");
        for allowed in ["clock.rs", "udp.rs"] {
            let rep = lint_one(allowed, "let t = Instant::now();\n");
            assert!(!rep.fired(RuleId::StrayWallClock), "{allowed}: {rep}");
        }
    }

    fn lint_gateway(name: &str, text: &str) -> Report {
        lint_sources(&[SrcFile::new(format!("crates/gateway/src/{name}"), text)])
    }

    #[test]
    fn gateway_sources_are_held_to_the_same_rules() {
        // The fanout workers live outside crates/live but share the
        // facade; every rule fires on gateway paths identically.
        let rep = lint_gateway("gateway.rs", "use std::sync::Mutex;\n");
        assert!(rep.fired(RuleId::DirectStdSync), "{rep}");
        let rep = lint_gateway("net.rs", "let h = thread::spawn(|| accept());\n");
        assert!(rep.fired(RuleId::UnnamedThreadSpawn), "{rep}");
        let rep = lint_gateway("client.rs", "let g = m.lock().unwrap();\n");
        assert!(rep.fired(RuleId::UnwrappedSyncResult), "{rep}");
        let rep = lint_gateway("egress.rs", "let t = Instant::now();\n");
        assert!(rep.fired(RuleId::StrayWallClock), "{rep}");
    }

    #[test]
    fn c5_gives_the_gateway_no_wall_clock_exemption() {
        // The gateway is purely bus-time: none of its files is on the
        // allow-list, the former `meter.rs` quarantine included.
        for name in ["meter.rs", "gateway.rs", "session.rs", "net.rs"] {
            let rep = lint_gateway(name, "let t = Instant::now();\n");
            assert!(rep.fired(RuleId::StrayWallClock), "{name}: {rep}");
        }
    }

    #[test]
    fn c6_fires_on_bare_spawn_but_not_builder() {
        let rep = lint_one("cluster.rs", "let h = thread::spawn(move || run());\n");
        assert!(rep.fired(RuleId::UnnamedThreadSpawn), "{rep}");
        let rep = lint_one(
            "cluster.rs",
            "let h = thread::Builder::new().name(n).spawn(move || run());\n",
        );
        assert!(!rep.fired(RuleId::UnnamedThreadSpawn), "{rep}");
    }

    #[test]
    fn c7_fires_on_every_io_name_in_the_machine_only() {
        for stmt in [
            "let t = std::time::Instant::now();",
            "std::thread::yield_now();",
            "use std::net::UdpSocket;",
            "use rtec_sim::sync::Mutex;",
            "fn emit(sink: &TraceSink) {}",
            "fn send(bus: &mut CanBus) {}",
            "fn arm(ctx: &mut Ctx<NetEvent>) {}",
            "fn send(t: &mut dyn NodeTransport) {}",
        ] {
            let rep = lint_sources(&[SrcFile::new(MACHINE_PATH, stmt)]);
            assert!(rep.fired(RuleId::MachineNamesIo), "{stmt}: {rep}");
        }
        // The machine is outside the facade rules (it shares its
        // calendar through a plain Arc) ...
        let rep = lint_sources(&[SrcFile::new(MACHINE_PATH, "use std::sync::Arc;\n")]);
        assert!(rep.passes(), "{rep}");
        // ... and its hosts are outside C7: they own the I/O.
        let rep = lint_one(
            "node.rs",
            "fn f(t: &mut dyn NodeTransport, s: &TraceSink) {}\n",
        );
        assert!(rep.passes(), "{rep}");
    }

    #[test]
    fn c8_fires_on_bus_model_arithmetic_in_the_live_runtime_only() {
        for stmt in [
            "let bits = exact_frame_bits(&frame);",
            "let wreck = sent + ERROR_FRAME_BITS;",
            "if let FaultDecision::Corrupt { .. } = decision {}",
            "let decision = self.injector.decide(now, &frame, &receivers);",
        ] {
            let rep = lint_one("broker.rs", stmt);
            assert!(rep.fired(RuleId::LiveCopiesBusModel), "{stmt}: {rep}");
        }
        // Hosting the bus is the point: building its injector, handing
        // it frames and pacing by whole-frame durations are all fine ...
        let rep = lint_one(
            "broker.rs",
            concat!(
                "let bus = CanBus::with_trace(cfg, n, FaultInjector::none(), sink);\n",
                "let h = self.bus.submit(&mut self.agenda, node, request);\n",
                "let d = self.timing.frame_duration(frame);\n",
            ),
        );
        assert!(rep.passes(), "{rep}");
        // ... and the rule stops at the live runtime's door.
        let gateway = SrcFile::new("crates/gateway/src/gateway.rs", "exact_frame_bits(&f);");
        assert!(lint_sources(&[gateway]).passes());
    }

    #[test]
    fn c9_fires_on_byte_order_conversions_in_both_protocol_crates() {
        for stmt in [
            "out.extend_from_slice(&handle.to_le_bytes());",
            "let n = u32::from_le_bytes([b[0], b[1], b[2], b[3]]);",
            "let id = u32::from_be_bytes(raw);",
            "w.write_all(&len.to_be_bytes())?;",
        ] {
            let rep = lint_one("wire.rs", stmt);
            assert!(rep.fired(RuleId::HandRolledCodec), "{stmt}: {rep}");
            let rep = lint_gateway("net.rs", stmt);
            assert!(rep.fired(RuleId::HandRolledCodec), "{stmt}: {rep}");
        }
        // Writing on the kernel is the point ...
        let rep = lint_gateway(
            "wire.rs",
            concat!(
                "out.put_u64(ev.uid);\n",
                "let uid = r.u64()?;\n",
                "codec::write_frame(w, msg, MAX_FRAME_LEN)\n",
            ),
        );
        assert!(rep.passes(), "{rep}");
        // ... the sink fingerprint folds words, it is not a codec ...
        let rep = lint_gateway("client.rs", "h = fold(h, u64::from_le_bytes(w));");
        assert!(rep.passes(), "{rep}");
        // ... and the kernel itself lives outside the rule's reach.
        let kernel = SrcFile::new("crates/can/src/codec.rs", "v.to_le_bytes()");
        assert!(lint_sources(&[kernel]).passes());
    }

    #[test]
    fn c10_fires_on_sync_and_io_names_in_the_lane_state_only() {
        for stmt in [
            // What the session module held while its core was shared.
            "use rtec_live::sync::atomic::{AtomicU64, Ordering};",
            "use rtec_live::sync::{Arc, Mutex};",
            "pub core: Arc<Mutex<SessionCore>>,",
            "now_wm: Arc<AtomicU64>,",
            "let g: RwLock<u8> = RwLock::new(0);",
            "cv: Condvar,",
            "tx: mpsc::SyncSender<u64>,",
            "crate::sync::thread::yield_now();",
            "use std::net::TcpStream;",
            "fn write(w: &mut dyn std::io::Write) {}",
        ] {
            for name in ["session.rs", "egress.rs"] {
                let rep = lint_gateway(name, stmt);
                assert!(rep.fired(RuleId::SharedLaneState), "{name}: {stmt}: {rep}");
            }
        }
        // Shared immutable frames are the point of the ring ...
        let rep = lint_gateway(
            "session.rs",
            concat!(
                "use rtec_live::sync::Arc;\n",
                "struct RingFrame { bytes: Arc<Vec<u8>>, expiry_ns: Option<u64> }\n",
                "fn detach(&mut self, client: u32, now: u64) -> bool { true }\n",
            ),
        );
        assert!(rep.passes(), "{rep}");
        // ... and the worker that owns the lane holds the locks.
        let rep = lint_gateway("gateway.rs", "sessions: Arc<Mutex<SessionStore>>,\n");
        assert!(!rep.fired(RuleId::SharedLaneState), "{rep}");
    }

    #[test]
    fn c11_fires_on_siphash_tables_on_the_frame_path_only() {
        for path in FRAME_PATH_FILES {
            for stmt in [
                "use std::collections::{HashMap, VecDeque};",
                "pubs: HashMap<u16, Publication>,",
                "let seen: HashSet<u64> = HashSet::new();",
                "let s = std::collections::hash_map::RandomState::new();",
                "let h = DefaultHasher::new();",
            ] {
                let rep = lint_sources(&[SrcFile::new(*path, stmt)]);
                assert!(
                    rep.fired(RuleId::SipHashOnFramePath),
                    "{path}: {stmt}: {rep}"
                );
            }
        }
        // The integer-keyed map is the point, and the frame path's
        // files are single-threaded: C1..C6 do not reach them ...
        let rep = lint_sources(&[SrcFile::new(
            "crates/core/src/network.rs",
            concat!(
                "use rtec_sim::{IntMap, TraceSink};\n",
                "use std::sync::Arc;\n",
                "pub(crate) channel_table: IntMap<u16, ChannelMeta>,\n",
            ),
        )]);
        assert!(rep.passes(), "{rep}");
        // ... tests may hash as they like ...
        let rep = lint_sources(&[SrcFile::new(
            "crates/can/src/fault.rs",
            "#[cfg(test)]\nmod tests {\n    use std::collections::HashSet;\n}\n",
        )]);
        assert!(rep.passes(), "{rep}");
        // ... and the rule stops at the frame path.
        let rep = lint_sources(&[SrcFile::new(
            "crates/core/src/frag.rs",
            "partials: HashMap<K, Partial>,",
        )]);
        assert!(rep.passes(), "{rep}");
    }

    #[test]
    fn c12_fires_on_the_sync_protocol_outside_its_one_host() {
        for path in [
            "crates/clock/src/sync.rs",
            "crates/live/src/node.rs",
            "crates/core/src/node.rs",
            "crates/bench/src/experiments/e9_clock_sync.rs",
        ] {
            for stmt in [
                "pub const ETAG_SYNC: u16 = 0;",
                "use rtec_core::binding::ETAG_FOLLOW_UP;",
                "self.clocks[i].slew(delta);",
            ] {
                let rep = lint_sources(&[SrcFile::new(path, stmt)]);
                assert!(
                    rep.fired(RuleId::SyncProtocolRestated),
                    "{path}: {stmt}: {rep}"
                );
            }
        }
        // The network runs the protocol, binding reserves its etags and
        // the clock defines the correction ...
        for (path, stmt) in [
            ("crates/core/src/network.rs", "if etag == ETAG_SYNC {"),
            (
                "crates/core/src/network.rs",
                "self.nodes[i].clock.slew(delta);",
            ),
            (
                "crates/core/src/binding.rs",
                "pub const ETAG_FOLLOW_UP: u16 = 1;",
            ),
            (
                "crates/clock/src/local.rs",
                "pub fn slew(&mut self, delta_ns: f64) {",
            ),
        ] {
            let rep = lint_sources(&[SrcFile::new(path, stmt)]);
            assert!(rep.passes(), "{path}: {rep}");
        }
        // ... and a test may drive a clock by hand.
        let rep = lint_sources(&[SrcFile::new(
            "crates/clock/src/lib.rs",
            "#[cfg(test)]\nmod tests {\n    fn t(c: &mut LocalClock) { c.slew(250.0); }\n}\n",
        )]);
        assert!(rep.passes(), "{rep}");
    }

    #[test]
    fn comments_and_strings_do_not_fire() {
        let rep = lint_one(
            "node.rs",
            concat!(
                "// never use std::sync::Mutex here\n",
                "/* std::thread::spawn( would be wrong */\n",
                "let msg = \"mpsc::channel( is banned\";\n",
                "let raw = r#\"lock().unwrap()\"#;\n",
            ),
        );
        assert!(rep.passes(), "{rep}");
    }

    #[test]
    fn cfg_test_blocks_are_skipped() {
        let rep = lint_one(
            "udp.rs",
            concat!(
                "pub fn live() {}\n",
                "#[cfg(test)]\n",
                "mod tests {\n",
                "    use std::thread;\n",
                "    fn t() { let h = thread::spawn(|| ()); h.join().unwrap(); }\n",
                "}\n",
            ),
        );
        assert!(rep.passes(), "{rep}");
    }

    #[test]
    fn violations_outside_a_test_block_still_fire() {
        let rep = lint_one(
            "udp.rs",
            concat!(
                "use std::sync::Mutex;\n",
                "#[cfg(test)]\n",
                "mod tests {}\n",
            ),
        );
        assert!(rep.fired(RuleId::DirectStdSync), "{rep}");
    }

    #[test]
    fn diagnostics_cite_path_line_and_code() {
        let rep = lint_one("node.rs", "fn f() {}\nuse std::sync::Arc;\n");
        let d = &rep.of_rule(RuleId::DirectStdSync)[0];
        assert!(d.message.contains("crates/live/src/node.rs:2"), "{d}");
        assert_eq!(format!("{}", d.rule), "C1");
    }

    #[test]
    fn lifetimes_survive_stripping() {
        // `'a` must not be mistaken for an unterminated char literal
        // that would swallow the rest of the file.
        let rep = lint_one(
            "node.rs",
            "fn f<'a>(x: &'a str) -> &'a str { x }\nuse std::sync::Arc;\n",
        );
        assert!(rep.fired(RuleId::DirectStdSync), "{rep}");
    }

    #[test]
    fn the_real_runtime_is_clean() {
        // The workspace root is two levels above this crate.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("workspace root")
            .to_path_buf();
        let rep = lint_workspace(&root).expect("walk crates/*/src");
        assert!(rep.passes(), "{rep}");
        // The walk really reaches the machine: planting a violation in
        // a copy of it is caught by the same entry point's rules.
        let machine = fs::read_to_string(root.join(MACHINE_PATH)).expect("machine source");
        let planted = SrcFile::new(MACHINE_PATH, machine + "\nfn f(bus: &CanBus) {}\n");
        assert!(lint_sources(&[planted]).fired(RuleId::MachineNamesIo));
    }
}
