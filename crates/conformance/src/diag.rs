//! Structured diagnostics shared by the static linter and the trace
//! auditor.
//!
//! Every check is identified by a [`RuleId`] that carries a stable code
//! (`S*` for static configuration rules, `T*` for trace invariants), the
//! paper section it enforces, and a one-line description. Violations are
//! reported as [`Diagnostic`]s collected in a [`Report`] — never as
//! panics, so a linter run over a broken configuration always terminates
//! with a full list of findings.

use rtec_sim::Time;
use std::fmt;

/// How bad a finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but not necessarily wrong (e.g. high utilization).
    Warning,
    /// A protocol or configuration invariant is violated.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Stable identifier of one conformance rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RuleId {
    // ---- static configuration rules (pre-simulation) ----
    /// HRT slot reservations must not overlap within the round.
    SlotOverlap,
    /// Every slot must leave the `ΔT_wait` setup margin before its LST.
    SlotSetupMargin,
    /// Priority bands must partition as `0 = P_HRT < P_SRT < P_NRT`.
    PriorityBandPartition,
    /// Identifier encodings must be collision-free across nodes.
    IdCollision,
    /// SRT `Δt_p` / `ΔH` parameters must be mutually consistent.
    SrtHorizonConsistency,
    /// HRT periods must divide the calendar round.
    PeriodDividesRound,
    /// Real-time events must fit one CAN frame (DLC 0..=8).
    DlcRange,
    /// Reserved HRT bandwidth must stay below the full round.
    ReservedUtilization,

    // ---- trace invariants (post-simulation) ----
    /// Arbitration winners must be the lowest contending identifier.
    ArbWinnerOrder,
    /// HRT frames must start inside their reserved slot window.
    HrtSlotWindow,
    /// Deferred HRT delivery never precedes wire completion, and the
    /// delivery cadence matches the channel period (jitter removal).
    DeferredDeliveryJitter,
    /// Expired SRT events are dropped, never transmitted afterwards.
    ExpiredNeverSent,
    /// NRT fragment sequences on the wire are contiguous and reassemble
    /// into complete messages.
    FragContiguity,
    /// Two nodes must never contend with the same identifier.
    DuplicateContender,
    /// Every transmitted identifier's priority matches its channel's
    /// timeliness class band.
    PriorityBandConsistency,
    /// The TxNode field of every transmitted identifier names the node
    /// that actually sent the frame.
    TxNodeMatchesSender,
    /// Gateway session resume never duplicates or silently loses an
    /// HRT delivery: every replay gap is explicitly NRT/SRT-class and
    /// every gap notice belongs to an audited resume.
    ResumeSafety,

    // ---- concurrency-hygiene source lints (rtec-live) ----
    /// Sync primitives must come from the `rtec_live::sync` facade, not
    /// `std::sync` / `std::thread` directly.
    DirectStdSync,
    /// Channels on runtime paths must be bounded.
    UnboundedChannel,
    /// Lock/recv/join results must not be `unwrap()`ed away.
    UnwrappedSyncResult,
    /// Wall-clock sleeps belong to the pacing clock, nowhere else.
    StraySleep,
    /// Wall-clock reads belong to the pacing clock and the socket layer.
    StrayWallClock,
    /// Runtime threads must be spawned named, via `thread::Builder`.
    UnnamedThreadSpawn,
    /// The channel-class machine names no clock, thread, socket, sink,
    /// bus or transport.
    MachineNamesIo,
    /// The live runtime hosts the CAN bus model; it does not restate
    /// its frame-length, error-frame or fault arithmetic.
    LiveCopiesBusModel,
    /// The broker and gateway protocols put integers on the wire only
    /// through the message kernel in `rtec_can::codec`.
    HandRolledCodec,
    /// The gateway lane's state (session accounting, egress queue) has
    /// one owner, its worker: it names no lock, atomic, channel, thread
    /// or I/O.
    SharedLaneState,
    /// The frame path's tables hash their integer keys with
    /// `rtec_sim::IntMap`, not std's SipHash.
    SipHashOnFramePath,
    /// The clock-synchronization protocol (SYNC, FOLLOW-UP, latch and
    /// slew) is stated once, in `rtec_core::network`.
    SyncProtocolRestated,
}

impl RuleId {
    /// All rules: static configuration, then trace, then source lints.
    pub const ALL: [RuleId; 29] = [
        RuleId::SlotOverlap,
        RuleId::SlotSetupMargin,
        RuleId::PriorityBandPartition,
        RuleId::IdCollision,
        RuleId::SrtHorizonConsistency,
        RuleId::PeriodDividesRound,
        RuleId::DlcRange,
        RuleId::ReservedUtilization,
        RuleId::ArbWinnerOrder,
        RuleId::HrtSlotWindow,
        RuleId::DeferredDeliveryJitter,
        RuleId::ExpiredNeverSent,
        RuleId::FragContiguity,
        RuleId::DuplicateContender,
        RuleId::PriorityBandConsistency,
        RuleId::TxNodeMatchesSender,
        RuleId::ResumeSafety,
        RuleId::DirectStdSync,
        RuleId::UnboundedChannel,
        RuleId::UnwrappedSyncResult,
        RuleId::StraySleep,
        RuleId::StrayWallClock,
        RuleId::UnnamedThreadSpawn,
        RuleId::MachineNamesIo,
        RuleId::LiveCopiesBusModel,
        RuleId::HandRolledCodec,
        RuleId::SharedLaneState,
        RuleId::SipHashOnFramePath,
        RuleId::SyncProtocolRestated,
    ];

    /// Stable short code (`S1`..`S8`, `T1`..`T9`, `C1`..`C12`).
    pub fn code(self) -> &'static str {
        match self {
            RuleId::SlotOverlap => "S1",
            RuleId::SlotSetupMargin => "S2",
            RuleId::PriorityBandPartition => "S3",
            RuleId::IdCollision => "S4",
            RuleId::SrtHorizonConsistency => "S5",
            RuleId::PeriodDividesRound => "S6",
            RuleId::DlcRange => "S7",
            RuleId::ReservedUtilization => "S8",
            RuleId::ArbWinnerOrder => "T1",
            RuleId::HrtSlotWindow => "T2",
            RuleId::DeferredDeliveryJitter => "T3",
            RuleId::ExpiredNeverSent => "T4",
            RuleId::FragContiguity => "T5",
            RuleId::DuplicateContender => "T6",
            RuleId::PriorityBandConsistency => "T7",
            RuleId::TxNodeMatchesSender => "T8",
            RuleId::ResumeSafety => "T9",
            RuleId::DirectStdSync => "C1",
            RuleId::UnboundedChannel => "C2",
            RuleId::UnwrappedSyncResult => "C3",
            RuleId::StraySleep => "C4",
            RuleId::StrayWallClock => "C5",
            RuleId::UnnamedThreadSpawn => "C6",
            RuleId::MachineNamesIo => "C7",
            RuleId::LiveCopiesBusModel => "C8",
            RuleId::HandRolledCodec => "C9",
            RuleId::SharedLaneState => "C10",
            RuleId::SipHashOnFramePath => "C11",
            RuleId::SyncProtocolRestated => "C12",
        }
    }

    /// The section the rule enforces: a paper section for `S*`/`T*`
    /// rules, the DESIGN.md concurrency chapter for `C*` source lints.
    pub fn paper_section(self) -> &'static str {
        match self {
            RuleId::SlotOverlap => "§3.1",
            RuleId::SlotSetupMargin => "§3.2",
            RuleId::PriorityBandPartition => "§3.3",
            RuleId::IdCollision => "§3.5",
            RuleId::SrtHorizonConsistency => "§3.4",
            RuleId::PeriodDividesRound => "§3.1",
            RuleId::DlcRange => "§2.2",
            RuleId::ReservedUtilization => "§3.1",
            RuleId::ArbWinnerOrder => "§2.1",
            RuleId::HrtSlotWindow => "§3.2",
            RuleId::DeferredDeliveryJitter => "§3.2",
            RuleId::ExpiredNeverSent => "§3.4",
            RuleId::FragContiguity => "§2.2.3",
            RuleId::DuplicateContender => "§3.5",
            RuleId::PriorityBandConsistency => "§3.3",
            RuleId::TxNodeMatchesSender => "§3.5",
            RuleId::ResumeSafety => "§3.2",
            RuleId::DirectStdSync
            | RuleId::UnboundedChannel
            | RuleId::UnwrappedSyncResult
            | RuleId::StraySleep
            | RuleId::StrayWallClock
            | RuleId::UnnamedThreadSpawn => "DESIGN.md §6",
            RuleId::MachineNamesIo | RuleId::LiveCopiesBusModel | RuleId::HandRolledCodec => {
                "DESIGN.md §5"
            }
            RuleId::SharedLaneState => "DESIGN.md §9",
            RuleId::SipHashOnFramePath => "DESIGN.md §4d",
            RuleId::SyncProtocolRestated => "DESIGN.md §6",
        }
    }

    /// One-line description of what the rule checks.
    pub fn description(self) -> &'static str {
        match self {
            RuleId::SlotOverlap => "HRT slot reservations must not overlap within the round",
            RuleId::SlotSetupMargin => {
                "every slot must leave the ΔT_wait setup margin before its LST"
            }
            RuleId::PriorityBandPartition => {
                "priority bands must partition as 0 = P_HRT < P_SRT < P_NRT"
            }
            RuleId::IdCollision => "identifier encodings must be collision-free across nodes",
            RuleId::SrtHorizonConsistency => "SRT Δt_p / ΔH parameters must be mutually consistent",
            RuleId::PeriodDividesRound => "HRT periods must divide the calendar round",
            RuleId::DlcRange => "real-time events must fit one CAN frame (DLC 0..=8)",
            RuleId::ReservedUtilization => "reserved HRT bandwidth must fit the round",
            RuleId::ArbWinnerOrder => {
                "arbitration winners must be the lowest contending identifier"
            }
            RuleId::HrtSlotWindow => "HRT frames must start inside their reserved slot window",
            RuleId::DeferredDeliveryJitter => {
                "deferred HRT delivery follows wire completion at the channel period"
            }
            RuleId::ExpiredNeverSent => "expired SRT events are dropped, never transmitted",
            RuleId::FragContiguity => {
                "NRT fragment sequences are contiguous and reassemble completely"
            }
            RuleId::DuplicateContender => "two nodes must never contend with the same identifier",
            RuleId::PriorityBandConsistency => {
                "transmitted priorities must match the channel's class band"
            }
            RuleId::TxNodeMatchesSender => {
                "the TxNode identifier field must name the actual sender"
            }
            RuleId::ResumeSafety => {
                "session resume replays HRT exactly once; gaps are explicit and non-HRT"
            }
            RuleId::DirectStdSync => "sync primitives must come from the rtec_live::sync facade",
            RuleId::UnboundedChannel => "runtime channels must be bounded",
            RuleId::UnwrappedSyncResult => "lock/recv/join results must be handled, not unwrap()ed",
            RuleId::StraySleep => "wall-clock sleeps belong to the pacing clock",
            RuleId::StrayWallClock => {
                "wall-clock reads belong to the pacing clock and socket layer"
            }
            RuleId::UnnamedThreadSpawn => {
                "runtime threads must be spawned named, via thread::Builder"
            }
            RuleId::MachineNamesIo => {
                "the channel-class machine is sans-IO: clocks, threads, sockets, sinks, \
                 the bus and transports belong to its hosts"
            }
            RuleId::LiveCopiesBusModel => "the bus model lives in rtec-can; the broker hosts it",
            RuleId::HandRolledCodec => {
                "the wire kernel lives in rtec_can::codec; the protocols are written on it"
            }
            RuleId::SharedLaneState => {
                "a gateway lane's state has one owner, its worker: no locks, atomics, \
                 channels, threads or I/O"
            }
            RuleId::SipHashOnFramePath => {
                "the frame path hashes integer keys with rtec_sim::IntMap, not SipHash"
            }
            RuleId::SyncProtocolRestated => {
                "the clock-sync protocol is stated once, in rtec_core::network"
            }
        }
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.code())
    }
}

/// One finding: a rule violation (or warning) with enough context to fix
/// it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which rule fired.
    pub rule: RuleId,
    /// How bad it is.
    pub severity: Severity,
    /// What is wrong, with concrete values.
    pub message: String,
    /// How to fix it (configuration change, parameter bound).
    pub fix_hint: String,
    /// Simulated instant of the offending trace event (trace rules only).
    pub at: Option<Time>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{} {}] {}",
            self.severity,
            self.rule.code(),
            self.rule.paper_section(),
            self.message
        )?;
        if let Some(at) = self.at {
            write!(f, " (at {at})")?;
        }
        if !self.fix_hint.is_empty() {
            write!(f, "\n    fix: {}", self.fix_hint)?;
        }
        Ok(())
    }
}

/// The outcome of a linter or auditor pass.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Report {
    /// All findings, in rule-evaluation order.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// Empty report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Record an error-severity finding.
    pub fn error(&mut self, rule: RuleId, message: impl Into<String>, fix: impl Into<String>) {
        self.diagnostics.push(Diagnostic {
            rule,
            severity: Severity::Error,
            message: message.into(),
            fix_hint: fix.into(),
            at: None,
        });
    }

    /// Record a warning-severity finding.
    pub fn warning(&mut self, rule: RuleId, message: impl Into<String>, fix: impl Into<String>) {
        self.diagnostics.push(Diagnostic {
            rule,
            severity: Severity::Warning,
            message: message.into(),
            fix_hint: fix.into(),
            at: None,
        });
    }

    /// Record an error-severity finding anchored to a trace instant.
    pub fn error_at(
        &mut self,
        rule: RuleId,
        at: Time,
        message: impl Into<String>,
        fix: impl Into<String>,
    ) {
        self.diagnostics.push(Diagnostic {
            rule,
            severity: Severity::Error,
            message: message.into(),
            fix_hint: fix.into(),
            at: Some(at),
        });
    }

    /// Merge another report's findings into this one.
    pub fn merge(&mut self, other: Report) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// `true` when nothing at all was found.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// `true` when no *error*-severity finding exists (warnings allowed).
    pub fn passes(&self) -> bool {
        self.errors().next().is_none()
    }

    /// All error-severity findings.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// All warning-severity findings.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
    }

    /// All findings of one rule.
    pub fn of_rule(&self, rule: RuleId) -> Vec<&Diagnostic> {
        self.diagnostics.iter().filter(|d| d.rule == rule).collect()
    }

    /// `true` when at least one finding of `rule` exists.
    pub fn fired(&self, rule: RuleId) -> bool {
        self.diagnostics.iter().any(|d| d.rule == rule)
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return write!(f, "conformance: clean");
        }
        let errors = self.errors().count();
        let warnings = self.warnings().count();
        writeln!(f, "conformance: {errors} error(s), {warnings} warning(s)")?;
        for d in &self.diagnostics {
            writeln!(f, "  {d}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_stable() {
        let mut codes: Vec<&str> = RuleId::ALL.iter().map(|r| r.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), RuleId::ALL.len());
        assert_eq!(RuleId::SlotOverlap.code(), "S1");
        assert_eq!(RuleId::TxNodeMatchesSender.code(), "T8");
        assert_eq!(RuleId::UnnamedThreadSpawn.code(), "C6");
    }

    #[test]
    fn every_rule_cites_a_section() {
        for r in RuleId::ALL {
            // S*/T* rules cite a paper section directly; C* source
            // lints cite the DESIGN.md concurrency chapter.
            assert!(r.paper_section().contains('§'), "{r:?}");
            assert!(!r.description().is_empty(), "{r:?}");
        }
    }

    #[test]
    fn report_classification() {
        let mut rep = Report::new();
        assert!(rep.is_clean() && rep.passes());
        rep.warning(RuleId::ReservedUtilization, "high", "shed load");
        assert!(!rep.is_clean() && rep.passes());
        rep.error(RuleId::SlotOverlap, "overlap", "move slot");
        assert!(!rep.passes());
        assert!(rep.fired(RuleId::SlotOverlap));
        assert!(!rep.fired(RuleId::DlcRange));
        assert_eq!(rep.errors().count(), 1);
        assert_eq!(rep.of_rule(RuleId::ReservedUtilization).len(), 1);
    }

    #[test]
    fn display_contains_code_and_section() {
        let mut rep = Report::new();
        rep.error_at(
            RuleId::ArbWinnerOrder,
            Time::from_us(7),
            "winner 0x20 but 0x10 contended",
            "",
        );
        let s = format!("{rep}");
        assert!(s.contains("T1"));
        assert!(s.contains("§2.1"));
        assert!(s.contains("1 error(s)"));
    }
}
