//! `rtec-verify` — the source lint pass, as a CI gate.
//!
//! Runs rules `C1`..`C11` (see [`rtec_conformance::srclint`]) over the
//! concurrent runtimes, their wire protocols, the gateway lane's state,
//! the channel-class machine and the frame path's tables under the given workspace root (default: the current
//! directory) and exits non-zero on any error-severity finding. ci.sh runs this alongside the test suite; the rules it
//! enforces are what make the `cfg(loom)` model-check suite's coverage
//! claims meaningful.
//!
//! Usage: `rtec-verify [workspace-root]`

use rtec_conformance::srclint::lint_workspace;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let root = std::env::args()
        .nth(1)
        .map_or_else(|| PathBuf::from("."), PathBuf::from);
    let report = match lint_workspace(&root) {
        Ok(report) => report,
        Err(e) => {
            eprintln!(
                "rtec-verify: cannot read sources under {}: {e}",
                root.display()
            );
            return ExitCode::FAILURE;
        }
    };
    println!("{report}");
    if report.passes() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
