//! Tier-1 chaos gate: a small seeded fault/cancel battery must hold the
//! robustness contract — bit-identical-or-typed-error, zero leaks, pool
//! usable afterwards.  The CI `chaos` step and nightly `chaos-fuzz` lane run
//! the same harness at larger query counts via the `conformance` binary.

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "panics fail tests")]

use hique_conformance::{run_chaos_suite, Fixture};

#[test]
fn chaos_schedules_hold_the_robustness_contract() {
    // A pool budget below the working set, so base reads, spill writes and
    // evictions all cross the fault surface during the battery.
    let fixture = Fixture::generate_paged(0.002, 128).expect("paged fixture");
    let report = run_chaos_suite(&fixture, 0xC4A05, 12);
    assert!(report.is_clean(), "{report}");
    assert_eq!(report.queries, 12);
    // 2 thread settings x (5 engine modes x 2 schedules + 1 recovery probe).
    assert_eq!(report.runs, 12 * 2 * 11);
    // The lane is not vacuous: schedules actually fired faults and
    // cancellations, and plenty of runs still matched the baseline.
    assert!(report.faults_fired > 0, "{report}");
    assert!(report.cancellations > 0, "{report}");
    assert!(report.matched > 0, "{report}");
    assert_eq!(
        report.matched + report.injected_errors + report.cancellations,
        report.runs,
        "{report}"
    );
}
