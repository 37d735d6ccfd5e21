//! The central correctness property of the whole reproduction:
//!
//! > If the RT-MDM schedulability analysis admits a task set, the
//! > simulator never observes a deadline miss — and every analytical
//! > response-time bound dominates every observed response time —
//! > under worst-case and under jittered execution, under the gated and
//! > the work-conserving dispatcher alike.
//!
//! Exercised over thousands of randomly generated task sets via
//! proptest, plus directed edge cases.

use proptest::prelude::*;

use rt_mdm::mcusim::{Cycles, FaultPlan, PlatformConfig};
use rt_mdm::sched::analysis::{rta_limited_preemption_with, SchedulerMode};
use rt_mdm::sched::assign::dm_order;
use rt_mdm::sched::gen::{generate, TasksetParams};
use rt_mdm::sched::sim::{simulate, Policy, SimConfig};
use rt_mdm::sched::{StagingMode, TaskSet};

fn platform() -> PlatformConfig {
    PlatformConfig::stm32f746_qspi()
}

/// Simulation horizon: enough releases of every task to expose worst
/// alignments (4 × the longest period, but at least 8 of the shortest).
fn horizon(ts: &TaskSet) -> Cycles {
    let max_t = ts.tasks().iter().map(|t| t.period).max().unwrap();
    let min_t = ts.tasks().iter().map(|t| t.period).min().unwrap();
    (max_t * 4).max(min_t * 8)
}

fn check_soundness(
    ts: &TaskSet,
    mode: SchedulerMode,
    exec_scale_min_ppm: u64,
    seed: u64,
) -> Result<(), TestCaseError> {
    let p = platform();
    let ordered = ts.reordered(&dm_order(ts));
    let outcome = rta_limited_preemption_with(&ordered, &p, mode);
    if !outcome.schedulable {
        return Ok(()); // nothing claimed, nothing to check
    }
    let config = SimConfig {
        horizon: horizon(&ordered),
        policy: Policy::FixedPriority,
        exec_scale_min_ppm,
        seed,
        work_conserving: mode == SchedulerMode::WorkConserving,
        fault: FaultPlan::NONE,
        attribution: false,
        staging_window: 2,
    };
    let run = simulate(&ordered, &p, &config);
    prop_assert_eq!(
        run.total_misses(),
        0,
        "admitted set missed a deadline (mode {:?})",
        mode
    );
    for i in 0..ordered.len() {
        let bound = outcome.response_of(i).expect("admitted implies converged");
        let observed = run.max_response_of(i);
        prop_assert!(
            bound >= observed,
            "task {} bound {} < observed {} (mode {:?})",
            i,
            bound,
            observed,
            mode
        );
    }
    Ok(())
}

proptest! {
    // Default 160 cases per property; override with PROPTEST_CASES.
    #![proptest_config(ProptestConfig {
        cases: std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(160),
        .. ProptestConfig::default()
    })]

    /// Gated dispatcher, WCET execution.
    #[test]
    fn gated_admission_is_sound_at_wcet(
        seed in 0u64..100_000,
        n_tasks in 2usize..7,
        util_pct in 10u64..75,
        fetch_ratio_pct in 5u64..120,
        constrained in proptest::bool::ANY,
    ) {
        let mut params = TasksetParams::baseline(n_tasks, util_pct * 10_000);
        params.fetch_compute_ratio_ppm = fetch_ratio_pct * 10_000;
        if constrained {
            params.deadline_factor_range_ppm = (600_000, 1_000_000);
        }
        let ts = generate(&params, &platform(), seed);
        check_soundness(&ts, SchedulerMode::Gated, 1_000_000, seed)?;
    }

    /// Gated dispatcher, jittered execution times (early completions
    /// must not break the guarantee).
    #[test]
    fn gated_admission_is_sound_under_jitter(
        seed in 0u64..100_000,
        n_tasks in 2usize..6,
        util_pct in 10u64..70,
        scale_min in 300_000u64..1_000_000,
    ) {
        let params = TasksetParams::baseline(n_tasks, util_pct * 10_000);
        let ts = generate(&params, &platform(), seed);
        check_soundness(&ts, SchedulerMode::Gated, scale_min, seed)?;
    }

    /// Work-conserving dispatcher with its matching analysis.
    #[test]
    fn work_conserving_admission_is_sound(
        seed in 0u64..100_000,
        n_tasks in 2usize..6,
        util_pct in 10u64..70,
        fetch_ratio_pct in 5u64..100,
    ) {
        let mut params = TasksetParams::baseline(n_tasks, util_pct * 10_000);
        params.fetch_compute_ratio_ppm = fetch_ratio_pct * 10_000;
        let ts = generate(&params, &platform(), seed);
        check_soundness(&ts, SchedulerMode::WorkConserving, 1_000_000, seed)?;
    }

    /// Resident-only sets reduce to classic limited-preemption FP: the
    /// same property must hold there too.
    #[test]
    fn resident_admission_is_sound(
        seed in 0u64..100_000,
        n_tasks in 2usize..8,
        util_pct in 10u64..85,
    ) {
        let mut params = TasksetParams::baseline(n_tasks, util_pct * 10_000);
        params.mode = StagingMode::Resident;
        params.fetch_compute_ratio_ppm = 0;
        let ts = generate(&params, &platform(), seed);
        check_soundness(&ts, SchedulerMode::Gated, 1_000_000, seed)?;
    }
}

/// Directed stress: many seeds across the utilization range where the
/// analysis admits, both modes. Asserts non-vacuity.
#[test]
fn directed_soundness_sweep() {
    let p = platform();
    let mut admitted = 0u32;
    for seed in 0..900u64 {
        let util_ppm = 100_000 + (seed % 6) * 80_000; // 10%..50%
        let params = TasksetParams::baseline(4, util_ppm);
        let ts = generate(&params, &p, seed);
        for mode in [SchedulerMode::Gated, SchedulerMode::WorkConserving] {
            let ordered = ts.reordered(&dm_order(&ts));
            let outcome = rta_limited_preemption_with(&ordered, &p, mode);
            if !outcome.schedulable {
                continue;
            }
            admitted += 1;
            let config = SimConfig {
                horizon: horizon(&ordered),
                policy: Policy::FixedPriority,
                exec_scale_min_ppm: 1_000_000,
                seed,
                work_conserving: mode == SchedulerMode::WorkConserving,
                fault: FaultPlan::NONE,
                attribution: false,
                staging_window: 2,
            };
            let run = simulate(&ordered, &p, &config);
            assert_eq!(run.total_misses(), 0, "seed {seed} mode {mode:?}");
        }
    }
    // The sweep must actually exercise admitted sets to mean anything.
    assert!(
        admitted > 300,
        "only {admitted} admitted sets — sweep too weak"
    );
}
