//! Observability guarantees of the framework:
//!
//! - the Chrome trace-event export of a small fixed-seed simulation is
//!   pinned byte-for-byte by a golden file (and round-trips through the
//!   bundled `serde_json`), so exporter drift is caught immediately;
//! - timeline analytics satisfy their accounting invariants — CPU busy
//!   and idle partition the horizon exactly, utilizations and the
//!   fetch/compute overlap ratio stay within `[0, 1]` — across random
//!   task sets, and agree with the counters the simulator itself
//!   collects.

use proptest::prelude::*;

use rt_mdm::mcusim::{Cycles, FaultPlan, PlatformConfig, TraceKind};
use rt_mdm::obs::{chrome_trace, chrome_trace_json, ChromeTrace, Timeline};
use rt_mdm::sched::gen::{generate, TasksetParams};
use rt_mdm::sched::sim::{simulate, Policy, SimConfig, SimResult};
use rt_mdm::sched::{Segment, SporadicTask, StagingMode, TaskSet};

fn cy(n: u64) -> Cycles {
    Cycles::new(n)
}

/// The fixed scenario behind the golden file: two tasks — a two-segment
/// overlapped DNN and a resident control loop — over a 4000-cycle
/// horizon at WCET, seed 0. Everything here is deterministic.
fn golden_scenario() -> (SimResult, Vec<String>) {
    let dnn = SporadicTask::new(
        "dnn",
        cy(2000),
        cy(2000),
        vec![Segment::new(cy(300), 128), Segment::new(cy(200), 64)],
        StagingMode::Overlapped,
    )
    .expect("valid task");
    let ctrl = SporadicTask::new(
        "ctrl",
        cy(500),
        cy(500),
        vec![Segment::new(cy(50), 0)],
        StagingMode::Resident,
    )
    .expect("valid task");
    let ts = TaskSet::from_tasks(vec![ctrl, dnn]);
    let config = SimConfig {
        horizon: cy(4000),
        policy: Policy::FixedPriority,
        exec_scale_min_ppm: 1_000_000,
        seed: 0,
        work_conserving: false,
        fault: FaultPlan::NONE,
        attribution: false,
        staging_window: 2,
    };
    let result = simulate(&ts, &PlatformConfig::stm32f746_qspi(), &config);
    (result, vec!["ctrl".to_owned(), "dnn".to_owned()])
}

#[test]
fn chrome_export_matches_golden_file() {
    let (result, names) = golden_scenario();
    let json = chrome_trace_json(&result.trace, &names);
    let golden = include_str!("golden_chrome.json");
    assert_eq!(
        json,
        golden.trim_end(),
        "Chrome export drifted from tests/golden_chrome.json; if the \
         change is intentional, regenerate with \
         `cargo test --test observability -- --ignored bless_golden`"
    );
}

#[test]
fn chrome_export_round_trips_through_serde_json() {
    let (result, names) = golden_scenario();
    let json = chrome_trace_json(&result.trace, &names);
    let back: ChromeTrace = serde_json::from_str(&json).expect("export parses");
    assert_eq!(serde_json::to_string(&back).expect("re-serializes"), json);
    // One complete ("X") segment event per SegmentStarted/Completed pair.
    let completed = result
        .trace
        .events()
        .iter()
        .filter(|e| matches!(e.kind, TraceKind::SegmentCompleted { .. }))
        .count();
    let exported = back
        .traceEvents
        .iter()
        .filter(|e| e.cat == "segment" && e.ph == "X")
        .count();
    assert!(completed > 0, "scenario must execute segments");
    assert_eq!(exported, completed);
}

/// Regenerates `tests/golden_chrome.json`. Ignored by default; run
/// explicitly after an intentional exporter change.
#[test]
#[ignore]
fn bless_golden() {
    let (result, names) = golden_scenario();
    let json = chrome_trace_json(&result.trace, &names);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_chrome.json");
    std::fs::write(path, json + "\n").expect("golden file written");
}

fn check_invariants(result: &SimResult) -> Result<(), TestCaseError> {
    let horizon = result.horizon;
    let tl = Timeline::from_trace(&result.trace, horizon);
    // Busy and idle partition the horizon exactly.
    prop_assert_eq!(tl.cpu_busy() + tl.cpu_idle(), horizon);
    prop_assert_eq!(
        tl.cpu_busy(),
        result.metrics.cpu_busy_cycles,
        "timeline busy disagrees with simulator counter"
    );
    prop_assert_eq!(
        result.trace.cpu_idle_cycles(horizon),
        result.metrics.cpu_idle_cycles,
        "trace idle intervals disagree with simulator counter"
    );
    // Utilizations and overlap are proper fractions.
    prop_assert!(tl.cpu_utilization_ppm() <= 1_000_000);
    prop_assert!(tl.dma_utilization_ppm() <= 1_000_000);
    prop_assert!(tl.overlap_ratio_ppm() <= 1_000_000);
    // DMA can never be busier than the wall clock, and overlap is
    // bounded by both parties.
    prop_assert!(tl.dma_busy() <= horizon);
    prop_assert!(tl.overlap_cycles() <= tl.dma_busy());
    prop_assert!(tl.overlap_cycles() <= tl.cpu_busy());
    let s = tl.summary();
    prop_assert_eq!(s.cpu_busy + s.cpu_idle, s.horizon);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(120),
        .. ProptestConfig::default()
    })]

    /// Timeline invariants hold on random overlapped task sets, at WCET
    /// and under execution-time jitter.
    #[test]
    fn timeline_invariants_hold(
        seed in 0u64..100_000,
        n_tasks in 1usize..6,
        util_pct in 5u64..90,
        fetch_ratio_pct in 0u64..120,
        scale_min in 300_000u64..=1_000_000,
    ) {
        let mut params = TasksetParams::baseline(n_tasks, util_pct * 10_000);
        params.fetch_compute_ratio_ppm = fetch_ratio_pct * 10_000;
        let p = PlatformConfig::stm32f746_qspi();
        let ts = generate(&params, &p, seed);
        let max_t = ts.tasks().iter().map(|t| t.period).max().unwrap();
        let config = SimConfig {
            horizon: max_t * 3,
            policy: Policy::FixedPriority,
            exec_scale_min_ppm: scale_min,
            seed,
            work_conserving: false,
            fault: FaultPlan::NONE,
            attribution: false,
            staging_window: 2,
        };
        let result = simulate(&ts, &p, &config);
        check_invariants(&result)?;
    }

    /// The same invariants hold for resident-only sets (no DMA at all:
    /// the overlap ratio must be zero, not NaN-ish garbage).
    #[test]
    fn timeline_invariants_hold_without_dma(
        seed in 0u64..100_000,
        n_tasks in 1usize..6,
        util_pct in 5u64..90,
    ) {
        let mut params = TasksetParams::baseline(n_tasks, util_pct * 10_000);
        params.mode = StagingMode::Resident;
        params.fetch_compute_ratio_ppm = 0;
        let p = PlatformConfig::stm32f746_qspi();
        let ts = generate(&params, &p, seed);
        let max_t = ts.tasks().iter().map(|t| t.period).max().unwrap();
        let config = SimConfig {
            horizon: max_t * 3,
            policy: Policy::FixedPriority,
            exec_scale_min_ppm: 1_000_000,
            seed,
            work_conserving: false,
            fault: FaultPlan::NONE,
            attribution: false,
            staging_window: 2,
        };
        let result = simulate(&ts, &p, &config);
        check_invariants(&result)?;
        let tl = Timeline::from_trace(&result.trace, result.horizon);
        prop_assert_eq!(tl.dma_busy(), Cycles::ZERO);
        prop_assert_eq!(tl.overlap_ratio_ppm(), 0);
    }

    /// Chrome exports of random runs always round-trip and pair events.
    #[test]
    fn chrome_export_always_round_trips(
        seed in 0u64..10_000,
        n_tasks in 1usize..5,
        util_pct in 5u64..70,
    ) {
        let params = TasksetParams::baseline(n_tasks, util_pct * 10_000);
        let p = PlatformConfig::stm32f746_qspi();
        let ts = generate(&params, &p, seed);
        let max_t = ts.tasks().iter().map(|t| t.period).max().unwrap();
        let config = SimConfig {
            horizon: max_t * 2,
            policy: Policy::FixedPriority,
            exec_scale_min_ppm: 1_000_000,
            seed,
            work_conserving: false,
            fault: FaultPlan::NONE,
            attribution: false,
            staging_window: 2,
        };
        let result = simulate(&ts, &p, &config);
        let names: Vec<String> = ts.tasks().iter().map(|t| t.name.clone()).collect();
        let export = chrome_trace(&result.trace, &names);
        let json = serde_json::to_string(&export).expect("serializes");
        let back: ChromeTrace = serde_json::from_str(&json).expect("parses");
        prop_assert_eq!(back.traceEvents.len(), export.traceEvents.len());
        let completed = result
            .trace
            .events()
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::SegmentCompleted { .. }))
            .count();
        let exported = export
            .traceEvents
            .iter()
            .filter(|e| e.cat == "segment" && e.ph == "X")
            .count();
        prop_assert_eq!(exported, completed);
    }
}
