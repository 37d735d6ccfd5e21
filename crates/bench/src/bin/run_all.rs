//! Regenerates every table and figure of the evaluation in one go,
//! reporting per-experiment wall time. Worker count comes from
//! `RTMDM_THREADS` (default: available parallelism); the emitted tables
//! are byte-identical for any thread count.
//!
//! Besides the tables, the run records telemetry through the global
//! metrics registry and writes `results/metrics.json` plus the
//! schema-stable `BENCH_run_all.json` at the repo root (see
//! [`rtmdm_bench::telemetry`]).
use std::time::Instant;

use rtmdm_bench::{emit, experiments as e, results_dir, telemetry};
use rtmdm_par::num_threads;

type Experiment = (&'static str, fn() -> String);

fn main() {
    let experiments: [Experiment; 18] = [
        ("t1_models", e::t1_models),
        ("t2_platforms", e::t2_platforms),
        ("t3_wcrt", e::t3_wcrt),
        ("f1_latency", e::f1_latency),
        ("f2_sched_ratio", e::f2_sched_ratio),
        ("f3_miss_ratio", e::f3_miss_ratio),
        ("f4_sram_budget", e::f4_sram_budget),
        ("f5_bandwidth", e::f5_bandwidth),
        ("f6_blocking", e::f6_blocking),
        ("f7_opa", e::f7_opa),
        ("f8_ablation", e::f8_ablation),
        ("f9_energy", e::f9_energy),
        ("f10_platforms", e::f10_platforms),
        ("f11_robustness", e::f11_robustness),
        ("f13_blame", e::f13_blame),
        ("f14_explore", e::f14_explore),
        ("f14_explore_scale", e::f14_explore_scale),
        ("f15_fleet", e::f15_fleet),
    ];
    let registry = rtmdm_obs::metrics::global();
    registry.enable(true);
    registry.reset();
    println!("run_all: {} workers", num_threads());
    let total = Instant::now();
    let mut records = Vec::with_capacity(experiments.len());
    let mut before = registry.snapshot();
    for (id, run) in experiments {
        let start = Instant::now();
        let output = run();
        let elapsed = start.elapsed();
        emit(id, &output);
        let after = registry.snapshot();
        let rec = telemetry::ExperimentMetrics::from_snapshots(id, elapsed, &before, &after);
        println!(
            "-- {id}: {:.2}s ({} sim runs, {} sim cycles)",
            rec.wall_seconds, rec.sim_runs, rec.sim_cycles
        );
        records.push(rec);
        before = after;
    }
    let final_snapshot = registry.snapshot();
    let doc = telemetry::RunMetrics::new(num_threads(), records, final_snapshot);
    let json = serde_json::to_string(&doc).expect("metrics serialize");
    let metrics_path = results_dir().join("metrics.json");
    if let Err(err) = std::fs::write(&metrics_path, &json) {
        eprintln!("run_all: cannot write {}: {err}", metrics_path.display());
    }
    let summary = serde_json::to_string(&doc.bench_summary()).expect("summary serialize");
    let summary_path = telemetry::bench_summary_path();
    if let Err(err) = std::fs::write(&summary_path, &summary) {
        eprintln!("run_all: cannot write {}: {err}", summary_path.display());
    }
    println!(
        "run_all total: {:.2}s ({} sim runs, {} sim cycles) -> {}",
        total.elapsed().as_secs_f64(),
        doc.totals.sim_runs,
        doc.totals.sim_cycles,
        metrics_path.display()
    );
}
