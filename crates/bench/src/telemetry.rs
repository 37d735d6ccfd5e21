//! Machine-readable telemetry for the experiment harness.
//!
//! `run_all` enables the global metrics registry, diffs snapshots
//! around every experiment, and writes two JSON documents next to the
//! human-readable tables:
//!
//! - `results/metrics.json` — the full [`RunMetrics`] record: per
//!   experiment wall time, simulated-run counts, sim-cycle throughput,
//!   the aggregate registry snapshot, and a deterministic probe
//!   (pipeline counters over the model zoo plus the timeline summary
//!   of a small fixed scenario);
//! - `BENCH_run_all.json` at the repo root — the schema-stable
//!   [`BenchSummary`] subset tracked across commits.
//!
//! Wall times are nondeterministic by nature; everything else in these
//! documents is exact and independent of `RTMDM_THREADS`.

use std::path::PathBuf;
use std::time::Duration;

use serde::{Deserialize, Serialize};

use rtmdm_core::{RtMdm, TaskSpec};
use rtmdm_dnn::{zoo, CostModel};
use rtmdm_mcusim::{Cycles, PlatformConfig};
use rtmdm_obs::{Registry, Snapshot, Timeline, TimelineSummary};
use rtmdm_xmem::{pipeline, segment_model, ExecutionStrategy};

/// Version of the `metrics.json` / `BENCH_run_all.json` layout.
///
/// v2: added per-task response-time percentiles (`probe.response` in
/// `metrics.json`, `response` in `BENCH_run_all.json`).
/// v3: added the admission-service fleet throughput record (`fleet`
/// in both documents).
/// v4: added the explorer fork-versus-replay throughput record
/// (`explore` in both documents).
/// v5: dropped the simulator engine-comparison record (`engine` in
/// both documents); the simulator has a single event loop.
/// v6: dropped the single-shot `fleet` and `explore` throughput
/// records; the `perfbench` benchmark measures both with spread.
pub const SCHEMA_VERSION: u64 = 6;

/// Telemetry of one experiment invocation inside `run_all`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentMetrics {
    /// Experiment id (`t1_models`, `f3_miss_ratio`, …).
    pub id: String,
    /// Wall-clock duration of the experiment, in seconds.
    pub wall_seconds: f64,
    /// Simulator invocations the experiment performed (configs × seeds).
    pub sim_runs: u64,
    /// Simulated cycles covered by those runs.
    pub sim_cycles: u64,
    /// Simulated cycles retired per wall-clock second (0 when the
    /// experiment ran no simulations or finished below timer precision).
    pub sim_cycles_per_second: f64,
}

impl ExperimentMetrics {
    /// Builds the record for one experiment from its wall time and the
    /// registry snapshots taken before and after it ran.
    pub fn from_snapshots(id: &str, wall: Duration, before: &Snapshot, after: &Snapshot) -> Self {
        let wall_seconds = wall.as_secs_f64();
        let sim_runs = after.counter_delta(before, "sim.runs");
        let sim_cycles = after.counter_delta(before, "sim.cycles");
        let sim_cycles_per_second = if wall_seconds > 1e-9 && sim_cycles > 0 {
            sim_cycles as f64 / wall_seconds
        } else {
            0.0
        };
        ExperimentMetrics {
            id: id.to_owned(),
            wall_seconds,
            sim_runs,
            sim_cycles,
            sim_cycles_per_second,
        }
    }
}

/// Whole-run aggregates over every experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunTotals {
    /// Sum of per-experiment wall seconds (excludes harness overhead).
    pub wall_seconds: f64,
    /// Total simulator invocations.
    pub sim_runs: u64,
    /// Total simulated cycles.
    pub sim_cycles: u64,
}

/// Per-task response-time distribution of the probe scenario.
///
/// Percentiles are upper bucket bounds of the simulator's log₂
/// response histogram
/// ([`ResponseHist::percentile_upper`](rtmdm_sched::sim::ResponseHist::percentile_upper)):
/// exact, deterministic, and `None` when the task completed no jobs.
/// `max_response` is the exact observed maximum.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskResponseSummary {
    /// Task name.
    pub task: String,
    /// Completed jobs the distribution covers.
    pub completions: u64,
    /// Upper bound on the median response, in cycles.
    pub p50_upper: Option<u64>,
    /// Upper bound on the 95th-percentile response, in cycles.
    pub p95_upper: Option<u64>,
    /// Upper bound on the 99th-percentile response, in cycles.
    pub p99_upper: Option<u64>,
    /// Exact maximum observed response, in cycles.
    pub max_response: u64,
}

impl TaskResponseSummary {
    /// Extracts the summary of one task from its simulator statistics.
    pub fn from_stats(name: &str, stats: &rtmdm_sched::sim::TaskStats) -> Self {
        let pct = |p: u64| stats.response_hist.percentile_upper(p).map(Cycles::get);
        TaskResponseSummary {
            task: name.to_owned(),
            completions: stats.completions,
            p50_upper: pct(50),
            p95_upper: pct(95),
            p99_upper: pct(99),
            max_response: stats.max_response.get(),
        }
    }
}

/// Deterministic cross-check embedded in `metrics.json`: the same
/// numbers must come out on every machine and thread count, so a diff
/// against a previous run flags semantic drift immediately.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Probe {
    /// Pipeline counters from staging every zoo model once.
    pub pipeline: Snapshot,
    /// Timeline summary of a fixed two-task scenario (seed 0).
    pub timeline: TimelineSummary,
    /// Per-task response percentiles of the same fixed scenario.
    pub response: Vec<TaskResponseSummary>,
}

/// The full `results/metrics.json` document.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunMetrics {
    /// Layout version, bumped on breaking changes.
    pub schema_version: u64,
    /// Worker threads the harness ran with.
    pub workers: u64,
    /// One record per experiment, in execution order.
    pub experiments: Vec<ExperimentMetrics>,
    /// Aggregates over the experiment records.
    pub totals: RunTotals,
    /// The global registry at the end of the run.
    pub registry: Snapshot,
    /// Deterministic probe numbers (see [`Probe`]).
    pub probe: Probe,
}

/// One entry of [`BenchSummary`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchExperiment {
    /// Experiment id.
    pub id: String,
    /// Wall-clock seconds.
    pub wall_seconds: f64,
}

/// The schema-stable `BENCH_run_all.json` subset: per-experiment wall
/// seconds plus total simulated cycles. Tools tracking performance
/// across commits may rely on exactly these fields.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchSummary {
    /// Layout version, bumped on breaking changes.
    pub schema_version: u64,
    /// One entry per experiment, in execution order.
    pub experiments: Vec<BenchExperiment>,
    /// Sum of per-experiment wall seconds.
    pub total_wall_seconds: f64,
    /// Total simulated cycles across the run.
    pub total_sim_cycles: u64,
    /// Per-task response percentiles of the probe scenario
    /// (deterministic; see [`TaskResponseSummary`]).
    pub response: Vec<TaskResponseSummary>,
}

impl RunMetrics {
    /// Assembles the document from per-experiment records and the final
    /// registry snapshot.
    pub fn new(workers: usize, experiments: Vec<ExperimentMetrics>, registry: Snapshot) -> Self {
        let totals = RunTotals {
            wall_seconds: experiments.iter().map(|e| e.wall_seconds).sum(),
            sim_runs: experiments.iter().map(|e| e.sim_runs).sum(),
            sim_cycles: experiments.iter().map(|e| e.sim_cycles).sum(),
        };
        RunMetrics {
            schema_version: SCHEMA_VERSION,
            workers: workers as u64,
            experiments,
            totals,
            registry,
            probe: probe(),
        }
    }

    /// The [`BenchSummary`] subset of this record.
    pub fn bench_summary(&self) -> BenchSummary {
        BenchSummary {
            schema_version: SCHEMA_VERSION,
            experiments: self
                .experiments
                .iter()
                .map(|e| BenchExperiment {
                    id: e.id.clone(),
                    wall_seconds: e.wall_seconds,
                })
                .collect(),
            total_wall_seconds: self.totals.wall_seconds,
            total_sim_cycles: self.totals.sim_cycles,
            response: self.probe.response.clone(),
        }
    }
}

/// Computes the deterministic probe: pipeline staging counters over the
/// whole model zoo plus the timeline summary of a fixed scenario.
pub fn probe() -> Probe {
    // Pipeline counters: stage every zoo model once, overlapped, on the
    // reference platform with a 48 KiB double buffer.
    let platform = PlatformConfig::stm32f746_qspi();
    let cost = CostModel::cmsis_nn_m7();
    let mut reg = Registry::new();
    for model in zoo::all() {
        if let Ok(seg) = segment_model(&model, &cost, 48 * 1024) {
            let stages =
                pipeline::stage_timings(&seg, &platform, ExecutionStrategy::OverlappedPrefetch);
            pipeline::record_stage_metrics(&stages, &mut reg);
        }
    }
    // Timeline summary: keyword spotting + image classification for one
    // simulated second, no jitter, seed 0.
    let mut fw = RtMdm::new(platform).expect("reference platform is valid");
    fw.add_task(TaskSpec::new("kws", zoo::ds_cnn(), 100_000, 100_000))
        .expect("kws task admits");
    fw.add_task(TaskSpec::new("ic", zoo::resnet8(), 400_000, 400_000))
        .expect("ic task admits");
    let run = fw
        .simulate_with(1_000_000, 1_000_000, 0)
        .expect("probe scenario simulates");
    let timeline = Timeline::from_trace(&run.result.trace, run.result.horizon).summary();
    let response = run
        .names
        .iter()
        .zip(&run.result.stats)
        .map(|(name, stats)| TaskResponseSummary::from_stats(name, stats))
        .collect();
    Probe {
        pipeline: reg.snapshot(),
        timeline,
        response,
    }
}

/// Repo-root path of the schema-stable summary file.
pub fn bench_summary_path() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench → repo root is two levels up.
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.push("BENCH_run_all.json");
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_is_deterministic() {
        let a = probe();
        let b = probe();
        assert_eq!(
            serde_json::to_string(&a.pipeline).unwrap(),
            serde_json::to_string(&b.pipeline).unwrap()
        );
        assert_eq!(a.timeline.horizon, b.timeline.horizon);
        assert_eq!(a.timeline.cpu_busy, b.timeline.cpu_busy);
        assert_eq!(a.timeline.dma_busy, b.timeline.dma_busy);
        // The partition invariant holds on the probe scenario too.
        assert_eq!(
            a.timeline.cpu_busy + a.timeline.cpu_idle,
            a.timeline.horizon
        );
        assert!(a.pipeline.counter("pipeline.stages") > 0);
        // Response percentiles: one entry per task, identical across
        // runs, ordered like the percentiles they approximate.
        assert_eq!(a.response, b.response);
        assert_eq!(a.response.len(), 2);
        assert_eq!(a.response[0].task, "kws");
        for r in &a.response {
            assert!(r.completions > 0, "{r:?}");
            let (p50, p95, p99) = (
                r.p50_upper.expect("completed"),
                r.p95_upper.expect("completed"),
                r.p99_upper.expect("completed"),
            );
            assert!(p50 <= p95 && p95 <= p99, "{r:?}");
            assert!(r.max_response > 0, "{r:?}");
        }
    }

    #[test]
    fn metrics_document_round_trips_and_sums() {
        let before = Snapshot::default();
        let mut reg = Registry::new();
        reg.add("sim.runs", 3);
        reg.add("sim.cycles", 600);
        let after = reg.snapshot();
        let e = ExperimentMetrics::from_snapshots(
            "f3_miss_ratio",
            Duration::from_millis(250),
            &before,
            &after,
        );
        assert_eq!(e.sim_runs, 3);
        assert_eq!(e.sim_cycles, 600);
        assert!(e.sim_cycles_per_second > 0.0);
        let doc = RunMetrics::new(4, vec![e.clone(), e], after);
        assert_eq!(doc.totals.sim_runs, 6);
        assert_eq!(doc.totals.sim_cycles, 1200);
        let json = serde_json::to_string(&doc).unwrap();
        let back: RunMetrics = serde_json::from_str(&json).unwrap();
        assert_eq!(back.schema_version, SCHEMA_VERSION);
        assert_eq!(back.experiments.len(), 2);
        assert_eq!(back.totals.sim_cycles, 1200);
        let summary = doc.bench_summary();
        assert_eq!(summary.experiments.len(), 2);
        assert_eq!(summary.total_sim_cycles, 1200);
        let sjson = serde_json::to_string(&summary).unwrap();
        let sback: BenchSummary = serde_json::from_str(&sjson).unwrap();
        assert_eq!(sback.experiments[0].id, "f3_miss_ratio");
        assert_eq!(sback.schema_version, 6);
        // No retired throughput record survives in either document.
        for key in ["\"engine\"", "\"fleet\"", "\"explore\""] {
            assert!(!json.contains(key), "{key} in {json}");
            assert!(!sjson.contains(key), "{key} in {sjson}");
        }
        // The summary carries the probe's per-task percentiles.
        assert_eq!(sback.response, doc.probe.response);
        assert!(!sback.response.is_empty());
    }

    #[test]
    fn zero_wall_time_does_not_divide_by_zero() {
        let empty = Snapshot::default();
        let e = ExperimentMetrics::from_snapshots("t1_models", Duration::ZERO, &empty, &empty);
        assert_eq!(e.sim_cycles_per_second, 0.0);
    }
}
