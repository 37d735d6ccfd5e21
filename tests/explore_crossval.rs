//! Two-way cross-validation of the exhaustive explorer against the
//! simulator, in both directions.
//!
//! 1. **Admitted implies explorer-safe** — every zoo model × platform
//!    cell whose static report is clean explores to completion with no
//!    `RTM050`/`RTM051`, under the deterministic WCET lattice and (for
//!    the reference two-task cell) under sub-WCET execution endpoints.
//!
//! 2. **Explorer-found implies simulator-reproducible** — every
//!    directed violation scenario (overload miss, widened-window race,
//!    exhausted retry budget) yields a witness whose script, replayed
//!    through the simulator, reproduces the violating event at the
//!    explorer-predicted cycle, with the blame decomposition naming the
//!    same dominant cause. A property test extends direction 2 over
//!    random generated task sets, and a witness file written before the
//!    simulator's `engine` setting was retired still loads and replays.
//!
//! 3. **Strategy and thread-count equivalence** — the fork-based
//!    incremental explorer and the replay-from-zero reference produce
//!    identical verdicts, counters, and witness JSON over random task
//!    sets × jitter × fault environments and on the budget-cut F14s
//!    scale cells (deep-first, 6–8 tasks), and the `check --explore`
//!    pipeline's output is byte-identical at any speculative worker
//!    count. `Replay` is the library's reference strategy: the CLI
//!    always runs fork, so these tests are where the two meet.

use proptest::prelude::*;

use rt_mdm::check::{
    explore, ExploreLimits, ExploreOrder, ExploreOutcome, ExploreStrategy, Rule, Witness,
};
use rt_mdm::core::{CheckOptions, ExploreOptions, SystemSpec, TaskSpec};
use rt_mdm::dnn::zoo;
use rt_mdm::mcusim::{ContentionModel, Cycles, FaultPlan, PlatformConfig, TraceKind};
use rt_mdm::obs::attribute;
use rt_mdm::sched::gen::{generate, TasksetParams};
use rt_mdm::sched::sim::{Policy, SimConfig, SimResult};
use rt_mdm::sched::{Segment, SporadicTask, StagingMode, TaskSet};

fn cy(n: u64) -> Cycles {
    Cycles::new(n)
}

/// A contention- and overhead-free platform so directed scenarios have
/// exactly the cycle arithmetic their comments claim.
fn bare_platform() -> PlatformConfig {
    let mut p = PlatformConfig::stm32f746_qspi();
    p.contention = ContentionModel::NONE;
    p.context_switch_cycles = Cycles::ZERO;
    p.ext_mem.setup_cycles = Cycles::ZERO;
    p.ext_mem.cycles_per_byte_num = 1;
    p.ext_mem.cycles_per_byte_den = 1;
    p
}

fn base_config(horizon: u64) -> SimConfig {
    SimConfig {
        horizon: cy(horizon),
        policy: Policy::FixedPriority,
        exec_scale_min_ppm: 1_000_000,
        seed: 0,
        work_conserving: false,
        fault: FaultPlan::NONE,
        attribution: true,
        staging_window: 2,
    }
}

/// Replays `w` twice, asserts the runs are byte-identical and
/// reproduce the witnessed violation at `w.at`, and returns the replay
/// result.
fn assert_witness_replays(w: &Witness) -> SimResult {
    let run = w.replay();
    let again = w.replay();
    assert_eq!(
        run.trace.events(),
        again.trace.events(),
        "witness replay is not deterministic"
    );
    assert_eq!(run.stats, again.stats);
    assert_eq!(run.races, again.races);

    match w.rule.as_str() {
        "RTM051" => {
            let race = run
                .races
                .iter()
                .find(|r| r.at.get() == w.at)
                .unwrap_or_else(|| panic!("no race at predicted cycle {} in replay", w.at));
            assert_eq!(race.task, w.task);
            assert_eq!(race.job, w.job);
        }
        _ => {
            let miss = run
                .trace
                .events()
                .iter()
                .find(|e| {
                    matches!(
                        e.kind,
                        TraceKind::DeadlineMissed { task, job }
                            if task.0 == w.task && job.0 == w.job
                    )
                })
                .expect("replay reproduces the witnessed miss");
            assert_eq!(
                miss.time.get(),
                w.at,
                "explorer-predicted miss instant != simulated miss instant"
            );
        }
    }

    // Blame agreement: attributing the replayed trace must name the
    // same dominant interference source for the victim job that the
    // explorer recorded in the witness.
    let replay_blame = attribute(&run.trace)
        .expect("replayed trace attributes")
        .jobs
        .iter()
        .find(|j| j.task.0 == w.task && j.job.0 == w.job)
        .and_then(|j| j.dominant_interference())
        .map(|(src, _)| src.to_string());
    assert_eq!(
        replay_blame, w.dominant_blame,
        "replay blame decomposition disagrees with the witness"
    );
    run
}

// ---------------------------------------------------------------------
// Direction 1: admitted cells are explorer-safe.
// ---------------------------------------------------------------------

/// Statically clean cells must explore to completion with no reachable
/// miss or race under the given execution-scale lattice.
fn assert_cell_explorer_safe(platform: PlatformConfig, tasks: &[TaskSpec], exec_min_ppm: u64) {
    let mut spec = SystemSpec::new(platform.clone());
    for t in tasks {
        spec.push(t.clone());
    }
    if !spec.check().is_clean() {
        return; // the property only claims anything for clean cells
    }
    let outcome = spec.check_with(&CheckOptions {
        explore: Some(ExploreOptions {
            exec_scale_min_ppm: exec_min_ppm,
            ..ExploreOptions::default()
        }),
    });
    let stats = outcome.explore_stats.expect("clean cells explore");
    assert!(
        stats.complete,
        "{}: exploration must cover the lattice",
        platform.name
    );
    assert!(
        !outcome
            .report
            .findings
            .iter()
            .any(|f| matches!(f.rule, Rule::Rtm050 | Rule::Rtm051)),
        "{}: admitted cell reached a violation:\n{}",
        platform.name,
        outcome.report.render_text()
    );
    assert!(outcome.witness.is_none());
}

#[test]
fn admitted_zoo_cells_are_explorer_safe() {
    type ModelBuilder = fn() -> rt_mdm::dnn::Model;
    let models: &[(&str, ModelBuilder)] = &[
        ("micro-mlp", zoo::micro_mlp),
        ("ds-cnn", zoo::ds_cnn),
        ("lenet5", zoo::lenet5),
        ("resnet8", zoo::resnet8),
        ("mobilenet-v1-025", zoo::mobilenet_v1_025),
        ("autoencoder", zoo::autoencoder),
    ];
    for platform in PlatformConfig::presets() {
        for (name, build) in models {
            let task = TaskSpec::new(*name, build(), 1_000_000, 1_000_000);
            assert_cell_explorer_safe(platform.clone(), &[task], 1_000_000);
        }
    }
}

#[test]
fn admitted_reference_pair_is_explorer_safe_under_exec_endpoints() {
    // The paper's reference cell, with the execution-time dimension
    // enabled: every job may run at WCET or at 60 % of it, and no
    // interleaving of those endpoints misses or races.
    let tasks = [
        TaskSpec::new("kws", zoo::ds_cnn(), 100_000, 100_000),
        TaskSpec::new("ic", zoo::resnet8(), 400_000, 400_000),
    ];
    assert_cell_explorer_safe(PlatformConfig::stm32f746_qspi(), &tasks, 600_000);
}

// ---------------------------------------------------------------------
// Direction 2: explorer findings replay in the simulator.
// ---------------------------------------------------------------------

#[test]
fn overload_miss_witness_replays_deterministically() {
    let mut spec = SystemSpec::new(PlatformConfig::stm32f746_qspi());
    spec.push(TaskSpec::new("ic", zoo::resnet8(), 10_000, 10_000));
    let outcome = spec.check_with(&CheckOptions {
        explore: Some(ExploreOptions::default()),
    });
    assert!(outcome
        .report
        .findings
        .iter()
        .any(|f| f.rule == Rule::Rtm050));
    let w = outcome.witness.expect("overload yields a witness");
    assert_eq!(w.rule, "RTM050");
    assert_witness_replays(&w);
}

#[test]
fn jitter_miss_witness_replays_deterministically() {
    // Feasible when periodic (600 compute in a 1000 deadline); a
    // 500-cycle release jitter pushes completion past the anchored
    // deadline on exactly one explored branch.
    let ts = TaskSet::from_tasks(vec![SporadicTask::new(
        "t",
        cy(2_000),
        cy(1_000),
        vec![Segment::new(cy(600), 0)],
        StagingMode::Resident,
    )
    .expect("valid task")]);
    let out = explore(
        &ts,
        &bare_platform(),
        &base_config(8_000),
        &ExploreLimits {
            max_states: 10_000,
            jitter_max_cycles: 500,
            ..ExploreLimits::default()
        },
    );
    let w = out.witness.expect("jitter miss yields a witness");
    assert_eq!(w.rule, "RTM050");
    assert_witness_replays(&w);
}

#[test]
fn widened_window_race_witness_replays_deterministically() {
    let ts = TaskSet::from_tasks(vec![SporadicTask::new(
        "a",
        cy(2_000_000),
        cy(2_000_000),
        (0..4).map(|_| Segment::new(cy(200_000), 256)).collect(),
        StagingMode::Overlapped,
    )
    .expect("valid task")]);
    let mut cfg = base_config(2_000_000);
    cfg.staging_window = 3;
    let out = explore(&ts, &bare_platform(), &cfg, &ExploreLimits::default());
    let w = out.witness.expect("widened window yields a witness");
    assert_eq!(w.rule, "RTM051");
    assert_witness_replays(&w);
}

#[test]
fn retry_budget_witness_replays_deterministically() {
    let ts = TaskSet::from_tasks(vec![SporadicTask::new(
        "a",
        cy(40_000),
        cy(40_000),
        (0..3).map(|_| Segment::new(cy(1_000), 4_096)).collect(),
        StagingMode::Overlapped,
    )
    .expect("valid task")]);
    let mut cfg = base_config(40_000);
    cfg.fault = FaultPlan {
        seed: 0,
        dma_fault_rate_ppm: 1,
        max_retries: 3,
        jitter_max_cycles: 0,
    };
    let out = explore(&ts, &bare_platform(), &cfg, &ExploreLimits::default());
    let w = out.witness.expect("fault paths yield a witness");
    assert_eq!(w.rule, "RTM052");
    assert_witness_replays(&w);
}

#[test]
fn witness_json_round_trips_and_still_replays() {
    // The file the CLI writes is the witness itself: serializing,
    // re-parsing, and replaying must reproduce the identical run.
    let mut spec = SystemSpec::new(PlatformConfig::stm32f746_qspi());
    spec.push(TaskSpec::new("ic", zoo::resnet8(), 10_000, 10_000));
    let outcome = spec.check_with(&CheckOptions {
        explore: Some(ExploreOptions::default()),
    });
    let w = outcome.witness.expect("witness");
    let json = serde_json::to_string(&w).expect("witness serializes");
    let back: Witness = serde_json::from_str(&json).expect("witness re-parses");
    assert_eq!(back.schema, "rtmdm-witness/1");
    let a = w.replay();
    let b = back.replay();
    assert_eq!(a.trace.events(), b.trace.events());
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.races, b.races);
}

/// A witness file written while `SimConfig` still had an `engine` field:
/// the jitter-miss scenario above, whose script delays job 0 by 500
/// cycles.
const ENGINE_KEYED_WITNESS: &str = concat!(
    r#"{"schema":"rtmdm-witness/1","rule":"RTM050","task":0,"job":0,"at":1000,"#,
    r#""dominant_blame":"dispatch-wait","#,
    r#""task_set":{"tasks":[{"name":"t","period":2000,"deadline":1000,"#,
    r#""segments":[{"compute":600,"fetch_bytes":0}],"mode":"Resident","#,
    r#""miss_policy":"Continue"}]},"#,
    r#""platform":{"name":"stm32f746-qspi","cpu":200000000,"sram_bytes":327680,"#,
    r#""flash_bytes":1048576,"ext_mem":{"kind":"QspiFlash","setup_cycles":0,"#,
    r#""cycles_per_byte_num":1,"cycles_per_byte_den":1},"#,
    r#""contention":{"cpu_inflation_ppm":0,"dma_inflation_ppm":0},"#,
    r#""dma_channels":1,"context_switch_cycles":0},"#,
    r#""config":{"horizon":8000,"policy":"FixedPriority","exec_scale_min_ppm":1000000,"#,
    r#""seed":0,"work_conserving":false,"fault":{"seed":0,"dma_fault_rate_ppm":0,"#,
    r#""max_retries":3,"jitter_max_cycles":0},"engine":"Des","attribution":true,"#,
    r#""staging_window":2},"#,
    r#""script":[{"point":{"ReleaseJitter":{"task":0,"job":0}},"value":{"ReleaseJitter":500}},"#,
    r#"{"point":{"ReleaseJitter":{"task":0,"job":1}},"value":{"ReleaseJitter":0}},"#,
    r#"{"point":{"ReleaseJitter":{"task":0,"job":2}},"value":{"ReleaseJitter":0}},"#,
    r#"{"point":{"ReleaseJitter":{"task":0,"job":3}},"value":{"ReleaseJitter":0}}]}"#,
);

#[test]
fn witness_with_retired_engine_key_still_loads_and_replays() {
    let w: Witness = serde_json::from_str(ENGINE_KEYED_WITNESS).expect("old witness parses");
    assert_eq!(w.schema, "rtmdm-witness/1");
    assert_eq!(
        (w.rule.as_str(), w.task, w.job, w.at),
        ("RTM050", 0, 0, 1_000)
    );
    // Nothing but the retired key is lost on the way through.
    assert_eq!(
        serde_json::to_string(&w).expect("witness serializes"),
        ENGINE_KEYED_WITNESS.replace(r#""engine":"Des","#, "")
    );
    assert_witness_replays(&w);
}

// ---------------------------------------------------------------------
// Property: any witness the explorer finds on a random generated set
// replays byte-identically.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig {
        cases: std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(16),
        ..ProptestConfig::default()
    })]

    #[test]
    fn explored_witnesses_replay_deterministically(
        n in 1usize..4,
        util_ppm in 300_000u64..1_200_000,
        seed in 0u64..64,
        wide_exec in proptest::bool::ANY,
        with_jitter in proptest::bool::ANY,
    ) {
        let exec_min_ppm = if wide_exec { 500_000u64 } else { 1_000_000 };
        let jitter_max = if with_jitter { 40_000u64 } else { 0 };
        let platform = PlatformConfig::stm32f746_qspi();
        let mut params = TasksetParams::baseline(n, util_ppm).with_grid_periods();
        params.segments_range = (2, 4);
        let ts = generate(&params, &platform, seed);
        let horizon = ts.tasks().iter().map(|t| t.period).max().unwrap() * 2;
        let mut cfg = base_config(horizon.get());
        cfg.exec_scale_min_ppm = exec_min_ppm;
        let limits = ExploreLimits {
            max_states: 500,
            jitter_max_cycles: jitter_max,
            ..ExploreLimits::default()
        };
        let out = explore(&ts, &platform, &cfg, &limits);
        if let Some(w) = &out.witness {
            // Every violation must have been classified and replayed.
            prop_assert!(matches!(
                w.rule.as_str(),
                "RTM050" | "RTM051" | "RTM052"
            ));
            assert_witness_replays(w);
        } else {
            // No witness: either proven safe or honestly inconclusive.
            prop_assert!(
                out.proven_safe()
                    || out.findings.iter().any(|f| f.rule == Rule::Rtm053),
                "findings: {:?}",
                out.findings
            );
        }
    }

    /// The differential contract behind the fork strategy: fork-based
    /// incremental exploration and replay-from-zero produce identical
    /// verdicts, counters, and witness JSON over random task sets ×
    /// jitter × fault environments.
    #[test]
    fn fork_and_replay_strategies_are_outcome_identical(
        n in 1usize..4,
        util_ppm in 300_000u64..1_200_000,
        seed in 0u64..64,
        wide_exec in proptest::bool::ANY,
        with_jitter in proptest::bool::ANY,
        with_faults in proptest::bool::ANY,
        deep_first in proptest::bool::ANY,
    ) {
        let platform = PlatformConfig::stm32f746_qspi();
        let mut params = TasksetParams::baseline(n, util_ppm).with_grid_periods();
        params.segments_range = (2, 4);
        let ts = generate(&params, &platform, seed);
        let horizon = ts.tasks().iter().map(|t| t.period).max().unwrap() * 2;
        let mut cfg = base_config(horizon.get());
        cfg.exec_scale_min_ppm = if wide_exec { 500_000 } else { 1_000_000 };
        if with_faults {
            cfg.fault = FaultPlan {
                seed: 0,
                dma_fault_rate_ppm: 1,
                max_retries: 2,
                jitter_max_cycles: 0,
            };
        }
        let limits = ExploreLimits {
            max_states: 400,
            jitter_max_cycles: if with_jitter { 40_000 } else { 0 },
            order: if deep_first {
                ExploreOrder::DeepFirst
            } else {
                ExploreOrder::ShallowFirst
            },
            ..ExploreLimits::default()
        };
        let forked = explore(&ts, &platform, &cfg, &ExploreLimits {
            strategy: ExploreStrategy::Fork,
            ..limits
        });
        let replayed = explore(&ts, &platform, &cfg, &ExploreLimits {
            strategy: ExploreStrategy::Replay,
            ..limits
        });
        prop_assert_eq!(outcome_fingerprint(&forked), outcome_fingerprint(&replayed));
    }
}

/// Renders an exploration outcome into one comparable blob: every
/// finding, the witness JSON the CLI would write, and the counters.
fn outcome_fingerprint(out: &ExploreOutcome) -> String {
    let findings: Vec<String> = out
        .findings
        .iter()
        .map(|f| format!("{:?}|{}|{:?}", f.rule, f.message, f.task))
        .collect();
    let witness = out
        .witness
        .as_ref()
        .map(|w| serde_json::to_string(w).expect("witness serializes"));
    format!("{findings:?}\n{witness:?}\n{:?}", out.stats)
}

/// `check --explore` output — report text, stats and witness JSON — is
/// byte-identical at any speculative worker count, for both strategies
/// (the CI smoke repeats the thread half on the CLI binary with
/// `RTMDM_THREADS=1` vs `8`, report and witness).
#[test]
fn check_explore_pipeline_is_thread_count_invariant() {
    let run = |strategy, threads| {
        let mut spec = SystemSpec::new(PlatformConfig::stm32f746_qspi());
        spec.push(TaskSpec::new("ic", zoo::resnet8(), 10_000, 10_000));
        let outcome = spec.check_with(&CheckOptions {
            explore: Some(ExploreOptions {
                strategy,
                threads,
                ..ExploreOptions::default()
            }),
        });
        let w = outcome.witness.expect("overload yields a witness");
        format!(
            "{}\n{:?}\n{}",
            outcome.report.render_text(),
            outcome.explore_stats,
            serde_json::to_string(&w).expect("witness serializes"),
        )
    };
    for strategy in [ExploreStrategy::Fork, ExploreStrategy::Replay] {
        let one = run(strategy, 1);
        assert_eq!(one, run(strategy, 2), "{strategy:?}: 1 vs 2 workers");
        assert_eq!(one, run(strategy, 8), "{strategy:?}: 1 vs 8 workers");
    }
    assert_eq!(
        run(ExploreStrategy::Fork, 1),
        run(ExploreStrategy::Replay, 8),
        "strategies must agree byte for byte"
    );
}

/// Fork equals replay in the scale regime the F14s table explores:
/// deep-first order, 6–8 tasks at 25 % utilization, a 12-period
/// horizon, and searches that branch hundreds of times before the
/// state budget cuts them (the random sets above are small and mostly
/// complete). The 6-task cell checks the witness path; the budgets of
/// the 7- and 8-task cells sit just above the point where the first
/// run alone exhausts them, so both still fork on every branch.
#[test]
fn fork_equals_replay_on_the_f14s_scale_cells() {
    let platform = PlatformConfig::stm32f746_qspi();
    for (n, max_states, want) in [
        (6usize, 2_000usize, Rule::Rtm050),
        (7, 1_100, Rule::Rtm053),
        (8, 1_150, Rule::Rtm053),
    ] {
        let mut params = TasksetParams::baseline(n, 250_000).with_grid_periods();
        params.segments_range = (2, 4);
        let ts = generate(&params, &platform, 1);
        let horizon = ts.tasks().iter().map(|t| t.period).max().unwrap() * 12;
        let mut cfg = base_config(horizon.get());
        cfg.exec_scale_min_ppm = 600_000;
        let run = |strategy, threads| {
            explore(
                &ts,
                &platform,
                &cfg,
                &ExploreLimits {
                    max_states,
                    strategy,
                    threads,
                    order: ExploreOrder::DeepFirst,
                    ..ExploreLimits::default()
                },
            )
        };
        let fork = run(ExploreStrategy::Fork, 1);
        assert_eq!(fork.findings[0].rule, want, "{n} tasks");
        if want == Rule::Rtm053 {
            assert!(fork.stats.runs > 100, "{n} tasks: {:?}", fork.stats);
        } else {
            assert!(fork.witness.is_some(), "{n} tasks: no witness");
        }
        let blob = outcome_fingerprint(&fork);
        assert_eq!(
            blob,
            outcome_fingerprint(&run(ExploreStrategy::Fork, 8)),
            "{n} tasks: fork at 1 vs 8 threads"
        );
        assert_eq!(
            blob,
            outcome_fingerprint(&run(ExploreStrategy::Replay, 1)),
            "{n} tasks: fork vs replay"
        );
    }
}
