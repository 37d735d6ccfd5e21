//! Choice-oracle contract tests: the oracle hook must be invisible when
//! it answers every query with the deterministic default, and a recorded
//! script must replay identically — these two properties are what make
//! explorer witnesses trustworthy.

use rtmdm_mcusim::{Cycles, FaultPlan, PlatformConfig, TraceKind};
use rtmdm_sched::gen::{generate, TasksetParams};
use rtmdm_sched::script::{
    Choice, ChoicePoint, ScriptOracle, ScriptedChoice, SimOracle, StateHash,
};
use rtmdm_sched::sim::{
    simulate, simulate_with_oracle, simulate_with_oracle_forked, Policy, RaceKind, SimConfig,
    SimResult,
};
use rtmdm_sched::{Segment, SporadicTask, StagingMode, TaskSet};

fn cy(n: u64) -> Cycles {
    Cycles::new(n)
}

fn platform() -> PlatformConfig {
    PlatformConfig::stm32f746_qspi()
}

fn config(horizon: u64) -> SimConfig {
    SimConfig {
        horizon: cy(horizon),
        policy: Policy::FixedPriority,
        exec_scale_min_ppm: 1_000_000,
        seed: 0,
        work_conserving: false,
        fault: FaultPlan::NONE,
        attribution: false,
        staging_window: 2,
    }
}

fn overlapped(name: &str, period: u64, segs: &[(u64, u64)]) -> SporadicTask {
    SporadicTask::new(
        name,
        cy(period),
        cy(period),
        segs.iter().map(|&(c, b)| Segment::new(cy(c), b)).collect(),
        StagingMode::Overlapped,
    )
    .expect("valid task")
}

fn resident(name: &str, period: u64, deadline: u64, compute: u64) -> SporadicTask {
    SporadicTask::new(
        name,
        cy(period),
        cy(deadline),
        vec![Segment::new(cy(compute), 0)],
        StagingMode::Resident,
    )
    .expect("valid task")
}

fn assert_same_run(a: &SimResult, b: &SimResult, ctx: &str) {
    assert_eq!(a.trace.events(), b.trace.events(), "{ctx}: trace");
    assert_eq!(a.stats, b.stats, "{ctx}: stats");
    assert_eq!(a.races, b.races, "{ctx}: races");
}

/// An oracle that always answers the deterministic default.
struct DefaultOracle;

impl SimOracle for DefaultOracle {
    fn choose(&mut self, point: ChoicePoint, _state: StateHash) -> Choice {
        Choice::default_for(&point)
    }
}

/// A default-answering oracle must be invisible: the run is
/// byte-identical to a plain `simulate` of the same config, for
/// generated task sets. This is the foundation the
/// explorer's "default spine" rests on.
#[test]
fn default_oracle_run_is_byte_identical_to_plain() {
    let p = platform();
    for seed in 0..8u64 {
        let params = TasksetParams::baseline(3, 500_000);
        let ts = generate(&params, &p, seed);
        let horizon = ts.tasks().iter().map(|t| t.period.get()).max().unwrap() * 3;
        let cfg = config(horizon);
        let plain = simulate(&ts, &p, &cfg);
        let mut oracle = DefaultOracle;
        let oracled = simulate_with_oracle(&ts, &p, &cfg, &mut oracle);
        assert_same_run(&plain, &oracled, &format!("seed {seed}"));
    }
}

/// With `exec_scale_min_ppm < 1_000_000` the oracle's default answer is
/// WCET, so the oracled run must match a plain run whose scale floor is
/// pinned at WCET (the RNG never fires under an oracle).
#[test]
fn default_oracle_pins_exec_scale_at_wcet() {
    let p = platform();
    let ts = TaskSet::from_tasks(vec![
        overlapped("a", 40_000, &[(3_000, 2_048), (4_000, 1_024)]),
        resident("b", 70_000, 70_000, 9_000),
    ]);
    let mut scaled = config(200_000);
    scaled.exec_scale_min_ppm = 400_000;
    let mut oracle = DefaultOracle;
    let oracled = simulate_with_oracle(&ts, &p, &scaled, &mut oracle);
    let wcet = simulate(&ts, &p, &config(200_000));
    assert_eq!(oracled.trace.events(), wcet.trace.events());
    assert_eq!(oracled.stats, wcet.stats);
}

/// Scripted release jitter delays a job's entry while its deadline stays
/// anchored at the nominal release: enough jitter turns an easily
/// feasible job into a deadline miss.
#[test]
fn scripted_jitter_keeps_deadline_anchored() {
    let p = platform();
    let ts = TaskSet::from_tasks(vec![resident("t", 100_000, 50_000, 20_000)]);
    let cfg = config(100_000);
    // No jitter: finishes well inside the deadline.
    assert!(simulate(&ts, &p, &cfg).no_misses());
    // 40k cycles of jitter: entry at 40k + ~20k compute > 50k deadline.
    let script = vec![ScriptedChoice {
        point: ChoicePoint::ReleaseJitter { task: 0, job: 0 },
        value: Choice::ReleaseJitter(cy(40_000)),
    }];
    let mut oracle = ScriptOracle::new(script);
    let run = simulate_with_oracle(&ts, &p, &cfg, &mut oracle);
    assert!(run.stats[0].misses >= 1, "anchored deadline must be missed");
    assert!(run
        .trace
        .events()
        .iter()
        .any(|e| matches!(e.kind, TraceKind::DeadlineMissed { .. })));
}

/// A scripted transfer fault forces the re-issue path: the trace carries
/// the `FetchFaulted` event and the faulted run finishes strictly later
/// than the clean one.
#[test]
fn scripted_transfer_fault_forces_retry() {
    let p = platform();
    let ts = TaskSet::from_tasks(vec![overlapped(
        "a",
        400_000,
        &[(3_000, 4_096), (3_000, 4_096)],
    )]);
    let mut cfg = config(400_000);
    // A live fault environment is required for the oracle to be asked;
    // the rate itself is ignored under an oracle.
    cfg.fault = FaultPlan {
        seed: 1,
        dma_fault_rate_ppm: 1,
        max_retries: 3,
        jitter_max_cycles: 0,
    };
    struct FaultFirst;
    impl SimOracle for FaultFirst {
        fn choose(&mut self, point: ChoicePoint, _state: StateHash) -> Choice {
            match point {
                ChoicePoint::TransferFault {
                    seg: 0, attempt: 0, ..
                } => Choice::TransferFault(true),
                _ => Choice::default_for(&point),
            }
        }
    }
    let mut faulty = FaultFirst;
    let run = simulate_with_oracle(&ts, &p, &cfg, &mut faulty);
    assert!(run
        .trace
        .events()
        .iter()
        .any(|e| matches!(e.kind, TraceKind::FetchFaulted { attempt: 0, .. })));
    let mut clean = DefaultOracle;
    let clean_run = simulate_with_oracle(&ts, &p, &cfg, &mut clean);
    assert!(clean_run
        .trace
        .events()
        .iter()
        .all(|e| !matches!(e.kind, TraceKind::FetchFaulted { .. })));
    assert!(run.stats[0].total_response > clean_run.stats[0].total_response);
}

/// The default two-ahead staging window provably excludes buffer-half
/// overlap, so the always-on race monitor must stay silent; a widened
/// window of 3 lets the DMA write segment `k + 2` into the half the CPU
/// is still reading segment `k` from, and the monitor must report it.
#[test]
fn staging_window_three_reaches_buffer_race() {
    let p = platform();
    // Long computes with small fetches: the DMA runs far ahead of the
    // CPU as soon as the window allows it.
    let ts = TaskSet::from_tasks(vec![overlapped(
        "a",
        2_000_000,
        &[
            (200_000, 256),
            (200_000, 256),
            (200_000, 256),
            (200_000, 256),
        ],
    )]);
    let safe = simulate(&ts, &p, &config(2_000_000));
    assert!(safe.races.is_empty(), "window 2 must be race-free");
    let mut wide = config(2_000_000);
    wide.staging_window = 3;
    let racy = simulate(&ts, &p, &wide);
    assert!(!racy.races.is_empty(), "window 3 must reach a staging race");
    let r = &racy.races[0];
    assert_eq!(r.write_seg % 2, r.clobbered_seg % 2, "same buffer half");
    assert_ne!(r.write_seg, r.clobbered_seg);
    assert!(matches!(
        r.kind,
        RaceKind::CpuRead | RaceKind::StagedUnconsumed
    ));
}

/// Script replay is deterministic: the same script produces
/// byte-identical runs across repeated replays. This is the
/// witness-replay guarantee.
#[test]
fn script_replay_is_deterministic() {
    let p = platform();
    let ts = TaskSet::from_tasks(vec![
        overlapped("a", 60_000, &[(4_000, 2_048), (5_000, 2_048)]),
        resident("b", 90_000, 90_000, 12_000),
    ]);
    let mut cfg = config(360_000);
    cfg.exec_scale_min_ppm = 500_000;
    cfg.fault = FaultPlan {
        seed: 0,
        dma_fault_rate_ppm: 1,
        max_retries: 2,
        jitter_max_cycles: 0,
    };
    // A deliberately mixed script; positional replay tolerates kind
    // mismatches by degrading to defaults, so any script is replayable.
    let script = vec![
        ScriptedChoice {
            point: ChoicePoint::ReleaseJitter { task: 0, job: 0 },
            value: Choice::ReleaseJitter(cy(1_500)),
        },
        ScriptedChoice {
            point: ChoicePoint::ExecScale {
                task: 0,
                job: 0,
                min_ppm: 500_000,
            },
            value: Choice::ExecScale(700_000),
        },
        ScriptedChoice {
            point: ChoicePoint::TransferFault {
                task: 0,
                job: 0,
                seg: 0,
                attempt: 0,
            },
            value: Choice::TransferFault(true),
        },
        ScriptedChoice {
            point: ChoicePoint::ReleaseJitter { task: 1, job: 0 },
            value: Choice::ReleaseJitter(cy(900)),
        },
    ];
    let replay = || {
        let mut oracle = ScriptOracle::new(script.clone());
        simulate_with_oracle(&ts, &p, &cfg, &mut oracle)
    };
    assert_same_run(&replay(), &replay(), "replay determinism");
}

/// The state hash handed to the oracle is a deterministic fingerprint:
/// two runs of the same choices observe the same sequence, and the
/// sequence actually tracks the evolving state.
#[test]
fn oracle_state_hashes_are_deterministic() {
    struct Recorder {
        hashes: Vec<StateHash>,
    }
    impl SimOracle for Recorder {
        fn choose(&mut self, point: ChoicePoint, state: StateHash) -> Choice {
            self.hashes.push(state);
            Choice::default_for(&point)
        }
    }
    let p = platform();
    let ts = TaskSet::from_tasks(vec![
        overlapped("a", 50_000, &[(4_000, 2_048), (4_000, 1_024)]),
        resident("b", 80_000, 80_000, 10_000),
    ]);
    let cfg = config(400_000);
    let run = || {
        let mut rec = Recorder { hashes: Vec::new() };
        simulate_with_oracle(&ts, &p, &cfg, &mut rec);
        rec.hashes
    };
    let first = run();
    assert!(first.len() > 1);
    assert!(first.iter().any(|h| *h != first[0]), "hash ignores state");
    assert_eq!(first, run());
}

/// Fork contract, part 1: a run resumed from any captured snapshot is
/// byte-identical — trace, stats, metrics, races — to the run that
/// captured it, including under scripted jitter,
/// scale, and fault choices. This is what lets the explorer branch
/// from a snapshot instead of replaying from time zero.
#[test]
fn forked_resume_reproduces_the_capturing_run() {
    let p = platform();
    let ts = TaskSet::from_tasks(vec![
        overlapped("a", 60_000, &[(4_000, 2_048), (5_000, 2_048)]),
        resident("b", 90_000, 90_000, 12_000),
    ]);
    let script = vec![
        ScriptedChoice {
            point: ChoicePoint::ReleaseJitter { task: 0, job: 0 },
            value: Choice::ReleaseJitter(cy(1_500)),
        },
        ScriptedChoice {
            point: ChoicePoint::ExecScale {
                task: 0,
                job: 0,
                min_ppm: 500_000,
            },
            value: Choice::ExecScale(700_000),
        },
        ScriptedChoice {
            point: ChoicePoint::TransferFault {
                task: 0,
                job: 0,
                seg: 0,
                attempt: 0,
            },
            value: Choice::TransferFault(true),
        },
        ScriptedChoice {
            point: ChoicePoint::ReleaseJitter { task: 1, job: 0 },
            value: Choice::ReleaseJitter(cy(900)),
        },
    ];
    let mut cfg = config(360_000);
    cfg.exec_scale_min_ppm = 500_000;
    cfg.fault = FaultPlan {
        seed: 0,
        dma_fault_rate_ppm: 1,
        max_retries: 2,
        jitter_max_cycles: 0,
    };
    let mut snaps = Vec::new();
    let mut oracle = ScriptOracle::new(script.clone());
    let full = simulate_with_oracle_forked(&ts, &p, &cfg, &mut oracle, None, Some(&mut snaps));
    assert!(!snaps.is_empty(), "no snapshots captured");
    for snap in &snaps {
        assert!(snap.size_hint() > 0);
        let suffix = script[snap.queries_before().min(script.len())..].to_vec();
        let mut resume_oracle = ScriptOracle::new(suffix);
        let resumed =
            simulate_with_oracle_forked(&ts, &p, &cfg, &mut resume_oracle, Some(snap), None);
        let ctx = format!("@ {:?}", snap.instant());
        assert_same_run(&full, &resumed, &ctx);
        assert_eq!(full.metrics, resumed.metrics, "{ctx}: metrics");
    }
}

/// Fork contract, part 2: the oracle fingerprint sequence a forked run
/// observes is the capturing run's tail — resuming a snapshot sees the
/// same state hashes at the same choice positions.
#[test]
fn forked_fingerprints_match_the_capturing_run() {
    struct Recorder {
        hashes: Vec<StateHash>,
    }
    impl SimOracle for Recorder {
        fn choose(&mut self, point: ChoicePoint, state: StateHash) -> Choice {
            self.hashes.push(state);
            Choice::default_for(&point)
        }
    }
    let p = platform();
    let ts = TaskSet::from_tasks(vec![
        overlapped("a", 50_000, &[(4_000, 2_048), (4_000, 1_024)]),
        resident("b", 80_000, 80_000, 10_000),
    ]);
    let cfg = config(400_000);
    let mut snaps = Vec::new();
    let mut rec = Recorder { hashes: Vec::new() };
    simulate_with_oracle_forked(&ts, &p, &cfg, &mut rec, None, Some(&mut snaps));
    let full = rec.hashes;
    // Resume from a mid-run snapshot and record the suffix.
    let snap = &snaps[snaps.len() / 2];
    let mut rec = Recorder { hashes: Vec::new() };
    simulate_with_oracle_forked(&ts, &p, &cfg, &mut rec, Some(snap), None);
    assert!(!rec.hashes.is_empty());
    assert_eq!(rec.hashes, full[snap.queries_before()..].to_vec());
}

/// Fork contract, part 3 (cost): resuming past a quiet prefix re-does
/// only suffix work — the resumed run answers exactly the queries after
/// the snapshot instead of the whole sequence. Deliberately a
/// work-based assertion (query count), not wall clock, so it cannot
/// flake.
#[test]
fn resume_answers_only_suffix_queries() {
    struct Counter {
        n: usize,
    }
    impl SimOracle for Counter {
        fn choose(&mut self, point: ChoicePoint, _state: StateHash) -> Choice {
            self.n += 1;
            Choice::default_for(&point)
        }
    }
    let p = platform();
    // A long horizon over many releases: the last snapshot sits deep in
    // the run, so its suffix is a small fraction of the whole.
    let ts = TaskSet::from_tasks(vec![overlapped("a", 20_000, &[(2_000, 1_024)])]);
    let cfg = config(400_000);
    let mut snaps = Vec::new();
    let mut full = Counter { n: 0 };
    simulate_with_oracle_forked(&ts, &p, &cfg, &mut full, None, Some(&mut snaps));
    let last = snaps.last().expect("snapshots captured");
    assert!(last.queries_before() > 0, "last snapshot is not mid-run");
    let mut resumed = Counter { n: 0 };
    simulate_with_oracle_forked(&ts, &p, &cfg, &mut resumed, Some(last), None);
    assert_eq!(resumed.n, full.n - last.queries_before());
    assert!(resumed.n < full.n);
}
