//! The bounded exhaustive schedule-space explorer (`RTM050`–`RTM053`).
//!
//! Where every other pass in this crate reasons *analytically*, this one
//! reasons *operationally*: it enumerates every interleaving of the
//! simulator's nondeterministic choices — per-job execution times over
//! `[BCET, WCET]` endpoints, release jitter, and per-transfer fault
//! injection up to the retry budget — and proves either that no
//! reachable interleaving misses a deadline or races the double buffer,
//! or produces a concrete violating path as a replayable [`Witness`].
//!
//! The transition function is not a model of the scheduler: it *is* the
//! scheduler, driven through the
//! [`SimOracle`](rtmdm_sched::script::SimOracle) hook. That makes every
//! counterexample exact by construction — replaying the witness script
//! through [`simulate_with_oracle`] reproduces the violating run byte
//! for byte.
//!
//! Search is depth-first over forced-choice prefixes, with converging
//! interleavings merged through the canonical state fingerprint (see
//! [`crate::state`]). Two orthogonal levers set how each path is
//! executed, neither of which changes a single output byte:
//!
//! - **Strategy** ([`ExploreStrategy`]): under `Fork` (the default),
//!   each run captures a [`SimSnapshot`] at every instant boundary that
//!   may reach a choice point, and every branch resumes from the latest
//!   snapshot at or before its branched query instead of replaying the
//!   whole prefix from time zero. `Replay` keeps the from-zero
//!   re-execution as the differential reference; an equivalence
//!   property test pins that the two produce identical verdicts, stats,
//!   and witness JSON.
//! - **Threads** ([`ExploreLimits::threads`]): paths near the top of
//!   the work stack are executed *speculatively* in parallel. Because a
//!   path's run is a pure function of its prefix (the oracle holds no
//!   shared state; visited bookkeeping happens at merge time, in one
//!   canonical stack order), speculation changes only when a run is
//!   computed, never what it contains — verdicts, state counts, and
//!   witnesses are byte-identical at any thread count.
//!
//! The search is bounded: when the state budget is hit, the verdict is
//! `RTM053` — explicitly inconclusive, never silently safe.

use std::collections::HashMap;
use std::sync::Arc;

use rtmdm_mcusim::{Cycles, JobId, PlatformConfig, TaskId, TraceKind};
use rtmdm_obs::attribute;
use rtmdm_par::par_map_with_threads;
use rtmdm_sched::script::{Choice, ScriptedChoice};
use rtmdm_sched::sim::{
    simulate_with_oracle, simulate_with_oracle_forked, RaceKind, SimConfig, SimResult, SimSnapshot,
};
use rtmdm_sched::TaskSet;

use crate::diag::{Finding, Rule};
use crate::state::WITNESS_SCHEMA;
use crate::state::{
    merge_path, Domains, ExploreStats, PathOracle, QueryRecord, VisitedSet, Witness,
};

/// How the explorer executes each path of the search tree.
///
/// Strategies differ only in cost: every verdict, counter, and witness
/// byte is identical across them (pinned by the differential property
/// suite and the CI `cmp` smoke).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExploreStrategy {
    /// Re-execute every path from time zero. The semantic reference:
    /// each run's cost is the full horizon regardless of where it
    /// branched.
    Replay,
    /// Fork each branch from a mid-run [`SimSnapshot`] captured by the
    /// run that scheduled it, paying only for the path suffix past the
    /// branched choice.
    #[default]
    Fork,
}

/// Which scheduled branch of the current run the search takes next.
///
/// Unlike strategy and thread count, the order is a *semantic* knob:
/// it changes which paths execute (and therefore run/transition
/// counters and which violation is reached first in an unsafe space),
/// though never the safety verdict of a completed search — the covered
/// state lattice is order-independent. Fork-versus-replay and
/// thread-count byte-identity hold within either order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExploreOrder {
    /// Explore the shallowest scheduled branch of the current run
    /// next. The historical order; every pinned table was produced
    /// under it, so it stays the default.
    #[default]
    ShallowFirst,
    /// Explore the deepest scheduled branch next. Keeps the frontier
    /// at the far end of the horizon, where a forked branch resumes
    /// just before its divergence and pays almost nothing for the
    /// prefix — the order that lets `Fork` realize its asymptotic
    /// advantage (see the F14 scale probe).
    DeepFirst,
}

/// Bound on cached speculative runs; past it the explorer stops
/// batching ahead (memory backstop, not a correctness knob).
const SPECULATION_CAP: usize = 128;

/// Exploration bounds and the extra nondeterminism dimensions that have
/// no [`SimConfig`] field of their own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExploreLimits {
    /// Budget on distinct canonical `(state, choice-point)` pairs; when
    /// exceeded the verdict is `RTM053` (inconclusive).
    pub max_states: usize,
    /// Upper endpoint of the release-jitter dimension, in cycles; zero
    /// keeps arrivals strictly periodic.
    pub jitter_max_cycles: u64,
    /// Path-execution strategy (`rtmdm check --strategy`). Outputs are
    /// byte-identical across strategies; `Fork` is the default because
    /// it is asymptotically cheaper on deep search trees.
    pub strategy: ExploreStrategy,
    /// Worker threads for speculative path execution (`rtmdm check
    /// --threads`); `0` defers to `RTMDM_THREADS` / available
    /// parallelism. Outputs are byte-identical at any count.
    pub threads: usize,
    /// Branch scheduling order (see [`ExploreOrder`]).
    pub order: ExploreOrder,
}

impl Default for ExploreLimits {
    fn default() -> ExploreLimits {
        ExploreLimits {
            max_states: 20_000,
            jitter_max_cycles: 0,
            strategy: ExploreStrategy::default(),
            threads: 0,
            order: ExploreOrder::default(),
        }
    }
}

/// What one exploration concluded.
#[derive(Debug, Clone)]
pub struct ExploreOutcome {
    /// Zero findings = proven safe over the explored lattice; `RTM050`/
    /// `RTM051`/`RTM052` = violation reached; `RTM053` = budget hit.
    pub findings: Vec<Finding>,
    /// The replayable counterexample behind a violation finding.
    pub witness: Option<Witness>,
    /// Search counters (also reported by `rtmdm check --explore`).
    pub stats: ExploreStats,
}

impl ExploreOutcome {
    /// Whether exploration covered the space and found nothing.
    pub fn proven_safe(&self) -> bool {
        self.findings.is_empty() && self.stats.complete
    }
}

/// One scheduled path: its absolute forced-choice prefix and the
/// snapshot the run may resume from instead of starting at time zero.
#[derive(Clone)]
struct WorkItem {
    /// Forced choices from time zero (absolute positions `0..len`).
    prefix: Vec<Choice>,
    /// Latest snapshot whose capturing run agrees with `prefix` up to
    /// the snapshot's query position; `None` runs from time zero.
    base: Option<ForkBase>,
}

/// A shareable resume point: a snapshot plus its *absolute* position in
/// the choice sequence (snapshots themselves count queries relative to
/// the run that captured them).
#[derive(Clone)]
struct ForkBase {
    snap: Arc<SimSnapshot>,
    /// Absolute oracle queries answered before the captured instant.
    consumed: usize,
}

/// The executed form of a [`WorkItem`], produced speculatively or on
/// demand — a pure function of the item, which is what lets the
/// parallel frontier run ahead of the sequential merge order.
struct PathRun {
    result: SimResult,
    /// Records for queries `consumed..` (snapshot-relative log).
    log: Vec<QueryRecord>,
    /// Absolute queries answered before the resume point (`0` when the
    /// run started at time zero).
    consumed: usize,
    /// Snapshots this run captured, ascending by absolute position.
    snaps: Vec<ForkBase>,
}

/// The violating event of one explored run, before rule classification.
#[derive(Debug, Clone, Copy)]
struct RawViolation {
    at: Cycles,
    task: usize,
    job: u64,
    race: Option<(usize, usize, RaceKind)>,
}

/// Executes one path. Under `Fork` the run resumes from the item's
/// base snapshot (when it has one) and captures snapshots for the
/// branches it will schedule; under `Replay` it runs the full horizon
/// from time zero and captures nothing.
fn run_path(
    ts: &TaskSet,
    platform: &PlatformConfig,
    cfg: &SimConfig,
    domains: &Domains,
    item: &WorkItem,
    fork: bool,
) -> PathRun {
    let consumed = item.base.as_ref().map_or(0, |b| b.consumed);
    let mut caps: Vec<SimSnapshot> = Vec::new();
    let mut oracle = PathOracle::new(item.prefix[consumed..].to_vec(), domains);
    let result = simulate_with_oracle_forked(
        ts,
        platform,
        cfg,
        &mut oracle,
        item.base.as_ref().map(|b| b.snap.as_ref()),
        if fork { Some(&mut caps) } else { None },
    );
    let snaps = caps
        .into_iter()
        .map(|s| ForkBase {
            consumed: consumed + s.queries_before(),
            snap: Arc::new(s),
        })
        .collect();
    PathRun {
        result,
        log: oracle.log,
        consumed,
        snaps,
    }
}

/// Explores the schedule space of `ts` on `platform` exhaustively over
/// the choice lattice induced by `base` and `limits`, up to
/// `base.horizon`.
///
/// `base` supplies the scheduling policy, dispatch discipline, staging
/// window, horizon, and the fault environment (a zero
/// `dma_fault_rate_ppm` disables the fault dimension; a nonzero rate
/// enables it — the rate itself is ignored, since the explorer decides
/// each fault outcome, honoring only `max_retries`). Attribution is
/// forced on so a violating run decomposes into blame terms.
///
/// Returns zero findings only when the entire bounded lattice was
/// covered without reaching a violation.
pub fn explore(
    ts: &TaskSet,
    platform: &PlatformConfig,
    base: &SimConfig,
    limits: &ExploreLimits,
) -> ExploreOutcome {
    let mut cfg = base.clone();
    cfg.attribution = true;
    let domains = Domains {
        exec_scale_min_ppm: cfg.exec_scale_min_ppm,
        jitter_max_cycles: limits.jitter_max_cycles,
        explore_faults: cfg.fault.dma_fault_rate_ppm > 0,
    };
    let fork = limits.strategy == ExploreStrategy::Fork;
    let threads = match limits.threads {
        0 => rtmdm_par::num_threads(),
        n => n,
    };
    let mut visited = VisitedSet::new();
    let mut stats = ExploreStats::default();
    // The work stack: ids are assigned in push order and key the
    // speculation cache; the pop order (and therefore every merge,
    // counter, and verdict) is a deterministic function of the runs
    // alone.
    let mut next_id: u64 = 1;
    let mut stack: Vec<(u64, WorkItem)> = vec![(
        0,
        WorkItem {
            prefix: Vec::new(),
            base: None,
        },
    )];
    let mut cache: HashMap<u64, PathRun> = HashMap::new();
    // Each scheduled branch is an untaken alternative of a novel pair,
    // so runs are bounded by states; the cap is a backstop only.
    let run_cap = limits.max_states.saturating_mul(2).saturating_add(1);
    let mut exhausted = false;

    while let Some((id, item)) = stack.pop() {
        if visited.len() >= limits.max_states || stats.runs >= run_cap {
            exhausted = true;
            break;
        }
        let run = cache.remove(&id).unwrap_or_else(|| {
            if threads > 1 && !stack.is_empty() && cache.len() < SPECULATION_CAP {
                // Speculate: the popped item plus the next uncached
                // items from the top of the stack run concurrently.
                // Pure path execution makes the results independent of
                // this batching; only the wall clock notices.
                let mut batch: Vec<(u64, &WorkItem)> = vec![(id, &item)];
                for (sid, sitem) in stack.iter().rev() {
                    if batch.len() >= threads.saturating_mul(2) {
                        break;
                    }
                    if !cache.contains_key(sid) {
                        batch.push((*sid, sitem));
                    }
                }
                let runs = par_map_with_threads(threads, batch, |(bid, bitem)| {
                    (bid, run_path(ts, platform, &cfg, &domains, bitem, fork))
                });
                let mut popped = None;
                for (bid, brun) in runs {
                    if bid == id {
                        popped = Some(brun);
                    } else {
                        cache.insert(bid, brun);
                    }
                }
                popped.expect("the popped item is always in the batch")
            } else {
                run_path(ts, platform, &cfg, &domains, &item, fork)
            }
        });
        stats.runs += 1;
        stats.transitions += (run.consumed + run.log.len()) as u64;

        // Merge before the violation check: the canonical sequential
        // consume order expands each path's novel pairs even on a
        // violating run, exactly as an in-run oracle would have.
        let expansions = merge_path(&run.log, &mut visited);

        if let Some(raw) = first_violation(&run.result) {
            stats.states = visited.len();
            let outcome = violation_outcome(ts, platform, &cfg, &domains, &item, &run, raw, stats);
            flush_explore_metrics(&outcome.stats);
            return outcome;
        }
        // Push order decides which scheduled branch pops next (LIFO):
        // pushing deepest-first leaves the shallowest on top.
        let scheduled: Vec<usize> = match limits.order {
            ExploreOrder::ShallowFirst => expansions.iter().rev().copied().collect(),
            ExploreOrder::DeepFirst => expansions.clone(),
        };
        for i in scheduled {
            for &alt in &run.log[i].branches {
                let mut prefix: Vec<Choice> = Vec::with_capacity(run.consumed + i + 1);
                prefix.extend_from_slice(&item.prefix[..run.consumed]);
                prefix.extend(run.log[..i].iter().map(|r| r.chosen));
                prefix.push(alt);
                // The latest snapshot at or before the branched choice
                // agrees with the child's prefix on everything before
                // it (the child diverges only at position
                // `consumed + i`), so the child replays at most one
                // captured instant's worth of forced choices.
                let base = run
                    .snaps
                    .iter()
                    .rev()
                    .find(|fb| fb.consumed <= run.consumed + i)
                    .cloned()
                    .or_else(|| item.base.clone());
                stack.push((next_id, WorkItem { prefix, base }));
                next_id += 1;
            }
        }
    }

    stats.states = visited.len();
    stats.complete = !exhausted;
    let mut findings = Vec::new();
    if exhausted {
        findings.push(Finding::new(
            Rule::Rtm053,
            format!(
                "exploration budget exceeded ({} states, {} runs, {} unexplored branches): \
                 the verdict is inconclusive, not safe — raise --max-states to cover the space",
                stats.states,
                stats.runs,
                stack.len(),
            ),
        ));
    }
    flush_explore_metrics(&stats);
    ExploreOutcome {
        findings,
        witness: None,
        stats,
    }
}

/// Flushes one exploration's counters into the process-global metrics
/// registry (a no-op unless a telemetry consumer enabled it). Counters
/// are merge-order totals, so they are identical for any thread count
/// and either strategy — unlike per-run simulator metrics, which
/// oracle-driven probes deliberately do not flush.
fn flush_explore_metrics(stats: &ExploreStats) {
    let g = rtmdm_obs::metrics::global();
    if !g.is_enabled() {
        return;
    }
    g.add("explore.explorations", 1);
    g.add("explore.runs", stats.runs as u64);
    g.add("explore.states", stats.states as u64);
    g.add("explore.transitions", stats.transitions);
}

/// The chronologically first violating event of a run: a staging race
/// or a deadline miss, races winning ties (they are structural).
fn first_violation(result: &SimResult) -> Option<RawViolation> {
    let race = result.races.first().map(|r| RawViolation {
        at: r.at,
        task: r.task,
        job: r.job,
        race: Some((r.write_seg, r.clobbered_seg, r.kind)),
    });
    let miss = result.trace.events().iter().find_map(|e| match e.kind {
        TraceKind::DeadlineMissed { task, job } => Some(RawViolation {
            at: e.time,
            task: task.0,
            job: job.0,
            race: None,
        }),
        _ => None,
    });
    match (race, miss) {
        (Some(r), Some(m)) if m.at < r.at => Some(m),
        (Some(r), _) => Some(r),
        (None, m) => m,
    }
}

/// Builds the finding and witness for a violating run.
#[allow(clippy::too_many_arguments)]
fn violation_outcome(
    ts: &TaskSet,
    platform: &PlatformConfig,
    cfg: &SimConfig,
    domains: &Domains,
    item: &WorkItem,
    run: &PathRun,
    raw: RawViolation,
    stats: ExploreStats,
) -> ExploreOutcome {
    // A forked run's log starts at its snapshot: recover the absolute
    // record sequence (choice points from time zero, as the witness
    // schema requires) by replaying the complete path once. Replay-
    // strategy runs and from-zero forked runs already have it.
    let full: Option<(SimResult, Vec<QueryRecord>)> = (run.consumed > 0).then(|| {
        let mut forced: Vec<Choice> = item.prefix[..run.consumed].to_vec();
        forced.extend(run.log.iter().map(|r| r.chosen));
        let mut oracle = PathOracle::new(forced, domains);
        let result = simulate_with_oracle(ts, platform, cfg, &mut oracle);
        (result, oracle.log)
    });
    let (result, log) = match &full {
        Some((result, log)) => (result, log.as_slice()),
        None => (&run.result, run.log.as_slice()),
    };
    let name = &ts.tasks()[raw.task].name;
    let forced_faults = log
        .iter()
        .filter(|r| r.chosen == Choice::TransferFault(true))
        .count();
    let (rule, message) = match raw.race {
        Some((write, clobbered, kind)) => (
            Rule::Rtm051,
            format!(
                "a double-buffer staging race is reachable at cycle {}: the DMA writes \
                 segment {write} over {} segment {clobbered} of job {} \
                 (staging window {}, {} runs, {} states explored)",
                raw.at.get(),
                match kind {
                    RaceKind::CpuRead => "the CPU-read",
                    RaceKind::StagedUnconsumed => "staged-unconsumed",
                },
                raw.job,
                cfg.staging_window,
                stats.runs,
                stats.states,
            ),
        ),
        None if forced_faults > 0 => (
            Rule::Rtm052,
            format!(
                "the DMA retry budget (max_retries = {}) is insufficient: job {} misses \
                 its deadline at cycle {} on a path with {forced_faults} injected fault(s) \
                 ({} runs, {} states explored)",
                cfg.fault.max_retries,
                raw.job,
                raw.at.get(),
                stats.runs,
                stats.states,
            ),
        ),
        None => (
            Rule::Rtm050,
            format!(
                "a deadline miss is reachable: job {} misses at cycle {} under an \
                 admissible interleaving ({} runs, {} states explored)",
                raw.job,
                raw.at.get(),
                stats.runs,
                stats.states,
            ),
        ),
    };
    let dominant_blame = attribute(&result.trace).ok().and_then(|report| {
        report
            .jobs
            .iter()
            .find(|j| j.task == TaskId(raw.task) && j.job == JobId(raw.job))
            .and_then(|j| j.dominant_interference())
            .map(|(src, _)| src.to_string())
    });
    let witness = Witness {
        schema: WITNESS_SCHEMA.to_owned(),
        rule: rule.id().to_owned(),
        task: raw.task,
        job: raw.job,
        at: raw.at.get(),
        dominant_blame,
        task_set: ts.clone(),
        platform: platform.clone(),
        config: cfg.clone(),
        script: log
            .iter()
            .map(|r| ScriptedChoice {
                point: r.point,
                value: r.chosen,
            })
            .collect(),
    };
    ExploreOutcome {
        findings: vec![Finding::new(rule, message).with_task(name.clone())],
        witness: Some(witness),
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtmdm_mcusim::{ContentionModel, FaultPlan};
    use rtmdm_sched::sim::Policy;
    use rtmdm_sched::{Segment, SporadicTask, StagingMode};

    fn cy(n: u64) -> Cycles {
        Cycles::new(n)
    }

    fn bare_platform() -> PlatformConfig {
        let mut p = PlatformConfig::stm32f746_qspi();
        p.contention = ContentionModel::NONE;
        p.context_switch_cycles = Cycles::ZERO;
        p.ext_mem.setup_cycles = Cycles::ZERO;
        p.ext_mem.cycles_per_byte_num = 1;
        p.ext_mem.cycles_per_byte_den = 1;
        p
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

    #[test]
    fn feasible_set_is_proven_safe() {
        let ts = TaskSet::from_tasks(vec![
            resident("a", 1_000, 1_000, 200),
            resident("b", 2_000, 2_000, 400),
        ]);
        let mut cfg = config(4_000);
        cfg.exec_scale_min_ppm = 500_000;
        let limits = ExploreLimits {
            max_states: 10_000,
            jitter_max_cycles: 100,
            ..ExploreLimits::default()
        };
        let out = explore(&ts, &bare_platform(), &cfg, &limits);
        assert!(out.proven_safe(), "findings: {:?}", out.findings);
        assert!(out.witness.is_none());
        assert!(out.stats.runs > 1, "jitter/scale dimensions must branch");
    }

    #[test]
    fn jitter_reachable_miss_is_found_with_replayable_witness() {
        // Feasible when periodic: 600 compute in a 1000 deadline. A
        // 500-cycle jitter on the release pushes completion past the
        // anchored deadline.
        let ts = TaskSet::from_tasks(vec![resident("t", 2_000, 1_000, 600)]);
        let cfg = config(8_000);
        let limits = ExploreLimits {
            max_states: 10_000,
            jitter_max_cycles: 500,
            ..ExploreLimits::default()
        };
        let out = explore(&ts, &bare_platform(), &cfg, &limits);
        assert_eq!(out.findings.len(), 1);
        assert_eq!(out.findings[0].rule, Rule::Rtm050);
        let w = out.witness.expect("violation carries a witness");
        assert_eq!(w.rule, "RTM050");
        let replay = w.replay();
        let miss = replay
            .trace
            .events()
            .iter()
            .find(|e| matches!(e.kind, TraceKind::DeadlineMissed { .. }))
            .expect("replay reproduces the miss");
        assert_eq!(miss.time.get(), w.at, "predicted == replayed instant");
    }

    #[test]
    fn widened_staging_window_reaches_rtm051() {
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
        let mut cfg = config(2_000_000);
        cfg.staging_window = 3;
        let out = explore(&ts, &bare_platform(), &cfg, &ExploreLimits::default());
        assert_eq!(out.findings.len(), 1);
        assert_eq!(out.findings[0].rule, Rule::Rtm051);
        let w = out.witness.expect("witness");
        let replay = w.replay();
        assert!(!replay.races.is_empty());
        assert_eq!(replay.races[0].at.get(), w.at);
    }

    #[test]
    fn insufficient_retry_budget_is_rtm052() {
        // One fetch-heavy task whose deadline only holds when no
        // transfer faults: each injected fault re-issues a 4096-cycle
        // transfer, and two of them push the job past its deadline.
        let ts = TaskSet::from_tasks(vec![overlapped(
            "a",
            40_000,
            &[(1_000, 4_096), (1_000, 4_096), (1_000, 4_096)],
        )]);
        let mut cfg = config(40_000);
        cfg.fault = FaultPlan {
            seed: 0,
            dma_fault_rate_ppm: 1,
            max_retries: 3,
            jitter_max_cycles: 0,
        };
        let out = explore(&ts, &bare_platform(), &cfg, &ExploreLimits::default());
        assert_eq!(out.findings.len(), 1, "findings: {:?}", out.findings);
        assert_eq!(out.findings[0].rule, Rule::Rtm052);
        let w = out.witness.expect("witness");
        assert!(w
            .script
            .iter()
            .any(|s| s.value == Choice::TransferFault(true)));
        let replay = w.replay();
        assert!(replay
            .trace
            .events()
            .iter()
            .any(|e| matches!(e.kind, TraceKind::DeadlineMissed { .. })));
    }

    #[test]
    fn tiny_budget_is_inconclusive_not_safe() {
        let ts = TaskSet::from_tasks(vec![
            resident("a", 1_000, 1_000, 200),
            resident("b", 1_500, 1_500, 300),
        ]);
        let mut cfg = config(30_000);
        cfg.exec_scale_min_ppm = 400_000;
        let limits = ExploreLimits {
            max_states: 3,
            jitter_max_cycles: 100,
            ..ExploreLimits::default()
        };
        let out = explore(&ts, &bare_platform(), &cfg, &limits);
        assert!(!out.stats.complete);
        assert_eq!(out.findings.len(), 1);
        assert_eq!(out.findings[0].rule, Rule::Rtm053);
        assert!(!out.proven_safe());
    }

    #[test]
    fn safe_verdict_requires_no_unexplored_branches() {
        // An empty task set explores trivially and completely.
        let out = explore(
            &TaskSet::new(),
            &bare_platform(),
            &config(1_000),
            &ExploreLimits::default(),
        );
        assert!(out.proven_safe());
        assert_eq!(out.stats.runs, 1);
        assert_eq!(out.stats.states, 0);
    }

    /// Renders an outcome into one comparable blob: findings, witness
    /// JSON, and counters. Byte-equality of these blobs is the cross-
    /// strategy / cross-thread-count contract.
    fn fingerprint(out: &ExploreOutcome) -> String {
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

    fn strategy_outcomes(
        ts: &TaskSet,
        cfg: &SimConfig,
        limits: &ExploreLimits,
    ) -> (ExploreOutcome, ExploreOutcome) {
        let forked = explore(
            ts,
            &bare_platform(),
            cfg,
            &ExploreLimits {
                strategy: ExploreStrategy::Fork,
                ..*limits
            },
        );
        let replayed = explore(
            ts,
            &bare_platform(),
            cfg,
            &ExploreLimits {
                strategy: ExploreStrategy::Replay,
                ..*limits
            },
        );
        (forked, replayed)
    }

    #[test]
    fn fork_and_replay_agree_on_a_safe_space() {
        let ts = TaskSet::from_tasks(vec![
            resident("a", 1_000, 1_000, 200),
            resident("b", 2_000, 2_000, 400),
        ]);
        let mut cfg = config(4_000);
        cfg.exec_scale_min_ppm = 500_000;
        let limits = ExploreLimits {
            max_states: 10_000,
            jitter_max_cycles: 100,
            ..ExploreLimits::default()
        };
        let (forked, replayed) = strategy_outcomes(&ts, &cfg, &limits);
        assert!(forked.proven_safe());
        assert_eq!(fingerprint(&forked), fingerprint(&replayed));
    }

    #[test]
    fn fork_and_replay_agree_on_a_violation_and_its_witness() {
        let ts = TaskSet::from_tasks(vec![resident("t", 2_000, 1_000, 600)]);
        let cfg = config(8_000);
        let limits = ExploreLimits {
            max_states: 10_000,
            jitter_max_cycles: 500,
            ..ExploreLimits::default()
        };
        let (forked, replayed) = strategy_outcomes(&ts, &cfg, &limits);
        assert_eq!(forked.findings.len(), 1);
        assert_eq!(fingerprint(&forked), fingerprint(&replayed));
    }

    #[test]
    fn fork_and_replay_agree_under_fault_exploration() {
        let ts = TaskSet::from_tasks(vec![overlapped(
            "a",
            40_000,
            &[(1_000, 4_096), (1_000, 4_096), (1_000, 4_096)],
        )]);
        let mut cfg = config(40_000);
        cfg.fault = FaultPlan {
            seed: 0,
            dma_fault_rate_ppm: 1,
            max_retries: 3,
            jitter_max_cycles: 0,
        };
        let (forked, replayed) = strategy_outcomes(&ts, &cfg, &limits_default());
        assert_eq!(forked.findings[0].rule, Rule::Rtm052);
        assert_eq!(fingerprint(&forked), fingerprint(&replayed));
    }

    fn limits_default() -> ExploreLimits {
        ExploreLimits::default()
    }

    #[test]
    fn deep_first_order_preserves_the_verdict_and_strategy_identity() {
        // The order changes run/transition counters (which branch pops
        // next), never the safety verdict of a completed search — and
        // fork-versus-replay byte-identity must hold within the order.
        let ts = TaskSet::from_tasks(vec![
            resident("a", 1_000, 1_000, 200),
            resident("b", 2_000, 2_000, 400),
        ]);
        let mut cfg = config(4_000);
        cfg.exec_scale_min_ppm = 500_000;
        let shallow = ExploreLimits {
            max_states: 10_000,
            jitter_max_cycles: 100,
            ..ExploreLimits::default()
        };
        let deep = ExploreLimits {
            order: ExploreOrder::DeepFirst,
            ..shallow
        };
        let (s_fork, s_replay) = strategy_outcomes(&ts, &cfg, &shallow);
        let (d_fork, d_replay) = strategy_outcomes(&ts, &cfg, &deep);
        assert!(s_fork.proven_safe());
        assert!(d_fork.proven_safe());
        // Both orders cover the same lattice.
        assert_eq!(s_fork.stats.states, d_fork.stats.states);
        assert_eq!(fingerprint(&s_fork), fingerprint(&s_replay));
        assert_eq!(fingerprint(&d_fork), fingerprint(&d_replay));
    }

    #[test]
    fn outcomes_are_byte_identical_at_any_thread_count() {
        let ts = TaskSet::from_tasks(vec![
            resident("a", 1_000, 1_000, 200),
            resident("b", 1_500, 1_500, 300),
            resident("c", 3_000, 3_000, 250),
        ]);
        let mut cfg = config(6_000);
        cfg.exec_scale_min_ppm = 500_000;
        for strategy in [ExploreStrategy::Fork, ExploreStrategy::Replay] {
            let runs: Vec<String> = [1usize, 2, 8]
                .iter()
                .map(|&threads| {
                    let out = explore(
                        &ts,
                        &bare_platform(),
                        &cfg,
                        &ExploreLimits {
                            max_states: 10_000,
                            jitter_max_cycles: 100,
                            strategy,
                            threads,
                            ..ExploreLimits::default()
                        },
                    );
                    fingerprint(&out)
                })
                .collect();
            assert_eq!(runs[0], runs[1], "{strategy:?}: 1 vs 2 threads");
            assert_eq!(runs[0], runs[2], "{strategy:?}: 1 vs 8 threads");
        }
    }

    #[test]
    fn budget_cut_is_identical_across_strategies_and_threads() {
        // The RTM053 message embeds states, runs, and the residual
        // stack depth — all three must survive forking and speculation.
        let ts = TaskSet::from_tasks(vec![
            resident("a", 1_000, 1_000, 200),
            resident("b", 1_500, 1_500, 300),
        ]);
        let mut cfg = config(30_000);
        cfg.exec_scale_min_ppm = 400_000;
        let mut blobs = Vec::new();
        for strategy in [ExploreStrategy::Fork, ExploreStrategy::Replay] {
            for threads in [1usize, 8] {
                let out = explore(
                    &ts,
                    &bare_platform(),
                    &cfg,
                    &ExploreLimits {
                        max_states: 3,
                        jitter_max_cycles: 100,
                        strategy,
                        threads,
                        ..ExploreLimits::default()
                    },
                );
                assert_eq!(out.findings[0].rule, Rule::Rtm053);
                blobs.push(fingerprint(&out));
            }
        }
        assert!(blobs.windows(2).all(|w| w[0] == w[1]));
    }
}
