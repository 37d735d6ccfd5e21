//! Exploration state: canonical visited-state bookkeeping, choice
//! domains, the path oracle that drives one scripted run, and the
//! replayable violation witness.
//!
//! Each explored path is one simulator run driven by a [`PathOracle`]
//! — a forced prefix of choices replayed positionally, then the
//! deterministic default answer for every further query, with every
//! query logged together with its untaken candidates. The oracle is
//! deliberately **pure**: a path's entire behavior is a function of its
//! forced prefix alone, which is what lets the explorer execute paths
//! speculatively in parallel (and resume them from mid-run snapshots)
//! without any result depending on execution order or thread count.
//!
//! The shared [`VisitedSet`] is consulted at *merge time* instead —
//! when the explorer consumes a finished path, it walks the logged
//! free-region queries in order ([`merge_path`]), keyed on the
//! canonical state fingerprint *and* the choice point: once a
//! `(state, point)` pair has been expanded on some path, every
//! alternative at that pair is already scheduled, so a later path
//! reaching it stops branching (it keeps running on defaults — a
//! violation in the tail is still real and still reported). Because
//! paths are consumed in one canonical order, this is step-for-step the
//! same bookkeeping a sequential in-run oracle would do.
//!
//! Keying on the pair rather than the state alone matters: consecutive
//! choice points within one instant (a release's jitter query followed
//! by its exec-scale query) can observe identical state fingerprints,
//! and merging those would silently drop the second dimension.

use std::collections::HashSet;

use serde::{Deserialize, Serialize};

use rtmdm_mcusim::{Cycles, PlatformConfig};
use rtmdm_sched::script::{
    Choice, ChoicePoint, ScriptOracle, ScriptedChoice, SimOracle, StateHash,
};
use rtmdm_sched::sim::{simulate_with_oracle, SimConfig, SimResult};
use rtmdm_sched::TaskSet;

/// Version tag of the witness JSON layout.
pub const WITNESS_SCHEMA: &str = "rtmdm-witness/1";

/// The candidate answers the explorer considers at each kind of choice
/// point. The continuous dimensions (execution scale, jitter) are
/// discretized to their interval endpoints; `DESIGN.md` §2.5 spells out
/// why the verdict is exhaustive over this lattice and what that does
/// and does not imply about the continuum.
#[derive(Debug, Clone)]
pub struct Domains {
    /// Lower execution-scale endpoint in ppm of WCET (from
    /// `SimConfig::exec_scale_min_ppm`); the other endpoint is WCET.
    pub exec_scale_min_ppm: u64,
    /// Upper release-jitter endpoint in cycles; the other endpoint is
    /// zero. Zero disables the dimension.
    pub jitter_max_cycles: u64,
    /// Whether transfer-fault queries branch (they only occur when the
    /// config's fault environment is active).
    pub explore_faults: bool,
}

impl Domains {
    /// The candidate answers at `point`, deterministic default first.
    pub fn candidates(&self, point: &ChoicePoint) -> Vec<Choice> {
        match point {
            ChoicePoint::ExecScale { min_ppm, .. } => {
                let min = (*min_ppm).max(self.exec_scale_min_ppm);
                if min >= 1_000_000 {
                    vec![Choice::ExecScale(1_000_000)]
                } else {
                    vec![Choice::ExecScale(1_000_000), Choice::ExecScale(min)]
                }
            }
            ChoicePoint::ReleaseJitter { .. } => {
                if self.jitter_max_cycles == 0 {
                    vec![Choice::ReleaseJitter(Cycles::ZERO)]
                } else {
                    vec![
                        Choice::ReleaseJitter(Cycles::ZERO),
                        Choice::ReleaseJitter(Cycles::new(self.jitter_max_cycles)),
                    ]
                }
            }
            ChoicePoint::TransferFault { .. } => {
                if self.explore_faults {
                    vec![Choice::TransferFault(false), Choice::TransferFault(true)]
                } else {
                    vec![Choice::TransferFault(false)]
                }
            }
        }
    }
}

/// One logged oracle query of an explored run.
#[derive(Debug, Clone)]
pub struct QueryRecord {
    /// The decision site.
    pub point: ChoicePoint,
    /// The answer given on this path.
    pub chosen: Choice,
    /// The canonical state fingerprint at the query, for merge-time
    /// visited bookkeeping.
    pub state: StateHash,
    /// Untaken candidate answers. Empty in the forced region (those
    /// branch points belong to the run that scheduled the prefix) and
    /// at single-candidate points; whether a non-empty set actually
    /// branches is decided at merge time against the visited set.
    pub branches: Vec<Choice>,
}

/// The shared dominance store: `(state, point)` pairs already expanded.
///
/// Exact-fingerprint equality is the dominance relation implemented —
/// a state dominates (subsumes) another exactly when their canonical
/// fingerprints at the same choice point are equal, which by the
/// fingerprint's contract implies identical reachable futures.
#[derive(Debug, Default)]
pub struct VisitedSet {
    seen: HashSet<(StateHash, ChoicePoint)>,
}

impl VisitedSet {
    /// An empty store.
    pub fn new() -> VisitedSet {
        VisitedSet::default()
    }

    /// Marks `(state, point)` expanded; `true` when it was novel.
    pub fn insert(&mut self, state: StateHash, point: ChoicePoint) -> bool {
        self.seen.insert((state, point))
    }

    /// Number of distinct expanded pairs — the explorer's state count.
    pub fn len(&self) -> usize {
        self.seen.len()
    }

    /// Whether nothing has been expanded yet.
    pub fn is_empty(&self) -> bool {
        self.seen.is_empty()
    }
}

/// The oracle that drives one explored path: replays the forced prefix
/// positionally, then answers deterministic defaults, logging every
/// query with its untaken candidates and the state fingerprint it
/// observed.
///
/// The oracle holds no shared state — a path's log (and therefore its
/// run) is a pure function of its prefix. Visited bookkeeping happens
/// when the explorer consumes the log (see [`merge_path`]), which is
/// what makes speculative parallel path execution exact.
pub struct PathOracle<'a> {
    prefix: Vec<Choice>,
    domains: &'a Domains,
    /// Every query of the run, in order.
    pub log: Vec<QueryRecord>,
}

impl<'a> PathOracle<'a> {
    /// An oracle forcing `prefix`, then defaults.
    pub fn new(prefix: Vec<Choice>, domains: &'a Domains) -> Self {
        PathOracle {
            prefix,
            domains,
            log: Vec::new(),
        }
    }
}

impl SimOracle for PathOracle<'_> {
    fn choose(&mut self, point: ChoicePoint, state: StateHash) -> Choice {
        let index = self.log.len();
        let (chosen, branches) = if index < self.prefix.len() {
            // Forced region: replay; its branch points were expanded by
            // the run that scheduled this prefix.
            (self.prefix[index], Vec::new())
        } else {
            let mut cands = self.domains.candidates(&point);
            let chosen = cands.remove(0);
            (chosen, cands)
        };
        self.log.push(QueryRecord {
            point,
            chosen,
            state,
            branches,
        });
        chosen
    }
}

/// Merge-time visited bookkeeping over one consumed path: walks the
/// logged queries in order, expands each novel multi-candidate
/// `(state, point)` pair into `visited`, and stops at the first
/// already-expanded pair — the path *merges*; its remaining subtrees
/// were covered from the pair's first visit. Returns the log indices
/// whose branches the explorer must schedule.
///
/// Paths are consumed in one canonical order regardless of how many
/// threads executed them, so this reproduces exactly the insertions an
/// in-run sequential oracle would have made.
pub fn merge_path(log: &[QueryRecord], visited: &mut VisitedSet) -> Vec<usize> {
    let mut expansions = Vec::new();
    for (i, rec) in log.iter().enumerate() {
        if rec.branches.is_empty() {
            continue;
        }
        if visited.insert(rec.state, rec.point) {
            expansions.push(i);
        } else {
            break;
        }
    }
    expansions
}

/// Counters of one exploration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExploreStats {
    /// Complete simulator runs executed (paths).
    pub runs: usize,
    /// Distinct canonical `(state, choice-point)` pairs expanded.
    pub states: usize,
    /// Oracle queries answered across all runs.
    pub transitions: u64,
    /// Whether the schedule space was covered to the horizon. `false`
    /// means the budget cut exploration short — RTM053, never silently
    /// safe.
    pub complete: bool,
}

/// A replayable counterexample: everything needed to reproduce a
/// violating run, self-contained.
///
/// Replaying `script` through [`Witness::replay`] reproduces the
/// violating event at the predicted instant, byte for byte — the
/// cross-validation suite pins this.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Witness {
    /// Layout tag, always [`WITNESS_SCHEMA`].
    pub schema: String,
    /// The violated rule's stable ID (`"RTM050"`, `"RTM051"`, `"RTM052"`).
    pub rule: String,
    /// Task index (in the explored set's priority order) of the victim.
    pub task: usize,
    /// Job id of the victim.
    pub job: u64,
    /// Predicted violation instant in cycles.
    pub at: u64,
    /// Dominant interference source of the victim job per the blame
    /// decomposition of the violating run, when attributable (the
    /// victim must complete within the horizon to be decomposable).
    pub dominant_blame: Option<String>,
    /// The explored task set, in the explored priority order.
    pub task_set: TaskSet,
    /// The platform the violation was found on.
    pub platform: PlatformConfig,
    /// The exact simulator configuration of the violating run.
    pub config: SimConfig,
    /// The full choice script of the violating run, in query order.
    pub script: Vec<ScriptedChoice>,
}

impl Witness {
    /// Re-executes the witnessed run and returns its result.
    pub fn replay(&self) -> SimResult {
        let mut oracle = ScriptOracle::new(self.script.clone());
        simulate_with_oracle(&self.task_set, &self.platform, &self.config, &mut oracle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jitter_domains(max: u64) -> Domains {
        Domains {
            exec_scale_min_ppm: 1_000_000,
            jitter_max_cycles: max,
            explore_faults: false,
        }
    }

    #[test]
    fn single_candidate_points_do_not_branch() {
        let d = jitter_domains(0);
        let p = ChoicePoint::ReleaseJitter { task: 0, job: 0 };
        assert_eq!(d.candidates(&p).len(), 1);
        let mut oracle = PathOracle::new(Vec::new(), &d);
        let c = oracle.choose(p, StateHash(1));
        assert_eq!(c, Choice::ReleaseJitter(Cycles::ZERO));
        assert!(oracle.log[0].branches.is_empty());
        let mut visited = VisitedSet::new();
        assert!(merge_path(&oracle.log, &mut visited).is_empty());
        assert!(visited.is_empty(), "non-branching points cost no budget");
    }

    #[test]
    fn novel_branch_points_expand_once() {
        let d = jitter_domains(50);
        let p = ChoicePoint::ReleaseJitter { task: 0, job: 0 };
        let mut visited = VisitedSet::new();
        {
            let mut oracle = PathOracle::new(Vec::new(), &d);
            assert_eq!(
                oracle.choose(p, StateHash(1)),
                Choice::ReleaseJitter(Cycles::ZERO)
            );
            assert_eq!(
                oracle.log[0].branches,
                vec![Choice::ReleaseJitter(Cycles::new(50))]
            );
            assert_eq!(merge_path(&oracle.log, &mut visited), vec![0]);
        }
        // A second path reaching the same (state, point) merges: its
        // branches are not scheduled, and the rest of that path stops
        // expanding — even a novel later pair.
        {
            let mut oracle = PathOracle::new(Vec::new(), &d);
            oracle.choose(p, StateHash(1));
            let later = ChoicePoint::ReleaseJitter { task: 0, job: 1 };
            oracle.choose(later, StateHash(2));
            assert!(merge_path(&oracle.log, &mut visited).is_empty());
        }
        assert_eq!(visited.len(), 1);
    }

    #[test]
    fn same_state_different_points_are_distinct() {
        // The regression the pair key exists for: a jitter query and an
        // exec query can see the same fingerprint within one instant.
        let d = Domains {
            exec_scale_min_ppm: 500_000,
            jitter_max_cycles: 50,
            explore_faults: false,
        };
        let mut oracle = PathOracle::new(Vec::new(), &d);
        let jitter = ChoicePoint::ReleaseJitter { task: 0, job: 0 };
        let exec = ChoicePoint::ExecScale {
            task: 0,
            job: 0,
            min_ppm: 500_000,
        };
        oracle.choose(jitter, StateHash(7));
        oracle.choose(exec, StateHash(7));
        let mut visited = VisitedSet::new();
        assert_eq!(
            merge_path(&oracle.log, &mut visited),
            vec![0, 1],
            "not merged away"
        );
        assert_eq!(visited.len(), 2);
    }

    #[test]
    fn prefix_region_is_forced_verbatim() {
        let d = jitter_domains(50);
        let forced = vec![Choice::ReleaseJitter(Cycles::new(50))];
        let mut oracle = PathOracle::new(forced, &d);
        let p = ChoicePoint::ReleaseJitter { task: 0, job: 0 };
        assert_eq!(
            oracle.choose(p, StateHash(3)),
            Choice::ReleaseJitter(Cycles::new(50))
        );
        assert!(oracle.log[0].branches.is_empty());
        let mut visited = VisitedSet::new();
        assert!(merge_path(&oracle.log, &mut visited).is_empty());
        assert!(visited.is_empty(), "forced region does no bookkeeping");
    }

    /// The purity contract the parallel frontier rests on: two oracles
    /// with the same prefix over the same query sequence produce
    /// identical logs — no shared state, no order dependence.
    #[test]
    fn path_logs_are_a_pure_function_of_the_prefix() {
        let d = jitter_domains(50);
        let drive = || {
            let mut oracle = PathOracle::new(vec![Choice::ReleaseJitter(Cycles::new(50))], &d);
            for job in 0..4 {
                oracle.choose(
                    ChoicePoint::ReleaseJitter { task: 0, job },
                    StateHash(job as u128),
                );
            }
            oracle.log
        };
        let a = drive();
        let b = drive();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((x.point, x.chosen, x.state), (y.point, y.chosen, y.state));
            assert_eq!(x.branches, y.branches);
        }
    }
}
