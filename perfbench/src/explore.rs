//! The `explore` workload: exhaustive schedule-space exploration to a
//! verdict, fork strategy, one thread, fixed state budget.

use std::time::Instant;

use rtmdm_check::{explore, ExploreLimits, ExploreOrder, ExploreStats, ExploreStrategy, Witness};
use rtmdm_core::{CheckOptions, ExploreOptions, SystemSpec, TaskSpec};
use rtmdm_dnn::zoo;
use rtmdm_mcusim::{PlatformConfig, TraceKind};
use rtmdm_sched::gen::{generate, TasksetParams};
use rtmdm_sched::script::{Choice, ChoicePoint, SimOracle, StateHash};
use rtmdm_sched::sim::{simulate, simulate_with_oracle_forked, Policy, SimConfig, SimSnapshot};
use rtmdm_sched::TaskSet;

use crate::gen::Rng;
use crate::stats::{fastest, median, Metrics, Tally};
use crate::trace::{timed, Tracer};

/// Pinned reference verdict of every cell: `cell verdict`.
const REFERENCE: &str = include_str!("../reference/explore_verdicts.txt");

/// Operation kind of a cell: its first verdict is checked against the
/// reference and every later round's against the first.
const CELL_OP: &str = "explore cell";

/// State budget of every cell.
pub const MAX_STATES: usize = 2_000;

enum Kind {
    /// A synthetic set explored directly (the F14 / F14s cells).
    Raw {
        ts: TaskSet,
        platform: PlatformConfig,
        config: SimConfig,
        order: ExploreOrder,
    },
    /// A zoo system checked with exploration on.
    Zoo {
        spec: SystemSpec,
        options: CheckOptions,
    },
}

pub struct Cell {
    pub name: String,
    kind: Kind,
}

/// The F14 cell shape: grid periods, 2–4 segments, generator seed 1.
fn synthetic(n: usize, util_ppm: u64, horizon_periods: u64, order: ExploreOrder) -> Kind {
    let platform = PlatformConfig::stm32f746_qspi();
    let mut params = TasksetParams::baseline(n, util_ppm).with_grid_periods();
    params.segments_range = (2, 4);
    let ts = generate(&params, &platform, 1);
    let horizon = ts.tasks().iter().map(|t| t.period).max().expect("n ≥ 1") * horizon_periods;
    let config = SimConfig {
        horizon,
        exec_scale_min_ppm: 600_000,
        attribution: true,
        ..SimConfig::new(horizon, Policy::FixedPriority)
    };
    Kind::Raw {
        ts,
        platform,
        config,
        order,
    }
}

fn zoo_cell(platform: PlatformConfig, tasks: Vec<TaskSpec>, x: ExploreOptions) -> Kind {
    let mut spec = SystemSpec::new(platform);
    for t in tasks {
        spec.push(t);
    }
    Kind::Zoo {
        spec,
        options: CheckOptions { explore: Some(x) },
    }
}

fn zoo_options(jitter_max_us: u64, exec_scale_min_ppm: u64) -> ExploreOptions {
    ExploreOptions {
        max_states: MAX_STATES,
        jitter_max_us,
        exec_scale_min_ppm,
        strategy: ExploreStrategy::Fork,
        threads: 1,
        ..ExploreOptions::default()
    }
}

/// The small cells: F14's 1–5-task rows.
fn small_cells() -> Vec<Cell> {
    (1..=5)
        .map(|n| Cell {
            name: format!("f14-{n}"),
            kind: synthetic(n, 400_000, 2, ExploreOrder::ShallowFirst),
        })
        .collect()
}

/// Every explore-scale cell. The cells are fixed so that each has a
/// pinned reference verdict; the seed only permutes their order.
pub fn prepare(seed: u64, full: bool) -> Vec<Cell> {
    let mut cells = small_cells();
    if full {
        for n in 6..=8 {
            cells.push(Cell {
                name: format!("f14s-{n}"),
                kind: synthetic(n, 250_000, 12, ExploreOrder::DeepFirst),
            });
        }
        let f746 = PlatformConfig::stm32f746_qspi;
        cells.push(Cell {
            name: "zoo-kws-ic-jitter".to_owned(),
            kind: zoo_cell(
                f746(),
                vec![
                    TaskSpec::new("kws", zoo::ds_cnn(), 100_000, 100_000),
                    TaskSpec::new("ic", zoo::resnet8(), 400_000, 400_000),
                ],
                zoo_options(20, 1_000_000),
            ),
        });
        cells.push(Cell {
            name: "zoo-ic-overload".to_owned(),
            kind: zoo_cell(
                f746(),
                vec![TaskSpec::new("ic", zoo::resnet8(), 10_000, 10_000)],
                zoo_options(0, 1_000_000),
            ),
        });
        cells.push(Cell {
            name: "zoo-ctl-kws-exec".to_owned(),
            kind: zoo_cell(
                PlatformConfig::stm32h743_ospi(),
                vec![
                    TaskSpec::new("ctl", zoo::micro_mlp(), 10_000, 10_000),
                    TaskSpec::new("kws", zoo::ds_cnn(), 100_000, 100_000),
                ],
                zoo_options(0, 600_000),
            ),
        });
    }
    let mut rng = Rng::new(seed, 5);
    rng.shuffle(&mut cells);
    cells
}

/// What one exploration of a cell concluded.
#[derive(Debug, Clone, PartialEq)]
struct Verdict {
    verdict: String,
    stats: ExploreStats,
}

fn limits(order: ExploreOrder) -> ExploreLimits {
    ExploreLimits {
        max_states: MAX_STATES,
        jitter_max_cycles: 0,
        strategy: ExploreStrategy::Fork,
        threads: 1,
        order,
    }
}

fn verdict_of(ids: &[&str], complete: bool) -> String {
    match ids
        .iter()
        .find(|id| matches!(**id, "RTM050" | "RTM051" | "RTM052"))
    {
        Some(id) => (*id).to_owned(),
        None if complete && !ids.contains(&"RTM053") => "safe".to_owned(),
        None => "inconclusive".to_owned(),
    }
}

fn explore_cell(cell: &Cell) -> (Verdict, Option<Witness>) {
    match &cell.kind {
        Kind::Raw {
            ts,
            platform,
            config,
            order,
        } => {
            let out = explore(ts, platform, config, &limits(*order));
            let ids: Vec<&str> = out.findings.iter().map(|f| f.rule.id()).collect();
            let verdict = verdict_of(&ids, out.stats.complete);
            (
                Verdict {
                    verdict,
                    stats: out.stats,
                },
                out.witness,
            )
        }
        Kind::Zoo { spec, options } => {
            let out = spec.check_with(options);
            let stats = out.explore_stats.unwrap_or_default();
            let ids: Vec<&str> = out.report.findings.iter().map(|f| f.rule.id()).collect();
            let verdict = verdict_of(&ids, stats.complete);
            (Verdict { verdict, stats }, out.witness)
        }
    }
}

/// Replays a witness and confirms the violation it claims.
fn witness_reproduces(w: &Witness) -> bool {
    let r = w.replay();
    match w.rule.as_str() {
        "RTM051" => r
            .races
            .iter()
            .any(|x| x.at.get() == w.at && x.task == w.task && x.job == w.job),
        _ => r.trace.events().iter().any(|e| {
            e.time.get() == w.at
                && matches!(e.kind, TraceKind::DeadlineMissed { task, job }
                    if task.0 == w.task && job.0 == w.job)
        }),
    }
}

#[derive(Debug, Default)]
pub struct ExploreRun {
    /// Per cell (in cell order): host seconds of every round.
    pub wall_s: Vec<Vec<f64>>,
    pub conclusive: usize,
    pub stats: ExploreStats,
    pub tally: Tally,
}

impl ExploreRun {
    /// Time to verdict summed over cells, each cell at its fastest
    /// round (see [`fastest`]).
    pub fn wall(&self) -> f64 {
        self.wall_s.iter().map(|w| fastest(w)).sum()
    }

    pub fn metrics(&self, m: &mut Metrics) {
        m.put("explore_wall_s", self.wall(), "s");
        m.put("conclusive_cells", self.conclusive as f64, "count");
    }

    pub fn layers(&self, m: &mut Metrics) {
        let s = &self.stats;
        m.put("explore.states", s.states as f64, "count");
        m.put("explore.runs", s.runs as f64, "count");
        m.put("explore.transitions", s.transitions as f64, "count");
        m.put(
            "explore.transitions_per_state",
            s.transitions as f64 / s.states.max(1) as f64,
            "ratio",
        );
        m.put("explore.states_per_s", s.states as f64 / self.wall(), "1/s");
    }
}

/// The explore measurement: the cells explored in turn, round after
/// round. Each cell's first verdict is checked against the pinned
/// reference and its witness by replay, and every later verdict against
/// the first. The phase advances cell by cell, so that its slices keep
/// to their share of the run.
pub struct ExplorePhase<'a> {
    cells: &'a [Cell],
    next: usize,
    first: Vec<Verdict>,
    run: ExploreRun,
}

impl<'a> ExplorePhase<'a> {
    pub fn new(cells: &'a [Cell]) -> ExplorePhase<'a> {
        ExplorePhase {
            cells,
            next: 0,
            first: Vec::new(),
            run: ExploreRun {
                wall_s: vec![Vec::new(); cells.len()],
                ..ExploreRun::default()
            },
        }
    }

    /// Explores cells for `seconds` (at least one).
    pub fn step(&mut self, seconds: f64, tracer: &mut Option<&mut Tracer>) {
        let started = Instant::now();
        loop {
            self.explore_next(tracer);
            if started.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
    }

    fn explore_next(&mut self, tracer: &mut Option<&mut Tracer>) {
        let i = self.next;
        self.next = (i + 1) % self.cells.len();
        let cell = &self.cells[i];
        let out = &mut self.run;
        let ((v, witness), us) = timed(tracer, "explore.cell", None, i as u64, || {
            explore_cell(cell)
        });
        out.wall_s[i].push(us / 1e6);
        if let Some(first) = self.first.get(i) {
            out.tally.op(
                (CELL_OP, i),
                if v == *first {
                    Ok(())
                } else {
                    Err(format!("{}: a later round explored differently", cell.name))
                },
            );
            return;
        }
        let reference = REFERENCE
            .lines()
            .find_map(|l| l.strip_prefix(&format!("{} ", cell.name)))
            .map(str::trim);
        let agrees = match (reference, v.verdict.as_str()) {
            (None, _) => false,
            (Some("inconclusive"), _) => true,
            (Some("safe"), got) => got == "safe",
            (Some(_), got) => got.starts_with("RTM"),
        };
        let replays = witness.as_ref().is_none_or(witness_reproduces);
        if v.verdict == "safe" || (witness.is_some() && replays) {
            out.conclusive += 1;
        }
        out.stats.states += v.stats.states;
        out.stats.runs += v.stats.runs;
        out.stats.transitions += v.stats.transitions;
        out.tally.op(
            (CELL_OP, i),
            if !agrees {
                Err(format!(
                    "{}: verdict {} contradicts the pinned {reference:?}",
                    cell.name, v.verdict
                ))
            } else if !replays {
                Err(format!(
                    "{}: witness does not replay its violation",
                    cell.name
                ))
            } else {
                Ok(())
            },
        );
        self.first.push(v);
    }

    /// Completes the first round if the slices did not.
    pub fn finish(mut self, tracer: &mut Option<&mut Tracer>) -> ExploreRun {
        while self.first.len() < self.cells.len() {
            self.explore_next(tracer);
        }
        self.run
    }
}

/// The reference line of every cell as explored now (`--pin`).
pub fn reference_lines(cells: &[Cell]) -> String {
    let mut lines: Vec<String> = cells
        .iter()
        .map(|c| format!("{} {}", c.name, explore_cell(c).0.verdict))
        .collect();
    lines.sort();
    lines.join("\n") + "\n"
}

/// Always answers the explorer's first candidate, so one capturing run
/// walks the default path.
struct DefaultOracle;

impl SimOracle for DefaultOracle {
    fn choose(&mut self, point: ChoicePoint, _state: StateHash) -> Choice {
        Choice::default_for(&point)
    }
}

/// Snapshot footprint and capture cost on the largest synthetic cell:
/// the biggest `SimSnapshot::size_hint` of a capturing default-path
/// run, and that run's time over a plain `simulate` of the same cell.
pub fn snapshot_layers(cells: &[Cell], tracer: &mut Tracer, m: &mut Metrics) {
    let Some((ts, platform, config)) = cells
        .iter()
        .filter_map(|c| match &c.kind {
            Kind::Raw {
                ts,
                platform,
                config,
                ..
            } => Some((ts, platform, config)),
            Kind::Zoo { .. } => None,
        })
        .max_by_key(|(ts, _, _)| ts.tasks().len())
    else {
        return;
    };
    let mut t = Some(tracer);
    let mut bytes = 0usize;
    let mut ratios = Vec::new();
    for rep in 0..7u64 {
        let (caps, capture_us) = timed(&mut t, "sim.snapshot_capture", None, rep, || {
            let mut caps: Vec<SimSnapshot> = Vec::new();
            let _ = simulate_with_oracle_forked(
                ts,
                platform,
                config,
                &mut DefaultOracle,
                None,
                Some(&mut caps),
            );
            caps
        });
        bytes = caps.iter().map(SimSnapshot::size_hint).max().unwrap_or(0);
        let (_, plain_us) = timed(&mut t, "sim.simulate", None, rep, || {
            simulate(ts, platform, config).trace.len()
        });
        ratios.push(capture_us / plain_us);
    }
    m.put("sim.snapshot_bytes_max", bytes as f64, "bytes");
    m.put("sim.snapshot_overhead_ratio", median(&ratios), "ratio");
}
