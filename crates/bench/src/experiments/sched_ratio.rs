//! Figures F2 (schedulability ratio), F3 (simulated miss behaviour),
//! and F7 (priority-assignment comparison).
//!
//! Each sweep expands its `(utilization, seed)` grid into cells for
//! [`par_map_seeded`]; results come back in input order, so the fold
//! into per-utilization rows reproduces the serial loop byte for byte.

use rtmdm_core::report;
use rtmdm_sched::analysis::{
    rta_limited_preemption, rta_limited_preemption_with, rta_memory_oblivious,
    sync_simulation_verdict, SchedulerMode, SyncVerdict,
};
use rtmdm_sched::assign::{audsley, dm_order, rm_order};
use rtmdm_sched::baseline;
use rtmdm_sched::gen::{generate, TasksetParams};
use rtmdm_sched::sim::{simulate, Policy, SimConfig};
use rtmdm_sched::TaskSet;

use rtmdm_par::par_map_seeded;

use super::{eval_platform, pct};

fn params(n: usize, util_pct: u64) -> TasksetParams {
    let mut p = TasksetParams::baseline(n, util_pct * 10_000);
    p.segments_range = (3, 6);
    p.fetch_compute_ratio_ppm = 200_000;
    p
}

/// The five admission policies compared in F2/F3.
fn policies() -> Vec<&'static str> {
    vec![
        "rt-mdm (gated)",
        "rt-mdm (work-conserving)",
        "B1 fetch-then-compute",
        "B2 whole-dnn",
        "B4 memory-oblivious",
    ]
}

fn admit(ts: &TaskSet, which: usize) -> bool {
    let p = eval_platform();
    let ordered = ts.reordered(&dm_order(ts));
    match which {
        0 => rta_limited_preemption_with(&ordered, &p, SchedulerMode::Gated).schedulable,
        1 => rta_limited_preemption_with(&ordered, &p, SchedulerMode::WorkConserving).schedulable,
        2 => {
            let b1 = baseline::transform_set(&ordered, |t| baseline::fetch_then_compute(t, &p));
            rta_limited_preemption(&b1, &p).schedulable
        }
        3 => {
            let b2 = baseline::transform_set(&ordered, |t| {
                baseline::whole_job(&baseline::fetch_then_compute(t, &p))
            });
            rta_limited_preemption(&b2, &p).schedulable
        }
        4 => rta_memory_oblivious(&ordered, &p).schedulable,
        _ => unreachable!(),
    }
}

/// Expands a `utils × seeds` grid into cells and folds the per-cell
/// results back into one row of counts per utilization.
fn sweep_grid<R, F, A>(utils: &[u64], sets: u32, cell: F) -> Vec<(u64, A)>
where
    R: Send,
    F: Fn(u64, u32) -> R + Sync,
    A: Default,
    A: Extend<R>,
{
    let cells: Vec<(u64, u32)> = utils
        .iter()
        .flat_map(|&u| (0..sets).map(move |s| (u, s)))
        .collect();
    let results = par_map_seeded(cells, |(util, seed)| cell(util, seed));
    let mut folded = Vec::with_capacity(utils.len());
    let mut it = results.into_iter();
    for &util in utils {
        let mut acc = A::default();
        acc.extend(it.by_ref().take(sets as usize));
        folded.push((util, acc));
    }
    folded
}

/// F2 — fraction of random task sets each admission test accepts, per
/// total compute utilization. Expected shape: gated rt-mdm dominates B1
/// and B2 everywhere; work-conserving trades blocking for interference
/// (crossing gated at low utilization); the memory-oblivious curve sits
/// highest — and F3 shows why that is not a virtue.
pub fn f2_sched_ratio() -> String {
    const SETS: u32 = 300;
    let utils = [5u64, 10, 15, 20, 25, 30, 40, 50, 60];
    let per_util: Vec<(u64, Vec<[bool; 5]>)> = sweep_grid(&utils, SETS, |util, seed| {
        let ts = generate(&params(4, util), &eval_platform(), u64::from(seed));
        let mut verdicts = [false; 5];
        for (i, v) in verdicts.iter_mut().enumerate() {
            *v = admit(&ts, i);
        }
        verdicts
    });
    let mut rows = Vec::new();
    for (util, verdicts) in per_util {
        let mut accepted = [0u32; 5];
        for v in &verdicts {
            for (acc, &ok) in accepted.iter_mut().zip(v) {
                *acc += u32::from(ok);
            }
        }
        let mut row = vec![format!("{util}%")];
        row.extend(accepted.iter().map(|&a| pct(a, SETS)));
        rows.push(row);
    }
    let mut headers = vec!["compute util"];
    headers.extend(policies());
    let main = report::table(&headers, &rows);

    // Second panel: analysis vs empirical acceptance. Grid periods keep
    // hyperperiods within 2 s, so every set can be exhaustively
    // simulated from the synchronous release pattern (an *upper* bound
    // on true sporadic schedulability). The gap between the two curves
    // is the analysis's pessimism.
    const SETS2: u32 = 120;
    let utils2 = [10u64, 20, 30, 40, 50, 60, 70];
    let per_util2: Vec<(u64, Vec<(bool, SyncVerdict)>)> =
        sweep_grid(&utils2, SETS2, |util, seed| {
            let prm = params(4, util).with_grid_periods();
            let ts = generate(&prm, &eval_platform(), u64::from(seed));
            let ordered = ts.reordered(&dm_order(&ts));
            let analytical = rta_limited_preemption(&ordered, &eval_platform()).schedulable;
            let empirical =
                sync_simulation_verdict(&ordered, &eval_platform(), Policy::FixedPriority, false);
            (analytical, empirical)
        });
    let mut rows2 = Vec::new();
    // An over-cap hyperperiod is *inconclusive*, not a rejection
    // (mirroring RTM053's never-silently-safe rule): such cells are
    // counted separately and flagged below instead of quietly deflating
    // the empirical curve. Grid periods keep every hyperperiod under
    // the cap, so this count is zero and the table stays byte-stable;
    // the note only appears if the grid ever changes.
    let mut inconclusive_cells = 0u32;
    for (util, verdicts) in per_util2 {
        let analytical = verdicts.iter().map(|&(a, _)| u32::from(a)).sum::<u32>();
        let empirical = verdicts
            .iter()
            .map(|&(_, e)| u32::from(e == SyncVerdict::Accepted))
            .sum::<u32>();
        inconclusive_cells += verdicts
            .iter()
            .map(|&(_, e)| u32::from(e == SyncVerdict::Inconclusive))
            .sum::<u32>();
        rows2.push(vec![
            format!("{util}%"),
            pct(analytical, SETS2),
            pct(empirical, SETS2),
        ]);
    }
    let second = report::table(
        &[
            "compute util",
            "rt-mdm analysis",
            "empirical (sync simulation)",
        ],
        &rows2,
    );
    let note = if inconclusive_cells > 0 {
        format!(
            "\nnote: {inconclusive_cells} cells had hyperperiods past the \
             simulation cap (inconclusive, excluded from the empirical curve)"
        )
    } else {
        String::new()
    };
    format!("{main}\nanalysis vs empirical acceptance (grid periods):\n{second}{note}")
}

/// Per-cell outcome of the F3 sweep.
struct MissCell {
    /// Admitted by gated / B1 / memory-oblivious analysis.
    admitted: [bool; 3],
    /// ... and then missed a deadline in simulation.
    missed: [bool; 3],
    /// Jobs released / missed under the gated runtime.
    jobs_total: u64,
    jobs_missed: u64,
}

/// F3 — what actually happens on the platform: per policy, the fraction
/// of *admitted* sets that then miss a deadline in simulation (must be 0
/// for every sound analysis, and is decidedly not 0 for the
/// memory-oblivious baseline), plus the raw job-level miss ratio when
/// every set is run regardless of admission.
pub fn f3_miss_ratio() -> String {
    const SETS: u32 = 100;
    let utils = [10u64, 20, 30, 40, 50];
    let per_util: Vec<(u64, Vec<MissCell>)> = sweep_grid(&utils, SETS, |util, seed| {
        let p = eval_platform();
        let ts = generate(&params(4, util), &p, u64::from(seed));
        let ordered = ts.reordered(&dm_order(&ts));
        let horizon = ordered.tasks().iter().map(|t| t.period).max().unwrap() * 4;
        let config = SimConfig::new(horizon, Policy::FixedPriority);

        let mut cell = MissCell {
            admitted: [false; 3],
            missed: [false; 3],
            jobs_total: 0,
            jobs_missed: 0,
        };

        // Gated rt-mdm.
        let run = simulate(&ordered, &p, &config);
        cell.jobs_total = run.stats.iter().map(|s| s.releases).sum::<u64>();
        cell.jobs_missed = run.total_misses();
        if rta_limited_preemption(&ordered, &p).schedulable {
            cell.admitted[0] = true;
            cell.missed[0] = run.total_misses() > 0;
        }
        // B1.
        let b1 = baseline::transform_set(&ordered, |t| baseline::fetch_then_compute(t, &p));
        if rta_limited_preemption(&b1, &p).schedulable {
            cell.admitted[1] = true;
            cell.missed[1] = simulate(&b1, &p, &config).total_misses() > 0;
        }
        // B4: memory-oblivious admission, reality-check on the real
        // platform semantics (gated runtime).
        if rta_memory_oblivious(&ordered, &p).schedulable {
            cell.admitted[2] = true;
            cell.missed[2] = run.total_misses() > 0;
        }
        cell
    });
    let mut rows = Vec::new();
    for (util, cells) in per_util {
        let mut admitted = [0u32; 3];
        let mut admitted_missed = [0u32; 3];
        let mut jobs_total = 0u64;
        let mut jobs_missed = 0u64;
        for c in &cells {
            for i in 0..3 {
                admitted[i] += u32::from(c.admitted[i]);
                admitted_missed[i] += u32::from(c.admitted[i] && c.missed[i]);
            }
            jobs_total += c.jobs_total;
            jobs_missed += c.jobs_missed;
        }
        rows.push(vec![
            format!("{util}%"),
            format!("{}/{}", admitted_missed[0], admitted[0]),
            format!("{}/{}", admitted_missed[1], admitted[1]),
            format!("{}/{}", admitted_missed[2], admitted[2]),
            format!(
                "{:.2}%",
                100.0 * jobs_missed as f64 / jobs_total.max(1) as f64
            ),
        ]);
    }
    report::table(
        &[
            "compute util",
            "gated admitted→missed",
            "B1 admitted→missed",
            "B4 oblivious admitted→missed",
            "raw job miss ratio (gated)",
        ],
        &rows,
    )
}

/// F7 — priority assignment: RM vs DM vs Audsley OPA acceptance under
/// the gated rt-mdm analysis, constrained deadlines. Expected shape:
/// OPA ≥ DM ≥ RM at every utilization.
pub fn f7_opa() -> String {
    const SETS: u32 = 300;
    let utils = [25u64, 35, 45, 55, 65, 75];
    let per_util: Vec<(u64, Vec<[bool; 3]>)> = sweep_grid(&utils, SETS, |util, seed| {
        let p = eval_platform();
        let mut prm = params(4, util);
        prm.deadline_factor_range_ppm = (500_000, 1_000_000);
        let ts = generate(&prm, &p, u64::from(seed));
        [
            rta_limited_preemption(&ts.reordered(&rm_order(&ts)), &p).schedulable,
            rta_limited_preemption(&ts.reordered(&dm_order(&ts)), &p).schedulable,
            audsley(&ts, &p).is_some(),
        ]
    });
    let mut rows = Vec::new();
    for (util, verdicts) in per_util {
        let mut wins = [0u32; 3];
        for v in &verdicts {
            for (w, &ok) in wins.iter_mut().zip(v) {
                *w += u32::from(ok);
            }
        }
        rows.push(vec![
            format!("{util}%"),
            pct(wins[0], SETS),
            pct(wins[1], SETS),
            pct(wins[2], SETS),
        ]);
    }
    report::table(&["compute util", "RM", "DM", "Audsley OPA"], &rows)
}
