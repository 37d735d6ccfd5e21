//! The `sim` workload: seeded multi-DNN + control-loop mixes simulated
//! through `RtMdm::simulate_with` (default discrete-event engine).

use std::time::Instant;

use rtmdm_core::RtMdm;

use crate::gen::{self, Mix};
use crate::stats::{fastest, fnv1a, Metrics, Tally};
use crate::trace::{timed, Tracer};

/// Pinned digests of every simulated statistic: `seed mixes digest`.
const DIGESTS: &str = include_str!("../reference/sim_digests.txt");

/// Operation kind of a mix: each round's run of it is checked, and
/// every later round's statistics against the first's.
const MIX_OP: &str = "sim mix";
/// Operation kind of the pinned digest check.
const DIGEST_OP: &str = "sim digest";

/// One mix, lowered and admitted during set-up.
pub struct Prepared {
    pub mix: Mix,
    pub fw: RtMdm,
    pub admitted: bool,
}

pub struct Sim {
    pub seed: u64,
    pub runs: Vec<Prepared>,
}

/// Generates the mixes and admits each (admission is set-up, not
/// measured).
pub fn prepare(seed: u64, mixes: usize, horizon_us: u64) -> Sim {
    let runs = gen::sim_mixes(seed, mixes, horizon_us)
        .into_iter()
        .map(|mix| {
            let mut options = mix.request.opts.framework();
            options.fault = mix.fault;
            let fw = mix
                .request
                .framework(options)
                .expect("generated mixes fit the platform's SRAM");
            let admitted = fw.admit().map(|a| a.schedulable()).unwrap_or(false);
            Prepared { mix, fw, admitted }
        })
        .collect();
    Sim { seed, runs }
}

/// Simulated statistics of one round over every mix; identical in
/// every round and on every host.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Totals {
    pub events: u64,
    pub cycles: u64,
    pub cpu_busy: u64,
    pub dma_busy: u64,
    pub prefetch_hits: u64,
    pub blocking_fetches: u64,
    pub preemptions: u64,
    pub fetch_retries: u64,
    pub misses: u64,
    /// Canonical rendering of every per-task and aggregate statistic,
    /// one line per mix.
    pub canon: Vec<String>,
}

#[derive(Debug, Default)]
pub struct SimRun {
    /// Host µs of every round's run of each mix, per mix.
    pub mix_us: Vec<Vec<f64>>,
    pub totals: Totals,
    pub tally: Tally,
}

impl SimRun {
    /// Simulated events of one round over the host seconds of one
    /// round, each mix at its fastest run (see [`fastest`]).
    fn events_per_s(&self) -> f64 {
        let us: f64 = self.mix_us.iter().map(|t| fastest(t)).sum();
        self.totals.events as f64 * 1e6 / us
    }

    pub fn metrics(&self, m: &mut Metrics) {
        m.put("sim_events_per_s", self.events_per_s(), "1/s");
    }

    pub fn layers(&self, m: &mut Metrics) {
        let t = &self.totals;
        let ppm = |x: u64| x as f64 * 1e6 / t.cycles.max(1) as f64;
        m.put("sim.events", t.events as f64, "count");
        m.put("sim.simulated_cycles", t.cycles as f64, "cycles");
        m.put("sim.ns_per_event", 1e9 / self.events_per_s(), "ns");
        m.put("sim.cpu_busy_ppm", ppm(t.cpu_busy), "ppm");
        m.put("sim.dma_busy_ppm", ppm(t.dma_busy), "ppm");
        let fetches = (t.prefetch_hits + t.blocking_fetches).max(1);
        m.put(
            "sim.prefetch_hit_ratio",
            t.prefetch_hits as f64 / fetches as f64,
            "ratio",
        );
        m.put("sim.preemptions", t.preemptions as f64, "count");
        m.put("sim.fetch_retries", t.fetch_retries as f64, "count");
        m.put("sim.misses", t.misses as f64, "count");
    }
}

/// The sim measurement: every mix simulated once per round. Each run
/// is checked: the CPU time partition is exact, admitted sets miss
/// nothing at execution times ≤ WCET, and every round reproduces the
/// first one's statistics exactly.
pub struct SimPhase<'a> {
    s: &'a Sim,
    run: SimRun,
}

impl<'a> SimPhase<'a> {
    pub fn new(s: &'a Sim) -> SimPhase<'a> {
        SimPhase {
            s,
            run: SimRun {
                mix_us: vec![Vec::new(); s.runs.len()],
                ..SimRun::default()
            },
        }
    }

    /// Runs whole rounds for `seconds` (at least one).
    pub fn step(&mut self, seconds: f64, tracer: &mut Option<&mut Tracer>) {
        let started = Instant::now();
        loop {
            self.round(tracer);
            if started.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
    }

    fn round(&mut self, tracer: &mut Option<&mut Tracer>) {
        let out = &mut self.run;
        let first = out.totals.canon.is_empty();
        let mut totals = Totals::default();
        for (i, p) in self.s.runs.iter().enumerate() {
            let m = &p.mix;
            let (report, us) = timed(tracer, "sim.simulate", None, i as u64, || {
                p.fw.simulate_with(m.horizon_us, m.exec_min_ppm, m.exec_seed)
            });
            out.mix_us[i].push(us);
            let report = match report {
                Ok(r) => r,
                Err(e) => {
                    totals.canon.push(format!("{i} error {e}\n"));
                    out.tally
                        .op((MIX_OP, i), Err(format!("mix {i}: simulate failed: {e}")));
                    continue;
                }
            };
            let r = &report.result;
            let x = &r.metrics;
            let misses = r.total_misses();
            totals.events += r.trace.len() as u64;
            totals.cycles += r.horizon.get();
            totals.cpu_busy += x.cpu_busy_cycles.get();
            totals.dma_busy += x.dma_busy_cycles.get();
            totals.prefetch_hits += x.prefetch_hits;
            totals.blocking_fetches += x.blocking_fetches;
            totals.preemptions += x.preemptions;
            totals.fetch_retries += x.fetch_retries;
            totals.misses += misses;
            totals
                .canon
                .push(format!("{i} {} {:?} {:?}\n", r.trace.len(), r.stats, x));
            let partition = x.cpu_busy_cycles.get() + x.cpu_idle_cycles.get() == r.horizon.get();
            out.tally.op(
                (MIX_OP, i),
                if !partition {
                    Err(format!("mix {i}: cpu_busy + cpu_idle != horizon"))
                } else if p.admitted && misses > 0 {
                    Err(format!(
                        "mix {i} ({} on {}): admitted, yet {misses} deadline misses at ≤ WCET",
                        m.policy.name(),
                        m.request.platform
                    ))
                } else {
                    Ok(())
                },
            );
        }
        if first {
            out.totals = totals;
            return;
        }
        for (i, (a, b)) in out.totals.canon.iter().zip(&totals.canon).enumerate() {
            out.tally.op(
                (MIX_OP, i),
                if a == b {
                    Ok(())
                } else {
                    Err(format!(
                        "mix {i}: a later round simulated different statistics"
                    ))
                },
            );
        }
    }

    /// Checks the statistics digest against the pinned one, when this
    /// seed and size are pinned.
    pub fn finish(mut self) -> SimRun {
        let digest = fnv1a(&self.run.totals.canon.concat());
        let key = format!("{} {} ", self.s.seed, self.s.runs.len());
        if let Some(pinned) = DIGESTS.lines().find_map(|l| l.strip_prefix(&key)) {
            self.run.tally.op(
                (DIGEST_OP, 0),
                if pinned.trim() == format!("{digest:016x}") {
                    Ok(())
                } else {
                    Err(format!(
                        "simulated statistics digest {digest:016x} != pinned {}",
                        pinned.trim()
                    ))
                },
            );
        }
        self.run
    }
}

/// The digest line to pin for this run (`--pin`).
pub fn digest_line(s: &Sim, r: &SimRun) -> String {
    format!(
        "{} {} {:016x}",
        s.seed,
        s.runs.len(),
        fnv1a(&r.totals.canon.concat())
    )
}
