//! Seeded benchmark of the RT-MDM admission service, simulator and
//! explorer. See `README.md` beside this crate for the workloads, the
//! metrics and what each one is predicted to move.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload admit-distinct --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.

mod explore;
mod gen;
mod serve;
mod sim;
mod stats;
mod trace;

use std::time::Instant;

use rtmdm_core::Service;
use rtmdm_dnn::zoo;

use stats::{median, peak_rss_mb, Metrics, Tally};
use trace::Tracer;

/// Inputs of the fixed companion probes, identical for every seed.
const COMPANION_SEED: u64 = 0;
/// Companion serve probe: a small fleet pool, asked warm.
const COMPANION_POOL: usize = 8;
/// Companion sim probe: mixes per round and the simulated horizon of
/// each.
const COMPANION_MIXES: usize = 3;
const COMPANION_HORIZON_US: u64 = 20_000_000;
/// Share of `--seconds` the workload measures; each of its two
/// companion probes gets half of the rest.
const WORKLOAD_SHARE: f64 = 0.7;
/// Interleaved slices of a run (see [`measure`]): many short ones, so
/// that each companion probe's share is spread over the whole run.
const CYCLES: usize = 25;

/// Mixes of the sim-multidnn workload and the simulated horizon of each.
const SIM_MIXES: usize = 216;
const SIM_HORIZON_US: u64 = 6_000_000;
/// Pool size of the admit-fleet workload.
const FLEET_POOL: usize = 64;
/// Set-up runs at least this many times and for at least
/// [`SETUP_MIN_S`] (at most [`SETUP_MAX_REPS`] times); `setup_s` is the
/// median.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MIN_S: f64 = 1.0;
const SETUP_MAX_REPS: usize = 100;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    AdmitDistinct,
    AdmitFleet,
    SimMultidnn,
    ExploreScale,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "admit-distinct" => Workload::AdmitDistinct,
            "admit-fleet" => Workload::AdmitFleet,
            "sim-multidnn" => Workload::SimMultidnn,
            "explore-scale" => Workload::ExploreScale,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Workload::AdmitDistinct => "admit-distinct",
            Workload::AdmitFleet => "admit-fleet",
            Workload::SimMultidnn => "sim-multidnn",
            Workload::ExploreScale => "explore-scale",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Print the reference lines to pin instead of benchmarking.
    pin: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut pin = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--pin" {
            pin = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!(
                    "unknown workload {value} (admit-distinct, admit-fleet, sim-multidnn, explore-scale)"
                ))?);
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => trace = value.parse::<u8>().map_err(|_| bad())? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        pin,
    })
}

/// Everything a run measures, built before the clock starts.
struct Prepared {
    serve: ServeInputs,
    sim: sim::Sim,
    cells: Vec<explore::Cell>,
}

// One value per run: the variants' size difference costs nothing.
#[allow(clippy::large_enum_variant)]
enum ServeInputs {
    Distinct(serve::Distinct),
    /// admit-fleet's pool, or the companion serve probe's.
    Fleet(serve::Fleet),
}

impl ServeInputs {
    /// The requests the per-layer calls run on, each with its line.
    fn layer_inputs(&self) -> Vec<(&gen::Request, String)> {
        match self {
            ServeInputs::Distinct(d) => d.requests.iter().zip(d.lines.iter().cloned()).collect(),
            ServeInputs::Fleet(f) => f
                .pool
                .iter()
                .enumerate()
                .map(|(k, r)| (r, r.line(&format!("layer-{k:03}"))))
                .collect(),
        }
    }
}

/// Input generation, zoo build, admission of the simulated sets and the
/// fleet's warm-up pass. The workload's own inputs come from `seed`;
/// the companion probes' from [`COMPANION_SEED`].
fn setup(w: Workload, seed: u64) -> Prepared {
    std::hint::black_box(zoo::all());
    // The service builds its zoo table on first use; pay that here.
    Service::new().answer_line(r#"{"tasks":[{"name":"c","model":"micro-mlp","period_us":10000}]}"#);
    let serve = match w {
        Workload::AdmitDistinct => ServeInputs::Distinct(serve::prepare_distinct(seed)),
        Workload::AdmitFleet => ServeInputs::Fleet(serve::prepare_fleet(seed, FLEET_POOL)),
        _ => ServeInputs::Fleet(serve::prepare_fleet(COMPANION_SEED, COMPANION_POOL)),
    };
    let sim = match w {
        Workload::SimMultidnn => sim::prepare(seed, SIM_MIXES, SIM_HORIZON_US),
        _ => sim::prepare(COMPANION_SEED, COMPANION_MIXES, COMPANION_HORIZON_US),
    };
    let cells = explore::prepare(seed, w == Workload::ExploreScale);
    Prepared { serve, sim, cells }
}

/// One measurement pass over the prepared inputs.
struct Measured {
    serve: serve::ServeRun,
    sim: sim::SimRun,
    explore: explore::ExploreRun,
}

impl Measured {
    fn end_to_end(&self, setup_s: f64, m: &mut Metrics) {
        m.put("setup_s", setup_s, "s");
        self.serve.metrics(m);
        m.put("peak_rss_mb", peak_rss_mb(), "MB");
        self.sim.metrics(m);
        self.explore.metrics(m);
    }

    fn tally(self, into: &mut Tally) {
        into.absorb(self.serve.tally);
        into.absorb(self.sim.tally);
        into.absorb(self.explore.tally);
    }
}

/// The workload measures for most of `seconds`, the companion probes
/// for the rest. All three advance in [`CYCLES`] interleaved slices, so
/// every metric samples the host across the whole run rather than in
/// one stretch of it.
fn measure(w: Workload, p: &Prepared, seconds: f64, mut tracer: Option<&mut Tracer>) -> Measured {
    let slice = seconds / CYCLES as f64;
    let budget = |home: bool| {
        slice
            * if home {
                WORKLOAD_SHARE
            } else {
                (1.0 - WORKLOAD_SHARE) / 2.0
            }
    };
    let serve_s = budget(matches!(w, Workload::AdmitDistinct | Workload::AdmitFleet));
    let sim_s = budget(w == Workload::SimMultidnn);
    let explore_s = budget(w == Workload::ExploreScale);
    let t = &mut tracer;
    let mut serve = match &p.serve {
        ServeInputs::Distinct(d) => ServePhase::Distinct(serve::DistinctPhase::new(d)),
        ServeInputs::Fleet(f) => ServePhase::Fleet(serve::FleetPhase::new(f)),
    };
    let mut sim = sim::SimPhase::new(&p.sim);
    let mut explore = explore::ExplorePhase::new(&p.cells);
    // A step ends after the unit (line, round, cell) that crosses its
    // budget, so a phase can overrun a slice by up to one unit (an
    // explore-scale cell can take most of a second); each phase carries
    // what it owes into its next slice and keeps to its share of the run.
    let mut owed = [0.0f64; 3];
    for _ in 0..CYCLES {
        for (k, share) in [serve_s, sim_s, explore_s].into_iter().enumerate() {
            owed[k] += share;
            if owed[k] <= 0.0 {
                continue;
            }
            let started = Instant::now();
            match k {
                0 => match &mut serve {
                    ServePhase::Distinct(d) => d.step(owed[k], t),
                    ServePhase::Fleet(f) => f.step(owed[k], t),
                },
                1 => sim.step(owed[k], t),
                _ => explore.step(owed[k], t),
            }
            owed[k] -= started.elapsed().as_secs_f64();
        }
    }
    Measured {
        serve: match serve {
            ServePhase::Distinct(d) => d.finish(t),
            ServePhase::Fleet(f) => f.finish(),
        },
        sim: sim.finish(),
        explore: explore.finish(t),
    }
}

#[allow(clippy::large_enum_variant)]
enum ServePhase<'a> {
    Distinct(serve::DistinctPhase<'a>),
    Fleet(serve::FleetPhase<'a>),
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let w = args.workload;

    let mut setup_times = Vec::new();
    let mut prepared = None;
    let started = Instant::now();
    while setup_times.len() < SETUP_MIN_REPS
        || (started.elapsed().as_secs_f64() < SETUP_MIN_S && setup_times.len() < SETUP_MAX_REPS)
    {
        drop(prepared.take());
        let start = Instant::now();
        prepared = Some(setup(w, args.seed));
        setup_times.push(start.elapsed().as_secs_f64());
    }
    let p = prepared.expect("at least one set-up");
    let setup_s = median(&setup_times);

    if args.pin {
        let mut phase = sim::SimPhase::new(&p.sim);
        phase.step(0.0, &mut None);
        let r = phase.finish();
        println!("{}", sim::digest_line(&p.sim, &r));
        print!("{}", explore::reference_lines(&p.cells));
        return;
    }

    let mut tally = Tally::default();
    let untraced = measure(w, &p, args.seconds, None);
    let mut e2e = Metrics::default();
    untraced.end_to_end(setup_s, &mut e2e);
    untraced.tally(&mut tally);

    let metrics = if args.trace {
        let mut tracer = Tracer::new();
        let traced = measure(w, &p, args.seconds, Some(&mut tracer));
        let mut traced_e2e = Metrics::default();
        traced.end_to_end(setup_s, &mut traced_e2e);
        for (name, value, unit) in &e2e.0 {
            let delta = traced_e2e.get(name).unwrap_or(0.0) - value;
            println!("trace overhead {name}: {delta:+.4} {unit} (traced − untraced)");
        }
        let mut layers = Metrics::default();
        let inputs = p.serve.layer_inputs();
        serve::layers(&inputs, &traced.serve, &mut tracer, &mut layers);
        traced.sim.layers(&mut layers);
        traced.explore.layers(&mut layers);
        explore::snapshot_layers(&p.cells, &mut tracer, &mut layers);
        traced.tally(&mut tally);
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-seed{}.jsonl", w.name(), args.seed));
        match tracer.write(&path) {
            Ok(()) => println!("spans: {} written to {}", tracer.len(), path.display()),
            Err(e) => eprintln!("perfbench: could not write spans: {e}"),
        }
        layers
    } else {
        e2e
    };

    println!(
        "workload {} seed {} seconds {}",
        w.name(),
        args.seed,
        args.seconds
    );
    for (name, value, unit) in &metrics.0 {
        println!("  {name} = {value:.6} {unit}");
    }
    println!(
        "  attempted = {}, failed = {} ({} documented findings)",
        tally.attempted(),
        tally.failed(),
        tally.known()
    );
    for note in &tally.notes {
        println!("  failure: {note}");
    }
    println!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {}}}"#,
        tally.correct(),
        tally.attempted(),
        tally.failed(),
        metrics.to_json()
    );
}
