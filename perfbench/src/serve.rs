//! The `serve` workloads: admission queries answered through
//! `Service::answer_line`, one client, closed loop.

use std::time::Instant;

use rtmdm_core::{CacheStats, Service, SystemSpec};
use rtmdm_dnn::zoo;
use rtmdm_sched::analysis::canonical_key;
use rtmdm_xmem::segment_model;
use serde::{Content, Serialize};

use crate::gen::{self, FleetLine, FleetStream, Request};
use crate::stats::{fastest, median, percentile, Metrics, Tally};
use crate::trace::{timed, Tracer};

/// Latency samples of one serve phase plus the cache telemetry.
#[derive(Debug, Default)]
pub struct ServeRun {
    pub latency_us: Vec<f64>,
    pub stats: CacheStats,
    /// Lines answered with an error record.
    pub malformed: u64,
    pub tally: Tally,
}

impl ServeRun {
    /// Share of answered lines the service had to evaluate (well formed
    /// and not an answer-cache hit): the lines on which it runs the
    /// lowering, key building, admission and check layers.
    fn cold_share(&self) -> f64 {
        let q = self.stats.queries.max(1);
        q.saturating_sub(self.stats.answers_reused + self.malformed) as f64 / q as f64
    }

    /// The end-to-end serve metrics over every answer time of the run
    /// (admit-distinct: every line's fastest answer).
    pub fn metrics(&self, m: &mut Metrics) {
        let lat = &self.latency_us;
        m.put(
            "queries_per_s",
            lat.len() as f64 * 1e6 / lat.iter().sum::<f64>(),
            "1/s",
        );
        for (name, pct) in [
            ("latency_p50_us", 50.0),
            ("latency_p95_us", 95.0),
            ("latency_p99_us", 99.0),
        ] {
            m.put(name, percentile(lat, pct), "us");
        }
    }
}

/// Parses a response line; `Err` when it is not a JSON object.
fn parse(response: &str) -> Result<Content, String> {
    match serde_json::from_str::<Content>(response) {
        Ok(doc @ Content::Map(_)) => Ok(doc),
        Ok(_) => Err("response is not a JSON object".to_owned()),
        Err(e) => Err(format!("response is not valid JSON: {e}")),
    }
}

fn field_u64(doc: &Content, key: &str) -> Option<u64> {
    match doc.get(key) {
        Some(Content::U64(n)) => Some(*n),
        _ => None,
    }
}

/// Checks a well-formed request's response against an independent
/// `RtMdm::admit` of the same request. `Ok(false)` is a pass; a known
/// finding (the hostile buffer admitted with an SRAM plan that cannot
/// exist) is reported as `Ok(true)`.
fn check_answer(req: &Request, response: &str) -> Result<bool, String> {
    let doc = parse(response)?;
    if doc.get("ok") != Some(&Content::Bool(true)) {
        return Err(format!("well-formed request answered ok:false: {response}"));
    }
    let verdict = match doc.get("verdict") {
        Some(Content::Str(v)) => v.clone(),
        _ => return Err("response has no verdict".to_owned()),
    };
    let occupancy = field_u64(&doc, "occupancy_ppm");
    let direct = req
        .framework(req.opts.framework())
        .and_then(|fw| fw.admit());
    let (want_verdict, want_occupancy) = match &direct {
        Ok(a) => (
            if a.schedulable() { "admit" } else { "reject" },
            a.occupancy_ppm,
        ),
        Err(_) => ("reject", 0),
    };
    if verdict != want_verdict || occupancy != Some(want_occupancy) {
        return Err(format!(
            "service says {verdict}/{occupancy:?}, RtMdm::admit says {want_verdict}/{want_occupancy}"
        ));
    }
    if let (Ok(a), "admit") = (&direct, verdict.as_str()) {
        let sram = a.sram.iter().try_fold(0u64, |acc, r| {
            acc.checked_add(r.activation_bytes)?
                .checked_add(r.weight_bytes)
        });
        let limit = req.platform().sram_bytes;
        if sram.is_none_or(|s| s > limit) {
            let note = format!(
                "admitted an SRAM plan of {} bytes on a {limit}-byte part",
                sram.map_or("more than 2^64".to_owned(), |s| s.to_string())
            );
            return if req.is_hostile() {
                Ok(true)
            } else {
                Err(note)
            };
        }
    }
    Ok(false)
}

// ---------------------------------------------------------------------
// admit-distinct
// ---------------------------------------------------------------------

/// Requests per admit-distinct round (≈4 s of cold queries, so a run
/// answers every line several times).
pub const DISTINCT_LINES: usize = 160;
/// Operation kind of an admit-distinct line: its answer is checked
/// once and every later round's answer against it.
const DISTINCT_OP: &str = "admit-distinct line";
/// Operation kind of a fleet pool member: every stream line drawn from
/// it (asked warm, or malformed) plus its cold-answer checks.
const FLEET_OP: &str = "fleet pool member";

pub struct Distinct {
    pub requests: Vec<Request>,
    pub lines: Vec<String>,
}

pub fn prepare_distinct(seed: u64) -> Distinct {
    let requests = gen::distinct_stream(seed, DISTINCT_LINES);
    let lines = requests
        .iter()
        .enumerate()
        .map(|(i, r)| r.line(&format!("q{i:04}")))
        .collect();
    Distinct { requests, lines }
}

/// The admit-distinct measurement: the lines answered in rounds,
/// one fresh service per round, so every round starts cold, the answer
/// cache never hits, and the peak memory is that of one round. The
/// phase advances in slices ([`DistinctPhase::step`]) interleaved with
/// the companion probes.
pub struct DistinctPhase<'a> {
    d: &'a Distinct,
    /// Every answer time of each line, in µs.
    reps: Vec<Vec<f64>>,
    service: Service,
    next: usize,
    round: Vec<String>,
    first: Option<Vec<String>>,
    run: ServeRun,
}

impl<'a> DistinctPhase<'a> {
    pub fn new(d: &'a Distinct) -> DistinctPhase<'a> {
        DistinctPhase {
            d,
            reps: vec![Vec::new(); d.lines.len()],
            service: Service::new(),
            next: 0,
            round: Vec::new(),
            first: None,
            run: ServeRun::default(),
        }
    }

    /// Answers the next line, closing the round after the last one.
    fn answer_next(&mut self, tracer: &mut Option<&mut Tracer>) {
        let i = self.next;
        let service = &self.service;
        let line = &self.d.lines[i];
        let (out, us) = timed(tracer, "serve.answer", None, i as u64, || {
            service.answer_line(line)
        });
        self.reps[i].push(us);
        self.round.push(out);
        self.next += 1;
        if self.next < self.d.lines.len() {
            return;
        }
        let round = std::mem::take(&mut self.round);
        match &self.first {
            None => {
                self.run.stats = self.service.stats();
                self.first = Some(round);
            }
            Some(first) => {
                for (i, (a, b)) in first.iter().zip(&round).enumerate() {
                    self.run.tally.op(
                        (DISTINCT_OP, i),
                        if a == b {
                            Ok(())
                        } else {
                            Err(format!("line {i}: a later cold round answered differently"))
                        },
                    );
                }
            }
        }
        self.service = Service::new();
        self.next = 0;
    }

    /// Answers lines for `seconds` (at least one).
    pub fn step(&mut self, seconds: f64, tracer: &mut Option<&mut Tracer>) {
        let started = Instant::now();
        loop {
            self.answer_next(tracer);
            if started.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
    }

    /// Completes the first round if the slices did not, reduces each
    /// line to its fastest answer (see [`fastest`]; rounds are seconds
    /// apart), and checks every answer of the first round.
    pub fn finish(mut self, tracer: &mut Option<&mut Tracer>) -> ServeRun {
        while self.first.is_none() {
            self.answer_next(tracer);
        }
        self.run.latency_us = self.reps.iter().map(|r| fastest(r)).collect();
        let responses = self.first.take().expect("completed above");
        for (i, (req, response)) in self.d.requests.iter().zip(&responses).enumerate() {
            let id = (DISTINCT_OP, i);
            match check_answer(req, response) {
                Ok(true) => self.run.tally.known_failure(
                    id,
                    format!(
                        "line {i}: buffer_bytes=2^64-1 admitted unsoundly: {}",
                        &response[..response.len().min(160)]
                    ),
                ),
                Ok(false) => self.run.tally.op(id, Ok(())),
                Err(e) => self.run.tally.op(id, Err(format!("line {i}: {e}"))),
            }
        }
        self.run
    }
}

// ---------------------------------------------------------------------
// admit-fleet
// ---------------------------------------------------------------------

pub struct Fleet {
    pub seed: u64,
    pub pool: Vec<Request>,
    /// The warmed service the timed phase queries.
    pub service: Service,
    /// Each pool member's cold answer, as the warm-up pass produced it
    /// (under the id [`warm_id`]).
    pub cold: Vec<String>,
}

fn warm_id(k: usize) -> String {
    format!("warm-{k:03}")
}

/// Builds the pool and answers every member once, so the timed phase
/// sees only the warm path.
pub fn prepare_fleet(seed: u64, pool_size: usize) -> Fleet {
    let pool = gen::fleet_pool(seed, pool_size);
    let service = Service::new();
    let cold = pool
        .iter()
        .enumerate()
        .map(|(k, r)| service.answer_line(&r.line(&warm_id(k))))
        .collect();
    Fleet {
        seed,
        pool,
        service,
        cold,
    }
}

/// The cold answer of pool member `config` re-addressed to `id`.
fn expected(f: &Fleet, config: usize, id: &str) -> String {
    f.cold[config].replacen(
        &format!(r#""id":"{}""#, warm_id(config)),
        &format!(r#""id":"{id}""#),
        1,
    )
}

fn check_fleet_line(f: &Fleet, line: &FleetLine, response: &str) -> Result<(), String> {
    match line {
        FleetLine::Ask { config, id, .. } => {
            if response == expected(f, *config, id) {
                Ok(())
            } else {
                Err(format!("warm answer differs from the cold one: {response}"))
            }
        }
        FleetLine::Malformed { .. } => {
            let doc = parse(response)?;
            if doc.get("ok") == Some(&Content::Bool(false)) {
                Ok(())
            } else {
                Err(format!("malformed line answered ok:true: {response}"))
            }
        }
    }
}

/// The fleet measurement: warm lines streamed through the warmed
/// service, each answer checked byte for byte outside the timed call.
pub struct FleetPhase<'a> {
    f: &'a Fleet,
    stream: FleetStream,
    before: CacheStats,
    run: ServeRun,
}

impl<'a> FleetPhase<'a> {
    pub fn new(f: &'a Fleet) -> FleetPhase<'a> {
        FleetPhase {
            f,
            stream: FleetStream::new(f.seed, f.pool.len()),
            before: f.service.stats(),
            run: ServeRun::default(),
        }
    }

    /// Answers lines for `seconds` (at least one).
    pub fn step(&mut self, seconds: f64, tracer: &mut Option<&mut Tracer>) {
        let f = self.f;
        let started = Instant::now();
        loop {
            let line = self.stream.next(&f.pool);
            let i = self.run.latency_us.len() as u64;
            let (response, us) = timed(tracer, "serve.answer", None, i, || {
                f.service.answer_line(line.text())
            });
            self.run.latency_us.push(us);
            self.run.malformed += u64::from(matches!(line, FleetLine::Malformed { .. }));
            self.run.tally.op(
                (FLEET_OP, line.config()),
                check_fleet_line(f, &line, &response),
            );
            if started.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
    }

    /// Checks each cold answer against a fresh service's and an
    /// independent `RtMdm::admit` of the pool member.
    pub fn finish(mut self) -> ServeRun {
        let (f, before) = (self.f, self.before);
        let after = f.service.stats();
        self.run.stats = CacheStats {
            queries: after.queries - before.queries,
            answers_reused: after.answers_reused - before.answers_reused,
            lowerings_reused: after.lowerings_reused - before.lowerings_reused,
            analyses_reused: after.analyses_reused - before.analyses_reused,
            headrooms_reused: after.headrooms_reused - before.headrooms_reused,
        };
        for (k, req) in f.pool.iter().enumerate() {
            // One fresh service per member keeps the check's memory out
            // of the run's peak.
            let again = Service::new().answer_line(&req.line(&warm_id(k)));
            self.run.tally.op(
                (FLEET_OP, k),
                if again == f.cold[k] {
                    Ok(())
                } else {
                    Err(format!("pool member {k}: fresh services disagree"))
                },
            );
            self.run.tally.op(
                (FLEET_OP, k),
                match check_answer(req, &f.cold[k]) {
                    Ok(false) => Ok(()),
                    Ok(true) => Err(format!("pool member {k}: unsound SRAM plan admitted")),
                    Err(e) => Err(format!("pool member {k}: {e}")),
                },
            );
        }
        self.run
    }
}

// ---------------------------------------------------------------------
// Per-layer calls (traced run only)
// ---------------------------------------------------------------------

/// Times the public calls the service composes, on the given requests
/// (each with its wire line), one span per call under one root span per
/// request, and reports the serve-path per-layer metrics.
pub fn layers(inputs: &[(&Request, String)], run: &ServeRun, tracer: &mut Tracer, m: &mut Metrics) {
    let mut parse_us = Vec::new();
    let mut key_us = Vec::new();
    let mut key_bytes = Vec::new();
    let mut build_us = Vec::new();
    let mut segment_us = Vec::new();
    let mut admit_us = Vec::new();
    let mut check_us = Vec::new();
    for (i, (req, line)) in inputs.iter().enumerate() {
        let request = i as u64;
        let root = tracer.open("perfbench.request", None, request);
        let mut t = Some(&mut *tracer);
        let (_, us) = timed(&mut t, "serde_json.parse", Some(root), request, || {
            serde_json::from_str::<Content>(line.trim()).is_ok()
        });
        parse_us.push(us);

        let platform = req.platform();
        let options = req.opts.framework();
        let specs = req.specs();
        let (bytes, us) = timed(&mut t, "analysis.key", Some(root), request, || {
            specs
                .iter()
                .map(|spec| {
                    let doc = Content::Map(vec![
                        ("options".to_owned(), options.to_content()),
                        ("platform".to_owned(), platform.to_content()),
                        ("spec".to_owned(), spec.to_content()),
                    ]);
                    canonical_key("lower", &doc).len()
                })
                .sum::<usize>()
        });
        key_us.push(us);
        key_bytes.push(bytes as f64);

        let (_, us) = timed(&mut t, "dnn.model_build", Some(root), request, || {
            req.tasks
                .iter()
                .filter(|task| zoo::by_name(task.model).is_some())
                .count()
        });
        build_us.push(us);

        let (_, us) = timed(&mut t, "xmem.segment", Some(root), request, || {
            specs
                .iter()
                .filter(|s| {
                    segment_model(&s.model, &options.cost_model, s.resolved_buffer_bytes()).is_ok()
                })
                .count()
        });
        segment_us.push(us);

        let (_, us) = timed(&mut t, "framework.admit", Some(root), request, || {
            req.framework(options.clone())
                .and_then(|fw| fw.admit())
                .is_ok()
        });
        admit_us.push(us);

        let (_, us) = timed(&mut t, "check.static", Some(root), request, || {
            let mut sys = SystemSpec::with_options(platform.clone(), options.clone());
            for spec in &specs {
                sys.push(spec.clone());
            }
            sys.check().findings.len()
        });
        check_us.push(us);
        tracer.close(root);
    }
    let answer = median(&run.latency_us);
    let key = median(&key_us);
    // Every line is parsed; only the cold ones reach the other layers.
    let cold = run.cold_share();
    m.put("serve.answer_us", answer, "us");
    m.put("serde_json.parse_us", median(&parse_us), "us");
    m.put("analysis.key_us", key, "us");
    m.put("analysis.key_bytes", median(&key_bytes), "bytes");
    m.put("analysis.key_share", cold * key / answer, "ratio");
    m.put("dnn.model_build_us", median(&build_us), "us");
    m.put("xmem.segment_us", median(&segment_us), "us");
    m.put("framework.admit_us", median(&admit_us), "us");
    m.put("check.static_us", median(&check_us), "us");
    let covered = median(&parse_us) + cold * (key + median(&admit_us) + median(&check_us));
    m.put("serve.coverage", covered / answer, "ratio");
    let q = run.stats.queries.max(1) as f64;
    m.put(
        "serve.answer_hits_per_query",
        run.stats.answers_reused as f64 / q,
        "ratio",
    );
    m.put(
        "serve.lowering_hits_per_query",
        run.stats.lowerings_reused as f64 / q,
        "ratio",
    );
    m.put(
        "serve.analysis_hits_per_query",
        run.stats.analyses_reused as f64 / q,
        "ratio",
    );
    m.put(
        "serve.headroom_hits_per_query",
        run.stats.headrooms_reused as f64 / q,
        "ratio",
    );
}
