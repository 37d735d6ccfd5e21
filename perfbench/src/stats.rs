//! Sample statistics, the process's peak memory, and the result record.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Nearest-rank percentile (`pct` in `0..=100`) of unsorted samples.
pub fn percentile(samples: &[f64], pct: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The least of an input's repeated timings: its time when the host
/// left it alone. A shared host's speed moves by up to 2× over seconds
/// to minutes as other tenants load it, and noise only ever slows a
/// repetition down, so the fastest one is the steadiest reading of the
/// program's own speed.
pub fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a over a canonical text rendering: the pinned digests.
pub fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// The outcome of one operation, worst first when merged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Outcome {
    Passed,
    /// A failure the benchmark's docs list as a known finding of the
    /// program (still counted as failed).
    Known,
    Failed,
}

/// A stable name of one operation: its kind and its index among the
/// generated inputs of that kind (a request line, a pool member, a mix,
/// a cell).
pub type OpId = (&'static str, usize);

/// Operations attempted and failed, plus what went wrong.
///
/// An operation is one generated input, not one timed repetition of
/// it: a line answered in every round, or a pool member asked many
/// times, is one operation that fails if any of its checks fails. So
/// `attempted` and `failed` depend on the seed only, never on how many
/// repetitions the host's speed allowed in `--seconds`.
#[derive(Debug, Default)]
pub struct Tally {
    ops: BTreeMap<OpId, Outcome>,
    /// One line per failure, for the report.
    pub notes: Vec<String>,
}

impl Tally {
    fn record(&mut self, id: OpId, outcome: Outcome, note: Option<String>) {
        let slot = self.ops.entry(id).or_insert(Outcome::Passed);
        *slot = (*slot).max(outcome);
        if let Some(note) = note {
            if self.notes.len() < 20 {
                self.notes.push(note);
            }
        }
    }

    /// Records one check of operation `id`; `Err` is a failure
    /// described by the note.
    pub fn op(&mut self, id: OpId, outcome: Result<(), String>) {
        match outcome {
            Ok(()) => self.record(id, Outcome::Passed, None),
            Err(note) => self.record(id, Outcome::Failed, Some(note)),
        }
    }

    /// Records a failure of `id` that is a documented finding of the
    /// program.
    pub fn known_failure(&mut self, id: OpId, note: String) {
        self.record(id, Outcome::Known, Some(note));
    }

    pub fn absorb(&mut self, other: Tally) {
        for (id, outcome) in other.ops {
            self.record(id, outcome, None);
        }
        for note in other.notes {
            if self.notes.len() < 20 && !self.notes.contains(&note) {
                self.notes.push(note);
            }
        }
    }

    pub fn attempted(&self) -> usize {
        self.ops.len()
    }

    pub fn failed(&self) -> usize {
        self.ops.values().filter(|o| **o != Outcome::Passed).count()
    }

    /// Failed operations that are documented findings.
    pub fn known(&self) -> usize {
        self.ops.values().filter(|o| **o == Outcome::Known).count()
    }

    /// Whether every failure is a documented finding.
    pub fn correct(&self) -> bool {
        !self.ops.values().any(|o| *o == Outcome::Failed)
    }
}

/// Named metrics with units, in report order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_owned(), value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// The `metrics` object of the result line.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(out, r#""{name}": {{"value": {value:?}, "unit": "{unit}"}}"#);
        }
        out.push('}');
        out
    }
}
