//! Figure F15 — admission-service throughput over a synthetic fleet.
//!
//! A fleet deployment asks the admission service the same questions
//! over and over: thousands of devices share a handful of distinct
//! (platform, task mix, options) configurations, differing only in
//! their request ids. This experiment builds a ≥100 k-query fleet over
//! a small distinct-configuration pool and measures queries/second
//! **cold** (a fresh [`Service`] per query — every answer computed from
//! scratch) against **warm** (one shared service answering the whole
//! fleet through its content-addressed answer cache).
//!
//! The deterministic per-configuration table (verdict, occupancy,
//! headroom, and the warm-equals-cold byte-identity gate) lands in
//! `results/f15_fleet.txt`; the wall-clock rates are nondeterministic
//! and go to `BENCH_run_all.json` via [`FleetComparison`], never into
//! the byte-pinned table.

use std::sync::OnceLock;
use std::time::Instant;

use rtmdm_core::{report, Service};
use serde::Content;

use crate::telemetry::FleetComparison;

/// Total queries in the synthetic fleet.
const FLEET_SIZE: usize = 100_000;

/// One distinct device configuration of the pool.
struct Config {
    label: &'static str,
    platform: &'static str,
    options: &'static str,
    tasks: &'static str,
}

/// The distinct-configuration pool: platforms × task mixes × analysis
/// options that exercise every admission path (admit, analysis reject,
/// memory reject, EDF, ablations).
fn pool() -> Vec<Config> {
    let c = |label, platform, options, tasks| Config {
        label,
        platform,
        options,
        tasks,
    };
    vec![
        c(
            "f746/kws",
            "stm32f746-qspi",
            "{}",
            r#"[{"name":"kws","model":"ds-cnn","period_us":100000}]"#,
        ),
        c(
            "f746/kws+ic",
            "stm32f746-qspi",
            "{}",
            r#"[{"name":"kws","model":"ds-cnn","period_us":100000},{"name":"ic","model":"resnet8","period_us":400000}]"#,
        ),
        c(
            "f746/ctl+kws+ic",
            "stm32f746-qspi",
            "{}",
            r#"[{"name":"ctl","model":"micro-mlp","period_us":10000},{"name":"kws","model":"ds-cnn","period_us":100000},{"name":"ic","model":"resnet8","period_us":400000}]"#,
        ),
        c(
            "f746/vww",
            "stm32f746-qspi",
            "{}",
            r#"[{"name":"vww","model":"mobilenet-v1-025","period_us":500000}]"#,
        ),
        c(
            "f746/ae-tight",
            "stm32f746-qspi",
            "{}",
            r#"[{"name":"ae","model":"autoencoder","period_us":4000}]"#,
        ),
        c(
            "f746/kws+ic/edf",
            "stm32f746-qspi",
            r#"{"policy":"edf"}"#,
            r#"[{"name":"kws","model":"ds-cnn","period_us":100000},{"name":"ic","model":"resnet8","period_us":400000}]"#,
        ),
        c(
            "f746/kws+ic/wc",
            "stm32f746-qspi",
            r#"{"work_conserving":true}"#,
            r#"[{"name":"kws","model":"ds-cnn","period_us":100000},{"name":"ic","model":"resnet8","period_us":400000}]"#,
        ),
        c(
            "f746/ae/oblivious",
            "stm32f746-qspi",
            r#"{"dma_aware_analysis":false}"#,
            r#"[{"name":"ae","model":"autoencoder","period_us":4000}]"#,
        ),
        c(
            "f746/kws/whole-dnn",
            "stm32f746-qspi",
            r#"{"force_strategy":"whole-dnn"}"#,
            r#"[{"name":"kws","model":"ds-cnn","period_us":100000}]"#,
        ),
        c(
            "f746/vww-small-buf",
            "stm32f746-qspi",
            "{}",
            r#"[{"name":"vww","model":"mobilenet-v1-025","period_us":500000,"buffer_bytes":4096}]"#,
        ),
        c(
            "h743/kws+ic+ae",
            "stm32h743-ospi",
            "{}",
            r#"[{"name":"kws","model":"ds-cnn","period_us":100000},{"name":"ic","model":"resnet8","period_us":400000},{"name":"ae","model":"autoencoder","period_us":400000}]"#,
        ),
        c(
            "h743/vww+lenet",
            "stm32h743-ospi",
            "{}",
            r#"[{"name":"vww","model":"mobilenet-v1-025","period_us":500000},{"name":"ocr","model":"lenet5","period_us":200000}]"#,
        ),
        c(
            "m4/ctl",
            "cortex-m4-lowend",
            "{}",
            r#"[{"name":"ctl","model":"micro-mlp","period_us":10000}]"#,
        ),
        c(
            "m4/kws",
            "cortex-m4-lowend",
            "{}",
            r#"[{"name":"kws","model":"ds-cnn","period_us":100000}]"#,
        ),
        c(
            "m4/kws-fast",
            "cortex-m4-lowend",
            "{}",
            r#"[{"name":"kws","model":"ds-cnn","period_us":40000}]"#,
        ),
        c(
            "sram/kws+ic",
            "ideal-sram",
            "{}",
            r#"[{"name":"kws","model":"ds-cnn","period_us":100000},{"name":"ic","model":"resnet8","period_us":400000}]"#,
        ),
    ]
}

/// Renders the request line of fleet member `i` (configuration
/// `i % pool`, device-unique id).
fn request_line(configs: &[Config], i: usize) -> String {
    let c = &configs[i % configs.len()];
    format!(
        r#"{{"id":"dev-{i:06}","platform":"{}","options":{},"tasks":{}}}"#,
        c.platform, c.options, c.tasks
    )
}

/// Extracts a field of an answer line for the table (the answers are
/// the service's own canonical JSON; a missing field renders as `?`
/// and would fail the identity gate anyway).
fn field(answer: &str, key: &str) -> String {
    let doc: Content = match serde_json::from_str(answer) {
        Ok(doc) => doc,
        Err(_) => return "?".to_owned(),
    };
    match doc.get(key) {
        Some(Content::Str(s)) => s.clone(),
        Some(Content::U64(n)) => n.to_string(),
        Some(Content::Bool(b)) => b.to_string(),
        _ => "?".to_owned(),
    }
}

/// Everything the probe produces: the deterministic table and the
/// wall-clock comparison. Computed once; `f15_fleet` and
/// `fleet_comparison` share the result so `run_all` times the fleet
/// exactly once.
struct FleetProbe {
    table: String,
    comparison: FleetComparison,
}

fn run_probe() -> FleetProbe {
    let configs = pool();
    let lines: Vec<String> = (0..FLEET_SIZE).map(|i| request_line(&configs, i)).collect();

    // Cold: a fresh service per query, so nothing is ever reused. One
    // query per distinct configuration is enough of a sample — cold
    // cost is per-configuration, not per-device.
    let cold_sample = configs.len();
    let cold_start = Instant::now();
    let cold: Vec<String> = lines[..cold_sample]
        .iter()
        .map(|line| Service::new().answer_line(line))
        .collect();
    let cold_wall = cold_start.elapsed().as_secs_f64();

    // Warm: one shared service answers the whole fleet as a sharded
    // batch; after the first pool cycle every query is a full-response
    // cache hit.
    let service = Service::new();
    let warm_start = Instant::now();
    let warm = service.answer_batch(lines);
    let warm_wall = warm_start.elapsed().as_secs_f64();

    // The correctness gate: warm answers must be byte-identical to the
    // cold, cache-free answers of the same request lines.
    let identical = cold == warm[..cold_sample];

    let qps = |queries: usize, wall: f64| {
        if wall > 1e-9 {
            queries as f64 / wall
        } else {
            0.0
        }
    };
    let cold_qps = qps(cold_sample, cold_wall);
    let warm_qps = qps(FLEET_SIZE, warm_wall);
    let comparison = FleetComparison {
        fleet_size: FLEET_SIZE as u64,
        distinct_configs: configs.len() as u64,
        cold_sample: cold_sample as u64,
        cold_queries_per_second: cold_qps,
        warm_queries_per_second: warm_qps,
        speedup: if cold_qps > 0.0 {
            warm_qps / cold_qps
        } else {
            0.0
        },
        identical,
    };

    let rows: Vec<Vec<String>> = configs
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let warm_answer = &warm[i];
            vec![
                c.label.to_owned(),
                c.platform.to_owned(),
                field(warm_answer, "verdict"),
                field(warm_answer, "occupancy_ppm"),
                field(warm_answer, "headroom_ppm"),
                if cold[i] == *warm_answer { "yes" } else { "NO" }.to_owned(),
            ]
        })
        .collect();
    let mut table = report::table(
        &[
            "config",
            "platform",
            "verdict",
            "occupancy-ppm",
            "headroom-ppm",
            "warm==cold",
        ],
        &rows,
    );
    table.push_str(&format!(
        "\nfleet: {} queries over {} distinct configs; every response above \
         answered identically with and without the cache\n",
        FLEET_SIZE,
        configs.len()
    ));
    FleetProbe { table, comparison }
}

fn probe() -> &'static FleetProbe {
    static PROBE: OnceLock<FleetProbe> = OnceLock::new();
    PROBE.get_or_init(run_probe)
}

/// F15 — the deterministic fleet table (`results/f15_fleet.txt`).
pub fn f15_fleet() -> String {
    probe().table.clone()
}

/// The wall-clock cold-versus-warm throughput record for
/// `BENCH_run_all.json`. Shares one probe run with [`f15_fleet`].
pub fn fleet_comparison() -> FleetComparison {
    probe().comparison.clone()
}
