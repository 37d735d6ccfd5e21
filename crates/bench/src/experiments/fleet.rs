//! Figure F15 — the admission service over a synthetic fleet.
//!
//! A fleet deployment asks the admission service the same questions
//! over and over: thousands of devices share a handful of distinct
//! (platform, task mix, options) configurations, differing only in
//! their request ids. This experiment answers a 100 k-query fleet over
//! a small distinct-configuration pool through one shared [`Service`],
//! so after the first pool cycle every query is an answer-cache hit.
//!
//! The table (`results/f15_fleet.txt`) lists each configuration's
//! verdict, occupancy and headroom, plus the warm-equals-cold gate:
//! the cached answers of the last pool cycle must be byte-identical to
//! the answers a fresh, cache-free service gives the same request
//! lines. Service throughput is measured by the `perfbench` benchmark,
//! never here.

use rtmdm_core::{report, Service};
use serde::Content;

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

/// F15 — the fleet table (`results/f15_fleet.txt`).
pub fn f15_fleet() -> String {
    let configs = pool();
    assert_eq!(
        FLEET_SIZE % configs.len(),
        0,
        "the last pool cycle must start at the first configuration"
    );
    let lines: Vec<String> = (0..FLEET_SIZE).map(|i| request_line(&configs, i)).collect();
    let last_cycle = FLEET_SIZE - configs.len();

    // Cold: a fresh service per query, so nothing is ever reused.
    let cold: Vec<String> = lines[last_cycle..]
        .iter()
        .map(|line| Service::new().answer_line(line))
        .collect();

    // Warm: one shared service answers the whole fleet as a sharded
    // batch; by the last pool cycle every query is a cache hit.
    let warm = Service::new().answer_batch(lines);

    let rows: Vec<Vec<String>> = configs
        .iter()
        .zip(&cold)
        .zip(&warm[last_cycle..])
        .map(|((c, fresh), hit)| {
            vec![
                c.label.to_owned(),
                c.platform.to_owned(),
                field(hit, "verdict"),
                field(hit, "occupancy_ppm"),
                field(hit, "headroom_ppm"),
                if hit == fresh { "yes" } else { "NO" }.to_owned(),
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
    table
}
