//! Figures F1 (strategy latency), F4 (SRAM-budget sweep), and F5
//! (bandwidth sweep).
//!
//! Each figure expands its per-row configurations into cells for
//! [`par_map_seeded`]; rows come back in input order, so the table is
//! byte-identical to the serial loop.

use rtmdm_core::{report, RtMdm, TaskSpec};
use rtmdm_dnn::{zoo, CostModel};
use rtmdm_mcusim::{Cycles, ExtMemConfig, ExtMemKind};
use rtmdm_xmem::{pipeline, segment_model, ExecutionStrategy};

use rtmdm_par::par_map_seeded;

use super::{eval_platform, ms};

fn auto_buffer(model: &rtmdm_dnn::Model) -> u64 {
    model.max_layer_weight_bytes().max(1).div_ceil(4096) * 4096
}

/// F1 — single-DNN inference latency per execution strategy, per model.
/// Expected shape: `all-in-sram ≤ rt-mdm ≤ fetch-then-compute`, with the
/// rt-mdm gap to ideal small for compute-bound models (resnet8, vww) and
/// large for fetch-bound ones (autoencoder).
pub fn f1_latency() -> String {
    let rows = par_map_seeded(zoo::all(), |model| {
        let cost = CostModel::cmsis_nn_m7();
        let platform = eval_platform();
        let seg = segment_model(&model, &cost, auto_buffer(&model)).expect("auto buffer fits");
        let ideal = pipeline::isolated_latency(&seg, &platform, ExecutionStrategy::AllInSram);
        let rtmdm =
            pipeline::isolated_latency(&seg, &platform, ExecutionStrategy::OverlappedPrefetch);
        let naive =
            pipeline::isolated_latency(&seg, &platform, ExecutionStrategy::FetchThenCompute);
        let hidden = pipeline::overlap_efficiency_pct(&seg, &platform)
            .map(|e| format!("{e}%"))
            .unwrap_or_else(|| "n/a".to_owned());
        let speedup = format!("{:.2}x", naive.get() as f64 / rtmdm.get() as f64);
        vec![
            model.name().to_owned(),
            seg.len().to_string(),
            ms(ideal, platform.cpu),
            ms(rtmdm, platform.cpu),
            ms(naive, platform.cpu),
            hidden,
            speedup,
        ]
    });
    report::table(
        &[
            "model",
            "segments",
            "all-in-sram ms",
            "rt-mdm ms",
            "fetch-then-compute ms",
            "staging hidden",
            "rt-mdm speedup",
        ],
        &rows,
    )
}

/// F4 — impact of the SRAM fetch-buffer budget: per-model latency and
/// the admissibility of a control+model mix. Expected shape: latency
/// improves quickly above the largest-layer floor, then plateaus; very
/// large buffers waste SRAM without gain (and eventually cost
/// schedulability through coarser non-preemptive segments — bounded here
/// by the framework's compute cap).
pub fn f4_sram_budget() -> String {
    let cells: Vec<(rtmdm_dnn::Model, u64)> = [zoo::resnet8(), zoo::autoencoder()]
        .into_iter()
        .flat_map(|model| [1u64, 2, 3, 4].into_iter().map(move |m| (model.clone(), m)))
        .collect();
    let rows = par_map_seeded(cells, |(model, mult)| {
        let cost = CostModel::cmsis_nn_m7();
        let platform = eval_platform();
        let floor = auto_buffer(&model);
        let buffer = floor * mult;
        let seg = segment_model(&model, &cost, buffer).expect("≥ floor");
        let lat =
            pipeline::isolated_latency(&seg, &platform, ExecutionStrategy::OverlappedPrefetch);
        // Admissibility of a tight-control + model mix at this buffer.
        let mut fw = RtMdm::new(platform.clone()).expect("platform");
        fw.add_task(TaskSpec::new("control", zoo::micro_mlp(), 20_000, 20_000))
            .expect("control");
        fw.add_task(
            TaskSpec::new("dnn", model.clone(), 500_000, 500_000).with_buffer_bytes(buffer),
        )
        .expect("dnn");
        let admitted = match fw.admit() {
            Ok(a) if a.schedulable() => "yes",
            Ok(_) => "NO (timing)",
            Err(_) => "NO (sram)",
        };
        vec![
            model.name().to_owned(),
            format!("{} KiB", buffer / 1024),
            seg.len().to_string(),
            ms(lat, platform.cpu),
            format!("{} KiB", 2 * buffer / 1024),
            admitted.to_owned(),
        ]
    });
    report::table(
        &[
            "model",
            "buffer",
            "segments",
            "rt-mdm latency ms",
            "sram for buffers",
            "mix admitted",
        ],
        &rows,
    )
}

/// F5 — impact of external-memory bandwidth: latency of a compute-bound
/// and a fetch-bound model, and where rt-mdm converges to the
/// all-in-SRAM ideal. Expected shape: the fetch-bound autoencoder gains
/// dramatically with bandwidth; resnet8 is flat (its staging hides).
pub fn f5_bandwidth() -> String {
    let cells: Vec<(rtmdm_dnn::Model, u64)> = [zoo::resnet8(), zoo::autoencoder()]
        .into_iter()
        .flat_map(|model| {
            [10u64, 20, 40, 80, 160, 320]
                .into_iter()
                .map(move |mbps| (model.clone(), mbps))
        })
        .collect();
    let rows = par_map_seeded(cells, |(model, mbps)| {
        let cost = CostModel::cmsis_nn_m7();
        let base = eval_platform();
        let seg = segment_model(&model, &cost, auto_buffer(&model)).expect("fits");
        let platform = base.with_ext_mem(ExtMemConfig::from_bandwidth(
            ExtMemKind::Custom,
            base.cpu,
            mbps * 1_000_000,
            Cycles::new(120),
        ));
        let rtmdm =
            pipeline::isolated_latency(&seg, &platform, ExecutionStrategy::OverlappedPrefetch);
        let naive =
            pipeline::isolated_latency(&seg, &platform, ExecutionStrategy::FetchThenCompute);
        let ideal = pipeline::isolated_latency(&seg, &platform, ExecutionStrategy::AllInSram);
        let overhead = if ideal.get() > 0 {
            format!(
                "{:.1}%",
                100.0 * (rtmdm.get().saturating_sub(ideal.get())) as f64 / ideal.get() as f64
            )
        } else {
            "n/a".to_owned()
        };
        vec![
            model.name().to_owned(),
            format!("{mbps} MB/s"),
            ms(rtmdm, platform.cpu),
            ms(naive, platform.cpu),
            ms(ideal, platform.cpu),
            overhead,
        ]
    });
    report::table(
        &[
            "model",
            "bandwidth",
            "rt-mdm ms",
            "fetch-then-compute ms",
            "all-in-sram ms",
            "rt-mdm overhead vs ideal",
        ],
        &rows,
    )
}
