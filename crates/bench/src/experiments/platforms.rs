//! Figure F10 — the same workload across platform classes.
//!
//! Each platform preset is an independent cell for [`par_map_seeded`];
//! rows come back in preset order.

use rtmdm_core::{report, RtMdm, TaskSpec};
use rtmdm_dnn::zoo;
use rtmdm_mcusim::PlatformConfig;

use rtmdm_par::par_map_seeded;

use super::ms;

/// F10 — cross-platform study: the three-DNN sensor-node workload on
/// every preset. Expected shape: the low-end M4 cannot carry the mix at
/// all (compute); the F746 carries it with moderate occupancy; the H743
/// coasts; the ideal-SRAM control isolates the cost of external memory
/// on the F746 (same CPU).
pub fn f10_platforms() -> String {
    let rows = par_map_seeded(PlatformConfig::presets(), |platform| {
        let name = platform.name.clone();
        let cpu = platform.cpu;
        let mut fw = match RtMdm::new(platform) {
            Ok(fw) => fw,
            Err(e) => {
                return vec![
                    name,
                    format!("invalid: {e}"),
                    String::new(),
                    String::new(),
                    String::new(),
                ]
            }
        };
        let added = fw
            .add_task(TaskSpec::new("control", zoo::micro_mlp(), 20_000, 20_000))
            .and_then(|()| fw.add_task(TaskSpec::new("kws", zoo::ds_cnn(), 100_000, 100_000)))
            .and_then(|()| fw.add_task(TaskSpec::new("ic", zoo::resnet8(), 400_000, 400_000)));
        if let Err(e) = added {
            return vec![
                name,
                format!("rejected: {e}"),
                String::new(),
                String::new(),
                String::new(),
            ];
        }
        match fw.admit() {
            Ok(a) => {
                let verdict = if a.schedulable() { "yes" } else { "NO" };
                let (misses, control) = match fw.simulate(5_000_000) {
                    Ok(run) => (
                        run.deadline_misses().to_string(),
                        run.max_response_of("control")
                            .map(|c| ms(c, cpu))
                            .unwrap_or_else(|| "n/a".into()),
                    ),
                    Err(_) => ("n/a".into(), "n/a".into()),
                };
                vec![
                    name,
                    verdict.to_owned(),
                    report::ppm_as_pct(a.occupancy_ppm),
                    misses,
                    control,
                ]
            }
            Err(e) => vec![
                name,
                format!("rejected: {e}"),
                String::new(),
                String::new(),
                String::new(),
            ],
        }
    });
    report::table(
        &[
            "platform",
            "admitted",
            "occupancy",
            "misses (5 s)",
            "control max ms",
        ],
        &rows,
    )
}
