//! Quickstart: admit two DNN tasks on an STM32F746-class board with
//! weights in QSPI flash, check the timing guarantee, and watch them run.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use rt_mdm::core::{RtMdm, TaskSpec};
use rt_mdm::dnn::zoo;
use rt_mdm::mcusim::PlatformConfig;
use rt_mdm::obs::{gantt, Timeline};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Pick a platform: 200 MHz Cortex-M7, 320 KiB SRAM, weights in
    //    40 MB/s QSPI NOR flash.
    let platform = PlatformConfig::stm32f746_qspi();
    println!(
        "platform: {} ({} SRAM, {} ext-mem)",
        platform.name, platform.sram_bytes, platform.ext_mem.kind
    );

    // 2. Declare the multi-DNN workload: a keyword spotter every 100 ms
    //    and an image classifier every 400 ms.
    let mut fw = RtMdm::new(platform)?;
    fw.add_task(TaskSpec::new("kws", zoo::ds_cnn(), 100_000, 100_000))?;
    fw.add_task(TaskSpec::new("ic", zoo::resnet8(), 400_000, 400_000))?;

    // 3. Admission control: SRAM layout + RT-MDM response-time analysis.
    let admission = fw.admit()?;
    println!("\n== admission ==");
    println!("{}", admission.to_table());
    println!(
        "occupancy utilization: {}",
        rt_mdm::core::report::ppm_as_pct(admission.occupancy_ppm)
    );
    for plan in &admission.plans {
        println!(
            "  {}: {} segments, {} bytes staged per inference",
            plan.model,
            plan.len(),
            plan.total_fetch_bytes()
        );
    }
    assert!(admission.schedulable(), "the guarantee must hold");

    // 4. Run two seconds of simulated time at worst-case execution.
    let run = fw.simulate(2_000_000)?;
    println!("\n== simulation (2 s, WCET) ==");
    println!("{}", run.to_table());
    assert_eq!(run.deadline_misses(), 0, "admitted set must not miss");

    // 5. A compact Gantt of the first 500 ms.
    println!("gantt (first 500 ms):");
    let horizon = run.cpu.cycles_from_micros(500_000);
    let timeline = Timeline::from_trace(&run.result.trace, horizon);
    print!("{}", gantt::render(&timeline, 100, &run.names));
    Ok(())
}
