//! Cross-array pipelined execution demo: one logical program, sliced at
//! clean register-lifetime cuts and run as work-queue jobs whose steps
//! are timed into the ❶ SBS / ❷ arithmetic / ❸ S2B stages — the
//! executable form of the Fig. 5 throughput model — then the same
//! scheduler driving a real image kernel.
//!
//! Run with `cargo run --release --example pipelined`.

use reram_sc::accel::cost::ScOperation;
use reram_sc::accel::pipeline::PipelineModel;
use reram_sc::accel::program::sched::{self, PipelineScheduler, StageKind};
use reram_sc::accel::program::Program;
use reram_sc::accel::{Accelerator, ImscError};
use reram_sc::apps::{bilinear, synth, ScReramConfig, Schedule};
use reram_sc::sc::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- One logical program, pipelined across arrays -----------------
    // 32 independent multiply wavefronts: encode two operands ❶,
    // AND-multiply them ❷, read the product ❸.
    let mut p = Program::new();
    for i in 0..32u8 {
        let a = p.encode(Fixed::from_u8(64 + i));
        let b = p.encode(Fixed::from_u8(200 - i));
        let prod = p.multiply(a, b);
        p.read(prod);
    }

    // Slice it at wavefront boundaries (no register lives across a cut)
    // and run with 4 arrays in flight. Each slice gets its own
    // accelerator; values and ledgers are bit-identical to running the
    // slices one by one.
    let slices = sched::partition_into(&p, 8)?;
    let scheduler = PipelineScheduler::new(4);
    let run = scheduler.run(&slices, |i| -> Result<Accelerator, ImscError> {
        Accelerator::builder()
            .stream_len(256)
            .seed(i as u64)
            .build()
    })?;

    let report = run.report;
    println!(
        "slices: {}, wavefronts: {}",
        run.slices.len(),
        report.wavefronts
    );
    for stage in StageKind::ALL {
        println!(
            "stage {:<5} busy {:>10.1} ns, occupancy {:>5.1}%",
            stage.name(),
            report.stage_busy_ns[stage.index()],
            report.stage_occupancy()[stage.index()] * 100.0
        );
    }
    println!(
        "measured II {:.1} ns, makespan {:.1} ns ({:.2}x over serial)",
        report.initiation_interval_ns,
        report.makespan_ns,
        report.pipeline_speedup()
    );

    // The measured initiation interval lands on the analytic Fig. 5
    // bottleneck for the same op shape. Table III charges *one* operand
    // conversion per op while this program encodes both multiply
    // operands, so the measured II is exactly two analytic SBS stages.
    let model = PipelineModel::evaluation_default();
    let analytic = model.stages(ScOperation::Multiply, 256).bottleneck_ns();
    println!(
        "analytic bottleneck {analytic:.1} ns/conversion → measured/analytic = {:.3} \
         (2 conversions per wavefront)",
        report.initiation_interval_ns / analytic
    );

    // --- The same scheduler under an image kernel ----------------------
    // `Schedule::Pipelined` gives bit-identical pixels and ledgers to the
    // default per-tile schedule, plus the measured pipeline report.
    let src = synth::value_noise(16, 16, 3, 9);
    let cfg = ScReramConfig::new(256, 11);
    let (per_tile, _) = bilinear::sc_reram_with_stats(&src, 2, &cfg)?;
    let (pipelined, stats) = bilinear::sc_reram_with_stats(
        &src,
        2,
        &cfg.with_schedule(Schedule::Pipelined { arrays: 3 }),
    )?;
    assert_eq!(per_tile.pixels(), pipelined.pixels());
    let kernel_report = stats.pipeline.expect("pipelined runs carry a report");
    println!(
        "bilinear 16→32: {} tiles pipelined over {} arrays, II {:.1} ns, \
         throughput {:.2} ops/us (pixels identical to per-tile)",
        stats.tiles,
        kernel_report.arrays,
        kernel_report.initiation_interval_ns,
        kernel_report.throughput_ops_per_us()
    );
    Ok(())
}
