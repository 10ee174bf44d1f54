//! Program IR demo: build an SC kernel declaratively, let the planner
//! handle rows and refreshes, and run it on the in-memory accelerator —
//! then run a multi-frame loop through the compiled-template cache,
//! compiling once and binding per-frame values into the template holes.
//!
//! Run with `cargo run --release --example program_ir`.

use reram_sc::accel::program::Program;
use reram_sc::accel::{
    Accelerator, ExecArena, Optimize, PlanCache, ProgramSink, RnRefreshPolicy, Template,
    TemplateKey, ValueTape,
};
use reram_sc::sc::prelude::*;
use std::sync::Arc;

/// The compositing kernel as an emitter: the same code fills a real
/// [`Program`] (compile path) or a [`ValueTape`] (cached path, values
/// only — no op list is built).
fn emit_frame<S: ProgramSink>(pixels: &[(u8, u8, u8)], alpha_shift: u8, p: &mut S) {
    for &(f, b, alpha) in pixels {
        let alpha = alpha.saturating_add(alpha_shift);
        let sel = if f >= b { alpha } else { 255 - alpha };
        let fb = p.encode_correlated(&[Fixed::from_u8(f), Fixed::from_u8(b)]);
        p.next_group();
        let hs = p.encode(Fixed::from_u8(sel));
        let hc = p.blend(fb[0], fb[1], hs);
        p.read(hc);
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A compositing-style kernel over three "pixels", written as a
    // program emitter instead of imperative accelerator calls. Virtual
    // registers stand in for crossbar rows; nobody calls `release`.
    let pixels = [(200u8, 40u8, 128u8), (90, 170, 30), (250, 10, 220)];
    let mut p = Program::new();
    for &(f, b, alpha) in &pixels {
        // MAJ computes sel·max + (1−sel)·min, so direct the select at
        // the larger operand.
        let sel = if f >= b { alpha } else { 255 - alpha };
        // F and B must share a realization (one correlated batch) …
        let fb = p.encode_correlated(&[Fixed::from_u8(f), Fixed::from_u8(b)]);
        // … while the select must be independent of it: a new refresh
        // group declares the independence point. The next pixel's F/B
        // pair safely reuses the select's realization (those streams
        // never meet in one operation), so no tag change there.
        p.next_group();
        let hs = p.encode(Fixed::from_u8(sel));
        let hc = p.blend(fb[0], fb[1], hs);
        p.read(hc);
    }

    // The plan knows the program's row footprint before anything runs.
    let plan = p.plan()?;
    println!(
        "ops: {}, outputs: {}, rows needed: {} planned vs {} naive",
        p.len(),
        p.outputs(),
        plan.peak_rows(),
        plan.naive_peak_rows()
    );

    // Execute under the declarative schedule: `Explicit` hands refresh
    // scheduling to the program's group boundaries. The same program
    // also runs unchanged under `PerEncode`/`EveryN`, where the
    // accelerator schedules realizations itself and the tags are inert.
    let mut acc = Accelerator::builder()
        .stream_len(2048)
        .seed(7)
        .refresh_policy(RnRefreshPolicy::Explicit)
        .build()?;
    let out = plan.execute(&mut acc)?;
    for ((f, b, alpha), v) in pixels.iter().zip(&out) {
        let exact = (f64::from(*f) * f64::from(*alpha)
            + f64::from(*b) * (255.0 - f64::from(*alpha)))
            / (255.0 * 256.0);
        println!("F={f:>3} B={b:>3} α={alpha:>3}  composite ≈ {v:.4} (exact {exact:.4})");
    }
    println!(
        "rn epochs: {} (initial fill + one boundary refresh per pixel)",
        acc.rn_epoch()
    );
    assert_eq!(acc.available_rows(), 64, "the planner returned every row");

    // --- Template cache: compile once, bind per frame ---------------
    // The same kernel over a 4-frame α-drift "video". Each frame emits
    // into a ValueTape — which records only the value stream and the
    // structure/value hashes, never building an op list — and probes
    // the cache. Frame 0 misses and compiles; at `Optimize::Off` the
    // template keeps holes for the encode immediates, so frames 1..4
    // bind their drifted α values into the *same* compiled plan.
    let cache = PlanCache::new();
    let mut arena = ExecArena::new();
    for frame in 0..4u8 {
        let mut tape = ValueTape::new();
        emit_frame(&pixels, frame * 16, &mut tape);
        let key = TemplateKey {
            kernel: "compositing-demo",
            structure: tape.structure_hash(),
            level: Optimize::Off,
            policy: RnRefreshPolicy::Explicit,
            substrate: 0, // one fixed substrate in this demo
            values: 0,    // Off is value-safe: one template fits all values
        };
        let (tpl, _) = cache.lookup_or_compile(key.clone(), || {
            // Compile path (first frame only): re-emit into a real Program.
            let mut p = Program::new();
            emit_frame(&pixels, frame * 16, &mut p);
            Template::compile(p, key.level, key.policy).map(Arc::new)
        })?;
        let mut acc = Accelerator::builder()
            .stream_len(2048)
            .seed(7)
            .refresh_policy(RnRefreshPolicy::Explicit)
            .build()?;
        let out = tpl.execute_in(&mut acc, &tape.into_bindings(), &mut arena)?;
        println!(
            "frame {frame}: α+{:<3} composites {:?}",
            frame * 16,
            out.iter()
                .map(|v| (v * 10000.0).round() / 10000.0)
                .collect::<Vec<_>>()
        );
    }
    let stats = cache.stats();
    println!(
        "plan cache: {} hit(s), {} miss(es), {} template(s) resident",
        stats.hits, stats.misses, stats.len
    );
    assert_eq!((stats.hits, stats.misses, stats.len), (3, 1, 1));
    Ok(())
}
