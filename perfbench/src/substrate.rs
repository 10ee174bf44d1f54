//! The substrate floor at a workload's stream length: host time of one
//! scouting op, one row write, one row read and one TRNG row on an
//! `N`-column crossbar. Set against `execute.ns_per_scout_op`, it splits
//! the per-op cost into a per-word part (this floor) and the fixed
//! overhead above it.

use crate::report::Metrics;
use crate::stats::median;
use reram::{CrossbarArray, ScoutingLogic, SlOp, TrngEngine};
use sc_core::bitstream::BitStream;
use std::hint::black_box;
use std::time::Instant;

/// Batches timed per operation; the median batch is reported.
const BATCHES: usize = 15;

/// Median ns per call of `op` over [`BATCHES`] batches of `reps` calls.
fn ns_per_call(reps: usize, mut op: impl FnMut()) -> f64 {
    op();
    let mut per_call = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let t0 = Instant::now();
        for _ in 0..reps {
            op();
        }
        per_call.push(t0.elapsed().as_nanos() as f64 / reps as f64);
    }
    median(&per_call)
}

/// Times the four substrate operations at `n` columns and records them
/// as `reram.*`.
pub fn floor(m: &mut Metrics, n: usize, seed: u64) {
    // About 1 ms per batch at any N.
    let reps = (4_000_000 / n.max(64)).clamp(50, 20_000);
    let mut trng = TrngEngine::new(n, 0.04, seed);
    let a = trng.generate_row(n);
    let b = trng.generate_row(n);
    let mut array = CrossbarArray::pristine(8, n, seed);
    array.write_row(0, &a).expect("row in range");
    array.write_row(1, &b).expect("row in range");
    let mut sl = ScoutingLogic::ideal();
    m.set(
        "reram.scout_ns",
        ns_per_call(reps, || {
            black_box(
                sl.execute_mut(&mut array, SlOp::And, &[0, 1])
                    .expect("valid rows"),
            );
        }),
    );
    let mut toggle = false;
    m.set(
        "reram.write_row_ns",
        ns_per_call(reps, || {
            toggle = !toggle;
            let d: &BitStream = if toggle { &a } else { &b };
            black_box(array.write_row(2, d).expect("row in range"));
        }),
    );
    m.set(
        "reram.read_row_ns",
        ns_per_call(reps, || {
            black_box(array.read_row(0).expect("row in range"));
        }),
    );
    m.set(
        "reram.trng_row_ns",
        ns_per_call(reps, || {
            black_box(trng.generate_row(n));
        }),
    );
}
