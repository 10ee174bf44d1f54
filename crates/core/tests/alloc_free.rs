//! The execute hot path allocates nothing in steady state: once an
//! accelerator is warmed up and its handle slots are reserved, scouting
//! ops, TRNG selects and fills, RN refreshes and ADC readout all run
//! through buffers the substrate already owns.
//!
//! A counting global allocator tallies heap allocations (and
//! reallocations) per thread, so allocations made by other test threads
//! of this binary never leak into the count.

use imsc::engine::{Accelerator, StreamHandle};
use reram::faults::FaultRates;
use sc_core::Fixed;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct PerThreadCounting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn tick() {
    // `try_with`: allocations during thread-local teardown go uncounted
    // instead of panicking.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; the counter is a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for PerThreadCounting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tick();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tick();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tick();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: PerThreadCounting = PerThreadCounting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Mixed calls per round of [`round`].
const CALLS_PER_ROUND: u64 = 10;
/// Measured calls in total.
const MEASURED_CALLS: u64 = 1_000;
/// Allocations tolerated over all measured calls: a small constant, far
/// below one per call.
const BOUND: u64 = 16;

struct Operands {
    /// Two streams in distinct correlation domains.
    x: StreamHandle,
    y: StreamHandle,
    /// Two streams sharing one domain.
    p: StreamHandle,
    q: StreamHandle,
}

fn operands(acc: &mut Accelerator) -> Operands {
    let x = acc.encode(Fixed::from_u8(180)).expect("encode");
    let y = acc.encode(Fixed::from_u8(90)).expect("encode");
    let (p, q) = acc
        .encode_correlated(Fixed::from_u8(60), Fixed::from_u8(200))
        .expect("encode");
    Operands { x, y, p, q }
}

/// One round of [`CALLS_PER_ROUND`] mixed calls: nine ops that each read
/// back and release their result, then one RN refresh. Returns a checksum
/// of the read values so nothing is optimised away.
fn round(acc: &mut Accelerator, o: &Operands) -> f64 {
    let mut sum = 0.0;
    let mut finish = |acc: &mut Accelerator, h: StreamHandle| {
        sum += acc.read_value(h).expect("read");
        acc.release(h).expect("release");
    };
    let h = acc.multiply(o.x, o.y).expect("multiply");
    finish(acc, h);
    let h = acc.abs_subtract(o.p, o.q).expect("abs_subtract");
    finish(acc, h);
    let h = acc.minimum(o.p, o.q).expect("minimum");
    finish(acc, h);
    let h = acc.maximum(o.p, o.q).expect("maximum");
    finish(acc, h);
    let h = acc.blend(o.p, o.q, o.x).expect("blend");
    finish(acc, h);
    let h = acc.scaled_add(o.x, o.y).expect("scaled_add");
    finish(acc, h);
    let h = acc.complement(o.p).expect("complement");
    finish(acc, h);
    let h = acc.trng_select().expect("trng_select");
    finish(acc, h);
    let h = acc.trng_select().expect("trng_select");
    finish(acc, h);
    acc.refresh_rn_rows().expect("refresh");
    sum
}

/// Warms `acc` up, reserves its slots, then counts the allocations of
/// [`MEASURED_CALLS`] mixed calls on this thread.
fn measured_allocations(mut acc: Accelerator) -> u64 {
    let o = operands(&mut acc);
    for _ in 0..3 {
        round(&mut acc, &o);
    }
    acc.reserve_slots(MEASURED_CALLS as usize);
    let before = allocations();
    let mut checksum = 0.0;
    for _ in 0..MEASURED_CALLS / CALLS_PER_ROUND {
        checksum += round(&mut acc, &o);
    }
    let used = allocations() - before;
    assert!(checksum.is_finite() && checksum > 0.0);
    used
}

#[test]
fn steady_state_ops_do_not_allocate() {
    for n in [64, 130, 256] {
        let acc = Accelerator::builder()
            .stream_len(n)
            .seed(7)
            .build()
            .expect("valid config");
        let used = measured_allocations(acc);
        assert!(
            used <= BOUND,
            "N={n}: {used} allocations over {MEASURED_CALLS} calls"
        );
    }
}

#[test]
fn fault_injected_ops_do_not_allocate() {
    let acc = Accelerator::builder()
        .stream_len(256)
        .seed(11)
        .fault_rates(FaultRates::uniform(0.02))
        .wear_leveling(true)
        .build()
        .expect("valid config");
    let used = measured_allocations(acc);
    assert!(
        used <= BOUND,
        "{used} allocations over {MEASURED_CALLS} calls"
    );
}
