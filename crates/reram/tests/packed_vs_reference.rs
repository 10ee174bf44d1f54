//! Differential property tests: the packed word fast path must be
//! bit-exact against the cell-by-cell reference path.
//!
//! * Ideal mode: `ScoutingLogic::execute_mut` (word path) ≡
//!   `ScoutingLogic::digital_reference` (per-cell truth table) for every
//!   operation and for row widths including non-multiple-of-64 tails.
//! * Array access: packed `read_row` ≡ per-cell `read_bit` loop;
//!   differential `write_row` bookkeeping matches Hamming distances.
//! * FaultInjected mode: a seeded fault-injected engine produces exactly
//!   `digital_reference ⊕ injector(seed)` — i.e. the packed path changes
//!   nothing about where seeded faults land — and is reproducible.
//! * Buffered results: `ScoutingLogic::execute_in_place` (the engine's
//!   own result buffer) ≡ `ScoutingLogic::execute_mut` (a fresh copy) in
//!   every mode, with identical fault and row-read counts.

use proptest::prelude::*;
use reram::array::CrossbarArray;
use reram::faults::{FaultInjector, FaultRates};
use reram::scouting::{ScoutingLogic, SlOp};
use sc_core::rng::Xoshiro256;
use sc_core::BitStream;

const ALL_OPS: [SlOp; 8] = [
    SlOp::And,
    SlOp::Or,
    SlOp::Xor,
    SlOp::Nand,
    SlOp::Nor,
    SlOp::Xnor,
    SlOp::Maj,
    SlOp::Not,
];

fn operand_rows(op: SlOp) -> usize {
    match op {
        SlOp::Not => 1,
        SlOp::Maj => 3,
        _ => 2,
    }
}

fn random_stream(n: usize, seed: u64) -> BitStream {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    BitStream::from_fn(n, |_| rng.next_f64() < 0.5)
}

/// An array with `rows` random rows of width `cols`.
fn loaded_array(rows: usize, cols: usize, seed: u64) -> CrossbarArray {
    let mut a = CrossbarArray::pristine(rows, cols, seed);
    for r in 0..rows {
        let s = random_stream(cols, seed ^ (r as u64 + 0x1000));
        a.write_row(r, &s).expect("row in range");
    }
    a
}

proptest! {
    #[test]
    fn packed_digital_equals_per_cell_reference(cols in 1usize..200, seed in any::<u64>()) {
        let a = loaded_array(3, cols, seed);
        let mut sl = ScoutingLogic::ideal();
        let mut arr = a.clone();
        for op in ALL_OPS {
            let rows: Vec<usize> = (0..operand_rows(op)).collect();
            let packed = sl.execute_mut(&mut arr, op, &rows).expect("valid rows");
            let reference = ScoutingLogic::digital_reference(&a, op, &rows)
                .expect("valid rows");
            prop_assert_eq!(&packed, &reference, "{} over {} cols", op.name(), cols);
        }
    }

    #[test]
    fn word_boundary_tails_are_exact(off in 0usize..5, base in 1usize..4, seed in any::<u64>()) {
        // Deliberately straddle the u64 boundaries: 62..=66, 126..=130, …
        let cols = base * 64 + off - 2;
        let a = loaded_array(3, cols, seed);
        let sl = ScoutingLogic::ideal();
        for op in ALL_OPS {
            let rows: Vec<usize> = (0..operand_rows(op)).collect();
            let packed = sl.execute(&a, op, &rows).expect("valid rows");
            let reference = ScoutingLogic::digital_reference(&a, op, &rows)
                .expect("valid rows");
            prop_assert_eq!(&packed, &reference, "{} over {} cols", op.name(), cols);
            // The packed path must never leak set bits into the tail.
            prop_assert_eq!(packed.len(), cols);
            let ones: u64 = packed.iter().filter(|&b| b).count() as u64;
            prop_assert_eq!(packed.count_ones(), ones);
        }
    }

    #[test]
    fn packed_row_io_matches_per_cell_reads(cols in 1usize..300, seed in any::<u64>()) {
        let mut a = CrossbarArray::pristine(2, cols, seed);
        let data = random_stream(cols, seed ^ 1);
        let changed = a.write_row(0, &data).expect("row in range");
        prop_assert_eq!(changed as u64, data.count_ones());
        let row = a.read_row(0).expect("row in range");
        for col in 0..cols {
            prop_assert_eq!(row.get(col), Some(a.read_bit(0, col).expect("in range")));
        }
        // Overwrite: differential count equals the Hamming distance.
        let next = random_stream(cols, seed ^ 2);
        let changed = a.write_row(0, &next).expect("row in range");
        let expect = data.xor(&next).expect("equal lengths").count_ones();
        prop_assert_eq!(changed as u64, expect);
    }

    #[test]
    fn seeded_fault_injection_is_reference_plus_mask(
        cols in 1usize..200,
        p in 0.0f64..0.4,
        seed in any::<u64>(),
    ) {
        let a = loaded_array(2, cols, seed);
        let rates = FaultRates::uniform(p);
        // Packed pipeline: digital word path + in-engine injector.
        let mut faulty = ScoutingLogic::with_faults(rates, seed ^ 0xFA);
        let mut arr = a.clone();
        let got = faulty.execute_mut(&mut arr, SlOp::Xor, &[0, 1]).expect("valid rows");
        // Reference pipeline: per-cell truth table + identically seeded
        // standalone injector.
        let mut reference = ScoutingLogic::digital_reference(&a, SlOp::Xor, &[0, 1])
            .expect("valid rows");
        let mut inj = FaultInjector::new(rates, seed ^ 0xFA);
        inj.corrupt_op_output(SlOp::Xor, &mut reference);
        prop_assert_eq!(&got, &reference);
        prop_assert_eq!(faulty.faults_injected(), inj.injected());
    }

    #[test]
    fn seeded_fault_injection_is_reproducible(
        p in 0.0f64..0.5,
        seed in any::<u64>(),
        ops in 1usize..6,
    ) {
        let run = || {
            let mut a = loaded_array(2, 257, seed);
            let mut sl = ScoutingLogic::with_faults(FaultRates::uniform(p), seed ^ 0xB0);
            let mut outs = Vec::new();
            for i in 0..ops {
                let op = ALL_OPS[i % ALL_OPS.len()];
                let rows: Vec<usize> = (0..operand_rows(op)).collect();
                outs.push(sl.execute_mut(&mut a, op, &rows).expect("valid rows"));
            }
            (outs, sl.faults_injected())
        };
        let (a_outs, a_faults) = run();
        let (b_outs, b_faults) = run();
        prop_assert_eq!(a_outs, b_outs);
        prop_assert_eq!(a_faults, b_faults);
    }

    #[test]
    fn injected_fault_count_matches_flipped_bits(
        n in 1usize..5000,
        p in 0.0f64..0.5,
        seed in any::<u64>(),
    ) {
        let mut inj = FaultInjector::new(FaultRates::uniform(p), seed);
        let mut s = BitStream::zeros(n);
        inj.corrupt_op_output(SlOp::Maj, &mut s);
        prop_assert_eq!(s.count_ones(), inj.injected());
    }

    #[test]
    fn buffered_result_equals_execute_mut(
        cols in 1usize..140,
        p in 0.0f64..0.5,
        seed in any::<u64>(),
    ) {
        let engines = [
            ScoutingLogic::ideal(),
            ScoutingLogic::with_faults(FaultRates::uniform(p), seed ^ 0xB1),
            // Certain flips take the whole-row inversion path.
            ScoutingLogic::with_faults(FaultRates::uniform(1.0), seed ^ 0xB2),
            ScoutingLogic::analog(),
        ];
        for engine in engines {
            let mut buffered = engine.clone();
            let mut copying = engine;
            let mut buffered_array = loaded_array(3, cols, seed);
            let mut copying_array = buffered_array.clone();
            for op in ALL_OPS {
                let rows: Vec<usize> = (0..operand_rows(op)).collect();
                let want = copying
                    .execute_mut(&mut copying_array, op, &rows)
                    .expect("valid rows");
                let got = buffered
                    .execute_in_place(&mut buffered_array, op, &rows)
                    .expect("valid rows");
                prop_assert_eq!(got, &want, "{} over {} cols", op.name(), cols);
                prop_assert_eq!(buffered.result(), &want);
                prop_assert_eq!(buffered.faults_injected(), copying.faults_injected());
                prop_assert_eq!(buffered_array.row_reads(), copying_array.row_reads());
            }
            prop_assert_eq!(buffered.ops_executed(), copying.ops_executed());
        }
    }
}
