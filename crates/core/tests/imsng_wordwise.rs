//! Differential test: the word-wise, in-place `Imsng::generate` must
//! produce exactly what the stream-per-step formulation of the
//! greater-than network produces — the same stochastic row, the same
//! fault draws, the same sensing statistics — for random operands,
//! every segment width `M ∈ 1..=9`, a row width with a partial tail word,
//! and both ideal and fault-injected sensing.

use imsc::imsng::{Imsng, ImsngVariant};
use reram::array::CrossbarArray;
use reram::faults::FaultRates;
use reram::latch::WriteDriverLatches;
use reram::scouting::{ScoutingLogic, SlOp};
use reram::trng::TrngEngine;
use sc_core::rng::Xoshiro256;
use sc_core::{BitStream, Fixed};

/// Two words and a 2-bit tail.
const WIDTH: usize = 130;

/// The comparator as one fresh `BitStream` per signal: sense `¬RN_i`,
/// rebuild `RN_i`, form `win` and `eq`, then `GT ← GT ∨ (FFlag ∧ win)` and
/// `FFlag ← FFlag ∧ eq` over separate L0/L1 streams.
fn stream_per_step(
    array: &mut CrossbarArray,
    sl: &mut ScoutingLogic,
    rn_rows: &[usize],
    operand: Fixed,
    m: u32,
    dest: usize,
) {
    let operand_m = operand.requantize(m).expect("valid width");
    let cols = array.cols();
    let mut l0 = BitStream::zeros(cols);
    let mut l1 = BitStream::ones(cols);
    for (i, &rn_row) in rn_rows.iter().enumerate() {
        let a_bit = (operand_m.value() >> (m - 1 - i as u32)) & 1 == 1;
        let rn_not = sl
            .execute_mut(array, SlOp::Not, &[rn_row])
            .expect("valid row");
        let rn = rn_not.not();
        let win = if a_bit {
            rn_not
        } else {
            BitStream::zeros(cols)
        };
        let take = win.and(&l1).expect("equal widths");
        l0.or_assign(&take).expect("equal widths");
        let eq = if a_bit { rn } else { rn.not() };
        l1.and_assign(&eq).expect("equal widths");
    }
    array.write_row(dest, &l0).expect("row in range");
}

fn check(m: u32, rates: FaultRates, seed: u64) {
    let rows = m as usize + 2;
    let dest = m as usize;
    let mut array = CrossbarArray::pristine(rows, WIDTH, seed);
    let mut trng = TrngEngine::new(128, 0.04, seed ^ 0x7);
    let rn_rows: Vec<usize> = (0..m as usize).collect();
    for &r in &rn_rows {
        trng.fill_row(&mut array, r).expect("row in range");
    }
    let sl = if rates.is_fault_free() {
        ScoutingLogic::ideal()
    } else {
        ScoutingLogic::with_faults(rates, seed ^ 0xF)
    };
    let (mut want_array, mut want_sl) = (array.clone(), sl.clone());
    let (mut got_array, mut got_sl) = (array, sl);
    // One latch bank across every conversion, as the accelerator keeps it.
    let mut latches = WriteDriverLatches::new(WIDTH);
    let mut rng = Xoshiro256::seed_from_u64(seed ^ 0x0DD);
    for (k, variant) in [
        ImsngVariant::Opt,
        ImsngVariant::Naive,
        ImsngVariant::Baseline,
    ]
    .into_iter()
    .cycle()
    .take(12)
    .enumerate()
    {
        let operand = Fixed::from_u8((rng.next_u64() & 0xFF) as u8);
        let imsng = Imsng::new(variant, m).expect("valid width");
        let cost = imsng
            .generate(
                &mut got_array,
                &mut got_sl,
                &mut latches,
                &rn_rows,
                operand,
                dest,
            )
            .expect("valid conversion");
        stream_per_step(&mut want_array, &mut want_sl, &rn_rows, operand, m, dest);
        let ctx = format!("M={m} seed={seed} conversion {k} operand {operand:?}");
        let want_row = want_array.read_row(dest).expect("row in range");
        assert_eq!(
            got_array.read_row(dest).expect("row in range"),
            want_row,
            "{ctx}"
        );
        assert_eq!(latches.data(), &want_row, "{ctx}: L0 holds the stream");
        assert_eq!(got_sl.faults_injected(), want_sl.faults_injected(), "{ctx}");
        assert_eq!(got_sl.ops_executed(), want_sl.ops_executed(), "{ctx}");
        assert_eq!(got_array.row_reads(), want_array.row_reads(), "{ctx}");
        assert_eq!(got_array.row_writes(), want_array.row_writes(), "{ctx}");
        assert_eq!(cost.sense_ops, 5 * u64::from(m), "{ctx}");
    }
}

#[test]
fn word_wise_generate_matches_stream_per_step_ideal() {
    for m in 1..=9 {
        for seed in 0..8 {
            check(m, FaultRates::none(), 0x1000 + seed);
        }
    }
}

#[test]
fn word_wise_generate_matches_stream_per_step_under_faults() {
    for m in 1..=9 {
        for seed in 0..8 {
            for p in [0.01, 0.1, 1.0] {
                check(m, FaultRates::uniform(p), 0x2000 + seed);
            }
        }
    }
}
