//! IMSNG — in-memory stochastic number generation (§III-A).
//!
//! The paper decouples random-number generation from bit-stream
//! generation: an in-ReRAM TRNG fills `M` rows with 50%-ones random bits
//! (row `i` holding bit `i` of `N` column-parallel random numbers), and
//! the greater-than network of [`crate::comparator`] compares a binary
//! operand against all `N` random numbers simultaneously, producing the
//! whole `N`-bit stochastic stream in `5·M` sensing steps.
//!
//! Three implementation variants differ only in where intermediate
//! signals live:
//!
//! | Variant | Intermediate writes | Mechanism |
//! |---|---|---|
//! | [`ImsngVariant::Baseline`] | `4·M` | write every intermediate row back |
//! | [`ImsngVariant::Naive`] | `2·M` | sensed values fed back as bitline voltages |
//! | [`ImsngVariant::Opt`] | `0` | running flag/result kept in the L0/L1 write-driver latches |

use crate::error::ImscError;
use reram::array::CrossbarArray;
use reram::energy::ReramCosts;
use reram::latch::WriteDriverLatches;
use reram::scouting::{ScoutingLogic, SlOp};
use sc_core::Fixed;

/// The IMSNG implementation variant (write-overhead strategy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ImsngVariant {
    /// Write every intermediate signal back to the array (4·M writes).
    Baseline,
    /// Bitline-voltage feedback for combinational intermediates
    /// (2·M writes) — "IMSNG-naive" in the paper.
    Naive,
    /// Latch-predicated sensing, no intermediate writes — "IMSNG-opt".
    Opt,
}

impl ImsngVariant {
    /// Intermediate array writes per comparator bit position (4, 2 or
    /// 0): the count that
    /// [`crate::comparator::ComparatorSchedule::array_writes`] spells out
    /// step by step.
    #[must_use]
    pub fn writes_per_bit(self) -> u32 {
        match self {
            ImsngVariant::Baseline => 4,
            ImsngVariant::Naive => 2,
            ImsngVariant::Opt => 0,
        }
    }
}

/// Cost record of one IMSNG conversion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ImsngCost {
    /// Scouting-logic sensing steps executed (5·M).
    pub sense_ops: u64,
    /// Intermediate array writes (variant dependent).
    pub intermediate_writes: u64,
    /// Final stochastic-bit-stream row writes (always 1 per conversion).
    pub sbs_writes: u64,
    /// TRNG rows consumed (M rows of fresh entropy).
    pub trng_rows: u64,
}

impl ImsngCost {
    /// Latency of this conversion in nanoseconds under the substrate
    /// timing constants (sensing is row-parallel; writes serialize).
    #[must_use]
    pub fn latency_ns(&self, costs: &ReramCosts) -> f64 {
        self.sense_ops as f64 * costs.timings.t_sense_ns
            + self.intermediate_writes as f64 * costs.timings.t_write_ns
    }

    /// Energy of this conversion in nanojoules for `width`-bit rows.
    #[must_use]
    pub fn energy_nj(&self, costs: &ReramCosts, width: usize) -> f64 {
        let w = width as f64;
        (self.sense_ops as f64 * w * costs.energies.e_sense_bit_pj
            + (self.intermediate_writes + self.sbs_writes) as f64
                * w
                * costs.energies.e_write_bit_pj)
            / 1000.0
    }

    /// Accumulates another conversion's cost.
    pub fn accumulate(&mut self, other: &ImsngCost) {
        self.sense_ops += other.sense_ops;
        self.intermediate_writes += other.intermediate_writes;
        self.sbs_writes += other.sbs_writes;
        self.trng_rows += other.trng_rows;
    }
}

/// The IMSNG conversion engine.
///
/// # Example
///
/// ```
/// use imsc::imsng::{Imsng, ImsngVariant};
/// use reram::array::CrossbarArray;
/// use reram::latch::WriteDriverLatches;
/// use reram::scouting::ScoutingLogic;
/// use reram::trng::TrngEngine;
/// use sc_core::Fixed;
///
/// # fn main() -> Result<(), imsc::ImscError> {
/// let mut array = CrossbarArray::pristine(16, 256, 3);
/// let mut trng = TrngEngine::ideal(64, 4);
/// let mut sl = ScoutingLogic::ideal();
/// let mut latches = WriteDriverLatches::new(256);
/// let imsng = Imsng::new(ImsngVariant::Opt, 8)?;
///
/// // Fill rows 0..8 with random bits and convert 0.5 into row 8.
/// let rn_rows: Vec<usize> = (0..8).collect();
/// for &r in &rn_rows {
///     trng.fill_row(&mut array, r)?;
/// }
/// let cost = imsng.generate(
///     &mut array,
///     &mut sl,
///     &mut latches,
///     &rn_rows,
///     Fixed::from_u8(128),
///     8,
/// )?;
/// assert_eq!(cost.sense_ops, 40); // 5·M
/// let sbs = array.read_row(8).map_err(imsc::ImscError::from)?;
/// assert!((sbs.value() - 0.5).abs() < 0.15);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Imsng {
    variant: ImsngVariant,
    segment_bits: u32,
}

impl Imsng {
    /// Creates an engine with segment size `segment_bits` (the paper's
    /// `M`, swept over 5..=9 in Table I).
    ///
    /// # Errors
    ///
    /// Returns [`ImscError::InvalidConfig`] if `segment_bits` is not in
    /// `1..=16`.
    pub fn new(variant: ImsngVariant, segment_bits: u32) -> Result<Self, ImscError> {
        if segment_bits == 0 || segment_bits > 16 {
            return Err(ImscError::InvalidConfig("segment_bits must be in 1..=16"));
        }
        Ok(Imsng {
            variant,
            segment_bits,
        })
    }

    /// The configured variant.
    #[must_use]
    pub fn variant(&self) -> ImsngVariant {
        self.variant
    }

    /// The comparator segment width `M`.
    #[must_use]
    pub fn segment_bits(&self) -> u32 {
        self.segment_bits
    }

    /// Converts `operand` into a stochastic bit-stream using the random
    /// bits stored in `rn_rows` (row `i` = bit `i`, MSB first, of the
    /// column-parallel random numbers), storing the result in `dest_row`.
    ///
    /// The stream width equals the array width; bit `j` of the result is
    /// `operand > RN_j`, so `P(1) = ⌈operand·2^M⌉ / 2^M` up to the
    /// randomness of the TRNG rows.
    ///
    /// The comparison runs word-wise in place: each segment bit is one
    /// NOT read into `sl`'s result buffer, folded into `latches` (the
    /// array's L0/L1 write-driver pair, reset here to the array width).
    /// When this returns, L0 holds the generated stream — the row just
    /// written to `dest_row` — until the latches' next use.
    ///
    /// # Errors
    ///
    /// * [`ImscError::InvalidConfig`] — `rn_rows.len() != segment_bits`.
    /// * [`ImscError::Device`] — array access failures.
    /// * [`ImscError::Stochastic`] — operand re-quantization failures.
    pub fn generate(
        &self,
        array: &mut CrossbarArray,
        sl: &mut ScoutingLogic,
        latches: &mut WriteDriverLatches,
        rn_rows: &[usize],
        operand: Fixed,
        dest_row: usize,
    ) -> Result<ImsngCost, ImscError> {
        if rn_rows.len() != self.segment_bits as usize {
            return Err(ImscError::InvalidConfig(
                "rn_rows must supply exactly segment_bits rows",
            ));
        }
        let m = self.segment_bits;
        let operand_m = operand.requantize(m)?;
        // L0 accumulates GT; L1 holds FFlag (starts all-ones).
        latches.reset(array.cols());

        for (i, &rn_row) in rn_rows.iter().enumerate() {
            let a_bit = (operand_m.value() >> (m - 1 - i as u32)) & 1 == 1;
            // Sense the RN bit row. A NOT read is one scouting step and
            // carries the injected fault behaviour of the sensing path.
            let not_rn = sl.execute_in_place(array, SlOp::Not, &[rn_row])?;
            if a_bit {
                // win = A_i AND NOT RN_i = NOT RN_i, and so is
                // diff = A_i XOR RN_i.
                // GT ← GT OR (FFlag AND win)   [predicated accumulate]
                latches.accumulate(not_rn)?;
                // FFlag ← FFlag AND NOT diff
                latches.clear_flags(not_rn)?;
            } else {
                // win is all-zero; diff = RN_i, so NOT diff = NOT RN_i.
                latches.mask_flags(not_rn)?;
            }
        }

        array.write_row(dest_row, latches.data())?;

        Ok(ImsngCost {
            sense_ops: 5 * u64::from(m),
            intermediate_writes: u64::from(self.variant.writes_per_bit() * m),
            sbs_writes: 1,
            trng_rows: u64::from(m),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reram::faults::FaultRates;
    use reram::trng::TrngEngine;

    fn setup(m: u32, cols: usize, seed: u64) -> (CrossbarArray, TrngEngine, Vec<usize>) {
        let mut array = CrossbarArray::pristine(m as usize + 4, cols, seed);
        let mut trng = TrngEngine::ideal(64, seed ^ 0xABCD);
        let rn_rows: Vec<usize> = (0..m as usize).collect();
        for &r in &rn_rows {
            trng.fill_row(&mut array, r).unwrap();
        }
        (array, trng, rn_rows)
    }

    #[test]
    fn generated_stream_tracks_target_probability() {
        let (mut array, _trng, rn_rows) = setup(8, 4096, 10);
        let mut sl = ScoutingLogic::ideal();
        let mut latches = WriteDriverLatches::new(array.cols());
        let imsng = Imsng::new(ImsngVariant::Opt, 8).unwrap();
        for &x in &[32u8, 128, 224] {
            let cost = imsng
                .generate(
                    &mut array,
                    &mut sl,
                    &mut latches,
                    &rn_rows,
                    Fixed::from_u8(x),
                    10,
                )
                .unwrap();
            assert_eq!(cost.sense_ops, 40);
            let sbs = array.read_row(10).unwrap();
            let expect = f64::from(x) / 256.0;
            assert!(
                (sbs.value() - expect).abs() < 0.03,
                "x={x}: {} vs {expect}",
                sbs.value()
            );
        }
    }

    #[test]
    fn extreme_operands() {
        let (mut array, _trng, rn_rows) = setup(8, 512, 11);
        let mut sl = ScoutingLogic::ideal();
        let mut latches = WriteDriverLatches::new(array.cols());
        let imsng = Imsng::new(ImsngVariant::Opt, 8).unwrap();
        imsng
            .generate(
                &mut array,
                &mut sl,
                &mut latches,
                &rn_rows,
                Fixed::from_u8(0),
                9,
            )
            .unwrap();
        assert_eq!(array.read_row(9).unwrap().count_ones(), 0);
        imsng
            .generate(
                &mut array,
                &mut sl,
                &mut latches,
                &rn_rows,
                Fixed::from_u8(255),
                9,
            )
            .unwrap();
        // 255/256 ≈ 1: nearly every random number is below the operand.
        assert!(array.read_row(9).unwrap().value() > 0.95);
    }

    #[test]
    fn shared_rn_rows_produce_correlated_streams() {
        let (mut array, _trng, rn_rows) = setup(8, 2048, 12);
        let mut sl = ScoutingLogic::ideal();
        let mut latches = WriteDriverLatches::new(array.cols());
        let imsng = Imsng::new(ImsngVariant::Opt, 8).unwrap();
        imsng
            .generate(
                &mut array,
                &mut sl,
                &mut latches,
                &rn_rows,
                Fixed::from_u8(80),
                9,
            )
            .unwrap();
        let sx = array.read_row(9).unwrap();
        imsng
            .generate(
                &mut array,
                &mut sl,
                &mut latches,
                &rn_rows,
                Fixed::from_u8(160),
                10,
            )
            .unwrap();
        let sy = array.read_row(10).unwrap();
        // x < y with shared randomness: every x-one is a y-one.
        let both = sx.and(&sy).unwrap();
        assert_eq!(both.count_ones(), sx.count_ones());
        assert!(sc_core::correlation::scc(&sx, &sy).unwrap() > 0.99);
    }

    #[test]
    fn cost_model_matches_variant_write_counts() {
        for (variant, writes) in [
            (ImsngVariant::Baseline, 32),
            (ImsngVariant::Naive, 16),
            (ImsngVariant::Opt, 0),
        ] {
            let (mut array, _trng, rn_rows) = setup(8, 64, 13);
            let mut sl = ScoutingLogic::ideal();
            let mut latches = WriteDriverLatches::new(array.cols());
            let imsng = Imsng::new(variant, 8).unwrap();
            let cost = imsng
                .generate(
                    &mut array,
                    &mut sl,
                    &mut latches,
                    &rn_rows,
                    Fixed::from_u8(99),
                    9,
                )
                .unwrap();
            assert_eq!(cost.intermediate_writes, writes, "{variant:?}");
            let schedule = crate::comparator::ComparatorSchedule::new(8, variant);
            assert_eq!(cost.intermediate_writes, schedule.array_writes() as u64);
            assert_eq!(cost.sense_ops, schedule.sense_ops() as u64);
            assert_eq!(cost.sbs_writes, 1);
            assert_eq!(cost.trng_rows, 8);
        }
    }

    #[test]
    fn opt_anchor_costs_reproduced() {
        let costs = ReramCosts::calibrated();
        let c = ImsngCost {
            sense_ops: 40,
            intermediate_writes: 0,
            sbs_writes: 1,
            trng_rows: 8,
        };
        assert!((c.latency_ns(&costs) - 78.2).abs() < 0.01);
        assert!((c.energy_nj(&costs, 256) - 3.42).abs() < 0.03);
        let naive = ImsngCost {
            sense_ops: 40,
            intermediate_writes: 16,
            sbs_writes: 1,
            trng_rows: 8,
        };
        assert!((naive.latency_ns(&costs) - 395.4).abs() < 0.1);
        assert!((naive.energy_nj(&costs, 256) - 10.23).abs() < 0.1);
    }

    #[test]
    fn narrow_segments_quantize() {
        let (mut array, _trng, rn_rows) = setup(5, 4096, 14);
        let mut sl = ScoutingLogic::ideal();
        let mut latches = WriteDriverLatches::new(array.cols());
        let imsng = Imsng::new(ImsngVariant::Opt, 5).unwrap();
        imsng
            .generate(
                &mut array,
                &mut sl,
                &mut latches,
                &rn_rows,
                Fixed::from_u8(100),
                6,
            )
            .unwrap();
        let sbs = array.read_row(6).unwrap();
        // 100/256 requantized to 5 bits: round(100/8)/32 = 13/32 ≈ 0.406.
        assert!((sbs.value() - 13.0 / 32.0).abs() < 0.03, "{}", sbs.value());
    }

    #[test]
    fn faults_perturb_generation() {
        let (mut array, _trng, rn_rows) = setup(8, 1024, 15);
        let mut sl = ScoutingLogic::with_faults(FaultRates::uniform(0.05), 9);
        let mut latches = WriteDriverLatches::new(array.cols());
        let imsng = Imsng::new(ImsngVariant::Opt, 8).unwrap();
        imsng
            .generate(
                &mut array,
                &mut sl,
                &mut latches,
                &rn_rows,
                Fixed::from_u8(128),
                9,
            )
            .unwrap();
        let noisy = array.read_row(9).unwrap();
        // Value still roughly tracks under 5% sensing faults (SC
        // robustness) but the stream differs from the fault-free one.
        assert!((noisy.value() - 0.5).abs() < 0.1, "{}", noisy.value());
        assert!(sl.faults_injected() > 0);
    }

    #[test]
    fn wrong_row_count_rejected() {
        let (mut array, _trng, _) = setup(8, 64, 16);
        let mut sl = ScoutingLogic::ideal();
        let mut latches = WriteDriverLatches::new(array.cols());
        let imsng = Imsng::new(ImsngVariant::Opt, 8).unwrap();
        let e = imsng.generate(
            &mut array,
            &mut sl,
            &mut latches,
            &[0, 1, 2],
            Fixed::from_u8(1),
            9,
        );
        assert!(matches!(e, Err(ImscError::InvalidConfig(_))));
    }

    #[test]
    fn invalid_segment_bits_rejected() {
        assert!(Imsng::new(ImsngVariant::Opt, 0).is_err());
        assert!(Imsng::new(ImsngVariant::Opt, 17).is_err());
    }
}
