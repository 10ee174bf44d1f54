//! Scouting logic: single-cycle bulk bitwise operations via multi-row
//! reads (Xie et al., ISVLSI'17; enhanced variant of Yu et al.).
//!
//! A [`ScoutingLogic`] engine executes Boolean operations over whole rows
//! of a [`CrossbarArray`] in one sensing step per operation. Three
//! execution modes cover the paper's methodology:
//!
//! * **Ideal** — digital truth, no faults (the ✗ columns of Table IV).
//! * **FaultInjected** — digital truth plus seeded per-op bit flips at
//!   rates derived from the device model (the ✓ columns).
//! * **Analog** — full Monte-Carlo sensing: per-column current summation
//!   with lognormal cell variability, read noise and HRS instability,
//!   compared against the sense-amplifier references. Used to *derive*
//!   the fault rates (see [`crate::vcm`]).

use crate::array::CrossbarArray;
use crate::error::ReramError;
use crate::faults::{FaultInjector, FaultRates};
use crate::sense::SenseAmp;
use sc_core::BitStream;

/// The Boolean operations scouting logic realizes in a single cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SlOp {
    /// k-input AND (reference: ≥ k LRS cells).
    And,
    /// k-input OR (reference: ≥ 1 LRS cell).
    Or,
    /// 2-input XOR (window detector on the L0/L1 pair).
    Xor,
    /// k-input NAND.
    Nand,
    /// k-input NOR.
    Nor,
    /// 2-input XNOR.
    Xnor,
    /// 3-input majority (reference: ≥ 2 LRS cells — the same reference as
    /// 2-input AND, as the paper notes).
    Maj,
    /// Single-row NOT (inverted read).
    Not,
}

impl SlOp {
    /// The human-readable mnemonic.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SlOp::And => "AND",
            SlOp::Or => "OR",
            SlOp::Xor => "XOR",
            SlOp::Nand => "NAND",
            SlOp::Nor => "NOR",
            SlOp::Xnor => "XNOR",
            SlOp::Maj => "MAJ",
            SlOp::Not => "NOT",
        }
    }

    fn check_operands(self, got: usize) -> Result<(), ReramError> {
        let ok = match self {
            SlOp::Xor | SlOp::Xnor => got == 2,
            SlOp::Maj => got == 3,
            SlOp::Not => got == 1,
            SlOp::And | SlOp::Or | SlOp::Nand | SlOp::Nor => got >= 2,
        };
        if ok {
            Ok(())
        } else {
            let expected = match self {
                SlOp::Xor | SlOp::Xnor => 2,
                SlOp::Maj => 3,
                SlOp::Not => 1,
                _ => 2,
            };
            Err(ReramError::BadOperandCount {
                op: self.name(),
                got,
                expected,
            })
        }
    }

    /// Combines one column's operand bits — the per-cell truth-table
    /// semantics, kept as the reference for the packed word path.
    #[must_use]
    pub fn combine(self, bits: &[bool]) -> bool {
        match self {
            SlOp::And => bits.iter().all(|&b| b),
            SlOp::Nand => !bits.iter().all(|&b| b),
            SlOp::Or => bits.iter().any(|&b| b),
            SlOp::Nor => !bits.iter().any(|&b| b),
            SlOp::Xor => (bits.iter().filter(|&&b| b).count() % 2) == 1,
            SlOp::Xnor => (bits.iter().filter(|&&b| b).count() % 2) == 0,
            SlOp::Maj => bits.iter().filter(|&&b| b).count() >= 2,
            SlOp::Not => !bits[0],
        }
    }

    /// Whether the op's word-level form is a complemented accumulation.
    fn inverted(self) -> bool {
        matches!(self, SlOp::Nand | SlOp::Nor | SlOp::Xnor | SlOp::Not)
    }
}

/// Execution mode of the scouting-logic engine.
#[derive(Debug, Clone)]
enum Mode {
    Ideal,
    FaultInjected(Box<FaultInjector>),
    Analog,
}

/// The scouting-logic execution engine.
///
/// The engine owns one row-wide result buffer, the modeled sense-amplifier
/// outputs. [`ScoutingLogic::execute_in_place`] senses into it (and, under
/// fault injection, corrupts it in place); the result stays there until
/// the next operation on this engine overwrites it, so a caller writes it
/// to its destination row straight from [`ScoutingLogic::result`] with no
/// temporary. The buffer follows the width of the last array sensed.
///
/// # Example
///
/// ```
/// use reram::array::CrossbarArray;
/// use reram::scouting::{ScoutingLogic, SlOp};
/// use sc_core::BitStream;
///
/// # fn main() -> Result<(), reram::ReramError> {
/// let mut array = CrossbarArray::pristine(4, 32, 9);
/// array.write_row(0, &BitStream::from_fn(32, |i| i < 16))?;
/// array.write_row(1, &BitStream::from_fn(32, |i| i >= 8))?;
/// let mut sl = ScoutingLogic::ideal();
/// let xor = sl.execute_in_place(&mut array, SlOp::Xor, &[0, 1])?;
/// assert_eq!(xor.count_ones(), 24);
/// array.write_row(2, sl.result())?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ScoutingLogic {
    mode: Mode,
    ops_executed: u64,
    result: BitStream,
}

impl ScoutingLogic {
    fn with_mode(mode: Mode) -> Self {
        ScoutingLogic {
            mode,
            ops_executed: 0,
            result: BitStream::zeros(0),
        }
    }

    /// Creates a fault-free, digitally exact engine.
    #[must_use]
    pub fn ideal() -> Self {
        Self::with_mode(Mode::Ideal)
    }

    /// Creates an engine that injects per-op bit flips at the given rates.
    #[must_use]
    pub fn with_faults(rates: FaultRates, seed: u64) -> Self {
        Self::with_mode(Mode::FaultInjected(Box::new(FaultInjector::new(
            rates, seed,
        ))))
    }

    /// Creates an engine that senses analog bitline currents against the
    /// calibrated references (slow; used for failure-rate derivation).
    #[must_use]
    pub fn analog() -> Self {
        Self::with_mode(Mode::Analog)
    }

    /// Number of scouting-logic operations executed.
    #[must_use]
    pub fn ops_executed(&self) -> u64 {
        self.ops_executed
    }

    /// Total faults injected (zero unless in fault-injection mode).
    #[must_use]
    pub fn faults_injected(&self) -> u64 {
        match &self.mode {
            Mode::FaultInjected(inj) => inj.injected(),
            _ => 0,
        }
    }

    /// The result of the last [`ScoutingLogic::execute_in_place`] (empty
    /// before the first one). Valid until the next operation.
    #[must_use]
    pub fn result(&self) -> &BitStream {
        &self.result
    }

    /// Executes `op` over the given operand rows, returning the row-wide
    /// result. Immutable-array convenience for ideal mode; see
    /// [`ScoutingLogic::execute_in_place`] for the general form.
    ///
    /// # Errors
    ///
    /// * [`ReramError::BadOperandCount`] — operand count unsupported.
    /// * [`ReramError::RowOutOfRange`] — a row index is out of range.
    pub fn execute(
        &self,
        array: &CrossbarArray,
        op: SlOp,
        rows: &[usize],
    ) -> Result<BitStream, ReramError> {
        op.check_operands(rows.len())?;
        let mut out = BitStream::zeros(array.cols());
        Self::digital_into(array, op, rows, &mut out)?;
        Ok(out)
    }

    /// Executes `op` with full mode semantics into the engine's result
    /// buffer and returns a copy of it — [`ScoutingLogic::execute_in_place`]
    /// for callers that keep the result past the next operation.
    ///
    /// # Errors
    ///
    /// Same as [`ScoutingLogic::execute_in_place`].
    pub fn execute_mut(
        &mut self,
        array: &mut CrossbarArray,
        op: SlOp,
        rows: &[usize],
    ) -> Result<BitStream, ReramError> {
        self.execute_in_place(array, op, rows).cloned()
    }

    /// Executes `op` over the operand rows with full mode semantics
    /// (fault injection or analog sensing), updating statistics. The
    /// result lands in the engine's own buffer, which the returned
    /// reference borrows; no allocation once the buffer has the array's
    /// width.
    ///
    /// # Errors
    ///
    /// * [`ReramError::BadOperandCount`] — operand count unsupported.
    /// * [`ReramError::RowOutOfRange`] — a row index is out of range.
    pub fn execute_in_place(
        &mut self,
        array: &mut CrossbarArray,
        op: SlOp,
        rows: &[usize],
    ) -> Result<&BitStream, ReramError> {
        op.check_operands(rows.len())?;
        self.ops_executed += 1;
        if self.result.len() != array.cols() {
            self.result = BitStream::zeros(array.cols());
        }
        match &mut self.mode {
            Mode::Analog => Self::analog_sense(array, op, rows, &mut self.result)?,
            digital => {
                array.activate_rows(rows)?;
                Self::digital_into(array, op, rows, &mut self.result)?;
                if let Mode::FaultInjected(inj) = digital {
                    inj.corrupt_op_output(op, &mut self.result);
                }
            }
        }
        Ok(&self.result)
    }

    /// Records per-op statistics for work that was modeled but not
    /// re-simulated (e.g. the accelerator's encode cache replaying an
    /// identical conversion). Keeps `ops_executed` faithful to the
    /// hardware schedule.
    pub fn note_ops(&mut self, n: u64) {
        self.ops_executed += n;
    }

    /// The packed kernel: combines whole 64-bit words of the operand rows
    /// per machine op instead of iterating cells, overwriting `out` (which
    /// has the array's width). One word op per `⌈cols/64⌉` chunk models the
    /// single-sensing-cycle row-parallelism of the hardware.
    fn digital_into(
        array: &CrossbarArray,
        op: SlOp,
        rows: &[usize],
        out: &mut BitStream,
    ) -> Result<(), ReramError> {
        let first = array.row_words(rows[0])?;
        out.assign_words(|acc| {
            acc.copy_from_slice(first);
            match op {
                SlOp::And | SlOp::Nand => {
                    for &r in &rows[1..] {
                        for (a, &b) in acc.iter_mut().zip(array.row_words(r)?) {
                            *a &= b;
                        }
                    }
                }
                SlOp::Or | SlOp::Nor => {
                    for &r in &rows[1..] {
                        for (a, &b) in acc.iter_mut().zip(array.row_words(r)?) {
                            *a |= b;
                        }
                    }
                }
                SlOp::Xor | SlOp::Xnor => {
                    for (a, &b) in acc.iter_mut().zip(array.row_words(rows[1])?) {
                        *a ^= b;
                    }
                }
                SlOp::Maj => {
                    let b = array.row_words(rows[1])?;
                    let c = array.row_words(rows[2])?;
                    for ((a, &b), &c) in acc.iter_mut().zip(b).zip(c) {
                        *a = (*a & b) | (*a & c) | (b & c);
                    }
                }
                SlOp::Not => {}
            }
            if op.inverted() {
                for a in acc.iter_mut() {
                    *a = !*a;
                }
            }
            // assign_words masks the bits beyond `cols` in the last word.
            Ok(())
        })
    }

    /// The cell-by-cell reference implementation of the digital path:
    /// reads every operand bit individually and applies the per-column
    /// truth table. Kept public so differential tests (and benches) can
    /// prove the packed word path bit-exact against it.
    ///
    /// # Errors
    ///
    /// * [`ReramError::BadOperandCount`] — operand count unsupported.
    /// * [`ReramError::RowOutOfRange`] — a row index is out of range.
    pub fn digital_reference(
        array: &CrossbarArray,
        op: SlOp,
        rows: &[usize],
    ) -> Result<BitStream, ReramError> {
        op.check_operands(rows.len())?;
        for &r in rows {
            // Surface range errors exactly like the packed path.
            array.row_words(r)?;
        }
        let cols = array.cols();
        let mut bits = vec![false; rows.len()];
        let mut out = BitStream::zeros(cols);
        for col in 0..cols {
            for (slot, &r) in bits.iter_mut().zip(rows) {
                *slot = array.read_bit(r, col)?;
            }
            if op.combine(&bits) {
                out.set(col, true);
            }
        }
        Ok(out)
    }

    fn analog_sense(
        array: &mut CrossbarArray,
        op: SlOp,
        rows: &[usize],
        out: &mut BitStream,
    ) -> Result<(), ReramError> {
        let amp = SenseAmp::calibrated(array.params());
        out.assign_words(|w| w.fill(0));
        for col in 0..array.cols() {
            let current = array.column_current(rows, col)?;
            let bit = match op {
                SlOp::Or => amp.sense_at_least(current, 1)?,
                SlOp::Nor => !amp.sense_at_least(current, 1)?,
                SlOp::And => amp.sense_at_least(current, rows.len())?,
                SlOp::Nand => !amp.sense_at_least(current, rows.len())?,
                SlOp::Xor => amp.sense_exactly_one(current)?,
                SlOp::Xnor => !amp.sense_exactly_one(current)?,
                SlOp::Maj => amp.sense_at_least(current, 2)?,
                SlOp::Not => !amp.sense_at_least(current, 1)?,
            };
            if bit {
                out.set(col, true);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> CrossbarArray {
        let mut a = CrossbarArray::pristine(4, 16, 11);
        // row0: 0101..., row1: 0011..., row2: 0000111100001111
        a.write_row(0, &BitStream::from_fn(16, |i| i % 2 == 1))
            .unwrap();
        a.write_row(1, &BitStream::from_fn(16, |i| i % 4 >= 2))
            .unwrap();
        a.write_row(2, &BitStream::from_fn(16, |i| i % 8 >= 4))
            .unwrap();
        a
    }

    #[test]
    fn ideal_ops_match_boolean_truth() {
        let mut a = setup();
        let mut sl = ScoutingLogic::ideal();
        let r0 = a.read_row(0).unwrap();
        let r1 = a.read_row(1).unwrap();
        let r2 = a.read_row(2).unwrap();

        assert_eq!(
            sl.execute_mut(&mut a, SlOp::And, &[0, 1]).unwrap(),
            r0.and(&r1).unwrap()
        );
        assert_eq!(
            sl.execute_mut(&mut a, SlOp::Or, &[0, 1]).unwrap(),
            r0.or(&r1).unwrap()
        );
        assert_eq!(
            sl.execute_mut(&mut a, SlOp::Xor, &[0, 1]).unwrap(),
            r0.xor(&r1).unwrap()
        );
        assert_eq!(
            sl.execute_mut(&mut a, SlOp::Maj, &[0, 1, 2]).unwrap(),
            r0.maj3(&r1, &r2).unwrap()
        );
        assert_eq!(sl.execute_mut(&mut a, SlOp::Not, &[0]).unwrap(), r0.not());
        assert_eq!(sl.ops_executed(), 5);
    }

    #[test]
    fn nand_nor_xnor_are_complements() {
        let mut a = setup();
        let mut sl = ScoutingLogic::ideal();
        let and = sl.execute_mut(&mut a, SlOp::And, &[0, 1]).unwrap();
        let nand = sl.execute_mut(&mut a, SlOp::Nand, &[0, 1]).unwrap();
        assert_eq!(and.not(), nand);
        let or = sl.execute_mut(&mut a, SlOp::Or, &[0, 1]).unwrap();
        let nor = sl.execute_mut(&mut a, SlOp::Nor, &[0, 1]).unwrap();
        assert_eq!(or.not(), nor);
        let xor = sl.execute_mut(&mut a, SlOp::Xor, &[0, 1]).unwrap();
        let xnor = sl.execute_mut(&mut a, SlOp::Xnor, &[0, 1]).unwrap();
        assert_eq!(xor.not(), xnor);
    }

    #[test]
    fn multi_input_and_or() {
        let mut a = setup();
        let mut sl = ScoutingLogic::ideal();
        let and3 = sl.execute_mut(&mut a, SlOp::And, &[0, 1, 2]).unwrap();
        let or3 = sl.execute_mut(&mut a, SlOp::Or, &[0, 1, 2]).unwrap();
        for col in 0..16 {
            let bits = [
                a.read_bit(0, col).unwrap(),
                a.read_bit(1, col).unwrap(),
                a.read_bit(2, col).unwrap(),
            ];
            assert_eq!(and3.get(col).unwrap(), bits.iter().all(|&b| b));
            assert_eq!(or3.get(col).unwrap(), bits.iter().any(|&b| b));
        }
    }

    #[test]
    fn operand_count_validation() {
        let mut a = setup();
        let mut sl = ScoutingLogic::ideal();
        assert!(matches!(
            sl.execute_mut(&mut a, SlOp::Xor, &[0, 1, 2]),
            Err(ReramError::BadOperandCount { .. })
        ));
        assert!(matches!(
            sl.execute_mut(&mut a, SlOp::Maj, &[0, 1]),
            Err(ReramError::BadOperandCount { .. })
        ));
        assert!(matches!(
            sl.execute_mut(&mut a, SlOp::And, &[0]),
            Err(ReramError::BadOperandCount { .. })
        ));
    }

    #[test]
    fn analog_mode_matches_digital_for_clean_devices() {
        // With tight distributions and no tails, analog sensing must agree
        // with digital truth.
        let mut params = crate::cell::DeviceParams::hfo2();
        params.lrs_sigma = 0.02;
        params.hrs_sigma = 0.02;
        params.hrs_tail_prob = 0.0;
        params.read_noise_frac = 0.005;
        let mut a = CrossbarArray::with_params(3, 64, params, 13);
        a.write_row(0, &BitStream::from_fn(64, |i| i % 2 == 0))
            .unwrap();
        a.write_row(1, &BitStream::from_fn(64, |i| i % 3 == 0))
            .unwrap();
        let mut analog = ScoutingLogic::analog();
        let mut ideal = ScoutingLogic::ideal();
        for op in [SlOp::And, SlOp::Or, SlOp::Xor] {
            let got = analog.execute_mut(&mut a, op, &[0, 1]).unwrap();
            let want = ideal.execute_mut(&mut a, op, &[0, 1]).unwrap();
            assert_eq!(got, want, "{}", op.name());
        }
    }

    #[test]
    fn fault_injection_flips_bits() {
        let mut a = setup();
        let mut sl = ScoutingLogic::with_faults(FaultRates::uniform(0.5), 5);
        let mut ideal = ScoutingLogic::ideal();
        let want = ideal.execute_mut(&mut a, SlOp::And, &[0, 1]).unwrap();
        let got = sl.execute_mut(&mut a, SlOp::And, &[0, 1]).unwrap();
        assert_ne!(got, want);
        assert!(sl.faults_injected() > 0);
    }
}
