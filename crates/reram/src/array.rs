//! 1T1R crossbar array with row-granular access and multi-row activation.
//!
//! The array is the Fig. 1(a) structure: wordline rows holding binary
//! data, random-number rows, and generated stochastic bit-streams; bitline
//! columns shared by the scouting-logic sense amplifiers.
//!
//! # Packed digital fast path
//!
//! The scouting-logic substrate executes bulk bitwise operations
//! row-parallel in a single sensing cycle, so the *digital* state of a row
//! is, semantically, a machine word vector — exactly the representation
//! [`BitStream`] already uses. The array therefore stores programmed
//! states as packed `u64` words (`⌈cols/64⌉` per row): `write_row`,
//! `read_row`, and the digital scouting path run word-at-a-time instead of
//! cell-by-cell.
//!
//! The *analog* quantities (per-cell drawn resistances feeding
//! [`CrossbarArray::column_current`] and the sense model) are materialized
//! lazily on first analog access and kept in sync by differential writes
//! afterwards, so fault-rate derivation ([`crate::vcm`]) sees the same
//! lognormal variability model as before while purely digital workloads
//! never pay for it. Per-bit write work exists only to redraw that analog
//! state; endurance is per-row wear, never per cell.

use crate::cell::{read_current_from, sample_resistance, CellState, DeviceParams};
use crate::error::ReramError;
use crate::math::GaussianSampler;
use sc_core::BitStream;

/// A 2-D grid of ReRAM cells with packed digital state and lazily drawn
/// per-cell resistances.
///
/// Reads and writes are counted for energy accounting, and every row
/// carries a wear count for endurance studies (one tick per wordline
/// program pulse). Digital reads are noiseless; the analog path
/// ([`CrossbarArray::column_current`]) includes read noise and HRS
/// instability and feeds the scouting-logic sense model.
#[derive(Debug, Clone)]
pub struct CrossbarArray {
    rows: usize,
    cols: usize,
    words_per_row: usize,
    /// Packed programmed states, row-major: bit = 1 ⇔ LRS.
    words: Vec<u64>,
    /// Per-cell drawn resistances, materialized on first analog access.
    resistances: Option<Vec<f64>>,
    params: DeviceParams,
    sampler: GaussianSampler,
    row_writes: u64,
    row_reads: u64,
    /// Per-row write-operation counts (wear map for endurance-aware
    /// allocation): one tick per `write_row`, regardless of how many
    /// cells the differential write actually reprogrammed — the wordline
    /// pulse stresses the whole row — and one per `write_bit` that flips
    /// its cell.
    row_wear: Vec<u64>,
}

impl CrossbarArray {
    /// Creates an array with every cell programmed to HRS (logic 0), using
    /// default device parameters.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` is zero.
    #[must_use]
    pub fn pristine(rows: usize, cols: usize, seed: u64) -> Self {
        Self::with_params(rows, cols, DeviceParams::default(), seed)
    }

    /// Creates an all-HRS array with explicit device parameters.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` is zero.
    #[must_use]
    pub fn with_params(rows: usize, cols: usize, params: DeviceParams, seed: u64) -> Self {
        assert!(rows > 0 && cols > 0, "array dimensions must be nonzero");
        let words_per_row = cols.div_ceil(64);
        CrossbarArray {
            rows,
            cols,
            words_per_row,
            words: vec![0; rows * words_per_row],
            resistances: None,
            params,
            sampler: GaussianSampler::new(seed),
            row_writes: 0,
            row_reads: 0,
            row_wear: vec![0; rows],
        }
    }

    /// Number of wordline rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of bitline columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Packed words per row (`⌈cols/64⌉`).
    #[must_use]
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// The device parameters of this array.
    #[must_use]
    pub fn params(&self) -> &DeviceParams {
        &self.params
    }

    /// Total row-write operations issued (energy/endurance accounting).
    #[must_use]
    pub fn row_writes(&self) -> u64 {
        self.row_writes
    }

    /// Total row-read (or multi-row activation) operations issued.
    #[must_use]
    pub fn row_reads(&self) -> u64 {
        self.row_reads
    }

    /// Per-row write-operation counts, indexed by physical row (the wear
    /// map consumed by endurance-aware row allocation).
    #[must_use]
    pub fn wear(&self) -> &[u64] {
        &self.row_wear
    }

    /// The write-operation count of one physical row.
    ///
    /// # Errors
    ///
    /// Returns [`ReramError::RowOutOfRange`] if `row` exceeds the height.
    pub fn row_wear(&self, row: usize) -> Result<u64, ReramError> {
        self.check_row(row)?;
        Ok(self.row_wear[row])
    }

    /// Whether the analog per-cell state has been materialized.
    #[must_use]
    pub fn analog_materialized(&self) -> bool {
        self.resistances.is_some()
    }

    fn idx(&self, row: usize, col: usize) -> usize {
        row * self.cols + col
    }

    fn check_row(&self, row: usize) -> Result<(), ReramError> {
        if row >= self.rows {
            Err(ReramError::RowOutOfRange {
                row,
                rows: self.rows,
            })
        } else {
            Ok(())
        }
    }

    fn check_col(&self, col: usize) -> Result<(), ReramError> {
        if col >= self.cols {
            Err(ReramError::ColOutOfRange {
                col,
                cols: self.cols,
            })
        } else {
            Ok(())
        }
    }

    /// The packed digital words of a row (bit = 1 ⇔ LRS). Does not count
    /// as a sensed read; the scouting engine records activations through
    /// [`CrossbarArray::activate_rows`].
    ///
    /// # Errors
    ///
    /// Returns [`ReramError::RowOutOfRange`] if `row` exceeds the height.
    pub fn row_words(&self, row: usize) -> Result<&[u64], ReramError> {
        self.check_row(row)?;
        let start = row * self.words_per_row;
        Ok(&self.words[start..start + self.words_per_row])
    }

    /// Validates a set of operand rows and records one multi-row
    /// activation per row (the accounting hook of the scouting engine's
    /// digital fast path, mirroring the per-row sensed reads of the
    /// original cell-by-cell implementation).
    ///
    /// # Errors
    ///
    /// Returns [`ReramError::RowOutOfRange`] for any out-of-range row.
    pub fn activate_rows(&mut self, rows: &[usize]) -> Result<(), ReramError> {
        for &row in rows {
            self.check_row(row)?;
        }
        self.row_reads += rows.len() as u64;
        Ok(())
    }

    /// Draws per-cell resistances for the current programmed states.
    /// Called on first analog access; afterwards differential writes keep
    /// the drawn values in sync (reprogrammed cells redraw, untouched
    /// cells keep their resistance — the same cycle-to-cycle variability
    /// semantics as the per-cell model).
    fn materialize_analog(&mut self) {
        if self.resistances.is_some() {
            return;
        }
        let mut resistances = Vec::with_capacity(self.rows * self.cols);
        for row in 0..self.rows {
            let base = row * self.words_per_row;
            for col in 0..self.cols {
                let bit = (self.words[base + col / 64] >> (col % 64)) & 1 == 1;
                resistances.push(sample_resistance(
                    CellState::from_bool(bit),
                    &self.params,
                    &mut self.sampler,
                ));
            }
        }
        self.resistances = Some(resistances);
    }

    /// Writes a full row from a bit-stream (differential write: only cells
    /// whose value changes are reprogrammed, as the L0/L1 latch pair
    /// implements in hardware) word-at-a-time: XOR, popcount, store, one
    /// tick of row wear. Per-bit work runs only to redraw the flipped cells'
    /// resistances once analog state is materialized.
    ///
    /// Returns the number of cells actually reprogrammed.
    ///
    /// # Errors
    ///
    /// * [`ReramError::RowOutOfRange`] — `row` exceeds the array height.
    /// * [`ReramError::WidthMismatch`] — `data.len() != cols`.
    pub fn write_row(&mut self, row: usize, data: &BitStream) -> Result<usize, ReramError> {
        self.check_row(row)?;
        if data.len() != self.cols {
            return Err(ReramError::WidthMismatch {
                data: data.len(),
                cols: self.cols,
            });
        }
        self.row_writes += 1;
        self.row_wear[row] += 1;
        let base = row * self.words_per_row;
        let cell_base = row * self.cols;
        let mut changed = 0usize;
        for (w, &new) in data.as_words().iter().enumerate() {
            let mut diff = self.words[base + w] ^ new;
            changed += diff.count_ones() as usize;
            self.words[base + w] = new;
            // Analog redraw only for the flipped bits.
            if let Some(res) = self.resistances.as_mut() {
                while diff != 0 {
                    let bit = diff.trailing_zeros() as usize;
                    diff &= diff - 1;
                    let state = CellState::from_bool(new >> bit & 1 == 1);
                    res[cell_base + w * 64 + bit] =
                        sample_resistance(state, &self.params, &mut self.sampler);
                }
            }
        }
        Ok(changed)
    }

    /// Reads a full row digitally (programmed states, no analog noise) —
    /// a single word-level copy of the packed row.
    ///
    /// # Errors
    ///
    /// Returns [`ReramError::RowOutOfRange`] if `row` exceeds the height.
    pub fn read_row(&mut self, row: usize) -> Result<BitStream, ReramError> {
        self.check_row(row)?;
        self.row_reads += 1;
        let start = row * self.words_per_row;
        Ok(BitStream::from_words(
            self.words[start..start + self.words_per_row].to_vec(),
            self.cols,
        ))
    }

    /// Reads a single cell's programmed state.
    ///
    /// # Errors
    ///
    /// Returns a range error for out-of-bounds coordinates.
    pub fn read_bit(&self, row: usize, col: usize) -> Result<bool, ReramError> {
        self.check_row(row)?;
        self.check_col(col)?;
        let w = row * self.words_per_row + col / 64;
        Ok((self.words[w] >> (col % 64)) & 1 == 1)
    }

    /// Writes a single cell. A real flip pulses the wordline and ticks the
    /// row's wear; writing the value already stored is a no-op.
    ///
    /// # Errors
    ///
    /// Returns a range error for out-of-bounds coordinates.
    pub fn write_bit(&mut self, row: usize, col: usize, bit: bool) -> Result<(), ReramError> {
        self.check_row(row)?;
        self.check_col(col)?;
        let w = row * self.words_per_row + col / 64;
        let mask = 1u64 << (col % 64);
        let old = self.words[w] & mask != 0;
        if old == bit {
            return Ok(());
        }
        self.words[w] ^= mask;
        self.row_wear[row] += 1;
        let i = self.idx(row, col);
        if let Some(res) = self.resistances.as_mut() {
            res[i] = sample_resistance(CellState::from_bool(bit), &self.params, &mut self.sampler);
        }
        Ok(())
    }

    /// Analog multi-row activation: the total bitline current (amperes)
    /// through `col` when every row in `active_rows` is asserted — the raw
    /// quantity the scouting-logic sense amplifier compares against its
    /// reference current.
    ///
    /// Materializes the per-cell resistances on first use.
    ///
    /// # Errors
    ///
    /// Returns a range error for out-of-bounds coordinates.
    pub fn column_current(&mut self, active_rows: &[usize], col: usize) -> Result<f64, ReramError> {
        self.check_col(col)?;
        for &row in active_rows {
            self.check_row(row)?;
        }
        self.materialize_analog();
        let res = self.resistances.as_ref().expect("just materialized");
        let mut total = 0.0;
        for &row in active_rows {
            let i = row * self.cols + col;
            let bit = (self.words[row * self.words_per_row + col / 64] >> (col % 64)) & 1 == 1;
            total += read_current_from(
                CellState::from_bool(bit),
                res[i],
                &self.params,
                &mut self.sampler,
            );
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read_round_trips() {
        let mut a = CrossbarArray::pristine(4, 128, 1);
        let data = BitStream::from_fn(128, |i| i % 3 == 0);
        a.write_row(2, &data).unwrap();
        assert_eq!(a.read_row(2).unwrap(), data);
        assert_eq!(a.read_row(0).unwrap().count_ones(), 0);
    }

    #[test]
    fn differential_write_counts_changed_cells() {
        let mut a = CrossbarArray::pristine(2, 64, 2);
        let data = BitStream::from_fn(64, |i| i < 10);
        let changed = a.write_row(0, &data).unwrap();
        assert_eq!(changed, 10); // pristine array: only the new ones flip
        let changed = a.write_row(0, &data).unwrap();
        assert_eq!(changed, 0); // rewriting identical data programs nothing
    }

    #[test]
    fn out_of_range_errors() {
        let mut a = CrossbarArray::pristine(2, 8, 3);
        assert!(matches!(
            a.read_row(2),
            Err(ReramError::RowOutOfRange { .. })
        ));
        assert!(matches!(
            a.write_row(0, &BitStream::zeros(9)),
            Err(ReramError::WidthMismatch { .. })
        ));
        assert!(matches!(
            a.read_bit(0, 8),
            Err(ReramError::ColOutOfRange { .. })
        ));
    }

    #[test]
    fn column_current_scales_with_lrs_count() {
        let mut a = CrossbarArray::pristine(3, 4, 4);
        a.write_row(0, &BitStream::ones(4)).unwrap();
        a.write_row(1, &BitStream::ones(4)).unwrap();
        // rows 0,1 LRS; row 2 HRS.
        let i2 = a.column_current(&[0, 1], 0).unwrap();
        let i1 = a.column_current(&[0], 0).unwrap();
        let i0 = a.column_current(&[2], 0).unwrap();
        assert!(i2 > 1.5 * i1, "i2 {i2} vs i1 {i1}");
        assert!(i1 > 5.0 * i0, "i1 {i1} vs i0 {i0}");
    }

    #[test]
    fn stats_accumulate() {
        let mut a = CrossbarArray::pristine(2, 8, 5);
        a.write_row(0, &BitStream::ones(8)).unwrap();
        a.read_row(0).unwrap();
        a.read_row(1).unwrap();
        assert_eq!(a.row_writes(), 1);
        assert_eq!(a.row_reads(), 2);
        assert_eq!(a.wear(), &[1, 0]);
    }

    #[test]
    fn wear_map_counts_row_writes() {
        let mut a = CrossbarArray::pristine(4, 64, 11);
        let data = BitStream::from_fn(64, |i| i % 2 == 0);
        a.write_row(1, &data).unwrap();
        a.write_row(1, &data).unwrap(); // identical data still wears the row
        a.write_row(3, &data).unwrap();
        assert_eq!(a.wear(), &[0, 2, 0, 1]);
        assert_eq!(a.row_wear(1).unwrap(), 2);
        assert!(a.row_wear(4).is_err());
    }

    #[test]
    fn write_bit_updates_single_cell() {
        let mut a = CrossbarArray::pristine(1, 8, 6);
        a.write_bit(0, 3, true).unwrap();
        assert!(a.read_bit(0, 3).unwrap());
        assert!(!a.read_bit(0, 2).unwrap());
    }

    #[test]
    fn write_bit_ticks_wear_only_on_a_real_flip() {
        let mut a = CrossbarArray::pristine(2, 8, 12);
        for (col, bit) in [(3, false), (3, true), (3, true), (5, true), (3, false)] {
            a.write_bit(1, col, bit).unwrap();
        }
        assert_eq!(a.wear(), &[0, 3]); // the two no-op writes programmed nothing
        assert_eq!(a.row_writes(), 0);
        // Only col 5 of row 1 holds a 1; no neighbour or other row changed.
        assert_eq!(a.row_words(1).unwrap(), &[1 << 5]);
        assert_eq!(a.row_words(0).unwrap(), &[0]);
    }

    #[test]
    fn digital_writes_never_materialize_analog_state() {
        let mut a = CrossbarArray::pristine(4, 200, 13);
        for i in 0..32 {
            a.write_row(i % 4, &BitStream::from_fn(200, |c| (c * 7 + i) % 5 < 2))
                .unwrap();
            a.read_row(i % 4).unwrap();
        }
        assert!(!a.analog_materialized());
        assert_eq!(a.wear(), &[8, 8, 8, 8]);
    }

    #[test]
    fn analog_write_redraws_exactly_the_flipped_cells() {
        let (old, new) = (
            |c: usize| c.is_multiple_of(3),
            |c: usize| c.is_multiple_of(2),
        );
        let mut a = CrossbarArray::pristine(2, 130, 14);
        a.write_row(0, &BitStream::from_fn(130, old)).unwrap();
        a.column_current(&[0], 0).unwrap();
        let before = a.resistances.clone().unwrap();
        a.write_row(0, &BitStream::from_fn(130, new)).unwrap();
        for (i, (b, n)) in before
            .iter()
            .zip(a.resistances.as_ref().unwrap())
            .enumerate()
        {
            let flipped = i < 130 && old(i) != new(i);
            assert_eq!(b != n, flipped, "cell ({}, {})", i / 130, i % 130);
        }
    }

    #[test]
    fn analog_state_is_lazy_and_tracks_writes() {
        let mut a = CrossbarArray::pristine(2, 70, 7);
        a.write_row(0, &BitStream::ones(70)).unwrap();
        assert!(!a.analog_materialized());
        let i_before = a.column_current(&[0], 3).unwrap();
        assert!(a.analog_materialized());
        assert!(i_before > 0.0);
        // Reprogramming to HRS must drop the cell current by orders of
        // magnitude (the resistance is redrawn for the new state).
        a.write_row(0, &BitStream::zeros(70)).unwrap();
        let mut lrs_min = f64::MAX;
        let mut hrs_max: f64 = 0.0;
        let mut b = CrossbarArray::pristine(1, 70, 8);
        b.write_row(0, &BitStream::ones(70)).unwrap();
        for _ in 0..50 {
            lrs_min = lrs_min.min(b.column_current(&[0], 3).unwrap());
            hrs_max = hrs_max.max(a.column_current(&[0], 3).unwrap());
        }
        assert!(lrs_min > hrs_max, "lrs {lrs_min} vs hrs {hrs_max}");
    }

    #[test]
    fn row_words_expose_packed_state() {
        let mut a = CrossbarArray::pristine(2, 130, 9);
        let data = BitStream::from_fn(130, |i| i % 7 == 0);
        a.write_row(1, &data).unwrap();
        assert_eq!(a.words_per_row(), 3);
        assert_eq!(a.row_words(1).unwrap(), data.as_words());
        assert!(a.row_words(2).is_err());
    }

    #[test]
    fn activate_rows_counts_reads() {
        let mut a = CrossbarArray::pristine(4, 16, 10);
        a.activate_rows(&[0, 1, 2]).unwrap();
        assert_eq!(a.row_reads(), 3);
        assert!(a.activate_rows(&[4]).is_err());
        assert_eq!(a.row_reads(), 3);
    }
}
