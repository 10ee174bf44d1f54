//! Peripheral write-driver latches (Fig. 1c) and predicated sensing.
//!
//! Nonvolatile memories conventionally pair each write driver with two
//! latches (Chevallier et al., ISSCC'10): **L0** holds the data to be
//! written and **L1** holds whether the cell must actually be modified
//! (differential write). The paper's IMSNG-opt reuses exactly this pair:
//!
//! * the running comparison flag `FFlag` lives in L1, so the
//!   `AND`-with-flag steps of the greater-than network become *predicated
//!   sensing* — no intermediate result is ever written to the array;
//! * the feedback path of IMSNG-naive drives the sensed value back onto
//!   the bitline as a voltage (`Vb`), replacing 2 of the 4 intermediate
//!   writes per bit position.

use crate::error::ReramError;
use sc_core::BitStream;

/// The L0/L1 latch pair of one row-wide write-driver bank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteDriverLatches {
    /// L0 — data latch (the value to be written / forwarded).
    l0: BitStream,
    /// L1 — modify-flag latch (predication mask).
    l1: BitStream,
}

impl WriteDriverLatches {
    /// Creates a latch bank of the given width: L0 cleared, L1 all-set
    /// (every column initially active, matching the comparison-flag
    /// initialization of the greater-than network).
    #[must_use]
    pub fn new(width: usize) -> Self {
        WriteDriverLatches {
            l0: BitStream::zeros(width),
            l1: BitStream::ones(width),
        }
    }

    /// Re-initializes the bank for a new operation at `width` columns —
    /// L0 cleared, L1 all-set, as [`WriteDriverLatches::new`] — in place,
    /// reallocating only when the width changes.
    pub fn reset(&mut self, width: usize) {
        if self.width() != width {
            *self = WriteDriverLatches::new(width);
            return;
        }
        self.l0.assign_words(|w| w.fill(0));
        self.l1.assign_words(|w| w.fill(u64::MAX));
    }

    /// Width of the latch bank in columns.
    #[must_use]
    pub fn width(&self) -> usize {
        self.l0.len()
    }

    /// The data latch contents.
    #[must_use]
    pub fn data(&self) -> &BitStream {
        &self.l0
    }

    /// The flag latch contents.
    #[must_use]
    pub fn flags(&self) -> &BitStream {
        &self.l1
    }

    /// Loads the data latch.
    ///
    /// # Errors
    ///
    /// Returns [`ReramError::WidthMismatch`] if `data` has a different
    /// width.
    pub fn load_data(&mut self, data: &BitStream) -> Result<(), ReramError> {
        self.check(data)?;
        self.l0 = data.clone();
        Ok(())
    }

    /// Loads the flag latch.
    ///
    /// # Errors
    ///
    /// Returns [`ReramError::WidthMismatch`] if `flags` has a different
    /// width.
    pub fn load_flags(&mut self, flags: &BitStream) -> Result<(), ReramError> {
        self.check(flags)?;
        self.l1 = flags.clone();
        Ok(())
    }

    /// Predicated sensing: combines a fresh sense-amplifier result with
    /// the stored flags (`sensed AND L1`) *without any array write* — the
    /// core IMSNG-opt trick.
    ///
    /// # Errors
    ///
    /// Returns [`ReramError::WidthMismatch`] if `sensed` has a different
    /// width.
    pub fn predicated_sense(&self, sensed: &BitStream) -> Result<BitStream, ReramError> {
        self.check(sensed)?;
        sensed.and(&self.l1).map_err(|_| ReramError::WidthMismatch {
            data: sensed.len(),
            cols: self.width(),
        })
    }

    /// Updates the flag latch in place by ANDing it with a predicate
    /// (columns whose comparison has been decided drop out).
    ///
    /// # Errors
    ///
    /// Returns [`ReramError::WidthMismatch`] if `keep` has a different
    /// width.
    pub fn mask_flags(&mut self, keep: &BitStream) -> Result<(), ReramError> {
        self.check(keep)?;
        self.l1
            .and_assign(keep)
            .map_err(|_| ReramError::WidthMismatch {
                data: keep.len(),
                cols: self.width(),
            })
    }

    /// Clears the flags of the columns set in `decided` (`L1 ← L1 AND NOT
    /// decided`), in place — the flag update when the sensed row marks the
    /// columns that drop out rather than those that stay.
    ///
    /// # Errors
    ///
    /// Returns [`ReramError::WidthMismatch`] if `decided` has a different
    /// width.
    pub fn clear_flags(&mut self, decided: &BitStream) -> Result<(), ReramError> {
        self.check(decided)?;
        self.l1.assign_words(|flags| {
            for (f, &d) in flags.iter_mut().zip(decided.as_words()) {
                *f &= !d;
            }
        });
        Ok(())
    }

    /// Accumulates a predicated result into the data latch
    /// (`L0 ← L0 OR (sensed AND L1)`) in place, word by word — the
    /// per-bit-position update of the greater-than network.
    ///
    /// # Errors
    ///
    /// Returns [`ReramError::WidthMismatch`] if `sensed` has a different
    /// width.
    pub fn accumulate(&mut self, sensed: &BitStream) -> Result<(), ReramError> {
        self.check(sensed)?;
        let flags = self.l1.as_words();
        self.l0.assign_words(|data| {
            for ((d, &s), &f) in data.iter_mut().zip(sensed.as_words()).zip(flags) {
                *d |= s & f;
            }
        });
        Ok(())
    }

    /// Differential-write mask: the columns whose stored value differs
    /// from the latch data and therefore need programming pulses.
    ///
    /// # Errors
    ///
    /// Returns [`ReramError::WidthMismatch`] if `current` has a different
    /// width.
    pub fn write_mask(&self, current: &BitStream) -> Result<BitStream, ReramError> {
        self.check(current)?;
        self.l0.xor(current).map_err(|_| ReramError::WidthMismatch {
            data: current.len(),
            cols: self.width(),
        })
    }

    fn check(&self, s: &BitStream) -> Result<(), ReramError> {
        if s.len() != self.width() {
            Err(ReramError::WidthMismatch {
                data: s.len(),
                cols: self.width(),
            })
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_latches_have_open_flags() {
        let l = WriteDriverLatches::new(16);
        assert_eq!(l.flags().count_ones(), 16);
        assert_eq!(l.data().count_ones(), 0);
    }

    #[test]
    fn predicated_sense_gates_by_flags() {
        let mut l = WriteDriverLatches::new(8);
        l.load_flags(&BitStream::from_fn(8, |i| i < 4)).unwrap();
        let sensed = BitStream::ones(8);
        let gated = l.predicated_sense(&sensed).unwrap();
        assert_eq!(gated.count_ones(), 4);
    }

    #[test]
    fn mask_flags_narrows_monotonically() {
        let mut l = WriteDriverLatches::new(8);
        l.mask_flags(&BitStream::from_fn(8, |i| i % 2 == 0))
            .unwrap();
        l.mask_flags(&BitStream::from_fn(8, |i| i < 4)).unwrap();
        assert_eq!(l.flags().count_ones(), 2); // columns 0, 2
    }

    #[test]
    fn accumulate_ors_gated_results() {
        let mut l = WriteDriverLatches::new(8);
        l.load_flags(&BitStream::from_fn(8, |i| i < 6)).unwrap();
        l.accumulate(&BitStream::from_fn(8, |i| i % 2 == 1))
            .unwrap();
        // gated: odd columns below 6 -> 1, 3, 5
        assert_eq!(l.data().count_ones(), 3);
        l.accumulate(&BitStream::from_fn(8, |i| i == 0)).unwrap();
        assert_eq!(l.data().count_ones(), 4);
    }

    #[test]
    fn clear_flags_drops_decided_columns() {
        let mut l = WriteDriverLatches::new(70);
        l.clear_flags(&BitStream::from_fn(70, |i| i % 3 == 0))
            .unwrap();
        assert_eq!(l.flags().count_ones(), 46);
        l.accumulate(&BitStream::ones(70)).unwrap();
        assert_eq!(l.data(), l.flags());
        l.reset(70);
        assert_eq!(l, WriteDriverLatches::new(70));
        l.reset(9);
        assert_eq!(l, WriteDriverLatches::new(9));
    }

    #[test]
    fn write_mask_is_xor_with_current() {
        let mut l = WriteDriverLatches::new(4);
        l.load_data(&BitStream::from_bools([true, true, false, false]))
            .unwrap();
        let current = BitStream::from_bools([true, false, true, false]);
        let mask = l.write_mask(&current).unwrap();
        assert_eq!(mask, BitStream::from_bools([false, true, true, false]));
    }

    #[test]
    fn width_mismatch_detected() {
        let mut l = WriteDriverLatches::new(4);
        assert!(l.load_data(&BitStream::zeros(5)).is_err());
        assert!(l.predicated_sense(&BitStream::zeros(3)).is_err());
    }
}
