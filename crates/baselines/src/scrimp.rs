//! Write-based in-memory SBS generation (SCRIMP-style, paper ref.\[13\]).
//!
//! The closest prior work to the paper generates stochastic bit-streams
//! by exploiting the *probabilistic switching of the write operation*:
//! a sub-threshold SET pulse flips each cell with a probability set by
//! the pulse width/voltage (see [`reram::vcm::VcmModel`]). The paper
//! identifies two structural drawbacks that this module makes
//! measurable:
//!
//! 1. **Speed and endurance** — every generated bit is a programming
//!    event, so an `N`-bit stream costs `N` cell writes (vs. zero
//!    entropy-related writes in read-based IMSNG), burning endurance and
//!    taking write-class (~20 ns) rather than sense-class (~2 ns) time.
//! 2. **No correlation control** — switching events in different cells
//!    are physically independent, so two streams generated this way are
//!    always uncorrelated; the correlated-input operations (XOR
//!    subtraction, CORDIV division, min, max) are simply unavailable.

use reram::array::CrossbarArray;
use reram::cell::CellState;
use reram::vcm::VcmModel;
use reram::ReramError;
use sc_core::rng::Xoshiro256;
use sc_core::{BitStream, Fixed};

/// A write-based stochastic bit-stream generator.
///
/// # Example
///
/// ```
/// use baselines::scrimp::WriteBasedSng;
/// use sc_core::Fixed;
///
/// let mut sng = WriteBasedSng::new(7);
/// let s = sng.generate(Fixed::from_u8(64), 2048);
/// assert!((s.value() - 0.25).abs() < 0.05);
/// // Every bit cost one programming event:
/// assert_eq!(sng.cell_writes(), 2048);
/// ```
#[derive(Debug, Clone)]
pub struct WriteBasedSng {
    model: VcmModel,
    rng: Xoshiro256,
    cell_writes: u64,
    write_voltage: f64,
}

impl WriteBasedSng {
    /// Creates a generator over the default HfO₂ switching model at a
    /// 1.2 V sub-threshold programming voltage.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        WriteBasedSng {
            model: VcmModel::hfo2(),
            rng: Xoshiro256::seed_from_u64(seed),
            cell_writes: 0,
            write_voltage: 1.2,
        }
    }

    /// Total programming events issued (endurance accounting).
    #[must_use]
    pub fn cell_writes(&self) -> u64 {
        self.cell_writes
    }

    /// The pulse width (seconds) that targets probability `p` at the
    /// configured voltage, or `None` for degenerate targets.
    #[must_use]
    pub fn pulse_for(&self, p: f64) -> Option<f64> {
        self.model.pulse_for_probability(self.write_voltage, p)
    }

    /// Generates an `n`-bit stream for `x` by issuing `n` probabilistic
    /// SET pulses with the pulse width that targets `P(switch) = x`.
    #[must_use]
    pub fn generate(&mut self, x: Fixed, n: usize) -> BitStream {
        let p = x.to_prob().get();
        // Degenerate targets skip the pulse shaping but still program.
        let p_switch = match self.pulse_for(p) {
            Some(t) => self.model.switch_probability(self.write_voltage, t),
            None => p,
        };
        BitStream::from_fn(n, |_| {
            self.cell_writes += 1;
            self.rng.next_f64() < p_switch
        })
    }

    /// Generates directly into an array row, programming real cells (the
    /// endurance cost is visible on the row's wear: one tick for the
    /// reset plus one per SET pulse).
    ///
    /// # Errors
    ///
    /// Propagates array range errors.
    pub fn generate_into(
        &mut self,
        array: &mut CrossbarArray,
        row: usize,
        x: Fixed,
    ) -> Result<BitStream, ReramError> {
        let cols = array.cols();
        // Reset the row first (write-based generation always starts from
        // HRS), then apply the probabilistic SET pulses.
        array.write_row(row, &BitStream::zeros(cols))?;
        let bits = self.generate(x, cols);
        for col in 0..cols {
            if bits.get(col).unwrap_or(false) {
                array.write_bit(row, col, CellState::Lrs.as_bool())?;
            }
        }
        Ok(bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_core::correlation::scc;

    #[test]
    fn tracks_target_probability() {
        let mut sng = WriteBasedSng::new(1);
        for &x in &[16u8, 128, 240] {
            let s = sng.generate(Fixed::from_u8(x), 8192);
            let expect = f64::from(x) / 256.0;
            assert!(
                (s.value() - expect).abs() < 0.02,
                "x={x}: {} vs {expect}",
                s.value()
            );
        }
    }

    #[test]
    fn every_bit_is_a_programming_event() {
        let mut sng = WriteBasedSng::new(2);
        let _ = sng.generate(Fixed::from_u8(100), 256);
        let _ = sng.generate(Fixed::from_u8(100), 256);
        assert_eq!(sng.cell_writes(), 512);
    }

    #[test]
    fn streams_cannot_be_correlated() {
        // The structural limitation the paper's IMSNG removes: two
        // write-based streams of nested targets are independent, not
        // nested, so SCC ≈ 0 instead of ≈ 1.
        let mut sng = WriteBasedSng::new(3);
        let a = sng.generate(Fixed::from_u8(60), 8192);
        let b = sng.generate(Fixed::from_u8(180), 8192);
        let c = scc(&a, &b).expect("equal lengths");
        assert!(c.abs() < 0.06, "scc {c}");
    }

    #[test]
    fn array_generation_burns_endurance() {
        let mut sng = WriteBasedSng::new(4);
        let mut array = CrossbarArray::pristine(2, 128, 5);
        let bits = sng
            .generate_into(&mut array, 0, Fixed::from_u8(128))
            .expect("row in range");
        // One reset row-write plus one SET pulse per 1-bit: the row has
        // been programmed many times while read-based IMSNG would have
        // programmed the stream row exactly once.
        assert_eq!(array.row_writes(), 1);
        let wear = array.row_wear(0).expect("row in range");
        assert!(wear >= 2);
        assert_eq!(wear, 1 + bits.count_ones());
        assert_eq!(array.row_wear(1).expect("row in range"), 0);
    }

    #[test]
    fn pulse_inversion_is_consistent() {
        let sng = WriteBasedSng::new(6);
        let t = sng.pulse_for(0.3).expect("valid target");
        assert!(t > 0.0);
        assert!(sng.pulse_for(0.0).is_none());
    }
}
