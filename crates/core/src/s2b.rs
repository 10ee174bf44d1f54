//! Stochastic→binary conversion through the reference column (§III-C).
//!
//! The output stream's bits drive read voltages onto a column whose cells
//! are pre-programmed to LRS; the accumulated bitline current encodes the
//! population count and is digitized by the 8-bit ADC in one step —
//! against the `N`-cycle counter of CMOS designs.

use crate::error::ImscError;
use reram::adc::Adc;
use sc_core::BitStream;

/// The in-memory converter: an ADC plus conversion statistics.
#[derive(Debug, Clone)]
pub struct StochasticToBinary {
    adc: Adc,
    conversions: u64,
}

impl StochasticToBinary {
    /// Creates a converter around an ADC.
    #[must_use]
    pub fn new(adc: Adc) -> Self {
        StochasticToBinary {
            adc,
            conversions: 0,
        }
    }

    /// Ideal 8-bit converter (the ISAAC ADC at nominal accuracy).
    #[must_use]
    pub fn ideal8() -> Self {
        StochasticToBinary::new(Adc::ideal(8))
    }

    /// Number of conversions performed.
    #[must_use]
    pub fn conversions(&self) -> u64 {
        self.conversions
    }

    /// The ADC resolution in bits.
    #[must_use]
    pub fn bits(&self) -> u32 {
        self.adc.bits()
    }

    /// Converts a stream to its binary code (`0..=2^bits − 1`).
    ///
    /// # Errors
    ///
    /// Propagates ADC range errors (impossible for a well-formed stream).
    pub fn convert(&mut self, s: &BitStream) -> Result<u64, ImscError> {
        self.conversions += 1;
        Ok(self.adc.convert_stream(s)?)
    }

    /// Converts a stream to a probability estimate in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Propagates ADC range errors.
    pub fn convert_to_prob(&mut self, s: &BitStream) -> Result<f64, ImscError> {
        self.convert_count_to_prob(s.count_ones(), s.len() as u64)
    }

    /// Converts a population count over a `len`-bit stream to a
    /// probability estimate — [`StochasticToBinary::convert_to_prob`] for
    /// callers that count the ones in place.
    ///
    /// # Errors
    ///
    /// Propagates ADC range errors (`ones > len`).
    pub fn convert_count_to_prob(&mut self, ones: u64, len: u64) -> Result<f64, ImscError> {
        self.conversions += 1;
        let code = self.adc.convert_count(ones, len)?;
        Ok(code as f64 / self.adc.max_code() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reram::adc::Adc;

    #[test]
    fn ideal_conversion_matches_popcount_scaling() {
        let mut c = StochasticToBinary::ideal8();
        let s = BitStream::from_fn(256, |i| i < 128);
        let code = c.convert(&s).unwrap();
        assert_eq!(code, 128); // round(128/256·255) = 127.5 → 128
        assert_eq!(c.conversions(), 1);
    }

    #[test]
    fn prob_estimate_tracks_stream_value() {
        let mut c = StochasticToBinary::new(Adc::with_noise(8, 0.5, 7));
        let s = BitStream::from_fn(512, |i| i % 4 == 0);
        let p = c.convert_to_prob(&s).unwrap();
        assert!((p - 0.25).abs() < 0.02, "{p}");
    }

    #[test]
    fn single_step_regardless_of_stream_length() {
        // Unlike the CMOS counter (N cycles), the ADC path is one sample
        // per conversion — conversions() counts samples, not bits.
        let mut c = StochasticToBinary::ideal8();
        for n in [32usize, 64, 512] {
            c.convert(&BitStream::ones(n)).unwrap();
        }
        assert_eq!(c.conversions(), 3);
    }
}
