//! Seeded fault injection for CIM operations.
//!
//! In digital CIM a fault is a bit flip: the sensed result of a bulk
//! bitwise operation inverts from its expected value (§IV-C). Failure
//! *rates* are derived from the device statistics (see [`crate::vcm`]);
//! this module applies them: every output bit of an in-memory operation is
//! flipped independently with the operation's failure probability.

use crate::error::ReramError;
use crate::scouting::SlOp;
use sc_core::rng::Xoshiro256;
use sc_core::BitStream;

/// Per-operation fault probabilities for scouting-logic outputs.
///
/// Different operations have different sensing margins: XOR's window
/// detector fails more often than OR's single wide threshold, and MAJ's
/// mid reference sits in the most crowded current region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRates {
    /// Flip probability for AND / NAND outputs.
    pub and: f64,
    /// Flip probability for OR / NOR outputs.
    pub or: f64,
    /// Flip probability for XOR / XNOR outputs.
    pub xor: f64,
    /// Flip probability for 3-input majority outputs.
    pub maj: f64,
    /// Flip probability for single-row NOT reads.
    pub not: f64,
    /// Flip probability per written SBS bit (write disturbance).
    pub write: f64,
}

impl FaultRates {
    /// A fault-free configuration (the paper's ✗ columns).
    #[must_use]
    pub fn none() -> Self {
        FaultRates {
            and: 0.0,
            or: 0.0,
            xor: 0.0,
            maj: 0.0,
            not: 0.0,
            write: 0.0,
        }
    }

    /// A uniform flip probability across all operations.
    #[must_use]
    pub fn uniform(p: f64) -> Self {
        FaultRates {
            and: p,
            or: p,
            xor: p,
            maj: p,
            not: p,
            write: p,
        }
    }

    /// The flip probability for a given scouting-logic operation.
    #[must_use]
    pub fn for_op(&self, op: SlOp) -> f64 {
        match op {
            SlOp::And | SlOp::Nand => self.and,
            SlOp::Or | SlOp::Nor => self.or,
            SlOp::Xor | SlOp::Xnor => self.xor,
            SlOp::Maj => self.maj,
            SlOp::Not => self.not,
        }
    }

    /// Checks that every rate is a probability.
    ///
    /// The geometric-gap sampler assumes `p ∈ [0, 1]`; a NaN or
    /// out-of-range rate would silently sample garbage (NaN comparisons
    /// are all-false, so `corrupt_with_prob` would neither early-out nor
    /// saturate). Builders call this before constructing an injector.
    ///
    /// # Errors
    ///
    /// Returns [`ReramError::InvalidParameter`] naming the first offending
    /// field if any rate is NaN or outside `[0.0, 1.0]`.
    pub fn validate(&self) -> Result<(), ReramError> {
        let fields: [(&'static str, f64); 6] = [
            ("fault_rates.and", self.and),
            ("fault_rates.or", self.or),
            ("fault_rates.xor", self.xor),
            ("fault_rates.maj", self.maj),
            ("fault_rates.not", self.not),
            ("fault_rates.write", self.write),
        ];
        for (name, value) in fields {
            if !(0.0..=1.0).contains(&value) {
                return Err(ReramError::InvalidParameter { name, value });
            }
        }
        Ok(())
    }

    /// Whether every rate is zero.
    #[must_use]
    pub fn is_fault_free(&self) -> bool {
        self.and == 0.0
            && self.or == 0.0
            && self.xor == 0.0
            && self.maj == 0.0
            && self.not == 0.0
            && self.write == 0.0
    }
}

impl Default for FaultRates {
    fn default() -> Self {
        FaultRates::none()
    }
}

/// A seeded injector that flips bits of operation outputs according to a
/// [`FaultRates`] table.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    rates: FaultRates,
    rng: Xoshiro256,
    injected: u64,
}

impl FaultInjector {
    /// Creates an injector with the given rates and seed.
    #[must_use]
    pub fn new(rates: FaultRates, seed: u64) -> Self {
        FaultInjector {
            rates,
            rng: Xoshiro256::seed_from_u64(seed),
            injected: 0,
        }
    }

    /// The configured rates.
    #[must_use]
    pub fn rates(&self) -> FaultRates {
        self.rates
    }

    /// Total bit flips injected so far.
    #[must_use]
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Applies op-dependent bit flips to an operation output in place.
    pub fn corrupt_op_output(&mut self, op: SlOp, out: &mut BitStream) {
        let p = self.rates.for_op(op);
        self.corrupt_with_prob(p, out);
    }

    /// Applies write-disturbance flips to a stream about to be stored.
    pub fn corrupt_write(&mut self, out: &mut BitStream) {
        let p = self.rates.write;
        self.corrupt_with_prob(p, out);
    }

    fn corrupt_with_prob(&mut self, p: f64, out: &mut BitStream) {
        if p <= 0.0 || out.is_empty() {
            return;
        }
        if p >= 1.0 {
            out.assign_words(|w| {
                for x in w {
                    *x = !*x;
                }
            });
            self.injected += out.len() as u64;
            return;
        }
        // Sample the flip positions directly instead of tossing a coin per
        // bit: the gap to the next flipped bit is geometric with parameter
        // `p`, so one `ln` draw per *fault* replaces one uniform draw per
        // *bit* — the sampled positions form exactly the same independent
        // per-bit Bernoulli process, and the flips land as XOR masks on
        // the packed words. Deterministic per seed.
        let ln_keep = (1.0 - p).ln();
        if ln_keep == 0.0 {
            // p below ~1e-16: (1 − p) rounds to 1.0, so the expected flip
            // count is zero for any realistic stream length.
            return;
        }
        let mut i = 0usize;
        loop {
            let u = self.rng.next_f64();
            // `1 - u` is in (0, 1], keeping the log finite.
            let gap = ((1.0 - u).ln() / ln_keep).floor();
            if gap >= (out.len() - i) as f64 {
                return;
            }
            i += gap as usize;
            out.flip(i);
            self.injected += 1;
            i += 1;
            if i >= out.len() {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rates_never_flip() {
        let mut inj = FaultInjector::new(FaultRates::none(), 1);
        let mut s = BitStream::ones(1024);
        inj.corrupt_op_output(SlOp::And, &mut s);
        assert_eq!(s.count_ones(), 1024);
        assert_eq!(inj.injected(), 0);
    }

    #[test]
    fn uniform_rate_flips_expected_fraction() {
        let mut inj = FaultInjector::new(FaultRates::uniform(0.1), 2);
        let mut s = BitStream::zeros(100_000);
        inj.corrupt_op_output(SlOp::Xor, &mut s);
        let flips = s.count_ones();
        assert!((8_000..12_000).contains(&flips), "flips {flips}");
        assert_eq!(inj.injected(), flips);
    }

    #[test]
    fn per_op_rates_are_selected() {
        let rates = FaultRates {
            and: 0.0,
            or: 0.5,
            xor: 0.0,
            maj: 0.0,
            not: 0.0,
            write: 0.0,
        };
        let mut inj = FaultInjector::new(rates, 3);
        let mut s = BitStream::zeros(10_000);
        inj.corrupt_op_output(SlOp::And, &mut s);
        assert_eq!(s.count_ones(), 0);
        inj.corrupt_op_output(SlOp::Or, &mut s);
        assert!(s.count_ones() > 4_000);
    }

    #[test]
    fn injection_is_deterministic_per_seed() {
        let run = |seed| {
            let mut inj = FaultInjector::new(FaultRates::uniform(0.05), seed);
            let mut s = BitStream::zeros(4096);
            inj.corrupt_op_output(SlOp::Maj, &mut s);
            s
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn fault_free_detection() {
        assert!(FaultRates::none().is_fault_free());
        assert!(!FaultRates::uniform(0.01).is_fault_free());
    }

    #[test]
    fn subnormal_rates_flip_nothing() {
        // p below f64 resolution of (1 − p): ln(1 − p) collapses to 0;
        // the sampler must degrade to "no flips", not "flip everything".
        let mut inj = FaultInjector::new(FaultRates::uniform(1e-18), 4);
        let mut s = BitStream::zeros(4096);
        inj.corrupt_op_output(SlOp::And, &mut s);
        assert_eq!(s.count_ones(), 0);
        assert_eq!(inj.injected(), 0);
    }

    #[test]
    fn validate_accepts_probabilities() {
        assert!(FaultRates::none().validate().is_ok());
        assert!(FaultRates::uniform(1.0).validate().is_ok());
        assert!(FaultRates::uniform(0.5).validate().is_ok());
    }

    #[test]
    fn validate_rejects_out_of_range_and_nan() {
        for bad in [-0.1, 1.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = FaultRates::uniform(bad).validate().unwrap_err();
            assert!(matches!(
                err,
                crate::error::ReramError::InvalidParameter { .. }
            ));
        }
        // The first offending field is named.
        let rates = FaultRates {
            maj: -1.0,
            ..FaultRates::none()
        };
        match rates.validate().unwrap_err() {
            crate::error::ReramError::InvalidParameter { name, value } => {
                assert_eq!(name, "fault_rates.maj");
                assert_eq!(value, -1.0);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn certain_rate_flips_everything() {
        let mut inj = FaultInjector::new(FaultRates::uniform(1.0), 5);
        let mut s = BitStream::zeros(100);
        inj.corrupt_op_output(SlOp::Or, &mut s);
        assert_eq!(s.count_ones(), 100);
        assert_eq!(inj.injected(), 100);
    }
}
