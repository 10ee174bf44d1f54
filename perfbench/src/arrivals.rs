//! Seeded randomness for the workloads: a SplitMix64 stream and the
//! open-loop Poisson arrival schedule built from it. The same seed gives
//! the same inputs and the same arrivals.

/// SplitMix64 — small, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream starting at `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Derives an independent seed for a named purpose from a workload seed.
#[must_use]
pub fn derive(seed: u64, purpose: u64) -> u64 {
    SplitMix64::new(seed ^ purpose.wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64()
}

/// One scheduled request of an open loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// When the request is due, ns after the phase starts.
    pub due_ns: u64,
    /// Which of the four kernels it calls (index into the kernel list).
    pub kernel: usize,
    /// Which pooled input of that kernel it sends.
    pub input: usize,
}

/// Poisson arrivals at `rate_per_s` over `seconds`, each with a kernel
/// and a uniformly chosen pooled input.
///
/// The schedule holds exactly `round(rate × seconds)` arrivals, placed
/// as sorted uniform times over the interval — a Poisson process
/// conditioned on its count, so gaps and bursts are those of Poisson
/// arrivals while the offered load does not vary from seed to seed.
/// Kernels come in seeded random order within each block of `kernels`
/// arrivals, so the mix is exact too.
#[must_use]
pub fn poisson(
    seed: u64,
    rate_per_s: f64,
    seconds: f64,
    kernels: usize,
    inputs: usize,
) -> Vec<Arrival> {
    let mut rng = SplitMix64::new(seed);
    let count = (rate_per_s * seconds).round() as usize;
    let mut due: Vec<u64> = (0..count)
        .map(|_| (rng.next_f64() * seconds * 1e9) as u64)
        .collect();
    due.sort_unstable();
    let mut block: Vec<usize> = (0..kernels).collect();
    due.into_iter()
        .enumerate()
        .map(|(i, due_ns)| {
            if i % kernels == 0 {
                // Fisher–Yates shuffle of the next block.
                for j in (1..kernels).rev() {
                    block.swap(j, rng.below(j + 1));
                }
            }
            Arrival {
                due_ns,
                kernel: block[i % kernels],
                input: rng.below(inputs),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_other_seed_other_schedule() {
        let a = poisson(11, 35.0, 5.0, 4, 8);
        let b = poisson(11, 35.0, 5.0, 4, 8);
        let c = poisson(12, 35.0, 5.0, 4, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn schedule_is_ordered_in_range_with_poisson_gaps() {
        let a = poisson(3, 35.0, 100.0, 4, 8);
        assert_eq!(a.len(), 3500);
        assert!(a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(a
            .iter()
            .all(|x| x.due_ns < 100_000_000_000 && x.kernel < 4 && x.input < 8));
        for block in a.chunks(4) {
            let mut kernels: Vec<usize> = block.iter().map(|x| x.kernel).collect();
            kernels.sort_unstable();
            assert_eq!(kernels, [0, 1, 2, 3]);
        }
        assert_ne!(a[0..4], a[4..8], "blocks are shuffled independently");
        // Exponential gaps: mean 1/rate, and about e^-1 of them longer
        // than the mean.
        let gaps: Vec<f64> = a
            .windows(2)
            .map(|w| (w[1].due_ns - w[0].due_ns) as f64 / 1e9)
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        assert!((mean * 35.0 - 1.0).abs() < 0.05, "mean gap {mean}");
        let long = gaps.iter().filter(|&&g| g > mean).count() as f64 / gaps.len() as f64;
        assert!(
            (long - (-1.0f64).exp()).abs() < 0.03,
            "share of long gaps {long}"
        );
    }

    #[test]
    fn derived_seeds_differ_by_purpose() {
        assert_ne!(derive(5, 1), derive(5, 2));
        assert_eq!(derive(5, 1), derive(5, 1));
        let mut r = SplitMix64::new(1);
        assert!((0..1000)
            .map(|_| r.next_f64())
            .all(|x| (0.0..1.0).contains(&x)));
    }
}
