//! In-memory true random number generation from ReRAM stochasticity.
//!
//! The paper builds on threshold-switching / read-noise TRNGs (Woo et al.,
//! Adv. Electron. Mater. 2019; Schnieders et al. 2024): reading a cell
//! biased near its switching point yields a random bit, and whole rows of
//! random bits are stored directly in the array — a *single-step*
//! operation from the architecture's perspective (§III-A).
//!
//! [`TrngEngine`] models the statistical reality of such a source: each
//! generator cell has a small static bias around the ideal 50% point
//! (device-to-device variation) plus unbiased shot-to-shot randomness.
//! Because the hardware fills a whole row in one step, the engine's hot
//! path is word-parallel: per-cell one-probabilities are quantized to
//! [`THRESHOLD_BITS`]-bit thresholds at construction and expanded into
//! bit-plane masks per aligned 64-cell window, so one
//! [`sc_core::rng::bernoulli_words`] comparison draws 64 biased Bernoulli
//! bits from (in expectation) about two uniform words. The per-bit
//! [`BitSource::next_bit`] path remains the reference semantics: the word
//! path visits the same cells in the same ring order with the same
//! marginal probabilities (exact for ideal 0.5 cells, quantized to
//! `2^-16` for biased cells) and is differential-tested against it.
//!
//! The engine fills array rows and doubles as a [`BitSource`] for the
//! segmented random numbers IMSNG consumes. [`VonNeumannWhitened`] wraps
//! any bit source with the classic de-biasing extractor.

use crate::array::CrossbarArray;
use crate::error::ReramError;
use crate::math::GaussianSampler;
use sc_core::rng::{bernoulli_words, clear_past_len, probability_threshold, BitSource};
use sc_core::BitStream;

/// Threshold precision of the word-parallel fill path: per-cell
/// one-probabilities quantize to `1/2^16`. An ideal 0.5 cell is
/// represented exactly (`2^15`), so the quantization only touches the
/// modeled device bias, at 1/256 of its smallest clamp step.
const THRESHOLD_BITS: u32 = 16;

/// Statistical model of a row of TRNG cells.
///
/// # Example
///
/// ```
/// use reram::trng::TrngEngine;
/// use sc_core::rng::BitSource;
///
/// let mut trng = TrngEngine::new(64, 0.02, 77);
/// let ones = (0..10_000).filter(|_| trng.next_bit()).count();
/// assert!((4_000..6_000).contains(&ones));
/// ```
#[derive(Debug, Clone)]
pub struct TrngEngine {
    cell_bias: Vec<f64>,
    /// MSB-first threshold bit-planes per aligned 64-cell window, for
    /// the bit-sliced fill path. Empty when `cells % 64 != 0`, in which
    /// case word fills fall back to the per-bit reference path.
    window_planes: Vec<[u64; THRESHOLD_BITS as usize]>,
    sampler: GaussianSampler,
    cursor: usize,
    bits_generated: u64,
    /// The row [`TrngEngine::fill_row`] draws into before the array write;
    /// it follows the width of the last array filled.
    row: BitStream,
}

impl TrngEngine {
    /// Creates an engine with `cells` generator cells whose one-probability
    /// is `0.5 + N(0, bias_sigma)` (clamped to `[0.05, 0.95]`).
    ///
    /// When `cells` is a multiple of 64, row fills run word-parallel
    /// (bit-sliced Bernoulli sampling over precomputed per-cell
    /// thresholds); otherwise they fall back to the per-bit path.
    ///
    /// # Panics
    ///
    /// Panics if `cells == 0` or `bias_sigma < 0`.
    #[must_use]
    pub fn new(cells: usize, bias_sigma: f64, seed: u64) -> Self {
        assert!(cells > 0, "at least one trng cell required");
        assert!(bias_sigma >= 0.0, "bias sigma must be non-negative");
        let mut sampler = GaussianSampler::new(seed);
        let cell_bias: Vec<f64> = (0..cells)
            .map(|_| (0.5 + sampler.normal(0.0, bias_sigma)).clamp(0.05, 0.95))
            .collect();
        let window_planes = if cells.is_multiple_of(64) {
            cell_bias
                .chunks_exact(64)
                .map(|window| {
                    let mut planes = [0u64; THRESHOLD_BITS as usize];
                    for (lane, &p) in window.iter().enumerate() {
                        // p is clamped to [0.05, 0.95], so the threshold is
                        // strictly inside (0, 2^16): never certainty.
                        let t = probability_threshold(p, THRESHOLD_BITS);
                        for (j, plane) in planes.iter_mut().enumerate() {
                            if (t >> (THRESHOLD_BITS as usize - 1 - j)) & 1 == 1 {
                                *plane |= 1 << lane;
                            }
                        }
                    }
                    planes
                })
                .collect()
        } else {
            Vec::new()
        };
        TrngEngine {
            cell_bias,
            window_planes,
            sampler,
            cursor: 0,
            bits_generated: 0,
            row: BitStream::zeros(0),
        }
    }

    /// An ideal engine: every cell exactly unbiased.
    #[must_use]
    pub fn ideal(cells: usize, seed: u64) -> Self {
        TrngEngine::new(cells, 0.0, seed)
    }

    /// Number of generator cells.
    #[must_use]
    pub fn cells(&self) -> usize {
        self.cell_bias.len()
    }

    /// Total bits generated so far.
    #[must_use]
    pub fn bits_generated(&self) -> u64 {
        self.bits_generated
    }

    /// The per-cell one-probabilities (for inspection/tests).
    #[must_use]
    pub fn cell_probabilities(&self) -> &[f64] {
        &self.cell_bias
    }

    /// Draws up to 64 random bits in one step (bit `i` of the result is
    /// stream bit `i`; bits at `bits..` are zero) — the single-word form
    /// of the row fill.
    ///
    /// # Panics
    ///
    /// Panics if `bits > 64`.
    #[must_use]
    pub fn next_word(&mut self, bits: usize) -> u64 {
        let mut word = [0u64; 1];
        self.fill_words(&mut word, bits);
        word[0]
    }

    /// Generates a full random row of the given width (word-parallel when
    /// the cell count allows it).
    #[must_use]
    pub fn generate_row(&mut self, width: usize) -> BitStream {
        let mut words = vec![0u64; width.div_ceil(64)];
        self.fill_words(&mut words, width);
        BitStream::from_words(words, width)
    }

    /// Generates a Von Neumann-whitened random row: each output bit is
    /// extracted from repeated shot-pairs of *one* generator cell
    /// (emitting `a` from the first pair `(a, b)` with `a != b`), so the
    /// cell's static bias cancels exactly and every emitted bit is an
    /// unbiased coin — at a ≥ 4× raw-bit cost, visible in
    /// [`TrngEngine::bits_generated`]. Pairing within a cell matters:
    /// pairing bits of *different* cells (as chaining
    /// [`VonNeumannWhitened`] over the ring would) leaves a residual
    /// bias of order the inter-cell bias difference.
    #[must_use]
    pub fn generate_row_whitened(&mut self, width: usize) -> BitStream {
        let cells = self.cell_bias.len();
        BitStream::from_fn(width, |_| {
            let p = self.cell_bias[self.cursor];
            self.cursor += 1;
            if self.cursor == cells {
                self.cursor = 0;
            }
            loop {
                let a = self.sampler.uniform() < p;
                let b = self.sampler.uniform() < p;
                self.bits_generated += 2;
                if a != b {
                    return a;
                }
            }
        })
    }

    /// Generates a random row and stores it in `array` at `row` — the
    /// paper's single-step TRNG write. The bits are drawn into the
    /// engine's own row buffer (the same draws, in the same order, as
    /// [`TrngEngine::generate_row`]) and written from there; the buffer
    /// holds that row until the next fill, and is reallocated only when
    /// the array width changes.
    ///
    /// # Errors
    ///
    /// Propagates array range errors.
    pub fn fill_row(&mut self, array: &mut CrossbarArray, row: usize) -> Result<(), ReramError> {
        let cols = array.cols();
        let mut buf = std::mem::replace(&mut self.row, BitStream::zeros(0));
        if buf.len() != cols {
            buf = BitStream::zeros(cols);
        }
        buf.assign_words(|w| self.fill_words(w, cols));
        let written = array.write_row(row, &buf);
        self.row = buf;
        written.map(|_| ())
    }

    /// Per-bit fallback for [`BitSource::fill_words`] (mirrors the trait's
    /// default body; also used when the cell count is not word-aligned).
    fn fill_words_per_bit(&mut self, words: &mut [u64], len: usize) {
        words.fill(0);
        for i in 0..len {
            if self.next_bit() {
                words[i / 64] |= 1 << (i % 64);
            }
        }
    }
}

impl BitSource for TrngEngine {
    fn next_bit(&mut self) -> bool {
        let p = self.cell_bias[self.cursor];
        // Branchy wrap instead of a modulo: this is the innermost loop of
        // the per-bit reference path.
        self.cursor += 1;
        if self.cursor == self.cell_bias.len() {
            self.cursor = 0;
        }
        self.bits_generated += 1;
        self.sampler.uniform() < p
    }

    /// Word-parallel fill: each output word is one bit-sliced Bernoulli
    /// draw over the next aligned 64-cell window of the generator ring.
    /// Statistically equivalent to the per-bit path (same cells, same
    /// ring order, thresholds exact for ideal cells); entropy is consumed
    /// in whole windows, so a trailing partial word still advances the
    /// cell cursor by 64 — the hardware fires the whole generator row.
    fn fill_words(&mut self, words: &mut [u64], len: usize) {
        assert!(
            len <= words.len() * 64,
            "{len} bits do not fit in {} words",
            words.len()
        );
        if self.window_planes.is_empty() {
            self.fill_words_per_bit(words, len);
            return;
        }
        // Interleaved per-bit draws can leave the cursor mid-window; the
        // word path restarts at the next aligned generator window.
        if !self.cursor.is_multiple_of(64) {
            self.cursor = self.cursor.div_ceil(64) * 64 % self.cell_bias.len();
        }
        let cells = self.cell_bias.len();
        for word in words.iter_mut().take(len.div_ceil(64)) {
            let planes = &self.window_planes[self.cursor / 64];
            *word = bernoulli_words(planes, || self.sampler.uniform_u64());
            self.cursor += 64;
            if self.cursor == cells {
                self.cursor = 0;
            }
        }
        clear_past_len(words, len);
        self.bits_generated += len as u64;
    }
}

/// Von Neumann whitening over any bit source: consumes bit pairs, emitting
/// `0` for `01` and `1` for `10`, discarding `00`/`11`. Removes static
/// bias at a ≥ 4× rate cost.
#[derive(Debug, Clone)]
pub struct VonNeumannWhitened<B> {
    inner: B,
    consumed: u64,
}

impl<B: BitSource> VonNeumannWhitened<B> {
    /// Wraps a bit source with the extractor.
    #[must_use]
    pub fn new(inner: B) -> Self {
        VonNeumannWhitened { inner, consumed: 0 }
    }

    /// Raw bits consumed from the inner source so far.
    #[must_use]
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    /// Consumes the wrapper, returning the inner source.
    pub fn into_inner(self) -> B {
        self.inner
    }
}

impl<B: BitSource> BitSource for VonNeumannWhitened<B> {
    fn next_bit(&mut self) -> bool {
        loop {
            let a = self.inner.next_bit();
            let b = self.inner.next_bit();
            self.consumed += 2;
            if a != b {
                return a;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_engine_is_unbiased() {
        let mut t = TrngEngine::ideal(32, 1);
        let ones = (0..100_000).filter(|_| t.next_bit()).count();
        assert!((48_500..51_500).contains(&ones), "ones {ones}");
    }

    #[test]
    fn biased_cells_spread_around_half() {
        let t = TrngEngine::new(1000, 0.05, 2);
        let probs = t.cell_probabilities();
        let mean: f64 = probs.iter().sum::<f64>() / probs.len() as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
        let spread = probs.iter().map(|p| (p - 0.5).abs()).fold(0.0f64, f64::max);
        assert!(spread > 0.05, "spread {spread}"); // some cells clearly biased
    }

    #[test]
    fn fill_row_stores_random_bits() {
        let mut t = TrngEngine::ideal(64, 3);
        let mut a = CrossbarArray::pristine(2, 256, 4);
        t.fill_row(&mut a, 1).unwrap();
        let row = a.read_row(1).unwrap();
        let ones = row.count_ones();
        assert!((96..160).contains(&ones), "ones {ones}"); // ~128 ± 4σ
        assert_eq!(t.bits_generated(), 256);
    }

    #[test]
    fn word_path_matches_per_bit_statistics_per_cell() {
        // Same cells, same ring order: for every generator cell, the
        // word path's one-frequency must track the cell's modeled bias
        // (and hence the per-bit path's frequency) within sampling noise.
        let mut word_engine = TrngEngine::new(128, 0.08, 41);
        let rounds = 4_000usize;
        let mut ones = vec![0u64; 128];
        for _ in 0..rounds {
            let mut words = [0u64; 2];
            word_engine.fill_words(&mut words, 128);
            for (cell, count) in ones.iter_mut().enumerate() {
                *count += (words[cell / 64] >> (cell % 64)) & 1;
            }
        }
        for (cell, &p) in word_engine.cell_probabilities().iter().enumerate() {
            let got = ones[cell] as f64 / rounds as f64;
            // 4σ of Bernoulli(p) over `rounds` draws, plus 2^-16 quantization.
            let tol = 4.0 * (p * (1.0 - p) / rounds as f64).sqrt() + 2e-5;
            assert!((got - p).abs() < tol, "cell {cell}: {got} vs {p}");
        }
    }

    #[test]
    fn word_path_is_exact_for_ideal_cells() {
        // p = 0.5 quantizes to exactly 2^15 / 2^16: the word path is a
        // distribution-exact Bernoulli(1/2), not an approximation.
        let mut t = TrngEngine::ideal(256, 6);
        let rounds = 3_000usize;
        let mut ones = 0u64;
        for _ in 0..rounds {
            let mut words = [0u64; 4];
            t.fill_words(&mut words, 256);
            ones += words.iter().map(|w| u64::from(w.count_ones())).sum::<u64>();
        }
        let total = (rounds * 256) as f64;
        let got = ones as f64 / total;
        // 4.5σ of an exact fair coin.
        assert!((got - 0.5).abs() < 4.5 * 0.5 / total.sqrt(), "{got}");
    }

    #[test]
    fn unaligned_cell_count_falls_back_to_per_bit_path() {
        // cells % 64 != 0: fill_words must be the per-bit path verbatim,
        // i.e. bit-identical to draining next_bit from a clone.
        let mut word_engine = TrngEngine::new(100, 0.05, 9);
        let mut bit_engine = word_engine.clone();
        let mut words = [0u64; 3];
        word_engine.fill_words(&mut words, 150);
        for i in 0..150 {
            assert_eq!(
                (words[i / 64] >> (i % 64)) & 1 == 1,
                bit_engine.next_bit(),
                "bit {i}"
            );
        }
        assert_eq!(words[2] >> (150 % 64), 0, "tail must be clear");
    }

    #[test]
    fn next_word_masks_past_requested_bits() {
        let mut t = TrngEngine::ideal(64, 12);
        for _ in 0..64 {
            assert_eq!(t.next_word(10) >> 10, 0);
        }
        assert_eq!(t.next_word(0), 0);
    }

    #[test]
    fn interleaving_per_bit_draws_keeps_the_word_path_sound() {
        // A per-bit draw leaves the cursor unaligned; the next word fill
        // realigns to a window boundary and stays statistically correct.
        let mut t = TrngEngine::ideal(128, 15);
        let mut ones = 0u64;
        let rounds = 2_000;
        for _ in 0..rounds {
            let _ = t.next_bit();
            ones += u64::from(t.next_word(64).count_ones());
        }
        let got = ones as f64 / (rounds * 64) as f64;
        assert!((got - 0.5).abs() < 0.01, "{got}");
    }

    #[test]
    fn whitened_rows_remove_per_cell_bias() {
        // Heavily biased cells (sigma 0.3, clamped to [0.05, 0.95]): raw
        // rows reproduce each cell's bias, whitened rows are unbiased
        // per cell.
        let rounds = 3_000usize;
        let mut raw = TrngEngine::new(64, 0.3, 17);
        let worst_cell_bias = raw
            .cell_probabilities()
            .iter()
            .map(|p| (p - 0.5).abs())
            .fold(0.0f64, f64::max);
        assert!(worst_cell_bias > 0.2, "sigma 0.3 must bias some cell hard");
        let mut white = raw.clone();
        let mut raw_ones = vec![0u64; 64];
        let mut white_ones = vec![0u64; 64];
        for _ in 0..rounds {
            let r = raw.generate_row(64);
            let w = white.generate_row_whitened(64);
            for c in 0..64 {
                raw_ones[c] += u64::from(r.get(c).unwrap());
                white_ones[c] += u64::from(w.get(c).unwrap());
            }
        }
        let dev = |ones: &[u64]| {
            ones.iter()
                .map(|&o| (o as f64 / rounds as f64 - 0.5).abs())
                .fold(0.0f64, f64::max)
        };
        let raw_dev = dev(&raw_ones);
        let white_dev = dev(&white_ones);
        // Raw rows track the worst cell's bias; whitened rows sit at the
        // sampling-noise floor (4.5σ of a fair coin over `rounds`).
        assert!(raw_dev > 0.15, "raw {raw_dev}");
        assert!(
            white_dev < 4.5 * 0.5 / (rounds as f64).sqrt(),
            "whitened {white_dev}"
        );
        // The extractor's raw-bit cost is visible: ≥ 2 raw bits per
        // emitted bit, in practice ≥ 4× for biased cells overall.
        assert!(white.bits_generated() >= 2 * (rounds as u64) * 64);
    }

    #[test]
    fn whitening_removes_bias() {
        // An overtly biased source: p = 0.8.
        #[derive(Debug)]
        struct Biased(GaussianSampler);
        impl BitSource for Biased {
            fn next_bit(&mut self) -> bool {
                self.0.uniform() < 0.8
            }
        }
        let mut w = VonNeumannWhitened::new(Biased(GaussianSampler::new(6)));
        let ones = (0..20_000).filter(|_| w.next_bit()).count();
        assert!((9_500..10_500).contains(&ones), "ones {ones}");
        assert!(w.consumed() >= 40_000);
    }

    #[test]
    fn engine_is_deterministic() {
        let mut a = TrngEngine::new(16, 0.03, 9);
        let mut b = TrngEngine::new(16, 0.03, 9);
        for _ in 0..256 {
            assert_eq!(a.next_bit(), b.next_bit());
        }
        let mut a = TrngEngine::new(128, 0.03, 9);
        let mut b = TrngEngine::new(128, 0.03, 9);
        assert_eq!(a.generate_row(512), b.generate_row(512));
    }
}
