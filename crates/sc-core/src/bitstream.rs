//! Packed stochastic bit-streams.
//!
//! A [`BitStream`] stores `N` bits in `⌈N/64⌉` machine words. In stochastic
//! computing every bit carries equal weight — there is no significance
//! ordering — so all arithmetic reduces to bulk bitwise operations, which is
//! exactly what the in-ReRAM scouting-logic substrate executes row-parallel.

use crate::error::ScError;
use crate::prob::Prob;
use std::fmt;

/// A fixed-length stochastic bit-stream.
///
/// The encoded value is `popcount / len` (the probability of a `1`).
///
/// # Example
///
/// ```
/// use sc_core::BitStream;
///
/// let s = BitStream::from_bools([true, false, true, false, true]);
/// assert_eq!(s.len(), 5);
/// assert_eq!(s.count_ones(), 3);
/// assert_eq!(s.value(), 0.6);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitStream {
    words: Vec<u64>,
    len: usize,
}

impl BitStream {
    /// Creates an all-zero stream of `len` bits.
    #[must_use]
    pub fn zeros(len: usize) -> Self {
        BitStream {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Creates an all-one stream of `len` bits.
    #[must_use]
    pub fn ones(len: usize) -> Self {
        let mut s = BitStream {
            words: vec![u64::MAX; len.div_ceil(64)],
            len,
        };
        s.mask_tail();
        s
    }

    /// Builds a stream from an iterator of booleans, reserving the word
    /// vector up front from the iterator's size hint.
    #[must_use]
    pub fn from_bools<I: IntoIterator<Item = bool>>(bits: I) -> Self {
        let iter = bits.into_iter();
        let (lower, _) = iter.size_hint();
        let mut s = BitStream {
            words: Vec::with_capacity(lower.div_ceil(64)),
            len: 0,
        };
        s.extend(iter);
        s
    }

    /// Builds a stream of `len` bits by calling `f(i)` for each position,
    /// assembling whole 64-bit words instead of setting bits one by one.
    #[must_use]
    pub fn from_fn<F: FnMut(usize) -> bool>(len: usize, mut f: F) -> Self {
        let mut words = Vec::with_capacity(len.div_ceil(64));
        let mut i = 0;
        while i < len {
            let n = (len - i).min(64);
            let mut w = 0u64;
            for b in 0..n {
                if f(i + b) {
                    w |= 1u64 << b;
                }
            }
            words.push(w);
            i += n;
        }
        BitStream { words, len }
    }

    /// Builds a stream directly from packed words.
    ///
    /// Bits beyond `len` in the last word are cleared.
    ///
    /// # Panics
    ///
    /// Panics if `words.len() != len.div_ceil(64)`.
    #[must_use]
    pub fn from_words(mut words: Vec<u64>, len: usize) -> Self {
        assert_eq!(
            words.len(),
            len.div_ceil(64),
            "word count must match bit length"
        );
        let mut s = BitStream {
            words: std::mem::take(&mut words),
            len,
        };
        s.mask_tail();
        s
    }

    /// Number of bits in the stream.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the stream holds zero bits.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The packed backing words (tail bits beyond `len` are zero).
    #[must_use]
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// Rewrites the packed words in place through `f`, then clears the
    /// bits beyond `len` in the last word — the tail invariant holds
    /// whatever `f` stores. The hot-path form of every in-array step that
    /// overwrites a row-sized buffer: no allocation, no length change.
    pub fn assign_words<R>(&mut self, f: impl FnOnce(&mut [u64]) -> R) -> R {
        let r = f(&mut self.words);
        self.mask_tail();
        r
    }

    /// Appends one bit to the stream.
    pub fn push(&mut self, bit: bool) {
        let i = self.len;
        self.len += 1;
        if self.words.len() * 64 < self.len {
            self.words.push(0);
        }
        if bit {
            self.words[i / 64] |= 1u64 << (i % 64);
        }
    }

    /// Returns bit `i`, or `None` when out of range.
    #[must_use]
    pub fn get(&self, i: usize) -> Option<bool> {
        if i >= self.len {
            None
        } else {
            Some((self.words[i / 64] >> (i % 64)) & 1 == 1)
        }
    }

    /// Sets bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn set(&mut self, i: usize, bit: bool) {
        assert!(
            i < self.len,
            "bit index {i} out of range (len {})",
            self.len
        );
        let mask = 1u64 << (i % 64);
        if bit {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Flips bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn flip(&mut self, i: usize) {
        assert!(
            i < self.len,
            "bit index {i} out of range (len {})",
            self.len
        );
        self.words[i / 64] ^= 1u64 << (i % 64);
    }

    /// Population count: number of `1` bits.
    #[must_use]
    pub fn count_ones(&self) -> u64 {
        self.words.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// The encoded value `popcount / len` in `[0, 1]`.
    ///
    /// Returns `0.0` for an empty stream.
    #[must_use]
    pub fn value(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.count_ones() as f64 / self.len as f64
        }
    }

    /// The encoded value as a validated [`Prob`].
    #[must_use]
    pub fn prob(&self) -> Prob {
        Prob::saturating(self.value())
    }

    /// Iterates over the bits.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            stream: self,
            pos: 0,
        }
    }

    /// Bitwise AND — SC multiplication of uncorrelated streams, SC minimum
    /// of correlated streams.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::LengthMismatch`] if lengths differ.
    pub fn and(&self, other: &BitStream) -> Result<BitStream, ScError> {
        self.zip_words(other, |a, b| a & b)
    }

    /// Bitwise OR — SC approximate addition (inputs in `[0, 0.5]`), SC
    /// maximum of correlated streams.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::LengthMismatch`] if lengths differ.
    pub fn or(&self, other: &BitStream) -> Result<BitStream, ScError> {
        self.zip_words(other, |a, b| a | b)
    }

    /// Bitwise XOR — SC absolute subtraction of correlated streams.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::LengthMismatch`] if lengths differ.
    pub fn xor(&self, other: &BitStream) -> Result<BitStream, ScError> {
        self.zip_words(other, |a, b| a ^ b)
    }

    /// In-place bitwise AND (`self &= other`), avoiding an allocation on
    /// hot paths such as the IMSNG latch updates.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::LengthMismatch`] if lengths differ.
    pub fn and_assign(&mut self, other: &BitStream) -> Result<(), ScError> {
        self.zip_assign(other, |a, b| a & b)
    }

    /// In-place bitwise OR (`self |= other`).
    ///
    /// # Errors
    ///
    /// Returns [`ScError::LengthMismatch`] if lengths differ.
    pub fn or_assign(&mut self, other: &BitStream) -> Result<(), ScError> {
        self.zip_assign(other, |a, b| a | b)
    }

    /// In-place bitwise XOR (`self ^= other`).
    ///
    /// # Errors
    ///
    /// Returns [`ScError::LengthMismatch`] if lengths differ.
    pub fn xor_assign(&mut self, other: &BitStream) -> Result<(), ScError> {
        self.zip_assign(other, |a, b| a ^ b)
    }

    fn zip_assign<F: Fn(u64, u64) -> u64>(
        &mut self,
        other: &BitStream,
        f: F,
    ) -> Result<(), ScError> {
        if self.len != other.len {
            return Err(ScError::LengthMismatch {
                left: self.len,
                right: other.len,
            });
        }
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            *a = f(*a, b);
        }
        self.mask_tail();
        Ok(())
    }

    /// Bitwise NOT — SC complement `1 - x`.
    #[must_use]
    pub fn not(&self) -> BitStream {
        let mut out = BitStream {
            words: self.words.iter().map(|w| !w).collect(),
            len: self.len,
        };
        out.mask_tail();
        out
    }

    /// Three-input bitwise majority — the CIM-friendly approximation of the
    /// 2-to-1 MUX used for scaled addition (`sel` as the third input).
    ///
    /// # Errors
    ///
    /// Returns [`ScError::LengthMismatch`] if lengths differ.
    pub fn maj3(&self, b: &BitStream, c: &BitStream) -> Result<BitStream, ScError> {
        if self.len != b.len {
            return Err(ScError::LengthMismatch {
                left: self.len,
                right: b.len,
            });
        }
        if self.len != c.len {
            return Err(ScError::LengthMismatch {
                left: self.len,
                right: c.len,
            });
        }
        let words = self
            .words
            .iter()
            .zip(&b.words)
            .zip(&c.words)
            .map(|((&x, &y), &z)| (x & y) | (x & z) | (y & z))
            .collect();
        Ok(BitStream {
            words,
            len: self.len,
        })
    }

    /// Bitwise 2-to-1 MUX: for each position, selects `self` when the select
    /// bit is `1`, else `other` — exact SC scaled addition
    /// `p_sel·p_self + (1-p_sel)·p_other`.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::LengthMismatch`] if lengths differ.
    pub fn mux(&self, other: &BitStream, select: &BitStream) -> Result<BitStream, ScError> {
        if self.len != other.len {
            return Err(ScError::LengthMismatch {
                left: self.len,
                right: other.len,
            });
        }
        if self.len != select.len {
            return Err(ScError::LengthMismatch {
                left: self.len,
                right: select.len,
            });
        }
        let words = self
            .words
            .iter()
            .zip(&other.words)
            .zip(&select.words)
            .map(|((&a, &b), &s)| (a & s) | (b & !s))
            .collect();
        let mut out = BitStream {
            words,
            len: self.len,
        };
        out.mask_tail();
        Ok(out)
    }

    /// Rotates the stream left by `k` positions (bit `k` becomes bit 0).
    ///
    /// Rotation is the classic low-cost decorrelation trick: a stream and
    /// its rotation have SCC ≈ 0 for most encodings. Runs word-at-a-time
    /// (this sits on the decorrelation hot path): the result is
    /// `(self >> k) | (self << (len − k))` over the packed words, with the
    /// shift carries threaded between adjacent words.
    #[must_use]
    pub fn rotate_left(&self, k: usize) -> BitStream {
        if self.len == 0 {
            return self.clone();
        }
        let k = k % self.len;
        if k == 0 {
            return self.clone();
        }
        let mut out = self.shifted_down(k);
        let high = self.shifted_up(self.len - k);
        for (o, h) in out.words.iter_mut().zip(&high.words) {
            *o |= h;
        }
        out.mask_tail();
        out
    }

    /// Logical shift toward lower bit indices: `out[i] = self[i + k]` for
    /// `i < len − k`, zero above. (Bit `i` lives at `words[i/64]`, so this
    /// is a right shift of the word representation.)
    fn shifted_down(&self, k: usize) -> BitStream {
        debug_assert!(k <= self.len);
        let nwords = self.words.len();
        let ws = k / 64;
        let bs = (k % 64) as u32;
        let mut words = vec![0u64; nwords];
        for (w, out) in words.iter_mut().enumerate() {
            let lo = self.words.get(w + ws).copied().unwrap_or(0);
            let hi = self.words.get(w + ws + 1).copied().unwrap_or(0);
            *out = if bs == 0 {
                lo
            } else {
                (lo >> bs) | (hi << (64 - bs))
            };
        }
        BitStream {
            words,
            len: self.len,
        }
    }

    /// Logical shift toward higher bit indices: `out[i] = self[i − k]` for
    /// `i ≥ k`, zero below.
    fn shifted_up(&self, k: usize) -> BitStream {
        debug_assert!(k <= self.len);
        let nwords = self.words.len();
        let ws = k / 64;
        let bs = (k % 64) as u32;
        let mut words = vec![0u64; nwords];
        for (w, out) in words.iter_mut().enumerate() {
            let hi = if w >= ws { self.words[w - ws] } else { 0 };
            let lo = if w > ws { self.words[w - ws - 1] } else { 0 };
            *out = if bs == 0 {
                hi
            } else {
                (hi << bs) | (lo >> (64 - bs))
            };
        }
        let mut s = BitStream {
            words,
            len: self.len,
        };
        s.mask_tail();
        s
    }

    fn zip_words<F: Fn(u64, u64) -> u64>(
        &self,
        other: &BitStream,
        f: F,
    ) -> Result<BitStream, ScError> {
        if self.len != other.len {
            return Err(ScError::LengthMismatch {
                left: self.len,
                right: other.len,
            });
        }
        let words = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(&a, &b)| f(a, b))
            .collect();
        let mut out = BitStream {
            words,
            len: self.len,
        };
        out.mask_tail();
        Ok(out)
    }

    fn mask_tail(&mut self) {
        let rem = self.len % 64;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
        // Defensive: drop any excess words (can only arise from from_words).
        self.words.truncate(self.len.div_ceil(64));
    }
}

impl fmt::Debug for BitStream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitStream(len={}, p={:.4}, ", self.len, self.value())?;
        let shown = self.len.min(32);
        for i in 0..shown {
            write!(f, "{}", u8::from(self.get(i).unwrap_or(false)))?;
        }
        if self.len > shown {
            write!(f, "…")?;
        }
        write!(f, ")")
    }
}

impl FromIterator<bool> for BitStream {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        BitStream::from_bools(iter)
    }
}

impl Extend<bool> for BitStream {
    fn extend<I: IntoIterator<Item = bool>>(&mut self, iter: I) {
        let iter = iter.into_iter();
        let (lower, _) = iter.size_hint();
        let needed = (self.len + lower).div_ceil(64);
        self.words.reserve(needed.saturating_sub(self.words.len()));
        for b in iter {
            self.push(b);
        }
    }
}

impl<'a> IntoIterator for &'a BitStream {
    type Item = bool;
    type IntoIter = Iter<'a>;
    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Iterator over the bits of a [`BitStream`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    stream: &'a BitStream,
    pos: usize,
}

impl Iterator for Iter<'_> {
    type Item = bool;

    fn next(&mut self) -> Option<bool> {
        let b = self.stream.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.stream.len - self.pos;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Iter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones() {
        let z = BitStream::zeros(100);
        assert_eq!(z.count_ones(), 0);
        assert_eq!(z.len(), 100);
        let o = BitStream::ones(100);
        assert_eq!(o.count_ones(), 100);
        assert_eq!(o.value(), 1.0);
    }

    #[test]
    fn tail_bits_are_masked() {
        let o = BitStream::ones(65);
        assert_eq!(o.as_words().len(), 2);
        assert_eq!(o.as_words()[1], 1);
        let n = BitStream::zeros(65).not();
        assert_eq!(n.count_ones(), 65);
    }

    #[test]
    fn push_and_get() {
        let mut s = BitStream::zeros(0);
        for i in 0..130 {
            s.push(i % 3 == 0);
        }
        assert_eq!(s.len(), 130);
        assert_eq!(s.get(0), Some(true));
        assert_eq!(s.get(1), Some(false));
        assert_eq!(s.get(129), Some(true));
        assert_eq!(s.get(130), None);
    }

    #[test]
    fn and_is_multiplication_for_disjoint_patterns() {
        let a = BitStream::from_fn(128, |i| i % 2 == 0); // p = 0.5
        let b = BitStream::from_fn(128, |i| i % 4 < 2); // p = 0.5
        let c = a.and(&b).unwrap();
        assert_eq!(c.value(), 0.25);
    }

    #[test]
    fn xor_of_correlated_is_absolute_difference() {
        // "correlated": overlapping prefixes of ones.
        let a = BitStream::from_fn(100, |i| i < 70);
        let b = BitStream::from_fn(100, |i| i < 40);
        let d = a.xor(&b).unwrap();
        assert!((d.value() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn mux_is_exact_scaled_addition() {
        let a = BitStream::ones(64);
        let b = BitStream::zeros(64);
        let s = BitStream::from_fn(64, |i| i % 2 == 0); // p = 0.5
        let out = a.mux(&b, &s).unwrap();
        assert_eq!(out.value(), 0.5);
    }

    #[test]
    fn maj3_matches_truth_table() {
        let a = BitStream::from_bools([false, false, false, false, true, true, true, true]);
        let b = BitStream::from_bools([false, false, true, true, false, false, true, true]);
        let c = BitStream::from_bools([false, true, false, true, false, true, false, true]);
        let m = a.maj3(&b, &c).unwrap();
        let expect = [false, false, false, true, false, true, true, true];
        for (i, e) in expect.iter().enumerate() {
            assert_eq!(m.get(i), Some(*e), "position {i}");
        }
    }

    #[test]
    fn length_mismatch_is_reported() {
        let a = BitStream::zeros(10);
        let b = BitStream::zeros(11);
        assert_eq!(
            a.and(&b),
            Err(ScError::LengthMismatch {
                left: 10,
                right: 11
            })
        );
    }

    #[test]
    fn rotation_preserves_value() {
        let a = BitStream::from_fn(97, |i| i * 7 % 13 < 5);
        let r = a.rotate_left(31);
        assert_eq!(a.count_ones(), r.count_ones());
        assert_eq!(r.get(0), a.get(31));
    }

    #[test]
    fn from_words_masks_excess_bits() {
        let s = BitStream::from_words(vec![u64::MAX], 10);
        assert_eq!(s.count_ones(), 10);
    }

    #[test]
    fn assign_words_keeps_the_tail_clear() {
        let mut s = BitStream::zeros(70);
        let words = s.assign_words(|w| {
            w.fill(u64::MAX);
            w.len()
        });
        assert_eq!(words, 2);
        assert_eq!(s.count_ones(), 70);
        assert_eq!(s.as_words()[1], (1 << 6) - 1);
    }

    #[test]
    fn iterator_round_trip() {
        let a = BitStream::from_fn(77, |i| i % 5 == 0);
        let b: BitStream = a.iter().collect();
        assert_eq!(a, b);
        assert_eq!(a.iter().len(), 77);
    }
}
