//! The in-memory SC accelerator: end-to-end ❶→❷→❸ execution.
//!
//! [`Accelerator`] owns a ReRAM array partitioned per Fig. 1(a), a
//! scouting-logic engine (optionally fault-injected), the in-memory TRNG,
//! the IMSNG conversion engine, and the ADC converter. Every operation is
//! executed *in the array* (bulk bitwise over stream rows) and recorded in
//! a [`CostLedger`] — and optionally in an NVMain-style command trace —
//! so accuracy and hardware cost come from the same simulation.
//!
//! Correlation is tracked per stream: streams produced by
//! [`Accelerator::encode`] carry fresh correlation domains (independent RN
//! rows), while [`Accelerator::encode_correlated`] shares one RN
//! realization, as the correlated-input operations (XOR subtraction,
//! CORDIV division, min, max) require. Requesting an operation with the
//! wrong correlation domain is a type error at runtime
//! ([`ImscError::CorrelationMismatch`]), not silent inaccuracy.

use crate::cost::{CostLedger, WearSummary};
use crate::error::ImscError;
use crate::imsng::{Imsng, ImsngVariant};
use crate::layout::{RnRefreshPolicy, RowAllocator};
use crate::s2b::StochasticToBinary;
use nvsim::{CmdKind, Command, Trace};
use reram::array::CrossbarArray;
use reram::cell::DeviceParams;
use reram::div::CordivPeriphery;
use reram::faults::FaultRates;
use reram::latch::WriteDriverLatches;
use reram::scouting::{ScoutingLogic, SlOp};
use reram::trng::TrngEngine;
use sc_core::{BitStream, Fixed};
use std::collections::HashMap;

/// A handle to a stochastic stream stored in the accelerator's array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamHandle(usize);

#[derive(Debug, Clone)]
struct StreamSlot {
    row: usize,
    correlation_group: u64,
    alive: bool,
}

/// Builder for [`Accelerator`].
#[derive(Debug, Clone)]
pub struct AcceleratorBuilder {
    stream_len: usize,
    segment_bits: u32,
    variant: ImsngVariant,
    seed: u64,
    fault_rates: FaultRates,
    trng_bias_sigma: f64,
    stream_rows: usize,
    device: DeviceParams,
    record_trace: bool,
    trace_bank: usize,
    refresh_policy: RnRefreshPolicy,
    whiten_select: bool,
    wear_leveling: bool,
}

impl AcceleratorBuilder {
    fn new() -> Self {
        AcceleratorBuilder {
            stream_len: 256,
            segment_bits: 8,
            variant: ImsngVariant::Opt,
            seed: 0,
            fault_rates: FaultRates::none(),
            trng_bias_sigma: 0.04,
            stream_rows: 64,
            device: DeviceParams::default(),
            record_trace: false,
            trace_bank: 0,
            refresh_policy: RnRefreshPolicy::PerEncode,
            whiten_select: false,
            wear_leveling: false,
        }
    }

    /// Stochastic bit-stream length `N` (default 256).
    #[must_use]
    pub fn stream_len(mut self, n: usize) -> Self {
        self.stream_len = n;
        self
    }

    /// Comparator segment width `M` (default 8).
    #[must_use]
    pub fn segment_bits(mut self, m: u32) -> Self {
        self.segment_bits = m;
        self
    }

    /// IMSNG implementation variant (default [`ImsngVariant::Opt`]).
    #[must_use]
    pub fn variant(mut self, v: ImsngVariant) -> Self {
        self.variant = v;
        self
    }

    /// Master seed for all stochastic components.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// CIM fault-injection rates (default: fault-free).
    #[must_use]
    pub fn fault_rates(mut self, rates: FaultRates) -> Self {
        self.fault_rates = rates;
        self
    }

    /// Per-cell TRNG bias sigma around the 50% point (default 0.04,
    /// matching device-level fluctuation of read-noise TRNGs).
    #[must_use]
    pub fn trng_bias_sigma(mut self, sigma: f64) -> Self {
        self.trng_bias_sigma = sigma;
        self
    }

    /// Stream rows available in the array (default 64; release handles to
    /// recycle).
    #[must_use]
    pub fn stream_rows(mut self, rows: usize) -> Self {
        self.stream_rows = rows;
        self
    }

    /// Device parameter set (default HfO₂).
    #[must_use]
    pub fn device(mut self, params: DeviceParams) -> Self {
        self.device = params;
        self
    }

    /// Record an NVMain-style command trace of every operation.
    #[must_use]
    pub fn record_trace(mut self, on: bool) -> Self {
        self.record_trace = on;
        self
    }

    /// Memory bank recorded trace commands address (default 0). Multi-
    /// array schedules map each array onto its own bank so stitched
    /// traces replay bank-parallel, mirroring the paper's multi-array
    /// pipelining.
    #[must_use]
    pub fn trace_bank(mut self, bank: usize) -> Self {
        self.trace_bank = bank;
        self
    }

    /// Random-number refresh policy (default
    /// [`RnRefreshPolicy::PerEncode`]). See the policy's docs for the
    /// stream-correlation consequences of realization reuse.
    #[must_use]
    pub fn refresh_policy(mut self, policy: RnRefreshPolicy) -> Self {
        self.refresh_policy = policy;
        self
    }

    /// Von Neumann-whiten the [`Accelerator::trng_select`] path (default
    /// off). Each select bit is then extracted from repeated shot-pairs
    /// of one TRNG cell, cancelling the cell's static bias
    /// (`trng_bias_sigma`) exactly at a ≥ 4× raw-bit cost — the raw-bit
    /// consumption stays visible via [`Accelerator::trng_raw_bits`].
    /// RN-row refreshes are unaffected: IMSNG's comparison against
    /// biased random rows is bias-tolerant by construction, while the
    /// select row's bias enters MAJ blends linearly.
    #[must_use]
    pub fn whiten_select(mut self, on: bool) -> Self {
        self.whiten_select = on;
        self
    }

    /// Allocate destination rows least-worn-first instead of LIFO
    /// (default off). Spreads stream writes across the crossbar so
    /// repeated tile plans stop hammering row `rn..rn+k`; pixel output is
    /// unchanged in fault-free runs (stream contents do not depend on
    /// which physical row holds them), but command traces and row indices
    /// differ from the LIFO allocator.
    #[must_use]
    pub fn wear_leveling(mut self, on: bool) -> Self {
        self.wear_leveling = on;
        self
    }

    /// Builds the accelerator.
    ///
    /// # Errors
    ///
    /// Returns [`ImscError::InvalidConfig`] for out-of-range dimensions or
    /// [`ImscError::Device`] for invalid device or fault parameters.
    pub fn build(self) -> Result<Accelerator, ImscError> {
        if self.stream_len < 2 {
            return Err(ImscError::InvalidConfig("stream_len must be at least 2"));
        }
        if self.stream_rows < 2 {
            return Err(ImscError::InvalidConfig("stream_rows must be at least 2"));
        }
        if self.trng_bias_sigma < 0.0 || self.trng_bias_sigma >= 0.5 {
            return Err(ImscError::InvalidConfig(
                "trng_bias_sigma must be in [0, 0.5)",
            ));
        }
        if self.refresh_policy == RnRefreshPolicy::EveryN(0) {
            return Err(ImscError::InvalidConfig(
                "EveryN refresh interval must be nonzero",
            ));
        }
        self.device.validate()?;
        self.fault_rates.validate()?;
        let imsng = Imsng::new(self.variant, self.segment_bits)?;
        let m = self.segment_bits as usize;
        let total_rows = m + self.stream_rows;
        let array = CrossbarArray::with_params(
            total_rows,
            self.stream_len,
            self.device,
            self.seed ^ 0x5EED_0001,
        );
        let allocator = RowAllocator::new(total_rows, m)?;
        let sl = if self.fault_rates.is_fault_free() {
            ScoutingLogic::ideal()
        } else {
            ScoutingLogic::with_faults(self.fault_rates, self.seed ^ 0x5EED_0002)
        };
        // Cell count rounded up to a 64-multiple so row fills always take
        // the TRNG's word-parallel path.
        let trng = TrngEngine::new(
            4096.max(self.stream_len.next_multiple_of(64)),
            self.trng_bias_sigma,
            self.seed ^ 0x5EED_0003,
        );
        let rn_rows = allocator.rn_rows();
        Ok(Accelerator {
            stream_len: self.stream_len,
            imsng,
            array,
            allocator,
            rn_rows,
            sl,
            latches: WriteDriverLatches::new(self.stream_len),
            trng,
            s2b: StochasticToBinary::ideal8(),
            slots: Vec::new(),
            next_group: 0,
            ledger: CostLedger::default(),
            trace: if self.record_trace {
                Some(Trace::new())
            } else {
                None
            },
            trace_bank: self.trace_bank,
            cache_enabled: self.fault_rates.is_fault_free(),
            encode_cache: HashMap::new(),
            encode_cache_spare: Vec::new(),
            encode_cache_epoch: 0,
            cache_hits: 0,
            refresh_policy: self.refresh_policy,
            whiten_select: self.whiten_select,
            wear_leveling: self.wear_leveling,
            rn_epoch: 0,
            encodes_since_refresh: 0,
        })
    }
}

/// One operation of a batched program for
/// [`Accelerator::execute_many`]. Each variant mirrors the corresponding
/// single-operation method and yields one result handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BatchOp {
    /// SC multiplication (AND over uncorrelated streams).
    Multiply(StreamHandle, StreamHandle),
    /// MAJ scaled addition over uncorrelated streams.
    ScaledAdd(StreamHandle, StreamHandle),
    /// OR approximate addition over uncorrelated streams.
    ApproxAdd(StreamHandle, StreamHandle),
    /// XOR absolute subtraction over correlated streams.
    AbsSubtract(StreamHandle, StreamHandle),
    /// AND minimum over correlated streams.
    Minimum(StreamHandle, StreamHandle),
    /// OR maximum over correlated streams.
    Maximum(StreamHandle, StreamHandle),
    /// CORDIV division over correlated streams.
    Divide(StreamHandle, StreamHandle),
    /// Inverted-read complement.
    Complement(StreamHandle),
    /// Directed MAJ blend of two correlated streams with an independent
    /// select.
    Blend(StreamHandle, StreamHandle, StreamHandle),
}

/// The all-in-memory stochastic-computing accelerator.
///
/// # RN refresh policy
///
/// The random-number rows are rewritten ("refreshed") according to the
/// builder's [`RnRefreshPolicy`]; each rewrite starts a new *RN epoch*
/// ([`Accelerator::rn_epoch`]). Streams encoded within one epoch share a
/// realization and are maximally correlated (SCC ≈ +1) even though their
/// correlation-domain labels differ — reusing realizations across encode
/// batches trades entropy cost against that correlation, which is
/// harmless only when the affected streams never meet in one operation
/// (see the policy docs for when reuse is harmless, required, or
/// harmful).
///
/// # Encode cache
///
/// Within one RN epoch, an ideal-mode IMSNG conversion is a pure
/// function of the operand: the same operand always produces
/// bit-identical stream rows. The accelerator therefore memoizes
/// conversions per `(operand, RN epoch)` — repeated operands under one
/// realization (e.g. equal neighbouring pixels) replay the cached row
/// with one packed row write instead of re-running the `5·M`-step
/// comparison schedule. A refresh does not clear the cache inline;
/// entries simply stop matching once the epoch moves on and are pruned
/// lazily. Cost accounting records the *modeled* hardware work, which is
/// identical on hit and miss, so ledgers and traces are unaffected by
/// caching. The cache is disabled under fault injection, where every
/// conversion draws fresh faults.
///
/// # Example
///
/// ```
/// use imsc::engine::Accelerator;
/// use sc_core::Fixed;
///
/// # fn main() -> Result<(), imsc::ImscError> {
/// let mut acc = Accelerator::builder().stream_len(512).seed(3).build()?;
/// // |x − y| needs correlated streams: encode them against shared RN rows.
/// let (x, y) = acc.encode_correlated(Fixed::from_u8(200), Fixed::from_u8(72))?;
/// let d = acc.abs_subtract(x, y)?;
/// let v = acc.read_value(d)?;
/// assert!((v - 0.5).abs() < 0.08);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Accelerator {
    stream_len: usize,
    imsng: Imsng,
    array: CrossbarArray,
    allocator: RowAllocator,
    rn_rows: Vec<usize>,
    sl: ScoutingLogic,
    /// The array's L0/L1 write-driver latches (Fig. 1c), reused by every
    /// IMSNG conversion.
    latches: WriteDriverLatches,
    trng: TrngEngine,
    s2b: StochasticToBinary,
    slots: Vec<StreamSlot>,
    next_group: u64,
    ledger: CostLedger,
    trace: Option<Trace>,
    trace_bank: usize,
    cache_enabled: bool,
    /// Memoized conversions keyed by the RN epoch they were generated
    /// under ([`Accelerator::rn_epoch`]): the stream *and* the cost
    /// `generate` reported for it, so hit and miss cost come from the
    /// same source of truth. `encode_cache_epoch` records which epoch the
    /// map's entries belong to; entries from older epochs are pruned
    /// lazily on first use after a refresh (no inline clearing on the
    /// refresh path).
    encode_cache: HashMap<Fixed, (BitStream, crate::imsng::ImsngCost)>,
    /// Row buffers of pruned entries, refilled by later misses instead of
    /// allocating one stream per conversion.
    encode_cache_spare: Vec<BitStream>,
    encode_cache_epoch: u64,
    cache_hits: u64,
    refresh_policy: RnRefreshPolicy,
    whiten_select: bool,
    wear_leveling: bool,
    /// Count of RN realizations so far; 0 means the RN rows have never
    /// been filled.
    rn_epoch: u64,
    /// Encode batches since the last refresh (drives `EveryN`).
    encodes_since_refresh: u64,
}

impl Accelerator {
    /// Starts building an accelerator.
    #[must_use]
    pub fn builder() -> AcceleratorBuilder {
        AcceleratorBuilder::new()
    }

    /// The stream length `N`.
    #[must_use]
    pub fn stream_len(&self) -> usize {
        self.stream_len
    }

    /// The comparator segment width `M`.
    #[must_use]
    pub fn segment_bits(&self) -> u32 {
        self.imsng.segment_bits()
    }

    /// The accumulated cost ledger.
    #[must_use]
    pub fn ledger(&self) -> &CostLedger {
        &self.ledger
    }

    /// The recorded command trace, if tracing was enabled.
    #[must_use]
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// Drains the recorded command trace, leaving recording enabled with
    /// an empty buffer. Streaming consumers (the instrumentation sink)
    /// call this at schedule boundaries so whole-frame runs never buffer
    /// one giant trace. Returns `None` when tracing is off.
    pub fn take_trace(&mut self) -> Option<Trace> {
        self.trace
            .as_mut()
            .map(|t| std::mem::replace(t, Trace::new()))
    }

    /// The memory bank this accelerator's trace commands address.
    #[must_use]
    pub fn trace_bank(&self) -> usize {
        self.trace_bank
    }

    /// Reserves handle storage for `additional` more streams. Handles are
    /// never reused, so every op appends one slot; reserving up front lets
    /// a long run of ops proceed without reallocating.
    pub fn reserve_slots(&mut self, additional: usize) {
        self.slots.reserve(additional);
    }

    /// Stream rows still available before handles must be released.
    #[must_use]
    pub fn available_rows(&self) -> usize {
        self.allocator.available()
    }

    fn fresh_group(&mut self) -> u64 {
        self.next_group += 1;
        self.next_group
    }

    /// The single allocation point for destination rows: LIFO by default,
    /// least-worn-first (against the array's live wear map) under
    /// [`AcceleratorBuilder::wear_leveling`]. Every op routes through
    /// here, so the alloc-dest-before-cost invariant is mode-independent.
    fn alloc_row(&mut self) -> Result<usize, ImscError> {
        if self.wear_leveling {
            self.allocator.alloc_least_worn(self.array.wear())
        } else {
            self.allocator.alloc()
        }
    }

    fn record(&mut self, cmd: CmdKind, row: usize) {
        if let Some(t) = self.trace.as_mut() {
            t.push(Command::new(self.trace_bank, row, cmd));
        }
    }

    /// Rewrites all RN rows with fresh TRNG output, starting a new RN
    /// realization (epoch). Called automatically according to the
    /// configured [`RnRefreshPolicy`]; under
    /// [`RnRefreshPolicy::Explicit`] this is the caller's scheduling
    /// handle. Conversions memoized under older epochs stop matching (the
    /// encode cache is keyed by epoch) without being cleared inline.
    ///
    /// # Errors
    ///
    /// Substrate errors only.
    pub fn refresh_rn_rows(&mut self) -> Result<(), ImscError> {
        self.rn_epoch += 1;
        self.encodes_since_refresh = 0;
        for i in 0..self.rn_rows.len() {
            let row = self.rn_rows[i];
            self.trng.fill_row(&mut self.array, row)?;
            self.ledger.trng_fills += 1;
            self.record(CmdKind::Write, row);
        }
        Ok(())
    }

    /// The current RN-realization counter (0 until the first fill).
    #[must_use]
    pub fn rn_epoch(&self) -> u64 {
        self.rn_epoch
    }

    /// The configured refresh policy.
    #[must_use]
    pub fn refresh_policy(&self) -> RnRefreshPolicy {
        self.refresh_policy
    }

    /// Whether the next encode batch will trigger a policy-scheduled
    /// refresh. The very first batch always fills the rows, whatever the
    /// policy. Split out so batched recording can flush conversions of
    /// the outgoing realization *before* the refresh fill hits the trace.
    fn refresh_due(&self) -> bool {
        self.rn_epoch == 0
            || match self.refresh_policy {
                RnRefreshPolicy::PerEncode => true,
                RnRefreshPolicy::EveryN(n) => self.encodes_since_refresh >= n,
                RnRefreshPolicy::Explicit => false,
            }
    }

    /// Runs the policy-scheduled refresh in front of one encode batch.
    fn refresh_for_encode(&mut self) -> Result<(), ImscError> {
        if self.refresh_due() {
            self.refresh_rn_rows()?;
        }
        self.encodes_since_refresh += 1;
        Ok(())
    }

    /// Converts `x` into `dest`, replaying a cached stream when the same
    /// operand was already converted under the current RN realization.
    /// Modeled cost is identical either way.
    fn generate_into(
        &mut self,
        x: Fixed,
        dest: usize,
    ) -> Result<crate::imsng::ImsngCost, ImscError> {
        let m = self.imsng.segment_bits();
        if self.cache_enabled {
            // Lazy epoch keying: entries belong to `encode_cache_epoch`;
            // a realization change simply stops them from matching.
            if self.encode_cache_epoch != self.rn_epoch {
                self.encode_cache_spare
                    .extend(self.encode_cache.drain().map(|(_, (stream, _))| stream));
                self.encode_cache_epoch = self.rn_epoch;
            }
            let key = x.requantize(m)?;
            if let Some((stream, cost)) = self.encode_cache.get(&key) {
                self.array.write_row(dest, stream)?;
                let cost = *cost;
                // The modeled hardware still runs the full comparison
                // schedule; keep the scouting-op counter faithful to it.
                self.sl.note_ops(u64::from(m));
                self.cache_hits += 1;
                return Ok(cost);
            }
            let cost = self.imsng.generate(
                &mut self.array,
                &mut self.sl,
                &mut self.latches,
                &self.rn_rows,
                x,
                dest,
            )?;
            // L0 still holds the stream just written to `dest`.
            let generated = self.latches.data().as_words();
            let mut stream = self
                .encode_cache_spare
                .pop()
                .unwrap_or_else(|| BitStream::zeros(self.stream_len));
            stream.assign_words(|w| w.copy_from_slice(generated));
            self.encode_cache.insert(key, (stream, cost));
            Ok(cost)
        } else {
            self.imsng.generate(
                &mut self.array,
                &mut self.sl,
                &mut self.latches,
                &self.rn_rows,
                x,
                dest,
            )
        }
    }

    /// Records the command stream of one batched IMSNG dispatch covering
    /// `dests` conversions (a batch of one is a plain single encode).
    ///
    /// The comparison schedule runs segment-major: each RN segment row is
    /// asserted while the 5 sensing steps of *every* operand in the batch
    /// execute against the peripheral latches, then the next segment row
    /// is selected. The scout reads are therefore anchored at the segment
    /// row — back-to-back operands on one segment re-assert the same
    /// wordline group, which a row-buffer-aware replay counts as row hits
    /// (this is exactly how encode coalescing pays off in the banked
    /// model). The per-conversion write phase (variant intermediates plus
    /// the final SBS write) targets each destination row afterwards.
    fn record_imsng_batch(&mut self, dests: &[usize]) {
        if self.trace.is_none() || dests.is_empty() {
            return;
        }
        let m = self.imsng.segment_bits() as usize;
        for s in 0..m {
            let rn_row = self.rn_rows[s];
            for _ in 0..5 * dests.len() {
                self.record(CmdKind::ScoutRead { rows: 2 }, rn_row);
            }
        }
        let writes = self.imsng.variant().writes_per_bit() as usize * m;
        for &dest in dests {
            for _ in 0..writes {
                self.record(CmdKind::Write, dest);
            }
            self.record(CmdKind::Write, dest);
        }
    }

    fn slot(&self, h: StreamHandle) -> Result<&StreamSlot, ImscError> {
        self.slots
            .get(h.0)
            .filter(|s| s.alive)
            .ok_or(ImscError::InvalidHandle(h.0))
    }

    fn new_slot(&mut self, row: usize, group: u64) -> StreamHandle {
        self.slots.push(StreamSlot {
            row,
            correlation_group: group,
            alive: true,
        });
        StreamHandle(self.slots.len() - 1)
    }

    /// Encodes a binary operand into a stochastic stream with a fresh
    /// correlation domain — step ❶ of the SC flow. Whether the stream is
    /// actually independent of earlier encodes is governed by the
    /// [`RnRefreshPolicy`]: under realization reuse (`EveryN`,
    /// `Explicit`) streams of distinct domains can still be maximally
    /// correlated — see the policy docs.
    ///
    /// The destination row is allocated before any cost is charged, so a
    /// failed allocation leaves the ledger and trace untouched.
    ///
    /// # Errors
    ///
    /// * [`ImscError::OutOfRows`] — release handles to recycle rows.
    /// * [`ImscError::Device`] / [`ImscError::Stochastic`] — substrate
    ///   failures.
    pub fn encode(&mut self, x: Fixed) -> Result<StreamHandle, ImscError> {
        Ok(self.encode_many(std::slice::from_ref(&x))?[0])
    }

    /// Encodes a batch of operands, each in its own fresh correlation
    /// domain (the batched form of [`Accelerator::encode`]). Row and slot
    /// bookkeeping is reserved once for the whole batch, and conversions
    /// sharing one RN realization are recorded as a single segment-major
    /// IMSNG dispatch ([`Accelerator::record_imsng_batch`]); a policy
    /// refresh mid-batch flushes the outgoing realization's dispatch
    /// before the fill writes.
    ///
    /// # Errors
    ///
    /// Same as [`Accelerator::encode`]; on failure, rows already encoded
    /// by this call are released (their modeled cost stays charged, and
    /// their commands stay recorded — the hardware did run them).
    pub fn encode_many(&mut self, operands: &[Fixed]) -> Result<Vec<StreamHandle>, ImscError> {
        self.slots.reserve(operands.len());
        let mut handles = Vec::with_capacity(operands.len());
        let mut pending: Vec<usize> = Vec::with_capacity(operands.len());
        for &x in operands {
            if !pending.is_empty() && self.refresh_due() {
                let flushed = std::mem::take(&mut pending);
                self.record_imsng_batch(&flushed);
            }
            let dest = match self.alloc_row() {
                Ok(d) => d,
                Err(e) => {
                    self.record_imsng_batch(&pending);
                    for h in handles {
                        let _ = self.release(h);
                    }
                    return Err(e);
                }
            };
            let generated = self
                .refresh_for_encode()
                .and_then(|()| self.generate_into(x, dest));
            match generated {
                Ok(cost) => {
                    self.ledger.imsng.accumulate(&cost);
                    pending.push(dest);
                    let group = self.fresh_group();
                    handles.push(self.new_slot(dest, group));
                }
                Err(e) => {
                    self.allocator.release(dest);
                    self.record_imsng_batch(&pending);
                    for h in handles {
                        let _ = self.release(h);
                    }
                    return Err(e);
                }
            }
        }
        self.record_imsng_batch(&pending);
        Ok(handles)
    }

    /// Encodes two operands against the *same* random-number realization,
    /// yielding maximally correlated streams (required by
    /// [`Accelerator::abs_subtract`], [`Accelerator::divide`],
    /// [`Accelerator::minimum`], [`Accelerator::maximum`]).
    ///
    /// # Errors
    ///
    /// Same as [`Accelerator::encode`].
    pub fn encode_correlated(
        &mut self,
        x: Fixed,
        y: Fixed,
    ) -> Result<(StreamHandle, StreamHandle), ImscError> {
        let handles = self.encode_correlated_many(&[x, y])?;
        Ok((handles[0], handles[1]))
    }

    /// Encodes any number of operands against one shared random-number
    /// realization — all resulting streams are pairwise maximally
    /// correlated (one correlation domain). Bilinear interpolation uses
    /// this for its four neighbouring pixels, matting for `(I, B, F)`.
    ///
    /// # Errors
    ///
    /// Same as [`Accelerator::encode`]; additionally
    /// [`ImscError::InvalidConfig`] for an empty operand list.
    pub fn encode_correlated_many(
        &mut self,
        operands: &[Fixed],
    ) -> Result<Vec<StreamHandle>, ImscError> {
        if operands.is_empty() {
            return Err(ImscError::InvalidConfig(
                "encode_correlated_many needs at least one operand",
            ));
        }
        // All destination rows are reserved before any cost is charged,
        // so row exhaustion anywhere in the batch leaves the ledger and
        // trace untouched.
        let mut dests = Vec::with_capacity(operands.len());
        for _ in operands {
            match self.alloc_row() {
                Ok(d) => dests.push(d),
                Err(e) => {
                    for d in dests {
                        self.allocator.release(d);
                    }
                    return Err(e);
                }
            }
        }
        let mut costs = Vec::with_capacity(operands.len());
        let mut generate_all = || -> Result<(), ImscError> {
            self.refresh_for_encode()?;
            for (&op, &dest) in operands.iter().zip(&dests) {
                costs.push(self.generate_into(op, dest)?);
            }
            Ok(())
        };
        if let Err(e) = generate_all() {
            for d in dests {
                self.allocator.release(d);
            }
            return Err(e);
        }
        let group = self.fresh_group();
        let mut handles = Vec::with_capacity(dests.len());
        for (&dest, cost) in dests.iter().zip(costs) {
            self.ledger.imsng.accumulate(&cost);
            handles.push(self.new_slot(dest, group));
        }
        // One shared realization ⇒ one segment-major dispatch.
        self.record_imsng_batch(&dests);
        Ok(handles)
    }

    /// Scaled blend via a single 3-input majority over *correlated*
    /// operands with an independent select: wherever the operand bits
    /// agree MAJ passes them through, and wherever they differ the select
    /// bit decides — computing exactly
    /// `sel·max(a,b) + (1−sel)·min(a,b)`.
    ///
    /// This is the CIM-friendly MUX replacement of §III-B and the kernel
    /// of compositing / bilinear interpolation (Fig. 3a–b). To realize a
    /// *directed* MUX `sel·a + (1−sel)·b`, feed `sel` when `a ≥ b` and
    /// the complement select when `a < b` — the operand ordering is known
    /// at encode time from the binary values, so this costs nothing
    /// (see `imgproc::compositing`).
    ///
    /// The result stays in `a`/`b`'s correlation domain.
    ///
    /// # Errors
    ///
    /// [`ImscError::CorrelationMismatch`] unless `a`,`b` share a domain
    /// and `sel` is outside it.
    pub fn blend(
        &mut self,
        a: StreamHandle,
        b: StreamHandle,
        sel: StreamHandle,
    ) -> Result<StreamHandle, ImscError> {
        let (ra, ga) = {
            let s = self.slot(a)?;
            (s.row, s.correlation_group)
        };
        let (rb, gb) = {
            let s = self.slot(b)?;
            (s.row, s.correlation_group)
        };
        let (rs, gs) = {
            let s = self.slot(sel)?;
            (s.row, s.correlation_group)
        };
        if ga != gb {
            return Err(ImscError::CorrelationMismatch {
                op: "blend",
                requires_correlated: true,
            });
        }
        if gs == ga {
            return Err(ImscError::CorrelationMismatch {
                op: "blend select",
                requires_correlated: false,
            });
        }
        // Destination first: no phantom costs on row exhaustion.
        let dest = self.alloc_row()?;
        self.scout(SlOp::Maj, &[ra, rb, rs], dest)?;
        self.ledger.sl_single_ops += 1;
        self.record(CmdKind::ScoutRead { rows: 3 }, ra);
        self.array.write_row(dest, self.sl.result())?;
        self.ledger.stream_writes += 1;
        self.record(CmdKind::Write, dest);
        Ok(self.new_slot(dest, ga))
    }

    /// Writes one fresh TRNG row into a stream slot and returns it as a
    /// ~0.5-probability select stream in its own correlation domain.
    ///
    /// This is the paper's native select source: the MUX-replacement MAJ
    /// of §III-B takes a *random row* on its select port, and the
    /// in-array TRNG produces one in a single-step write — no IMSNG
    /// conversion, no RN-row refresh, and (crucially) no correlation with
    /// any stream encoded from the RN rows, whatever the refresh policy.
    /// Per-cell device bias (the builder's `trng_bias_sigma`) applies, as
    /// it does to the RN rows themselves.
    ///
    /// # Errors
    ///
    /// [`ImscError::OutOfRows`] or substrate errors.
    pub fn trng_select(&mut self) -> Result<StreamHandle, ImscError> {
        let dest = self.alloc_row()?;
        self.fill_select(dest)?;
        self.ledger.trng_fills += 1;
        self.record(CmdKind::Write, dest);
        let group = self.fresh_group();
        Ok(self.new_slot(dest, group))
    }

    /// Writes one ~0.5 select row into `dest`, whitened when the builder
    /// asked for it. The plain row is drawn through the TRNG's own row
    /// buffer.
    fn fill_select(&mut self, dest: usize) -> Result<(), reram::ReramError> {
        if self.whiten_select {
            let row = self.trng.generate_row_whitened(self.stream_len);
            self.array.write_row(dest, &row).map(|_| ())
        } else {
            self.trng.fill_row(&mut self.array, dest)
        }
    }

    /// Runs one scouting op into the engine's result buffer; on a sensing
    /// error the already-allocated `dest` is released, so a failed op
    /// leaves no phantom cost. Callers write the result to `dest` from
    /// [`ScoutingLogic::result`] after recording the sense.
    fn scout(&mut self, op: SlOp, rows: &[usize], dest: usize) -> Result<(), ImscError> {
        if let Err(e) = self.sl.execute_in_place(&mut self.array, op, rows) {
            self.allocator.release(dest);
            return Err(e.into());
        }
        Ok(())
    }

    /// Raw bits drawn from the in-memory TRNG so far (RN-row refreshes
    /// and select rows). Under [`AcceleratorBuilder::whiten_select`] the
    /// Von Neumann extractor's ≥ 4× raw-bit overhead shows up here while
    /// the ledger keeps counting one `trng_fill` per row written.
    #[must_use]
    pub fn trng_raw_bits(&self) -> u64 {
        self.trng.bits_generated()
    }

    /// Loads an externally produced stream into the array (fresh
    /// correlation domain). Mainly useful for tests and interop.
    ///
    /// # Errors
    ///
    /// * [`ImscError::Stochastic`] — stream length mismatch.
    /// * [`ImscError::OutOfRows`] — array exhausted.
    pub fn load_stream(&mut self, s: &BitStream) -> Result<StreamHandle, ImscError> {
        if s.len() != self.stream_len {
            return Err(ImscError::Stochastic(sc_core::ScError::LengthMismatch {
                left: s.len(),
                right: self.stream_len,
            }));
        }
        let dest = self.alloc_row()?;
        self.array.write_row(dest, s)?;
        self.ledger.stream_writes += 1;
        self.record(CmdKind::Write, dest);
        let group = self.fresh_group();
        Ok(self.new_slot(dest, group))
    }

    fn binary_sl_op(
        &mut self,
        op: SlOp,
        a: StreamHandle,
        b: StreamHandle,
        require_correlated: bool,
        op_name: &'static str,
    ) -> Result<StreamHandle, ImscError> {
        let (ra, ga) = {
            let s = self.slot(a)?;
            (s.row, s.correlation_group)
        };
        let (rb, gb) = {
            let s = self.slot(b)?;
            (s.row, s.correlation_group)
        };
        let correlated = ga == gb;
        if correlated != require_correlated {
            return Err(ImscError::CorrelationMismatch {
                op: op_name,
                requires_correlated: require_correlated,
            });
        }
        // Destination first: a failed allocation must not leave phantom
        // op costs in the ledger or trace.
        let dest = self.alloc_row()?;
        self.scout(op, &[ra, rb], dest)?;
        match op {
            SlOp::Xor | SlOp::Xnor => self.ledger.sl_xor_ops += 1,
            _ => self.ledger.sl_single_ops += 1,
        }
        self.record(CmdKind::ScoutRead { rows: 2 }, ra);
        self.array.write_row(dest, self.sl.result())?;
        self.ledger.stream_writes += 1;
        self.record(CmdKind::Write, dest);
        // Correlated-input results are threshold/interval tests of the
        // same shared random numbers, so they remain in the operands'
        // correlation domain; uncorrelated-input results get a fresh one.
        let group = if require_correlated {
            ga
        } else {
            self.fresh_group()
        };
        Ok(self.new_slot(dest, group))
    }

    /// SC multiplication `x·y` (AND over uncorrelated streams).
    ///
    /// # Errors
    ///
    /// [`ImscError::CorrelationMismatch`] if the operands share a
    /// correlation domain; substrate errors otherwise.
    pub fn multiply(
        &mut self,
        a: StreamHandle,
        b: StreamHandle,
    ) -> Result<StreamHandle, ImscError> {
        self.binary_sl_op(SlOp::And, a, b, false, "multiply")
    }

    /// CIM-friendly scaled addition `(x + y)/2`: 3-input majority with a
    /// fresh in-memory TRNG row on the select port (§III-B).
    ///
    /// The select is one single-step [`Accelerator::trng_select`] row —
    /// *not* an IMSNG conversion — so it is independent of both operands
    /// under every refresh policy, never touches the RN rows, and leaves
    /// the encode cache's realization intact. Total cost on top of the
    /// MAJ: one TRNG row fill and the two row writes (select + result).
    ///
    /// # Errors
    ///
    /// [`ImscError::CorrelationMismatch`] for correlated operands;
    /// substrate errors otherwise.
    pub fn scaled_add(
        &mut self,
        a: StreamHandle,
        b: StreamHandle,
    ) -> Result<StreamHandle, ImscError> {
        let (ra, ga) = {
            let s = self.slot(a)?;
            (s.row, s.correlation_group)
        };
        let (rb, gb) = {
            let s = self.slot(b)?;
            (s.row, s.correlation_group)
        };
        if ga == gb {
            return Err(ImscError::CorrelationMismatch {
                op: "scaled_add",
                requires_correlated: false,
            });
        }
        // Destination first: no phantom costs on row exhaustion.
        let dest = self.alloc_row()?;
        // The select row is generated *into* the destination — the MAJ
        // consumes it and the result overwrites it — so the operation
        // peaks at one extra row, like the pre-policy implementation.
        if let Err(e) = self.fill_select(dest) {
            self.allocator.release(dest);
            return Err(e.into());
        }
        self.ledger.trng_fills += 1;
        self.record(CmdKind::Write, dest);
        self.scout(SlOp::Maj, &[ra, rb, dest], dest)?;
        self.ledger.sl_single_ops += 1;
        self.record(CmdKind::ScoutRead { rows: 3 }, ra);
        self.array.write_row(dest, self.sl.result())?;
        self.ledger.stream_writes += 1;
        self.record(CmdKind::Write, dest);
        let group = self.fresh_group();
        Ok(self.new_slot(dest, group))
    }

    /// Approximate (unscaled) addition `≈ x + y` for `x, y ∈ [0, 0.5]`
    /// (OR over uncorrelated streams).
    ///
    /// # Errors
    ///
    /// [`ImscError::CorrelationMismatch`] for correlated operands.
    pub fn approx_add(
        &mut self,
        a: StreamHandle,
        b: StreamHandle,
    ) -> Result<StreamHandle, ImscError> {
        self.binary_sl_op(SlOp::Or, a, b, false, "approx_add")
    }

    /// Absolute subtraction `|x − y|` (XOR over correlated streams).
    ///
    /// # Errors
    ///
    /// [`ImscError::CorrelationMismatch`] for uncorrelated operands.
    pub fn abs_subtract(
        &mut self,
        a: StreamHandle,
        b: StreamHandle,
    ) -> Result<StreamHandle, ImscError> {
        self.binary_sl_op(SlOp::Xor, a, b, true, "abs_subtract")
    }

    /// Minimum `min(x, y)` (AND over correlated streams).
    ///
    /// # Errors
    ///
    /// [`ImscError::CorrelationMismatch`] for uncorrelated operands.
    pub fn minimum(&mut self, a: StreamHandle, b: StreamHandle) -> Result<StreamHandle, ImscError> {
        self.binary_sl_op(SlOp::And, a, b, true, "minimum")
    }

    /// Maximum `max(x, y)` (OR over correlated streams).
    ///
    /// # Errors
    ///
    /// [`ImscError::CorrelationMismatch`] for uncorrelated operands.
    pub fn maximum(&mut self, a: StreamHandle, b: StreamHandle) -> Result<StreamHandle, ImscError> {
        self.binary_sl_op(SlOp::Or, a, b, true, "maximum")
    }

    /// CORDIV division `x / y` for correlated streams with `x ≤ y`,
    /// executed in the periphery latches (no intermediate array writes).
    ///
    /// # Errors
    ///
    /// * [`ImscError::CorrelationMismatch`] — uncorrelated operands.
    /// * [`ImscError::Stochastic`] — all-zero divisor.
    pub fn divide(&mut self, a: StreamHandle, b: StreamHandle) -> Result<StreamHandle, ImscError> {
        let (ra, ga) = {
            let s = self.slot(a)?;
            (s.row, s.correlation_group)
        };
        let (rb, gb) = {
            let s = self.slot(b)?;
            (s.row, s.correlation_group)
        };
        if ga != gb {
            return Err(ImscError::CorrelationMismatch {
                op: "divide",
                requires_correlated: true,
            });
        }
        // Destination first: no phantom costs on row exhaustion.
        let dest = self.alloc_row()?;
        // Sense both operand rows (faults apply on the sensing path).
        // Each is its own single-row NOT sense read — the ledger charges
        // two single ops, so the trace records two single-row scout
        // reads, one per operand row.
        let sense = |this: &mut Self, row: usize| {
            this.scout(SlOp::Not, &[row], dest)?;
            this.ledger.sl_single_ops += 1;
            this.record(CmdKind::ScoutRead { rows: 1 }, row);
            Ok::<_, ImscError>(this.sl.result().not())
        };
        let x = sense(self, ra)?;
        let y = sense(self, rb)?;
        let quotient = match CordivPeriphery::new().run(&x, &y) {
            Ok(q) => q,
            Err(e) => {
                // The sense reads above were real work and stay charged;
                // the CORDIV steps never ran.
                self.allocator.release(dest);
                return Err(e.into());
            }
        };
        self.ledger.cordiv_steps += self.stream_len as u64;
        if let Some(t) = self.trace.as_mut() {
            t.push_repeated(
                Command::new(self.trace_bank, ra, CmdKind::CordivStep),
                self.stream_len,
            );
        }
        self.array.write_row(dest, &quotient)?;
        self.ledger.stream_writes += 1;
        self.record(CmdKind::Write, dest);
        let group = self.fresh_group();
        Ok(self.new_slot(dest, group))
    }

    /// Complement `1 − x` (inverted read).
    ///
    /// # Errors
    ///
    /// Substrate errors only.
    pub fn complement(&mut self, a: StreamHandle) -> Result<StreamHandle, ImscError> {
        let ra = self.slot(a)?.row;
        let ga = self.slot(a)?.correlation_group;
        // Destination first: no phantom costs on row exhaustion.
        let dest = self.alloc_row()?;
        self.scout(SlOp::Not, &[ra], dest)?;
        self.ledger.sl_single_ops += 1;
        // An inverted read senses a single row.
        self.record(CmdKind::ScoutRead { rows: 1 }, ra);
        self.array.write_row(dest, self.sl.result())?;
        self.ledger.stream_writes += 1;
        self.record(CmdKind::Write, dest);
        // The complement is *anti*-correlated with its source; it stays in
        // the same correlation domain so correlated ops remain legal.
        Ok(self.new_slot(dest, ga))
    }

    /// Reads a stream back as a probability estimate via the reference
    /// column and ADC — step ❸. The row's population count is taken
    /// straight from the packed array words (one counted row read); no
    /// copy of the row is made.
    ///
    /// # Errors
    ///
    /// Substrate errors only.
    pub fn read_value(&mut self, h: StreamHandle) -> Result<f64, ImscError> {
        let row = self.slot(h)?.row;
        self.array.activate_rows(&[row])?;
        let ones: u64 = self
            .array
            .row_words(row)?
            .iter()
            .map(|w| u64::from(w.count_ones()))
            .sum();
        self.ledger.adc_samples += 1;
        self.record(CmdKind::AdcSample, row);
        self.s2b.convert_count_to_prob(ones, self.stream_len as u64)
    }

    /// Copies a stream out of the array (diagnostic path; does not model
    /// the ADC).
    ///
    /// # Errors
    ///
    /// Substrate errors only.
    pub fn read_stream(&mut self, h: StreamHandle) -> Result<BitStream, ImscError> {
        let row = self.slot(h)?.row;
        self.ledger.stream_reads += 1;
        Ok(self.array.read_row(row)?)
    }

    /// Executes a whole program of SC operations, yielding one result
    /// handle per [`BatchOp`] — the batched form of the single-operation
    /// methods. Slot storage is reserved once for the batch and the
    /// per-op ledger/trace updates stay cache-hot across the program.
    ///
    /// # Errors
    ///
    /// The first failing operation's error; handles produced by earlier
    /// operations of the batch remain valid (callers can release them).
    pub fn execute_many(&mut self, ops: &[BatchOp]) -> Result<Vec<StreamHandle>, ImscError> {
        self.slots.reserve(ops.len());
        let mut out = Vec::with_capacity(ops.len());
        for &op in ops {
            let h = match op {
                BatchOp::Multiply(a, b) => self.multiply(a, b)?,
                BatchOp::ScaledAdd(a, b) => self.scaled_add(a, b)?,
                BatchOp::ApproxAdd(a, b) => self.approx_add(a, b)?,
                BatchOp::AbsSubtract(a, b) => self.abs_subtract(a, b)?,
                BatchOp::Minimum(a, b) => self.minimum(a, b)?,
                BatchOp::Maximum(a, b) => self.maximum(a, b)?,
                BatchOp::Divide(a, b) => self.divide(a, b)?,
                BatchOp::Complement(a) => self.complement(a)?,
                BatchOp::Blend(a, b, sel) => self.blend(a, b, sel)?,
            };
            out.push(h);
        }
        Ok(out)
    }

    /// Reads several streams back as probability estimates (batched
    /// [`Accelerator::read_value`]).
    ///
    /// # Errors
    ///
    /// Fails on the first invalid handle or substrate error.
    pub fn read_values(&mut self, handles: &[StreamHandle]) -> Result<Vec<f64>, ImscError> {
        handles.iter().map(|&h| self.read_value(h)).collect()
    }

    /// Releases a batch of stream rows (batched [`Accelerator::release`]).
    ///
    /// # Errors
    ///
    /// Fails on the first already-released or foreign handle; remaining
    /// handles are left untouched.
    pub fn release_many(&mut self, handles: &[StreamHandle]) -> Result<(), ImscError> {
        for &h in handles {
            self.release(h)?;
        }
        Ok(())
    }

    /// Conversions served from the encode cache (see the type-level docs).
    #[must_use]
    pub fn encode_cache_hits(&self) -> u64 {
        self.cache_hits
    }

    /// Bit flips the fault injector has applied so far (0 when built
    /// fault-free). The per-array health signal of fault-domain
    /// scheduling: divided by [`Accelerator::scout_ops_executed`] it
    /// estimates this array's live error rate.
    #[must_use]
    pub fn faults_injected(&self) -> u64 {
        self.sl.faults_injected()
    }

    /// Scouting operations executed by this array's sense path so far.
    #[must_use]
    pub fn scout_ops_executed(&self) -> u64 {
        self.sl.ops_executed()
    }

    /// Whether destination rows are allocated least-worn-first.
    #[must_use]
    pub fn wear_leveling_enabled(&self) -> bool {
        self.wear_leveling
    }

    /// Endurance summary of the stream region's wear map (per-row write
    /// counts of every allocatable row; the reserved RN rows are excluded
    /// because their wear is set by the refresh policy, not the
    /// allocator).
    #[must_use]
    pub fn stream_wear(&self) -> WearSummary {
        WearSummary::from_rows(&self.array.wear()[self.rn_rows.len()..])
    }

    /// Endurance summary of the reserved RN rows' wear map.
    #[must_use]
    pub fn rn_wear(&self) -> WearSummary {
        WearSummary::from_rows(&self.array.wear()[..self.rn_rows.len()])
    }

    /// Releases a stream's row for reuse.
    ///
    /// # Errors
    ///
    /// [`ImscError::InvalidHandle`] if already released or foreign.
    pub fn release(&mut self, h: StreamHandle) -> Result<(), ImscError> {
        let row = {
            let s = self
                .slots
                .get_mut(h.0)
                .filter(|s| s.alive)
                .ok_or(ImscError::InvalidHandle(h.0))?;
            s.alive = false;
            s.row
        };
        self.allocator.release(row);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc(n: usize, seed: u64) -> Accelerator {
        Accelerator::builder()
            .stream_len(n)
            .seed(seed)
            .trng_bias_sigma(0.0)
            .build()
            .unwrap()
    }

    #[test]
    fn multiply_uncorrelated_streams() {
        let mut a = acc(4096, 1);
        let x = a.encode(Fixed::from_u8(192)).unwrap();
        let y = a.encode(Fixed::from_u8(128)).unwrap();
        let p = a.multiply(x, y).unwrap();
        let v = a.read_value(p).unwrap();
        assert!((v - 0.375).abs() < 0.04, "{v}");
    }

    #[test]
    fn scaled_add_halves_the_sum() {
        let mut a = acc(4096, 2);
        let x = a.encode(Fixed::from_u8(200)).unwrap();
        let y = a.encode(Fixed::from_u8(56)).unwrap();
        let s = a.scaled_add(x, y).unwrap();
        let v = a.read_value(s).unwrap();
        assert!((v - 0.5).abs() < 0.04, "{v}");
    }

    #[test]
    fn correlated_subtract_min_max_divide() {
        let mut a = acc(4096, 3);
        let (x, y) = a
            .encode_correlated(Fixed::from_u8(60), Fixed::from_u8(180))
            .unwrap();
        let d = a.abs_subtract(x, y).unwrap();
        assert!((a.read_value(d).unwrap() - 120.0 / 256.0).abs() < 0.05);
        let mn = a.minimum(x, y).unwrap();
        assert!((a.read_value(mn).unwrap() - 60.0 / 256.0).abs() < 0.05);
        let mx = a.maximum(x, y).unwrap();
        assert!((a.read_value(mx).unwrap() - 180.0 / 256.0).abs() < 0.05);
        let q = a.divide(x, y).unwrap();
        assert!((a.read_value(q).unwrap() - 60.0 / 180.0).abs() < 0.07);
    }

    #[test]
    fn correlation_domains_are_enforced() {
        let mut a = acc(256, 4);
        let x = a.encode(Fixed::from_u8(100)).unwrap();
        let y = a.encode(Fixed::from_u8(100)).unwrap();
        assert!(matches!(
            a.abs_subtract(x, y),
            Err(ImscError::CorrelationMismatch { .. })
        ));
        let (u, v) = a
            .encode_correlated(Fixed::from_u8(10), Fixed::from_u8(20))
            .unwrap();
        assert!(matches!(
            a.multiply(u, v),
            Err(ImscError::CorrelationMismatch { .. })
        ));
    }

    #[test]
    fn complement_stays_in_domain() {
        let mut a = acc(2048, 5);
        let (x, _y) = a
            .encode_correlated(Fixed::from_u8(64), Fixed::from_u8(160))
            .unwrap();
        let nx = a.complement(x).unwrap();
        let v = a.read_value(nx).unwrap();
        assert!((v - 0.75).abs() < 0.03, "{v}");
        // ¬x shares x's correlation domain, so correlated ops are legal —
        // and AND(¬x, x) is exactly the empty overlap.
        let z = a.minimum(nx, x).unwrap();
        assert!(a.read_value(z).unwrap() < 0.01);
    }

    #[test]
    fn rows_are_recycled_after_release() {
        let mut a = Accelerator::builder()
            .stream_len(64)
            .stream_rows(4)
            .seed(6)
            .build()
            .unwrap();
        for _ in 0..16 {
            let h = a.encode(Fixed::from_u8(1)).unwrap();
            a.release(h).unwrap();
        }
        assert_eq!(a.available_rows(), 4);
        let h = a.encode(Fixed::from_u8(1)).unwrap();
        assert!(matches!(
            a.read_value(StreamHandle(0)),
            Err(ImscError::InvalidHandle(0))
        ));
        let _ = h;
    }

    #[test]
    fn out_of_rows_is_reported() {
        let mut a = Accelerator::builder()
            .stream_len(64)
            .stream_rows(2)
            .seed(7)
            .build()
            .unwrap();
        let _x = a.encode(Fixed::from_u8(9)).unwrap();
        let _y = a.encode(Fixed::from_u8(9)).unwrap();
        assert!(matches!(
            a.encode(Fixed::from_u8(9)),
            Err(ImscError::OutOfRows)
        ));
    }

    #[test]
    fn ledger_tracks_the_flow() {
        let mut a = acc(256, 8);
        let x = a.encode(Fixed::from_u8(50)).unwrap();
        let y = a.encode(Fixed::from_u8(70)).unwrap();
        let p = a.multiply(x, y).unwrap();
        let _ = a.read_value(p).unwrap();
        let l = a.ledger();
        assert_eq!(l.imsng.sense_ops, 80); // two conversions × 5·8
        assert_eq!(l.sl_single_ops, 1);
        assert_eq!(l.adc_samples, 1);
        assert_eq!(l.stream_writes, 1);
        assert_eq!(l.trng_fills, 16);
    }

    /// Asserts that every command class in the trace matches the ledger's
    /// corresponding counters exactly.
    fn assert_trace_matches_ledger(a: &Accelerator, context: &str) {
        let l = a.ledger();
        let trace = a.trace().expect("tracing enabled");
        let count = |pred: &dyn Fn(&CmdKind) -> bool| -> u64 {
            trace.commands().iter().filter(|c| pred(&c.kind)).count() as u64
        };
        assert_eq!(
            count(&|k| matches!(k, CmdKind::ScoutRead { .. })),
            l.imsng.sense_ops + l.sl_single_ops + l.sl_xor_ops,
            "{context}: scout reads"
        );
        assert_eq!(
            count(&|k| *k == CmdKind::Write),
            l.trng_fills + l.stream_writes + l.imsng.intermediate_writes + l.imsng.sbs_writes,
            "{context}: writes"
        );
        assert_eq!(
            count(&|k| *k == CmdKind::AdcSample),
            l.adc_samples,
            "{context}: adc samples"
        );
        assert_eq!(
            count(&|k| *k == CmdKind::CordivStep),
            l.cordiv_steps,
            "{context}: cordiv steps"
        );
    }

    #[test]
    fn trace_recording_matches_ledger() {
        let mut a = Accelerator::builder()
            .stream_len(256)
            .seed(9)
            .record_trace(true)
            .build()
            .unwrap();
        let x = a.encode(Fixed::from_u8(100)).unwrap();
        let _ = a.read_value(x).unwrap();
        let trace = a.trace().unwrap();
        let scouts = trace
            .commands()
            .iter()
            .filter(|c| matches!(c.kind, CmdKind::ScoutRead { .. }))
            .count();
        assert_eq!(scouts, 40);
        let adcs = trace
            .commands()
            .iter()
            .filter(|c| c.kind == CmdKind::AdcSample)
            .count();
        assert_eq!(adcs, 1);
        // Divide performs two single-row NOT sense reads; the trace must
        // record them as two `ScoutRead { rows: 1 }` commands (one per
        // operand row), keeping the scout count equal to the ledger's.
        let (p, q) = a
            .encode_correlated(Fixed::from_u8(60), Fixed::from_u8(180))
            .unwrap();
        let d = a.divide(p, q).unwrap();
        let _ = a.read_value(d).unwrap();
        let trace = a.trace().unwrap();
        let single_row_scouts = trace
            .commands()
            .iter()
            .filter(|c| matches!(c.kind, CmdKind::ScoutRead { rows: 1 }))
            .count();
        assert_eq!(single_row_scouts, 2);
        assert_trace_matches_ledger(&a, "divide");
    }

    #[test]
    fn ledger_and_trace_agree_for_every_batch_op() {
        // Parity across the whole operation surface: one accelerator per
        // `BatchOp` variant, every command class checked against the
        // ledger.
        type Prep = fn(&mut Accelerator) -> BatchOp;
        let preps: [(&str, Prep); 9] = [
            ("multiply", |a| {
                let x = a.encode(Fixed::from_u8(96)).unwrap();
                let y = a.encode(Fixed::from_u8(160)).unwrap();
                BatchOp::Multiply(x, y)
            }),
            ("scaled_add", |a| {
                let x = a.encode(Fixed::from_u8(96)).unwrap();
                let y = a.encode(Fixed::from_u8(160)).unwrap();
                BatchOp::ScaledAdd(x, y)
            }),
            ("approx_add", |a| {
                let x = a.encode(Fixed::from_u8(40)).unwrap();
                let y = a.encode(Fixed::from_u8(50)).unwrap();
                BatchOp::ApproxAdd(x, y)
            }),
            ("abs_subtract", |a| {
                let (x, y) = a
                    .encode_correlated(Fixed::from_u8(60), Fixed::from_u8(180))
                    .unwrap();
                BatchOp::AbsSubtract(x, y)
            }),
            ("minimum", |a| {
                let (x, y) = a
                    .encode_correlated(Fixed::from_u8(60), Fixed::from_u8(180))
                    .unwrap();
                BatchOp::Minimum(x, y)
            }),
            ("maximum", |a| {
                let (x, y) = a
                    .encode_correlated(Fixed::from_u8(60), Fixed::from_u8(180))
                    .unwrap();
                BatchOp::Maximum(x, y)
            }),
            ("divide", |a| {
                let (x, y) = a
                    .encode_correlated(Fixed::from_u8(60), Fixed::from_u8(180))
                    .unwrap();
                BatchOp::Divide(x, y)
            }),
            ("complement", |a| {
                let x = a.encode(Fixed::from_u8(77)).unwrap();
                BatchOp::Complement(x)
            }),
            ("blend", |a| {
                let (x, y) = a
                    .encode_correlated(Fixed::from_u8(60), Fixed::from_u8(180))
                    .unwrap();
                let s = a.trng_select().unwrap();
                BatchOp::Blend(x, y, s)
            }),
        ];
        for (name, prep) in preps {
            let mut a = Accelerator::builder()
                .stream_len(256)
                .seed(33)
                .record_trace(true)
                .build()
                .unwrap();
            let op = prep(&mut a);
            let out = a.execute_many(&[op]).unwrap();
            let _ = a.read_value(out[0]).unwrap();
            assert_trace_matches_ledger(&a, name);
        }
    }

    #[test]
    fn failed_allocations_charge_nothing() {
        // Exhaust the stream rows, then check that every operation's
        // OutOfRows failure leaves both the ledger and the trace exactly
        // as they were (no phantom op costs).
        let mut a = Accelerator::builder()
            .stream_len(64)
            .stream_rows(5)
            .seed(44)
            .trng_bias_sigma(0.0)
            .record_trace(true)
            .build()
            .unwrap();
        let (x, y) = a
            .encode_correlated(Fixed::from_u8(60), Fixed::from_u8(180))
            .unwrap();
        let u = a.encode(Fixed::from_u8(100)).unwrap();
        let sel = a.trng_select().unwrap();
        let _fill = a.trng_select().unwrap(); // occupy the last row
        assert_eq!(a.available_rows(), 0);

        let ledger_before = *a.ledger();
        let trace_before = a.trace().unwrap().commands().len();
        assert!(matches!(a.multiply(x, u), Err(ImscError::OutOfRows)));
        assert!(matches!(a.approx_add(x, u), Err(ImscError::OutOfRows)));
        assert!(matches!(a.abs_subtract(x, y), Err(ImscError::OutOfRows)));
        assert!(matches!(a.minimum(x, y), Err(ImscError::OutOfRows)));
        assert!(matches!(a.divide(x, y), Err(ImscError::OutOfRows)));
        assert!(matches!(a.scaled_add(x, u), Err(ImscError::OutOfRows)));
        assert!(matches!(a.blend(x, y, sel), Err(ImscError::OutOfRows)));
        assert!(matches!(a.complement(x), Err(ImscError::OutOfRows)));
        assert!(matches!(a.trng_select(), Err(ImscError::OutOfRows)));
        assert!(matches!(
            a.encode(Fixed::from_u8(1)),
            Err(ImscError::OutOfRows)
        ));
        assert!(matches!(
            a.encode_correlated(Fixed::from_u8(1), Fixed::from_u8(2)),
            Err(ImscError::OutOfRows)
        ));
        assert_eq!(*a.ledger(), ledger_before, "phantom costs charged");
        assert_eq!(a.trace().unwrap().commands().len(), trace_before);
    }

    #[test]
    fn scaled_add_cost_is_pinned() {
        // The 0.5 select is one single-step TRNG row: scaled_add must
        // charge exactly one TRNG fill, one MAJ scouting op, and one
        // result-row write on top of the operand encodes — no IMSNG run,
        // no RN-row refresh.
        let mut a = acc(256, 12);
        let x = a.encode(Fixed::from_u8(200)).unwrap();
        let y = a.encode(Fixed::from_u8(56)).unwrap();
        let before = *a.ledger();
        let s = a.scaled_add(x, y).unwrap();
        let l = a.ledger();
        assert_eq!(l.trng_fills, before.trng_fills + 1);
        assert_eq!(l.sl_single_ops, before.sl_single_ops + 1);
        assert_eq!(l.stream_writes, before.stream_writes + 1);
        assert_eq!(l.imsng, before.imsng, "no IMSNG conversion");
        let _ = s;
    }

    #[test]
    fn scaled_add_succeeds_with_one_free_row() {
        // The select lives in the destination row until the MAJ result
        // overwrites it, so one free row is enough (as before the
        // refresh-policy rework).
        let mut a = Accelerator::builder()
            .stream_len(2048)
            .stream_rows(3)
            .seed(51)
            .trng_bias_sigma(0.0)
            .build()
            .unwrap();
        let x = a.encode(Fixed::from_u8(200)).unwrap();
        let y = a.encode(Fixed::from_u8(56)).unwrap();
        assert_eq!(a.available_rows(), 1);
        let s = a.scaled_add(x, y).unwrap();
        let v = a.read_value(s).unwrap();
        assert!((v - 0.5).abs() < 0.05, "{v}");
    }

    #[test]
    fn scaled_add_leaves_the_encode_cache_realization_intact() {
        // Under an explicit policy the cached conversion for an operand
        // must survive a scaled_add (the old implementation refreshed the
        // RN rows mid-operation, killing the realization).
        let mut a = Accelerator::builder()
            .stream_len(512)
            .seed(19)
            .refresh_policy(RnRefreshPolicy::Explicit)
            .build()
            .unwrap();
        let h1 = a.encode(Fixed::from_u8(90)).unwrap();
        let s1 = a.read_stream(h1).unwrap();
        let u = a.encode(Fixed::from_u8(30)).unwrap();
        let epoch = a.rn_epoch();
        let _sum = a.scaled_add(h1, u).unwrap();
        assert_eq!(a.rn_epoch(), epoch, "scaled_add must not refresh");
        let h2 = a.encode(Fixed::from_u8(90)).unwrap();
        assert!(a.encode_cache_hits() >= 1);
        assert_eq!(a.read_stream(h2).unwrap(), s1, "same realization");
    }

    #[test]
    fn every_n_policy_shares_realizations() {
        let mut a = Accelerator::builder()
            .stream_len(2048)
            .seed(23)
            .trng_bias_sigma(0.0)
            .refresh_policy(RnRefreshPolicy::EveryN(4))
            .build()
            .unwrap();
        let x = a.encode(Fixed::from_u8(60)).unwrap();
        let y = a.encode(Fixed::from_u8(180)).unwrap();
        assert_eq!(a.rn_epoch(), 1, "4 batches share one realization");
        assert_eq!(a.ledger().trng_fills, 8);
        let sx = a.read_stream(x).unwrap();
        let sy = a.read_stream(y).unwrap();
        // Shared realization: maximally correlated despite distinct
        // correlation-domain labels.
        assert!(sc_core::correlation::scc(&sx, &sy).unwrap() > 0.99);
        let _ = a.encode(Fixed::from_u8(10)).unwrap();
        let _ = a.encode(Fixed::from_u8(11)).unwrap();
        let _ = a.encode(Fixed::from_u8(12)).unwrap();
        assert_eq!(a.rn_epoch(), 2, "5th batch starts the next realization");
        assert_eq!(a.ledger().trng_fills, 16);
    }

    #[test]
    fn explicit_policy_refreshes_only_on_request() {
        let mut a = Accelerator::builder()
            .stream_len(2048)
            .seed(29)
            .trng_bias_sigma(0.0)
            .refresh_policy(RnRefreshPolicy::Explicit)
            .build()
            .unwrap();
        let x = a.encode(Fixed::from_u8(60)).unwrap();
        let sx = a.read_stream(x).unwrap();
        for i in 0..6 {
            let _ = a.encode(Fixed::from_u8(i)).unwrap();
        }
        assert_eq!(a.rn_epoch(), 1, "only the initial fill");
        a.refresh_rn_rows().unwrap();
        let z = a.encode(Fixed::from_u8(60)).unwrap();
        let sz = a.read_stream(z).unwrap();
        assert_eq!(a.rn_epoch(), 2);
        // Fresh realization: the equal-valued streams decorrelate.
        assert!(sc_core::correlation::scc(&sx, &sz).unwrap() < 0.3);
    }

    #[test]
    fn trng_select_is_half_and_independent_of_encodes() {
        let mut a = Accelerator::builder()
            .stream_len(4096)
            .seed(31)
            .trng_bias_sigma(0.0)
            .refresh_policy(RnRefreshPolicy::Explicit)
            .build()
            .unwrap();
        let x = a.encode(Fixed::from_u8(128)).unwrap();
        let s = a.trng_select().unwrap();
        let v = a.read_value(s).unwrap();
        assert!((v - 0.5).abs() < 0.03, "{v}");
        let sx = a.read_stream(x).unwrap();
        let ss = a.read_stream(s).unwrap();
        // Even under full realization reuse the select is fresh entropy.
        assert!(sc_core::correlation::scc(&sx, &ss).unwrap().abs() < 0.1);
    }

    #[test]
    fn whiten_select_removes_per_cell_bias() {
        // stream_len = TRNG cell count (4096): every select row visits
        // each generator cell exactly once, so per-bit frequencies over
        // many rows expose the per-cell bias directly. Under a large
        // bias sigma the raw path reproduces the worst cell's bias; the
        // whitened path sits at the fair-coin sampling-noise floor.
        let rounds = 500u32;
        let run = |whiten: bool| {
            let mut a = Accelerator::builder()
                .stream_len(4096)
                .seed(91)
                .trng_bias_sigma(0.3)
                .whiten_select(whiten)
                .build()
                .unwrap();
            let mut ones = vec![0u64; 4096];
            for _ in 0..rounds {
                let s = a.trng_select().unwrap();
                let row = a.read_stream(s).unwrap();
                for (i, o) in ones.iter_mut().enumerate() {
                    *o += u64::from(row.get(i).unwrap());
                }
                a.release(s).unwrap();
            }
            let dev = ones
                .iter()
                .map(|&o| (o as f64 / f64::from(rounds) - 0.5).abs())
                .fold(0.0f64, f64::max);
            (dev, a.trng_raw_bits(), *a.ledger())
        };
        let (raw_dev, raw_bits, raw_ledger) = run(false);
        let (white_dev, white_bits, white_ledger) = run(true);
        assert!(raw_dev > 0.25, "raw worst per-cell deviation {raw_dev}");
        assert!(
            white_dev < 0.12,
            "whitened worst per-cell deviation {white_dev}"
        );
        // The extractor pays ≥ 2 raw bits per emitted bit (≥ 4× in
        // expectation once discards are counted); the modeled row-write
        // cost is unchanged — one TRNG fill per select either way.
        assert!(white_bits > 2 * raw_bits);
        assert_eq!(raw_ledger.trng_fills, white_ledger.trng_fills);
    }

    #[test]
    fn invalid_refresh_policy_rejected() {
        assert!(Accelerator::builder()
            .refresh_policy(RnRefreshPolicy::EveryN(0))
            .build()
            .is_err());
        assert!(Accelerator::builder()
            .refresh_policy(RnRefreshPolicy::EveryN(1))
            .build()
            .is_ok());
    }

    #[test]
    fn faulty_accelerator_still_tracks_values() {
        let mut a = Accelerator::builder()
            .stream_len(1024)
            .seed(10)
            .fault_rates(FaultRates::uniform(0.02))
            .build()
            .unwrap();
        let x = a.encode(Fixed::from_u8(128)).unwrap();
        let y = a.encode(Fixed::from_u8(128)).unwrap();
        let p = a.multiply(x, y).unwrap();
        let v = a.read_value(p).unwrap();
        assert!((v - 0.25).abs() < 0.08, "{v}");
    }

    #[test]
    fn divide_rejects_zero_divisor() {
        let mut a = acc(128, 11);
        let (x, y) = a
            .encode_correlated(Fixed::from_u8(0), Fixed::from_u8(0))
            .unwrap();
        assert!(a.divide(x, y).is_err());
    }

    #[test]
    fn invalid_builder_configs() {
        assert!(Accelerator::builder().stream_len(1).build().is_err());
        assert!(Accelerator::builder().stream_rows(1).build().is_err());
        assert!(Accelerator::builder().trng_bias_sigma(0.6).build().is_err());
        assert!(Accelerator::builder().segment_bits(0).build().is_err());
    }

    #[test]
    fn invalid_fault_rates_rejected_at_build() {
        for bad in [-0.5, 1.5, f64::NAN] {
            let err = Accelerator::builder()
                .fault_rates(FaultRates::uniform(bad))
                .build()
                .unwrap_err();
            assert!(matches!(err, ImscError::Device(_)), "{err:?}");
        }
        assert!(Accelerator::builder()
            .fault_rates(FaultRates::uniform(1.0))
            .build()
            .is_ok());
    }

    fn hot_loop(a: &mut Accelerator, iters: usize) -> Vec<f64> {
        let mut out = Vec::new();
        for i in 0..iters {
            let x = a.encode(Fixed::from_u8(64 + (i % 8) as u8)).unwrap();
            let y = a.encode(Fixed::from_u8(200 - (i % 8) as u8)).unwrap();
            let p = a.multiply(x, y).unwrap();
            out.push(a.read_value(p).unwrap());
            a.release_many(&[x, y, p]).unwrap();
        }
        out
    }

    #[test]
    fn wear_leveling_flattens_writes_without_changing_values() {
        let build = |leveled: bool| {
            Accelerator::builder()
                .stream_len(256)
                .seed(21)
                .stream_rows(24)
                .refresh_policy(RnRefreshPolicy::Explicit)
                .wear_leveling(leveled)
                .build()
                .unwrap()
        };
        let mut lifo = build(false);
        let mut leveled = build(true);
        lifo.refresh_rn_rows().unwrap();
        leveled.refresh_rn_rows().unwrap();
        let v_lifo = hot_loop(&mut lifo, 64);
        let v_leveled = hot_loop(&mut leveled, 64);
        // Row placement never enters the fault-free data path: values and
        // modeled cost are bit-identical across allocators.
        assert_eq!(v_lifo, v_leveled);
        assert_eq!(lifo.ledger(), leveled.ledger());
        let w_lifo = lifo.stream_wear();
        let w_leveled = leveled.stream_wear();
        assert_eq!(w_lifo.total, w_leveled.total);
        // LIFO recycles the same 3 rows forever; leveling rotates all 24.
        assert!(
            w_leveled.max * 2 <= w_lifo.max,
            "leveled max {} vs lifo max {}",
            w_leveled.max,
            w_lifo.max
        );
        assert!(w_leveled.max_mean_ratio() < w_lifo.max_mean_ratio());
    }

    #[test]
    fn wear_leveled_failed_allocations_charge_nothing() {
        let mut a = Accelerator::builder()
            .stream_len(64)
            .seed(22)
            .stream_rows(2)
            .wear_leveling(true)
            .build()
            .unwrap();
        let x = a.encode(Fixed::from_u8(100)).unwrap();
        let y = a.encode(Fixed::from_u8(50)).unwrap();
        let ledger = *a.ledger();
        assert!(matches!(a.multiply(x, y), Err(ImscError::OutOfRows)));
        assert_eq!(*a.ledger(), ledger);
        a.release(x).unwrap();
        assert!(a.multiply(x, y).is_err()); // stale handle stays invalid
    }

    #[test]
    fn wear_summaries_split_rn_and_stream_regions() {
        let mut a = acc(256, 23);
        let x = a.encode(Fixed::from_u8(10)).unwrap();
        let _ = a.read_value(x).unwrap();
        let rn = a.rn_wear();
        let stream = a.stream_wear();
        assert_eq!(rn.rows, a.segment_bits() as usize);
        assert_eq!(stream.rows, 64);
        assert!(rn.max >= 1); // refreshed once by the first encode
        assert!(stream.max >= 1); // the encoded stream landed here
        assert_eq!(a.faults_injected(), 0);
        assert!(a.scout_ops_executed() > 0);
    }
}
