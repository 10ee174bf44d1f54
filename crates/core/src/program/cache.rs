//! Compiled-template cache: emit/optimize/plan once, bind and run many.
//!
//! Every tile of a kernel run used to re-emit, re-optimize (~1 ms at
//! [`Optimize::Full`]) and re-plan a [`Program`] whose *structure* is
//! identical across same-shaped tiles — only the encode immediates and
//! output constants differ. This module caches the compiled artifact:
//!
//! * [`ValueTape`] is a [`ProgramSink`] that records an emitter's op
//!   *shape* (a running structure hash plus op/register/output counts)
//!   and its value stream (encode immediates, `read_const` / `divide_or`
//!   constants) without building any ops. Taping a tile costs a few
//!   microseconds where emission costs hundreds.
//! * [`Template`] owns a program together with its [`PlanData`] lowering
//!   schedule and, in *holes* mode, prefix tables mapping each op to its
//!   slice of a [`Bindings`] value stream. Executing a template binds a
//!   tile's values at the accelerator-call boundary — no program is
//!   cloned or patched.
//! * [`PlanCache`] is a bounded, thread-safe map from [`TemplateKey`] to
//!   shared templates with least-recently-used eviction. It also keeps a
//!   *fast path*: a second LRU map from [`BoundKey`] — kernel, row range
//!   and an emitter-supplied frame digest of all inputs — to
//!   [`BoundEntry`] (template, bindings) pairs, so a tile of a repeated
//!   frame executes without even re-taping.
//!
//! # Value safety
//!
//! A template may only be reused where compilation would have produced
//! the same artifact. [`Optimize::Off`] never inspects values, so one
//! template serves every value pattern of a structure — the key's
//! `values` field is 0 and execution binds the tile's values into the
//! template's holes. The rewriting levels are value-dependent
//! ([`Optimize::value_dependent`]): encode dedup, zero-value lowering
//! and threshold folding change the *shape* of the optimized program
//! when immediates change. There the key carries the full value-pattern
//! hash and the template runs its baked-in values verbatim (a hit means
//! the tile's values are identical), so cached execution is bit-identical
//! to uncached at every level.
//!
//! # Fallback
//!
//! A lookup that finds a key match whose recorded source shape (op,
//! register, output and value-slot counts — and at value-dependent
//! levels the exact source values) disagrees with the tape is a hash
//! collision: the caller compiles the tile from scratch and does *not*
//! replace the entry. Surfaced as the `fallbacks` count in run stats.

use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use super::opt::{optimize, Optimize};
use super::{
    next_program_id, BindRef, ExecArena, ExecView, Op, PlanData, Program, ProgramSink,
    RefreshGroup, VReg,
};
use crate::engine::Accelerator;
use crate::error::ImscError;
use crate::fxhash::FxHashMap;
use crate::layout::RnRefreshPolicy;
use sc_core::Fixed;

/// One round of the splitmix64 finalizer folding `v` into `h` — the
/// hash combiner behind the tape's structure/value hashes and the
/// backend's substrate signature.
#[must_use]
pub fn mix(h: u64, v: u64) -> u64 {
    let mut x = h ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Where compile time went, in nanoseconds. Additive across tiles and
/// runs via [`CompileStats::merge`]; `bind_ns` is the cached path's
/// tape-record cost (the only per-tile "compilation" a cache hit pays).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompileStats {
    /// Building `Program` ops from the kernel emitter.
    pub emit_ns: u64,
    /// The optimizer rewrite fixpoint.
    pub optimize_ns: u64,
    /// Planning (last-use analysis, coalescing, boundary schedule).
    pub plan_ns: u64,
    /// Recording the per-tile [`ValueTape`] (cached path only).
    pub bind_ns: u64,
}

impl CompileStats {
    /// Sum of all phases.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.emit_ns + self.optimize_ns + self.plan_ns + self.bind_ns
    }

    /// Accumulates another breakdown into this one.
    pub fn merge(&mut self, other: &CompileStats) {
        self.emit_ns += other.emit_ns;
        self.optimize_ns += other.optimize_ns;
        self.plan_ns += other.plan_ns;
        self.bind_ns += other.bind_ns;
    }
}

/// Per-op structure tags folded into the tape hash. Distinct per op
/// kind (and per `divide` / `divide_or`, whose lowering differs).
mod tag {
    pub const ENCODE: u64 = 1;
    pub const ENCODE_CORRELATED: u64 = 2;
    pub const TRNG_SELECT: u64 = 3;
    pub const MULTIPLY: u64 = 4;
    pub const SCALED_ADD: u64 = 5;
    pub const APPROX_ADD: u64 = 6;
    pub const ABS_SUB: u64 = 7;
    pub const MINIMUM: u64 = 8;
    pub const MAXIMUM: u64 = 9;
    pub const DIVIDE: u64 = 10;
    pub const DIVIDE_OR: u64 = 11;
    pub const COMPLEMENT: u64 = 12;
    pub const BLEND: u64 = 13;
    pub const READ: u64 = 14;
    pub const READ_CONST: u64 = 15;
}

/// The shape of an emitted (pre-optimization) program: the exact counts
/// a [`ValueTape`] must reproduce for a template to accept its
/// bindings. Checked on every cache hit as the collision guard behind
/// the 64-bit structure hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SrcShape {
    ops: u32,
    regs: u32,
    outputs: u32,
    fixed: u32,
    consts: u32,
}

/// A [`ProgramSink`] that records only what the template cache needs:
/// a structure hash over the op shapes, the exact counts, and the value
/// stream in emission order. Registers are fake (stamped with the
/// tape's own program id, so cross-feeding a real program is caught the
/// same way foreign registers are).
#[derive(Debug)]
pub struct ValueTape {
    id: u64,
    ops: u32,
    regs: u32,
    outputs: u32,
    group: RefreshGroup,
    structure: u64,
    values: Vec<Fixed>,
    consts: Vec<f64>,
}

impl Default for ValueTape {
    fn default() -> Self {
        ValueTape::new()
    }
}

impl ValueTape {
    /// An empty tape (current refresh group 0).
    #[must_use]
    pub fn new() -> Self {
        ValueTape {
            id: next_program_id(),
            ops: 0,
            regs: 0,
            outputs: 0,
            group: RefreshGroup::default(),
            structure: 0x243F_6A88_85A3_08D3,
            values: Vec::new(),
            consts: Vec::new(),
        }
    }

    /// Hash of the recorded op shapes, operand wiring, refresh-group
    /// tags and counts — equal tapes ⇒ equal emitted programs modulo
    /// values.
    #[must_use]
    pub fn structure_hash(&self) -> u64 {
        let mut h = mix(self.structure, u64::from(self.ops));
        h = mix(h, u64::from(self.regs));
        h = mix(h, u64::from(self.outputs));
        mix(h, u64::from(self.values.len() as u32))
    }

    /// Hash of the recorded value stream (encode immediates and output
    /// constants), independent of the structure hash.
    #[must_use]
    pub fn value_hash(&self) -> u64 {
        let mut h = 0x9E37_79B9_7F4A_7C15;
        for v in &self.values {
            h = mix(h, v.value());
            h = mix(h, u64::from(v.bits()));
        }
        for c in &self.consts {
            h = mix(h, c.to_bits());
        }
        h
    }

    /// Consumes the tape into the value stream a template binds at
    /// execution time.
    #[must_use]
    pub fn into_bindings(self) -> Bindings {
        Bindings {
            values: self.values,
            consts: self.consts,
        }
    }

    fn shape(&self) -> SrcShape {
        SrcShape {
            ops: self.ops,
            regs: self.regs,
            outputs: self.outputs,
            fixed: self.values.len() as u32,
            consts: self.consts.len() as u32,
        }
    }

    fn check_reg(&self, r: VReg) {
        assert!(
            r.program == self.id && r.index < self.regs as usize,
            "virtual register {} does not belong to this tape",
            r.index
        );
    }

    fn note(&mut self, kind: u64, uses: &[VReg]) {
        self.structure = mix(self.structure, kind);
        self.structure = mix(self.structure, self.group.0);
        for &r in uses {
            self.check_reg(r);
            self.structure = mix(self.structure, r.index as u64);
        }
        self.ops += 1;
    }

    fn def(&mut self) -> VReg {
        let r = VReg {
            program: self.id,
            index: self.regs as usize,
        };
        self.regs += 1;
        r
    }

    fn out(&mut self) -> usize {
        let idx = self.outputs as usize;
        self.outputs += 1;
        idx
    }
}

impl ProgramSink for ValueTape {
    fn encode(&mut self, value: Fixed) -> VReg {
        self.note(tag::ENCODE, &[]);
        self.values.push(value);
        self.def()
    }
    fn encode_correlated(&mut self, values: &[Fixed]) -> Vec<VReg> {
        assert!(
            !values.is_empty(),
            "encode_correlated needs at least one operand"
        );
        self.note(tag::ENCODE_CORRELATED, &[]);
        self.structure = mix(self.structure, values.len() as u64);
        self.values.extend_from_slice(values);
        (0..values.len()).map(|_| self.def()).collect()
    }
    fn trng_select(&mut self) -> VReg {
        self.note(tag::TRNG_SELECT, &[]);
        self.def()
    }
    fn multiply(&mut self, a: VReg, b: VReg) -> VReg {
        self.note(tag::MULTIPLY, &[a, b]);
        self.def()
    }
    fn scaled_add(&mut self, a: VReg, b: VReg) -> VReg {
        self.note(tag::SCALED_ADD, &[a, b]);
        self.def()
    }
    fn approx_add(&mut self, a: VReg, b: VReg) -> VReg {
        self.note(tag::APPROX_ADD, &[a, b]);
        self.def()
    }
    fn abs_subtract(&mut self, a: VReg, b: VReg) -> VReg {
        self.note(tag::ABS_SUB, &[a, b]);
        self.def()
    }
    fn minimum(&mut self, a: VReg, b: VReg) -> VReg {
        self.note(tag::MINIMUM, &[a, b]);
        self.def()
    }
    fn maximum(&mut self, a: VReg, b: VReg) -> VReg {
        self.note(tag::MAXIMUM, &[a, b]);
        self.def()
    }
    fn divide(&mut self, a: VReg, b: VReg) -> VReg {
        self.note(tag::DIVIDE, &[a, b]);
        self.def()
    }
    fn divide_or(&mut self, a: VReg, b: VReg, on_zero: f64) -> VReg {
        self.note(tag::DIVIDE_OR, &[a, b]);
        self.consts.push(on_zero);
        self.def()
    }
    fn complement(&mut self, a: VReg) -> VReg {
        self.note(tag::COMPLEMENT, &[a]);
        self.def()
    }
    fn blend(&mut self, a: VReg, b: VReg, sel: VReg) -> VReg {
        self.note(tag::BLEND, &[a, b, sel]);
        self.def()
    }
    fn read(&mut self, src: VReg) -> usize {
        self.note(tag::READ, &[src]);
        self.out()
    }
    fn read_const(&mut self, value: f64) -> usize {
        self.note(tag::READ_CONST, &[]);
        self.consts.push(value);
        self.out()
    }
    fn next_group(&mut self) -> RefreshGroup {
        self.group = RefreshGroup(self.group.0 + 1);
        self.group
    }
    fn set_group(&mut self, group: RefreshGroup) {
        self.group = group;
    }
}

/// A tile's value stream in emission order, recorded by [`ValueTape`]
/// and bound into a holes-mode [`Template`] at execution time.
#[derive(Debug, Clone, PartialEq)]
pub struct Bindings {
    values: Vec<Fixed>,
    consts: Vec<f64>,
}

/// The identity of a compiled template. Everything compilation depends
/// on is in here; everything execution-side (seed, schedule, thread
/// count) is deliberately *not*, so per-tile and pipelined runs share
/// templates.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TemplateKey {
    /// Stable kernel identity (e.g. `"bilinear"`).
    pub kernel: &'static str,
    /// [`ValueTape::structure_hash`] of the emitted shape — covers the
    /// tile's row-range width and every structurally value-dependent
    /// emitter branch (e.g. matting's degenerate-pixel fallback).
    pub structure: u64,
    /// Optimization level the template was compiled at.
    pub level: Optimize,
    /// Refresh policy the template was planned for.
    pub policy: RnRefreshPolicy,
    /// Substrate signature: stream length, segment bits, variant,
    /// fault/wear configuration (the backend's
    /// `template_substrate_sig`).
    pub substrate: u64,
    /// [`ValueTape::value_hash`] at value-dependent levels; 0 at
    /// [`Optimize::Off`], where one template serves every value
    /// pattern.
    pub values: u64,
}

/// The identity of a fully-bound fast-path entry: a tile whose frame
/// digest matches executed exactly this (template, bindings) pair
/// before, so a hit skips even the [`ValueTape`] re-emission. The
/// `digest` must cover *everything* emission depends on besides the row
/// range — input image bytes and kernel parameters — because there is
/// no tape to cross-check against; an under-covering digest breaks the
/// cached ≡ uncached contract silently. (A 64-bit digest collision is
/// the same accepted risk class as the value-hash key at
/// value-dependent levels.)
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BoundKey {
    /// Stable kernel identity (e.g. `"bilinear"`).
    pub kernel: &'static str,
    /// Output row range of the tile (`start`, `end`).
    pub rows: (u32, u32),
    /// Frame digest: the emitter's hash of its inputs and parameters.
    pub digest: u64,
    /// Optimization level the entry was compiled at.
    pub level: Optimize,
    /// Refresh policy the entry was planned for.
    pub policy: RnRefreshPolicy,
    /// Substrate signature (same field as [`TemplateKey::substrate`]).
    pub substrate: u64,
}

/// A template paired with the exact [`Bindings`] one digest-keyed tile
/// executes — the value of the [`PlanCache`]'s fast path. Validated
/// once at construction, shared by `Arc` after.
#[derive(Debug)]
pub struct BoundEntry {
    template: Arc<Template>,
    binds: Bindings,
}

impl BoundEntry {
    /// Pairs a template with bindings, validating them up front.
    ///
    /// # Errors
    ///
    /// [`ImscError::InvalidConfig`] when the bindings do not fit the
    /// template (see [`Template::check_binds`]).
    pub fn new(template: Arc<Template>, binds: Bindings) -> Result<BoundEntry, ImscError> {
        template.check_binds(&binds)?;
        Ok(BoundEntry { template, binds })
    }

    /// The shared template.
    #[must_use]
    pub fn template(&self) -> &Template {
        &self.template
    }

    /// The tile's recorded value stream.
    #[must_use]
    pub fn bindings(&self) -> &Bindings {
        &self.binds
    }
}

/// An owned, pre-optimized, pre-planned program with value holes —
/// the unit the [`PlanCache`] shares across tiles, frames and threads.
#[derive(Debug)]
pub struct Template {
    program: Program,
    data: PlanData,
    /// Prefix counts of encode immediates / output constants per op of
    /// `program`, mapping each op to its [`Bindings`] slice (holes mode).
    fixed_base: Vec<u32>,
    const_base: Vec<u32>,
    /// Shape of the *source* (pre-optimization) program, compared
    /// against a tape on every hit as the hash-collision guard.
    src: SrcShape,
    /// Exact source values at value-dependent levels (`None` in holes
    /// mode): a hit must match them verbatim, because the compiled
    /// program bakes them in.
    src_values: Option<Bindings>,
    /// Whether execution substitutes bindings (true iff compiled at a
    /// value-independent level).
    holes: bool,
}

impl Template {
    /// Compiles `program` into a template: optimize (at `level`), plan,
    /// and build the binding tables.
    ///
    /// # Errors
    ///
    /// Planning errors for a malformed program.
    pub fn compile(
        program: Program,
        level: Optimize,
        policy: RnRefreshPolicy,
    ) -> Result<Template, ImscError> {
        Template::compile_timed(program, level, policy, &mut CompileStats::default())
    }

    /// [`Template::compile`], accumulating optimize/plan time into
    /// `stats`.
    ///
    /// # Errors
    ///
    /// Planning errors for a malformed program.
    pub fn compile_timed(
        program: Program,
        level: Optimize,
        policy: RnRefreshPolicy,
        stats: &mut CompileStats,
    ) -> Result<Template, ImscError> {
        let src = SrcShape::of(&program);
        let holes = !level.value_dependent();
        let src_values = (!holes).then(|| Bindings::of(&program));
        let program = if level == Optimize::Off {
            program
        } else {
            let t0 = Instant::now();
            let (optimized, _) = optimize(&program, level, policy);
            stats.optimize_ns += t0.elapsed().as_nanos() as u64;
            optimized
        };
        let t0 = Instant::now();
        let data = PlanData::of(&program)?;
        stats.plan_ns += t0.elapsed().as_nanos() as u64;
        let (fixed_base, const_base) = value_bases(&program);
        Ok(Template {
            program,
            data,
            fixed_base,
            const_base,
            src,
            src_values,
            holes,
        })
    }

    /// The compiled (post-optimization) program.
    #[must_use]
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Whether execution substitutes a tile's [`Bindings`] (holes mode,
    /// value-independent levels) or runs the baked-in values.
    #[must_use]
    pub fn binds_values(&self) -> bool {
        self.holes
    }

    /// The hash-collision guard: whether a tape that produced this
    /// template's key is genuinely the same compilation input — same
    /// shape counts, and at value-dependent levels the same values
    /// verbatim. A `false` here means the caller must fall back to
    /// per-tile compilation (and must not replace the entry).
    #[must_use]
    pub fn accepts(&self, tape: &ValueTape) -> bool {
        if tape.shape() != self.src {
            return false;
        }
        match &self.src_values {
            Some(src) => {
                src.values == tape.values
                    && src.consts.len() == tape.consts.len()
                    && src
                        .consts
                        .iter()
                        .zip(&tape.consts)
                        .all(|(a, b)| a.to_bits() == b.to_bits())
            }
            None => true,
        }
    }

    /// Validates `binds` against the template's holes.
    ///
    /// # Errors
    ///
    /// [`ImscError::InvalidConfig`] when the binding lengths don't match
    /// the template's value slots (holes mode only).
    pub fn check_binds(&self, binds: &Bindings) -> Result<(), ImscError> {
        if self.holes
            && (binds.values.len() != self.src.fixed as usize
                || binds.consts.len() != self.src.consts as usize)
        {
            return Err(ImscError::InvalidConfig(
                "bindings do not match the template's value holes",
            ));
        }
        Ok(())
    }

    /// The execution view binding `binds` into the holes (or ignoring
    /// them at value-dependent levels). Callers must have validated via
    /// [`Template::check_binds`].
    pub(crate) fn view<'a>(&'a self, binds: &'a Bindings) -> ExecView<'a> {
        debug_assert!(self.check_binds(binds).is_ok());
        ExecView {
            program: &self.program,
            data: &self.data,
            binds: self.holes.then_some(BindRef {
                values: &binds.values,
                consts: &binds.consts,
                fixed_base: &self.fixed_base,
                const_base: &self.const_base,
            }),
        }
    }

    /// Executes the template on `acc` with the tile's `binds`,
    /// returning outputs in emission order — behaviourally identical to
    /// planning and executing the tile's own program.
    ///
    /// # Errors
    ///
    /// Binding-shape mismatch, or any planning/execution error of the
    /// underlying program.
    pub fn execute_in(
        &self,
        acc: &mut Accelerator,
        binds: &Bindings,
        arena: &mut ExecArena,
    ) -> Result<Vec<f64>, ImscError> {
        self.check_binds(binds)?;
        self.view(binds).execute_in(acc, arena)
    }
}

impl SrcShape {
    fn of(program: &Program) -> SrcShape {
        let (fixed, consts) = value_slot_counts(program);
        SrcShape {
            ops: program.ops.len() as u32,
            regs: program.regs as u32,
            outputs: program.outputs as u32,
            fixed,
            consts,
        }
    }
}

impl Bindings {
    /// The value stream a program would tape — used to snapshot source
    /// values for exact-mode templates.
    fn of(program: &Program) -> Bindings {
        let mut values = Vec::new();
        let mut consts = Vec::new();
        for op in &program.ops {
            match op {
                Op::Encode { value, .. } => values.push(*value),
                Op::EncodeCorrelated { values: vs, .. } => values.extend_from_slice(vs),
                Op::ReadConst { value } => consts.push(*value),
                Op::Divide {
                    on_zero: Some(c), ..
                } => consts.push(*c),
                _ => {}
            }
        }
        Bindings { values, consts }
    }
}

/// Per-op prefix counts of (encode immediates, output constants) —
/// the stateless index from an op to its bindings slice.
fn value_bases(program: &Program) -> (Vec<u32>, Vec<u32>) {
    let mut fixed_base = Vec::with_capacity(program.ops.len());
    let mut const_base = Vec::with_capacity(program.ops.len());
    let (mut nf, mut nc) = (0u32, 0u32);
    for op in &program.ops {
        fixed_base.push(nf);
        const_base.push(nc);
        match op {
            Op::Encode { .. } => nf += 1,
            Op::EncodeCorrelated { values, .. } => nf += values.len() as u32,
            Op::ReadConst { .. } => nc += 1,
            Op::Divide {
                on_zero: Some(_), ..
            } => nc += 1,
            _ => {}
        }
    }
    (fixed_base, const_base)
}

fn value_slot_counts(program: &Program) -> (u32, u32) {
    let (mut nf, mut nc) = (0u32, 0u32);
    for op in &program.ops {
        match op {
            Op::Encode { .. } => nf += 1,
            Op::EncodeCorrelated { values, .. } => nf += values.len() as u32,
            Op::ReadConst { .. } => nc += 1,
            Op::Divide {
                on_zero: Some(_), ..
            } => nc += 1,
            _ => {}
        }
    }
    (nf, nc)
}

/// Observability counters of one [`PlanCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries evicted to stay within capacity.
    pub evictions: u64,
    /// Entries currently cached.
    pub len: usize,
    /// Eviction threshold.
    pub capacity: usize,
}

struct Entry {
    template: Arc<Template>,
    /// Tick of the last lookup or insert touching this entry (the LRU
    /// ordering).
    used: u64,
}

struct BoundSlot {
    entry: Arc<BoundEntry>,
    used: u64,
}

/// One in-flight compile: the leader fills it (`None` when its compile
/// failed); callers that missed on the same key meanwhile wait on it.
type Flight = Arc<OnceLock<Option<Arc<Template>>>>;

struct CacheInner {
    map: FxHashMap<TemplateKey, Entry>,
    bound: FxHashMap<BoundKey, BoundSlot>,
    inflight: FxHashMap<TemplateKey, Flight>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// A bounded, thread-safe map from [`TemplateKey`] to shared
/// [`Template`]s with least-recently-used eviction. Share one instance
/// across tiles, frames, worker threads and runs (the backend's
/// `with_plan_cache`); all methods take `&self`.
pub struct PlanCache {
    inner: Mutex<CacheInner>,
    capacity: usize,
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("PlanCache")
            .field("len", &stats.len)
            .field("capacity", &stats.capacity)
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .finish_non_exhaustive()
    }
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new()
    }
}

impl PlanCache {
    /// Default eviction threshold — comfortably above one frame's worth
    /// of distinct tile shapes for every kernel in the workspace.
    pub const DEFAULT_CAPACITY: usize = 64;

    /// A cache with the default capacity.
    #[must_use]
    pub fn new() -> Self {
        PlanCache::with_capacity(PlanCache::DEFAULT_CAPACITY)
    }

    /// A cache evicting least-recently-used entries beyond `capacity`
    /// (clamped to ≥ 1).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        PlanCache {
            inner: Mutex::new(CacheInner {
                map: FxHashMap::default(),
                bound: FxHashMap::default(),
                inflight: FxHashMap::default(),
                tick: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
            capacity: capacity.max(1),
        }
    }

    /// The eviction threshold.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of cached templates.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Whether the cache holds no templates.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counters and occupancy.
    #[must_use]
    pub fn stats(&self) -> PlanCacheStats {
        let inner = self.lock();
        PlanCacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            len: inner.map.len(),
            capacity: self.capacity,
        }
    }

    /// Looks up `key` and, on a miss, compiles it at most once across
    /// concurrent callers (single-flight): the first caller to miss runs
    /// `compile` and inserts the result; callers that miss on the same
    /// key while it runs wait for that template instead of compiling a
    /// duplicate. Returns the template and whether the call was a hit —
    /// waiters count as hits, so hit/miss counts do not depend on thread
    /// interleaving.
    ///
    /// # Errors
    ///
    /// Whatever `compile` returns. A waiter whose leader's compile failed
    /// compiles for itself (and counts as a miss).
    pub fn lookup_or_compile<E>(
        &self,
        key: TemplateKey,
        compile: impl FnOnce() -> Result<Arc<Template>, E>,
    ) -> Result<(Arc<Template>, bool), E> {
        let flight = {
            let mut inner = self.lock();
            if let Some(template) = inner.touch(&key) {
                inner.hits += 1;
                return Ok((template, true));
            }
            Arc::clone(inner.inflight.entry(key.clone()).or_default())
        };
        let mut compile = Some(compile);
        let mut failed = None;
        let shared = flight.get_or_init(|| {
            let compile = compile.take().expect("the leader compiles once");
            compile().map_err(|e| failed = Some(e)).ok()
        });
        let mut inner = self.lock();
        if compile.is_none() {
            inner.inflight.remove(&key);
        }
        match (shared, compile) {
            (Some(template), None) => {
                inner.misses += 1;
                inner.insert(key, Arc::clone(template), self.capacity);
                Ok((Arc::clone(template), false))
            }
            (Some(template), Some(_)) => {
                inner.hits += 1;
                Ok((Arc::clone(template), true))
            }
            (None, None) => {
                inner.misses += 1;
                Err(failed.expect("a failed leader recorded its error"))
            }
            (None, Some(compile)) => {
                inner.misses += 1;
                drop(inner);
                let template = compile()?;
                self.lock()
                    .insert(key, Arc::clone(&template), self.capacity);
                Ok((template, false))
            }
        }
    }

    /// Looks up a fully-bound fast-path entry, refreshing its LRU
    /// position. A hit counts as a cache hit; a miss is *not* counted
    /// here — the [`PlanCache::lookup_or_compile`] the caller falls back
    /// to is the lookup of record, so each tile contributes exactly one
    /// counted outcome.
    #[must_use]
    pub fn lookup_bound(&self, key: &BoundKey) -> Option<Arc<BoundEntry>> {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let slot = inner.bound.get_mut(key)?;
        slot.used = tick;
        let entry = Arc::clone(&slot.entry);
        inner.hits += 1;
        Some(entry)
    }

    /// Inserts (or replaces) a fast-path entry. The bound map has its
    /// own LRU at the same capacity as the template map (bound entries
    /// reference templates by `Arc`, so evicting one never invalidates
    /// the other).
    pub fn insert_bound(&self, key: BoundKey, entry: Arc<BoundEntry>) {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if !inner.bound.contains_key(&key) && inner.bound.len() >= self.capacity {
            if let Some(victim) = inner
                .bound
                .iter()
                .min_by_key(|(_, s)| s.used)
                .map(|(k, _)| k.clone())
            {
                inner.bound.remove(&victim);
                inner.evictions += 1;
            }
        }
        inner.bound.insert(key, BoundSlot { entry, used: tick });
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CacheInner> {
        // A panicking holder can only have been mid-read or mid-insert
        // of independent entries; the map itself is never left torn.
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl CacheInner {
    /// The template under `key`, refreshing its LRU position.
    fn touch(&mut self, key: &TemplateKey) -> Option<Arc<Template>> {
        self.tick += 1;
        let tick = self.tick;
        let entry = self.map.get_mut(key)?;
        entry.used = tick;
        Some(Arc::clone(&entry.template))
    }

    fn insert(&mut self, key: TemplateKey, template: Arc<Template>, capacity: usize) {
        self.tick += 1;
        let tick = self.tick;
        if !self.map.contains_key(&key) && self.map.len() >= capacity {
            if let Some(victim) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.used)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&victim);
                self.evictions += 1;
            }
        }
        self.map.insert(
            key,
            Entry {
                template,
                used: tick,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Accelerator;

    fn emit_demo<S: ProgramSink>(sink: &mut S, a: u8, b: u8, c: f64) {
        let x = sink.encode(Fixed::from_u8(a));
        let y = sink.encode(Fixed::from_u8(b));
        let m = sink.multiply(x, y);
        sink.read(m);
        sink.next_group();
        let pair = sink.encode_correlated(&[Fixed::from_u8(a), Fixed::from_u8(b)]);
        let d = sink.abs_subtract(pair[0], pair[1]);
        sink.read(d);
        sink.read_const(c);
    }

    fn acc() -> Accelerator {
        Accelerator::builder()
            .stream_len(1024)
            .seed(7)
            .build()
            .unwrap()
    }

    #[test]
    fn tape_matches_program_shape_and_values() {
        let mut p = Program::new();
        emit_demo(&mut p, 10, 200, 0.5);
        let mut tape = ValueTape::new();
        emit_demo(&mut tape, 10, 200, 0.5);
        let tpl = Template::compile(p, Optimize::Off, RnRefreshPolicy::PerEncode).unwrap();
        assert!(tpl.accepts(&tape));
        let binds = tape.into_bindings();
        assert!(tpl.check_binds(&binds).is_ok());
    }

    #[test]
    fn tape_structure_hash_ignores_values_but_not_shape() {
        let mut a = ValueTape::new();
        emit_demo(&mut a, 10, 200, 0.5);
        let mut b = ValueTape::new();
        emit_demo(&mut b, 99, 3, 0.25);
        assert_eq!(a.structure_hash(), b.structure_hash());
        assert_ne!(a.value_hash(), b.value_hash());
        let mut c = ValueTape::new();
        emit_demo(&mut c, 10, 200, 0.5);
        let _extra = c.encode(Fixed::from_u8(1));
        assert_ne!(a.structure_hash(), c.structure_hash());
    }

    #[test]
    fn holes_template_binds_other_tiles_values_bit_identically() {
        // Template compiled from tile A's program, executed with tile
        // B's bindings ≡ compiling and running tile B from scratch.
        let mut pa = Program::new();
        emit_demo(&mut pa, 10, 200, 0.5);
        let tpl = Template::compile(pa, Optimize::Off, RnRefreshPolicy::PerEncode).unwrap();

        let mut tape_b = ValueTape::new();
        emit_demo(&mut tape_b, 77, 13, 0.125);
        assert!(tpl.accepts(&tape_b));
        let got = tpl
            .execute_in(&mut acc(), &tape_b.into_bindings(), &mut ExecArena::new())
            .unwrap();

        let mut pb = Program::new();
        emit_demo(&mut pb, 77, 13, 0.125);
        let want = pb.run_on(&mut acc()).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn exact_template_rejects_differing_values() {
        let mut p = Program::new();
        emit_demo(&mut p, 10, 200, 0.5);
        let tpl = Template::compile(p, Optimize::Full, RnRefreshPolicy::PerEncode).unwrap();
        assert!(!tpl.binds_values());
        let mut same = ValueTape::new();
        emit_demo(&mut same, 10, 200, 0.5);
        assert!(tpl.accepts(&same));
        let mut diff = ValueTape::new();
        emit_demo(&mut diff, 10, 201, 0.5);
        assert!(!tpl.accepts(&diff));
    }

    #[test]
    fn mismatched_bindings_are_rejected() {
        let mut p = Program::new();
        emit_demo(&mut p, 10, 200, 0.5);
        let tpl = Template::compile(p, Optimize::Off, RnRefreshPolicy::PerEncode).unwrap();
        let mut short = ValueTape::new();
        let x = short.encode(Fixed::from_u8(1));
        short.read(x);
        assert!(!tpl.accepts(&short));
        let err = tpl.execute_in(&mut acc(), &short.into_bindings(), &mut ExecArena::new());
        assert!(matches!(err, Err(ImscError::InvalidConfig(_))));
    }

    fn key(n: u64) -> TemplateKey {
        TemplateKey {
            kernel: "test",
            structure: n,
            level: Optimize::Off,
            policy: RnRefreshPolicy::PerEncode,
            substrate: 0,
            values: 0,
        }
    }

    fn tpl(v: u8) -> Arc<Template> {
        let mut p = Program::new();
        let x = p.encode(Fixed::from_u8(v));
        p.read(x);
        Arc::new(Template::compile(p, Optimize::Off, RnRefreshPolicy::PerEncode).unwrap())
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = PlanCache::with_capacity(2);
        // Resolves key `n`, compiling on a miss; returns whether it hit.
        let get = |n: u8| {
            let compile = || Ok::<_, ()>(tpl(n));
            cache
                .lookup_or_compile(key(u64::from(n)), compile)
                .unwrap()
                .1
        };
        assert!(!get(1));
        assert!(!get(2));
        // Touch 1 so 2 becomes the LRU victim.
        assert!(get(1));
        assert!(!get(3));
        assert_eq!(cache.len(), 2);
        assert!(get(1));
        assert!(get(3));
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.capacity, 2);
        assert!(!get(2), "2 was evicted");
    }

    #[test]
    fn concurrent_misses_on_one_key_compile_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let cache = PlanCache::new();
        let compiles = AtomicUsize::new(0);
        let start = std::sync::Barrier::new(4);
        let hits: Vec<bool> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        let compile = || {
                            compiles.fetch_add(1, Ordering::SeqCst);
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            Ok::<_, ImscError>(tpl(1))
                        };
                        cache.lookup_or_compile(key(1), compile).unwrap().1
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert_eq!(compiles.load(Ordering::SeqCst), 1);
        assert_eq!(hits.iter().filter(|&&hit| !hit).count(), 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.len), (3, 1, 1));
    }

    #[test]
    fn a_failed_compile_is_not_cached() {
        let cache = PlanCache::new();
        let failed = cache.lookup_or_compile(key(2), || Err::<Arc<Template>, _>("no"));
        assert_eq!(failed.unwrap_err(), "no");
        assert!(cache.is_empty());
        let (_, hit) = cache
            .lookup_or_compile(key(2), || Ok::<_, ()>(tpl(2)))
            .unwrap();
        assert!(!hit);
        let (_, hit) = cache
            .lookup_or_compile(key(2), || Ok::<_, ()>(tpl(3)))
            .unwrap();
        assert!(hit);
        assert_eq!(cache.stats().misses, 2);
    }
}
