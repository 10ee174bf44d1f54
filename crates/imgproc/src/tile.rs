//! Deterministic program scheduling across row tiles for the SC-ReRAM
//! image kernels.
//!
//! The in-memory kernels are embarrassingly parallel across pixels, but a
//! hardware accelerator instance is stateful (TRNG, row allocator, cost
//! ledger). The tiling layer therefore splits the *output* image into
//! fixed-height row tiles and runs one accelerator instance per tile —
//! mirroring how a multi-array deployment shards a frame across banks
//! (cf. `imsc::pipeline`). Tile geometry and per-tile seeds are pure
//! functions of the image size and the configured master seed, so results
//! are bit-identical whether tiles execute sequentially or on a thread
//! pool, and per-tile [`CostLedger`]s merge in tile order so accumulated
//! hardware-cost numbers (the Table III / Fig. 4–5 inputs) are unchanged
//! by parallelism.
//!
//! Since the program-IR refactor, the kernels are *program emitters*
//! ([`TileEmitter`]), and [`run_tile_programs`] schedules the emitted
//! programs under one of two [`Schedule`]s:
//!
//! * [`Schedule::PerTile`] — one [`imsc::Program`] per tile, planned and
//!   executed whole on the tile's accelerator. With the `parallel`
//!   feature, whole tiles run on the deterministic work queue
//!   (`imsc::parallel`, the machinery this module originally owned,
//!   since hoisted into core), one pooled [`ExecArena`] per worker so
//!   per-tile re-planning stops reallocating the register file.
//! * [`Schedule::Pipelined`] — one *logical* program for the whole image,
//!   partitioned at tile-shaped output boundaries by
//!   `imsc::program::sched` and executed by the cross-array
//!   [`PipelineScheduler`]: each slice is one job on the same work queue
//!   as per-tile execution, with at most `arrays` accelerator instances
//!   in flight, and its steps are attributed to the ❶ SBS / ❷ arithmetic
//!   / ❸ S2B stages in a ledger-derived pipeline timeline. The slice
//!   programs are op-identical to per-tile emission and each slice's
//!   accelerator uses the same per-tile seed, so pixels, ledgers, and RN
//!   epochs are bit-identical to the per-tile path — the pipelined run
//!   additionally reports measured stage occupancy and initiation
//!   interval ([`ScRunStats::pipeline`]). A frame's slices are compiled
//!   serially (whole-frame emit and partition, or per-range tapes on the
//!   cached path) before any of them runs.
//!
//! With a template cache attached ([`ScReramConfig::plan_cache`]), both
//! schedules stop compiling per tile: each tile's emitter runs once as a
//! [`ValueTape`] (microseconds instead of the emit + optimize + plan
//! milliseconds), and a cache hit binds the tile's values into the
//! shared pre-compiled [`Template`]. On the pipelined schedule the
//! tile-shaped ranges are taped directly — legal because slices are
//! op-identical to per-tile emission — so slices share the very same
//! templates. Repeated *frames* skip even the tape: each kernel digests
//! its inputs once per run ([`TileEmitter::frame_digest`]), and a tile
//! whose (kernel, rows, digest, config) key recurs executes its cached
//! (template, bindings) pair directly — the fully-bound fast path that
//! makes steady-state per-tile compile cost a row-range hash and one map
//! probe. Results are bit-identical cached or not; the run's
//! hit/miss/fallback counts surface as [`ScRunStats::plan_cache`] and
//! the compile-time split as [`ScRunStats::compile`].

use crate::error::ImgError;
use crate::image::GrayImage;
use crate::scbackend::{prob_to_pixel, ScReramConfig};
use imsc::cost::CostLedger;
use imsc::engine::Accelerator;
use imsc::instrument::{ReplaySummary, SinkHandle};
use imsc::program::cache::{
    mix, BoundEntry, BoundKey, PlanCache, Template, TemplateKey, ValueTape,
};
use imsc::program::sched::{self, PipelineReport, PipelineScheduler};
use imsc::program::Program;
use imsc::{
    optimize, CompileStats, ExecArena, Optimize, ProgramSink, RnRefreshPolicy, SliceExec,
    WearSummary,
};
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

/// Output rows per tile. Small enough to parallelize modest images,
/// large enough to amortize accelerator construction per tile.
pub(crate) const TILE_ROWS: usize = 8;

/// A kernel's program emitter over one row range of the output image,
/// generic over the [`ProgramSink`] so one code path both builds real
/// [`Program`]s (uncached runs, cache misses) and records the cheap
/// [`ValueTape`] a cache lookup needs. Emission must be deterministic in
/// `rows` and independent of the tile index.
pub(crate) trait TileEmitter: Sync {
    /// Stable kernel identity in the template-cache key. A method rather
    /// than an associated const so that enum emitters dispatching over
    /// several kernels (the batch runner's [`crate::request`] path) can
    /// implement the trait per variant.
    fn kernel(&self) -> &'static str;

    /// The kernel's default RN refresh policy — what the tile
    /// accelerators run under unless [`ScReramConfig::refresh_policy`]
    /// overrides it.
    fn default_policy(&self) -> RnRefreshPolicy;

    /// Emits the program covering `rows` (one output per pixel,
    /// row-major).
    fn emit<S: ProgramSink>(&self, rows: Range<usize>, sink: &mut S);

    /// Digest of everything emission depends on *besides* the row range
    /// — input image bytes and kernel parameters (use [`digest_image`]).
    /// Enables the cache's fully-bound fast path: a tile whose (kernel,
    /// rows, digest, config) key recurs executes its cached template and
    /// bindings without re-running the emitter at all. There is no tape
    /// to cross-check on that path, so an under-covering digest silently
    /// breaks the cached ≡ uncached contract — hash *every* input, or
    /// return `None` to opt out (each lookup then tapes).
    fn frame_digest(&self) -> Option<u64> {
        None
    }
}

/// Seed for [`TileEmitter::frame_digest`] chains.
pub(crate) const FRAME_DIGEST_SEED: u64 = 0x4652_414D_4544_4947;

/// Mixes an image's dimensions and pixel bytes into a frame digest,
/// eight bytes per round.
pub(crate) fn digest_image(h: u64, img: &GrayImage) -> u64 {
    let mut h = mix(h, img.width() as u64);
    h = mix(h, img.height() as u64);
    let mut chunks = img.pixels().chunks_exact(8);
    for c in &mut chunks {
        h = mix(h, u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
    }
    let mut tail = 0u64;
    for (i, &b) in chunks.remainder().iter().enumerate() {
        tail |= u64::from(b) << (8 * i);
    }
    mix(h, tail)
}

/// How a kernel's emitted programs are scheduled onto accelerators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Schedule {
    /// One whole program per row tile, one accelerator per tile —
    /// data-parallel across tiles (the default).
    #[default]
    PerTile,
    /// Cross-array pipelining: tile-shaped slices of one logical program
    /// run as work-queue jobs with at most `arrays` accelerator instances
    /// in flight. Bit-identical results to [`Schedule::PerTile`], plus a
    /// [`PipelineReport`] of the ❶/❷/❸ stage timeline measured from the
    /// slices' cost ledgers.
    Pipelined {
        /// Accelerator instances (arrays) in flight; must be nonzero.
        arrays: usize,
    },
}

/// How one tile's template-cache lookup resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CacheOutcome {
    /// Served from the cache: either the fully-bound fast path (frame
    /// digest recurred — nothing re-ran at all) or a tape whose key
    /// found an accepting template (emit, optimize and plan skipped).
    Hit,
    /// Key absent: the tile compiled from scratch and the template was
    /// inserted for the tiles and frames that follow. A changed value
    /// pattern at a value-dependent optimizer level lands here too — its
    /// key's value hash is fresh.
    Miss,
    /// Key present but the resident template's recorded source disagreed
    /// with the tape (a 64-bit hash collision): the tile compiled from
    /// scratch and the resident entry was left alone.
    Fallback,
}

/// Template-cache outcome counts of one kernel run
/// ([`ScRunStats::plan_cache`]). One lookup happens per tile (or per
/// pipelined slice — same ranges), so `lookups()` equals the run's tile
/// count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheRun {
    /// Tiles served from a cached template.
    pub hits: u64,
    /// Tiles compiled from scratch (and inserted).
    pub misses: u64,
    /// Tiles compiled from scratch after a hash-collision rejection
    /// (nothing inserted).
    pub fallbacks: u64,
}

impl PlanCacheRun {
    /// Total lookups (one per tile).
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses + self.fallbacks
    }

    /// Fraction of lookups served from the cache (0 when no lookups).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.lookups();
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }

    fn count(&mut self, outcome: CacheOutcome) {
        match outcome {
            CacheOutcome::Hit => self.hits += 1,
            CacheOutcome::Miss => self.misses += 1,
            CacheOutcome::Fallback => self.fallbacks += 1,
        }
    }
}

/// The result of processing one row tile.
#[derive(Debug, Clone)]
pub(crate) struct TileOut {
    /// Row-major pixels of this tile (`rows.len() * width` entries).
    pub pixels: Vec<u8>,
    /// The tile accelerator's accumulated hardware-cost ledger.
    pub ledger: CostLedger,
    /// Encode-cache hits observed by the tile accelerator.
    pub cache_hits: u64,
    /// RN realizations (epochs) the tile accelerator consumed.
    pub rn_epochs: u64,
    /// Per-row write-wear summary of the accelerator's stream region.
    pub stream_wear: WearSummary,
    /// Bit-flip faults the fault injector actually fired on this tile.
    pub faults: u64,
    /// This tile's share of compile time (emit/optimize/plan/bind).
    pub compile: CompileStats,
    /// The tile's template-cache outcome (`None` on uncached runs).
    pub cache: Option<CacheOutcome>,
}

/// Aggregate statistics of one tiled SC-ReRAM kernel run.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScRunStats {
    /// Hardware-cost totals, merged deterministically across tiles.
    pub ledger: CostLedger,
    /// Total encode-cache hits across tile accelerators.
    pub encode_cache_hits: u64,
    /// Total RN realizations consumed across tile accelerators — the
    /// direct measure of how much the kernel's refresh policy reuses
    /// random-number rows.
    pub rn_epochs: u64,
    /// Number of tiles executed.
    pub tiles: usize,
    /// The measured pipeline behaviour (stage occupancy, initiation
    /// interval) when the run used [`Schedule::Pipelined`]; `None` under
    /// [`Schedule::PerTile`].
    pub pipeline: Option<PipelineReport>,
    /// Scouting operations per output pixel
    /// ([`CostLedger::scout_ops`] over the pixel count) — the paper's
    /// dominant cost metric and what the program optimizer minimizes.
    pub scout_ops_per_pixel: f64,
    /// Stream-region write-wear merged across tile accelerators: `max` is
    /// the hottest physical row anywhere in the run, `total`/`rows` sum,
    /// so [`WearSummary::max_mean_ratio`] measures how evenly the run's
    /// writes spread (1.0 = perfectly level). Wear-leveling
    /// ([`ScReramConfig::wear_leveling`]) exists to push this toward 1.
    pub stream_wear: WearSummary,
    /// Total bit-flip faults injected across tile accelerators (0 on
    /// fault-free runs).
    pub faults_injected: u64,
    /// Simulated energy/latency from replaying the run's recorded
    /// command stream through `nvsim` — ground truth measured from the
    /// *real* schedule, next to the analytic `ledger`. `None` unless
    /// [`ScReramConfig::trace_replay`] is set.
    pub replay: Option<ReplaySummary>,
    /// Where this run's host-side compile time went, summed across tiles:
    /// emitting programs, optimizing, planning, and (cached runs) taping
    /// value streams. The wall-clock the template cache exists to cut.
    pub compile: CompileStats,
    /// Template-cache outcome counts when the run used a plan cache
    /// ([`ScReramConfig::plan_cache`]); `None` on uncached runs.
    pub plan_cache: Option<PlanCacheRun>,
}

/// Derives the per-tile accelerator seed from a master seed. Tile 0 keeps
/// the master seed, so a single-tile run is identical to the untiled
/// flow.
#[must_use]
pub(crate) fn tile_seed(master: u64, tile: usize) -> u64 {
    master ^ (tile as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn tile_ranges(height: usize) -> Vec<Range<usize>> {
    (0..height.div_ceil(TILE_ROWS))
        .map(|t| t * TILE_ROWS..((t + 1) * TILE_ROWS).min(height))
        .collect()
}

/// Worker-thread count for tile and pipelined-slice jobs.
/// `IMGPROC_TILE_THREADS` overrides
/// (useful to force the threaded path on single-core CI or to pin thread
/// counts); without the `parallel` feature everything is sequential.
fn tile_threads(jobs: usize) -> usize {
    #[cfg(feature = "parallel")]
    {
        std::env::var("IMGPROC_TILE_THREADS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
            })
            .min(jobs)
    }
    #[cfg(not(feature = "parallel"))]
    {
        let _ = jobs;
        1
    }
}

/// Runs `worker` over every row tile of an output image of the given
/// `height`, returning tile outputs in tile order. The worker receives
/// `(tile_index, row_range)` and must be deterministic in those inputs.
/// (Production kernels go through [`run_tile_programs`]; this thinner
/// wrapper pins the tiling geometry and merge order in tests.)
#[cfg(test)]
fn run_row_tiles<W>(height: usize, worker: W) -> Result<Vec<TileOut>, ImgError>
where
    W: Fn(usize, Range<usize>) -> Result<TileOut, ImgError> + Sync,
{
    let ranges = tile_ranges(height);
    imsc::parallel::run_indexed_with(
        ranges.len(),
        tile_threads(ranges.len()),
        || (),
        |(), t| worker(t, ranges[t].clone()),
    )
}

/// Emits one tile's real [`Program`], attributing the emission time.
fn emit_fresh<E: TileEmitter>(
    emitter: &E,
    rows: Range<usize>,
    stats: &mut CompileStats,
) -> Program {
    let t0 = Instant::now();
    let mut p = Program::new();
    emitter.emit(rows, &mut p);
    stats.emit_ns += t0.elapsed().as_nanos() as u64;
    p
}

fn compile_tile<E: TileEmitter>(
    emitter: &E,
    rows: Range<usize>,
    opt: OptSpec,
    stats: &mut CompileStats,
) -> Result<Arc<Template>, ImgError> {
    let program = emit_fresh(emitter, rows, stats);
    Ok(Arc::new(Template::compile_timed(
        program, opt.level, opt.policy, stats,
    )?))
}

/// One tile's template-cache transaction. With a frame digest, the
/// fully-bound fast path is probed first: a recurring (kernel, rows,
/// digest, config) key returns its (template, bindings) pair with no
/// emitter run at all. Otherwise the emitter runs once as a tape and
/// the template key either reuses the resident template (hit),
/// compiles-and-inserts (miss), or compiles without inserting
/// (hash-collision fallback); the resolved pair is then registered
/// under the digest for the frames that follow. Compiles are
/// single-flight per key ([`PlanCache::lookup_or_compile`]): a tile
/// that misses while another tile compiles the same key waits for it
/// and counts as a hit, so the counters never depend on thread
/// interleaving. Tape, digest, lookup and any such wait land in
/// `stats.bind_ns`; miss and fallback compilation in the emit, optimize
/// and plan fields.
fn cached_template<E: TileEmitter>(
    cache: &PlanCache,
    emitter: &E,
    rows: Range<usize>,
    opt: OptSpec,
    substrate: u64,
    digest: Option<u64>,
    stats: &mut CompileStats,
) -> Result<(Arc<BoundEntry>, CacheOutcome), ImgError> {
    let t0 = Instant::now();
    let bound_key = digest.map(|digest| BoundKey {
        kernel: emitter.kernel(),
        rows: (rows.start as u32, rows.end as u32),
        digest,
        level: opt.level,
        policy: opt.policy,
        substrate,
    });
    if let Some(key) = &bound_key {
        if let Some(entry) = cache.lookup_bound(key) {
            stats.bind_ns += t0.elapsed().as_nanos() as u64;
            return Ok((entry, CacheOutcome::Hit));
        }
    }
    let mut tape = ValueTape::new();
    emitter.emit(rows.clone(), &mut tape);
    let key = TemplateKey {
        kernel: emitter.kernel(),
        structure: tape.structure_hash(),
        level: opt.level,
        policy: opt.policy,
        substrate,
        // Value-dependent optimizer levels bake the source values into
        // the compiled program, so the key carries the exact value
        // pattern; Off binds values into holes and one template serves
        // them all.
        values: if opt.level.value_dependent() {
            tape.value_hash()
        } else {
            0
        },
    };
    let mut compiled = CompileStats::default();
    let resolved = cache.lookup_or_compile(key, || {
        compile_tile(emitter, rows.clone(), opt, &mut compiled)
    });
    stats.bind_ns += (t0.elapsed().as_nanos() as u64).saturating_sub(compiled.total_ns());
    stats.merge(&compiled);
    let (tpl, outcome) = match resolved? {
        (tpl, false) => (tpl, CacheOutcome::Miss),
        (tpl, true) if tpl.accepts(&tape) => (tpl, CacheOutcome::Hit),
        // 64-bit hash collision: compile this tile from scratch and
        // leave the resident entry alone.
        (_, true) => (
            compile_tile(emitter, rows, opt, stats)?,
            CacheOutcome::Fallback,
        ),
    };
    // The pair is correct for this digest on every outcome (fallbacks
    // included — the template was compiled from this very tile), so the
    // fast path always learns it.
    let entry = Arc::new(BoundEntry::new(tpl, tape.into_bindings())?);
    if let Some(key) = bound_key {
        cache.insert_bound(key, Arc::clone(&entry));
    }
    Ok((entry, outcome))
}

/// Executes one row tile end to end: build the tile's accelerator,
/// resolve its program (template-cache transaction or fresh
/// emit + optimize + plan), run it, and package the observables. The
/// shared tile body of the per-tile schedule's single-frame and batched
/// paths; `slot` is the trace sink's dispatch slot (the tile's position
/// in the run's drain order), which the tile retires into in order.
#[allow(clippy::too_many_arguments)]
fn exec_tile<E: TileEmitter>(
    arena: &mut ExecArena,
    cfg: &ScReramConfig,
    emitter: &E,
    tile: usize,
    range: Range<usize>,
    opt: OptSpec,
    substrate: u64,
    digest: Option<u64>,
    sink: Option<&SinkHandle>,
    slot: usize,
) -> Result<TileOut, ImgError> {
    // Claimed first, so a failing tile still releases its slot and no
    // later tile waits on it.
    let sink_slot = sink.map(|s| s.slot(slot));
    let mut acc = cfg.build_for_tile_with(tile, emitter.default_policy())?;
    let mut compile = CompileStats::default();
    let (values, outcome) = match cfg.plan_cache.as_deref() {
        Some(cache) => {
            let (entry, outcome) =
                cached_template(cache, emitter, range, opt, substrate, digest, &mut compile)?;
            (
                entry
                    .template()
                    .execute_in(&mut acc, entry.bindings(), arena)?,
                Some(outcome),
            )
        }
        None => {
            let program = opt.apply_timed(emit_fresh(emitter, range, &mut compile), &mut compile);
            let t0 = Instant::now();
            let plan = program.plan()?;
            compile.plan_ns += t0.elapsed().as_nanos() as u64;
            (plan.execute_in(&mut acc, arena)?, None)
        }
    };
    // Drain this tile's sub-trace once every lower tile has, so the
    // sink buffers at most one tile.
    if let Some(sink_slot) = sink_slot {
        sink_slot.drain(&mut acc);
    }
    Ok(tile_out(values, &acc, compile, outcome))
}

/// Runs one emitted [`Program`] per row tile under the configuration's
/// [`Schedule`], building tile accelerators from `cfg` (the emitter's
/// [`TileEmitter::default_policy`] supplies the kernel's RN refresh
/// policy). Returns tile outputs in tile order plus the run-wide
/// observables. With a template cache configured, tiles tape-and-bind
/// instead of compiling (see the module docs) — bit-identical results
/// either way.
///
/// Fault-domain options ([`ScReramConfig::retirement`],
/// [`ScReramConfig::array_faults`]) are meaningful only when slices are
/// dealt across arrays, so they require [`Schedule::Pipelined`]; under
/// [`Schedule::PerTile`] they are rejected rather than silently ignored.
pub(crate) fn run_tile_programs<E: TileEmitter>(
    height: usize,
    cfg: &ScReramConfig,
    emitter: E,
) -> Result<(Vec<TileOut>, RunMeta), ImgError> {
    let opt = cfg.opt_spec(emitter.default_policy());
    let domains = cfg.retirement.is_some() || cfg.array_faults.is_some();
    let sink = if cfg.trace_replay {
        Some(SinkHandle::for_stream_len(cfg.stream_len)?)
    } else {
        None
    };
    match cfg.schedule {
        Schedule::PerTile => {
            if domains {
                return Err(ImgError::InvalidParameter(
                    "fault-domain options (retirement, per-array faults) need a pipelined schedule",
                ));
            }
            let ranges = tile_ranges(height);
            let sink_ref = sink.as_ref();
            let substrate = cfg.template_substrate_sig();
            // One frame digest for the whole run (frame-level cost, so
            // it lands in the run-wide breakdown, not a tile's).
            let mut frame_compile = CompileStats::default();
            let digest = cfg.plan_cache.as_deref().and_then(|_| {
                let t0 = Instant::now();
                let d = emitter.frame_digest();
                frame_compile.bind_ns += t0.elapsed().as_nanos() as u64;
                d
            });
            let emitter = &emitter;
            let tiles = imsc::parallel::run_indexed_with(
                ranges.len(),
                tile_threads(ranges.len()),
                ExecArena::new,
                |arena, t| {
                    exec_tile(
                        arena,
                        cfg,
                        emitter,
                        t,
                        ranges[t].clone(),
                        opt,
                        substrate,
                        digest,
                        sink_ref,
                        t,
                    )
                },
            )?;
            let replay = sink.map(|s| s.finish()).transpose()?;
            Ok((
                tiles,
                RunMeta {
                    pipeline: None,
                    replay,
                    compile: frame_compile,
                },
            ))
        }
        Schedule::Pipelined { arrays } => run_pipelined(height, arrays, cfg, opt, sink, &emitter),
    }
}

/// Run-wide observables that ride alongside the tile outputs: the
/// measured pipeline report (pipelined schedules), the nvsim replay
/// summary (trace-replay runs), and frame-level compile time not
/// attributable to one tile (the pipelined path's whole-frame emit /
/// partition / optimize, or its cached path's tape-and-compile pass).
#[derive(Debug, Default)]
pub(crate) struct RunMeta {
    pub pipeline: Option<PipelineReport>,
    pub replay: Option<ReplaySummary>,
    pub compile: CompileStats,
}

/// The optimizer setting one kernel run applies to its emitted
/// programs: the effective [`Optimize`] level plus the RN refresh
/// policy the programs will execute under (the optimizer's encode
/// rewrites are policy-dependent).
#[derive(Debug, Clone, Copy)]
pub(crate) struct OptSpec {
    pub level: Optimize,
    pub policy: RnRefreshPolicy,
}

impl OptSpec {
    /// Optimizes one emitted program (the identity at
    /// [`Optimize::Off`]), attributing the rewrite time.
    fn apply_timed(self, program: Program, stats: &mut CompileStats) -> Program {
        if self.level == Optimize::Off {
            return program;
        }
        let t0 = Instant::now();
        let optimized = optimize(&program, self.level, self.policy).0;
        stats.optimize_ns += t0.elapsed().as_nanos() as u64;
        optimized
    }
}

fn tile_out(
    values: Vec<f64>,
    acc: &Accelerator,
    compile: CompileStats,
    cache: Option<CacheOutcome>,
) -> TileOut {
    TileOut {
        pixels: values.into_iter().map(prob_to_pixel).collect(),
        ledger: *acc.ledger(),
        cache_hits: acc.encode_cache_hits(),
        rn_epochs: acc.rn_epoch(),
        stream_wear: acc.stream_wear(),
        faults: acc.faults_injected(),
        compile,
        cache,
    }
}

/// The [`Schedule::Pipelined`] path: emit one logical program for the
/// whole image, partition it at tile-shaped output boundaries (clean
/// cuts by construction — no register lives across a pixel), and hand
/// the slices to the cross-array scheduler with per-tile accelerators.
/// With a template cache, the whole-frame emission is skipped entirely:
/// each tile-shaped range tapes and binds its own template — legal
/// because slices are op-identical to per-tile emission (the partition
/// invariant the pipelined-parity tests pin), so per-tile and pipelined
/// runs share one template population. With fault-domain options
/// configured, the scheduler runs in retirement mode: per-array health
/// is tracked, arrays past the policy threshold are retired mid-run, and
/// their slices reschedule onto survivors (visible as
/// `PipelineReport::retired_arrays` / `rescheduled_slices`).
fn run_pipelined<E: TileEmitter>(
    height: usize,
    arrays: usize,
    cfg: &ScReramConfig,
    opt: OptSpec,
    sink: Option<SinkHandle>,
    emitter: &E,
) -> Result<(Vec<TileOut>, RunMeta), ImgError> {
    if arrays == 0 {
        return Err(ImgError::InvalidParameter(
            "a pipelined schedule needs at least one array",
        ));
    }
    let mut compile = CompileStats::default();
    let units = compile_pipeline_units(height, cfg, opt, emitter, &mut compile)?;
    if units.is_empty() {
        return Ok((Vec::new(), RunMeta::default()));
    }
    let execs: Vec<SliceExec<'_>> = units.execs();
    let mut scheduler = PipelineScheduler::new(arrays).workers(tile_threads(execs.len()));
    if let Some(s) = &sink {
        scheduler = scheduler.sink(s.clone());
    }
    let run = if cfg.retirement.is_some() || cfg.array_faults.is_some() {
        scheduler
            .run_with_domains_exec(
                &execs,
                |tile, array| cfg.build_for_slice(tile, array, emitter.default_policy()),
                cfg.retirement.unwrap_or_default(),
            )?
            .run
    } else {
        scheduler.run_exec(&execs, |t| {
            cfg.build_for_tile_with(t, emitter.default_policy())
        })?
    };
    let tiles = run
        .slices
        .into_iter()
        .zip(units.outcomes)
        .map(|(s, outcome)| slice_tile_out(s, outcome))
        .collect();
    let replay = sink.map(|s| s.finish()).transpose()?;
    Ok((
        tiles,
        RunMeta {
            pipeline: Some(run.report),
            replay,
            compile,
        },
    ))
}

/// One frame's compiled pipeline slices: exactly one of `bound` /
/// `fresh` is populated (cached vs. fresh compilation); `execs` chains
/// them in tile order so both borrows stay alive for the scheduler.
struct PipelineUnits {
    bound: Vec<Arc<BoundEntry>>,
    fresh: Vec<Program>,
    outcomes: Vec<Option<CacheOutcome>>,
}

impl PipelineUnits {
    fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// Slices in tile order, one per range.
    fn execs(&self) -> Vec<SliceExec<'_>> {
        self.bound
            .iter()
            .map(|e| SliceExec::Bound(e.template(), e.bindings()))
            .chain(self.fresh.iter().map(SliceExec::Fresh))
            .collect()
    }
}

/// Compiles one frame's tile-shaped pipeline slices — the template-cache
/// transaction per range when a cache is attached, otherwise one
/// whole-frame emission partitioned at tile boundaries and optimized per
/// slice. Shared by the single-frame pipelined path and the cross-frame
/// batch runner.
fn compile_pipeline_units<E: TileEmitter>(
    height: usize,
    cfg: &ScReramConfig,
    opt: OptSpec,
    emitter: &E,
    compile: &mut CompileStats,
) -> Result<PipelineUnits, ImgError> {
    let ranges = tile_ranges(height);
    if ranges.is_empty() {
        return Ok(PipelineUnits {
            bound: Vec::new(),
            fresh: Vec::new(),
            outcomes: Vec::new(),
        });
    }
    let (bound, fresh, outcomes) = match cfg.plan_cache.as_deref() {
        Some(cache) => {
            let substrate = cfg.template_substrate_sig();
            let t0 = Instant::now();
            let digest = emitter.frame_digest();
            compile.bind_ns += t0.elapsed().as_nanos() as u64;
            let mut units = Vec::with_capacity(ranges.len());
            let mut outcomes = Vec::with_capacity(ranges.len());
            for r in &ranges {
                let (entry, outcome) =
                    cached_template(cache, emitter, r.clone(), opt, substrate, digest, compile)?;
                outcomes.push(Some(outcome));
                units.push(entry);
            }
            (units, Vec::new(), outcomes)
        }
        None => {
            let logical = emit_fresh(emitter, 0..height, compile);
            debug_assert_eq!(
                logical.outputs() % height,
                0,
                "kernels emit a fixed output count per row"
            );
            let per_row = logical.outputs() / height;
            let counts: Vec<usize> = ranges.iter().map(|r| r.len() * per_row).collect();
            // Partition first, optimize each slice after: the slices
            // are op-identical to per-tile emission, so the
            // (deterministic) optimizer makes the same decisions on
            // both paths and pipelined results stay bit-identical to
            // per-tile ones at every level.
            let slices = sched::partition_by_outputs(&logical, &counts)?
                .into_iter()
                .map(|s| opt.apply_timed(s, compile))
                .collect();
            (Vec::new(), slices, vec![None; ranges.len()])
        }
    };
    Ok(PipelineUnits {
        bound,
        fresh,
        outcomes,
    })
}

fn slice_tile_out(s: sched::SliceOut, outcome: Option<CacheOutcome>) -> TileOut {
    TileOut {
        pixels: s.outputs.into_iter().map(prob_to_pixel).collect(),
        ledger: s.ledger,
        cache_hits: s.cache_hits,
        rn_epochs: s.rn_epochs,
        stream_wear: s.stream_wear,
        faults: s.faults_injected,
        compile: CompileStats {
            plan_ns: s.plan_ns,
            ..CompileStats::default()
        },
        cache: outcome,
    }
}

/// One frame of a coalesced batch run: its output height and its
/// program emitter.
pub(crate) struct BatchJob<E> {
    /// Output-image height (decides the frame's tile ranges).
    pub height: usize,
    /// The frame's kernel emitter.
    pub emitter: E,
}

/// Runs a batch of frames as *one* scheduling pass — the service
/// frontend's coalescing primitive.
///
/// Under [`Schedule::PerTile`] every frame's tiles join a single work
/// queue (`imsc::parallel::run_indexed_with` over all `(frame, tile)`
/// pairs). Under [`Schedule::Pipelined`] every frame's tile-shaped
/// slices are compiled (sharing the attached [`PlanCache`] across
/// frames — identical shapes hit the same templates) and fed to **one**
/// [`PipelineScheduler`] run over the array pool, so the pipeline stays
/// full across request boundaries instead of draining per frame.
///
/// Per-frame results are bit-identical to running each frame alone:
/// accelerator seeds derive from the frame-local tile index, never from
/// the batch position. Two batch-level caveats: the measured
/// [`PipelineReport`] describes the whole batch (each frame's
/// [`RunMeta`] carries a copy), and with fault-domain options
/// ([`ScReramConfig::array_faults`] / retirement) the slice → array
/// placement depends on batch composition, so per-array fault draws do
/// too — degradation stays graceful, but bit-identity to solo runs is
/// only guaranteed on fault-free substrates.
///
/// Trace replay is not supported here (one nvsim stitch per run cannot
/// be attributed back to frames); callers fall back to per-frame runs.
pub(crate) fn run_batch_programs<E: TileEmitter>(
    jobs: &[BatchJob<E>],
    cfg: &ScReramConfig,
) -> Result<Vec<(Vec<TileOut>, RunMeta)>, ImgError> {
    if cfg.trace_replay {
        return Err(ImgError::InvalidParameter(
            "trace replay is not supported on coalesced batch runs",
        ));
    }
    if jobs.is_empty() {
        return Ok(Vec::new());
    }
    let domains = cfg.retirement.is_some() || cfg.array_faults.is_some();
    match cfg.schedule {
        Schedule::PerTile => {
            if domains {
                return Err(ImgError::InvalidParameter(
                    "fault-domain options (retirement, per-array faults) need a pipelined schedule",
                ));
            }
            run_batch_per_tile(jobs, cfg)
        }
        Schedule::Pipelined { arrays } => {
            if arrays == 0 {
                return Err(ImgError::InvalidParameter(
                    "a pipelined schedule needs at least one array",
                ));
            }
            run_batch_pipelined(jobs, arrays, cfg)
        }
    }
}

fn run_batch_per_tile<E: TileEmitter>(
    jobs: &[BatchJob<E>],
    cfg: &ScReramConfig,
) -> Result<Vec<(Vec<TileOut>, RunMeta)>, ImgError> {
    let substrate = cfg.template_substrate_sig();
    // Frame digests and per-frame optimizer specs, once per frame.
    let mut metas: Vec<RunMeta> = jobs.iter().map(|_| RunMeta::default()).collect();
    let mut digests = Vec::with_capacity(jobs.len());
    let mut opts = Vec::with_capacity(jobs.len());
    for (job, meta) in jobs.iter().zip(&mut metas) {
        opts.push(cfg.opt_spec(job.emitter.default_policy()));
        digests.push(cfg.plan_cache.as_deref().and_then(|_| {
            let t0 = Instant::now();
            let d = job.emitter.frame_digest();
            meta.compile.bind_ns += t0.elapsed().as_nanos() as u64;
            d
        }));
    }
    // One flat unit list over every frame's tiles, frame-major.
    struct Unit {
        job: usize,
        tile: usize,
        range: Range<usize>,
    }
    let units: Vec<Unit> = jobs
        .iter()
        .enumerate()
        .flat_map(|(j, job)| {
            tile_ranges(job.height)
                .into_iter()
                .enumerate()
                .map(move |(t, range)| Unit {
                    job: j,
                    tile: t,
                    range,
                })
        })
        .collect();
    let outs = imsc::parallel::run_indexed_with(
        units.len(),
        tile_threads(units.len()),
        ExecArena::new,
        |arena, i| {
            let u = &units[i];
            exec_tile(
                arena,
                cfg,
                &jobs[u.job].emitter,
                u.tile,
                u.range.clone(),
                opts[u.job],
                substrate,
                digests[u.job],
                None,
                i,
            )
        },
    )?;
    // Units are frame-major and in tile order, so splitting by per-frame
    // tile counts reassembles each frame's tiles exactly.
    let mut outs = outs.into_iter();
    Ok(jobs
        .iter()
        .zip(metas)
        .map(|(job, meta)| {
            let tiles = tile_ranges(job.height).len();
            ((&mut outs).take(tiles).collect(), meta)
        })
        .collect())
}

fn run_batch_pipelined<E: TileEmitter>(
    jobs: &[BatchJob<E>],
    arrays: usize,
    cfg: &ScReramConfig,
) -> Result<Vec<(Vec<TileOut>, RunMeta)>, ImgError> {
    // Compile every frame's slices (template-cache hits are shared
    // across the batch) and map global slice index → (frame, local
    // tile) so accelerator seeds stay frame-local.
    let mut per_job = Vec::with_capacity(jobs.len());
    let mut compiles = Vec::with_capacity(jobs.len());
    let mut owners: Vec<(usize, usize)> = Vec::new();
    for (j, job) in jobs.iter().enumerate() {
        let opt = cfg.opt_spec(job.emitter.default_policy());
        let mut compile = CompileStats::default();
        let units = compile_pipeline_units(job.height, cfg, opt, &job.emitter, &mut compile)?;
        owners.extend((0..units.outcomes.len()).map(|t| (j, t)));
        per_job.push(units);
        compiles.push(compile);
    }
    let execs: Vec<SliceExec<'_>> = per_job.iter().flat_map(PipelineUnits::execs).collect();
    if execs.is_empty() {
        return Ok(jobs
            .iter()
            .zip(compiles)
            .map(|(_, compile)| {
                (
                    Vec::new(),
                    RunMeta {
                        compile,
                        ..RunMeta::default()
                    },
                )
            })
            .collect());
    }
    let scheduler = PipelineScheduler::new(arrays).workers(tile_threads(execs.len()));
    let run = if cfg.retirement.is_some() || cfg.array_faults.is_some() {
        scheduler
            .run_with_domains_exec(
                &execs,
                |slice, array| {
                    let (j, t) = owners[slice];
                    cfg.build_for_slice(t, array, jobs[j].emitter.default_policy())
                },
                cfg.retirement.unwrap_or_default(),
            )?
            .run
    } else {
        scheduler.run_exec(&execs, |slice| {
            let (j, t) = owners[slice];
            cfg.build_for_tile_with(t, jobs[j].emitter.default_policy())
        })?
    };
    // Split the batch's slice outputs back into frames (slices come back
    // in dispatch order, which is frame-major by construction).
    let mut slices = run.slices.into_iter();
    Ok(per_job
        .into_iter()
        .zip(compiles)
        .map(|(units, compile)| {
            let tiles = units
                .outcomes
                .iter()
                .map(|outcome| {
                    let s = slices.next().expect("one slice out per dispatched slice");
                    slice_tile_out(s, *outcome)
                })
                .collect();
            (
                tiles,
                RunMeta {
                    pipeline: Some(run.report),
                    replay: None,
                    compile,
                },
            )
        })
        .collect())
}

/// Assembles tile outputs into `(pixels, stats)`, merging ledgers in tile
/// order.
pub(crate) fn assemble(tiles: Vec<TileOut>, meta: RunMeta) -> (Vec<u8>, ScRunStats) {
    let mut pixels = Vec::with_capacity(tiles.iter().map(|t| t.pixels.len()).sum());
    let mut stats = ScRunStats {
        tiles: tiles.len(),
        pipeline: meta.pipeline,
        replay: meta.replay,
        compile: meta.compile,
        ..ScRunStats::default()
    };
    let mut cache_run: Option<PlanCacheRun> = None;
    for tile in tiles {
        pixels.extend_from_slice(&tile.pixels);
        stats.ledger.merge(&tile.ledger);
        stats.encode_cache_hits += tile.cache_hits;
        stats.rn_epochs += tile.rn_epochs;
        stats.stream_wear.merge(&tile.stream_wear);
        stats.faults_injected += tile.faults;
        stats.compile.merge(&tile.compile);
        if let Some(outcome) = tile.cache {
            cache_run
                .get_or_insert_with(PlanCacheRun::default)
                .count(outcome);
        }
    }
    stats.plan_cache = cache_run;
    if !pixels.is_empty() {
        stats.scout_ops_per_pixel = stats.ledger.scout_ops() as f64 / pixels.len() as f64;
    }
    (pixels, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn constant_tile(t: usize, rows: Range<usize>) -> Result<TileOut, ImgError> {
        Ok(TileOut {
            pixels: rows.map(|r| (r * 10 + t) as u8).collect(),
            ledger: CostLedger {
                adc_samples: 1,
                ..CostLedger::default()
            },
            cache_hits: t as u64,
            rn_epochs: 1,
            stream_wear: WearSummary::default(),
            faults: 0,
            compile: CompileStats::default(),
            cache: None,
        })
    }

    /// A kernel emitting nothing — exercises the scheduling plumbing.
    struct EmptyEmit;

    impl TileEmitter for EmptyEmit {
        fn kernel(&self) -> &'static str {
            "empty"
        }

        fn default_policy(&self) -> RnRefreshPolicy {
            RnRefreshPolicy::PerEncode
        }

        fn emit<S: ProgramSink>(&self, _rows: Range<usize>, _sink: &mut S) {}
    }

    #[test]
    fn tiles_cover_the_height_in_order() {
        let outs = run_row_tiles(19, constant_tile).unwrap();
        assert_eq!(outs.len(), 3);
        let (pixels, stats) = assemble(outs, RunMeta::default());
        assert_eq!(pixels.len(), 19);
        assert_eq!(pixels[0], 0); // row 0, tile 0
        assert_eq!(pixels[8], 81); // row 8, tile 1
        assert_eq!(stats.tiles, 3);
        assert_eq!(stats.ledger.adc_samples, 3);
        assert_eq!(stats.encode_cache_hits, 1 + 2);
        assert_eq!(stats.rn_epochs, 3);
        assert!(stats.pipeline.is_none());
        assert!(stats.plan_cache.is_none());
    }

    #[test]
    fn errors_propagate() {
        let r = run_row_tiles(16, |t, rows| {
            if t == 1 {
                Err(ImgError::InvalidParameter("boom"))
            } else {
                constant_tile(t, rows)
            }
        });
        assert!(r.is_err());
    }

    #[test]
    fn tile_seed_is_stable_and_tile0_is_master() {
        assert_eq!(tile_seed(42, 0), 42);
        assert_ne!(tile_seed(42, 1), tile_seed(42, 2));
        assert_eq!(tile_seed(7, 3), tile_seed(7, 3));
    }

    #[test]
    fn zero_arrays_is_rejected() {
        let cfg = ScReramConfig::new(256, 1).with_schedule(Schedule::Pipelined { arrays: 0 });
        let err = run_tile_programs(8, &cfg, EmptyEmit).unwrap_err();
        assert!(matches!(err, ImgError::InvalidParameter(_)));
    }

    #[test]
    fn domain_options_require_pipelining() {
        let cfg = ScReramConfig::new(256, 1).with_retirement(imsc::RetirementPolicy::default());
        let err = run_tile_programs(8, &cfg, EmptyEmit).unwrap_err();
        assert!(matches!(err, ImgError::InvalidParameter(_)));
    }

    #[test]
    fn plan_cache_run_rates() {
        let run = PlanCacheRun {
            hits: 9,
            misses: 1,
            fallbacks: 0,
        };
        assert_eq!(run.lookups(), 10);
        assert!((run.hit_rate() - 0.9).abs() < 1e-12);
        assert_eq!(PlanCacheRun::default().hit_rate(), 0.0);
    }

    #[test]
    fn default_schedule_is_per_tile() {
        assert_eq!(Schedule::default(), Schedule::PerTile);
    }
}
