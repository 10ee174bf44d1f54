//! Cross-array pipeline scheduling for [`Program`]s — the executable
//! form of the Fig. 5 throughput model.
//!
//! "In practice, we use multiple arrays to parallelize and pipeline the
//! different stages" (§III): ❶ SBS generation, ❷ arithmetic, and ❸ ADC
//! conversion run in different mats, so in steady state a new operation
//! retires every `max(stage latency)`. [`crate::pipeline::PipelineModel`]
//! states that analytically; this module *executes* it. A
//! [`PipelineScheduler`] takes one logical program, partitioned into
//! **slices** (self-contained sub-programs; see [`partition_into`] /
//! [`partition_by_outputs`]), and runs each slice as one job on the
//! deterministic work queue the tiled image kernels use
//! ([`crate::parallel::run_indexed_with`]), with at most `k` accelerator
//! instances (arrays) in flight.
//!
//! Two granularities matter:
//!
//! * **Slices** are the unit of array allocation and of host scheduling:
//!   each slice executes on its own accelerator built by the caller's
//!   factory, and one job runs all of its steps — ❶ encodes, ❷
//!   arithmetic, ❸ reads — in program order. A step's stage is an
//!   *attribution* in the modeled timeline, not a thread placement, so
//!   occupancy numbers follow the op semantics (a mid-slice encode such
//!   as bilinear's vertical select counts as ❶ wherever it falls).
//! * **Wavefronts** are the unit of pipeline initiation in the *modeled*
//!   timeline: maximal op runs with no register live across their
//!   boundary (from the planner's last-use analysis) — one per pixel in
//!   the image kernels. Each wavefront's per-stage latency is measured
//!   from the accelerator's own cost ledger (the delta of
//!   [`crate::cost::CostLedger::latency_ns`] around each step), and the
//!   classic pipeline recurrence over those measured latencies yields the
//!   reported makespan, stage occupancy, and initiation interval —
//!   *measured* numbers that are differentially cross-checked against
//!   [`crate::pipeline::PipelineModel::bottleneck_ns`] in
//!   `tests/sched.rs`.
//!
//! Everything observable is deterministic: slices execute their ops in
//! program order on their own accelerator, results and ledgers are
//! collected in slice order, command traces retire into the
//! instrumentation sink in slice order, and the report is computed from
//! ledger-derived latencies — so every worker count is bit-identical to
//! sequential execution, and a pipelined image-kernel run is value- and
//! ledger-identical to the per-tile path it subsumes.

use super::cache::{Bindings, Template};
use super::{release_live_slots, ExecArena, Op, PlanData, Program, Step, VReg};
use crate::cost::{CostLedger, WearSummary};
use crate::engine::Accelerator;
use crate::error::ImscError;
use crate::instrument::SinkHandle;
use reram::energy::ReramCosts;
use std::ops::Range;

/// The three pipeline stages of the paper's §III multi-array flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StageKind {
    /// ❶ Stochastic-bit-stream generation (encodes, TRNG rows).
    Sbs,
    /// ❷ In-array SC arithmetic.
    Arith,
    /// ❸ Stochastic→binary conversion (ADC read-out).
    S2b,
}

impl StageKind {
    /// Number of pipeline stages.
    pub const COUNT: usize = 3;

    /// All stages in pipeline order.
    pub const ALL: [StageKind; 3] = [StageKind::Sbs, StageKind::Arith, StageKind::S2b];

    /// The stage executing `op`.
    #[must_use]
    pub fn of(op: &Op) -> StageKind {
        match op {
            Op::Encode { .. } | Op::EncodeCorrelated { .. } | Op::TrngSelect { .. } => {
                StageKind::Sbs
            }
            Op::Read { .. } | Op::ReadConst { .. } => StageKind::S2b,
            _ => StageKind::Arith,
        }
    }

    /// Dense index in pipeline order.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            StageKind::Sbs => 0,
            StageKind::Arith => 1,
            StageKind::S2b => 2,
        }
    }

    /// Display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            StageKind::Sbs => "sbs",
            StageKind::Arith => "arith",
            StageKind::S2b => "s2b",
        }
    }
}

/// Per-op release counts from the planner's last-use analysis (op `i`
/// is the last use of `rel[i]` registers) — derived from the same
/// [`super::op_last_uses`] pass the planner schedules releases with, so
/// wavefront cuts and plan releases can never disagree.
fn op_releases(program: &Program) -> Result<Vec<usize>, ImscError> {
    let last_use = super::op_last_uses(program)?;
    let mut rel = vec![0usize; program.ops.len()];
    for &i in &last_use {
        rel[i] += 1;
    }
    Ok(rel)
}

/// Op-index ranges of the program's wavefronts: maximal op runs with no
/// register live across their boundaries (per the last-use analysis).
/// Cutting the program at wavefront boundaries is always legal — no
/// dataflow crosses them — which is exactly what the partition functions
/// do. Per-pixel kernels yield one wavefront per pixel.
///
/// # Errors
///
/// [`ImscError::InvalidConfig`] for a malformed program (a register used
/// before its defining op).
pub fn wavefronts(program: &Program) -> Result<Vec<Range<usize>>, ImscError> {
    let rel = op_releases(program)?;
    let mut ranges = Vec::new();
    let mut live = 0usize;
    let mut start = 0usize;
    for (i, op) in program.ops.iter().enumerate() {
        live += op.defs().len();
        live -= rel[i];
        if live == 0 {
            ranges.push(start..i + 1);
            start = i + 1;
        }
    }
    debug_assert_eq!(start, program.ops.len(), "programs end with no live rows");
    Ok(ranges)
}

/// Rebuilds `program.ops[range]` as a self-contained program. The range
/// must start and end on wavefront boundaries, so its registers form the
/// dense index block starting at `reg_lo`.
fn subprogram(src: &Program, range: Range<usize>, reg_lo: usize) -> Program {
    let mut p = Program::new();
    let id = p.id;
    for i in range {
        let op = src.ops[i].map_regs(|r| VReg {
            program: id,
            index: r.index - reg_lo,
        });
        p.regs += op.defs().len();
        if matches!(op, Op::Read { .. } | Op::ReadConst { .. }) {
            p.outputs += 1;
        }
        p.groups.push(src.groups[i]);
        p.ops.push(op);
    }
    p
}

/// Builds slices from wavefront ranges grouped by `counts[j]` wavefronts
/// each.
fn slices_from_wavefront_groups(
    program: &Program,
    waves: &[Range<usize>],
    counts: impl Iterator<Item = usize>,
) -> Vec<Program> {
    let mut slices = Vec::new();
    let mut next = 0usize;
    let mut reg_lo = 0usize;
    for count in counts {
        let group = &waves[next..next + count];
        let range = match (group.first(), group.last()) {
            (Some(first), Some(last)) => first.start..last.end,
            _ => {
                let at = waves.get(next).map_or(program.ops.len(), |w| w.start);
                at..at
            }
        };
        let slice = subprogram(program, range, reg_lo);
        reg_lo += slice.regs;
        next += count;
        slices.push(slice);
    }
    slices
}

/// Partitions one logical program into (at most) `slices` self-contained
/// sub-programs of near-equal wavefront counts, cutting only at
/// wavefront boundaries. Programs with fewer wavefronts than requested
/// slices yield one slice per wavefront.
///
/// # Errors
///
/// [`ImscError::InvalidConfig`] for a malformed program or `slices == 0`.
pub fn partition_into(program: &Program, slices: usize) -> Result<Vec<Program>, ImscError> {
    if slices == 0 {
        return Err(ImscError::InvalidConfig(
            "a partition needs at least one slice",
        ));
    }
    let waves = wavefronts(program)?;
    let k = slices.min(waves.len()).max(1);
    let base = waves.len() / k;
    let extra = waves.len() % k;
    let counts = (0..k).map(|j| base + usize::from(j < extra));
    Ok(slices_from_wavefront_groups(program, &waves, counts))
}

/// Partitions one logical program into slices producing exactly
/// `counts[j]` outputs each — the cut the tiled image kernels use, where
/// `counts` mirrors the per-tile pixel counts, so the sliced program is
/// op-identical to per-tile emission.
///
/// # Errors
///
/// [`ImscError::InvalidConfig`] for a malformed program, when the counts
/// do not sum to the program's output count, or when a requested
/// boundary falls inside a wavefront (a register would be live across
/// the cut).
pub fn partition_by_outputs(
    program: &Program,
    counts: &[usize],
) -> Result<Vec<Program>, ImscError> {
    let waves = wavefronts(program)?;
    let outputs_of = |w: &Range<usize>| -> usize {
        program.ops[w.clone()]
            .iter()
            .filter(|op| matches!(op, Op::Read { .. } | Op::ReadConst { .. }))
            .count()
    };
    let mut wave_counts = Vec::with_capacity(counts.len());
    let mut next = 0usize;
    for &target in counts {
        let mut got = 0usize;
        let mut used = 0usize;
        while got < target {
            let Some(w) = waves.get(next + used) else {
                return Err(ImscError::InvalidConfig(
                    "slice output counts exceed the program's outputs",
                ));
            };
            got += outputs_of(w);
            used += 1;
        }
        if got != target {
            return Err(ImscError::InvalidConfig(
                "requested slice boundary is not a clean cut",
            ));
        }
        next += used;
        wave_counts.push(used);
    }
    if next != waves.len() {
        return Err(ImscError::InvalidConfig(
            "slice output counts do not cover the program",
        ));
    }
    Ok(slices_from_wavefront_groups(
        program,
        &waves,
        wave_counts.into_iter(),
    ))
}

/// One unit of pipelined work: a slice program its job plans before
/// running it (the uncached path), or a pre-compiled [`Template`] with
/// the slice's value [`Bindings`] (the plan cache's hit path — emit,
/// optimize and plan are all skipped).
#[derive(Debug, Clone, Copy)]
pub enum SliceExec<'s> {
    /// Plan-and-run a slice program.
    Fresh(&'s Program),
    /// Run a cached template, binding the slice's values at execution.
    Bound(&'s Template, &'s Bindings),
}

impl<'s> SliceExec<'s> {
    /// The program this slice executes (the template's compiled program
    /// on the cached path).
    #[must_use]
    pub fn program(self) -> &'s Program {
        match self {
            SliceExec::Fresh(p) => p,
            SliceExec::Bound(t, _) => t.program(),
        }
    }
}

/// The measured result of one pipeline slice: its outputs plus the
/// per-array observables the tiled kernels merge in slice order.
#[derive(Debug, Clone)]
pub struct SliceOut {
    /// The slice program's outputs in emission order.
    pub outputs: Vec<f64>,
    /// The slice accelerator's accumulated cost ledger.
    pub ledger: CostLedger,
    /// Encode-cache hits observed by the slice accelerator.
    pub cache_hits: u64,
    /// RN realizations (epochs) the slice accelerator consumed.
    pub rn_epochs: u64,
    /// Bit flips the slice accelerator's fault injector applied — the
    /// per-slice health signal of fault-domain scheduling.
    pub faults_injected: u64,
    /// Scouting ops the slice accelerator executed (the denominator of
    /// the observed fault rate).
    pub scout_ops: u64,
    /// Endurance summary of the slice accelerator's stream-row wear map.
    pub stream_wear: WearSummary,
    /// Wall-clock nanoseconds the slice's job spent planning it (0 on
    /// the cached path, which runs a pre-planned template).
    pub plan_ns: u64,
}

/// Measured pipeline behaviour of one scheduled run, in *modeled*
/// nanoseconds derived from the accelerators' cost ledgers. One 3-stage
/// pipeline is modeled per array; `arrays` scales aggregate throughput
/// linearly, exactly as in [`crate::pipeline::PipelineModel`] / Fig. 5.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineReport {
    /// Accelerator instances the schedule was bounded to.
    pub arrays: usize,
    /// Pipeline initiations (wavefronts) across all slices.
    pub wavefronts: usize,
    /// Summed per-stage busy time, ns (ledger-derived).
    pub stage_busy_ns: [f64; StageKind::COUNT],
    /// Retire time of the first wavefront (pipeline fill), ns.
    pub fill_ns: f64,
    /// Retire time of the last wavefront, ns.
    pub makespan_ns: f64,
    /// Measured steady-state initiation interval: mean retire-to-retire
    /// gap, ns. Equals the bottleneck stage latency on stage-balanced
    /// programs (differentially pinned against
    /// [`crate::pipeline::PipelineModel::bottleneck_ns`]).
    pub initiation_interval_ns: f64,
    /// Unpipelined latency (every stage of every wavefront in series), ns.
    pub sequential_ns: f64,
    /// Fault domains (arrays) retired during the run (0 outside
    /// [`PipelineScheduler::run_with_domains`]).
    pub retired_arrays: usize,
    /// Slices whose results were discarded and re-run on a surviving
    /// array after their fault domain crossed the retirement threshold.
    pub rescheduled_slices: usize,
}

impl PipelineReport {
    /// Fraction of the makespan each stage array is busy.
    #[must_use]
    pub fn stage_occupancy(&self) -> [f64; StageKind::COUNT] {
        let mut occ = [0.0; StageKind::COUNT];
        if self.makespan_ns > 0.0 {
            for (o, busy) in occ.iter_mut().zip(self.stage_busy_ns) {
                *o = busy / self.makespan_ns;
            }
        }
        occ
    }

    /// Modeled speedup of pipelining over fully serial execution.
    #[must_use]
    pub fn pipeline_speedup(&self) -> f64 {
        if self.makespan_ns > 0.0 {
            self.sequential_ns / self.makespan_ns
        } else {
            1.0
        }
    }

    /// Modeled aggregate steady-state throughput across the `arrays`
    /// independent pipelines, in wavefronts per microsecond.
    #[must_use]
    pub fn throughput_ops_per_us(&self) -> f64 {
        if self.initiation_interval_ns > 0.0 {
            self.arrays as f64 * 1000.0 / self.initiation_interval_ns
        } else {
            0.0
        }
    }

    /// Computes the report from per-wavefront stage latencies via the
    /// classic pipeline recurrence: stage `s` of wavefront `i` starts
    /// once both stage `s−1` of wavefront `i` and stage `s` of wavefront
    /// `i−1` are done.
    fn from_wavefronts(durations: &[[f64; StageKind::COUNT]], arrays: usize) -> PipelineReport {
        let mut stage_end = [0.0f64; StageKind::COUNT];
        let mut busy = [0.0f64; StageKind::COUNT];
        let mut fill = 0.0f64;
        let mut last_retire = 0.0f64;
        for (i, durs) in durations.iter().enumerate() {
            let mut t = 0.0f64;
            for s in 0..StageKind::COUNT {
                let start = t.max(stage_end[s]);
                stage_end[s] = start + durs[s];
                t = stage_end[s];
                busy[s] += durs[s];
            }
            if i == 0 {
                fill = t;
            }
            last_retire = t;
        }
        let initiation_interval_ns = if durations.len() > 1 {
            (last_retire - fill) / (durations.len() - 1) as f64
        } else {
            last_retire
        };
        PipelineReport {
            arrays,
            wavefronts: durations.len(),
            stage_busy_ns: busy,
            fill_ns: fill,
            makespan_ns: last_retire,
            initiation_interval_ns,
            sequential_ns: busy.iter().sum(),
            retired_arrays: 0,
            rescheduled_slices: 0,
        }
    }
}

/// When a fault domain (one array of the farm) is taken out of service by
/// [`PipelineScheduler::run_with_domains`]: once an array has executed at
/// least `min_ops` scouting ops, it is retired as soon as its cumulative
/// observed fault rate (injected bit flips per scouting op) exceeds
/// `max_faults_per_op`. The `min_ops` guard keeps one unlucky early flip
/// from condemning a healthy array before the estimate has support.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetirementPolicy {
    /// Highest tolerated cumulative faults-per-scouting-op before the
    /// array is retired. With per-op flip probability `p` over `N`-bit
    /// streams the observed rate concentrates near `p·N`, so thresholds
    /// are naturally larger than 1 for long streams.
    pub max_faults_per_op: f64,
    /// Minimum scouting ops observed on an array before the rate is
    /// trusted.
    pub min_ops: u64,
}

impl Default for RetirementPolicy {
    fn default() -> Self {
        RetirementPolicy {
            max_faults_per_op: 0.5,
            min_ops: 1_000,
        }
    }
}

/// Cumulative health of one fault domain across a
/// [`PipelineScheduler::run_with_domains`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrayHealth {
    /// The array (fault-domain) index, `0..scheduler.arrays()`.
    pub array: usize,
    /// Slices whose results this array contributed (discarded slices of a
    /// retiring array are not counted).
    pub slices_run: usize,
    /// Cumulative injected bit flips observed on this array.
    pub faults: u64,
    /// Cumulative scouting ops observed on this array.
    pub scout_ops: u64,
    /// Whether the array crossed the retirement threshold.
    pub retired: bool,
}

impl ArrayHealth {
    /// Observed cumulative fault rate (flips per scouting op).
    #[must_use]
    pub fn fault_rate(&self) -> f64 {
        if self.scout_ops == 0 {
            0.0
        } else {
            self.faults as f64 / self.scout_ops as f64
        }
    }
}

/// A fault-domain-aware pipelined run: the ordinary [`PipelineRun`] plus
/// per-array health and the final slice→array assignment.
#[derive(Debug, Clone)]
pub struct DomainRun {
    /// The pipelined results and report (with
    /// [`PipelineReport::retired_arrays`] /
    /// [`PipelineReport::rescheduled_slices`] filled in).
    pub run: PipelineRun,
    /// Health of every fault domain, indexed by array.
    pub health: Vec<ArrayHealth>,
    /// The array whose result each slice finally kept, in slice order.
    pub assignments: Vec<usize>,
}

/// A finished pipelined run: per-slice results in slice order plus the
/// measured pipeline report.
#[derive(Debug, Clone)]
pub struct PipelineRun {
    /// Per-slice results, in slice order (independent of scheduling).
    pub slices: Vec<SliceOut>,
    /// The measured pipeline behaviour of the whole run.
    pub report: PipelineReport,
}

/// Step-level schedule metadata of one slice: the stage and wavefront
/// each plan step is attributed to.
#[derive(Debug)]
struct SliceMeta {
    /// Stage index per plan step (coalesced encode runs are ❶).
    stage: Vec<usize>,
    /// Wavefront index per plan step (local to the slice).
    wavefront: Vec<usize>,
    /// Number of wavefronts in the slice.
    wavefronts: usize,
}

impl SliceMeta {
    fn of(prog: &Program, data: &PlanData) -> SliceMeta {
        let stage: Vec<usize> = data
            .steps
            .iter()
            .map(|step| match step {
                Step::EncodeRun { .. } => StageKind::Sbs.index(),
                Step::Single(i) => StageKind::of(&prog.ops[*i]).index(),
            })
            .collect();
        let mut wavefront = Vec::with_capacity(data.steps.len());
        let mut live = 0usize;
        let mut wf = 0usize;
        for (s, step) in data.steps.iter().enumerate() {
            wavefront.push(wf);
            let defs: usize = step.op_range().map(|o| prog.ops[o].defs().len()).sum();
            live += defs;
            live -= data.releases[s].len();
            if live == 0 {
                wf += 1;
            }
        }
        SliceMeta {
            stage,
            wavefront,
            wavefronts: wf,
        }
    }
}

/// A retired slice plus its wavefront timings.
struct Finished {
    out: SliceOut,
    wf_ns: Vec<[f64; StageKind::COUNT]>,
}

/// Runs one slice end to end on its accelerator: plans it (or checks its
/// bindings), executes every step in program order — attributing each
/// step's ledger latency delta to the step's *stage kind* and wavefront
/// in the modeled timeline — and snapshots the observables. On failure
/// the rows the slice still holds are released.
fn run_slice(
    slice: SliceExec<'_>,
    acc: &mut Accelerator,
    arena: &mut ExecArena,
    costs: &ReramCosts,
) -> Result<Finished, ImscError> {
    let plan;
    let (view, plan_ns) = match slice {
        SliceExec::Fresh(p) => {
            let t0 = std::time::Instant::now();
            plan = p.plan()?;
            let plan_ns = t0.elapsed().as_nanos() as u64;
            (plan.view(), plan_ns)
        }
        SliceExec::Bound(t, b) => {
            t.check_binds(b)?;
            (t.view(b), 0)
        }
    };
    let meta = SliceMeta::of(view.program, view.data);
    let slots = arena.reset(view.program.regs);
    let mut outputs = Vec::with_capacity(view.program.outputs);
    let mut wf_ns = vec![[0.0; StageKind::COUNT]; meta.wavefronts];
    for s in 0..meta.stage.len() {
        let before = acc.ledger().latency_ns(costs);
        if let Err(e) = view.exec_step(s, acc, slots, &mut outputs) {
            release_live_slots(acc, slots);
            return Err(e);
        }
        wf_ns[meta.wavefront[s]][meta.stage[s]] += acc.ledger().latency_ns(costs) - before;
    }
    Ok(Finished {
        out: SliceOut {
            outputs,
            ledger: *acc.ledger(),
            cache_hits: acc.encode_cache_hits(),
            rn_epochs: acc.rn_epoch(),
            faults_injected: acc.faults_injected(),
            scout_ops: acc.scout_ops_executed(),
            stream_wear: acc.stream_wear(),
            plan_ns,
        },
        wf_ns,
    })
}

/// The cross-array pipeline scheduler: executes program slices as jobs
/// on the deterministic work queue ([`crate::parallel::run_indexed_with`])
/// with at most `arrays` accelerator instances in flight. See the
/// [module docs](self) for the execution and measurement model.
#[derive(Debug, Clone)]
pub struct PipelineScheduler {
    arrays: usize,
    workers: usize,
    costs: ReramCosts,
    sink: Option<SinkHandle>,
}

impl PipelineScheduler {
    /// Creates a scheduler bounded to `arrays` in-flight accelerator
    /// instances, with one worker per available core and the calibrated
    /// cost constants.
    ///
    /// # Panics
    ///
    /// Panics if `arrays == 0` (mirroring
    /// [`crate::pipeline::PipelineModel::new`]).
    #[must_use]
    pub fn new(arrays: usize) -> Self {
        assert!(arrays > 0, "at least one array required");
        PipelineScheduler {
            arrays,
            workers: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            costs: ReramCosts::calibrated(),
            sink: None,
        }
    }

    /// Sets the number of work-queue workers (min 1). A run uses
    /// `min(arrays, slices, workers)` of them, so at most `arrays`
    /// accelerators are ever in flight. Without the `parallel` feature
    /// every run is sequential regardless.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Overrides the cost constants used for the modeled timeline.
    #[must_use]
    pub fn costs(mut self, costs: ReramCosts) -> Self {
        self.costs = costs;
        self
    }

    /// Attaches an instrumentation sink: every slice's recorded command
    /// trace (including work later discarded by fault-domain
    /// retirement) is drained into it in dispatch order as the slice
    /// retires, so nvsim replay runs incrementally alongside the
    /// schedule. A finished slice waits for every lower slice to drain
    /// first, which bounds the sink's buffering by one slice.
    /// Accelerators built by the factory must record traces
    /// ([`crate::engine::AcceleratorBuilder::record_trace`]) for the
    /// sink to see anything.
    #[must_use]
    pub fn sink(mut self, sink: SinkHandle) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Number of in-flight accelerator instances the schedule allows.
    #[must_use]
    pub fn arrays(&self) -> usize {
        self.arrays
    }

    /// Executes `slices` pipelined, building each slice's accelerator
    /// with `factory(slice_index)`. Each slice is one job on the work
    /// queue; results come back in slice order and are bit-identical for
    /// every worker count (and to a build without the `parallel`
    /// feature, which runs the jobs sequentially).
    ///
    /// # Errors
    ///
    /// The lowest-indexed slice's failure (factory, planning, or
    /// execution) — the same slice a sequential run would fail on.
    pub fn run<E, F>(&self, slices: &[Program], factory: F) -> Result<PipelineRun, E>
    where
        F: Fn(usize) -> Result<Accelerator, E> + Sync,
        E: From<ImscError> + Send,
    {
        let execs: Vec<SliceExec<'_>> = slices.iter().map(SliceExec::Fresh).collect();
        self.run_exec(&execs, factory)
    }

    /// [`Self::run`] over explicit slice units — mixes freshly-planned
    /// programs with cache-bound templates ([`SliceExec`]); the tiled
    /// kernels' cached pipelined path enters here.
    ///
    /// # Errors
    ///
    /// Same as [`Self::run`].
    pub fn run_exec<E, F>(&self, slices: &[SliceExec<'_>], factory: F) -> Result<PipelineRun, E>
    where
        F: Fn(usize) -> Result<Accelerator, E> + Sync,
        E: From<ImscError> + Send,
    {
        let fins = self.run_collect(slices, &factory, 0)?;
        Ok(Self::assemble_run(fins, self.arrays))
    }

    /// Concatenates finished slices (in slice order) into a run.
    fn assemble_run(fins: Vec<Finished>, arrays: usize) -> PipelineRun {
        let mut outs = Vec::with_capacity(fins.len());
        let mut all_wf = Vec::new();
        for fin in fins {
            all_wf.extend(fin.wf_ns);
            outs.push(fin.out);
        }
        PipelineRun {
            slices: outs,
            report: PipelineReport::from_wavefronts(&all_wf, arrays),
        }
    }

    /// Runs one job per slice on the work queue and returns every
    /// slice's finished result in slice order (the shared core of
    /// [`Self::run`] and [`Self::run_with_domains`]). `seq_base` offsets
    /// the instrumentation sink's dispatch slots so successive rounds
    /// keep one monotone stream.
    fn run_collect<E, F>(
        &self,
        slices: &[SliceExec<'_>],
        factory: &F,
        seq_base: usize,
    ) -> Result<Vec<Finished>, E>
    where
        F: Fn(usize) -> Result<Accelerator, E> + Sync,
        E: From<ImscError> + Send,
    {
        let workers = self.workers.min(self.arrays);
        crate::parallel::run_indexed_with(slices.len(), workers, ExecArena::new, |arena, k| {
            // Claimed before the factory runs, so a failing job still
            // releases its slot and no later slice waits on it.
            let slot = self.sink.as_ref().map(|s| s.slot(seq_base + k));
            let mut acc = factory(k)?;
            let fin = run_slice(slices[k], &mut acc, arena, &self.costs).map_err(E::from)?;
            if let Some(slot) = slot {
                slot.drain(&mut acc);
            }
            Ok(fin)
        })
    }

    /// Executes slices across the farm with each array treated as a
    /// retirable **fault domain**. Retirement is a placement policy over
    /// the same work queue [`Self::run`] uses: each round deals the
    /// pending slices round-robin over the currently healthy arrays and
    /// runs them as ordinary slice jobs; after each round, per-array
    /// health (cumulative injected faults per scouting op, from the
    /// slice accelerators' own injectors) is re-evaluated **in slice
    /// order**. When an array crosses `policy`'s threshold it is retired:
    /// the triggering slice's result and every later same-round result
    /// from that array are discarded and re-dealt onto the survivors in
    /// the next round. The farm degrades gracefully until no healthy
    /// array remains.
    ///
    /// `factory(slice, array)` builds the accelerator for a slice *on a
    /// given array* — heterogeneous per-array fault rates enter here.
    /// Results are deterministic: assignment depends only on slice order
    /// and the health history, never on thread interleaving.
    ///
    /// # Errors
    ///
    /// * The lowest-indexed slice's genuine failure (factory, planning,
    ///   or execution), as in [`Self::run`].
    /// * [`ImscError::InvalidConfig`] once every fault domain is retired.
    pub fn run_with_domains<E, F>(
        &self,
        slices: &[Program],
        factory: F,
        policy: RetirementPolicy,
    ) -> Result<DomainRun, E>
    where
        F: Fn(usize, usize) -> Result<Accelerator, E> + Sync,
        E: From<ImscError> + Send,
    {
        let execs: Vec<SliceExec<'_>> = slices.iter().map(SliceExec::Fresh).collect();
        self.run_with_domains_exec(&execs, factory, policy)
    }

    /// [`Self::run_with_domains`] over explicit slice units
    /// ([`SliceExec`]) — the cached pipelined path with fault-domain
    /// retirement.
    ///
    /// # Errors
    ///
    /// Same as [`Self::run_with_domains`].
    pub fn run_with_domains_exec<E, F>(
        &self,
        slices: &[SliceExec<'_>],
        factory: F,
        policy: RetirementPolicy,
    ) -> Result<DomainRun, E>
    where
        F: Fn(usize, usize) -> Result<Accelerator, E> + Sync,
        E: From<ImscError> + Send,
    {
        let n = slices.len();
        let mut health: Vec<ArrayHealth> = (0..self.arrays)
            .map(|array| ArrayHealth {
                array,
                slices_run: 0,
                faults: 0,
                scout_ops: 0,
                retired: false,
            })
            .collect();
        let mut results: Vec<Option<Finished>> = (0..n).map(|_| None).collect();
        let mut assignments = vec![0usize; n];
        let mut pending: Vec<usize> = (0..n).collect();
        let mut rescheduled = 0usize;
        // Monotone dispatch counter across rounds: replayed work from a
        // retiring array stays in the instrumentation stream even when
        // its results are discarded — the energy was really spent.
        let mut dispatched = 0usize;
        while !pending.is_empty() {
            let healthy: Vec<usize> = health
                .iter()
                .filter(|h| !h.retired)
                .map(|h| h.array)
                .collect();
            if healthy.is_empty() {
                return Err(E::from(ImscError::InvalidConfig(
                    "every fault domain is retired",
                )));
            }
            let round_arrays: Vec<usize> = (0..pending.len())
                .map(|k| healthy[k % healthy.len()])
                .collect();
            let round_progs: Vec<SliceExec<'_>> = pending.iter().map(|&i| slices[i]).collect();
            let fins = self.run_collect(
                &round_progs,
                &|k| factory(pending[k], round_arrays[k]),
                dispatched,
            )?;
            dispatched += round_progs.len();
            let mut retry = Vec::new();
            for (k, fin) in fins.into_iter().enumerate() {
                let arr = round_arrays[k];
                let slice_idx = pending[k];
                if health[arr].retired {
                    // The domain was condemned earlier in this scan; its
                    // remaining round results are suspect too.
                    rescheduled += 1;
                    retry.push(slice_idx);
                    continue;
                }
                let h = &mut health[arr];
                h.faults += fin.out.faults_injected;
                h.scout_ops += fin.out.scout_ops;
                if h.scout_ops >= policy.min_ops && h.fault_rate() > policy.max_faults_per_op {
                    h.retired = true;
                    rescheduled += 1;
                    retry.push(slice_idx);
                } else {
                    h.slices_run += 1;
                    assignments[slice_idx] = arr;
                    results[slice_idx] = Some(fin);
                }
            }
            pending = retry;
        }
        let fins: Vec<Finished> = results
            .into_iter()
            .map(|r| r.expect("every slice resolved or the farm emptied"))
            .collect();
        let mut run = Self::assemble_run(fins, self.arrays);
        run.report.retired_arrays = health.iter().filter(|h| h.retired).count();
        run.report.rescheduled_slices = rescheduled;
        Ok(DomainRun {
            run,
            health,
            assignments,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_core::Fixed;

    fn chain_program(wavefronts: usize) -> Program {
        let mut p = Program::new();
        for i in 0..wavefronts {
            let x = p.encode(Fixed::from_u8(20 + (i as u8 % 200)));
            let y = p.complement(x);
            p.read(y);
        }
        p
    }

    #[test]
    fn wavefronts_cut_at_dead_boundaries() {
        let p = chain_program(5);
        let waves = wavefronts(&p).unwrap();
        assert_eq!(waves.len(), 5);
        assert_eq!(waves[0], 0..3);
        assert_eq!(waves[4], 12..15);
    }

    #[test]
    fn partition_into_balances_wavefronts() {
        let p = chain_program(7);
        let slices = partition_into(&p, 3).unwrap();
        assert_eq!(slices.len(), 3);
        let outs: Vec<usize> = slices.iter().map(Program::outputs).collect();
        assert_eq!(outs, vec![3, 2, 2]);
        assert_eq!(slices.iter().map(Program::regs).sum::<usize>(), p.regs());
        for s in &slices {
            s.plan().expect("re-indexed slices stay well-formed");
        }
    }

    #[test]
    fn partition_by_outputs_rejects_unclean_cuts() {
        let mut p = Program::new();
        let a = p.encode(Fixed::from_u8(9));
        let b = p.encode(Fixed::from_u8(17));
        let m = p.multiply(a, b);
        // Two reads of one live register: a single wavefront with two
        // outputs, so a 1/1 split would cut through live state.
        p.read(m);
        p.read(m);
        let err = partition_by_outputs(&p, &[1, 1]).unwrap_err();
        assert!(matches!(err, ImscError::InvalidConfig(_)));
    }

    #[test]
    fn partition_by_outputs_matches_totals() {
        let p = chain_program(6);
        assert!(partition_by_outputs(&p, &[4, 1]).is_err());
        assert!(partition_by_outputs(&p, &[4, 3]).is_err());
        let ok = partition_by_outputs(&p, &[4, 2]).unwrap();
        assert_eq!(ok[0].outputs(), 4);
        assert_eq!(ok[1].outputs(), 2);
    }

    #[test]
    fn report_recurrence_on_balanced_stages_gives_bottleneck_ii() {
        let durs = vec![[10.0, 4.0, 2.0]; 8];
        let r = PipelineReport::from_wavefronts(&durs, 4);
        assert!((r.initiation_interval_ns - 10.0).abs() < 1e-12);
        assert!((r.fill_ns - 16.0).abs() < 1e-12);
        assert!((r.makespan_ns - (16.0 + 7.0 * 10.0)).abs() < 1e-12);
        assert!((r.sequential_ns - 8.0 * 16.0).abs() < 1e-12);
        assert!(r.pipeline_speedup() > 1.0);
        assert!((r.throughput_ops_per_us() - 4.0 * 1000.0 / 10.0).abs() < 1e-9);
        let occ = r.stage_occupancy();
        assert!(occ[0] > occ[1] && occ[1] > occ[2]);
    }

    #[test]
    fn stage_kinds_classify_ops() {
        let mut p = Program::new();
        let x = p.encode(Fixed::from_u8(3));
        let s = p.trng_select();
        let y = p.blend(x, x, s);
        p.read(y);
        let kinds: Vec<StageKind> = p.ops().iter().map(StageKind::of).collect();
        assert_eq!(
            kinds,
            vec![
                StageKind::Sbs,
                StageKind::Sbs,
                StageKind::Arith,
                StageKind::S2b
            ]
        );
    }

    #[test]
    #[should_panic(expected = "at least one array")]
    fn zero_arrays_panics() {
        let _ = PipelineScheduler::new(0);
    }
}
