//! Program IR and planner: declarative SC kernels over virtual registers.
//!
//! The imperative [`Accelerator`] API forces every caller to re-implement
//! the same cross-cutting concerns — row lifetimes (`release` at the
//! right moment or hit [`ImscError::OutOfRows`]), RN-refresh scheduling
//! (`refresh_rn_rows` at exactly the independence points), batching, and
//! tile dispatch. [`Program`] lifts a kernel into an explicit op graph
//! over *virtual registers*, and [`Plan`] lowers it back onto an
//! accelerator:
//!
//! * **Register allocation.** The planner computes the last use of every
//!   virtual register and releases its crossbar row eagerly, immediately
//!   after the op that consumes it last. Callers never call `release`,
//!   and programs whose *naive* row demand (every stream kept live to the
//!   end) exceeds the array fit whenever their lifetime-aware peak does
//!   ([`Plan::peak_rows`] vs [`Plan::naive_peak_rows`]).
//! * **Refresh groups.** Every encode op carries the program's current
//!   [`RefreshGroup`] tag. Under [`RnRefreshPolicy::Explicit`] the
//!   planner calls [`Accelerator::refresh_rn_rows`] exactly where two
//!   consecutive encode ops carry *different* tags — the declarative form
//!   of the explicit within-pixel refresh points the image kernels used
//!   to hand-plumb. Under the automatic policies (`PerEncode`,
//!   `EveryN`) the tags are inert and the accelerator schedules its own
//!   refreshes, so one program runs bit-identically to the imperative
//!   call sequence under every policy.
//! * **Encode coalescing.** Runs of consecutive single-value encodes in
//!   one refresh group lower to one [`Accelerator::encode_many`] batch.
//! * **Data-dependent division.** [`Program::divide_or`] gives CORDIV a
//!   fallback constant: a stochastic all-zero divisor poisons the
//!   destination register with the constant instead of aborting the
//!   whole program, matching the per-pixel error handling of the matting
//!   kernel (the failed division's sense reads stay charged, nothing
//!   else is).
//!
//! Lowering preserves the accelerator's observable behaviour exactly:
//! values, cost ledger, command trace, and RN epoch all match the
//! equivalent imperative call sequence (differential-tested per kernel in
//! `imgproc/tests/program_vs_eager.rs` and per op in
//! `tests/program.rs`). Programs are reusable: one `Program` can be
//! planned once and executed on many accelerators (e.g. one per tile).
//!
//! # Example
//!
//! ```
//! use imsc::engine::Accelerator;
//! use imsc::program::Program;
//! use sc_core::Fixed;
//!
//! # fn main() -> Result<(), imsc::ImscError> {
//! let mut p = Program::new();
//! let x = p.encode(Fixed::from_u8(192));
//! let y = p.encode(Fixed::from_u8(128));
//! let prod = p.multiply(x, y);
//! p.read(prod);
//! let mut acc = Accelerator::builder().stream_len(4096).seed(1).build()?;
//! let out = p.run_on(&mut acc)?;
//! assert!((out[0] - 0.375).abs() < 0.05);
//! # Ok(())
//! # }
//! ```

pub mod cache;
pub mod opt;
pub mod sched;

use crate::engine::{Accelerator, StreamHandle};
use crate::error::ImscError;
use crate::layout::RnRefreshPolicy;
use sc_core::{Fixed, ScError};

/// Allocates a fresh process-unique program id (shared with
/// [`cache::ValueTape`], whose fake registers must never collide with a
/// real program's).
pub(crate) fn next_program_id() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT_PROGRAM_ID: AtomicU64 = AtomicU64::new(0);
    NEXT_PROGRAM_ID.fetch_add(1, Ordering::Relaxed)
}

/// A virtual register naming one stochastic stream in a [`Program`].
///
/// Registers are created by the program's emitter methods in definition
/// order and are in SSA form: each is defined by exactly one op. The
/// planner maps live registers onto crossbar rows and recycles the rows
/// as registers die. A register also remembers which program defined it
/// (programs carry process-unique ids), so feeding a register to a
/// different program's emitter is caught at emission time instead of
/// silently aliasing another stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VReg {
    program: u64,
    index: usize,
}

impl VReg {
    /// The register's dense index in definition order (within its
    /// defining program).
    #[must_use]
    pub fn index(self) -> usize {
        self.index
    }
}

/// A caller-chosen RN-realization tag.
///
/// Encode ops tagged with the *same* group may share one random-number
/// realization; a tag change between consecutive encode ops declares an
/// independence point, where the planner schedules a
/// [`Accelerator::refresh_rn_rows`] (under [`RnRefreshPolicy::Explicit`];
/// the automatic policies ignore tags and schedule their own refreshes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct RefreshGroup(pub u64);

/// One SC operation of a [`Program`], over virtual registers.
///
/// Compute variants mirror the corresponding [`Accelerator`] methods;
/// `Read` / `ReadConst` append to the program's output vector.
#[derive(Debug, Clone)]
pub enum Op {
    /// IMSNG-encode `value` into `dst` (fresh correlation domain).
    Encode {
        /// Destination register.
        dst: VReg,
        /// Binary operand.
        value: Fixed,
    },
    /// Encode all `values` against one shared RN realization (one
    /// correlation domain, as the correlated-input ops require).
    EncodeCorrelated {
        /// Destination registers, one per operand.
        dsts: Vec<VReg>,
        /// Binary operands.
        values: Vec<Fixed>,
    },
    /// Single-step ~0.5 TRNG select row (own correlation domain,
    /// independent of every RN realization).
    TrngSelect {
        /// Destination register.
        dst: VReg,
    },
    /// SC multiplication (AND over uncorrelated streams).
    Multiply {
        /// Destination register.
        dst: VReg,
        /// Left operand.
        a: VReg,
        /// Right operand.
        b: VReg,
    },
    /// MAJ scaled addition over uncorrelated streams.
    ScaledAdd {
        /// Destination register.
        dst: VReg,
        /// Left operand.
        a: VReg,
        /// Right operand.
        b: VReg,
    },
    /// OR approximate addition over uncorrelated streams.
    ApproxAdd {
        /// Destination register.
        dst: VReg,
        /// Left operand.
        a: VReg,
        /// Right operand.
        b: VReg,
    },
    /// XOR absolute subtraction over correlated streams.
    AbsSub {
        /// Destination register.
        dst: VReg,
        /// Left operand.
        a: VReg,
        /// Right operand.
        b: VReg,
    },
    /// AND minimum over correlated streams.
    Minimum {
        /// Destination register.
        dst: VReg,
        /// Left operand.
        a: VReg,
        /// Right operand.
        b: VReg,
    },
    /// OR maximum over correlated streams.
    Maximum {
        /// Destination register.
        dst: VReg,
        /// Left operand.
        a: VReg,
        /// Right operand.
        b: VReg,
    },
    /// CORDIV division over correlated streams. With `on_zero` set, a
    /// stochastic all-zero divisor poisons `dst` with the constant
    /// instead of failing the program; `dst` may then only be `Read`.
    Divide {
        /// Destination register.
        dst: VReg,
        /// Dividend.
        a: VReg,
        /// Divisor.
        b: VReg,
        /// Fallback output value for an all-zero divisor stream.
        on_zero: Option<f64>,
    },
    /// Inverted-read complement (stays in the operand's domain).
    Complement {
        /// Destination register.
        dst: VReg,
        /// Operand.
        a: VReg,
    },
    /// Directed MAJ blend of two correlated streams with an independent
    /// select.
    Blend {
        /// Destination register.
        dst: VReg,
        /// First correlated operand.
        a: VReg,
        /// Second correlated operand.
        b: VReg,
        /// Independent select stream.
        sel: VReg,
    },
    /// ADC read-out of `src`, appended to the program outputs.
    Read {
        /// Source register.
        src: VReg,
    },
    /// A constant program output (no hardware activity) — e.g. a pixel
    /// the emitter resolves at program-build time.
    ReadConst {
        /// The output value.
        value: f64,
    },
}

impl Op {
    /// Registers this op defines.
    fn defs(&self) -> &[VReg] {
        match self {
            Op::Encode { dst, .. }
            | Op::TrngSelect { dst }
            | Op::Multiply { dst, .. }
            | Op::ScaledAdd { dst, .. }
            | Op::ApproxAdd { dst, .. }
            | Op::AbsSub { dst, .. }
            | Op::Minimum { dst, .. }
            | Op::Maximum { dst, .. }
            | Op::Divide { dst, .. }
            | Op::Complement { dst, .. }
            | Op::Blend { dst, .. } => std::slice::from_ref(dst),
            Op::EncodeCorrelated { dsts, .. } => dsts,
            Op::Read { .. } | Op::ReadConst { .. } => &[],
        }
    }

    /// Registers this op consumes.
    fn uses(&self) -> [Option<VReg>; 3] {
        match *self {
            Op::Multiply { a, b, .. }
            | Op::ScaledAdd { a, b, .. }
            | Op::ApproxAdd { a, b, .. }
            | Op::AbsSub { a, b, .. }
            | Op::Minimum { a, b, .. }
            | Op::Maximum { a, b, .. }
            | Op::Divide { a, b, .. } => [Some(a), Some(b), None],
            Op::Complement { a, .. } => [Some(a), None, None],
            Op::Blend { a, b, sel, .. } => [Some(a), Some(b), Some(sel)],
            Op::Read { src } => [Some(src), None, None],
            Op::Encode { .. }
            | Op::EncodeCorrelated { .. }
            | Op::TrngSelect { .. }
            | Op::ReadConst { .. } => [None, None, None],
        }
    }

    /// Whether this op encodes against the RN rows (and therefore
    /// participates in refresh-group boundaries).
    fn is_encode(&self) -> bool {
        matches!(self, Op::Encode { .. } | Op::EncodeCorrelated { .. })
    }

    /// Clones the op with every register (defs and uses) mapped through
    /// `f` — the per-variant register shape lives here, next to
    /// [`Op::defs`] / [`Op::uses`], so re-indexing passes (the slice
    /// partitioner) never enumerate variants themselves.
    fn map_regs(&self, f: impl Fn(&VReg) -> VReg) -> Op {
        match self {
            Op::Encode { dst, value } => Op::Encode {
                dst: f(dst),
                value: *value,
            },
            Op::EncodeCorrelated { dsts, values } => Op::EncodeCorrelated {
                dsts: dsts.iter().map(&f).collect(),
                values: values.clone(),
            },
            Op::TrngSelect { dst } => Op::TrngSelect { dst: f(dst) },
            Op::Multiply { dst, a, b } => Op::Multiply {
                dst: f(dst),
                a: f(a),
                b: f(b),
            },
            Op::ScaledAdd { dst, a, b } => Op::ScaledAdd {
                dst: f(dst),
                a: f(a),
                b: f(b),
            },
            Op::ApproxAdd { dst, a, b } => Op::ApproxAdd {
                dst: f(dst),
                a: f(a),
                b: f(b),
            },
            Op::AbsSub { dst, a, b } => Op::AbsSub {
                dst: f(dst),
                a: f(a),
                b: f(b),
            },
            Op::Minimum { dst, a, b } => Op::Minimum {
                dst: f(dst),
                a: f(a),
                b: f(b),
            },
            Op::Maximum { dst, a, b } => Op::Maximum {
                dst: f(dst),
                a: f(a),
                b: f(b),
            },
            Op::Divide { dst, a, b, on_zero } => Op::Divide {
                dst: f(dst),
                a: f(a),
                b: f(b),
                on_zero: *on_zero,
            },
            Op::Complement { dst, a } => Op::Complement {
                dst: f(dst),
                a: f(a),
            },
            Op::Blend { dst, a, b, sel } => Op::Blend {
                dst: f(dst),
                a: f(a),
                b: f(b),
                sel: f(sel),
            },
            Op::Read { src } => Op::Read { src: f(src) },
            Op::ReadConst { value } => Op::ReadConst { value: *value },
        }
    }
}

/// Last-using op index per register over the dense SSA space (a
/// never-used register dies at its defining op), validating
/// def-before-use. The single source of truth for register liveness:
/// both the planner's release schedule ([`Plan::of`]) and the slice
/// partitioner's wavefront cuts ([`sched::wavefronts`]) consume it, so
/// the two can never disagree about where a register is live.
fn op_last_uses(program: &Program) -> Result<Vec<usize>, ImscError> {
    // Emitters define registers in order, so a register is live at op
    // `i` iff its index is below the def-count before `i`.
    let mut defined = 0usize;
    let mut last_use: Vec<usize> = Vec::with_capacity(program.regs);
    for (i, op) in program.ops.iter().enumerate() {
        for r in op.uses().into_iter().flatten() {
            if r.index >= defined {
                return Err(ImscError::InvalidConfig(
                    "program uses a register before its defining op",
                ));
            }
            last_use[r.index] = i;
        }
        for &d in op.defs() {
            debug_assert_eq!(d.index, defined, "emitters define registers densely");
            defined += 1;
            // A never-used register dies right after its def.
            last_use.push(i);
        }
    }
    debug_assert_eq!(defined, program.regs);
    Ok(last_use)
}

/// A declarative SC kernel: an op graph over virtual registers with
/// refresh-group tags. Built by the emitter methods, lowered by
/// [`Program::plan`] / [`Program::run_on`]. See the [module docs]
/// (self).
#[derive(Debug, Clone)]
pub struct Program {
    /// Process-unique id stamped into this program's [`VReg`]s, so a
    /// register handed to a *different* program's emitter is rejected
    /// instead of silently aliasing that program's same-index stream.
    /// Clones share the id (their register spaces are identical).
    id: u64,
    ops: Vec<Op>,
    /// Refresh-group tag per op (recorded for every op; only encode ops
    /// consult it).
    groups: Vec<RefreshGroup>,
    regs: usize,
    outputs: usize,
    group: RefreshGroup,
}

impl Default for Program {
    fn default() -> Self {
        Program::new()
    }
}

impl Program {
    /// An empty program (current refresh group 0).
    #[must_use]
    pub fn new() -> Self {
        Program {
            id: next_program_id(),
            ops: Vec::new(),
            groups: Vec::new(),
            regs: 0,
            outputs: 0,
            group: RefreshGroup::default(),
        }
    }

    /// Number of ops emitted so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the program has no ops.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of virtual registers defined.
    #[must_use]
    pub fn regs(&self) -> usize {
        self.regs
    }

    /// Number of output values (`read` + `read_const` ops).
    #[must_use]
    pub fn outputs(&self) -> usize {
        self.outputs
    }

    /// The ops in emission order.
    #[must_use]
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// The current refresh group (applied to subsequently emitted ops).
    #[must_use]
    pub fn current_group(&self) -> RefreshGroup {
        self.group
    }

    /// Starts a new refresh group and returns it. Subsequent encode ops
    /// carry the new tag, so the planner schedules a refresh between the
    /// previous encode and the next (under
    /// [`RnRefreshPolicy::Explicit`]).
    pub fn next_group(&mut self) -> RefreshGroup {
        self.group = RefreshGroup(self.group.0 + 1);
        self.group
    }

    /// Sets the current refresh group to an arbitrary caller-chosen tag.
    pub fn set_group(&mut self, group: RefreshGroup) {
        self.group = group;
    }

    fn fresh_reg(&mut self) -> VReg {
        let r = VReg {
            program: self.id,
            index: self.regs,
        };
        self.regs += 1;
        r
    }

    fn check_reg(&self, r: VReg) {
        assert!(
            r.program == self.id && r.index < self.regs,
            "virtual register {} does not belong to this program",
            r.index
        );
    }

    fn push(&mut self, op: Op) {
        self.groups.push(self.group);
        self.ops.push(op);
    }

    /// Emits an IMSNG encode of `value` (fresh correlation domain).
    pub fn encode(&mut self, value: Fixed) -> VReg {
        let dst = self.fresh_reg();
        self.push(Op::Encode { dst, value });
        dst
    }

    /// Emits a correlated encode batch: all `values` share one RN
    /// realization and one correlation domain.
    ///
    /// # Panics
    ///
    /// Panics on an empty operand list.
    pub fn encode_correlated(&mut self, values: &[Fixed]) -> Vec<VReg> {
        assert!(
            !values.is_empty(),
            "encode_correlated needs at least one operand"
        );
        let dsts: Vec<VReg> = values.iter().map(|_| self.fresh_reg()).collect();
        self.push(Op::EncodeCorrelated {
            dsts: dsts.clone(),
            values: values.to_vec(),
        });
        dsts
    }

    /// Emits a single-step ~0.5 TRNG select row.
    pub fn trng_select(&mut self) -> VReg {
        let dst = self.fresh_reg();
        self.push(Op::TrngSelect { dst });
        dst
    }

    fn binary(&mut self, a: VReg, b: VReg, make: impl FnOnce(VReg, VReg, VReg) -> Op) -> VReg {
        self.check_reg(a);
        self.check_reg(b);
        let dst = self.fresh_reg();
        self.push(make(dst, a, b));
        dst
    }

    /// Emits an SC multiplication `a·b` (uncorrelated operands).
    pub fn multiply(&mut self, a: VReg, b: VReg) -> VReg {
        self.binary(a, b, |dst, a, b| Op::Multiply { dst, a, b })
    }

    /// Emits a MAJ scaled addition `(a+b)/2` (uncorrelated operands).
    pub fn scaled_add(&mut self, a: VReg, b: VReg) -> VReg {
        self.binary(a, b, |dst, a, b| Op::ScaledAdd { dst, a, b })
    }

    /// Emits an OR approximate addition (uncorrelated operands).
    pub fn approx_add(&mut self, a: VReg, b: VReg) -> VReg {
        self.binary(a, b, |dst, a, b| Op::ApproxAdd { dst, a, b })
    }

    /// Emits an XOR absolute subtraction `|a−b|` (correlated operands).
    pub fn abs_subtract(&mut self, a: VReg, b: VReg) -> VReg {
        self.binary(a, b, |dst, a, b| Op::AbsSub { dst, a, b })
    }

    /// Emits an AND minimum (correlated operands).
    pub fn minimum(&mut self, a: VReg, b: VReg) -> VReg {
        self.binary(a, b, |dst, a, b| Op::Minimum { dst, a, b })
    }

    /// Emits an OR maximum (correlated operands).
    pub fn maximum(&mut self, a: VReg, b: VReg) -> VReg {
        self.binary(a, b, |dst, a, b| Op::Maximum { dst, a, b })
    }

    /// Emits a CORDIV division `a/b` (correlated operands, `a ≤ b`); an
    /// all-zero divisor stream fails the program.
    pub fn divide(&mut self, a: VReg, b: VReg) -> VReg {
        self.binary(a, b, |dst, a, b| Op::Divide {
            dst,
            a,
            b,
            on_zero: None,
        })
    }

    /// Emits a CORDIV division with a fallback: an all-zero divisor
    /// stream poisons the destination with `on_zero` instead of failing.
    /// A poisoned register may only be consumed by [`Program::read`].
    pub fn divide_or(&mut self, a: VReg, b: VReg, on_zero: f64) -> VReg {
        self.binary(a, b, |dst, a, b| Op::Divide {
            dst,
            a,
            b,
            on_zero: Some(on_zero),
        })
    }

    /// Emits an inverted-read complement `1−a`.
    pub fn complement(&mut self, a: VReg) -> VReg {
        self.check_reg(a);
        let dst = self.fresh_reg();
        self.push(Op::Complement { dst, a });
        dst
    }

    /// Emits a directed MAJ blend of correlated `a`, `b` with the
    /// independent select `sel`.
    pub fn blend(&mut self, a: VReg, b: VReg, sel: VReg) -> VReg {
        self.check_reg(a);
        self.check_reg(b);
        self.check_reg(sel);
        let dst = self.fresh_reg();
        self.push(Op::Blend { dst, a, b, sel });
        dst
    }

    /// Emits an ADC read-out of `src`, returning the output's index in
    /// the result vector of [`Plan::execute`].
    pub fn read(&mut self, src: VReg) -> usize {
        self.check_reg(src);
        let idx = self.outputs;
        self.outputs += 1;
        self.push(Op::Read { src });
        idx
    }

    /// Emits a constant output value (no hardware activity), returning
    /// its output index.
    pub fn read_const(&mut self, value: f64) -> usize {
        let idx = self.outputs;
        self.outputs += 1;
        self.push(Op::ReadConst { value });
        idx
    }

    /// Plans the program: last-use analysis, eager-release schedule,
    /// refresh-group boundaries, encode coalescing, and row-demand
    /// accounting.
    ///
    /// # Errors
    ///
    /// [`ImscError::InvalidConfig`] for a malformed program (a register
    /// used before its defining op).
    pub fn plan(&self) -> Result<Plan<'_>, ImscError> {
        Plan::of(self)
    }

    /// Plans and executes the program on `acc` — see [`Plan::execute`].
    ///
    /// # Errors
    ///
    /// Planning or execution errors.
    pub fn run_on(&self, acc: &mut Accelerator) -> Result<Vec<f64>, ImscError> {
        self.plan()?.execute(acc)
    }
}

/// The emitter surface of [`Program`], abstracted so one generic kernel
/// emitter can drive either a real program or a lightweight recorder
/// ([`cache::ValueTape`], which captures only the op *shape* and the
/// value stream — the template cache's key and bindings — without
/// allocating any ops). Statically dispatched; `Program` implements it
/// by delegating to its inherent methods.
pub trait ProgramSink {
    /// See [`Program::encode`].
    fn encode(&mut self, value: Fixed) -> VReg;
    /// See [`Program::encode_correlated`].
    fn encode_correlated(&mut self, values: &[Fixed]) -> Vec<VReg>;
    /// See [`Program::trng_select`].
    fn trng_select(&mut self) -> VReg;
    /// See [`Program::multiply`].
    fn multiply(&mut self, a: VReg, b: VReg) -> VReg;
    /// See [`Program::scaled_add`].
    fn scaled_add(&mut self, a: VReg, b: VReg) -> VReg;
    /// See [`Program::approx_add`].
    fn approx_add(&mut self, a: VReg, b: VReg) -> VReg;
    /// See [`Program::abs_subtract`].
    fn abs_subtract(&mut self, a: VReg, b: VReg) -> VReg;
    /// See [`Program::minimum`].
    fn minimum(&mut self, a: VReg, b: VReg) -> VReg;
    /// See [`Program::maximum`].
    fn maximum(&mut self, a: VReg, b: VReg) -> VReg;
    /// See [`Program::divide`].
    fn divide(&mut self, a: VReg, b: VReg) -> VReg;
    /// See [`Program::divide_or`].
    fn divide_or(&mut self, a: VReg, b: VReg, on_zero: f64) -> VReg;
    /// See [`Program::complement`].
    fn complement(&mut self, a: VReg) -> VReg;
    /// See [`Program::blend`].
    fn blend(&mut self, a: VReg, b: VReg, sel: VReg) -> VReg;
    /// See [`Program::read`].
    fn read(&mut self, src: VReg) -> usize;
    /// See [`Program::read_const`].
    fn read_const(&mut self, value: f64) -> usize;
    /// See [`Program::next_group`].
    fn next_group(&mut self) -> RefreshGroup;
    /// See [`Program::set_group`].
    fn set_group(&mut self, group: RefreshGroup);
}

impl ProgramSink for Program {
    fn encode(&mut self, value: Fixed) -> VReg {
        Program::encode(self, value)
    }
    fn encode_correlated(&mut self, values: &[Fixed]) -> Vec<VReg> {
        Program::encode_correlated(self, values)
    }
    fn trng_select(&mut self) -> VReg {
        Program::trng_select(self)
    }
    fn multiply(&mut self, a: VReg, b: VReg) -> VReg {
        Program::multiply(self, a, b)
    }
    fn scaled_add(&mut self, a: VReg, b: VReg) -> VReg {
        Program::scaled_add(self, a, b)
    }
    fn approx_add(&mut self, a: VReg, b: VReg) -> VReg {
        Program::approx_add(self, a, b)
    }
    fn abs_subtract(&mut self, a: VReg, b: VReg) -> VReg {
        Program::abs_subtract(self, a, b)
    }
    fn minimum(&mut self, a: VReg, b: VReg) -> VReg {
        Program::minimum(self, a, b)
    }
    fn maximum(&mut self, a: VReg, b: VReg) -> VReg {
        Program::maximum(self, a, b)
    }
    fn divide(&mut self, a: VReg, b: VReg) -> VReg {
        Program::divide(self, a, b)
    }
    fn divide_or(&mut self, a: VReg, b: VReg, on_zero: f64) -> VReg {
        Program::divide_or(self, a, b, on_zero)
    }
    fn complement(&mut self, a: VReg) -> VReg {
        Program::complement(self, a)
    }
    fn blend(&mut self, a: VReg, b: VReg, sel: VReg) -> VReg {
        Program::blend(self, a, b, sel)
    }
    fn read(&mut self, src: VReg) -> usize {
        Program::read(self, src)
    }
    fn read_const(&mut self, value: f64) -> usize {
        Program::read_const(self, value)
    }
    fn next_group(&mut self) -> RefreshGroup {
        Program::next_group(self)
    }
    fn set_group(&mut self, group: RefreshGroup) {
        Program::set_group(self, group);
    }
}

/// One lowering step: either a single op or a coalesced run of
/// consecutive single-value encodes (lowered to one `encode_many`).
#[derive(Debug, Clone, Copy)]
enum Step {
    Single(usize),
    /// `ops[start..start + len]` are all `Op::Encode` in one refresh
    /// group.
    EncodeRun {
        start: usize,
        len: usize,
    },
}

impl Step {
    fn op_range(self) -> std::ops::Range<usize> {
        match self {
            Step::Single(i) => i..i + 1,
            Step::EncodeRun { start, len } => start..start + len,
        }
    }
}

/// Execution-time state of a virtual register.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Slot {
    Handle(StreamHandle),
    /// Poisoned by a `divide_or` fallback: reads yield the constant.
    Const(f64),
}

/// A reusable register-file scratch buffer for [`Plan::execute_in`].
///
/// Executing a plan needs one dense register→handle slot per virtual
/// register. Callers that execute many plans in a row (one per tile or
/// per pipeline slice) keep one arena per worker and hand it to
/// [`Plan::execute_in`], so re-planning stops reallocating the slot
/// vector on every execution — the arena's capacity persists across
/// runs. A fresh arena behaves identically to the internal allocation
/// [`Plan::execute`] performs.
#[derive(Debug, Default)]
pub struct ExecArena {
    slots: Vec<Option<Slot>>,
}

impl ExecArena {
    /// An empty arena (capacity grows on first use and is then reused).
    #[must_use]
    pub fn new() -> Self {
        ExecArena::default()
    }

    /// Clears the arena and sizes it for `regs` registers, keeping the
    /// allocation.
    fn reset(&mut self, regs: usize) -> &mut [Option<Slot>] {
        self.slots.clear();
        self.slots.resize(regs, None);
        &mut self.slots
    }
}

/// The program-independent payload of a lowering schedule: everything
/// [`Plan`] computes, minus the borrow of the program it was computed
/// from. Owning this separately lets [`cache::Template`] bundle a
/// program *and* its schedule in one shareable value (the borrow in
/// `Plan<'p>` forbids that).
#[derive(Debug, Clone)]
pub(crate) struct PlanData {
    steps: Vec<Step>,
    /// Step indices preceded by a refresh-group boundary.
    boundary: Vec<bool>,
    /// Registers to release after each step (their last use).
    releases: Vec<Vec<VReg>>,
    peak_rows: usize,
    naive_peak_rows: usize,
}

impl PlanData {
    pub(crate) fn of(program: &Program) -> Result<Self, ImscError> {
        let last_use = op_last_uses(program)?;

        // Coalesce runs of consecutive single-value encodes within one
        // refresh group into `encode_many` steps.
        let mut steps = Vec::new();
        let mut i = 0;
        while i < program.ops.len() {
            if matches!(program.ops[i], Op::Encode { .. }) {
                let g = program.groups[i];
                let mut len = 1;
                while i + len < program.ops.len()
                    && matches!(program.ops[i + len], Op::Encode { .. })
                    && program.groups[i + len] == g
                {
                    len += 1;
                }
                steps.push(if len == 1 {
                    Step::Single(i)
                } else {
                    Step::EncodeRun { start: i, len }
                });
                i += len;
            } else {
                steps.push(Step::Single(i));
                i += 1;
            }
        }

        // Refresh-group boundaries: an encode step whose tag differs from
        // the previous encode step's tag.
        let mut boundary = vec![false; steps.len()];
        let mut prev_group: Option<RefreshGroup> = None;
        for (s, step) in steps.iter().enumerate() {
            let first = step.op_range().start;
            if program.ops[first].is_encode() {
                let g = program.groups[first];
                boundary[s] = prev_group.is_some_and(|p| p != g);
                prev_group = Some(g);
            }
        }

        // Eager-release schedule: a register is released after the *step*
        // containing its last-using op.
        let mut releases: Vec<Vec<VReg>> = vec![Vec::new(); steps.len()];
        let step_of_op = {
            let mut map = vec![0usize; program.ops.len()];
            for (s, step) in steps.iter().enumerate() {
                for o in step.op_range() {
                    map[o] = s;
                }
            }
            map
        };
        for r in 0..program.regs {
            releases[step_of_op[last_use[r]]].push(VReg {
                program: program.id,
                index: r,
            });
        }

        // Row demand: planned (eager release) vs naive (all streams live
        // to the end). Destinations allocate before operands release, so
        // a step's transient demand is live + its defs.
        let mut live = 0usize;
        let mut peak_rows = 0usize;
        for (s, step) in steps.iter().enumerate() {
            let defs: usize = step.op_range().map(|o| program.ops[o].defs().len()).sum();
            live += defs;
            peak_rows = peak_rows.max(live);
            live -= releases[s].len();
        }
        let naive_peak_rows = program.regs;

        Ok(PlanData {
            steps,
            boundary,
            releases,
            peak_rows,
            naive_peak_rows,
        })
    }
}

/// The lowering schedule of one [`Program`]: last-use releases, refresh
/// boundaries, coalesced encode batches, and row-demand bounds. Produced
/// by [`Program::plan`]; executable any number of times via
/// [`Plan::execute`] (e.g. once per tile accelerator).
#[derive(Debug)]
pub struct Plan<'p> {
    program: &'p Program,
    data: PlanData,
}

impl<'p> Plan<'p> {
    fn of(program: &'p Program) -> Result<Self, ImscError> {
        Ok(Plan {
            program,
            data: PlanData::of(program)?,
        })
    }

    /// The program this plan lowers.
    #[must_use]
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// Peak crossbar-row demand under the plan's eager-release schedule.
    #[must_use]
    pub fn peak_rows(&self) -> usize {
        self.data.peak_rows
    }

    /// Row demand with every stream held to the end of the program (what
    /// an imperative caller without early releases would need).
    #[must_use]
    pub fn naive_peak_rows(&self) -> usize {
        self.data.naive_peak_rows
    }

    /// Number of lowering steps (coalesced encode runs count as one).
    #[must_use]
    pub fn steps(&self) -> usize {
        self.data.steps.len()
    }

    /// Number of single-value encodes folded into `encode_many` batches.
    #[must_use]
    pub fn coalesced_encodes(&self) -> usize {
        self.data
            .steps
            .iter()
            .map(|s| match s {
                Step::EncodeRun { len, .. } => *len,
                Step::Single(_) => 0,
            })
            .sum()
    }

    /// The unbound execution view over this plan's program and schedule.
    pub(crate) fn view(&self) -> ExecView<'_> {
        ExecView {
            program: self.program,
            data: &self.data,
            binds: None,
        }
    }

    /// Executes the program on `acc`, returning its outputs in emission
    /// order. Rows are released eagerly per the plan; after a successful
    /// run every row the program allocated has been returned to the
    /// accelerator.
    ///
    /// # Errors
    ///
    /// The first failing operation's error. The accelerator keeps the
    /// costs charged up to that point, exactly as the imperative API
    /// does, but every row still held by the program is released before
    /// returning (the planner owns the handles, so leaving them live
    /// would leak the rows irrecoverably). Consuming a
    /// `divide_or`-poisoned register with anything but a read is
    /// [`ImscError::InvalidConfig`].
    pub fn execute(&self, acc: &mut Accelerator) -> Result<Vec<f64>, ImscError> {
        self.execute_in(acc, &mut ExecArena::new())
    }

    /// [`Plan::execute`] with a caller-pooled register arena: identical
    /// behaviour, but the dense register→handle scratch vector is
    /// borrowed from `arena` instead of freshly allocated, so executing
    /// many plans in a row (one per tile, one per pipeline slice) reuses
    /// one allocation.
    ///
    /// # Errors
    ///
    /// Same as [`Plan::execute`].
    pub fn execute_in(
        &self,
        acc: &mut Accelerator,
        arena: &mut ExecArena,
    ) -> Result<Vec<f64>, ImscError> {
        self.view().execute_in(acc, arena)
    }
}

/// Per-execution value substitutions for a holes-mode template (see
/// [`cache::Template`]): op `i`'s encode immediates are
/// `values[fixed_base[i]..]` and its constant output / divide fallback
/// is `consts[const_base[i]]`. The base arrays are prefix sums over the
/// template's ops, so substitution is stateless per step and works for
/// the pipeline scheduler's out-of-order stage phases too.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BindRef<'a> {
    pub(crate) values: &'a [Fixed],
    pub(crate) consts: &'a [f64],
    pub(crate) fixed_base: &'a [u32],
    pub(crate) const_base: &'a [u32],
}

/// A borrowed execution view — a program, its lowering schedule, and
/// optional value bindings. The single execution core shared by
/// [`Plan`] (no bindings), [`cache::Template`] (bindings for the
/// template's value holes), and the pipeline scheduler's slice jobs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ExecView<'a> {
    pub(crate) program: &'a Program,
    pub(crate) data: &'a PlanData,
    pub(crate) binds: Option<BindRef<'a>>,
}

impl ExecView<'_> {
    /// Executes every step in order — see [`Plan::execute_in`].
    pub(crate) fn execute_in(
        &self,
        acc: &mut Accelerator,
        arena: &mut ExecArena,
    ) -> Result<Vec<f64>, ImscError> {
        let slots = arena.reset(self.program.regs);
        let mut out = Vec::with_capacity(self.program.outputs);
        let run =
            (0..self.data.steps.len()).try_for_each(|s| self.exec_step(s, acc, slots, &mut out));
        match run {
            Ok(()) => Ok(out),
            Err(e) => {
                release_live_slots(acc, slots);
                Err(e)
            }
        }
    }

    /// The encode immediate of op `i` (an `Op::Encode`), after binding.
    fn fixed_at(&self, i: usize, value: Fixed) -> Fixed {
        match self.binds {
            Some(b) => b.values[b.fixed_base[i] as usize],
            None => value,
        }
    }

    /// The constant of op `i` (`ReadConst` value or `Divide` fallback),
    /// after binding.
    fn const_at(&self, i: usize, value: f64) -> f64 {
        match self.binds {
            Some(b) => b.consts[b.const_base[i] as usize],
            None => value,
        }
    }

    /// Executes one lowering step: the refresh-group boundary (if any),
    /// the step's operations, and the step's eager releases. `slots`
    /// must span the program's registers and carry the state left by the
    /// preceding steps. On error, live rows are *not* released here —
    /// callers owning the slot state decide (see [`release_live_slots`]).
    pub(crate) fn exec_step(
        &self,
        s: usize,
        acc: &mut Accelerator,
        slots: &mut [Option<Slot>],
        out: &mut Vec<f64>,
    ) -> Result<(), ImscError> {
        let prog = self.program;
        let handle = |slots: &[Option<Slot>], r: VReg| -> Result<StreamHandle, ImscError> {
            match slots[r.index] {
                Some(Slot::Handle(h)) => Ok(h),
                Some(Slot::Const(_)) => Err(ImscError::InvalidConfig(
                    "a divide_or fallback register can only be read",
                )),
                None => Err(ImscError::InvalidConfig("register is not live")),
            }
        };
        {
            let step = self.data.steps[s];
            if self.data.boundary[s] && acc.refresh_policy() == RnRefreshPolicy::Explicit {
                acc.refresh_rn_rows()?;
            }
            match step {
                Step::EncodeRun { start, len } => {
                    let values: Vec<Fixed> = prog.ops[start..start + len]
                        .iter()
                        .enumerate()
                        .map(|(o, op)| match op {
                            Op::Encode { value, .. } => self.fixed_at(start + o, *value),
                            _ => unreachable!("encode runs hold only Encode ops"),
                        })
                        .collect();
                    let handles = acc.encode_many(&values)?;
                    for (op, h) in prog.ops[start..start + len].iter().zip(handles) {
                        if let Op::Encode { dst, .. } = op {
                            slots[dst.index] = Some(Slot::Handle(h));
                        }
                    }
                }
                Step::Single(i) => match prog.ops[i] {
                    Op::Encode { dst, value } => {
                        slots[dst.index] = Some(Slot::Handle(acc.encode(self.fixed_at(i, value))?));
                    }
                    Op::EncodeCorrelated {
                        ref dsts,
                        ref values,
                    } => {
                        let handles = match self.binds {
                            Some(b) => {
                                let base = b.fixed_base[i] as usize;
                                acc.encode_correlated_many(&b.values[base..base + values.len()])?
                            }
                            None => acc.encode_correlated_many(values)?,
                        };
                        for (d, h) in dsts.iter().zip(handles) {
                            slots[d.index] = Some(Slot::Handle(h));
                        }
                    }
                    Op::TrngSelect { dst } => {
                        slots[dst.index] = Some(Slot::Handle(acc.trng_select()?));
                    }
                    Op::Multiply { dst, a, b } => {
                        let (ha, hb) = (handle(slots, a)?, handle(slots, b)?);
                        slots[dst.index] = Some(Slot::Handle(acc.multiply(ha, hb)?));
                    }
                    Op::ScaledAdd { dst, a, b } => {
                        let (ha, hb) = (handle(slots, a)?, handle(slots, b)?);
                        slots[dst.index] = Some(Slot::Handle(acc.scaled_add(ha, hb)?));
                    }
                    Op::ApproxAdd { dst, a, b } => {
                        let (ha, hb) = (handle(slots, a)?, handle(slots, b)?);
                        slots[dst.index] = Some(Slot::Handle(acc.approx_add(ha, hb)?));
                    }
                    Op::AbsSub { dst, a, b } => {
                        let (ha, hb) = (handle(slots, a)?, handle(slots, b)?);
                        slots[dst.index] = Some(Slot::Handle(acc.abs_subtract(ha, hb)?));
                    }
                    Op::Minimum { dst, a, b } => {
                        let (ha, hb) = (handle(slots, a)?, handle(slots, b)?);
                        slots[dst.index] = Some(Slot::Handle(acc.minimum(ha, hb)?));
                    }
                    Op::Maximum { dst, a, b } => {
                        let (ha, hb) = (handle(slots, a)?, handle(slots, b)?);
                        slots[dst.index] = Some(Slot::Handle(acc.maximum(ha, hb)?));
                    }
                    Op::Divide { dst, a, b, on_zero } => {
                        let (ha, hb) = (handle(slots, a)?, handle(slots, b)?);
                        slots[dst.index] = Some(match (acc.divide(ha, hb), on_zero) {
                            (Ok(h), _) => Slot::Handle(h),
                            (
                                Err(ImscError::Stochastic(ScError::DivisionByZero)),
                                Some(fallback),
                            ) => Slot::Const(self.const_at(i, fallback)),
                            (Err(e), _) => return Err(e),
                        });
                    }
                    Op::Complement { dst, a } => {
                        let ha = handle(slots, a)?;
                        slots[dst.index] = Some(Slot::Handle(acc.complement(ha)?));
                    }
                    Op::Blend { dst, a, b, sel } => {
                        let (ha, hb, hs) =
                            (handle(slots, a)?, handle(slots, b)?, handle(slots, sel)?);
                        slots[dst.index] = Some(Slot::Handle(acc.blend(ha, hb, hs)?));
                    }
                    Op::Read { src } => match slots[src.index] {
                        Some(Slot::Handle(h)) => out.push(acc.read_value(h)?),
                        Some(Slot::Const(c)) => out.push(c),
                        None => return Err(ImscError::InvalidConfig("register is not live")),
                    },
                    Op::ReadConst { value } => out.push(self.const_at(i, value)),
                },
            }
            for &r in &self.data.releases[s] {
                if let Some(Slot::Handle(h)) = slots[r.index].take() {
                    acc.release(h)?;
                }
            }
        }
        Ok(())
    }
}

/// Releases every row still held in `slots` — called after a failed
/// execution so a retained accelerator stays usable (the program's
/// registers are unreachable to the caller, so leaving them live would
/// leak the rows irrecoverably).
fn release_live_slots(acc: &mut Accelerator, slots: &mut [Option<Slot>]) {
    for slot in slots {
        if let Some(Slot::Handle(h)) = slot.take() {
            let _ = acc.release(h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registers_are_dense_and_ssa() {
        let mut p = Program::new();
        let a = p.encode(Fixed::from_u8(10));
        let pair = p.encode_correlated(&[Fixed::from_u8(1), Fixed::from_u8(2)]);
        let s = p.trng_select();
        assert_eq!(a.index(), 0);
        assert_eq!(pair[0].index(), 1);
        assert_eq!(pair[1].index(), 2);
        assert_eq!(s.index(), 3);
        assert_eq!(p.regs(), 4);
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn plan_counts_rows_and_coalesces() {
        let mut p = Program::new();
        // Four consecutive encodes in one group coalesce into one batch.
        let regs: Vec<VReg> = (0..4).map(|i| p.encode(Fixed::from_u8(i))).collect();
        let m1 = p.multiply(regs[0], regs[1]);
        let m2 = p.multiply(regs[2], regs[3]);
        let sum = p.scaled_add(m1, m2);
        p.read(sum);
        let plan = p.plan().unwrap();
        assert_eq!(plan.coalesced_encodes(), 4);
        assert_eq!(plan.naive_peak_rows(), 7);
        // 4 encodes live + m1 makes 5; by m2 one pair is released.
        assert_eq!(plan.peak_rows(), 5);
        assert_eq!(plan.steps(), 5);
    }

    #[test]
    fn boundary_only_between_differing_groups() {
        let mut p = Program::new();
        let _ = p.encode(Fixed::from_u8(1));
        p.next_group();
        let _ = p.encode(Fixed::from_u8(2));
        let _ = p.encode(Fixed::from_u8(3)); // same group: coalesces, no boundary
        let plan = p.plan().unwrap();
        assert_eq!(plan.steps(), 2);
        assert!(!plan.data.boundary[0]);
        assert!(plan.data.boundary[1]);
        assert_eq!(plan.coalesced_encodes(), 2);
    }

    #[test]
    fn group_change_blocks_coalescing() {
        let mut p = Program::new();
        let _ = p.encode(Fixed::from_u8(1));
        let _ = p.encode(Fixed::from_u8(2));
        p.next_group();
        let _ = p.encode(Fixed::from_u8(3));
        let plan = p.plan().unwrap();
        assert_eq!(plan.steps(), 2);
        assert_eq!(plan.coalesced_encodes(), 2);
        assert!(plan.data.boundary[1]);
    }

    #[test]
    #[should_panic(expected = "does not belong to this program")]
    fn foreign_register_is_rejected_at_emission() {
        // The foreign register's *index* is valid in `p` — only the
        // program-id stamp distinguishes it from `p`'s own register 0.
        let mut other = Program::new();
        let foreign = other.encode(Fixed::from_u8(1));
        let mut p = Program::new();
        let own = p.encode(Fixed::from_u8(2));
        let _ = p.multiply(own, foreign);
    }

    #[test]
    #[should_panic(expected = "at least one operand")]
    fn empty_correlated_encode_panics() {
        let mut p = Program::new();
        let _ = p.encode_correlated(&[]);
    }
}
