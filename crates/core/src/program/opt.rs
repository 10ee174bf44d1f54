//! XAG-backed program optimizer: whole-program CSE + algebraic rewriting.
//!
//! The planner coalesces encode runs but never touches the op graph
//! itself; this pass sits between program emission and planning and
//! minimizes the *pure combinational* slice of a [`Program`] — the
//! scouting AND/XOR/MAJ ops and the encodes feeding them — while
//! keeping the result **bit-identical** to the unoptimized run (same
//! output values, same RN-epoch count). The RN-dependent steps
//! ([`Op::TrngSelect`], [`Op::ScaledAdd`]) and the stateful CORDIV
//! divide keep their schedule untouched: their random draws and
//! zero-divisor behaviour depend on execution order, so they act as
//! barriers the rewriter never crosses or elides.
//!
//! The pass lowers combinational ops into [`Xag`] signals (structural
//! hashing gives CSE and the classic constant/double-negation folds for
//! free), layers *threshold-stream* value tracking on top — correlated
//! encodes of one RN realization are nested, so AND is exactly the
//! smaller operand's stream and OR the larger's — and emits back a
//! minimized op sequence with densely re-indexed [`VReg`]s and the
//! original [`RefreshGroup`] tags. A correlation-group legality
//! simulation mirrors the engine's runtime checks; any rewrite the
//! engine would reject is rolled back through a blocked-register
//! fixpoint, so `optimize` never turns a valid program into an invalid
//! one. Each round of that fixpoint collects every violation of the
//! candidate and pins all their blame cones at once, so a program with
//! many independent violations (matting: one per `I == B` pixel) still
//! settles in two rounds — one that pins, one that confirms.
//!
//! What each level does:
//!
//! * [`Optimize::Off`] — returns the program unchanged.
//! * [`Optimize::Cse`] — structural-hash CSE over combinational ops
//!   (identical signals collapse, `a ⊕ a`, double complement, …) plus
//!   dead combinational-op removal.
//! * [`Optimize::Full`] — adds the value-level rewrites: threshold
//!   folds (`min`/`max`/`blend` with constant or equal selects),
//!   duplicate-operand pruning inside correlated encode batches,
//!   same-realization encode dedup and dead-encode removal (under
//!   [`RnRefreshPolicy::Explicit`], keeping at least one encode per
//!   refresh segment so the epoch count is preserved), folding reads of
//!   all-zero/all-one streams to [`Op::ReadConst`], fusing a single
//!   encode into the next correlated batch of its refresh segment (one
//!   conversion dispatch instead of two — the shared realization makes
//!   the fused batch bit-identical), and the stage-reordering peephole
//!   that hoists encodes into the leading ❶ SBS run of each pixel.

use super::{Op, Program, RefreshGroup, VReg};
use crate::fxhash::FxHashMap;
use crate::layout::RnRefreshPolicy;
use crate::xag::{Signal, Xag};
use sc_core::Fixed;

/// Optimization level threaded from the backend configuration into
/// [`optimize`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Optimize {
    /// No rewriting; the emitted program runs as-is (the default).
    #[default]
    Off,
    /// Structural-hashing CSE and dead combinational-op removal only.
    Cse,
    /// CSE plus the threshold-stream algebraic rewrites, encode
    /// dedup/pruning, read folding, and the encode-hoisting peephole.
    Full,
}

impl Optimize {
    /// Whether this level's rewrites inspect operand *values* (zero-value
    /// lowering to constant-false signals, encode dedup over equal
    /// immediates, threshold-value min/max folding, read folding). A
    /// value-dependent level can change a program's shape when only its
    /// immediates change, so the template cache must key on the full
    /// value pattern instead of binding values into holes — see
    /// `program::cache`.
    #[must_use]
    pub fn value_dependent(self) -> bool {
        !matches!(self, Optimize::Off)
    }
}

impl std::str::FromStr for Optimize {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" => Ok(Optimize::Off),
            "cse" => Ok(Optimize::Cse),
            "full" => Ok(Optimize::Full),
            other => Err(format!("unknown optimize level `{other}` (off|cse|full)")),
        }
    }
}

/// What [`optimize`] did to a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OptStats {
    /// Ops in the input program.
    pub ops_before: usize,
    /// Ops in the optimized program.
    pub ops_after: usize,
    /// Encode conversions removed: elided single encodes plus pruned
    /// correlated-batch operands (each saves a full `M`-segment
    /// comparison schedule).
    pub encodes_elided: usize,
    /// Combinational scouting ops removed (CSE'd or dead).
    pub comb_elided: usize,
    /// ADC reads folded to compile-time constants.
    pub reads_folded: usize,
    /// Encode ops hoisted into an earlier position of their pixel's
    /// leading encode run.
    pub hoisted: usize,
    /// Single encodes fused into the next correlated batch of their
    /// refresh segment (each saves one engine dispatch and one planned
    /// step; streams stay bit-identical because the segment shares one
    /// RN realization).
    pub encodes_merged: usize,
    /// Registers the legality fixpoint had to pin to their original
    /// definitions because an alias would have changed correlation
    /// groups illegally.
    pub aliases_blocked: usize,
    /// Rewrite + legality-simulation rounds the fixpoint ran (1 when the
    /// first rewrite was already legal, 0 at [`Optimize::Off`]). Every
    /// round pins all the violations it finds, so this stays at one or
    /// two however many independent violations a program has.
    pub legality_rounds: usize,
}

/// Rewrites `program` at the given level, assuming it will execute under
/// `policy`. Returns the optimized program and what was done.
///
/// The optimized program is observationally equivalent on a fault-free
/// accelerator: identical output values bit-for-bit and an identical
/// RN-epoch count (refresh segments never lose their last encode).
/// Ledger totals drop — that is the point. Fault-injection runs perturb
/// streams row-locally, so callers must pass [`Optimize::Off`] when
/// faults are enabled (the imgproc backend does this automatically).
#[must_use]
pub fn optimize(
    program: &Program,
    level: Optimize,
    policy: RnRefreshPolicy,
) -> (Program, OptStats) {
    let unchanged = |p: &Program, rounds: usize| {
        let n = p.ops.len();
        (
            p.clone(),
            OptStats {
                ops_before: n,
                ops_after: n,
                legality_rounds: rounds,
                ..OptStats::default()
            },
        )
    };
    if level == Optimize::Off || program.ops.is_empty() {
        return unchanged(program, 0);
    }
    let realz = realizations(program, policy);
    let def_op = def_ops(program);
    let mut blocked = vec![false; program.regs];
    let mut blocked_count = 0usize;
    let mut allow_merge = true;
    let mut rounds = 0usize;
    // Fixpoint over the blocked set. Each round's legality simulation
    // collects every violation at once, and each round either passes,
    // gives up, drops batch fusion (at most once) or pins at least one
    // more register, so this terminates within `regs + 2` rounds. A
    // round only finds more work when pinning one alias exposes a
    // violation the previous rewrite had hidden; the image kernels
    // settle in at most two rounds.
    loop {
        rounds += 1;
        let mut cand = rewrite(program, level, policy, &realz, &blocked);
        dce(program, level, policy, &realz, &mut cand);
        if allow_merge {
            merge_batches(program, level, &realz, &mut cand);
        }
        match check_groups(program, &cand, &def_op, &mut blocked) {
            Verdict::Legal => {
                cand.stats.aliases_blocked = blocked_count;
                cand.stats.legality_rounds = rounds;
                return emit(program, &cand, level);
            }
            Verdict::Retry(grown) => blocked_count += grown,
            Verdict::Stuck => {
                // Batch fusion merges correlation groups, which no
                // alias is to blame for; drop the merges and retry
                // before giving up on the whole rewrite.
                if allow_merge && cand.stats.encodes_merged > 0 {
                    allow_merge = false;
                } else {
                    return unchanged(program, rounds);
                }
            }
        }
    }
}

/// Assigns each encode op the id of the RN realization its conversion
/// compares against. Under [`RnRefreshPolicy::Explicit`] a refresh runs
/// exactly at refresh-group boundaries, so consecutive encode ops with
/// one tag share a realization (one *segment*). Under the other
/// policies the refresh counter is engine state the rewriter does not
/// model, so every encode event conservatively gets its own id (batch
/// operands still share theirs — one realization per batch by
/// construction).
fn realizations(p: &Program, policy: RnRefreshPolicy) -> Vec<u64> {
    let mut ids = vec![0u64; p.ops.len()];
    let mut next = 0u64;
    let mut prev_tag: Option<RefreshGroup> = None;
    for (i, op) in p.ops.iter().enumerate() {
        if !op.is_encode() {
            continue;
        }
        let fresh = match policy {
            RnRefreshPolicy::Explicit => prev_tag != Some(p.groups[i]),
            _ => true,
        };
        if fresh {
            next += 1;
        }
        prev_tag = Some(p.groups[i]);
        ids[i] = next;
    }
    ids
}

/// Maps each register to the index of its defining op.
fn def_ops(p: &Program) -> Vec<usize> {
    let mut def = vec![usize::MAX; p.regs];
    for (i, op) in p.ops.iter().enumerate() {
        for d in op.defs() {
            def[d.index] = i;
        }
    }
    def
}

/// Follows alias links to the representative register. Aliases always
/// point at registers that were kept (never re-aliased later), so the
/// chain is one hop; the loop is belt-and-braces.
fn resolve(alias: &[usize], mut r: usize) -> usize {
    while alias[r] != r {
        r = alias[r];
    }
    r
}

/// Dense signal → earliest-register map (structural-hash CSE). Signal
/// ids are small and allocated in lowering order, so a flat vector
/// beats a hash map on the per-op hot path; `usize::MAX` marks a
/// vacant slot.
fn rep_id(s: Signal) -> usize {
    ((s.node() as usize) << 1) | usize::from(s.is_inverted())
}

/// Packs a signal into 33 bits for composite-node memo keys.
fn sig_key(s: Signal) -> u64 {
    (u64::from(s.node()) << 1) | u64::from(s.is_inverted())
}

/// `(realization, value)` key of the encode-dedup map. Equality is on
/// the full fields; the manual [`std::hash::Hash`] folds each key into
/// two words (the derived impl would feed five through the hasher —
/// measurable on the optimizer's hot loop, which probes this map for
/// every encode slot).
#[derive(PartialEq, Eq, Clone, Copy, Debug)]
struct EncKey(u64, Fixed);

impl std::hash::Hash for EncKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.0);
        state.write_u64(self.1.value() ^ (u64::from(self.1.bits()) << 58));
    }
}

fn rep_get(rep: &[usize], s: Signal) -> Option<usize> {
    match rep.get(rep_id(s)) {
        Some(&r) if r != usize::MAX => Some(r),
        _ => None,
    }
}

/// Records `s → d` unless an earlier register already computes `s`
/// (first definition wins, like `entry().or_insert`).
fn rep_put(rep: &mut Vec<usize>, s: Signal, d: usize) {
    let id = rep_id(s);
    if rep.len() <= id {
        rep.resize(id + 1, usize::MAX);
    }
    if rep[id] == usize::MAX {
        rep[id] = d;
    }
}

/// One rewrite attempt: alias decisions, removals, and fold results,
/// later validated by [`check_groups`].
struct Candidate {
    /// Register → representative register (identity when kept).
    alias: Vec<usize>,
    /// Fully removed ops.
    removed: Vec<bool>,
    /// Per [`Op::EncodeCorrelated`]: which operand slots survive
    /// pruning (`None` keeps all).
    batch_keep: Vec<Option<Vec<bool>>>,
    /// Per [`Op::Read`]: the constant it folds to, when its source is a
    /// provably all-zero or all-one stream.
    read_fold: Vec<Option<f64>>,
    /// Per single [`Op::Encode`]: the same-segment correlated batch it
    /// fuses into (see [`merge_batches`]).
    merge: Vec<Option<usize>>,
    /// Per [`Op::EncodeCorrelated`]: emitted as part of an earlier fused
    /// single instead of at its own position.
    merged_away: Vec<bool>,
    stats: OptStats,
}

/// Forward lowering pass: computes an XAG signal per register (bitwise
/// semantics of the scouting ops), tracks which registers hold nested
/// threshold streams of a known value/realization, and aliases any
/// register whose stream is provably bit-identical to an earlier one.
#[allow(clippy::too_many_lines)]
fn rewrite(
    p: &Program,
    level: Optimize,
    policy: RnRefreshPolicy,
    realz: &[u64],
    blocked: &[bool],
) -> Candidate {
    let full = level == Optimize::Full;
    let explicit = policy == RnRefreshPolicy::Explicit;
    let nregs = p.regs;
    let mut cand = Candidate {
        alias: (0..nregs).collect(),
        removed: vec![false; p.ops.len()],
        batch_keep: vec![None; p.ops.len()],
        read_fold: vec![None; p.ops.len()],
        merge: vec![None; p.ops.len()],
        merged_away: vec![false; p.ops.len()],
        stats: OptStats {
            ops_before: p.ops.len(),
            ..OptStats::default()
        },
    };
    // With blends memoized to composite nodes, the graph holds about
    // one node per op (inputs dominate); reserving that up front keeps
    // the hot loop free of node-vector reallocation.
    let mut g = Xag::with_capacity(p.ops.len());
    // Bitwise function of each register's stream (over fresh inputs, one
    // per surviving encode).
    let mut sig: Vec<Signal> = vec![Signal::FALSE; nregs];
    // `Some((r, v))`: the register's stream is exactly the nested
    // threshold stream of value `v` under RN realization `r`.
    let mut val: Vec<Option<(u64, Fixed)>> = vec![None; nregs];
    // CORDIV destinations may be poisoned by `divide_or`; aliasing
    // another register onto one would change observable error behaviour.
    let mut divide_dst = vec![false; nregs];
    // Signal → earliest register computing it (structural-hash CSE).
    let mut rep: Vec<usize> = Vec::new();
    // (realization, value) → earliest register holding that exact
    // threshold stream (encode dedup, Explicit only).
    let mut enc_map: FxHashMap<EncKey, usize> = FxHashMap::default();
    // Sorted operand triple → composite blend node. MAJ is symmetric in
    // all three operands, so one canonical probe here replaces the
    // four-gate XAG expansion on the hottest op of the image kernels;
    // identical blends still CSE through the shared signal.
    let mut blend_memo: FxHashMap<u128, Signal> = FxHashMap::default();
    // Scratch for duplicate scanning inside one correlated batch,
    // reused across batches.
    let mut seen: Vec<(Fixed, usize)> = Vec::new();

    // Picks which operand an AND (min) or OR (max) of two nested
    // threshold streams collapses to; `None` when the operands are not
    // provably nested in one realization.
    let pick = |va: Option<(u64, Fixed)>, vb: Option<(u64, Fixed)>, want_min: bool| {
        let (ra, xa) = va?;
        let (rb, xb) = vb?;
        if ra != rb {
            return None;
        }
        let a_is_min = !xa.gt_fraction(xb);
        Some(if want_min { a_is_min } else { !a_is_min })
    };

    for (i, op) in p.ops.iter().enumerate() {
        // Registers a new combinational result may alias to, in
        // preference order: a value-equivalent operand (threshold fold)
        // ahead of a signal-equivalent earlier op (CSE).
        match op {
            Op::Encode { dst, value } => {
                let d = dst.index;
                if full && explicit {
                    // One probe covers both the dedup lookup and the
                    // first-definition insert.
                    match enc_map.entry(EncKey(realz[i], *value)) {
                        std::collections::hash_map::Entry::Occupied(e) => {
                            let r = *e.get();
                            if !blocked[d] && !divide_dst[r] {
                                cand.alias[d] = r;
                                cand.removed[i] = true;
                                cand.stats.encodes_elided += 1;
                                continue;
                            }
                        }
                        std::collections::hash_map::Entry::Vacant(e) => {
                            e.insert(d);
                        }
                    }
                }
                let s = if value.value() == 0 {
                    Signal::FALSE
                } else {
                    g.input()
                };
                sig[d] = s;
                if full {
                    val[d] = Some((realz[i], *value));
                }
                rep_put(&mut rep, s, d);
            }
            Op::EncodeCorrelated { dsts, values } => {
                // Duplicate operands inside one batch share a stream by
                // construction; alias them to the first occurrence so
                // DCE can prune the slots. Cross-op aliasing is left to
                // the singles path — batch destinations share one
                // correlation group, which an outside alias would break.
                // Batches are a handful of operands; a linear scan beats
                // a hash map here.
                seen.clear();
                for (dv, vv) in dsts.iter().zip(values) {
                    let d = dv.index;
                    let dup = seen.iter().find(|&&(v, _)| v == *vv).map(|&(_, r)| r);
                    if full && !blocked[d] {
                        if let Some(first) = dup {
                            cand.alias[d] = first;
                            continue;
                        }
                    }
                    if dup.is_none() {
                        seen.push((*vv, d));
                    }
                    let s = if vv.value() == 0 {
                        Signal::FALSE
                    } else {
                        g.input()
                    };
                    sig[d] = s;
                    if full {
                        val[d] = Some((realz[i], *vv));
                    }
                    rep_put(&mut rep, s, d);
                }
            }
            Op::TrngSelect { dst } | Op::ScaledAdd { dst, .. } => {
                // Opaque: consumes TRNG draws; never rewritten, result
                // stream unknown to the rewriter.
                let d = dst.index;
                sig[d] = g.input();
                rep_put(&mut rep, sig[d], d);
            }
            Op::Divide { dst, .. } => {
                let d = dst.index;
                sig[d] = g.input();
                divide_dst[d] = true;
            }
            Op::Complement { dst, a } => {
                let ra = resolve(&cand.alias, a.index);
                // Bitwise NOT of a threshold stream is not itself a
                // threshold stream, so no value survives — but the
                // signal does (double complements cancel in the XAG).
                finish_comb(
                    FinishComb {
                        i,
                        d: dst.index,
                        s: sig[ra].not(),
                        equiv: None,
                        value: None,
                    },
                    level,
                    explicit,
                    blocked,
                    &divide_dst,
                    &mut sig,
                    &mut val,
                    &mut rep,
                    &mut enc_map,
                    &mut cand,
                );
            }
            Op::Multiply { dst, a, b }
            | Op::Minimum { dst, a, b }
            | Op::ApproxAdd { dst, a, b }
            | Op::Maximum { dst, a, b }
            | Op::AbsSub { dst, a, b } => {
                let (ra, rb) = (resolve(&cand.alias, a.index), resolve(&cand.alias, b.index));
                let (sa, sb) = (sig[ra], sig[rb]);
                let want_min = matches!(op, Op::Multiply { .. } | Op::Minimum { .. });
                let is_xor = matches!(op, Op::AbsSub { .. });
                let s = if is_xor {
                    g.xor(sa, sb)
                } else if want_min {
                    g.and(sa, sb)
                } else {
                    g.or(sa, sb)
                };
                // AND of nested streams is exactly the min stream and OR
                // the max stream (XOR's pattern is not a threshold
                // stream, so it carries no value).
                let (equiv, value) = if is_xor || !full {
                    (None, None)
                } else {
                    match pick(val[ra], val[rb], want_min) {
                        Some(true) => (Some(ra), val[ra]),
                        Some(false) => (Some(rb), val[rb]),
                        None => (None, None),
                    }
                };
                finish_comb(
                    FinishComb {
                        i,
                        d: dst.index,
                        s,
                        equiv,
                        value,
                    },
                    level,
                    explicit,
                    blocked,
                    &divide_dst,
                    &mut sig,
                    &mut val,
                    &mut rep,
                    &mut enc_map,
                    &mut cand,
                );
            }
            Op::Blend { dst, a, b, sel } => {
                let ra = resolve(&cand.alias, a.index);
                let rb = resolve(&cand.alias, b.index);
                let rs = resolve(&cand.alias, sel.index);
                let (sa, sb, ss) = (sig[ra], sig[rb], sig[rs]);
                // Bitwise MAJ: out = (a ∧ b) ⊕ (sel ∧ (a ⊕ b)), fully
                // symmetric in its three operands. The constant and
                // equal-operand cases fold to existing signals; every
                // other blend lowers to one memoized composite node.
                let s = if sa == sb {
                    // MAJ(x, x, s) = x.
                    sa
                } else if ss == Signal::FALSE {
                    g.and(sa, sb)
                } else if ss == Signal::TRUE {
                    g.or(sa, sb)
                } else if (sa == Signal::FALSE && sb == Signal::TRUE)
                    || (sa == Signal::TRUE && sb == Signal::FALSE)
                {
                    // MAJ(0, 1, s) = s.
                    ss
                } else {
                    let mut k = [sig_key(sa), sig_key(sb), sig_key(ss)];
                    k.sort_unstable();
                    let key =
                        u128::from(k[0]) | (u128::from(k[1]) << 33) | (u128::from(k[2]) << 66);
                    *blend_memo.entry(key).or_insert_with(|| g.input())
                };
                let (equiv, value) = if !full {
                    (None, None)
                } else if ss == Signal::FALSE {
                    // sel ≡ 0: out = a ∧ b = min of nested operands.
                    match pick(val[ra], val[rb], true) {
                        Some(true) => (Some(ra), val[ra]),
                        Some(false) => (Some(rb), val[rb]),
                        None => (None, None),
                    }
                } else if ss == Signal::TRUE {
                    match pick(val[ra], val[rb], false) {
                        Some(true) => (Some(ra), val[ra]),
                        Some(false) => (Some(rb), val[rb]),
                        None => (None, None),
                    }
                } else {
                    (None, None)
                };
                finish_comb(
                    FinishComb {
                        i,
                        d: dst.index,
                        s,
                        equiv,
                        value,
                    },
                    level,
                    explicit,
                    blocked,
                    &divide_dst,
                    &mut sig,
                    &mut val,
                    &mut rep,
                    &mut enc_map,
                    &mut cand,
                );
            }
            Op::Read { src } => {
                if full {
                    let r = resolve(&cand.alias, src.index);
                    // An all-zero stream reads exactly 0.0 through the
                    // ideal 8-bit ADC (code 0), an all-one stream
                    // exactly 1.0 (the saturated code) — but a poisoned
                    // CORDIV fallback must still go through `Read`.
                    if !divide_dst[r] {
                        if sig[r] == Signal::FALSE {
                            cand.read_fold[i] = Some(0.0);
                            cand.stats.reads_folded += 1;
                        } else if sig[r] == Signal::TRUE {
                            cand.read_fold[i] = Some(1.0);
                            cand.stats.reads_folded += 1;
                        }
                    }
                }
            }
            Op::ReadConst { .. } => {}
        }
    }

    cand
}

/// Arguments of [`finish_comb`] that vary per call site.
struct FinishComb {
    /// Op index.
    i: usize,
    /// Destination register.
    d: usize,
    /// The op's bitwise signal.
    s: Signal,
    /// A register this result is stream-identical to (threshold fold),
    /// if any.
    equiv: Option<usize>,
    /// The threshold-stream value the result carries, if known.
    value: Option<(u64, Fixed)>,
}

/// Shared tail of every combinational op: alias the destination to a
/// value-equivalent operand or a signal-equivalent earlier register
/// when allowed, otherwise record its signal/value for later folds.
#[allow(clippy::too_many_arguments)]
#[inline]
fn finish_comb(
    f: FinishComb,
    level: Optimize,
    explicit: bool,
    blocked: &[bool],
    divide_dst: &[bool],
    sig: &mut [Signal],
    val: &mut [Option<(u64, Fixed)>],
    rep: &mut Vec<usize>,
    enc_map: &mut FxHashMap<EncKey, usize>,
    cand: &mut Candidate,
) {
    let full = level == Optimize::Full;
    if !blocked[f.d] {
        let target = f
            .equiv
            .or_else(|| rep_get(rep, f.s))
            .filter(|&r| r != f.d && !divide_dst[r]);
        if let Some(r) = target {
            cand.alias[f.d] = r;
            cand.removed[f.i] = true;
            cand.stats.comb_elided += 1;
            return;
        }
    }
    sig[f.d] = f.s;
    val[f.d] = f.value;
    rep_put(rep, f.s, f.d);
    if full && explicit {
        if let Some((r, v)) = f.value {
            enc_map.entry(EncKey(r, v)).or_insert(f.d);
        }
    }
}

/// Backward dead-code elimination over the rewritten program. Reads and
/// the RN-consuming ops are roots; unused combinational ops disappear at
/// every level; unused encodes disappear only at [`Optimize::Full`]
/// under [`RnRefreshPolicy::Explicit`] (other policies count encode
/// events for their refresh cadence), and a forward repair pass restores
/// the first encode of any refresh segment that lost all of its encodes
/// so the boundary — and therefore the RN-epoch count — is preserved.
/// Correlated batches are never removed (each is one refresh event) but
/// their unused operand slots are pruned.
fn dce(p: &Program, level: Optimize, policy: RnRefreshPolicy, realz: &[u64], cand: &mut Candidate) {
    let full = level == Optimize::Full;
    let explicit = policy == RnRefreshPolicy::Explicit;
    let mut used = vec![false; p.regs];
    for i in (0..p.ops.len()).rev() {
        if cand.removed[i] {
            continue;
        }
        let op = &p.ops[i];
        match op {
            Op::Read { src } => {
                if cand.read_fold[i].is_none() {
                    used[resolve(&cand.alias, src.index)] = true;
                }
            }
            Op::ReadConst { .. } | Op::TrngSelect { .. } => {}
            Op::ScaledAdd { a, b, .. } | Op::Divide { a, b, .. } => {
                used[resolve(&cand.alias, a.index)] = true;
                used[resolve(&cand.alias, b.index)] = true;
            }
            Op::Encode { dst, .. } => {
                if full && explicit && !used[dst.index] {
                    cand.removed[i] = true;
                    cand.stats.encodes_elided += 1;
                }
            }
            Op::EncodeCorrelated { dsts, .. } => {
                if full {
                    let mut keep: Vec<bool> = dsts.iter().map(|d| used[d.index]).collect();
                    if keep.iter().all(|&k| !k) {
                        keep[0] = true;
                    }
                    cand.stats.encodes_elided += keep.iter().filter(|&&k| !k).count();
                    cand.batch_keep[i] = Some(keep);
                }
            }
            Op::Multiply { dst, a, b }
            | Op::ApproxAdd { dst, a, b }
            | Op::AbsSub { dst, a, b }
            | Op::Minimum { dst, a, b }
            | Op::Maximum { dst, a, b } => {
                if used[dst.index] {
                    used[resolve(&cand.alias, a.index)] = true;
                    used[resolve(&cand.alias, b.index)] = true;
                } else {
                    cand.removed[i] = true;
                    cand.stats.comb_elided += 1;
                }
            }
            Op::Complement { dst, a } => {
                if used[dst.index] {
                    used[resolve(&cand.alias, a.index)] = true;
                } else {
                    cand.removed[i] = true;
                    cand.stats.comb_elided += 1;
                }
            }
            Op::Blend { dst, a, b, sel } => {
                if used[dst.index] {
                    used[resolve(&cand.alias, a.index)] = true;
                    used[resolve(&cand.alias, b.index)] = true;
                    used[resolve(&cand.alias, sel.index)] = true;
                } else {
                    cand.removed[i] = true;
                    cand.stats.comb_elided += 1;
                }
            }
        }
    }
    if full && explicit {
        // Segment repair: a refresh segment whose encodes all vanished
        // would drop its boundary refresh and shift every later RN
        // realization. Restore the segment's first encode (and sever
        // its alias — the restored definition is the one consumers may
        // legitimately keep using, but nothing does; it is a dead def
        // that exists purely to carry the refresh).
        // Realization ids are small sequential integers, so dense
        // vectors beat hash maps here.
        let nseg = realz.iter().max().map_or(0, |&m| m as usize + 1);
        let mut first_of: Vec<usize> = vec![usize::MAX; nseg];
        let mut kept = vec![false; nseg];
        for (i, op) in p.ops.iter().enumerate() {
            if !op.is_encode() {
                continue;
            }
            let seg = realz[i] as usize;
            if first_of[seg] == usize::MAX {
                first_of[seg] = i;
            }
            kept[seg] |= !cand.removed[i];
        }
        for seg in 0..nseg {
            let i = first_of[seg];
            if kept[seg] || i == usize::MAX {
                continue;
            }
            cand.removed[i] = false;
            cand.stats.encodes_elided -= 1;
            if let Op::Encode { dst, .. } = &p.ops[i] {
                cand.alias[dst.index] = dst.index;
            }
        }
    }
}

/// Batch-fusion peephole (Full only): a surviving single encode whose
/// *next* encode event is a correlated batch of the same refresh segment
/// fuses into that batch — one `encode_many` dispatch and one planned
/// step instead of two. Bilinear hits this once per pixel: the vertical
/// select shares its segment with the next pixel's tap batch by
/// construction.
///
/// Bit-identity: equal realization ids guarantee
/// [`RnRefreshPolicy::Explicit`] and no refresh between the two ops, so
/// every fused value compares against exactly the RN rows it did before,
/// and the fused op sits at the single's position, keeping the boundary
/// (and the TRNG draw schedule) where it was. Only ops with no RN/TRNG
/// state may stand between the pair — another encode, a TRNG-drawing op,
/// or a divide resets the window. The fusion does move the single into
/// the batch's correlation *group*; [`check_groups`] validates that like
/// any other rewrite, and [`optimize`] retries without merges if it is
/// ever the culprit.
fn merge_batches(p: &Program, level: Optimize, realz: &[u64], cand: &mut Candidate) {
    if level != Optimize::Full {
        return;
    }
    let mut pending: Option<usize> = None;
    for i in 0..p.ops.len() {
        if cand.removed[i] {
            continue;
        }
        match &p.ops[i] {
            Op::Encode { .. } => pending = Some(i),
            Op::EncodeCorrelated { .. } => {
                if let Some(s) = pending.take() {
                    if realz[s] == realz[i] {
                        cand.merge[s] = Some(i);
                        cand.merged_away[i] = true;
                        cand.stats.encodes_merged += 1;
                    }
                }
            }
            Op::TrngSelect { .. } | Op::ScaledAdd { .. } | Op::Divide { .. } => pending = None,
            _ => {}
        }
    }
}

/// Outcome of one legality round.
enum Verdict {
    /// The candidate passes the engine's correlation-group rules.
    Legal,
    /// `n` more registers were pinned; re-run the rewrite.
    Retry(usize),
    /// A violation with no alias left to blame — give up and keep the
    /// original program (cannot happen for programs the engine accepts,
    /// kept as a safety net).
    Stuck,
}

/// Simulates the engine's correlation-group assignment over the kept
/// ops with aliases resolved, mirroring `Accelerator`'s runtime checks:
/// uncorrelated ops (multiply, adds) require distinct groups, correlated
/// ops (abs-sub, min/max, divide, blend operands) one group, and a blend
/// select a group distinct from its operands'.
///
/// One pass collects every violation: a failing op still gets the group
/// the engine would give its result (fresh for divide/multiply/adds,
/// operand `a`'s for the correlated ops), the simulation carries on, and
/// every aliased register in each failing op's input cone is pinned.
/// Independent violations (matting's `I == B` pixels, one per pixel)
/// therefore settle in one round instead of one round each. The pass
/// stops at the first violation whose cone pins nothing new: with
/// nothing pinned this round no alias is left to blame
/// ([`Verdict::Stuck`]); otherwise the next round's rewrite, under the
/// registers pinned so far, may no longer contain that violation
/// ([`Verdict::Retry`]).
fn check_groups(p: &Program, cand: &Candidate, def_op: &[usize], blocked: &mut [bool]) -> Verdict {
    let mut group = vec![0u64; p.regs];
    // Fused batches share the group their merged single was assigned.
    let mut fused_group = vec![0u64; p.ops.len()];
    let mut next = 0u64;
    let mut grown = 0usize;
    // Blame-walk scratch shared by every violation of the pass:
    // `seen[x] == epoch` marks a register visited by the current walk.
    let mut seen = vec![0u32; p.regs];
    let mut epoch = 0u32;
    let mut queue: Vec<usize> = Vec::new();
    for i in 0..p.ops.len() {
        if cand.removed[i] {
            continue;
        }
        let op = &p.ops[i];
        let r = |x: &VReg| resolve(&cand.alias, x.index);
        let ok = match op {
            Op::Encode { dst, .. } => {
                next += 1;
                group[dst.index] = next;
                if let Some(t) = cand.merge[i] {
                    fused_group[t] = next;
                }
                true
            }
            Op::EncodeCorrelated { dsts, .. } => {
                let gid = if cand.merged_away[i] {
                    fused_group[i]
                } else {
                    next += 1;
                    next
                };
                for (j, d) in dsts.iter().enumerate() {
                    let kept = cand.batch_keep[i].as_ref().is_none_or(|k| k[j]);
                    if kept && cand.alias[d.index] == d.index {
                        group[d.index] = gid;
                    }
                }
                true
            }
            Op::TrngSelect { dst } => {
                next += 1;
                group[dst.index] = next;
                true
            }
            Op::Multiply { dst, a, b }
            | Op::ScaledAdd { dst, a, b }
            | Op::ApproxAdd { dst, a, b } => {
                next += 1;
                group[dst.index] = next;
                group[r(a)] != group[r(b)]
            }
            Op::AbsSub { dst, a, b } | Op::Minimum { dst, a, b } | Op::Maximum { dst, a, b } => {
                group[dst.index] = group[r(a)];
                group[r(a)] == group[r(b)]
            }
            Op::Divide { dst, a, b, .. } => {
                next += 1;
                group[dst.index] = next;
                group[r(a)] == group[r(b)]
            }
            Op::Complement { dst, a } => {
                group[dst.index] = group[r(a)];
                true
            }
            Op::Blend { dst, a, b, sel } => {
                let ga = group[r(a)];
                group[dst.index] = ga;
                group[r(b)] == ga && group[r(sel)] != ga
            }
            Op::Read { .. } | Op::ReadConst { .. } => true,
        };
        if ok {
            continue;
        }
        // Blame the cone: pin every aliased register feeding the failing
        // op. Blocking is monotone, so the fixpoint terminates.
        epoch += 1;
        let mut pinned = 0usize;
        queue.extend(op.uses().iter().flatten().map(|u| u.index));
        while let Some(x) = queue.pop() {
            if seen[x] == epoch {
                continue;
            }
            seen[x] = epoch;
            if cand.alias[x] != x {
                if !blocked[x] {
                    blocked[x] = true;
                    pinned += 1;
                }
            } else if def_op[x] != usize::MAX {
                for u in p.ops[def_op[x]].uses().iter().flatten() {
                    queue.push(u.index);
                }
            }
        }
        if pinned == 0 {
            break;
        }
        grown += pinned;
    }
    match (grown, epoch) {
        (0, 0) => Verdict::Legal,
        (0, _) => Verdict::Stuck,
        (n, _) => Verdict::Retry(n),
    }
}

/// Whether an op pins a hoisting encode in place. Encodes never cross
/// other encodes (so segment boundaries and `EveryN` counters keep
/// their order) and never cross the TRNG-drawing ops. Reads are
/// barriers too — not for RN correctness (the ADC touches no RN state)
/// but to stop the hoist at the pixel boundary: without them every
/// pixel's conversions would cascade leftward past the previous pixel's
/// hoisted encodes and pile the whole program's rows up front,
/// exhausting the register file. With them, an encode rises exactly
/// into its own pixel's leading ❶ SBS run.
fn is_hoist_barrier(op: &Op) -> bool {
    matches!(
        op,
        Op::Encode { .. }
            | Op::EncodeCorrelated { .. }
            | Op::TrngSelect { .. }
            | Op::ScaledAdd { .. }
            | Op::Read { .. }
            | Op::ReadConst { .. }
    )
}

/// Materializes the surviving ops: prunes batch slots, applies read
/// folds, hoists encodes into their pixel's leading ❶ SBS run (Full
/// only), then renumbers registers densely in definition order.
fn emit(p: &Program, cand: &Candidate, level: Optimize) -> (Program, OptStats) {
    let mut stats = cand.stats;
    // Stage on op *indices* — the surviving ops are only materialized
    // once, with batch pruning, read folds, and register remapping fused
    // into that single clone.
    let mut order: Vec<usize> = Vec::with_capacity(p.ops.len());
    if level == Optimize::Full {
        // Stage-reordering peephole, fused with survivor collection:
        // move each encode leftward to the nearest barrier so every
        // pixel's conversions form one leading run (model attribution
        // matches execution order; bit-identical because nothing
        // crossed consumes RN state). One linear pass: combinational
        // ops buffer until the next barrier, encodes jump ahead of the
        // buffer — equivalent to bubbling each encode left (encodes are
        // barriers themselves, so hoisted encodes stack in program
        // order), without the quadratic tail shifting. A read fold
        // swaps `Read` for `ReadConst`, both barriers, so the
        // classification can look at the original ops.
        let mut combs: Vec<usize> = Vec::new();
        for i in 0..p.ops.len() {
            if cand.removed[i] || cand.merged_away[i] {
                continue;
            }
            if p.ops[i].is_encode() {
                if !combs.is_empty() {
                    stats.hoisted += 1;
                }
                order.push(i);
            } else if is_hoist_barrier(&p.ops[i]) {
                order.append(&mut combs);
                order.push(i);
            } else {
                combs.push(i);
            }
        }
        order.append(&mut combs);
    } else {
        for i in 0..p.ops.len() {
            if !cand.removed[i] && !cand.merged_away[i] {
                order.push(i);
            }
        }
    }
    let mut out = Program::new();
    out.group = p.group;
    out.outputs = p.outputs;
    out.ops.reserve(order.len());
    out.groups.reserve(order.len());
    let mut remap: Vec<usize> = vec![usize::MAX; p.regs];
    let mut next = 0usize;
    for &i in &order {
        // A fused batch defines its slots at the merged single's
        // position, right after the single's own register.
        for t in std::iter::once(i).chain(cand.merge[i]) {
            for (j, d) in p.ops[t].defs().iter().enumerate() {
                // Pruned batch slots define nothing in the output
                // program.
                if cand.batch_keep[t].as_ref().is_none_or(|k| k[j]) {
                    remap[d.index] = next;
                    next += 1;
                }
            }
        }
    }
    out.regs = next;
    let id = out.id;
    let map = |x: &VReg| VReg {
        program: id,
        index: remap[resolve(&cand.alias, x.index)],
    };
    for i in order {
        if let (Some(t), Op::Encode { dst, value }) = (cand.merge[i], &p.ops[i]) {
            // Fused single + batch: one correlated encode with the
            // single's value leading, at the single's position (the
            // shared-segment realization makes this bit-identical; see
            // [`merge_batches`]).
            let (bd, bv) = match &p.ops[t] {
                Op::EncodeCorrelated { dsts, values } => (dsts, values),
                _ => unreachable!("merge targets are correlated batches"),
            };
            let keep = cand.batch_keep[t].as_ref();
            let mut dsts = Vec::with_capacity(1 + bd.len());
            let mut values = Vec::with_capacity(1 + bv.len());
            dsts.push(map(dst));
            values.push(*value);
            for (j, (d, v)) in bd.iter().zip(bv).enumerate() {
                if keep.is_none_or(|k| k[j]) {
                    dsts.push(map(d));
                    values.push(*v);
                }
            }
            out.ops.push(Op::EncodeCorrelated { dsts, values });
            out.groups.push(p.groups[i]);
            continue;
        }
        let mapped = match (&p.ops[i], &cand.batch_keep[i], cand.read_fold[i]) {
            (Op::EncodeCorrelated { dsts, values }, Some(keep), _) => Op::EncodeCorrelated {
                dsts: dsts
                    .iter()
                    .zip(keep)
                    .filter_map(|(d, &k)| k.then_some(map(d)))
                    .collect(),
                values: values
                    .iter()
                    .zip(keep)
                    .filter_map(|(v, &k)| k.then_some(*v))
                    .collect(),
            },
            (Op::Read { .. }, _, Some(value)) => Op::ReadConst { value },
            (op, _, _) => op.map_regs(map),
        };
        out.ops.push(mapped);
        out.groups.push(p.groups[i]);
    }
    stats.ops_after = out.ops.len();
    debug_assert!(
        super::op_last_uses(&out).is_ok(),
        "optimizer emitted a program with use-before-def"
    );
    (out, stats)
}
