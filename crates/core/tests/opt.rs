//! Optimizer tests: `imsc::program::opt` must be observationally
//! equivalent to running the unoptimized program — identical output
//! values and RN-epoch counts on same-seeded accelerators — while only
//! ever shrinking the scouting-op bill. Covers the XAG `cleanup`/`eval`
//! round-trip property, each rewrite family in isolation, the refresh
//! segment-repair and legality-fixpoint safety nets, and a randomized
//! differential sweep across levels × refresh policies.

use imsc::cost::CostLedger;
use imsc::engine::Accelerator;
use imsc::program::{Op, Program};
use imsc::xag::{Signal, Xag};
use imsc::{optimize, Optimize, RnRefreshPolicy};
use nvsim::Trace;
use proptest::prelude::*;
use sc_core::Fixed;

fn f(v: u8) -> Fixed {
    Fixed::from_u8(v)
}

/// One execution's observables: values, ledger, epoch count, and the
/// full command trace.
type RunOut = (Vec<f64>, CostLedger, u64, Trace);

/// Runs `p` on a fresh accelerator.
fn run(p: &Program, policy: RnRefreshPolicy, seed: u64) -> RunOut {
    let mut acc = Accelerator::builder()
        .stream_len(128)
        .seed(seed)
        .record_trace(true)
        .refresh_policy(policy)
        .build()
        .unwrap();
    let vals = p.run_on(&mut acc).unwrap();
    (
        vals,
        *acc.ledger(),
        acc.rn_epoch(),
        acc.trace().cloned().unwrap(),
    )
}

/// Optimizes `p` at `level`, runs both versions on same-seeded
/// accelerators, and asserts bit-identical values, identical RN epochs,
/// and a scouting bill that did not grow. Returns (off, opt) runs.
fn assert_parity(
    p: &Program,
    level: Optimize,
    policy: RnRefreshPolicy,
    context: &str,
) -> (RunOut, RunOut) {
    let (q, stats) = optimize(p, level, policy);
    assert_eq!(stats.ops_after, q.ops().len(), "{context}: stats ops_after");
    let off = run(p, policy, 99);
    let opt = run(&q, policy, 99);
    assert_eq!(off.0, opt.0, "{context}: values");
    assert_eq!(off.2, opt.2, "{context}: rn epochs");
    assert_eq!(
        off.1.trng_fills, opt.1.trng_fills,
        "{context}: trng draws must keep their schedule"
    );
    assert!(
        opt.1.scout_ops() <= off.1.scout_ops(),
        "{context}: scout ops grew {} -> {}",
        off.1.scout_ops(),
        opt.1.scout_ops()
    );
    (off, opt)
}

#[test]
fn off_level_is_identity() {
    let mut p = Program::new();
    let a = p.encode(f(80));
    let b = p.encode(f(80));
    let m = p.multiply(a, b);
    p.read(m);
    let (q, stats) = optimize(&p, Optimize::Off, RnRefreshPolicy::Explicit);
    assert_eq!(q.ops().len(), p.ops().len());
    assert_eq!(stats.ops_before, stats.ops_after);
    assert_eq!(stats.comb_elided + stats.encodes_elided, 0);
}

#[test]
fn cse_collapses_duplicate_multiplies() {
    let mut p = Program::new();
    let a = p.encode(f(96));
    let b = p.encode(f(160));
    let m1 = p.multiply(a, b);
    let m2 = p.multiply(a, b);
    p.read(m1);
    p.read(m2);
    let (q, stats) = optimize(&p, Optimize::Cse, RnRefreshPolicy::PerEncode);
    assert_eq!(stats.comb_elided, 1, "duplicate multiply must collapse");
    assert_eq!(q.ops().len(), p.ops().len() - 1);
    let (_, opt) = assert_parity(&p, Optimize::Cse, RnRefreshPolicy::PerEncode, "cse-mul");
    assert_eq!(opt.0[0], opt.0[1], "both reads see one stream");
}

#[test]
fn double_complement_cancels() {
    let mut p = Program::new();
    let a = p.encode(f(70));
    let c1 = p.complement(a);
    let c2 = p.complement(c1);
    p.read(c2);
    let (q, stats) = optimize(&p, Optimize::Cse, RnRefreshPolicy::PerEncode);
    // ¬¬a structurally hashes back to a's signal: the outer complement
    // aliases to `a` and the inner one goes dead.
    assert_eq!(stats.comb_elided, 2);
    assert_eq!(q.ops().len(), 2);
    assert_parity(&p, Optimize::Cse, RnRefreshPolicy::PerEncode, "double-not");
}

#[test]
fn batch_duplicates_prune_and_reads_fold() {
    // Roberts cross on a flat cell: all four taps equal, both gradients
    // are a ⊕ a ≡ 0, the blend of two zero streams is zero, and the
    // read is a compile-time 0.0 — the whole pixel folds to one
    // single-slot batch (kept for its refresh event), the TRNG select
    // (RN schedule), and a `ReadConst`.
    let mut p = Program::new();
    let t = p.encode_correlated(&[f(123); 4]);
    let g1 = p.abs_subtract(t[0], t[1]);
    let g2 = p.abs_subtract(t[2], t[3]);
    let sel = p.trng_select();
    let e = p.blend(g1, g2, sel);
    p.read(e);
    let (q, stats) = optimize(&p, Optimize::Full, RnRefreshPolicy::EveryN(8));
    assert_eq!(stats.reads_folded, 1);
    assert_eq!(stats.encodes_elided, 3, "three duplicate batch slots");
    let kept: Vec<&Op> = q.ops().iter().collect();
    assert!(
        matches!(kept[0], Op::EncodeCorrelated { values, .. } if values.len() == 1),
        "batch pruned to one slot, got {kept:?}"
    );
    assert!(kept.iter().any(|op| matches!(op, Op::TrngSelect { .. })));
    assert!(kept.iter().any(|op| matches!(op, Op::ReadConst { .. })));
    assert_parity(&p, Optimize::Full, RnRefreshPolicy::EveryN(8), "flat-pixel");
}

#[test]
fn encode_dedup_requires_explicit_policy() {
    let mut p = Program::new();
    let a = p.encode(f(50));
    let b = p.encode(f(50));
    p.read(a);
    p.read(b);
    // Explicit: both encodes share one refresh segment and one value —
    // the second is the same stream and folds away.
    let (q, stats) = optimize(&p, Optimize::Full, RnRefreshPolicy::Explicit);
    assert_eq!(stats.encodes_elided, 1);
    assert_eq!(q.ops().len(), 3);
    assert_parity(&p, Optimize::Full, RnRefreshPolicy::Explicit, "enc-dedup");
    // PerEncode: each encode is its own refresh event; deduping would
    // change the refresh cadence, so nothing may be removed.
    let (q, stats) = optimize(&p, Optimize::Full, RnRefreshPolicy::PerEncode);
    assert_eq!(stats.encodes_elided, 0);
    assert_eq!(q.ops().len(), p.ops().len());
    assert_parity(&p, Optimize::Full, RnRefreshPolicy::PerEncode, "enc-keep");
}

#[test]
fn segment_repair_preserves_epoch_count() {
    // The middle refresh segment's only encode is dead. Removing it
    // would merge two segments and shift every later realization; the
    // repair pass must restore it so the epoch count is unchanged.
    let mut p = Program::new();
    let a = p.encode(f(40));
    p.next_group();
    let _dead = p.encode(f(90));
    p.next_group();
    let c = p.encode(f(200));
    p.read(a);
    p.read(c);
    let (q, stats) = optimize(&p, Optimize::Full, RnRefreshPolicy::Explicit);
    assert_eq!(
        q.ops()
            .iter()
            .filter(|o| matches!(o, Op::Encode { .. }))
            .count(),
        3,
        "dead segment encode must be restored"
    );
    assert_eq!(stats.encodes_elided, 0);
    assert_parity(
        &p,
        Optimize::Full,
        RnRefreshPolicy::Explicit,
        "segment-repair",
    );
}

#[test]
fn incompressible_program_is_bit_identical() {
    // No redundancy anywhere: the optimizer must return an op-identical
    // program whose execution is indistinguishable down to the command
    // trace.
    let mut p = Program::new();
    let xy = p.encode_correlated(&[f(60), f(180)]);
    let d = p.abs_subtract(xy[0], xy[1]);
    p.read(d);
    let s = p.trng_select();
    let bl = p.blend(xy[0], xy[1], s);
    p.read(bl);
    let (q, stats) = optimize(&p, Optimize::Full, RnRefreshPolicy::PerEncode);
    assert_eq!(stats.ops_after, stats.ops_before);
    assert_eq!(q.ops().len(), p.ops().len());
    let (off, opt) = assert_parity(
        &p,
        Optimize::Full,
        RnRefreshPolicy::PerEncode,
        "incompressible",
    );
    assert_eq!(off.1, opt.1, "ledger");
    assert_eq!(off.3, opt.3, "command trace");
}

#[test]
fn legality_fixpoint_blocks_group_breaking_alias() {
    // Two same-value encodes feed a scaled add — an RN-drawing op the
    // optimizer may never fold. Encode dedup would turn it into
    // scaled_add(a, a) — same correlation group, which the engine
    // rejects. The legality simulation must pin the alias and keep both
    // encodes. (A `multiply` would not do here: a ∧ a folds to `a`
    // bit-identically before any group check can fail.)
    let mut p = Program::new();
    let a = p.encode(f(77));
    let b = p.encode(f(77));
    let m = p.scaled_add(a, b);
    p.read(m);
    let (q, stats) = optimize(&p, Optimize::Full, RnRefreshPolicy::Explicit);
    assert!(stats.aliases_blocked >= 1, "alias must be pinned");
    assert_eq!(
        q.ops()
            .iter()
            .filter(|o| matches!(o, Op::Encode { .. }))
            .count(),
        2,
        "both encodes survive"
    );
    assert_parity(&p, Optimize::Full, RnRefreshPolicy::Explicit, "legality");
}

/// Emits one matting pixel the way `imgproc::matting` does: a
/// correlated `(I, B, F)` encode, `|I − B|`, `|F − B|`, CORDIV with the
/// α̂ = 0 fallback, and a read.
fn matting_pixel(p: &mut Program, i: u8, b: u8, fg: u8) {
    let ibf = p.encode_correlated(&[f(i), f(b), f(fg)]);
    let num = p.abs_subtract(ibf[0], ibf[1]);
    let den = p.abs_subtract(ibf[2], ibf[1]);
    let alpha = p.divide_or(num, den, 0.0);
    p.read(alpha);
}

#[test]
fn independent_violations_settle_in_two_rounds() {
    // Every even pixel has I == B, so its numerator is a ⊕ a ≡ 0 and
    // CSE aliases it to the previous such pixel's zero stream — another
    // pixel's correlation group, which the divide rejects. That is one
    // independent violation per even pixel after the first; a legality
    // pass that stops at the first violation needs a rewrite round per
    // violation (32 rounds here).
    let mut p = Program::new();
    for k in 0..64usize {
        let b = (k * 37 + 11) as u8;
        let i = if k % 2 == 0 {
            b
        } else {
            b.wrapping_add(40 + (k % 5) as u8)
        };
        matting_pixel(&mut p, i, b, b.wrapping_add(96));
    }
    let policy = RnRefreshPolicy::EveryN(8);
    let (_, stats) = optimize(&p, Optimize::Full, policy);
    assert!(
        stats.legality_rounds <= 2,
        "all violations must be pinned in one round, took {}",
        stats.legality_rounds
    );
    // Captured by optimizing this same program with the optimizer as it
    // was before legality rounds collected every violation (one
    // violation pinned per round): batching the blame changes none of
    // the outcome.
    assert_eq!(stats.ops_after, 319);
    assert_eq!(stats.comb_elided, 1);
    assert_eq!(stats.encodes_elided, 2);
    assert_eq!(stats.aliases_blocked, 62);
    assert_parity(&p, Optimize::Full, policy, "matting-rounds");
}

#[test]
fn hoist_moves_interior_encode_into_leading_run() {
    // An encode sitting after a scouting op must bubble into the
    // pixel's leading ❶ SBS run (past the abs-sub, stopping at the
    // batch encode barrier) without changing results.
    let mut p = Program::new();
    let xy = p.encode_correlated(&[f(30), f(220)]);
    let d = p.abs_subtract(xy[0], xy[1]);
    let e = p.encode(f(100));
    let sa = p.scaled_add(d, e);
    p.read(sa);
    let (q, stats) = optimize(&p, Optimize::Full, RnRefreshPolicy::PerEncode);
    assert_eq!(stats.hoisted, 1);
    assert!(
        matches!(q.ops()[0], Op::EncodeCorrelated { .. })
            && matches!(q.ops()[1], Op::Encode { .. }),
        "encode must lead: {:?}",
        q.ops()
    );
    assert_parity(&p, Optimize::Full, RnRefreshPolicy::PerEncode, "hoist");
}

/// Builds a random kernel-shaped program from packed pixel words: each
/// word carries four tap bytes plus a shape selector — a blend, two
/// reads, or a matting divide whose `I` reuses the `B` byte on some
/// pixels, so several independent `I == B` legality violations meet in
/// one program.
fn build(pixels: &[u64]) -> Program {
    let mut p = Program::new();
    for &px in pixels {
        let b = px.to_le_bytes();
        if b[4] % 3 == 2 {
            let i = if b[5] & 1 == 1 { b[1] } else { b[0] };
            matting_pixel(&mut p, i, b[1], b[2]);
            p.next_group();
            continue;
        }
        let t = p.encode_correlated(&[f(b[0]), f(b[1]), f(b[2]), f(b[3])]);
        let g1 = p.abs_subtract(t[0], t[1]);
        let g2 = p.minimum(t[2], t[3]);
        if b[4] % 3 == 1 {
            let s = p.trng_select();
            let e = p.blend(g1, g2, s);
            p.read(e);
        } else {
            p.read(g1);
            p.read(g2);
        }
        p.next_group();
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // `Xag::cleanup` must preserve `eval` on every input assignment and
    // never grow the graph. Gate ops are packed words: kind, operand
    // picks, and an output-inversion bit.
    #[test]
    fn xag_cleanup_preserves_eval(
        ops in proptest::collection::vec(any::<u64>(), 0..40),
        n_inputs in 1usize..6,
        out_picks in proptest::collection::vec(any::<usize>(), 1..5),
        probes in proptest::collection::vec(
            proptest::collection::vec(any::<bool>(), 5..6),
            1..8,
        ),
    ) {
        let mut g = Xag::new();
        let mut pool: Vec<Signal> = (0..n_inputs).map(|_| g.input()).collect();
        pool.push(Signal::FALSE);
        pool.push(Signal::TRUE);
        for word in &ops {
            let b = word.to_le_bytes();
            let (ia, ib, ic) = (b[1] as usize, b[2] as usize, b[3] as usize);
            let a = pool[ia % pool.len()];
            let bb = pool[ib % pool.len()];
            let s = match b[0] % 4 {
                0 => g.and(a, bb),
                1 => g.xor(a, bb),
                2 => g.or(a, bb),
                _ => g.mux(pool[ic % pool.len()], a, bb),
            };
            pool.push(if b[4] & 1 == 1 { s.not() } else { s });
        }
        let outs: Vec<Signal> = out_picks.iter().map(|&i| pool[i % pool.len()]).collect();
        g.set_outputs(outs);
        let before_gates = g.stats().gates();
        let want: Vec<Vec<bool>> = probes.iter().map(|pr| g.eval(&pr[..n_inputs])).collect();
        let removed = g.cleanup();
        prop_assert!(g.stats().gates() + removed >= before_gates);
        prop_assert!(g.stats().gates() <= before_gates);
        for (pr, w) in probes.iter().zip(&want) {
            prop_assert_eq!(&g.eval(&pr[..n_inputs]), w);
        }
    }

    // Differential sweep: for random kernel-shaped programs, every
    // (level, policy) combination must reproduce the unoptimized values
    // and RN epochs exactly while never increasing scout ops.
    #[test]
    fn optimizer_parity_on_random_programs(
        pixels in proptest::collection::vec(any::<u64>(), 1..7),
        seed in 0u64..1000,
    ) {
        let p = build(&pixels);
        for policy in [
            RnRefreshPolicy::PerEncode,
            RnRefreshPolicy::EveryN(3),
            RnRefreshPolicy::Explicit,
        ] {
            let off = run(&p, policy, seed);
            for level in [Optimize::Cse, Optimize::Full] {
                let (q, _) = optimize(&p, level, policy);
                let opt = run(&q, policy, seed);
                prop_assert_eq!(&off.0, &opt.0, "values {level:?}/{policy:?}");
                prop_assert_eq!(off.2, opt.2, "epochs {level:?}/{policy:?}");
                prop_assert_eq!(
                    off.1.trng_fills,
                    opt.1.trng_fills,
                    "trng {level:?}/{policy:?}"
                );
                prop_assert!(opt.1.scout_ops() <= off.1.scout_ops());
            }
        }
    }
}
