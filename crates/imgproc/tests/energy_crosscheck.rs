//! Energy/latency ground truth: the analytic cost model and nvsim
//! replay of the *real* schedules must agree.
//!
//! Two tiers of agreement are pinned, for all four kernels in both
//! `PerTile` and `Pipelined` scheduling:
//!
//! 1. **Plumbing-exact** (relative gap < 1e-9): the replayed command
//!    stream's serial busy time and energy equal the ledger's replay
//!    mirrors ([`CostLedger::replay_latency_ns`] /
//!    [`CostLedger::replay_energy_nj`]), and the command count equals
//!    [`CostLedger::replay_commands`]. The replay memory config derives
//!    from the same calibration table, so any disagreement means the
//!    instrumentation dropped or invented commands — a failure.
//! 2. **Model band** (documented below): the paper-facing Table III
//!    estimates ([`CostLedger::latency_ns`] / [`CostLedger::energy_nj`])
//!    differ from replay by known, bounded asymmetries — the analytic
//!    latency excludes TRNG-fill/SBS/stream bookkeeping writes and adds
//!    an XOR second-cycle term; the analytic energy prices scouting-logic
//!    ops at the cheaper `e_slop_bit` rate. Measured across the four
//!    kernels both ratios stay within [0.5, 1.1]; drifting outside that
//!    band fails the suite (the models diverged).

use imgproc::{bilinear, compositing, edge, matting, synth, ScReramConfig, ScRunStats, Schedule};
use reram::energy::ReramCosts;

const STREAM_LEN: usize = 64;

/// The documented model band: analytic Table III estimate ÷ replayed
/// ground truth, for latency and energy alike (see module docs).
const MODEL_BAND: std::ops::RangeInclusive<f64> = 0.5..=1.1;

fn base_cfg(seed: u64) -> ScReramConfig {
    ScReramConfig::new(STREAM_LEN, seed)
        .with_optimize(imsc::Optimize::Off)
        .with_trace_replay(true)
}

/// Runs every kernel on small multi-tile inputs and returns
/// `(kernel, stats)` pairs.
fn run_all(cfg: &ScReramConfig) -> Vec<(&'static str, ScRunStats)> {
    let mut out = Vec::new();

    let img = synth::value_noise(8, 18, 3, 11);
    out.push(("edge", edge::sc_reram_with_stats(&img, cfg).unwrap().1));

    let src = synth::gradient(5, 9, true); // 10×18 output
    out.push((
        "bilinear",
        bilinear::sc_reram_with_stats(&src, 2, cfg).unwrap().1,
    ));

    let set = synth::app_images(8, 18, 42);
    out.push((
        "compositing",
        compositing::sc_reram_with_stats(&set.foreground, &set.background, &set.alpha, cfg)
            .unwrap()
            .1,
    ));

    let i = imgproc::compositing::software(&set.foreground, &set.background, &set.alpha).unwrap();
    out.push((
        "matting",
        matting::sc_reram_with_stats(&i, &set.background, &set.foreground, cfg)
            .unwrap()
            .1,
    ));
    out
}

/// The full cross-check of one kernel run (see module docs).
fn check(kernel: &str, mode: &str, stats: &ScRunStats) {
    let costs = ReramCosts::calibrated();
    let replay = stats
        .replay
        .unwrap_or_else(|| panic!("{kernel}/{mode}: trace replay must produce a summary"));
    let ledger = &stats.ledger;

    // Tier 1: plumbing-exact agreement with the ledger's replay mirror.
    assert_eq!(
        replay.commands,
        ledger.replay_commands(),
        "{kernel}/{mode}: replayed command count"
    );
    let busy_gap = replay.busy_vs_ledger(ledger, &costs);
    assert!(
        busy_gap < 1e-9,
        "{kernel}/{mode}: busy-time gap {busy_gap:e} (replay {} vs ledger {})",
        replay.busy_ns,
        ledger.replay_latency_ns(&costs)
    );
    let energy_gap = replay.energy_vs_ledger(ledger, &costs, STREAM_LEN);
    assert!(
        energy_gap < 1e-9,
        "{kernel}/{mode}: energy gap {energy_gap:e} (replay {} vs ledger {})",
        replay.energy_nj,
        ledger.replay_energy_nj(&costs, STREAM_LEN)
    );

    // Bank-parallel geometry: the makespan sits between the busiest
    // bank's lower bound and the fully serial sum.
    assert!(replay.banks_used >= 1, "{kernel}/{mode}: banks used");
    assert!(
        replay.time_ns <= replay.busy_ns + 1e-6,
        "{kernel}/{mode}: makespan beyond serial busy sum"
    );
    assert!(
        replay.time_ns + 1e-6 >= replay.busy_ns / replay.banks_used as f64,
        "{kernel}/{mode}: makespan under the per-bank average"
    );

    // Tier 2: the paper-facing analytic model stays in its band.
    let latency_ratio = ledger.latency_ns(&costs) / replay.busy_ns;
    assert!(
        MODEL_BAND.contains(&latency_ratio),
        "{kernel}/{mode}: analytic/replay latency ratio {latency_ratio} outside {MODEL_BAND:?}"
    );
    let energy_ratio = ledger.energy_nj(&costs, STREAM_LEN) / replay.energy_nj;
    assert!(
        MODEL_BAND.contains(&energy_ratio),
        "{kernel}/{mode}: analytic/replay energy ratio {energy_ratio} outside {MODEL_BAND:?}"
    );
}

#[test]
fn per_tile_replay_matches_the_analytic_model() {
    for (kernel, stats) in run_all(&base_cfg(9)) {
        assert!(stats.tiles >= 2, "{kernel}: need a multi-tile run");
        check(kernel, "PerTile", &stats);
    }
}

#[test]
fn pipelined_replay_matches_the_analytic_model() {
    let cfg = base_cfg(9).with_schedule(Schedule::Pipelined { arrays: 3 });
    for (kernel, stats) in run_all(&cfg) {
        check(kernel, "Pipelined", &stats);
        // Multi-array runs map slices onto distinct banks.
        assert!(
            stats.replay.unwrap().banks_used >= 2,
            "{kernel}: pipelined replay should use several banks"
        );
    }
}

#[test]
fn replay_does_not_perturb_pixels_or_ledger() {
    let img = synth::value_noise(8, 18, 3, 11);
    let plain = ScReramConfig::new(STREAM_LEN, 9).with_optimize(imsc::Optimize::Off);
    let (want_img, want) = edge::sc_reram_with_stats(&img, &plain).unwrap();
    let (got_img, got) = edge::sc_reram_with_stats(&img, &plain.with_trace_replay(true)).unwrap();
    assert_eq!(got_img.pixels(), want_img.pixels());
    assert_eq!(got.ledger, want.ledger);
    assert!(want.replay.is_none());
    assert!(got.replay.is_some());
}

/// Satellite: streaming replay must stay bounded — per-slice sub-traces
/// are drained into the simulator as slices retire, so the peak number
/// of buffered commands is one slice's worth, not the whole frame's.
/// [`per_tile_replay_buffering_is_bounded_by_one_tile`] pins the same
/// bound on the per-tile schedule.
#[test]
fn pipelined_replay_buffering_is_bounded_by_one_slice() {
    let img = synth::value_noise(8, 32, 3, 7); // 4 row tiles
    let cfg = base_cfg(3).with_schedule(Schedule::Pipelined { arrays: 2 });
    let (_, stats) = edge::sc_reram_with_stats(&img, &cfg).unwrap();
    assert_eq!(stats.tiles, 4);
    let replay = stats.replay.unwrap();
    assert!(replay.peak_buffered_commands > 0);
    // Slices retire in order: the buffer never holds more than the
    // largest single slice (~1/4 of the stream here; assert half with
    // headroom). Regression guard against re-materializing the frame.
    assert!(
        replay.peak_buffered_commands < replay.commands / 2,
        "peak {} vs total {}: streaming bound lost",
        replay.peak_buffered_commands,
        replay.commands
    );
}

/// The per-tile twin of the pipelined bound: tile workers may finish in
/// any order, but each waits for every lower tile to drain before
/// draining its own sub-trace, so the buffer holds at most one tile
/// whatever the worker count.
#[test]
fn per_tile_replay_buffering_is_bounded_by_one_tile() {
    let img = synth::value_noise(8, 32, 3, 7); // 4 row tiles
    let cfg = base_cfg(3).with_schedule(Schedule::PerTile);
    let (_, stats) = edge::sc_reram_with_stats(&img, &cfg).unwrap();
    assert_eq!(stats.tiles, 4);
    let replay = stats.replay.unwrap();
    assert!(replay.peak_buffered_commands > 0);
    assert!(
        replay.peak_buffered_commands < replay.commands / 2,
        "peak {} vs total {}: streaming bound lost",
        replay.peak_buffered_commands,
        replay.commands
    );
}

/// Satellite: `Optimize::Full` programs replay to no more commands and
/// no more energy than `Optimize::Off` on every kernel — the optimizer's
/// savings are real in the replayed stream, not just the analytic model.
#[test]
fn optimized_traces_replay_to_fewer_commands_and_joules() {
    let off = run_all(&base_cfg(5));
    let full = run_all(&base_cfg(5).with_optimize(imsc::Optimize::Full));
    let mut strictly_better = 0;
    for ((kernel, o), (_, f)) in off.iter().zip(&full) {
        let (o, f) = (o.replay.unwrap(), f.replay.unwrap());
        assert!(
            f.commands <= o.commands,
            "{kernel}: Full replays {} commands vs Off {}",
            f.commands,
            o.commands
        );
        assert!(
            f.energy_nj <= o.energy_nj + 1e-9,
            "{kernel}: Full replays {} nJ vs Off {}",
            f.energy_nj,
            o.energy_nj
        );
        if f.commands < o.commands {
            strictly_better += 1;
        }
    }
    assert!(
        strictly_better >= 2,
        "the optimizer should strictly shrink several kernels' streams"
    );
}

/// Retired arrays' replayed work stays in the stream: when a
/// fault-domain run retires an array mid-run, the retiring round's
/// unkept slices are discarded and rescheduled — but the hardware
/// really spent that energy, so the replay keeps it. The merged ledger
/// sums only the *kept* slices, hence strictly fewer commands than the
/// replayed stream. Tier-1 exactness is intentionally not asserted
/// here: the replay is the ground truth that *includes* the waste the
/// ledger cannot see.
#[test]
fn retirement_keeps_discarded_work_in_the_replay_stream() {
    let src = synth::gradient(5, 9, true);
    let cfg = base_cfg(7)
        .with_schedule(Schedule::Pipelined { arrays: 3 })
        .with_array_faults(1, reram::faults::FaultRates::uniform(0.05))
        .with_retirement(imsc::RetirementPolicy {
            max_faults_per_op: 0.01,
            min_ops: 1_000,
        });
    let (_, stats) = bilinear::sc_reram_with_stats(&src, 2, &cfg).unwrap();
    let report = stats.pipeline.expect("pipelined run reports");
    assert!(report.retired_arrays >= 1, "the faulty array must retire");
    assert!(report.rescheduled_slices >= 1, "work must be rescheduled");
    let replay = stats.replay.expect("trace replay enabled");
    assert!(
        replay.commands > stats.ledger.replay_commands(),
        "replayed {} commands should exceed the kept ledger's {} — the \
         discarded round's work belongs in the energy ground truth",
        replay.commands,
        stats.ledger.replay_commands()
    );
}

/// Satellite: encode-run coalescing (batched IMSNG conversions) shows up
/// as row-buffer locality. A batch of `k` conversions re-asserts each
/// segment's RN row `5k` times consecutively (`5k−1` hits per segment),
/// beating the `4` hits/segment an unbatched conversion gets — so the
/// bilinear anchor, whose planner coalesces encode runs, must clear the
/// unbatched bound.
#[test]
fn bilinear_encode_coalescing_produces_row_hits() {
    let src = synth::gradient(5, 9, true);
    let cfg = base_cfg(21);
    let (_, stats) = bilinear::sc_reram_with_stats(&src, 2, &cfg).unwrap();
    let replay = stats.replay.unwrap();
    let m = u64::from(cfg.segment_bits);
    let sense = stats.ledger.imsng.sense_ops;
    assert_eq!(sense % (5 * m), 0, "IMSNG senses come 5·M per conversion");
    let conversions = sense / (5 * m);
    assert!(conversions > 0);
    assert!(
        replay.row_hits > conversions * 4 * m,
        "row hits {} do not beat the unbatched bound {} ({} conversions)",
        replay.row_hits,
        conversions * 4 * m,
        conversions
    );
}
