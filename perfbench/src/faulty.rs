//! `faulty-replay-n256`: a closed loop over the four kernels on a
//! three-array pipelined farm whose array 1 flips bits heavily. A
//! `RetirementPolicy` retires that array mid-run and its slices are
//! rescheduled onto the survivors; wear-leveling and nvsim trace replay
//! are on. The only workload through `reram::faults`, fault-domain
//! retirement and trace replay.

use crate::arrivals::derive;
use crate::report::{Metrics, Outcome};
use crate::stats::{mean, ratio};
use crate::trace::Tracer;
use crate::workload::{
    self, closed_loop, latency_metrics, quality_metrics, Case, Checks, Frame, KERNELS, SETUPS,
};
use imgproc::request::{self, KernelResponse};
use imgproc::{ScReramConfig, Schedule};
use imsc::{Optimize, RetirementPolicy};
use reram::faults::FaultRates;

const N: usize = 256;
const ARRAYS: usize = 3;
/// The pathological array.
const BAD_ARRAY: usize = 1;
/// Distinct frames per kernel in the replayed clip.
const CLIP: usize = 3;
/// Latency limit for `limit_met_share`, ms (about 2.5× the workload's p95
/// on a 2-core host).
const LIMIT_MS: f64 = 150.0;

/// The workload's engine, pinned through the config builders. Fault
/// injection forces the optimizer off, so `Off` is asked for outright.
fn config(seed: u64) -> ScReramConfig {
    ScReramConfig::new(N, seed)
        .with_optimize(Optimize::Off)
        .without_plan_cache()
        .with_schedule(Schedule::Pipelined { arrays: ARRAYS })
        .with_array_faults(BAD_ARRAY, FaultRates::uniform(0.05))
        .with_retirement(RetirementPolicy {
            max_faults_per_op: 0.5,
            min_ops: 64,
        })
        .with_wear_leveling(true)
        .with_trace_replay(true)
}

/// The same engine on a healthy farm (no faulty array, no retirement).
fn healthy(cfg: &ScReramConfig) -> ScReramConfig {
    let mut c = cfg.clone();
    c.array_faults = None;
    c.retirement = None;
    c
}

struct State {
    cfg: ScReramConfig,
    clip: Vec<Case>,
    checks: Checks,
}

/// Inputs, references, and a healthy-farm run of the clip: retirement
/// is lossless, so those outputs are what the faulty farm must produce,
/// and with nothing discarded the replay must match the ledger exactly.
fn setup(seed: u64) -> State {
    let cfg = config(seed);
    let clean = healthy(&cfg);
    let mut checks = Checks::default();
    let clip: Vec<Case> = (0..CLIP * KERNELS.len())
        .map(|i| {
            Case::new(
                i % KERNELS.len(),
                derive(seed, 4_000_000 + i as u64),
                i as u64,
            )
        })
        .collect();
    for case in &clip {
        match request::run(&case.req, &clean) {
            Ok(resp) => {
                checks.expect_output(case.key, N, &resp.pixels);
                let stats = resp.stats.expect("SC-ReRAM stats");
                match stats.replay {
                    Some(r) if r.commands == stats.ledger.replay_commands() => {}
                    Some(r) => checks.fail(format!(
                        "healthy {}: replayed {} commands, ledger {}",
                        KERNELS[case.kernel],
                        r.commands,
                        stats.ledger.replay_commands()
                    )),
                    None => checks.fail("healthy run without a replay summary".into()),
                }
            }
            Err(e) => checks.fail(format!("healthy {}: {e}", KERNELS[case.kernel])),
        }
    }
    State { cfg, clip, checks }
}

/// Per-frame checks: the faulty array was retired, and the replay holds
/// exactly the ledger's commands — plus the discarded round's work when
/// slices were rescheduled (the replay keeps work the hardware really
/// did; the merged ledger sums only kept slices).
fn check_frame(case: &Case, resp: &KernelResponse, c: &mut Checks, id: u64) {
    let kernel = KERNELS[case.kernel];
    let Some(stats) = resp.stats else {
        return c.fail(format!("{kernel} frame {id}: no stats"));
    };
    let (Some(report), Some(replay)) = (stats.pipeline, stats.replay) else {
        return c.fail(format!(
            "{kernel} frame {id}: no pipeline report or replay summary"
        ));
    };
    if report.retired_arrays == 0 {
        c.fail(format!(
            "{kernel} frame {id}: the faulty array was not retired"
        ));
    }
    let ledger = stats.ledger.replay_commands();
    let ok = if report.rescheduled_slices == 0 {
        replay.commands == ledger
    } else {
        replay.commands > ledger
    };
    if !ok {
        c.fail(format!(
            "{kernel} frame {id}: replayed {} commands vs ledger {ledger} with {} slices rescheduled",
            replay.commands, report.rescheduled_slices
        ));
    }
}

/// Runs the workload; a traced run measures half its time untraced (for
/// the tracing overhead) and traces the other half.
pub fn run(seed: u64, seconds: f64, tracer: &mut Tracer) -> Outcome {
    let traced = tracer.enabled();
    let (st, setup_s) = workload::timed_setup(if traced { 1 } else { SETUPS }, || setup(seed));
    let State {
        cfg,
        clip,
        mut checks,
    } = st;
    let mut out = Outcome::default();
    let mut m = Metrics::default();
    let mut next = |i: usize| clip[i % clip.len()].clone();
    let mut after =
        |case: &Case, resp: &KernelResponse, _: &mut Tracer, c: &mut Checks, id: u64| {
            check_frame(case, resp, c, id);
        };

    let plain_s = if traced { seconds / 2.0 } else { seconds };
    let plain = closed_loop(
        &cfg,
        plain_s,
        &mut next,
        &mut Tracer::disabled(),
        &mut checks,
        &mut after,
    );
    out.attempted = plain.attempted;
    out.failed = plain.failed;
    let scale = plain.host.time_scale();
    m.set("host.ref_ms", plain.host.median_ms());
    m.set("setup_s", setup_s * scale);
    latency_metrics(&mut m, &plain.frames, plain.attempted, LIMIT_MS, scale);
    let mut all = plain.frames.clone();

    if traced {
        let tr = closed_loop(
            &cfg,
            seconds - plain_s,
            &mut next,
            tracer,
            &mut checks,
            &mut after,
        );
        out.attempted += tr.attempted;
        out.failed += tr.failed;
        layer_metrics(&mut m, &tr.frames);
        m.set(
            "trace.overhead_share",
            workload::overhead(&plain.frames, &tr.frames),
        );
        let one_per_kernel = || clip.iter().take(KERNELS.len()).map(|c| &c.req);
        let per_tile = healthy(&cfg).with_schedule(Schedule::PerTile);
        let (pipelined, base) = workload::paired_ms(one_per_kernel(), &cfg, &per_tile);
        m.set("sched.vs_per_tile", ratio(pipelined, base));
        let (on, off) = workload::paired_ms(one_per_kernel(), &cfg, &cfg.with_trace_replay(false));
        m.set("replay.ms", (on - off) / KERNELS.len() as f64);
        crate::substrate::floor(&mut m, N, seed);
        m.set("trace.spans", tracer.spans().len() as f64);
        all.extend(tr.frames);
    } else {
        let px: f64 = plain.frames.iter().map(|f| f.px as f64).sum();
        let secs: f64 = plain.frames.iter().map(|f| f.latency_ms / 1e3).sum();
        m.set("px_per_s", ratio(px, secs * scale));
        let replays: Vec<_> = plain
            .frames
            .iter()
            .filter_map(|f| f.stats.and_then(|s| s.replay))
            .collect();
        m.set(
            "sim_energy_nj_per_px",
            ratio(replays.iter().map(|r| r.energy_nj).sum(), px),
        );
        m.set(
            "sim_latency_ns_per_px",
            ratio(replays.iter().map(|r| r.time_ns).sum(), px),
        );
    }
    checks.psnr_floors(&all);
    quality_metrics(&mut m, &all);
    m.set("host.peak_rss_mb", workload::peak_rss_mb());
    out.problems = checks.problems;
    out.metrics = m;
    out
}

/// Retirement, rescheduling, replay and ledger metrics of traced frames.
fn layer_metrics(m: &mut Metrics, frames: &[Frame]) {
    let stats: Vec<_> = frames.iter().filter_map(|f| f.stats).collect();
    let reports: Vec<_> = stats.iter().filter_map(|s| s.pipeline).collect();
    let replays: Vec<_> = stats.iter().filter_map(|s| s.replay).collect();
    let sum = |v: &mut dyn Iterator<Item = f64>| v.sum::<f64>();
    m.set(
        "imgproc.run_ms",
        mean(&frames.iter().map(|f| f.latency_ms).collect::<Vec<_>>()),
    );
    m.set(
        "sched.retired_arrays",
        mean(
            &reports
                .iter()
                .map(|r| r.retired_arrays as f64)
                .collect::<Vec<_>>(),
        ),
    );
    m.set(
        "sched.rescheduled_share",
        ratio(
            sum(&mut reports.iter().map(|r| r.rescheduled_slices as f64)),
            sum(&mut stats.iter().map(|s| s.tiles as f64)),
        ),
    );
    let commands = sum(&mut replays.iter().map(|r| r.commands as f64));
    m.set("replay.commands", ratio(commands, replays.len() as f64));
    let hits = sum(&mut replays.iter().map(|r| r.row_hits as f64));
    m.set(
        "replay.row_hit_rate",
        ratio(
            hits,
            hits + sum(&mut replays.iter().map(|r| r.row_misses as f64)),
        ),
    );
    m.set(
        "replay.peak_buffered_share",
        ratio(
            sum(&mut replays.iter().map(|r| r.peak_buffered_commands as f64)),
            commands,
        ),
    );
    crate::frames::ledger_metrics(m, &stats);
}
