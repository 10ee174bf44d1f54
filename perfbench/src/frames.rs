//! The two closed-loop frame workloads.
//!
//! * `frames-fresh-n64` — new content every frame at N=64 with
//!   `Optimize::Full`: short streams and cache misses put the compile
//!   layer and fixed per-op cost in front.
//! * `frames-repeat-n4096` — a short clip replayed at N=4096 with the
//!   plan cache warmed in set-up: compile is bypassed and per-word
//!   substrate work dominates.
//!
//! Both run `request::run` over the four kernels in turn at 32×32
//! output, with a shared `PlanCache` and the `PerTile` schedule. The
//! traced run decomposes every frame on one thread through the public
//! per-tile calls and checks that the decomposition's ledger and pixels
//! equal the frame's own.

use crate::arrivals::derive;
use crate::report::{Metrics, Outcome};
use crate::stats::{mean, ratio};
use crate::trace::Tracer;
use crate::workload::{
    self, closed_loop, emit, latency_metrics, policy, quality_metrics, Case, Checks, Frame,
    KERNELS, SETUPS, TILE_ROWS,
};
use imgproc::request::{self, KernelResponse};
use imgproc::scbackend::prob_to_pixel;
use imgproc::{ScReramConfig, Schedule};
use imsc::cost::CostLedger;
use imsc::{Optimize, PlanCache};
use std::sync::Arc;

/// Fresh frames generated in set-up; later frames are generated on the
/// fly, outside the timed call, from the same seed sequence.
const FRESH_POOL: usize = 1024;

/// Distinct frames per kernel in the repeated clip.
const CLIP: usize = 3;

/// How a frame workload chooses its content.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Content {
    /// New content every frame.
    Fresh,
    /// A short clip of [`CLIP`] frames per kernel, replayed.
    Repeat,
}

/// One frame workload's fixed parameters.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Stream length N.
    pub n: usize,
    /// Content choice.
    pub content: Content,
    /// Latency limit for `limit_met_share`, ms (3–4× the workload's p95 on
    /// a 2-core host).
    pub limit_ms: f64,
}

struct State {
    cfg: ScReramConfig,
    cache: Arc<PlanCache>,
    cases: Vec<Case>,
    checks: Checks,
}

fn fresh_case(seed: u64, i: usize) -> Case {
    Case::new(
        i % KERNELS.len(),
        derive(seed, 1_000_000 + i as u64),
        i as u64,
    )
}

/// Inputs, software references and (repeat) the cache warm-up: the whole
/// workload configuration is pinned here through the config builders.
fn setup(spec: Spec, seed: u64) -> State {
    let cache = Arc::new(PlanCache::new());
    let cfg = ScReramConfig::new(spec.n, seed)
        .with_optimize(Optimize::Full)
        .with_plan_cache(Arc::clone(&cache))
        .with_schedule(Schedule::PerTile);
    let mut checks = Checks::default();
    let cases = match spec.content {
        Content::Fresh => (0..FRESH_POOL).map(|i| fresh_case(seed, i)).collect(),
        Content::Repeat => {
            let clip: Vec<Case> = (0..CLIP * KERNELS.len())
                .map(|i| {
                    Case::new(
                        i % KERNELS.len(),
                        derive(seed, 2_000_000 + i as u64),
                        i as u64,
                    )
                })
                .collect();
            for case in &clip {
                match request::run(&case.req, &cfg) {
                    Ok(resp) => checks.same_output(case.key, spec.n, &resp.pixels),
                    Err(e) => checks.fail(format!("warm-up {}: {e}", KERNELS[case.kernel])),
                }
            }
            clip
        }
    };
    State {
        cfg,
        cache,
        cases,
        checks,
    }
}

/// Runs the workload; an enabled `tracer` selects the per-layer run.
pub fn run(spec: Spec, seed: u64, seconds: f64, tracer: &mut Tracer) -> Outcome {
    let (st, setup_s) = workload::timed_setup(if tracer.enabled() { 1 } else { SETUPS }, || {
        setup(spec, seed)
    });
    let State {
        cfg,
        cache,
        cases,
        mut checks,
    } = st;
    let mut out = Outcome::default();
    let mut m = Metrics::default();
    let repeat = spec.content == Content::Repeat;
    let mut next = |i: usize| {
        if repeat {
            cases[i % cases.len()].clone()
        } else {
            cases.get(i).cloned().unwrap_or_else(|| fresh_case(seed, i))
        }
    };

    let traced = tracer.enabled();
    // A traced run first measures half its time untraced, for the
    // tracing overhead, then traces the other half.
    let plain_s = if traced { seconds / 2.0 } else { seconds };
    let mut useful = workload::Useful::default();
    useful.start(&cache);
    let mut count_compiles = |resp: &KernelResponse| {
        let run = resp.stats.and_then(|s| s.plan_cache).unwrap_or_default();
        useful.note(&cache, run.misses + run.fallbacks);
    };
    let mut off = Tracer::disabled();
    let plain = closed_loop(
        &cfg,
        plain_s,
        &mut next,
        &mut off,
        &mut checks,
        &mut |_, resp, _, _, _| {
            count_compiles(resp);
        },
    );
    out.attempted = plain.attempted;
    out.failed = plain.failed;
    let scale = plain.host.time_scale();
    m.set("host.ref_ms", plain.host.median_ms());
    m.set("setup_s", setup_s * scale);
    latency_metrics(&mut m, &plain.frames, plain.attempted, spec.limit_ms, scale);
    let mut all = plain.frames.clone();

    if traced {
        let skip = plain.attempted as usize;
        let mut shifted = |i: usize| next(i + skip);
        let mut after =
            |case: &Case, resp: &KernelResponse, t: &mut Tracer, c: &mut Checks, id: u64| {
                count_compiles(resp);
                decompose_checked(case, resp, &cfg, t, c, id);
            };
        let tr = closed_loop(
            &cfg,
            seconds - plain_s,
            &mut shifted,
            tracer,
            &mut checks,
            &mut after,
        );
        out.attempted += tr.attempted;
        out.failed += tr.failed;
        layer_metrics(&mut m, &tr.frames, tracer);
        m.set("compile.useful_ratio", useful.ratio());
        m.set(
            "trace.overhead_share",
            workload::overhead(&plain.frames, &tr.frames),
        );
        crate::substrate::floor(&mut m, spec.n, seed);
        all.extend(tr.frames);
    } else {
        let px: f64 = plain.frames.iter().map(|f| f.px as f64).sum();
        let secs: f64 = plain.frames.iter().map(|f| f.latency_ms / 1e3).sum();
        m.set("px_per_s", ratio(px, secs * scale));
        let (mut energy, mut latency) = (0.0, 0.0);
        for f in &plain.frames {
            let (e, l) = workload::modelled(f.stats.as_ref().expect("SC-ReRAM stats"), f.n);
            energy += e;
            latency += l;
        }
        m.set("sim_energy_nj_per_px", ratio(energy, px));
        m.set("sim_latency_ns_per_px", ratio(latency, px));
    }

    // Fresh frames each ran once: re-run the first rotation and compare.
    if spec.content == Content::Fresh {
        for case in cases.iter().take(KERNELS.len()) {
            match request::run(&case.req, &cfg) {
                Ok(resp) => checks.same_output(case.key, spec.n, &resp.pixels),
                Err(e) => checks.fail(format!("re-run {}: {e}", KERNELS[case.kernel])),
            }
        }
    }
    checks.psnr_floors(&all);
    quality_metrics(&mut m, &all);
    m.set("host.peak_rss_mb", workload::peak_rss_mb());
    out.problems = checks.problems;
    out.metrics = m;
    out
}

/// Decomposes one frame and checks it against the frame's response.
fn decompose_checked(
    case: &Case,
    resp: &KernelResponse,
    cfg: &ScReramConfig,
    t: &mut Tracer,
    c: &mut Checks,
    id: u64,
) {
    let Some(stats) = resp.stats else {
        c.fail("SC-ReRAM response without stats".into());
        return;
    };
    match decompose(case, cfg, t, id) {
        Ok((ledger, px)) => {
            if ledger != stats.ledger {
                c.fail(format!(
                    "{} frame {id}: decomposed ledger differs from request::run's",
                    KERNELS[case.kernel]
                ));
            }
            if px != resp.pixels.pixels() {
                c.fail(format!(
                    "{} frame {id}: decomposed pixels differ",
                    KERNELS[case.kernel]
                ));
            }
        }
        Err(e) => c.fail(format!(
            "{} frame {id}: decomposition failed: {e}",
            KERNELS[case.kernel]
        )),
    }
}

/// Runs one frame tile by tile on this thread through the public calls
/// — emit, optimize, plan, build, execute — one span each. Returns the
/// merged ledger and the pixels.
fn decompose(
    case: &Case,
    cfg: &ScReramConfig,
    t: &mut Tracer,
    id: u64,
) -> Result<(CostLedger, Vec<u8>), String> {
    let height = case.req.output_dims().1;
    let level = cfg.effective_optimize();
    let pol = cfg.refresh_policy.unwrap_or(policy(case.kernel));
    t.span("decompose", id, |t| {
        let mut ledger = CostLedger::default();
        let mut px = Vec::with_capacity(case.req.output_pixels());
        for (tile, start) in (0..height).step_by(TILE_ROWS).enumerate() {
            let rows = start..(start + TILE_ROWS).min(height);
            let mut program = t.span("compile.emit", id, |_| emit(&case.req, rows));
            if level != Optimize::Off {
                program = t.span("compile.optimize", id, |_| {
                    imsc::optimize(&program, level, pol).0
                });
            }
            let plan = t
                .span("compile.plan", id, |_| program.plan())
                .map_err(|e| e.to_string())?;
            let mut acc = t
                .span("execute.build", id, |_| {
                    cfg.build_for_tile_with(tile, policy(case.kernel))
                })
                .map_err(|e| e.to_string())?;
            let values = t
                .span("execute.run", id, |_| plan.execute(&mut acc))
                .map_err(|e| e.to_string())?;
            ledger.merge(acc.ledger());
            px.extend(values.into_iter().map(prob_to_pixel));
        }
        Ok((ledger, px))
    })
}

/// Per-layer metrics of the traced frames.
fn layer_metrics(m: &mut Metrics, frames: &[Frame], t: &Tracer) {
    let n = frames.len() as f64;
    let per_frame_ms = |name: &str| ratio(t.total_ns(name), n) / 1e6;
    let stats: Vec<_> = frames.iter().filter_map(|f| f.stats).collect();
    let sum = |f: &dyn Fn(&imgproc::ScRunStats) -> f64| stats.iter().map(f).sum::<f64>();
    let threads = workload::frame_tile_threads();
    let worker_ns: f64 = frames
        .iter()
        .map(|f| f.latency_ms * 1e6 * threads as f64)
        .sum();
    let compile_ns = sum(&|s| s.compile.total_ns() as f64);
    let exec_ns = t.total_ns("execute.build") + t.total_ns("execute.run");

    m.set(
        "imgproc.run_ms",
        mean(&frames.iter().map(|f| f.latency_ms).collect::<Vec<_>>()),
    );
    m.set(
        "imgproc.parallel_eff",
        ratio(exec_ns + compile_ns, worker_ns),
    );
    m.set("compile.emit_ms", per_frame_ms("compile.emit"));
    m.set("compile.optimize_ms", per_frame_ms("compile.optimize"));
    m.set("compile.plan_ms", per_frame_ms("compile.plan"));
    m.set(
        "compile.bind_ms",
        ratio(sum(&|s| s.compile.bind_ns as f64), n) / 1e6,
    );
    m.set("compile.share", ratio(compile_ns, worker_ns));
    let runs: Vec<_> = stats.iter().filter_map(|s| s.plan_cache).collect();
    let (hits, lookups) = runs
        .iter()
        .fold((0, 0), |(h, l), r| (h + r.hits, l + r.lookups()));
    m.set("compile.cache_hit_rate", ratio(hits as f64, lookups as f64));
    m.set(
        "compile.cache_fallbacks",
        runs.iter().map(|r| r.fallbacks as f64).sum(),
    );
    m.set("execute.build_ms", per_frame_ms("execute.build"));
    m.set("execute.run_ms", per_frame_ms("execute.run"));
    ledger_metrics(m, &stats);
    let scout_ops = sum(&|s| s.ledger.scout_ops() as f64);
    m.set(
        "execute.ns_per_scout_op",
        ratio(t.total_ns("execute.run"), scout_ops),
    );
    m.set("trace.spans", t.spans().len() as f64);
}

/// Mean per-frame ledger counts as `execute.*`.
pub fn ledger_metrics(m: &mut Metrics, stats: &[imgproc::ScRunStats]) {
    let n = stats.len() as f64;
    let mean_of =
        |f: &dyn Fn(&CostLedger) -> u64| ratio(stats.iter().map(|s| f(&s.ledger) as f64).sum(), n);
    m.set("execute.scout_ops", mean_of(&CostLedger::scout_ops));
    m.set("execute.stream_writes", mean_of(&|l| l.stream_writes));
    m.set("execute.trng_fills", mean_of(&|l| l.trng_fills));
    m.set("execute.adc_samples", mean_of(&|l| l.adc_samples));
}
