//! Engine fast-path benchmark: times the crossbar/scouting substrate,
//! the end-to-end bilinear upscale through the unified
//! `imgproc::request::run` API, and the serve frontend's steady-state
//! latency, writing a machine-readable summary to `BENCH_engine.json`.
//!
//! Usage:
//! `cargo run --release -p bench --bin bench_engine [-- --out PATH]
//!  [--check BASELINE] [--check-threshold PCT]`
//!
//! With `--check`, the freshly measured anchors are compared against the
//! committed baseline file and the process exits nonzero when any anchor
//! regresses — the bench-regression gate `scripts/bench_check.sh` wires
//! into CI. Three gate families run:
//!
//! * wall-clock `"ns"` anchors, failed beyond the threshold (default
//!   25%) — except the pipelined anchor, whose absolute time flapped
//!   with runner load and is gated by ratio instead;
//! * the `"vs_per_tile"` same-run A/B ratio (pipelined vs per-tile
//!   wall-clock, measured in one process so load cancels), failed
//!   beyond the same threshold;
//! * `"ops"` anchors (`scout_ops_per_pixel` of the program optimizer at
//!   Off/Full), deterministic counts failed on any real increase;
//! * `"energy_nj"` / `"busy_ns"` replay anchors (nvsim replay of each
//!   kernel's real pipelined schedule), deterministic simulated values
//!   failed on any real increase;
//! * the `"compile_cache"` counters (`miss_rate`, `lookups`, `misses`
//!   of the multi-frame cached run), deterministic and exact-gated like
//!   the ops anchors — the hit rate is gated through its complement
//!   because the gate direction is increase-is-bad, and `hit_rate ≥ 0.9`
//!   is additionally hard-asserted in the harness itself;
//! * the `"vs_uncached"` same-run A/B ratio of the cached anchor
//!   (cached vs uncached multi-frame wall-clock, load-invariant), failed
//!   beyond the wall-clock threshold;
//! * the serve anchors (`serve_edge32_p50`/`p99`/`mean` latencies of an
//!   in-process serving run), gated as ordinary wall-clock `"ns"`
//!   anchors — the overload run's shed/downgrade counts are reported
//!   ungated context, but its errors-free shedding contract is
//!   hard-asserted by the harness.

use bench::load::{run_in_process, LoadConfig};
use imgproc::request::{self, KernelRequest};
use imgproc::{bilinear, synth, ScReramConfig, Schedule};
use imsc::{CompileStats, Optimize, PlanCache};
use reram::array::CrossbarArray;
use reram::scouting::{ScoutingLogic, SlOp};
use reram::trng::TrngEngine;
use sc_core::rng::{BitSource, Xoshiro256};
use sc_core::BitStream;
use serve::ServiceConfig;
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pre-PR reference timings (nanoseconds) of the identical workloads,
/// measured on the per-cell seed implementation (one `ReramCell` struct
/// per bit, per-pixel unbatched image kernels, single-threaded) on the
/// benchmark container, immediately before the packed-word fast path
/// landed. Committed so every future run of this harness reports the
/// trajectory against the same anchor.
const PRE_PR_BASELINE_NS: [(&str, f64); 6] = [
    ("write_row_4096", 117_612.3),
    ("read_row_4096", 5_999.8),
    ("scout_and2_4096", 69_068.3),
    ("scout_xor2_4096", 75_438.8),
    ("scout_maj3_4096", 101_473.1),
    ("bilinear_sc_reram_64_to_128_n256", 10_641_851_936.0),
];

/// The end-to-end anchor committed by the packed-word PR (`1.19 s`):
/// the word-level TRNG + RN-refresh-policy work is measured against it.
const PACKED_PR_BILINEAR_NS: f64 = 1_186_652_682.0;

/// The end-to-end anchor committed by the TRNG/refresh-policy PR
/// (`0.21 s`), measured on the *eager* per-pixel kernel immediately
/// before the program-IR refactor. Today's bilinear path emits a
/// `Program` per tile and runs it through the planner, so the ratio
/// against this anchor is the program-vs-eager overhead (IR emission,
/// last-use analysis, handle indirection) — it should stay within a few
/// percent of 1.0.
const EAGER_PR_BILINEAR_NS: f64 = 211_299_800.0;

fn time_ns<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    // One warm-up call, then the mean of `reps` timed calls.
    f();
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    start.elapsed().as_nanos() as f64 / reps as f64
}

/// The deterministic `compile_cache` counters, qualified per field so
/// each gets its own exact gate (`compile_cache.miss_rate`, …) — the
/// same 0.01% convention as the ops anchors. `hit_rate` is deliberately
/// absent: the gate direction is increase-is-bad, so the hit rate is
/// gated through its complement (`miss_rate`) and hard-asserted ≥ 0.9
/// by the harness.
fn parse_cache_counters(json: &str) -> Vec<(String, f64)> {
    let mut counters = Vec::new();
    for field in ["miss_rate", "lookups", "misses"] {
        for (name, value) in bench::regress::parse_anchor_field(json, field) {
            counters.push((format!("{name}.{field}"), value));
        }
    }
    counters
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let explicit_out = args.iter().any(|a| a == "--out");
    let mut out = bench::arg_or(&args, "--out", "BENCH_engine.json".to_string());
    // Parse (and hard-fail) the regression-gate flags up front, before
    // minutes of measurement: a bare `--check`, a flag-shaped operand,
    // an unreadable/empty baseline, or a malformed threshold is an
    // error — a gating tool must never silently skip or reinterpret its
    // comparison. The baseline is read *now*, before `--out` can
    // overwrite the very file it points at (the default out path and
    // the committed baseline are the same file, and a self-comparison
    // would always pass). The gate itself runs after the measurements.
    let baseline = args.iter().position(|a| a == "--check").map(|i| {
        let path = match args.get(i + 1) {
            Some(path) if !path.starts_with("--") => path.clone(),
            _ => {
                eprintln!("bench-check: --check requires a baseline path");
                std::process::exit(2);
            }
        };
        let json = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("bench-check: cannot read baseline {path}: {e}");
            std::process::exit(2);
        });
        let anchors = bench::regress::parse_anchor_ns(&json);
        if anchors.is_empty() {
            eprintln!("bench-check: baseline {path} contains no anchors — wrong file?");
            std::process::exit(2);
        }
        let ops = bench::regress::parse_anchor_field(&json, "ops");
        let ratios = bench::regress::parse_anchor_field(&json, "vs_per_tile");
        let energy = bench::regress::parse_anchor_field(&json, "energy_nj");
        let busy = bench::regress::parse_anchor_field(&json, "busy_ns");
        let cache_exact = parse_cache_counters(&json);
        let cache_ratio = bench::regress::parse_anchor_field(&json, "vs_uncached");
        // Never clobber the baseline being checked against: an explicit
        // matching --out is an error; the default out path is redirected
        // to a sibling .check.json (the same convention bench_check.sh
        // uses), so a failing gate leaves the committed baseline intact.
        if out == path {
            if explicit_out {
                eprintln!("bench-check: --out must not overwrite the --check baseline {path}");
                std::process::exit(2);
            }
            out = format!("{}.check.json", path.trim_end_matches(".json"));
            println!("bench-check: writing measurements to {out} (baseline preserved)");
        }
        (
            path,
            anchors,
            ops,
            ratios,
            energy,
            busy,
            cache_exact,
            cache_ratio,
        )
    });
    let threshold: f64 = match args.iter().position(|a| a == "--check-threshold") {
        None => 25.0,
        Some(_) if baseline.is_none() => {
            eprintln!("bench-check: --check-threshold is meaningless without --check");
            std::process::exit(2);
        }
        Some(i) => match args.get(i + 1).and_then(|v| v.parse().ok()) {
            Some(pct) => pct,
            None => {
                eprintln!("bench-check: --check-threshold requires a numeric percentage");
                std::process::exit(2);
            }
        },
    };
    let mut results: Vec<(String, f64)> = Vec::new();
    let mut record = |name: &str, ns: f64| {
        println!("{name:<44} {:>14.1} ns", ns);
        results.push((name.to_string(), ns));
    };

    // --- Substrate: row write/read and scouting ops, 4096-bit rows -----
    let cols = 4096;
    let mut rng = Xoshiro256::seed_from_u64(1);
    let data_a = BitStream::from_fn(cols, |_| rng.next_f64() < 0.5);
    let data_b = BitStream::from_fn(cols, |_| rng.next_f64() < 0.5);
    let mut array = CrossbarArray::pristine(8, cols, 7);
    array.write_row(0, &data_a).expect("row in range");
    array.write_row(1, &data_b).expect("row in range");

    let mut toggle = false;
    record(
        "write_row_4096",
        time_ns(2000, || {
            toggle = !toggle;
            let d = if toggle { &data_a } else { &data_b };
            black_box(array.write_row(2, d).expect("row in range"));
        }),
    );
    record(
        "read_row_4096",
        time_ns(2000, || {
            black_box(array.read_row(0).expect("row in range"));
        }),
    );
    let mut sl = ScoutingLogic::ideal();
    for (name, op, rows) in [
        ("scout_and2_4096", SlOp::And, &[0usize, 1][..]),
        ("scout_xor2_4096", SlOp::Xor, &[0, 1][..]),
        ("scout_maj3_4096", SlOp::Maj, &[0, 1, 2][..]),
    ] {
        record(
            name,
            time_ns(2000, || {
                black_box(sl.execute_mut(&mut array, op, rows).expect("valid rows"));
            }),
        );
    }

    // --- TRNG row fill: word-parallel vs per-bit reference -------------
    // Same engine model (4096 cells, device-bias sigma 0.04); the word
    // path bit-slices 64 Bernoulli draws per comparison, the per-bit path
    // is the reference semantics it is differential-tested against.
    let mut trng_word = TrngEngine::new(cols, 0.04, 21);
    let word_ns = time_ns(2000, || {
        black_box(trng_word.generate_row(cols));
    });
    let mut trng_bit = TrngEngine::new(cols, 0.04, 21);
    let bit_ns = time_ns(200, || {
        black_box(BitStream::from_fn(cols, |_| trng_bit.next_bit()));
    });
    println!(
        "trng_fill_word_4096                          {:>10.1}x vs per-bit path",
        bit_ns / word_ns
    );
    record("trng_fill_per_bit_4096", bit_ns);
    record("trng_fill_word_4096", word_ns);

    // --- Program IR: emission + planning overhead, one 8-row tile ------
    // The planner's own cost (op emission, last-use analysis, release
    // scheduling) for one 128-wide bilinear tile — the pure-software
    // overhead the program path adds per tile before any simulated
    // hardware work happens.
    let src = synth::value_noise(64, 64, 4, 9);
    // All end-to-end kernel runs below go through the unified request
    // API — the same dispatch surface the serve frontend uses — built
    // once here so the timed closures measure execution, not request
    // construction.
    let up_req = KernelRequest::Bilinear {
        src: src.clone(),
        factor: 2,
    };
    let run_stats = |req: &KernelRequest, c: &ScReramConfig| {
        let r = request::run(req, c).expect("valid input");
        (r.pixels, r.stats.expect("sc backend reports stats"))
    };
    record(
        "bilinear_program_emit_plan_tile128x8",
        time_ns(200, || {
            let program = bilinear::emit_program(&src, 2, 0..8);
            black_box(program.plan().expect("well-formed program"));
        }),
    );

    // --- End to end: bilinear upscale 64x64 -> 128x128, N = 256 --------
    // Since the program-IR refactor this runs emit → plan → execute per
    // tile; the eager-PR anchor below pins the program-vs-eager ratio.
    // The optimizer is pinned Off here so the anchor means the same
    // thing regardless of the caller's IMSC_OPTIMIZE environment; the
    // optimized run is its own anchor below.
    let cfg = ScReramConfig::new(256, 42).with_optimize(Optimize::Off);
    record(
        "bilinear_sc_reram_64_to_128_n256",
        time_ns(1, || {
            black_box(request::run(&up_req, &cfg).expect("valid input"));
        }),
    );

    // --- Same workload through the cross-array pipeline scheduler ------
    // Bit-identical pixels/ledgers to the per-tile run; this anchor
    // guards the pipelined path's host-side overhead (one logical
    // program emitted and sliced serially at output-aligned cuts, then
    // one work-queue job per slice).
    let cfg_pipelined = cfg.with_schedule(Schedule::Pipelined { arrays: 3 });
    record(
        "bilinear_sc_reram_pipelined_64_to_128_n256",
        time_ns(1, || {
            black_box(request::run(&up_req, &cfg_pipelined).expect("valid input"));
        }),
    );

    // --- Program optimizer: optimized e2e run + ops/pixel anchors ------
    // Same workload at `Optimize::Full`: bit-identical pixels, fewer
    // scouting ops, and the wall-clock win the tentpole targets. The
    // unoptimized reference is re-measured here, interleaved best-of-2,
    // so the `vs_unoptimized` ratio compares *adjacent* runs — this
    // container drifts far more over a whole bench run than the
    // optimizer saves, which is the same flap the pipelined anchor's
    // same-run ratio fixes.
    let cfg_opt = cfg.with_optimize(Optimize::Full);
    let mut plain_adjacent_ns = f64::MAX;
    let mut opt_ns = f64::MAX;
    for _ in 0..2 {
        plain_adjacent_ns = plain_adjacent_ns.min(time_ns(1, || {
            black_box(request::run(&up_req, &cfg).expect("valid input"));
        }));
        opt_ns = opt_ns.min(time_ns(1, || {
            black_box(request::run(&up_req, &cfg_opt).expect("valid input"));
        }));
    }
    record("bilinear_sc_reram_opt_64_to_128_n256", opt_ns);

    // --- Template cache: multi-frame amortization ----------------------
    // The same Full-optimized upscale over a 32-frame "video": geometry
    // and pixel values repeat exactly frame to frame, so every tile's
    // template key recurs — frame 1 compiles the 16 tile templates,
    // frames 2..32 take the fully-bound digest fast path. 512 lookups,
    // 16 misses, hit rate 0.96875, all deterministic and exact-gated. The wall-clock anchor and the
    // same-run cached/uncached ratio guard the amortization win itself.
    const CACHED_ANCHOR: &str = "bilinear_sc_reram_cached_32f_64_to_128_n256";
    const FRAMES: usize = 32;
    let mut uncached_compile = CompileStats::default();
    let t0 = Instant::now();
    for _ in 0..FRAMES {
        let (img, s) = run_stats(&up_req, &cfg_opt);
        black_box(img);
        uncached_compile.merge(&s.compile);
    }
    let uncached_mf_ns = t0.elapsed().as_nanos() as f64;
    let cfg_cached = cfg_opt.with_plan_cache(Arc::new(PlanCache::new()));
    let mut cached_compile = CompileStats::default();
    let (mut hits, mut misses, mut fallbacks) = (0u64, 0u64, 0u64);
    let t0 = Instant::now();
    for _ in 0..FRAMES {
        let (img, s) = run_stats(&up_req, &cfg_cached);
        black_box(img);
        cached_compile.merge(&s.compile);
        let run = s.plan_cache.expect("plan cache configured");
        hits += run.hits;
        misses += run.misses;
        fallbacks += run.fallbacks;
    }
    let cached_mf_ns = t0.elapsed().as_nanos() as f64;
    let lookups = hits + misses + fallbacks;
    let hit_rate = hits as f64 / lookups as f64;
    let miss_rate = 1.0 - hit_rate;
    let vs_uncached = cached_mf_ns / uncached_mf_ns;
    let compile_vs_uncached = cached_compile.total_ns() as f64 / uncached_compile.total_ns() as f64;
    for (tag, c) in [("uncached", &uncached_compile), ("cached", &cached_compile)] {
        println!(
            "compile_breakdown_{tag:<26} emit {:>11} + optimize {:>11} + plan {:>11} + bind {:>11} = {:>12} ns",
            c.emit_ns, c.optimize_ns, c.plan_ns, c.bind_ns, c.total_ns()
        );
    }
    assert_eq!(
        fallbacks, 0,
        "identical frames must never take the collision-fallback path"
    );
    assert!(
        hit_rate >= 0.9,
        "multi-frame hit rate {hit_rate:.4} below the 0.9 contract ({hits}/{lookups})"
    );
    assert!(
        compile_vs_uncached < 0.1,
        "cached compile cost must amortize below 10% of uncached: {:.1}% \
         (cached {} ns vs uncached {} ns over {FRAMES} frames)",
        compile_vs_uncached * 100.0,
        cached_compile.total_ns(),
        uncached_compile.total_ns()
    );
    record(CACHED_ANCHOR, cached_mf_ns / FRAMES as f64);
    println!(
        "{CACHED_ANCHOR:<44} {:>10.3}x cached vs uncached 32-frame run (hit rate {hit_rate:.4})",
        vs_uncached
    );

    // --- Opportunistic multicore wall-clock (informational) ------------
    // Only on runners with ≥ 4 cores: pin 4 tile workers and record
    // pipelined-vs-per-tile and cached-vs-uncached wall-clock. The
    // fields are informational, never gated — multicore timing depends
    // on runner load, and single-core CI never emits them at all — so
    // none of the field names collide with a gated key.
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut multicore: Option<String> = None;
    if cores >= 4 {
        std::env::set_var("IMGPROC_TILE_THREADS", "4");
        let mc_per_tile = time_ns(1, || {
            black_box(request::run(&up_req, &cfg).expect("valid input"));
        });
        let mc_pipelined = time_ns(1, || {
            black_box(request::run(&up_req, &cfg_pipelined).expect("valid input"));
        });
        let mc_uncached = time_ns(1, || {
            for _ in 0..4 {
                black_box(request::run(&up_req, &cfg_opt).expect("valid input"));
            }
        });
        let mc_cached = time_ns(1, || {
            let cfg_mc = cfg_opt.with_plan_cache(Arc::new(PlanCache::new()));
            for _ in 0..4 {
                black_box(request::run(&up_req, &cfg_mc).expect("valid input"));
            }
        });
        std::env::remove_var("IMGPROC_TILE_THREADS");
        println!(
            "multicore_4_workers                          {:>10.3}x pipelined vs per-tile, {:.3}x cached vs uncached",
            mc_pipelined / mc_per_tile,
            mc_cached / mc_uncached
        );
        multicore = Some(format!(
            "\"multicore_informational\": {{\"workers\": 4, \"cores\": {cores}, \
             \"wall_per_tile\": {mc_per_tile:.1}, \"wall_pipelined\": {mc_pipelined:.1}, \
             \"ratio_pipelined\": {:.3}, \"wall_uncached_4f\": {mc_uncached:.1}, \
             \"wall_cached_4f\": {mc_cached:.1}, \"ratio_cached\": {:.3}}}",
            mc_pipelined / mc_per_tile,
            mc_cached / mc_uncached
        ));
    }

    // Deterministic scouting-ops-per-pixel anchors at Off and Full for
    // the two kernels the acceptance criterion names. These are exact
    // counts, not timings — the regression gate fails any increase.
    let mut ops_results: Vec<(String, f64)> = Vec::new();
    let app = synth::app_images(64, 64, 42);
    let comp_req = KernelRequest::Compositing {
        foreground: app.foreground.clone(),
        background: app.background.clone(),
        alpha: app.alpha.clone(),
    };
    for (level, tag) in [(Optimize::Off, "off"), (Optimize::Full, "full")] {
        let c = cfg.with_optimize(level);
        let (_, s) = run_stats(&up_req, &c);
        ops_results.push((
            format!("bilinear_scout_ops_per_pixel_{tag}"),
            s.scout_ops_per_pixel,
        ));
        let (_, s) = run_stats(&comp_req, &c);
        ops_results.push((
            format!("compositing_scout_ops_per_pixel_{tag}"),
            s.scout_ops_per_pixel,
        ));
    }
    // --- Wear leveling: hottest-row write counts on the e2e anchor -----
    // Deterministic counts (the substrate is seeded and faults are off),
    // gated like the ops anchors: any increase fails. The ≥2× drop and
    // the bit-identical-pixels guarantee are hard-asserted here so the
    // bench harness itself enforces the wear-leveling contract on the
    // real workload, not just on unit-test loops.
    let (img_lifo, s_lifo) = run_stats(&up_req, &cfg);
    let (img_wl, s_wl) = run_stats(&up_req, &cfg.with_wear_leveling(true));
    assert_eq!(
        img_lifo, img_wl,
        "wear-leveling must not change fault-free pixels"
    );
    assert!(
        s_lifo.stream_wear.max >= 2 * s_wl.stream_wear.max,
        "wear-leveling must at least halve the hottest row: lifo max {} vs leveled max {}",
        s_lifo.stream_wear.max,
        s_wl.stream_wear.max
    );
    println!(
        "bilinear_row_wear                            {:>10.2}x hottest-row reduction (max/mean {:.2} -> {:.2})",
        s_lifo.stream_wear.max as f64 / s_wl.stream_wear.max as f64,
        s_lifo.stream_wear.max_mean_ratio(),
        s_wl.stream_wear.max_mean_ratio()
    );
    ops_results.push((
        "bilinear_row_wear_max_unleveled".to_string(),
        s_lifo.stream_wear.max as f64,
    ));
    ops_results.push((
        "bilinear_row_wear_max_leveled".to_string(),
        s_wl.stream_wear.max as f64,
    ));

    // --- Fault-domain retirement: deterministic overhead anchors -------
    // Three arrays, one pathological (heavy uniform fault rates on array
    // 1): the scheduler must retire it and reschedule its slices onto
    // the survivors. Retired-array and rescheduled-slice counts are
    // deterministic for the fixed seed, so the regression gate fails any
    // increase in retirement overhead.
    let cfg_retire = cfg
        .with_schedule(Schedule::Pipelined { arrays: 3 })
        .with_array_faults(1, reram::faults::FaultRates::uniform(0.05))
        .with_retirement(imsc::RetirementPolicy {
            max_faults_per_op: 0.01,
            min_ops: 1_000,
        });
    let (_, s_retire) = run_stats(&up_req, &cfg_retire);
    let report = s_retire.pipeline.expect("pipelined run reports");
    assert!(
        report.retired_arrays >= 1,
        "the pathological array must be retired"
    );
    println!(
        "bilinear_retirement                          {:>10} retired, {} slices rescheduled",
        report.retired_arrays, report.rescheduled_slices
    );
    ops_results.push((
        "bilinear_retired_arrays".to_string(),
        report.retired_arrays as f64,
    ));
    ops_results.push((
        "bilinear_rescheduled_slices".to_string(),
        report.rescheduled_slices as f64,
    ));

    for (name, ops) in &ops_results {
        println!("{name:<44} {ops:>14.3} ops");
    }

    // --- Energy ground truth: nvsim replay of real schedules -----------
    // Each kernel runs small pipelined workloads with trace replay on:
    // the dispatch-ordered, bank-mapped command stream every slice emits
    // is replayed through `nvsim::Simulator`, and the resulting joules
    // and serial busy nanoseconds are anchored per kernel. The replay is
    // an exact simulation of a deterministic schedule, so the anchors
    // are gated like the ops counters — any real increase in a kernel's
    // replayed energy or latency fails the check.
    let cfg_replay = ScReramConfig::new(64, 9)
        .with_optimize(Optimize::Off)
        .with_trace_replay(true)
        .with_schedule(Schedule::Pipelined { arrays: 3 });
    let mut replay_results: Vec<(String, imsc::instrument::ReplaySummary)> = Vec::new();
    {
        let costs = reram::energy::ReramCosts::calibrated();
        let edge_src = synth::value_noise(16, 32, 3, 11);
        let up_src = synth::gradient(8, 16, true);
        let rapp = synth::app_images(16, 32, 42);
        let composite =
            imgproc::compositing::software(&rapp.foreground, &rapp.background, &rapp.alpha)
                .expect("matched dimensions");
        // One request per kernel, all executed through the same
        // `request::run` dispatch the serve frontend uses.
        let replay_reqs = [
            ("edge", KernelRequest::Edge { image: edge_src }),
            (
                "bilinear",
                KernelRequest::Bilinear {
                    src: up_src,
                    factor: 2,
                },
            ),
            (
                "compositing",
                KernelRequest::Compositing {
                    foreground: rapp.foreground.clone(),
                    background: rapp.background.clone(),
                    alpha: rapp.alpha.clone(),
                },
            ),
            (
                "matting",
                KernelRequest::Matting {
                    image: composite,
                    background: rapp.background.clone(),
                    foreground: rapp.foreground.clone(),
                },
            ),
        ];
        let runs = replay_reqs
            .iter()
            .map(|(kernel, req)| (*kernel, run_stats(req, &cfg_replay).1));
        for (kernel, stats) in runs {
            let replay = stats.replay.expect("trace replay enabled");
            // The replayed stream must account for every recorded op —
            // a mismatch means the instrumentation dropped or invented
            // commands, which no tolerance band should forgive.
            assert_eq!(
                replay.commands,
                stats.ledger.replay_commands(),
                "{kernel}: replayed command count diverged from the ledger"
            );
            let analytic_nj = stats.ledger.energy_nj(&costs, 64);
            println!(
                "{:<44} {:>14.3} nJ replayed ({} cmds, {:.1} busy-ns, analytic/replay {:.3})",
                format!("{kernel}_replay"),
                replay.energy_nj,
                replay.commands,
                replay.busy_ns,
                analytic_nj / replay.energy_nj
            );
            replay_results.push((format!("{kernel}_replay"), replay));
        }
    }

    // --- Serving: steady-state latency + overload shedding contract ----
    // An in-process serve instance (pipelined shards + shared plan
    // cache) driven by the closed-loop loadgen core over real loopback
    // TCP. The steady run must serve every request without a single
    // error; its p50/p99/mean latencies are gated wall-clock anchors and
    // the sustained req/s rides along as ungated context. The overload
    // run then doubles the offered concurrency into a shallow admission
    // queue with a deadline that is provably unmeetable on any host —
    // 1 µs is below the batcher's own coalescing window, let alone a
    // floor-N service-time estimate — so the graceful-degradation
    // contract (shed, never answer Error) is hard-asserted here, on the
    // real service, every bench run, without depending on host speed.
    let serve_steady = run_in_process(
        ServiceConfig {
            engine: ScReramConfig::new(64, 42)
                .with_schedule(Schedule::Pipelined { arrays: 4 })
                .with_plan_cache(Arc::new(PlanCache::new())),
            ..ServiceConfig::default()
        },
        &LoadConfig {
            requests: 32,
            concurrency: 2,
            size: 32,
            deadline: None,
        },
    );
    assert_eq!(
        serve_steady.errors, 0,
        "steady-state serving must not error"
    );
    assert_eq!(
        serve_steady.served, 32,
        "steady-state serving must answer every request Ok"
    );
    let serve_req_per_s = serve_steady.req_per_s();
    record("serve_edge32_p50", serve_steady.percentile_ns(50.0) as f64);
    record("serve_edge32_p99", serve_steady.percentile_ns(99.0) as f64);
    record("serve_edge32_mean", serve_steady.mean_ns());
    println!(
        "serve_steady_32req_2conn                     {serve_req_per_s:>10.1} req/s sustained"
    );

    let serve_overload = run_in_process(
        ServiceConfig {
            engine: ScReramConfig::new(256, 42)
                .with_schedule(Schedule::Pipelined { arrays: 4 })
                .with_plan_cache(Arc::new(PlanCache::new())),
            queue_depth: 4,
            ..ServiceConfig::default()
        },
        &LoadConfig {
            requests: 24,
            concurrency: 4,
            size: 48,
            deadline: Some(Duration::from_micros(1)),
        },
    );
    assert_eq!(
        serve_overload.errors, 0,
        "overload must shed or downgrade, never answer Error"
    );
    assert!(
        serve_overload.shed > 0,
        "an unmeetable deadline under 2x overload must shed"
    );
    println!(
        "serve_overload_24req_4conn                   {:>10} served ({} downgraded), {} shed, 0 errors",
        serve_overload.served, serve_overload.downgraded, serve_overload.shed
    );

    let mut json = String::from("{\n");
    for (name, ns) in &results {
        let baseline = PRE_PR_BASELINE_NS
            .iter()
            .find(|(b, _)| b == name)
            .map(|&(_, ns)| ns);
        let comma = ","; // the ops entries below close the object
                         // Extra per-entry anchors beyond the seed baseline.
        let mut extra = String::new();
        if name == "bilinear_sc_reram_64_to_128_n256" {
            let _ = write!(
                extra,
                ", \"packed_pr_anchor_ns\": {PACKED_PR_BILINEAR_NS:.1}, \"speedup_vs_packed_pr\": {:.2}",
                PACKED_PR_BILINEAR_NS / ns
            );
            println!(
                "{name:<44} {:>10.1}x vs packed-word PR anchor",
                PACKED_PR_BILINEAR_NS / ns
            );
            let _ = write!(
                extra,
                ", \"eager_pr_anchor_ns\": {EAGER_PR_BILINEAR_NS:.1}, \"program_vs_eager\": {:.3}",
                ns / EAGER_PR_BILINEAR_NS
            );
            println!(
                "{name:<44} {:>10.3}x program path vs eager PR anchor",
                ns / EAGER_PR_BILINEAR_NS
            );
        }
        if name == "bilinear_sc_reram_pipelined_64_to_128_n256" {
            if let Some(per_tile) = results
                .iter()
                .find(|(n, _)| n.as_str() == "bilinear_sc_reram_64_to_128_n256")
                .map(|(_, reference)| *reference)
            {
                let _ = write!(
                    extra,
                    ", \"per_tile_ns\": {per_tile:.1}, \"vs_per_tile\": {:.3}",
                    ns / per_tile
                );
                println!(
                    "{name:<44} {:>10.3}x pipelined vs per-tile schedule",
                    ns / per_tile
                );
            }
        }
        if name == "bilinear_sc_reram_opt_64_to_128_n256" {
            let _ = write!(
                extra,
                ", \"unoptimized_adjacent_ns\": {plain_adjacent_ns:.1}, \"vs_unoptimized\": {:.3}",
                ns / plain_adjacent_ns
            );
            println!(
                "{name:<44} {:>10.3}x optimized vs adjacent unoptimized run",
                ns / plain_adjacent_ns
            );
        }
        if name == CACHED_ANCHOR {
            // Per-frame wall plus the same-run 32-frame A/B ratio; the
            // ratio is load-invariant and gated, the raw walls are
            // context. (`_wall` naming keeps the uncached total out of
            // the `"ns"` wall-clock gate family.)
            let _ = write!(
                extra,
                ", \"uncached_32f_wall\": {uncached_mf_ns:.1}, \"cached_32f_wall\": {cached_mf_ns:.1}, \"vs_uncached\": {vs_uncached:.3}"
            );
        }
        if name == "serve_edge32_p50" {
            // Throughput is context, not a gate: req/s on this 1-core
            // container tracks runner load far more than code changes.
            let _ = write!(extra, ", \"req_per_s\": {serve_req_per_s:.1}");
        }
        if name == "trng_fill_word_4096" {
            if let Some(per_bit) = results
                .iter()
                .find(|(n, _)| n.as_str() == "trng_fill_per_bit_4096")
                .map(|(_, reference)| *reference)
            {
                let _ = write!(extra, ", \"speedup_vs_per_bit\": {:.2}", per_bit / ns);
            }
        }
        match baseline {
            Some(base) => {
                let speedup = base / ns;
                println!("{name:<44} {speedup:>10.1}x vs pre-PR baseline");
                let _ = writeln!(
                    json,
                    "  \"{name}\": {{\"ns\": {ns:.1}, \"pre_pr_baseline_ns\": {base:.1}, \"speedup\": {speedup:.2}{extra}}}{comma}"
                );
            }
            None => {
                let _ = writeln!(json, "  \"{name}\": {{\"ns\": {ns:.1}{extra}}}{comma}");
            }
        }
    }
    for (name, ops) in ops_results.iter() {
        let _ = writeln!(json, "  \"{name}\": {{\"ops\": {ops:.3}}},");
    }
    let _ = writeln!(
        json,
        // Six decimals so the deterministic rates round-trip exactly
        // through the 0.01% gate (1/512-grain values need > 4 digits).
        "  \"compile_cache\": {{\"hit_rate\": {hit_rate:.6}, \"miss_rate\": {miss_rate:.6}, \
         \"lookups\": {lookups}, \"misses\": {misses}, \"fallbacks\": {fallbacks}, \
         \"compile_cost_vs_uncached\": {compile_vs_uncached:.4}}},"
    );
    if let Some(mc) = &multicore {
        let _ = writeln!(json, "  {mc},");
    }
    // Ungated serving context: how the overload run degraded. The
    // errors-free contract is asserted above; the split between shed
    // and downgraded depends on runner speed, so no gate reads it.
    let _ = writeln!(
        json,
        "  \"serve_overload\": {{\"requests\": 24, \"served\": {}, \"downgraded\": {}, \
         \"shed\": {}, \"errors\": {}}},",
        serve_overload.served,
        serve_overload.downgraded,
        serve_overload.shed,
        serve_overload.errors
    );
    for (i, (name, replay)) in replay_results.iter().enumerate() {
        let comma = if i + 1 == replay_results.len() {
            ""
        } else {
            ","
        };
        let _ = writeln!(
            json,
            "  \"{name}\": {{\"energy_nj\": {:.3}, \"busy_ns\": {:.3}, \"commands\": {}}}{comma}",
            replay.energy_nj, replay.busy_ns, replay.commands
        );
    }
    json.push_str("}\n");
    std::fs::write(&out, json).expect("writable output path");
    println!("wrote {out}");

    if let Some((
        path,
        anchors,
        base_ops,
        base_ratios,
        base_energy,
        base_busy,
        base_cache,
        base_cache_ratio,
    )) = baseline
    {
        // The pipelined anchor's absolute time is gated through the
        // same-run ratio below, not through wall-clock: its ns flapped
        // with runner load while the A/B ratio is load-invariant.
        const PIPELINED_ANCHOR: &str = "bilinear_sc_reram_pipelined_64_to_128_n256";
        let ns_anchors: Vec<(String, f64)> = anchors
            .iter()
            .filter(|(n, _)| n != PIPELINED_ANCHOR)
            .cloned()
            .collect();
        let mut failed = false;
        let found = bench::regress::regressions(&ns_anchors, &results, threshold);
        for r in &found {
            eprintln!("  wall-clock: {r}");
        }
        failed |= !found.is_empty();

        let lookup = |set: &[(String, f64)], name: &str| {
            set.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
        };
        let measured_ratio = match (
            lookup(&results, PIPELINED_ANCHOR),
            lookup(&results, "bilinear_sc_reram_64_to_128_n256"),
        ) {
            (Some(pipelined), Some(per_tile)) => {
                vec![(PIPELINED_ANCHOR.to_string(), pipelined / per_tile)]
            }
            _ => Vec::new(),
        };
        let found = bench::regress::regressions(&base_ratios, &measured_ratio, threshold);
        for r in &found {
            match r.measured_ns {
                Some(ratio) => eprintln!(
                    "  vs_per_tile ratio: {}: {ratio:.3} vs baseline {:.3} (+{:.1}%)",
                    r.name, r.baseline_ns, r.slowdown_pct
                ),
                None => eprintln!("  vs_per_tile ratio: {}: no longer measured", r.name),
            }
        }
        failed |= !found.is_empty();

        // Deterministic counters: only float-formatting slack allowed.
        let found = bench::regress::regressions(&base_ops, &ops_results, 0.01);
        for r in &found {
            match r.measured_ns {
                Some(ops) => eprintln!(
                    "  ops/pixel: {}: {ops:.3} vs baseline {:.3} (+{:.2}%)",
                    r.name, r.baseline_ns, r.slowdown_pct
                ),
                None => eprintln!("  ops/pixel: {}: no longer measured", r.name),
            }
        }
        failed |= !found.is_empty();

        // Template-cache counters: deterministic, exact-gated — a
        // workload or keying change that costs hits shows up as a
        // miss-rate/lookup increase and fails here.
        let measured_cache = vec![
            ("compile_cache.miss_rate".to_string(), miss_rate),
            ("compile_cache.lookups".to_string(), lookups as f64),
            ("compile_cache.misses".to_string(), misses as f64),
        ];
        let found = bench::regress::regressions(&base_cache, &measured_cache, 0.01);
        for r in &found {
            match r.measured_ns {
                Some(v) => eprintln!(
                    "  compile cache: {}: {v:.4} vs baseline {:.4} (+{:.2}%)",
                    r.name, r.baseline_ns, r.slowdown_pct
                ),
                None => eprintln!("  compile cache: {}: no longer measured", r.name),
            }
        }
        failed |= !found.is_empty();

        // The cached/uncached same-run ratio: load-invariant like
        // vs_per_tile, gated at the wall-clock threshold.
        let measured_cache_ratio = vec![(CACHED_ANCHOR.to_string(), vs_uncached)];
        let found =
            bench::regress::regressions(&base_cache_ratio, &measured_cache_ratio, threshold);
        for r in &found {
            match r.measured_ns {
                Some(v) => eprintln!(
                    "  vs_uncached ratio: {}: {v:.3} vs baseline {:.3} (+{:.1}%)",
                    r.name, r.baseline_ns, r.slowdown_pct
                ),
                None => eprintln!("  vs_uncached ratio: {}: no longer measured", r.name),
            }
        }
        failed |= !found.is_empty();

        // Replayed energy/latency: deterministic simulation, same
        // tolerance band as the counters — any real increase fails.
        let measured_energy: Vec<(String, f64)> = replay_results
            .iter()
            .map(|(n, r)| (n.clone(), r.energy_nj))
            .collect();
        let measured_busy: Vec<(String, f64)> = replay_results
            .iter()
            .map(|(n, r)| (n.clone(), r.busy_ns))
            .collect();
        for (family, base, measured) in [
            ("replay energy_nj", &base_energy, &measured_energy),
            ("replay busy_ns", &base_busy, &measured_busy),
        ] {
            let found = bench::regress::regressions(base, measured, 0.01);
            for r in &found {
                match r.measured_ns {
                    Some(v) => eprintln!(
                        "  {family}: {}: {v:.3} vs baseline {:.3} (+{:.2}%)",
                        r.name, r.baseline_ns, r.slowdown_pct
                    ),
                    None => eprintln!("  {family}: {}: no longer measured", r.name),
                }
            }
            failed |= !found.is_empty();
        }

        if failed {
            eprintln!("bench-check: anchors regressed (see above)");
            std::process::exit(1);
        }
        println!(
            "bench-check: OK ({} ns anchors within {threshold}%, {} ratio + {} ops + {} replay + {} cache anchors, vs {path})",
            ns_anchors.len(),
            base_ratios.len() + base_cache_ratio.len(),
            base_ops.len(),
            base_energy.len() + base_busy.len(),
            base_cache.len()
        );
    }
}
