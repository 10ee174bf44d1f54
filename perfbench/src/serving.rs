//! `serve-poisson`: an open loop against an in-process `serve::Server`.
//!
//! Seeded Poisson arrivals at a fixed mean rate send the four kernels,
//! mixed, pipelined over one TCP connection — one sender thread, one
//! receiver thread. The server runs the `serve` binary's defaults.
//! Latency is timed from when each request was due, so a stall also
//! charges the requests queued behind it; the generator's own lateness
//! is reported beside it.

use crate::arrivals::{derive, poisson, Arrival};
use crate::hostref::HostRef;
use crate::report::{Metrics, Outcome};
use crate::stats::{median, percentile, ratio};
use crate::trace::Tracer;
use crate::workload::{
    self, latency_metrics, psnr_db, quality_metrics, Case, Checks, Frame, KERNELS, SETUPS,
};
use imgproc::request;
use imgproc::{ScReramConfig, Schedule};
use imsc::pipeline::PipelineModel;
use imsc::{Optimize, PlanCache};
use serve::proto::{self, WireBody, WireRequest, WireResponse};
use serve::{Server, ServiceConfig, StatsSnapshot, Status};
use std::io::{BufReader, BufWriter};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Mean arrival rate: light load. The worker's median batch service
/// time is about 13 ms on a 2-core host; at 35 req/s, one run in five taken while
/// the shared host ran a fifth slower fell into a growing backlog (p95
/// 0.5 s), and at 25 req/s queueing still turned host-speed drift into
/// ±40% latency swings. Arrival bursts still build transient queues.
const RATE_PER_S: f64 = 15.0;

/// Latency limit a request must be answered Ok within, ms (about twice
/// this workload's p95 on a 2-core host).
const LIMIT_MS: f64 = 100.0;

/// Distinct pooled inputs per kernel.
const POOL: usize = 8;

/// The `serve` binary's default stream length.
const N: usize = 256;

/// How long the receiver waits for any one response before giving up.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

struct State {
    server: Server,
    engine: ScReramConfig,
    cache: Arc<PlanCache>,
    pool: Vec<Case>,
    checks: Checks,
}

impl Drop for State {
    fn drop(&mut self) {
        self.server.shutdown();
    }
}

/// The `serve` binary's defaults on a 2-core host, pinned.
fn service_config(seed: u64, cache: &Arc<PlanCache>) -> ServiceConfig {
    ServiceConfig {
        engine: ScReramConfig::new(N, seed)
            .with_optimize(Optimize::Off)
            .with_plan_cache(Arc::clone(cache))
            .with_schedule(Schedule::Pipelined { arrays: 4 }),
        queue_depth: 64,
        batch_window: Duration::from_millis(2),
        max_batch: 8,
        workers: 1,
        model: PipelineModel::evaluation_default(),
        default_deadline: Duration::from_millis(500),
        min_stream_len: 32,
    }
}

fn key(kernel: usize, input: usize) -> u64 {
    (kernel * POOL + input) as u64
}

/// Inputs and references, a solo run of every input (warms the plan
/// cache and pins each input's expected output at N), one run per
/// kernel at each downgraded N, then `Server::start` with its
/// calibration request.
fn setup(seed: u64) -> State {
    let cache = Arc::new(PlanCache::new());
    let cfg = service_config(seed, &cache);
    let mut checks = Checks::default();
    let pool: Vec<Case> = (0..KERNELS.len() * POOL)
        .map(|i| {
            let (k, input) = (i / POOL, i % POOL);
            Case::new(k, derive(seed, 3_000_000 + i as u64), key(k, input))
        })
        .collect();
    for case in &pool {
        match request::run(&case.req, &cfg.engine) {
            Ok(resp) => checks.expect_output(case.key, N, &resp.pixels),
            Err(e) => checks.fail(format!("warm-up {}: {e}", KERNELS[case.kernel])),
        }
    }
    // Templates for every stream length of the downgrade ladder, so a
    // run's first downgrades do not pay cold compiles.
    let mut n = N / 2;
    while n >= cfg.min_stream_len {
        let mut engine = cfg.engine.clone();
        engine.stream_len = n;
        for k in 0..KERNELS.len() {
            if let Err(e) = request::run(&pool[key(k, 0) as usize].req, &engine) {
                checks.fail(format!("warm-up {} at N={n}: {e}", KERNELS[k]));
            }
        }
        n /= 2;
    }
    let engine = cfg.engine.clone();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let server = Server::start(listener, cfg).expect("start the service");
    State {
        server,
        engine,
        cache,
        pool,
        checks,
    }
}

/// One request as the client saw it.
struct Record {
    arrival: Arrival,
    /// Send time minus due time, ms.
    late_ms: f64,
    /// Response read time minus due time, ms.
    latency_ms: f64,
    resp: WireResponse,
}

/// How often the open loop looks for an idle gap to time the host
/// reference in.
const PROBE_EVERY: Duration = Duration::from_millis(200);

/// Free time a reference sample needs before the next request is due.
const PROBE_GAP: Duration = Duration::from_millis(10);

/// Drives one open-loop phase over a fresh connection. Returns the
/// records in send order, or a description of the wire failure. While
/// it runs, the calling thread times the host reference in idle gaps —
/// nothing in flight and the next request not due for [`PROBE_GAP`] —
/// so the samples cover the same stretch of host time as the requests
/// without competing with them.
fn phase(
    st: &State,
    arrivals: &[Arrival],
    tracer: &mut Tracer,
    host: &mut HostRef,
) -> Result<Vec<Record>, String> {
    let stream = TcpStream::connect(st.server.addr()).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(READ_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let read_half = stream.try_clone().map_err(|e| e.to_string())?;
    let frames: Vec<WireRequest> = arrivals
        .iter()
        .enumerate()
        .map(|(i, a)| WireRequest {
            id: i as u64,
            deadline_us: 0,
            backend: 0,
            fault_prob: 0.0,
            body: WireBody::Kernel(st.pool[key(a.kernel, a.input) as usize].req.clone()),
        })
        .collect();
    let start = Instant::now() + Duration::from_millis(20);
    let due = |a: &Arrival| start + Duration::from_nanos(a.due_ns);
    let mut send_tracer = if tracer.enabled() {
        Tracer::new(tracer.epoch())
    } else {
        Tracer::disabled()
    };

    let (in_flight_sent, in_flight_got) = (AtomicUsize::new(0), AtomicUsize::new(0));

    let (sent, got) = std::thread::scope(|s| {
        let sender = s.spawn(|| {
            let mut w = BufWriter::new(stream);
            let mut sent = Vec::with_capacity(frames.len());
            for (a, frame) in arrivals.iter().zip(&frames) {
                let at = due(a);
                if let Some(wait) = at.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                in_flight_sent.fetch_add(1, Ordering::SeqCst);
                let t0 = Instant::now();
                send_tracer
                    .span("serve.send", frame.id, |_| {
                        proto::write_request(&mut w, frame)
                    })
                    .map_err(|e| format!("send {}: {e}", frame.id))?;
                sent.push(t0.saturating_duration_since(at).as_secs_f64() * 1e3);
            }
            Ok::<_, String>(sent)
        });
        let receiver = s.spawn(|| {
            let mut r = BufReader::new(read_half);
            let mut got = Vec::with_capacity(frames.len());
            while got.len() < frames.len() {
                let resp = proto::read_response(&mut r).map_err(|e| format!("receive: {e}"))?;
                got.push((Instant::now(), resp));
                in_flight_got.fetch_add(1, Ordering::SeqCst);
            }
            Ok::<_, String>(got)
        });
        while !(sender.is_finished() && receiver.is_finished()) {
            std::thread::sleep(PROBE_EVERY);
            let n = in_flight_sent.load(Ordering::SeqCst);
            let idle = n == in_flight_got.load(Ordering::SeqCst);
            let next_due = arrivals.get(n).map(due);
            if idle && next_due.is_some_and(|d| d > Instant::now() + PROBE_GAP) {
                host.sample();
            }
        }
        (
            sender.join().expect("sender thread"),
            receiver.join().expect("receiver thread"),
        )
    });
    let (sent, got) = (sent?, got?);
    tracer.absorb(send_tracer);

    let mut by_id: Vec<Option<(Instant, WireResponse)>> =
        (0..arrivals.len()).map(|_| None).collect();
    for (at, resp) in got {
        let slot = by_id
            .get_mut(resp.id as usize)
            .ok_or_else(|| format!("unknown response id {}", resp.id))?;
        if slot.replace((at, resp)).is_some() {
            return Err("duplicate response id".into());
        }
    }
    arrivals
        .iter()
        .zip(sent)
        .zip(by_id)
        .enumerate()
        .map(|(i, ((a, late_ms), got))| {
            let (at, resp) = got.ok_or_else(|| format!("no response for request {i}"))?;
            tracer.record("serve.request", i as u64, due(a), at);
            Ok(Record {
                arrival: *a,
                late_ms,
                latency_ms: at.saturating_duration_since(due(a)).as_secs_f64() * 1e3,
                resp,
            })
        })
        .collect()
}

/// Checks responses and turns Ok ones into frames.
fn frames_of(records: &[Record], st: &State, checks: &mut Checks) -> (Vec<Frame>, u64) {
    let mut frames = Vec::new();
    let mut failed = 0;
    for r in records {
        let case = &st.pool[key(r.arrival.kernel, r.arrival.input) as usize];
        match (&r.resp.status, &r.resp.pixels) {
            (Status::Ok, Some(px)) => {
                let n = r.resp.effective_n as usize;
                checks.same_output(case.key, n, px);
                frames.push(Frame {
                    kernel: case.kernel,
                    n,
                    latency_ms: r.latency_ms,
                    px: px.pixels().len(),
                    psnr: psnr_db(&case.reference, px),
                    stats: None,
                });
            }
            (Status::Shed, _) => failed += 1,
            (status, _) => {
                failed += 1;
                checks.fail(format!(
                    "request {}: {status:?} response: {}",
                    r.resp.id, r.resp.message
                ));
            }
        }
    }
    (frames, failed)
}

/// Modelled energy and latency of the served mix at the configured N.
/// The ledger is not on the wire, so one input per kernel is run
/// in-process and weighted by the pixels served of that kernel.
/// Downgrades are left out: the N a request ran at follows the
/// service's host-speed calibration, not the workload.
fn modelled_mix(frames: &[Frame], st: &State, checks: &mut Checks) -> (f64, f64) {
    let (mut energy, mut latency) = (0.0, 0.0);
    for (k, name) in KERNELS.iter().enumerate() {
        let px: f64 = frames
            .iter()
            .filter(|f| f.kernel == k)
            .map(|f| f.px as f64)
            .sum();
        match request::run(&st.pool[key(k, 0) as usize].req, &st.engine) {
            Ok(resp) => {
                let stats = resp.stats.expect("SC-ReRAM stats");
                let (e, l) = workload::modelled(&stats, N);
                let per_px = px / resp.pixels.pixels().len() as f64;
                energy += e * per_px;
                latency += l * per_px;
            }
            Err(e) => checks.fail(format!("modelled-cost run {name}: {e}")),
        }
    }
    (energy, latency)
}

/// `request::run` wall time of one input per kernel on the pipelined
/// engine over the same engine on `PerTile`.
fn vs_per_tile(st: &State) -> f64 {
    let per_tile = st.engine.with_schedule(Schedule::PerTile);
    let reqs = (0..KERNELS.len()).map(|k| &st.pool[key(k, 0) as usize].req);
    let (pipelined, base) = workload::paired_ms(reqs, &st.engine, &per_tile);
    ratio(pipelined, base)
}

/// Runs the workload; a traced run measures half its time untraced (for
/// the tracing overhead) and traces the other half.
pub fn run(seed: u64, seconds: f64, tracer: &mut Tracer) -> Outcome {
    let traced = tracer.enabled();
    let (mut st, setup_s) = workload::timed_setup(if traced { 1 } else { SETUPS }, || setup(seed));
    let mut checks = std::mem::take(&mut st.checks);
    let mut out = Outcome::default();
    let mut m = Metrics::default();
    let plain_s = if traced { seconds / 2.0 } else { seconds };

    let mut host = HostRef::default();
    let arrivals = poisson(derive(seed, 1), RATE_PER_S, plain_s, KERNELS.len(), POOL);
    let plain = phase(&st, &arrivals, &mut Tracer::disabled(), &mut host);
    let scale = host.time_scale();
    m.set("host.ref_ms", host.median_ms());
    m.set("setup_s", setup_s * scale);
    let mut all = Vec::new();
    match plain {
        Ok(records) => {
            let (frames, failed) = frames_of(&records, &st, &mut checks);
            out.attempted += records.len() as u64;
            out.failed += failed;
            latency_metrics(&mut m, &frames, records.len() as u64, LIMIT_MS, scale);
            if !traced {
                // Goodput over the span from the schedule's start to the
                // last response read. It is bounded by the fixed offered
                // load, not by host speed, so only the limit check is
                // scaled.
                let span_s = records
                    .iter()
                    .map(|r| r.arrival.due_ns as f64 / 1e9 + r.latency_ms / 1e3)
                    .fold(0.0, f64::max);
                let good_px: f64 = frames
                    .iter()
                    .filter(|f| f.latency_ms * scale <= LIMIT_MS)
                    .map(|f| f.px as f64)
                    .sum();
                m.set("px_per_s", ratio(good_px, span_s));
                let px: f64 = frames.iter().map(|f| f.px as f64).sum();
                let (e, l) = modelled_mix(&frames, &st, &mut checks);
                m.set("sim_energy_nj_per_px", ratio(e, px));
                m.set("sim_latency_ns_per_px", ratio(l, px));
            }
            all = frames;
        }
        Err(e) => checks.fail(format!("open loop: {e}")),
    }

    if traced {
        let arrivals = poisson(
            derive(seed, 2),
            RATE_PER_S,
            seconds - plain_s,
            KERNELS.len(),
            POOL,
        );
        let before = (st.server.service().stats(), st.cache.stats());
        let mut useful = workload::Useful::default();
        useful.start(&st.cache);
        match phase(&st, &arrivals, tracer, &mut HostRef::default()) {
            Ok(records) => {
                let after = (st.server.service().stats(), st.cache.stats());
                let (frames, failed) = frames_of(&records, &st, &mut checks);
                out.attempted += records.len() as u64;
                out.failed += failed;
                serve_metrics(&mut m, &records, tracer, before.0, after.0);
                let (hits, misses) = (
                    after.1.hits - before.1.hits,
                    after.1.misses - before.1.misses,
                );
                m.set(
                    "compile.cache_hit_rate",
                    ratio(hits as f64, (hits + misses) as f64),
                );
                useful.note(&st.cache, misses);
                m.set("compile.useful_ratio", useful.ratio());
                m.set("trace.overhead_share", workload::overhead(&all, &frames));
                all.extend(frames);
            }
            Err(e) => checks.fail(format!("traced open loop: {e}")),
        }
        m.set("sched.vs_per_tile", vs_per_tile(&st));
        crate::substrate::floor(&mut m, N, seed);
        m.set("trace.spans", tracer.spans().len() as f64);
    }
    checks.psnr_floors(&all);
    quality_metrics(&mut m, &all);
    m.set("host.peak_rss_mb", workload::peak_rss_mb());
    drop(st);
    out.problems = checks.problems;
    out.metrics = m;
    out
}

/// The `serve.*` per-layer metrics of one traced phase.
fn serve_metrics(
    m: &mut Metrics,
    records: &[Record],
    t: &Tracer,
    before: StatsSnapshot,
    after: StatsSnapshot,
) {
    let ok: Vec<&Record> = records
        .iter()
        .filter(|r| r.resp.status == Status::Ok)
        .collect();
    let ms = |f: &dyn Fn(&Record) -> f64| median(&ok.iter().map(|r| f(r)).collect::<Vec<_>>());
    m.set("serve.queue_ms", ms(&|r| r.resp.queue_ns as f64 / 1e6));
    m.set("serve.service_ms", ms(&|r| r.resp.service_ns as f64 / 1e6));
    m.set(
        "serve.unaccounted_ms",
        ms(&|r| r.latency_ms - (r.resp.queue_ns + r.resp.service_ns) as f64 / 1e6),
    );
    m.set("serve.send_ms", median(&t.durations_ns("serve.send")) / 1e6);
    let d = |f: fn(&StatsSnapshot) -> u64| (f(&after) - f(&before)) as f64;
    m.set("serve.batch_size", ratio(d(|s| s.served), d(|s| s.batches)));
    m.set(
        "serve.downgraded_share",
        ratio(d(|s| s.downgraded), d(|s| s.served)),
    );
    m.set(
        "serve.shed_queue_share",
        ratio(d(|s| s.shed_queue), d(|s| s.submitted)),
    );
    m.set(
        "serve.shed_deadline_share",
        ratio(d(|s| s.shed_deadline), d(|s| s.submitted)),
    );
    for (k, name) in KERNELS.iter().enumerate() {
        let of_k: Vec<&&Record> = ok.iter().filter(|r| r.arrival.kernel == k).collect();
        let down = of_k.iter().filter(|r| r.resp.downgraded).count();
        eprintln!(
            "perfbench: serve {name}: {down} of {} answered requests downgraded",
            of_k.len()
        );
    }
    let late: Vec<f64> = records.iter().map(|r| r.late_ms).collect();
    m.set("serve.gen_late_ms", percentile(&late, 95.0).unwrap_or(0.0));
}
