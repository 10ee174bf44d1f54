//! End-to-end service behaviour: parity with the library dispatch,
//! coalescing, overload shedding, shard-retirement degradation, and
//! clean TCP shutdown.

use imgproc::request::{self, Backend, KernelRequest};
use imgproc::{synth, ScReramConfig, Schedule};
use imsc::PlanCache;
use serve::{Client, Outcome, Server, Service, ServiceConfig, ShedReason, Status};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

fn edge_req(n: usize, seed: u64) -> KernelRequest {
    KernelRequest::Edge {
        image: synth::value_noise(n, n, 3, seed),
    }
}

fn quick_service(engine: ScReramConfig) -> Service {
    Service::start(ServiceConfig {
        engine,
        batch_window: Duration::from_millis(1),
        default_deadline: Duration::from_secs(3600),
        ..ServiceConfig::default()
    })
    .expect("service starts")
}

/// Service responses are bit-identical to the library dispatch run
/// standalone — batching and the service plumbing change nothing.
#[test]
fn service_matches_library_dispatch_bit_exactly() {
    let engine = ScReramConfig::new(64, 11);
    let service = quick_service(engine.clone());
    let reqs = [
        edge_req(16, 5),
        KernelRequest::Bilinear {
            src: synth::gradient(8, 8, true),
            factor: 2,
        },
    ];
    for req in reqs {
        let expect = request::run(&req, &engine).expect("library run");
        let done = service.submit(req).expect("valid request").wait();
        let Outcome::Done(resp) = done.outcome else {
            panic!("expected completion, got {:?}", done.outcome);
        };
        assert_eq!(resp.pixels, expect.pixels);
        assert!(!done.downgraded);
        assert_eq!(done.effective_n, 64);
    }
    service.shutdown();
    let stats = service.stats();
    assert_eq!(stats.served, 2);
    assert_eq!(stats.failed, 0);
}

/// Same-shape requests submitted together coalesce into fewer batches
/// than requests, and every response is still per-frame bit-exact.
#[test]
fn same_shape_requests_coalesce_and_stay_bit_exact() {
    let engine = ScReramConfig::new(64, 7).with_plan_cache(Arc::new(PlanCache::new()));
    let service = Service::start(ServiceConfig {
        engine: engine.clone(),
        batch_window: Duration::from_millis(50),
        max_batch: 8,
        default_deadline: Duration::from_secs(3600),
        ..ServiceConfig::default()
    })
    .expect("service starts");
    let reqs: Vec<KernelRequest> = (0..6).map(|i| edge_req(16, i)).collect();
    let tickets: Vec<_> = reqs
        .iter()
        .map(|r| service.submit(r.clone()).expect("valid request"))
        .collect();
    for (req, ticket) in reqs.iter().zip(tickets) {
        let done = ticket.wait();
        let Outcome::Done(resp) = done.outcome else {
            panic!("expected completion, got {:?}", done.outcome);
        };
        let expect = request::run(req, &engine).expect("library run");
        assert_eq!(resp.pixels, expect.pixels, "coalescing changed pixels");
    }
    service.shutdown();
    let stats = service.stats();
    assert_eq!(stats.served, 6);
    assert!(
        stats.batches < 6,
        "6 same-shape requests should coalesce, got {} batches",
        stats.batches
    );
}

/// 2× overload with tight deadlines: every request gets an honest
/// response — served (possibly downgraded) or shed — and never an
/// error.
#[test]
fn overload_sheds_or_downgrades_without_errors() {
    let service = Service::start(ServiceConfig {
        engine: ScReramConfig::new(256, 3),
        queue_depth: 4,
        batch_window: Duration::from_micros(200),
        max_batch: 4,
        // Deadlines the 48x48 workload cannot all make on one worker.
        default_deadline: Duration::from_millis(40),
        min_stream_len: 32,
        ..ServiceConfig::default()
    })
    .expect("service starts");
    let tickets: Vec<_> = (0..24)
        .map(|i| service.submit(edge_req(48, i)).expect("valid request"))
        .collect();
    let mut served = 0u32;
    let mut shed = 0u32;
    let mut downgraded = 0u32;
    for t in tickets {
        match t.wait() {
            serve::Completed {
                outcome: Outcome::Done(_),
                downgraded: d,
                ..
            } => {
                served += 1;
                downgraded += u32::from(d);
            }
            serve::Completed {
                outcome: Outcome::Shed(_),
                ..
            } => shed += 1,
            other => panic!("overload must never produce an error: {:?}", other.outcome),
        }
    }
    service.shutdown();
    let stats = service.stats();
    assert_eq!(stats.failed, 0, "no error responses under overload");
    assert_eq!(u64::from(served + shed), stats.submitted);
    assert!(
        shed + downgraded > 0,
        "2x overload must shed or downgrade something (served {served}, shed {shed}, downgraded {downgraded})"
    );
}

/// A shard dying mid-run (pathological fault rates + retirement)
/// degrades the farm but requests still complete successfully.
#[test]
fn shard_retirement_degrades_instead_of_failing() {
    // `ScReramConfig::validate()` rejects a faulty farm whose requested
    // optimizer level is not Off (fault injection forces it off), so pin
    // Off here rather than inherit an `IMSC_OPTIMIZE` override.
    let engine = ScReramConfig::new(64, 9)
        .with_schedule(Schedule::Pipelined { arrays: 3 })
        .with_array_faults(1, reram::faults::FaultRates::uniform(0.05))
        .with_retirement(imsc::RetirementPolicy {
            max_faults_per_op: 0.01,
            min_ops: 1_000,
        })
        .with_optimize(imsc::Optimize::Off);
    let service = quick_service(engine);
    let done = service
        .submit(KernelRequest::Bilinear {
            src: synth::gradient(16, 16, true),
            factor: 2,
        })
        .expect("valid request")
        .wait();
    let Outcome::Done(resp) = done.outcome else {
        panic!("retirement must degrade, not fail: {:?}", done.outcome);
    };
    let report = resp
        .stats
        .expect("sc-reram stats")
        .pipeline
        .expect("pipelined run reports");
    assert!(report.retired_arrays >= 1, "pathological shard retired");
    service.shutdown();
    assert_eq!(service.stats().failed, 0);
}

/// One request of each kernel, with content drawn from `seed`.
fn kernel_mix(seed: u64) -> [KernelRequest; 4] {
    let app = synth::app_images(16, 16, seed);
    let composite = imgproc::compositing::software(&app.foreground, &app.background, &app.alpha)
        .expect("app images share one size");
    [
        edge_req(16, seed),
        KernelRequest::Bilinear {
            src: synth::value_noise(8, 8, 3, seed),
            factor: 2,
        },
        KernelRequest::Compositing {
            foreground: app.foreground.clone(),
            background: app.background.clone(),
            alpha: app.alpha,
        },
        KernelRequest::Matting {
            image: composite,
            background: app.background,
            foreground: app.foreground,
        },
    ]
}

/// Faults driven through the whole service: a pipelined farm with one
/// pathological array and a retirement policy serves a coalesced mix of
/// all four kernels. Every request completes, and its quality stays
/// within a few dB of the same request on a healthy farm — the farm
/// degrades, it never errors.
#[test]
fn faulty_farm_serves_every_kernel_within_a_psnr_floor() {
    // Fault injection forces the optimizer off; pin it rather than
    // inherit an `IMSC_OPTIMIZE` override.
    let healthy = ScReramConfig::new(64, 13)
        .with_schedule(Schedule::Pipelined { arrays: 3 })
        .with_retirement(imsc::RetirementPolicy {
            max_faults_per_op: 0.5,
            min_ops: 64,
        })
        .with_optimize(imsc::Optimize::Off);
    let faulty = healthy.with_array_faults(1, reram::faults::FaultRates::uniform(0.05));
    let service = Service::start(ServiceConfig {
        engine: faulty,
        batch_window: Duration::from_millis(5),
        max_batch: 8,
        default_deadline: Duration::from_secs(3600),
        ..ServiceConfig::default()
    })
    .expect("service starts");
    // Grouped by kernel: the batcher coalesces consecutive same-shape
    // requests, so retirement also runs on multi-frame batches.
    let mut reqs: Vec<KernelRequest> = (0..6).flat_map(kernel_mix).collect();
    reqs.sort_by_key(KernelRequest::kernel_name);
    assert!(reqs.len() >= 24);
    let tickets: Vec<_> = reqs
        .iter()
        .map(|r| service.submit(r.clone()).expect("valid request"))
        .collect();
    let mut retired = 0usize;
    for (req, ticket) in reqs.iter().zip(tickets) {
        let kernel = req.kernel_name();
        let done = ticket.wait();
        let Outcome::Done(resp) = done.outcome else {
            panic!(
                "{kernel}: a faulty farm must degrade, not fail: {:?}",
                done.outcome
            );
        };
        let report = resp.stats.and_then(|s| s.pipeline);
        retired = retired.max(report.expect("pipelined run reports").retired_arrays);
        let reference = request::run_on(req, &Backend::Software, &healthy)
            .expect("software run")
            .pixels;
        let healthy_px = request::run(req, &healthy).expect("healthy run").pixels;
        let floor = imgproc::metrics::psnr(&healthy_px, &reference).unwrap() - 3.0;
        let got = imgproc::metrics::psnr(&resp.pixels, &reference).unwrap();
        assert!(
            got >= floor,
            "{kernel}: PSNR {got:.2} dB under the {floor:.2} dB floor"
        );
    }
    assert!(retired >= 1, "the pathological array is retired");
    service.shutdown();
    let stats = service.stats();
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.served, reqs.len() as u64);
    assert!(
        stats.batches < stats.served,
        "same-kernel runs coalesce, so retirement runs on batches ({} batches)",
        stats.batches
    );
}

/// Admission rejects invalid requests and deep-conflict configurations
/// by name, before any work starts.
#[test]
fn admission_validation_rejects_bad_requests_and_configs() {
    let service = quick_service(ScReramConfig::new(64, 1));
    let err = service
        .submit(KernelRequest::Bilinear {
            src: synth::gradient(4, 4, true),
            factor: 1,
        })
        .unwrap_err();
    assert!(err.to_string().contains("invalid parameter"));
    service.shutdown();

    // Config conflicts are caught at service start-up.
    let bad = ScReramConfig::new(64, 1).with_retirement(imsc::RetirementPolicy::default());
    let err = Service::start(ServiceConfig {
        engine: bad,
        ..ServiceConfig::default()
    })
    .unwrap_err();
    assert!(
        err.to_string()
            .contains("retirement policy requires Schedule::Pipelined"),
        "got: {err}"
    );
}

/// Full TCP round trip: kernel requests over the wire match the
/// library, baseline backends dispatch, shutdown is clean and drains.
#[test]
fn tcp_roundtrip_and_clean_shutdown() {
    let engine = ScReramConfig::new(64, 21);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let server = Server::start(
        listener,
        ServiceConfig {
            engine: engine.clone(),
            batch_window: Duration::from_millis(1),
            default_deadline: Duration::from_secs(3600),
            ..ServiceConfig::default()
        },
    )
    .expect("server starts");

    let mut client = Client::connect(server.addr()).expect("connect");
    let req = edge_req(16, 2);
    let resp = client.call(&req, None).expect("wire call");
    assert_eq!(resp.status, Status::Ok);
    let expect = request::run(&req, &engine).expect("library run");
    assert_eq!(resp.pixels.expect("pixels"), expect.pixels);
    assert_eq!(resp.effective_n, 64);

    // A baseline backend over the same wire (software = exact kernel).
    let img = synth::gradient(12, 12, true);
    let sw = client
        .call_backend(&KernelRequest::Edge { image: img.clone() }, 3, 0.0, None)
        .expect("software call");
    assert_eq!(sw.status, Status::Ok);
    assert_eq!(sw.pixels.expect("pixels"), imgproc::edge::software(&img));

    let bye = client.shutdown().expect("shutdown ack");
    assert_eq!(bye.status, Status::Ok);
    server.wait();
    let stats = server.service().stats();
    assert_eq!(stats.served, 1, "one sc-reram request served");
    assert_eq!(stats.failed, 0);
}

/// A well-framed request that fails validation is answered with an
/// error over the wire, and the connection keeps serving.
#[test]
fn invalid_wire_request_is_answered_and_the_connection_survives() {
    let engine = ScReramConfig::new(64, 23);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let server = Server::start(
        listener,
        ServiceConfig {
            engine: engine.clone(),
            batch_window: Duration::from_millis(1),
            default_deadline: Duration::from_secs(3600),
            ..ServiceConfig::default()
        },
    )
    .expect("server starts");
    let mut client = Client::connect(server.addr()).expect("connect");
    let bad = KernelRequest::Bilinear {
        src: synth::gradient(4, 4, true),
        factor: 1,
    };
    let resp = client.call(&bad, None).expect("answered, not dropped");
    assert_eq!(resp.status, Status::Error);
    assert!(resp.message.contains("at least 2"), "{}", resp.message);
    let req = edge_req(16, 3);
    let resp = client.call(&req, None).expect("same connection");
    assert_eq!(resp.status, Status::Ok);
    let expect = request::run(&req, &engine).expect("library run");
    assert_eq!(resp.pixels.expect("pixels"), expect.pixels);
    client.shutdown().expect("shutdown ack");
    server.wait();
}

/// Queue-full admission shed resolves the ticket immediately with
/// `ShedReason::QueueFull` (not an error, not a hang).
#[test]
fn queue_full_sheds_at_the_door() {
    let service = Service::start(ServiceConfig {
        engine: ScReramConfig::new(256, 3),
        queue_depth: 1,
        batch_window: Duration::from_millis(200),
        max_batch: 1,
        default_deadline: Duration::from_secs(3600),
        ..ServiceConfig::default()
    })
    .expect("service starts");
    // Flood far past the queue depth; at least one must shed QueueFull.
    let tickets: Vec<_> = (0..16)
        .map(|i| service.submit(edge_req(32, i)).expect("valid request"))
        .collect();
    let mut queue_sheds = 0;
    for t in tickets {
        if let Outcome::Shed(ShedReason::QueueFull) = t.wait().outcome {
            queue_sheds += 1;
        }
    }
    service.shutdown();
    assert!(queue_sheds > 0, "flooding a depth-1 queue must shed");
    assert_eq!(service.stats().shed_queue, queue_sheds);
}
