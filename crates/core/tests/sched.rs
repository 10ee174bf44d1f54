//! Differential tests for the cross-array pipeline scheduler: the
//! measured initiation interval must sit in a tolerance band around the
//! analytic `PipelineModel::bottleneck_ns`, and pipelined execution must
//! be observationally identical to executing the same slices one by one.

use imsc::cost::ScOperation;
use imsc::engine::Accelerator;
use imsc::instrument::{ReplaySummary, SinkHandle, REPLAY_BANKS};
use imsc::pipeline::PipelineModel;
use imsc::program::sched::{self, PipelineRun, PipelineScheduler, RetirementPolicy};
use imsc::program::Program;
use imsc::{ExecArena, ImscError, ImsngVariant};
use reram::energy::ReramCosts;
use reram::faults::FaultRates;
use sc_core::Fixed;

const N: usize = 256;
const M: u32 = 8;

/// Relative tolerance between the scheduler's ledger-derived initiation
/// interval and the analytic stage model. The ledger charges a handful
/// of real-execution extras the closed-form model abstracts away (the
/// result-row write after an arithmetic op, the sense steps of CORDIV's
/// divisor scouting), so the band is deliberately wider than measurement
/// noise — but far tighter than any cross-stage confusion would allow.
const II_TOLERANCE: f64 = 0.25;

fn build(seed: u64) -> Result<Accelerator, ImscError> {
    Accelerator::builder()
        .stream_len(N)
        .segment_bits(M)
        .seed(seed)
        .build()
}

/// `wavefronts` independent encode→complement→read chains: stage ❶ is a
/// single conversion per wavefront, exactly the shape the analytic model
/// prices for the simple ops.
fn sng_bound_program(wavefronts: usize) -> Program {
    let mut p = Program::new();
    for i in 0..wavefronts {
        let x = p.encode(Fixed::from_u8(10 + (i % 200) as u8));
        let y = p.complement(x);
        p.read(y);
    }
    p
}

/// `wavefronts` CORDIV divisions: stage ❷ dominates by two orders of
/// magnitude (n · t_cordiv).
fn division_bound_program(wavefronts: usize) -> Program {
    let mut p = Program::new();
    for i in 0..wavefronts {
        let pair =
            p.encode_correlated(&[Fixed::from_u8(40 + (i % 100) as u8), Fixed::from_u8(200)]);
        let q = p.divide(pair[0], pair[1]);
        p.read(q);
    }
    p
}

#[test]
fn measured_ii_tracks_the_analytic_bottleneck_for_sng_bound_programs() {
    let program = sng_bound_program(24);
    let slices = sched::partition_into(&program, 6).unwrap();
    let run = PipelineScheduler::new(4)
        .run(&slices, |i| build(100 + i as u64))
        .unwrap();
    let report = run.report;
    assert_eq!(report.wavefronts, 24);

    let model = PipelineModel::new(4, M, ImsngVariant::Opt, ReramCosts::calibrated());
    let analytic = model.stages(ScOperation::Multiply, N).bottleneck_ns();
    let measured = report.initiation_interval_ns;
    let rel = (measured - analytic).abs() / analytic;
    assert!(
        rel < II_TOLERANCE,
        "measured II {measured} vs analytic bottleneck {analytic} (rel {rel})"
    );

    // SBS generation is the bottleneck stage, exactly as in Fig. 5's
    // simple-op columns, and the steady-state II equals its latency.
    let occ = report.stage_occupancy();
    assert!(occ[0] > occ[1] && occ[0] > occ[2], "occupancy {occ:?}");
    let per_wf_sbs = report.stage_busy_ns[0] / report.wavefronts as f64;
    assert!((measured - per_wf_sbs).abs() < 1e-6);

    // Aggregate throughput scales with arrays, as in the analytic model.
    assert!((report.throughput_ops_per_us() - 4.0 * 1000.0 / measured).abs() < 1e-9);
    assert!(report.pipeline_speedup() > 1.0);
}

#[test]
fn measured_ii_tracks_the_analytic_bottleneck_for_division_bound_programs() {
    let program = division_bound_program(10);
    let slices = sched::partition_into(&program, 5).unwrap();
    let run = PipelineScheduler::new(2)
        .run(&slices, |i| build(7 + i as u64))
        .unwrap();
    let report = run.report;

    let model = PipelineModel::new(2, M, ImsngVariant::Opt, ReramCosts::calibrated());
    let analytic = model.stages(ScOperation::Division, N).bottleneck_ns();
    let measured = report.initiation_interval_ns;
    let rel = (measured - analytic).abs() / analytic;
    assert!(
        rel < II_TOLERANCE,
        "measured II {measured} vs analytic bottleneck {analytic} (rel {rel})"
    );
    let occ = report.stage_occupancy();
    assert!(occ[1] > occ[0] && occ[1] > occ[2], "occupancy {occ:?}");
}

#[test]
fn pipelined_run_is_identical_to_per_slice_execution() {
    // A mixed program exercising every stage shape the kernels emit:
    // correlated encodes, blends with interior selects, divisions with
    // fallbacks, constant outputs.
    let mut p = Program::new();
    for i in 0..12u8 {
        let ops = p.encode_correlated(&[Fixed::from_u8(30 + 10 * (i % 4)), Fixed::from_u8(90 + i)]);
        p.next_group();
        let sel = p.encode(Fixed::from_u8(128));
        let blended = p.blend(ops[0], ops[1], sel);
        p.read(blended);
        if i % 3 == 0 {
            p.read_const(f64::from(i) / 16.0);
        }
    }
    let slices = sched::partition_into(&p, 4).unwrap();
    assert_eq!(slices.len(), 4);

    let run = PipelineScheduler::new(3)
        .run(&slices, |i| build(55 + i as u64))
        .unwrap();

    for (i, (slice, got)) in slices.iter().zip(&run.slices).enumerate() {
        let mut reference = build(55 + i as u64).unwrap();
        let want = slice.run_on(&mut reference).unwrap();
        assert_eq!(got.outputs, want, "slice {i} outputs");
        assert_eq!(&got.ledger, reference.ledger(), "slice {i} ledger");
        assert_eq!(got.rn_epochs, reference.rn_epoch(), "slice {i} epochs");
        assert_eq!(
            got.cache_hits,
            reference.encode_cache_hits(),
            "slice {i} cache hits"
        );
    }
}

fn build_with_rates(seed: u64, rates: FaultRates) -> Result<Accelerator, ImscError> {
    Accelerator::builder()
        .stream_len(N)
        .segment_bits(M)
        .seed(seed)
        .fault_rates(rates)
        .build()
}

/// A factory for a three-array farm where array 1 injects heavy bit
/// flips and the others are clean; the seed depends only on the slice,
/// so any clean array produces bit-identical results for it.
fn lopsided_farm(slice: usize, array: usize) -> Result<Accelerator, ImscError> {
    let rates = if array == 1 {
        FaultRates::uniform(0.05)
    } else {
        FaultRates::none()
    };
    build_with_rates(300 + slice as u64, rates)
}

#[test]
fn retirement_replaces_the_pathological_array() {
    let program = sng_bound_program(18);
    let slices = sched::partition_into(&program, 9).unwrap();
    let policy = RetirementPolicy {
        max_faults_per_op: 0.5,
        min_ops: 16,
    };
    let domain = PipelineScheduler::new(3)
        .run_with_domains(&slices, lopsided_farm, policy)
        .unwrap();

    assert!(domain.health[1].retired, "{:?}", domain.health);
    assert!(!domain.health[0].retired && !domain.health[2].retired);
    assert!(domain.health[1].fault_rate() > policy.max_faults_per_op);
    assert_eq!(domain.run.report.retired_arrays, 1);
    assert!(domain.run.report.rescheduled_slices >= 1);

    // Every kept result came from a clean array — the bad array's
    // contributions were discarded and re-run on survivors...
    assert_eq!(domain.assignments.len(), slices.len());
    assert!(domain.assignments.iter().all(|&a| a != 1));
    assert_eq!(
        domain.health.iter().map(|h| h.slices_run).sum::<usize>(),
        slices.len()
    );
    // ...so the outputs are bit-identical to fault-free per-slice
    // execution: retirement is lossless on a farm with clean survivors.
    for (i, (slice, got)) in slices.iter().zip(&domain.run.slices).enumerate() {
        let mut clean = build_with_rates(300 + i as u64, FaultRates::none()).unwrap();
        let want = slice.run_on(&mut clean).unwrap();
        assert_eq!(got.outputs, want, "slice {i}");
        assert_eq!(got.faults_injected, 0, "slice {i} kept a faulty result");
    }
}

#[test]
fn retirement_is_deterministic() {
    let program = sng_bound_program(12);
    let slices = sched::partition_into(&program, 6).unwrap();
    let policy = RetirementPolicy {
        max_faults_per_op: 0.5,
        min_ops: 16,
    };
    let a = PipelineScheduler::new(3)
        .run_with_domains(&slices, lopsided_farm, policy)
        .unwrap();
    let b = PipelineScheduler::new(3)
        .run_with_domains(&slices, lopsided_farm, policy)
        .unwrap();
    assert_eq!(a.health, b.health);
    assert_eq!(a.assignments, b.assignments);
    for (x, y) in a.run.slices.iter().zip(&b.run.slices) {
        assert_eq!(x.outputs, y.outputs);
        assert_eq!(x.stream_wear, y.stream_wear);
    }
}

#[test]
fn a_fault_free_domain_run_matches_the_plain_scheduler() {
    let program = division_bound_program(8);
    let slices = sched::partition_into(&program, 4).unwrap();
    let plain = PipelineScheduler::new(2)
        .run(&slices, |i| build(70 + i as u64))
        .unwrap();
    let domain = PipelineScheduler::new(2)
        .run_with_domains(
            &slices,
            |slice, _array| build(70 + slice as u64),
            RetirementPolicy::default(),
        )
        .unwrap();
    assert_eq!(domain.run.report.retired_arrays, 0);
    assert_eq!(domain.run.report.rescheduled_slices, 0);
    // Round-robin deal over a healthy farm.
    assert_eq!(domain.assignments, vec![0, 1, 0, 1]);
    for (p, d) in plain.slices.iter().zip(&domain.run.slices) {
        assert_eq!(p.outputs, d.outputs);
        assert_eq!(p.ledger, d.ledger);
    }
}

#[test]
fn retiring_every_array_is_an_error() {
    let program = sng_bound_program(6);
    let slices = sched::partition_into(&program, 3).unwrap();
    let err = PipelineScheduler::new(2)
        .run_with_domains(
            &slices,
            |slice, _array| build_with_rates(slice as u64, FaultRates::uniform(0.05)),
            RetirementPolicy {
                max_faults_per_op: 0.1,
                min_ops: 1,
            },
        )
        .unwrap_err();
    assert!(matches!(err, ImscError::InvalidConfig(m) if m.contains("retired")));
}

#[test]
fn scheduler_reports_the_lowest_indexed_failure() {
    let program = sng_bound_program(8);
    let slices = sched::partition_into(&program, 8).unwrap();
    let err = PipelineScheduler::new(2)
        .run(&slices, |i| {
            if i == 3 {
                Err(ImscError::InvalidConfig("injected factory failure"))
            } else {
                build(i as u64)
            }
        })
        .unwrap_err();
    assert!(matches!(err, ImscError::InvalidConfig(m) if m.contains("injected")));
}

#[test]
fn mid_run_failures_drain_the_pipeline_without_deadlock() {
    // Far more slices than workers, with failures injected at three
    // slice jobs — one early, two late. Jobs already claimed must
    // finish, and the lowest-indexed error must surface instead of a
    // hang. (Under `--features parallel` this exercises the threaded
    // work queue; without it, the sequential fallback must agree on the
    // error choice.)
    let program = sng_bound_program(32);
    let slices = sched::partition_into(&program, 32).unwrap();
    let err = PipelineScheduler::new(2)
        .run(&slices, |i| {
            if i == 17 || i == 23 {
                Err(ImscError::InvalidConfig("late injected failure"))
            } else if i == 11 {
                Err(ImscError::InvalidConfig("lowest injected failure"))
            } else {
                build(i as u64)
            }
        })
        .unwrap_err();
    assert!(matches!(err, ImscError::InvalidConfig(m) if m.contains("lowest")));
}

#[test]
fn pooled_arena_execution_matches_fresh_allocation() {
    let a = sng_bound_program(3);
    let b = division_bound_program(2);
    let mut arena = ExecArena::new();

    for (seed, prog) in [(1u64, &a), (2, &b), (3, &a)] {
        let mut acc_pooled = build(seed).unwrap();
        let mut acc_fresh = build(seed).unwrap();
        let plan = prog.plan().unwrap();
        let pooled = plan.execute_in(&mut acc_pooled, &mut arena).unwrap();
        let fresh = plan.execute(&mut acc_fresh).unwrap();
        assert_eq!(pooled, fresh);
        assert_eq!(acc_pooled.ledger(), acc_fresh.ledger());
    }
}

#[test]
fn partition_preserves_the_op_stream() {
    let p = division_bound_program(9);
    let slices = sched::partition_into(&p, 4).unwrap();
    let total_ops: usize = slices.iter().map(Program::len).sum();
    let total_outputs: usize = slices.iter().map(Program::outputs).sum();
    let total_regs: usize = slices.iter().map(Program::regs).sum();
    assert_eq!(total_ops, p.len());
    assert_eq!(total_outputs, p.outputs());
    assert_eq!(total_regs, p.regs());
}

fn build_traced(seed: u64, bank: usize) -> Result<Accelerator, ImscError> {
    Accelerator::builder()
        .stream_len(N)
        .segment_bits(M)
        .seed(seed)
        .record_trace(true)
        .trace_bank(bank % REPLAY_BANKS)
        .build()
}

/// A pipelined run over four arrays at a pinned worker count, with a
/// replay sink attached.
fn traced_run(slices: &[Program], workers: usize) -> (PipelineRun, ReplaySummary) {
    let sink = SinkHandle::for_stream_len(N).unwrap();
    let run = PipelineScheduler::new(4)
        .workers(workers)
        .sink(sink.clone())
        .run(slices, |i| build_traced(500 + i as u64, i))
        .unwrap();
    (run, sink.finish().unwrap())
}

#[test]
fn every_worker_count_matches_sequential_execution_with_a_sink() {
    let mut p = sng_bound_program(12);
    for i in 0..6u8 {
        let pair = p.encode_correlated(&[Fixed::from_u8(50 + i), Fixed::from_u8(220)]);
        let q = p.divide(pair[0], pair[1]);
        p.read(q);
    }
    let slices = sched::partition_into(&p, 9).unwrap();
    let (want, want_replay) = traced_run(&slices, 1);
    assert!(want_replay.commands > 0);
    for workers in [2, 4] {
        let (got, replay) = traced_run(&slices, workers);
        assert_eq!(got.report, want.report, "{workers} workers: report");
        assert_eq!(got.slices.len(), want.slices.len());
        for (i, (g, w)) in got.slices.iter().zip(&want.slices).enumerate() {
            assert_eq!(g.outputs, w.outputs, "{workers} workers: slice {i} outputs");
            assert_eq!(g.ledger, w.ledger, "{workers} workers: slice {i} ledger");
            assert_eq!(g.rn_epochs, w.rn_epochs, "{workers} workers: slice {i}");
            assert_eq!(g.cache_hits, w.cache_hits, "{workers} workers: slice {i}");
            assert_eq!(g.scout_ops, w.scout_ops, "{workers} workers: slice {i}");
            assert_eq!(g.stream_wear, w.stream_wear, "{workers} workers: slice {i}");
        }
        assert_eq!(replay, want_replay, "{workers} workers: replayed stream");
        // Slices drain in order at every worker count, so even the
        // buffering diagnostic is the largest single slice's trace.
        assert_eq!(
            replay.peak_buffered_commands, want_replay.peak_buffered_commands,
            "{workers} workers: buffering peak"
        );
    }
}

#[test]
fn mid_run_failures_with_a_sink_release_their_slots() {
    // Four workers wait on the sink's dispatch order. The failing
    // slices never drain a trace, so they must release their slots, or
    // every later slice would wait on them forever. Under `--features
    // parallel` the lowest failure first waits for slice 12's job to
    // start, so a later slice is always claimed and waiting to drain
    // when it fails.
    #[cfg(feature = "parallel")]
    let later_claimed = std::sync::Barrier::new(2);
    let program = sng_bound_program(32);
    let slices = sched::partition_into(&program, 32).unwrap();
    let sink = SinkHandle::for_stream_len(N).unwrap();
    let err = PipelineScheduler::new(4)
        .workers(4)
        .sink(sink.clone())
        .run(&slices, |i| {
            #[cfg(feature = "parallel")]
            if i == 11 || i == 12 {
                later_claimed.wait();
            }
            if i == 17 || i == 23 {
                Err(ImscError::InvalidConfig("late injected failure"))
            } else if i == 11 {
                Err(ImscError::InvalidConfig("lowest injected failure"))
            } else {
                build_traced(i as u64, i)
            }
        })
        .unwrap_err();
    assert!(matches!(err, ImscError::InvalidConfig(m) if m.contains("lowest")));
    // Every slice below the failure drained into the sink.
    assert!(sink.finish().unwrap().commands > 0);
}
