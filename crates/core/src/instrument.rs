//! One instrumentation sink for every execution mode.
//!
//! The engine records NVMain-style commands per accelerator
//! ([`crate::engine::AcceleratorBuilder::record_trace`], with
//! [`crate::engine::AcceleratorBuilder::trace_bank`] mapping each array
//! onto its own memory bank). This module stitches those per-array
//! sub-traces into one dispatch-ordered command stream and replays it
//! incrementally through [`nvsim::Simulator`], so eager, per-tile,
//! pipelined, and pipelined-with-retirement execution all produce joules
//! and nanoseconds from the same banked timing/energy model that the
//! analytic [`crate::cost::CostLedger`] approximates.
//!
//! Two invariants make the cross-check exact:
//!
//! * [`replay_config`] derives the simulator's timing/energy table from
//!   the same [`ReramCosts::calibrated`] constants the ledger uses
//!   (sensing = scout step, activation folded into the step as the
//!   substrate's `t_activate_ns = 0` says), so
//!   [`CostLedger::replay_latency_ns`] / [`CostLedger::replay_energy_nj`]
//!   mirror the replay arithmetic exactly — agreement validates the
//!   *plumbing* (no dropped or invented commands), not shared constants
//!   by accident.
//! * Sub-traces are drained out of each accelerator at schedule
//!   boundaries ([`crate::engine::Accelerator::take_trace`]) into
//!   dispatch slots of a [`SinkHandle`]. Per-tile and pipelined workers
//!   retire through [`SinkHandle::slot`], which waits until every lower
//!   slot has been replayed, so whole-frame programs never materialize
//!   one giant command vector: on both paths the reorder buffer holds at
//!   most one sub-trace ([`ReplaySummary::peak_buffered_commands`] pins
//!   that bound).

use crate::cost::CostLedger;
use nvsim::energy::EnergyParams;
use nvsim::timing::TimingParams;
use nvsim::{MemoryConfig, SimError, Simulator, Trace};
use reram::energy::ReramCosts;
use std::collections::BTreeMap;
use std::sync::{Arc, Condvar, Mutex};

/// Banks in the replay memory model (arrays map onto banks modulo this).
pub const REPLAY_BANKS: usize = 8;

/// The replay memory configuration derived from the calibrated ReRAM
/// substrate table for `stream_len`-bit rows.
///
/// Activation/precharge windows and energies are zero because the
/// substrate folds wordline charging into each sensing step
/// (`t_activate_ns = 0` in [`ReramCosts::calibrated`]); row-buffer
/// hits/misses therefore stay pure locality counters while latency and
/// energy mirror the analytic table exactly.
#[must_use]
pub fn replay_config(stream_len: usize) -> MemoryConfig {
    let costs = ReramCosts::calibrated();
    let t = &costs.timings;
    let e = &costs.energies;
    MemoryConfig {
        banks: REPLAY_BANKS,
        rows_per_bank: 1024,
        row_width_bits: stream_len,
        timing: TimingParams {
            t_rcd: t.t_activate_ns,
            t_rp: 0.0,
            t_read: t.t_sense_ns,
            t_write: t.t_write_ns,
            t_scout: t.t_sense_ns,
            t_adc: t.t_adc_ns,
            t_cordiv: t.t_cordiv_step_ns,
        },
        energy: EnergyParams {
            e_activate_nj: 0.0,
            e_precharge_nj: 0.0,
            e_read_bit_pj: e.e_sense_bit_pj,
            e_write_bit_pj: e.e_write_bit_pj,
            e_scout_bit_pj: e.e_sense_bit_pj,
            e_adc_nj: e.e_adc_sample_nj,
            e_cordiv_pj: e.e_cordiv_step_pj,
        },
    }
}

/// Aggregate result of replaying one stitched command stream. `Copy` so
/// run statistics can carry it by value.
///
/// Equality compares the replayed stream only (energy, time, commands,
/// row locality, banks). [`ReplaySummary::peak_buffered_commands`] is a
/// scheduling diagnostic and is left out of it.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplaySummary {
    /// Replayed energy in nanojoules.
    pub energy_nj: f64,
    /// Bank-parallel makespan of the stream in nanoseconds (time the
    /// last command retires).
    pub time_ns: f64,
    /// Serial busy time: the sum of per-command latencies over all
    /// banks. This is the quantity
    /// [`CostLedger::replay_latency_ns`] mirrors exactly.
    pub busy_ns: f64,
    /// Commands replayed.
    pub commands: u64,
    /// Row-buffer hits across banks (encode-run coalescing shows up
    /// here: batched IMSNG dispatches re-assert segment rows).
    pub row_hits: u64,
    /// Row-buffer misses across banks.
    pub row_misses: u64,
    /// Banks that executed at least one command.
    pub banks_used: usize,
    /// Diagnostic, not part of equality: peak number of commands resident
    /// in the sink's reorder buffer — the memory bound of streaming
    /// replay. Workers that retire through [`SinkHandle::slot`] (the
    /// per-tile and pipelined schedules) drain in dispatch order, so it
    /// stays at the largest single tile's or slice's sub-trace, never the
    /// whole frame. Producers calling [`SinkHandle::accept`] out of order
    /// can raise it up to the whole stream.
    pub peak_buffered_commands: u64,
}

impl PartialEq for ReplaySummary {
    fn eq(&self, other: &Self) -> bool {
        let stream = |r: &Self| {
            let locality = (r.row_hits, r.row_misses, r.banks_used);
            (r.energy_nj, r.time_ns, r.busy_ns, r.commands, locality)
        };
        stream(self) == stream(other)
    }
}

impl ReplaySummary {
    /// Relative disagreement between the replayed serial busy time and
    /// the ledger's exact replay mirror (0 on perfect agreement).
    #[must_use]
    pub fn busy_vs_ledger(&self, ledger: &CostLedger, costs: &ReramCosts) -> f64 {
        relative_gap(self.busy_ns, ledger.replay_latency_ns(costs))
    }

    /// Relative disagreement between the replayed energy and the
    /// ledger's exact replay mirror (0 on perfect agreement).
    #[must_use]
    pub fn energy_vs_ledger(&self, ledger: &CostLedger, costs: &ReramCosts, width: usize) -> f64 {
        relative_gap(self.energy_nj, ledger.replay_energy_nj(costs, width))
    }
}

/// |a − b| / max(|a|, |b|, 1) — a symmetric relative gap that is well
/// defined at zero.
#[must_use]
pub fn relative_gap(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs()).max(1.0)
}

/// Streams dispatch-ordered sub-traces through an incremental
/// [`Simulator`] session.
///
/// Producers hand over sub-traces tagged with a dispatch sequence
/// number ([`TraceSink::accept`]); out-of-order arrivals wait in a
/// reorder buffer and are fed to the simulator as soon as the sequence
/// is contiguous. Workers that retire through [`SinkHandle::slot`]
/// arrive in order, so the buffer never holds more than one sub-trace.
#[derive(Debug)]
pub struct TraceSink {
    sim: Simulator,
    next_seq: usize,
    reorder: BTreeMap<usize, Trace>,
    buffered_commands: u64,
    peak_buffered_commands: u64,
    commands: u64,
    collected: Option<Trace>,
    error: Option<SimError>,
}

impl TraceSink {
    /// Creates a sink replaying into a fresh simulator session.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] for a malformed memory configuration.
    pub fn new(config: MemoryConfig) -> Result<Self, SimError> {
        let mut sim = Simulator::new(config);
        sim.begin()?;
        Ok(TraceSink {
            sim,
            next_seq: 0,
            reorder: BTreeMap::new(),
            buffered_commands: 0,
            peak_buffered_commands: 0,
            commands: 0,
            collected: None,
            error: None,
        })
    }

    /// As [`TraceSink::new`], additionally retaining the stitched trace
    /// for export ([`TraceSink::collected`]). Collection defeats the
    /// streaming memory bound; use it for diagnostics and small runs.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] for a malformed memory configuration.
    pub fn collecting(config: MemoryConfig) -> Result<Self, SimError> {
        let mut sink = TraceSink::new(config)?;
        sink.collected = Some(Trace::new());
        Ok(sink)
    }

    /// The next dispatch sequence number the sink will replay.
    #[must_use]
    pub fn next_seq(&self) -> usize {
        self.next_seq
    }

    /// Accepts the sub-trace for dispatch slot `seq` (each slot is
    /// consumed exactly once; empty traces are fine and keep the
    /// sequence moving). Replays immediately when contiguous, otherwise
    /// holds the sub-trace until the gap fills.
    pub fn accept(&mut self, seq: usize, trace: Trace) {
        self.buffered_commands += trace.len() as u64;
        self.reorder.insert(seq, trace);
        self.peak_buffered_commands = self.peak_buffered_commands.max(self.buffered_commands);
        while let Some(t) = self.reorder.remove(&self.next_seq) {
            self.next_seq += 1;
            self.buffered_commands -= t.len() as u64;
            self.feed(&t);
        }
    }

    /// Drains an accelerator's recorded trace into the next dispatch
    /// slot — the eager-mode entry point (call after each program or at
    /// operation boundaries of your choice). A no-op when the
    /// accelerator does not record traces.
    pub fn ingest(&mut self, acc: &mut crate::engine::Accelerator) {
        if let Some(t) = acc.take_trace() {
            let seq = self
                .next_seq
                .max(self.reorder.keys().next_back().map_or(0, |k| k + 1));
            self.accept(seq, t);
        }
    }

    fn feed(&mut self, trace: &Trace) {
        if self.error.is_some() {
            return;
        }
        self.commands += trace.len() as u64;
        if let Some(c) = self.collected.as_mut() {
            c.extend_from(trace);
        }
        if let Err(e) = self.sim.feed(trace.commands()) {
            self.error = Some(e);
        }
    }

    /// The stitched trace, when the sink was built with
    /// [`TraceSink::collecting`] (only the contiguously replayed prefix).
    #[must_use]
    pub fn collected(&self) -> Option<&Trace> {
        self.collected.as_ref()
    }

    /// Closes the session and returns the replay summary. Sub-traces
    /// still waiting behind sequence gaps (a producer skipped a slot)
    /// are flushed in sequence order first.
    ///
    /// # Errors
    ///
    /// The first addressing error any sub-trace produced
    /// ([`SimError::BankOutOfRange`] / [`SimError::RowOutOfRange`]).
    pub fn finish(mut self) -> Result<ReplaySummary, SimError> {
        let remaining = std::mem::take(&mut self.reorder);
        for (_, t) in remaining {
            self.feed(&t);
        }
        if let Some(e) = self.error {
            return Err(e);
        }
        let stats = self.sim.finish();
        Ok(ReplaySummary {
            energy_nj: stats.total_energy_nj,
            time_ns: stats.total_time_ns,
            busy_ns: stats.busy_ns,
            commands: self.commands,
            row_hits: stats.row_hits,
            row_misses: stats.row_misses,
            banks_used: stats.banks_used(),
            peak_buffered_commands: self.peak_buffered_commands,
        })
    }
}

/// A clonable, thread-safe handle to one [`TraceSink`] — the form the
/// schedulers and parallel tile workers share.
#[derive(Debug, Clone)]
pub struct SinkHandle {
    inner: Arc<Shared>,
}

#[derive(Debug)]
struct Shared {
    sink: Mutex<TraceSink>,
    /// Signalled whenever the replayed sequence advances, waking
    /// [`SinkSlot::drain`] callers waiting for their turn.
    turn: Condvar,
}

impl SinkHandle {
    /// Wraps a sink for shared use.
    #[must_use]
    pub fn new(sink: TraceSink) -> Self {
        SinkHandle {
            inner: Arc::new(Shared {
                sink: Mutex::new(sink),
                turn: Condvar::new(),
            }),
        }
    }

    /// Builds a sink over [`replay_config`] for `stream_len`-bit rows.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] for a malformed configuration.
    pub fn for_stream_len(stream_len: usize) -> Result<Self, SimError> {
        Ok(SinkHandle::new(TraceSink::new(replay_config(stream_len))?))
    }

    /// Accepts the sub-trace for dispatch slot `seq` (see
    /// [`TraceSink::accept`]) without waiting for its turn.
    pub fn accept(&self, seq: usize, trace: Trace) {
        self.lock().accept(seq, trace);
        self.inner.turn.notify_all();
    }

    /// Claims dispatch slot `seq` for one job. The job retires into it
    /// with [`SinkSlot::drain`], which waits until every lower slot has
    /// been replayed. A slot dropped without draining (the job failed or
    /// panicked) is released with an empty trace, so no later slot waits
    /// on it forever.
    ///
    /// Waiting cannot deadlock as long as slots are claimed in dispatch
    /// order by live jobs: every lower slot then belongs to a job that
    /// either drains or drops it.
    pub fn slot(&self, seq: usize) -> SinkSlot<'_> {
        SinkSlot { sink: self, seq }
    }

    /// Closes the session and returns the replay summary. Meaningful
    /// once per run; later calls see an empty follow-up session.
    ///
    /// # Errors
    ///
    /// See [`TraceSink::finish`].
    pub fn finish(&self) -> Result<ReplaySummary, SimError> {
        let mut guard = self.lock();
        let config = *guard.sim.config();
        let fresh = TraceSink::new(config).expect("validated config");
        std::mem::replace(&mut *guard, fresh).finish()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TraceSink> {
        self.inner
            .sink
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// One job's claim on a dispatch slot of a [`SinkHandle`] (see
/// [`SinkHandle::slot`]).
#[derive(Debug)]
#[must_use = "dropping a slot releases it with an empty trace"]
pub struct SinkSlot<'a> {
    sink: &'a SinkHandle,
    seq: usize,
}

impl SinkSlot<'_> {
    /// Waits until every lower slot has been replayed, then drains the
    /// accelerator's recorded trace into this slot (an empty one when the
    /// accelerator does not record traces, which still moves the
    /// sequence on).
    pub fn drain(self, acc: &mut crate::engine::Accelerator) {
        let trace = acc.take_trace().unwrap_or_default();
        let mut sink = self.sink.lock();
        while sink.next_seq() < self.seq {
            sink = self
                .sink
                .inner
                .turn
                .wait(sink)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        sink.accept(self.seq, trace);
        drop(sink);
        self.sink.inner.turn.notify_all();
        std::mem::forget(self);
    }
}

impl Drop for SinkSlot<'_> {
    fn drop(&mut self) {
        self.sink.accept(self.seq, Trace::new());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvsim::{CmdKind, Command};

    fn trace_of(bank: usize, rows: &[usize]) -> Trace {
        rows.iter()
            .map(|&r| Command::new(bank, r, CmdKind::Write))
            .collect()
    }

    #[test]
    fn replay_config_mirrors_the_calibration_table() {
        let costs = ReramCosts::calibrated();
        let cfg = replay_config(256);
        assert_eq!(cfg.banks, REPLAY_BANKS);
        assert_eq!(cfg.row_width_bits, 256);
        assert!((cfg.timing.t_scout - costs.timings.t_sense_ns).abs() < 1e-12);
        assert!((cfg.timing.t_write - costs.timings.t_write_ns).abs() < 1e-12);
        assert_eq!(cfg.timing.t_rcd, 0.0);
        assert_eq!(cfg.energy.e_activate_nj, 0.0);
        assert!((cfg.energy.e_scout_bit_pj - costs.energies.e_sense_bit_pj).abs() < 1e-12);
        cfg.validate().unwrap();
    }

    #[test]
    fn out_of_order_subtraces_replay_in_dispatch_order() {
        let config = replay_config(64);
        // In-order reference.
        let mut reference = TraceSink::new(config).unwrap();
        reference.accept(0, trace_of(0, &[1, 2]));
        reference.accept(1, trace_of(0, &[2, 2]));
        reference.accept(2, trace_of(1, &[5]));
        let expect = reference.finish().unwrap();

        let mut sink = TraceSink::new(config).unwrap();
        sink.accept(2, trace_of(1, &[5]));
        sink.accept(0, trace_of(0, &[1, 2]));
        assert_eq!(sink.next_seq(), 1);
        sink.accept(1, trace_of(0, &[2, 2]));
        let got = sink.finish().unwrap();
        assert_eq!(got.commands, expect.commands);
        assert_eq!(got.row_hits, expect.row_hits);
        assert!((got.busy_ns - expect.busy_ns).abs() < 1e-9);
        assert!((got.energy_nj - expect.energy_nj).abs() < 1e-12);
        // The out-of-order arrival was buffered: one command waited.
        assert_eq!(got.peak_buffered_commands, 3);
        assert_eq!(expect.peak_buffered_commands, 2);
        assert_eq!(got, expect, "the buffering peak is not part of identity");
    }

    #[test]
    fn gaps_are_flushed_at_finish() {
        let mut sink = TraceSink::new(replay_config(64)).unwrap();
        sink.accept(0, trace_of(0, &[1]));
        sink.accept(2, trace_of(0, &[3])); // seq 1 never arrives
        let got = sink.finish().unwrap();
        assert_eq!(got.commands, 2);
    }

    #[test]
    fn addressing_errors_surface_at_finish() {
        let mut sink = TraceSink::new(replay_config(64)).unwrap();
        sink.accept(0, trace_of(REPLAY_BANKS + 3, &[0]));
        assert!(matches!(
            sink.finish(),
            Err(SimError::BankOutOfRange { .. })
        ));
    }

    #[test]
    fn collecting_sink_keeps_the_stitched_trace() {
        let mut sink = TraceSink::collecting(replay_config(64)).unwrap();
        sink.accept(1, trace_of(0, &[9]));
        sink.accept(0, trace_of(0, &[4]));
        let stitched = sink.collected().unwrap();
        assert_eq!(stitched.len(), 2);
        assert_eq!(stitched.commands()[0].row, 4);
        assert_eq!(stitched.commands()[1].row, 9);
    }

    #[test]
    fn slots_drain_in_dispatch_order_and_dropped_slots_release() {
        use crate::engine::Accelerator;
        let handle = SinkHandle::for_stream_len(64).unwrap();
        let traced = |record: bool| {
            let mut acc = Accelerator::builder()
                .stream_len(64)
                .seed(5)
                .record_trace(record)
                .build()
                .unwrap();
            acc.encode(sc_core::Fixed::from_u8(77)).unwrap();
            acc
        };
        let mut last = traced(true);
        let expect = last.trace().unwrap().len() as u64;
        std::thread::scope(|scope| {
            // Slot 2 finishes first and must wait for slots 0 and 1.
            let waiter = scope.spawn(|| handle.slot(2).drain(&mut last));
            let failed = handle.slot(0);
            let quiet = handle.slot(1);
            drop(failed); // a failed job releases its slot
            quiet.drain(&mut traced(false)); // no trace still moves the sequence
            waiter.join().expect("slot 2 drains once its turn comes");
        });
        let got = handle.finish().unwrap();
        assert_eq!(got.commands, expect);
        assert_eq!(got.peak_buffered_commands, expect);
    }

    #[test]
    fn shared_handle_round_trips() {
        let handle = SinkHandle::for_stream_len(64).unwrap();
        handle.accept(0, trace_of(0, &[1, 1, 1]));
        let s = handle.finish().unwrap();
        assert_eq!(s.commands, 3);
        assert_eq!(s.row_hits, 2);
        assert_eq!(s.banks_used, 1);
    }
}
