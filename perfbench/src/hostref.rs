//! A fixed host-speed reference: a CPU- and cache-bound loop that uses
//! none of the program's code, run at once on as many threads as a
//! frame's tile pool and timed between requests. Its median time in a
//! run says how fast this host ran the workload's threads during that
//! run — a neighbour taking one of the cores shows up in it just as it
//! does in the tiled kernels.
//!
//! The end-to-end host times are reported normalised to a nominal host
//! speed: on a shared machine, neighbours slow whole runs by a fifth and
//! at times several-fold, which would otherwise dominate the run-to-run
//! spread and make runs taken at different times incomparable. A normalised time is the
//! raw time × [`NOMINAL_MS`] / the run's reference median; the raw
//! reference median is reported as `host.ref_ms`, so the raw time is
//! the reported one × `host.ref_ms` / [`NOMINAL_MS`].

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// Reference buffer: 256 KiB of `u64`, about the size of a core's L2.
const WORDS: usize = 32 * 1024;
/// Reference loop length.
const STEPS: usize = 400_000;

/// The reference loop's median time on the 2-core host the benchmark
/// was defined on, ms: host times are reported as if every run had run
/// at that speed.
pub const NOMINAL_MS: f64 = 1.4;

/// Wall time of the reference loop run once on each of the tile pool's
/// threads at the same time, in ms.
fn once() -> f64 {
    let threads = crate::workload::frame_tile_threads();
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(reference_loop);
        }
    });
    t0.elapsed().as_secs_f64() * 1e3
}

fn reference_loop() {
    let mut buf = vec![0u64; WORDS];
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for i in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let j = (x as usize) & (WORDS - 1);
        buf[j] = buf[j].wrapping_add(x ^ i as u64);
    }
    black_box(&buf);
}

/// Reference times collected over a run.
#[derive(Debug, Default)]
pub struct HostRef(Vec<f64>);

impl HostRef {
    /// Times the reference once more.
    pub fn sample(&mut self) {
        self.0.push(once());
    }

    /// Median reference time, ms.
    #[must_use]
    pub fn median_ms(&self) -> f64 {
        median(&self.0)
    }

    /// Factor that turns this run's host times into nominal-speed times.
    #[must_use]
    pub fn time_scale(&self) -> f64 {
        NOMINAL_MS / self.median_ms()
    }
}
