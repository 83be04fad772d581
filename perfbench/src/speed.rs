//! The host-speed gauge: a fixed amount of the benchmark's own work,
//! timed again and again through a run while the cluster sits idle, so
//! that time metrics can be reported at a reference host speed.
//!
//! On a shared two-core machine the same binary runs up to a third faster
//! or slower for minutes at a time, and the CPU it spends per op moves
//! with it. What moves most is the cost of waking a thread on the other
//! core, which every exchange pays several times over. The gauge bounces
//! a small message between two threads and so sees the same slowdown;
//! dividing a measured time by `slowdown()` takes the common factor out
//! and leaves what the program changed. The gauge is the benchmark's own
//! code and never calls into `crates/`, so a change to the program can
//! move it only through what its threads do while the cluster is idle;
//! `foreign_share` records how much CPU the rest of the process took
//! while the gauge ran (`NOTES.md` has the details).

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;

use crate::load::now_ns;
use crate::stats::median;
use crate::sys;

/// The median gauge sample, in ns, on the two-vCPU Xeon VM the benchmark
/// was sized on, at its usual speed. A constant: it only sets the scale.
pub const REF_GAUGE_NS: f64 = 5.0e6;

/// Round trips per sample (about 5 ms).
const ROUNDS: usize = 400;
/// Samples per burst.
const BURST: usize = 4;
/// The most CPU the rest of the process may take while the gauge runs,
/// as a share of the gauge's own, before a run is refused: more means the
/// cluster kept working between slices and slowed the gauge down.
pub const MAX_FOREIGN_SHARE: f64 = 0.5;

pub struct Gauge {
    pair: (UnixStream, UnixStream),
    /// Each sample's time, in ns.
    pub samples: Vec<u64>,
    process_cpu_ns: u64,
    gauge_cpu_ns: u64,
}

impl Gauge {
    pub fn new() -> std::io::Result<Self> {
        Ok(Gauge {
            pair: UnixStream::pair()?,
            samples: Vec::new(),
            process_cpu_ns: 0,
            gauge_cpu_ns: 0,
        })
    }

    /// Bounces 64 bytes between two threads, one at each end of the
    /// socket pair, `ROUNDS` times: every round trip wakes each thread once.
    pub fn sample(&mut self) {
        let (mut a, mut b) = (&self.pair.0, &self.pair.1);
        let process_before = sys::process_cpu_ns();
        let (took, cpu) = std::thread::scope(|s| {
            let echo = s.spawn(move || {
                let cpu = sys::thread_cpu_ns();
                let mut buf = [0u8; 64];
                for _ in 0..ROUNDS {
                    b.read_exact(&mut buf).expect("gauge socket read");
                    b.write_all(&buf).expect("gauge socket write");
                }
                sys::thread_cpu_ns() - cpu
            });
            let cpu = sys::thread_cpu_ns();
            let started = now_ns();
            let mut buf = [7u8; 64];
            for _ in 0..ROUNDS {
                a.write_all(&buf).expect("gauge socket write");
                a.read_exact(&mut buf).expect("gauge socket read");
            }
            let took = now_ns() - started;
            let cpu = sys::thread_cpu_ns() - cpu;
            (took, cpu + echo.join().expect("gauge thread"))
        });
        self.process_cpu_ns += sys::process_cpu_ns() - process_before;
        self.gauge_cpu_ns += cpu;
        self.samples.push(took);
    }

    /// A few samples in a row.
    pub fn burst(&mut self) {
        for _ in 0..BURST {
            self.sample();
        }
    }

    /// Median sample, in ns.
    pub fn median_ns(&self) -> f64 {
        median(&mut self.samples.iter().map(|&ns| ns as f64).collect::<Vec<_>>())
    }

    /// How much slower than the reference the host ran: measured times
    /// are divided by this, rates multiplied.
    pub fn slowdown(&self) -> f64 {
        self.median_ns() / REF_GAUGE_NS
    }

    /// CPU the rest of the process used while the gauge ran, as a share
    /// of the gauge's own: thread start-up, and anything of the cluster's
    /// that stayed busy between slices.
    pub fn foreign_share(&self) -> f64 {
        self.process_cpu_ns.saturating_sub(self.gauge_cpu_ns) as f64
            / self.gauge_cpu_ns.max(1) as f64
    }
}
