//! The host's speed, sampled through a run.
//!
//! The benchmark host is a shared VM: over seconds to minutes its speed
//! drifts by up to about 1.8x with load on the cores it shares (steal
//! time stays near zero), so one run's raw wall-clock figures move far
//! more than any change worth detecting. So while the program is idle
//! between requests, the benchmark times four fixed probes of its own
//! code: scalar and vectorized multiply-adds on L1-resident data
//! (execution-unit contention), a strided sum over a 4 MB buffer (cache
//! and memory contention) and a fresh 4 MB allocation touched once per
//! page (page-fault cost). Every end-to-end time is reported divided by
//! the run's median probe time over [`NOMINAL_MS`], that is, at a fixed
//! reference host speed; the raw times and the factor are printed beside
//! them. Two workloads depart from this: `zoo_compile` divides its set-up
//! times by [`matmul_factor`], sampled around each model's set-up, and
//! `gateway_open` reports its set-up and latency raw (see `gateway.rs`).
//!
//! The probes run only while the program has no request in flight, so
//! the program's own work never slows them; a program thread left busy
//! in the background would, and would flatter the adjusted times, which
//! is one reason the raw times are printed too.

use std::sync::OnceLock;
use std::time::Instant;

use crate::stats::median;

/// The probe time (geometric mean of both probes) that counts as factor
/// 1: about its median on the 2-vCPU x86-64 host the benchmark was built
/// on.
pub const NOMINAL_MS: f64 = 0.32;

/// The matrix-product probe's time that counts as factor 1 for
/// [`matmul_factor`], on the same host.
pub const MATMUL_NOMINAL_MS: f64 = 0.08;

/// Probe inputs, built once so a sample never allocates.
fn buffers() -> &'static (Vec<f32>, Vec<f32>) {
    static BUFFERS: OnceLock<(Vec<f32>, Vec<f32>)> = OnceLock::new();
    BUFFERS.get_or_init(|| {
        let small = (0..64 * 64).map(|i| (i % 7) as f32 * 0.25).collect();
        let large = (0..1 << 20).map(|i| (i % 5) as f32).collect();
        (small, large)
    })
}

/// Multiply-adds of a 64x64 matrix product on L1-resident data, in ms.
fn matmul_ms() -> f64 {
    let a = std::hint::black_box(buffers().0.as_slice());
    let begin = Instant::now();
    let n = 64;
    let mut c = [0.0f32; 64 * 64];
    for i in 0..n {
        for k in 0..n {
            let x = a[i * n + k];
            for j in 0..n {
                c[i * n + j] += x * a[k * n + j];
            }
        }
    }
    std::hint::black_box(&c);
    begin.elapsed().as_secs_f64() * 1e3
}

/// How much slower than nominal the host runs compute-bound code right
/// now: the median of `samples` matrix-product probes over
/// [`MATMUL_NOMINAL_MS`].
///
/// `zoo_compile` brackets each model's compile with this factor. The
/// profiler runs every candidate kernel once, and in thirty-second runs
/// its time tracked the matrix-product probe with a log-log slope near 1
/// (correlation 0.75-0.96 per model), while the latency-bound vector
/// probe barely moved: [`HostSpeed::factor`], which mixes all four
/// probes, corrected only about half of each slowdown.
pub fn matmul_factor(samples: usize) -> f64 {
    median(&mut (0..samples).map(|_| matmul_ms()).collect::<Vec<_>>()) / MATMUL_NOMINAL_MS
}

/// One sample: the geometric mean of the probes' times, in ms.
fn probe_ms() -> f64 {
    let (small, large) = buffers();
    let a = std::hint::black_box(small.as_slice());
    let time = |f: &mut dyn FnMut()| {
        let begin = Instant::now();
        f();
        begin.elapsed().as_secs_f64() * 1e3
    };
    let scalar = matmul_ms();
    // Eight independent accumulators the compiler vectorizes.
    let vector = time(&mut || {
        let mut acc = [0.0f32; 8];
        for _ in 0..256 {
            for chunk in a.chunks_exact(8) {
                for (s, x) in acc.iter_mut().zip(chunk) {
                    *s = *s * 0.999 + *x;
                }
            }
        }
        std::hint::black_box(&acc);
    });
    // One load per 64-byte line of a 4 MB buffer.
    let memory = time(&mut || {
        let sum: f32 = std::hint::black_box(large.as_slice()).iter().step_by(16).sum();
        std::hint::black_box(sum);
    });
    // A fresh 4 MB allocation touched once per page: page-fault cost.
    let faults = time(&mut || {
        let mut fresh = vec![0u8; 4 << 20];
        for page in fresh.iter_mut().step_by(4096) {
            *page = 1;
        }
        std::hint::black_box(&fresh);
    });
    (scalar * vector * memory * faults).powf(0.25)
}

pub struct HostSpeed {
    samples: Vec<f64>,
    last: Instant,
}

impl HostSpeed {
    pub fn new() -> HostSpeed {
        let mut h = HostSpeed { samples: Vec::new(), last: Instant::now() };
        h.sample();
        h
    }

    /// Takes one sample. Call only while the program is idle.
    pub fn sample(&mut self) {
        self.samples.push(probe_ms());
        self.last = Instant::now();
    }

    /// Takes a sample if `interval` seconds have passed since the last.
    pub fn sample_every(&mut self, interval: f64) {
        if self.last.elapsed().as_secs_f64() >= interval {
            self.sample();
        }
    }

    /// How much slower than nominal the host ran: the median sample over
    /// [`NOMINAL_MS`].
    pub fn factor(&self) -> f64 {
        median(&mut self.samples.clone()) / NOMINAL_MS
    }
}
