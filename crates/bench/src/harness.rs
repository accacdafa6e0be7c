//! A minimal self-contained timing harness.
//!
//! The build environment has no crates.io access, so the benches cannot
//! use Criterion; this module provides the small subset they need —
//! warmed-up, multi-sample wall-clock timing with a median report — on
//! `std` alone. Benchmarks are ordinary `harness = false` binaries.
//!
//! # Example
//!
//! ```
//! use pbqp_dnn_bench::harness::Bench;
//!
//! let mut bench = Bench::new("demo").samples(5);
//! bench.run("add", || std::hint::black_box(1 + 1));
//! let report = bench.report();
//! assert!(report.contains("add"));
//! ```

use std::time::{Duration, Instant};

/// One benchmark's timing summary.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Benchmark name.
    pub name: String,
    /// Median wall-clock time per iteration.
    pub median: Duration,
    /// Fastest observed iteration.
    pub min: Duration,
    /// Slowest observed iteration.
    pub max: Duration,
}

/// A named group of benchmarks with a shared sample count.
#[derive(Debug)]
pub struct Bench {
    title: String,
    samples: usize,
    results: Vec<Sample>,
}

impl Bench {
    /// Creates a benchmark group. The default is 15 samples per benchmark
    /// after one warm-up iteration.
    pub fn new(title: &str) -> Bench {
        Bench { title: title.to_owned(), samples: 15, results: Vec::new() }
    }

    /// Sets the number of timed samples per benchmark (minimum 3).
    pub fn samples(mut self, samples: usize) -> Bench {
        self.samples = samples.max(3);
        self
    }

    /// Times `f`: one untimed warm-up, then `samples` timed iterations.
    /// Returns the median duration and records it for [`Bench::report`].
    pub fn run<T>(&mut self, name: &str, mut f: impl FnMut() -> T) -> Duration {
        std::hint::black_box(f());
        let mut times: Vec<Duration> = (0..self.samples)
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(f());
                start.elapsed()
            })
            .collect();
        times.sort();
        let sample = Sample {
            name: name.to_owned(),
            median: times[times.len() / 2],
            min: times[0],
            max: times[times.len() - 1],
        };
        let median = sample.median;
        self.results.push(sample);
        median
    }

    /// The recorded samples, in run order.
    pub fn results(&self) -> &[Sample] {
        &self.results
    }

    /// Renders the group as an aligned text table.
    pub fn report(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{}\n{}\n", self.title, "-".repeat(self.title.len())));
        for s in &self.results {
            out.push_str(&format!(
                "  {:44} {:>12} (min {:>12}, max {:>12})\n",
                s.name,
                fmt_duration(s.median),
                fmt_duration(s.min),
                fmt_duration(s.max),
            ));
        }
        out
    }
}

/// Writes a machine-readable benchmark artifact (`BENCH_*.json`) at the
/// repository root, returning the path written. The benches use this to
/// leave a perf trajectory the PR log can track.
///
/// The root is resolved at run time: two levels above the
/// `CARGO_MANIFEST_DIR` that cargo sets when it runs a bench of this
/// crate, or the current directory when the binary runs outside cargo.
/// A build copied elsewhere therefore writes into its own checkout.
pub fn write_repo_artifact(file_name: &str, contents: &str) -> std::io::Result<std::path::PathBuf> {
    let root = match std::env::var_os("CARGO_MANIFEST_DIR") {
        Some(manifest_dir) => std::path::Path::new(&manifest_dir).join("../.."),
        None => std::path::PathBuf::from("."),
    };
    let path = root.join(file_name);
    std::fs::write(&path, contents)?;
    Ok(path)
}

/// Formats a duration with an adaptive unit, Criterion-style.
pub fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_sorted_samples_is_reported() {
        let mut b = Bench::new("t").samples(3);
        let d = b.run("noop", || 1 + 1);
        assert!(d <= b.results()[0].max);
        assert!(b.results()[0].min <= d);
    }

    #[test]
    fn artifacts_land_under_the_run_time_manifest_dir() {
        let base = std::env::temp_dir().join(format!("pbqp-dnn-harness-{}", std::process::id()));
        let manifest_dir = base.join("crates/bench");
        std::fs::create_dir_all(&manifest_dir).unwrap();
        let previous = std::env::var_os("CARGO_MANIFEST_DIR");
        std::env::set_var("CARGO_MANIFEST_DIR", &manifest_dir);
        let written = write_repo_artifact("BENCH_TEST.json", "{}");
        match previous {
            Some(dir) => std::env::set_var("CARGO_MANIFEST_DIR", dir),
            None => std::env::remove_var("CARGO_MANIFEST_DIR"),
        }
        written.unwrap();
        let contents = std::fs::read_to_string(base.join("BENCH_TEST.json"));
        std::fs::remove_dir_all(&base).unwrap();
        assert_eq!(contents.unwrap(), "{}");
    }

    #[test]
    fn durations_format_with_adaptive_units() {
        assert_eq!(fmt_duration(Duration::from_nanos(12)), "12 ns");
        assert_eq!(fmt_duration(Duration::from_micros(12)), "12.00 µs");
        assert_eq!(fmt_duration(Duration::from_millis(12)), "12.00 ms");
        assert_eq!(fmt_duration(Duration::from_secs(12)), "12.00 s");
    }
}
