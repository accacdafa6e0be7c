//! The PBQP-DNN benchmark: one workload per run, end-to-end metrics with
//! tracing off, per-layer metrics with tracing on.
//!
//! ```text
//! perfbench --workload <zoo_serve|gateway_open|googlenet_serve|zoo_compile>
//!           --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//! ```
//!
//! Every response is checked (see `zoo.rs` for the oracle). The last line
//! of standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`, the latter holding every end-to-end metric of
//! [`E2E`] in a plain run and every per-layer metric of [`PER_LAYER`] in
//! a traced run. A traced run also writes its spans, once, to
//! `<out-dir>/<workload>-seed<seed>.spans.jsonl`; the output directory is
//! taken at run time and never derived from the build.

mod alloc;
mod compile;
mod gateway;
mod host;
mod probe;
mod replay;
mod serve;
mod stats;
mod trace;
mod zoo;

use std::path::PathBuf;
use std::process::ExitCode;

use probe::Layers;
use trace::Tracer;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// The end-to-end metrics every workload reports, with units.
pub const E2E: [(&str, &str); 4] =
    [("setup_s", "s"), ("compile_s", "s"), ("latency_p50_ms", "ms"), ("peak_rss_mb", "MB")];

/// The per-layer metrics every traced run reports, with units. A metric
/// whose layer the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("runtime.kernel_ms", "ms"),
    ("runtime.conversion_ms", "ms"),
    ("runtime.dispatch_ms", "ms"),
    ("runtime.coverage", "ratio"),
    ("runtime.allocs_per_request", "count"),
    ("runtime.wavefront_over_serial", "ratio"),
    ("runtime.batch8_fused_over_item", "ratio"),
    ("primitives.conv_ms.direct", "ms"),
    ("primitives.conv_ms.im2", "ms"),
    ("primitives.conv_ms.kn2", "ms"),
    ("primitives.conv_ms.winograd", "ms"),
    ("primitives.conv_ms.fft", "ms"),
    ("primitives.conv_ms.sparse", "ms"),
    ("primitives.conv_ms.int8", "ms"),
    ("primitives.op_ms", "ms"),
    ("primitives.gmacs_per_s", "GMAC/s"),
    ("tensor.conversion_hops", "count"),
    ("tensor.conversion_mb", "MB"),
    ("cost.profile_s", "s"),
    ("cost.rank_spearman", "rho"),
    ("cost.candidate_spearman", "rho"),
    ("cost.predicted_over_measured", "ratio"),
    ("select.plan_ms", "ms"),
    ("select.speedup_vs_vendor", "ratio"),
    ("pbqp.solve_ms", "ms"),
    ("pbqp.core_nodes", "count"),
    ("pbqp.bb_steps", "count"),
    ("pbqp.optimal", "share"),
    ("schedule.compile_ms", "ms"),
    ("artifact.save_ms", "ms"),
    ("artifact.load_ms", "ms"),
    ("artifact.mb", "MB"),
    ("gateway.mean_batch_size", "count"),
    ("gateway.deadline_flush_share", "share"),
    ("gateway.rejected", "count"),
    ("gateway.generator_lag_p99_ms", "ms"),
    ("gateway.sustained_rps", "1/s"),
    ("gateway.latency_p99_ms.r400", "ms"),
    ("gateway.latency_p99_ms.r800", "ms"),
    ("gateway.latency_p99_ms.r1200", "ms"),
    ("gateway.latency_p99_ms.r1600", "ms"),
    ("gateway.latency_p99_ms.r2000", "ms"),
    ("trace.overhead_ms", "ms"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out_dir: PathBuf::from(".bench_out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out-dir" => args.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// What a workload run measured and checked.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every correctness failure, described.
    pub problems: Vec<String>,
    /// End-to-end values, with the raw value of a host-adjusted time.
    e2e: Vec<(&'static str, f64, Option<f64>)>,
    /// Reported on the human-readable lines only.
    extra: Vec<(String, f64, &'static str)>,
    pub layers: Layers,
}

impl Outcome {
    pub fn new(attempted: u64, failed: u64, problems: Vec<String>) -> Outcome {
        Outcome {
            attempted,
            failed,
            problems,
            e2e: Vec::new(),
            extra: Vec::new(),
            layers: Layers::new(),
        }
    }

    pub fn e2e(&mut self, name: &'static str, value: f64) {
        self.e2e.push((name, value, None));
    }

    /// A time reported at the reference host speed (see `host.rs`), with
    /// its raw value for print.
    pub fn time(&mut self, name: &'static str, adjusted: f64, raw: f64) {
        self.e2e.push((name, adjusted, Some(raw)));
    }

    pub fn extra(&mut self, name: &str, value: f64, unit: &'static str) {
        self.extra.push((name.to_owned(), value, unit));
    }

    /// A percentile with its sample count; absent when too few samples
    /// lie beyond it.
    pub fn sampled(&mut self, name: &str, value: Option<f64>, unit: &'static str, n: usize) {
        match value {
            Some(v) => self.extra(&format!("{name} (n={n})"), v, unit),
            None => println!("{name}: not reported, {n} samples leave fewer than 10 beyond it"),
        }
    }
}

/// Peak resident set of this process, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

fn run(args: &Args) -> Result<(), String> {
    let tracer = Tracer::new(args.trace);
    let mut outcome = match args.workload.as_str() {
        "zoo_serve" => serve::zoo_serve(args, &tracer),
        "googlenet_serve" => serve::googlenet_serve(args, &tracer),
        "gateway_open" => gateway::gateway_open(args, &tracer),
        "zoo_compile" => compile::zoo_compile(args, &tracer),
        other => Err(format!("unknown workload `{other}`")),
    }?;
    if !outcome.e2e.iter().any(|(n, _, _)| *n == "peak_rss_mb") {
        outcome.e2e("peak_rss_mb", peak_rss_mb());
    }

    for p in outcome.problems.iter().take(20) {
        println!("check failed: {p}");
    }
    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let spans = args.out_dir.join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
        std::fs::create_dir_all(&args.out_dir)
            .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
        tracer.write(&spans).map_err(|e| format!("{}: {e}", spans.display()))?;
        println!("{} spans written to {}", tracer.len(), spans.display());
        println!("{:<24} {:>8} {:>12} {:>12}", "span", "count", "total_ms", "self_ms");
        for (name, (n, total, own)) in tracer.summary() {
            println!("{name:<24} {n:>8} {total:>12.3} {own:>12.3}");
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, outcome.layers.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    } else {
        E2E.iter()
            .map(|&(name, unit)| {
                let (_, value, raw) = outcome
                    .e2e
                    .iter()
                    .find(|(n, _, _)| *n == name)
                    .ok_or(format!("workload did not report {name}"))?;
                if let Some(raw) = raw {
                    println!("{name}.raw = {raw} {unit}");
                }
                Ok((name, *value, unit))
            })
            .collect::<Result<_, String>>()?
    };
    for (name, value, unit) in &metrics {
        println!("{name} = {value} {unit}");
    }
    for (name, value, unit) in &outcome.extra {
        println!("{name} = {value} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(*value))
        })
        .collect();
    let correct = outcome.failed == 0 && outcome.problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        body.join(", ")
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
