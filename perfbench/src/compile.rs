//! `zoo_compile`: repeated cold compiles of the micro zoo with wall-clock
//! profiled costs (the paper's method), each followed by save, load and
//! checked requests on the fresh plans.
//!
//! Profiling is not a pure function, so two cycles may pick different
//! primitives and produce outputs that differ in the last bits. Each
//! cycle therefore builds its own bit-exact oracle: a first pass over the
//! inputs is checked against `reference_forward` within the error budget,
//! and the timed second pass must repeat it bit for bit.

use std::time::Instant;

use pbqp_dnn::cost::MeasuredCost;
use pbqp_dnn::prelude::*;

use crate::host::{self, HostSpeed};
use crate::probe::{self, Target};
use crate::serve::SETUP_REPS;
use crate::stats::{mean, median, spearman};
use crate::trace::Tracer;
use crate::zoo::{self, same_bits, Case, Ready, SetupTimes};
use crate::{Args, Outcome};

/// `measured_costs(reps, scale)`: one timing per candidate at full size.
/// Three timings per candidate made a cycle ~4 s, so a run held four or
/// five plan draws and its latency median swung with them (21% spread
/// over ten runs); one timing gives ~15 cycles a run and a 5% spread.
const PROFILE_REPS: usize = 1;
const PROFILE_SCALE: usize = 1;

/// Matrix-product probes taken before and after each model's set-up.
const BRACKET_SAMPLES: usize = 100;

fn options(case: &Case) -> CompileOptions {
    case.options().measured_costs(PROFILE_REPS, PROFILE_SCALE)
}

/// One compile cycle over the zoo.
struct Cycle {
    readies: Vec<Ready>,
    expected: Vec<Vec<Tensor>>,
    stages: SetupTimes,
    /// The stage times of each model divided by the host-speed factor
    /// sampled right around its set-up.
    at_nominal: SetupTimes,
    latency_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// The host-speed factor sampled while this cycle served.
    host_factor: f64,
}

/// One cycle. The host's speed drifts within a second, so each model's
/// set-up is adjusted by the matrix-product factor (see `host.rs`)
/// sampled just before and after it, and the served requests by the
/// cycle's own [`HostSpeed`] factor.
fn cycle(cases: &[Case], tracer: &Tracer) -> Result<Cycle, String> {
    let mut stages = SetupTimes::default();
    let mut at_nominal = SetupTimes::default();
    let mut readies = Vec::new();
    for case in cases {
        let before = host::matmul_factor(BRACKET_SAMPLES);
        let (ready, t) = zoo::setup(case, options(case), tracer, 0)
            .map_err(|e| format!("set-up of {}: {e}", case.name))?;
        let after = host::matmul_factor(BRACKET_SAMPLES);
        stages.add(&t);
        at_nominal.add(&t.over((before * after).sqrt()));
        readies.push(ready);
    }
    let mut host = HostSpeed::new();
    for _ in 0..10 {
        host.sample();
    }
    let mut c = Cycle {
        readies,
        expected: Vec::new(),
        stages,
        at_nominal,
        latency_ms: Vec::new(),
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        host_factor: 0.0,
    };
    for (case, ready) in cases.iter().zip(&mut c.readies) {
        let mut expected = Vec::new();
        for input in &case.inputs {
            c.attempted += 1;
            match ready.session.infer_new(input) {
                Ok(out) => expected.push(out),
                Err(e) => {
                    c.failed += 1;
                    c.problems.push(format!("{}: {e}", case.name));
                    expected.push(Tensor::empty());
                }
            }
        }
        if let Err(e) = zoo::check_reference(case, &expected, zoo::is_int8(&ready.model)) {
            c.failed += 1;
            c.problems.push(e);
        }
        for (i, input) in case.inputs.iter().enumerate() {
            c.attempted += 1;
            let begin = Instant::now();
            let served = ready.session.infer(input, &mut ready.out);
            let ms = begin.elapsed().as_secs_f64() * 1e3;
            match served {
                Ok(()) if same_bits(&ready.out, &expected[i]) => c.latency_ms.push(ms),
                Ok(()) => {
                    c.failed += 1;
                    c.problems
                        .push(format!("{} input {i}: output changed between requests", case.name));
                }
                Err(e) => {
                    c.failed += 1;
                    c.problems.push(format!("{} input {i}: {e}", case.name));
                }
            }
        }
        c.expected.push(expected);
        host.sample();
    }
    c.host_factor = host.factor();
    Ok(c)
}

/// `zoo_compile`: compile cycles for `--seconds`, at least [`SETUP_REPS`].
pub fn zoo_compile(args: &Args, tracer: &Tracer) -> Result<Outcome, String> {
    let cases = zoo::micro_zoo(args.seed, 16);
    let _ = pbqp_dnn::cost::host_calibration();
    if tracer.enabled() {
        return traced(args, &cases, tracer);
    }
    // Cycles until the next one would overrun `--seconds`, at least
    // SETUP_REPS of them. The resident set grows by about a megabyte per
    // cycle, so peak RSS is read after SETUP_REPS cycles, however many
    // the host's speed lets fit in the run.
    let start = Instant::now();
    let mut cycles: Vec<Cycle> = Vec::new();
    let mut peak_rss = 0.0;
    while cycles.len() < SETUP_REPS
        || start.elapsed().as_secs_f64() + cycles.last().map_or(0.0, |c| c.stages.total())
            < args.seconds
    {
        cycles.push(cycle(&cases, tracer)?);
        if cycles.len() == SETUP_REPS {
            peak_rss = crate::peak_rss_mb();
        }
    }
    let attempted = cycles.iter().map(|c| c.attempted).sum();
    let failed = cycles.iter().map(|c| c.failed).sum();
    let problems = cycles.iter_mut().flat_map(|c| std::mem::take(&mut c.problems)).collect();
    let mut out = Outcome::new(attempted, failed, problems);
    out.extra(
        "host_factor",
        median(&mut cycles.iter().map(|c| c.host_factor).collect::<Vec<_>>()),
        "ratio",
    );
    let mut time =
        |name, raw: &dyn Fn(&Cycle) -> Vec<f64>, adjusted: &dyn Fn(&Cycle) -> Vec<f64>| {
            let raw = median(&mut cycles.iter().flat_map(raw).collect::<Vec<_>>());
            let adjusted = median(&mut cycles.iter().flat_map(adjusted).collect::<Vec<_>>());
            out.time(name, adjusted, raw);
        };
    time("setup_s", &|c| vec![c.stages.total()], &|c| vec![c.at_nominal.total()]);
    time("compile_s", &|c| vec![c.stages.compile_save_load()], &|c| {
        vec![c.at_nominal.compile_save_load()]
    });
    time("latency_p50_ms", &|c| c.latency_ms.clone(), &|c| {
        c.latency_ms.iter().map(|v| v / c.host_factor).collect()
    });
    out.extra(
        "compile_host_factor",
        median(
            &mut cycles
                .iter()
                .map(|c| c.stages.compile_save_load() / c.at_nominal.compile_save_load())
                .collect::<Vec<_>>(),
        ),
        "ratio",
    );
    out.e2e("peak_rss_mb", peak_rss);
    out.extra("cycles", cycles.len() as f64, "count");
    out.extra("error_rate", failed as f64 / attempted as f64, "share");
    Ok(out)
}

/// The traced run: one cold cycle through the front door, then the
/// compile decomposed into its layers (`CostTable::profile` with
/// `MeasuredCost`, `Optimizer::plan_with_table`, `Schedule::compile`),
/// and the runtime probes on the measured plans.
fn traced(args: &Args, cases: &[Case], tracer: &Tracer) -> Result<Outcome, String> {
    let mut c = tracer.span("cycle", 0, 0, |_| cycle(cases, tracer))?;
    let mut out = Outcome::new(c.attempted, c.failed, std::mem::take(&mut c.problems));
    let layers = &mut out.layers;
    layers.insert("artifact.save_ms".into(), c.stages.save * 1e3);
    layers.insert("artifact.load_ms".into(), c.stages.load * 1e3);
    layers.insert("artifact.mb".into(), c.stages.artifact_bytes as f64 / 1e6);
    let targets: Vec<Target> = cases
        .iter()
        .zip(&c.readies)
        .zip(&c.expected)
        .map(|((case, r), expected)| Target { case, model: &r.model, engine: &r.engine, expected })
        .collect();
    if c.failed > 0 {
        // A cycle with a wrong output has no oracle for the probes.
        return Ok(out);
    }
    let measured = MeasuredCost::new(1, PROFILE_REPS).with_scale(PROFILE_SCALE);
    let tables = probe::select(&targets, &measured, tracer, layers)?;
    // Per conv node: does the analytic model rank the candidates the way
    // profiling does?
    let analytic = probe::analytic();
    let mut rho = Vec::new();
    for (t, table) in targets.iter().zip(&tables) {
        let modelled =
            pbqp_dnn::cost::CostTable::profile(&t.case.graph, t.model.registry(), &analytic);
        for row in table.layers() {
            let Some(model_row) = modelled.for_node(row.node) else { continue };
            let (mut a, mut b) = (Vec::new(), Vec::new());
            for (name, cost) in &row.costs {
                if let Some(m) = model_row.cost_of(name) {
                    a.push(m);
                    b.push(*cost);
                }
            }
            if let Some(r) = spearman(&a, &b) {
                rho.push(r);
            }
        }
    }
    layers.insert("cost.candidate_spearman".into(), mean(&rho));
    probe::schedule(&targets, 3, tracer, layers)?;
    probe::runtime(&targets, args.seconds * 0.2, 10, tracer, layers)?;
    probe::batch8(&targets, 5, layers)?;
    probe::wavefront(&targets, 5, layers)?;
    probe::vendor(&targets, 5, layers)?;
    Ok(out)
}
