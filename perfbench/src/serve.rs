//! The closed-loop serving workloads: `zoo_serve` (the micro zoo on
//! serial sessions) and `googlenet_serve` (paper-scale GoogleNet on a
//! wavefront session), plus the repeated cold set-up every workload
//! shares.

use std::time::Instant;

use pbqp_dnn::prelude::*;

use crate::host::HostSpeed;
use crate::probe::{self, Layers, Target};
use crate::stats::{median, p99, Rng};
use crate::trace::Tracer;
use crate::zoo::{self, same_bits, Case, Ready, SetupTimes};
use crate::{Args, Outcome};

/// Fewest cold set-ups per run; `setup_s` and `compile_s` are their
/// medians.
pub const SETUP_REPS: usize = 3;

/// The models of a workload with one warmed session each, and the timed
/// cold set-ups behind `setup_s` and `compile_s`.
///
/// The host's speed swings over seconds, so set-ups taken back to back
/// would all see one speed. A plain run therefore keeps its first set-up
/// for serving and takes the others spread over the run ([`Fleet::due`],
/// [`Fleet::resample`]), so their median spans the whole run.
pub struct Fleet {
    pub readies: Vec<Ready>,
    /// Serial-session outputs per case and input: the bit-exact oracle.
    pub expected: Vec<Vec<Tensor>>,
    options: fn(&Case) -> CompileOptions,
    /// Wall seconds per set-up of the whole model set.
    setup_s: Vec<f64>,
    /// Per set-up, the summed per-model stage times.
    stages: Vec<SetupTimes>,
    last: Instant,
}

impl Fleet {
    /// Sets every case up `reps` times from cold, keeps the last set-up
    /// for serving and computes the expected outputs on it.
    pub fn setup(
        cases: &[Case],
        options: fn(&Case) -> CompileOptions,
        reps: usize,
        tracer: &Tracer,
    ) -> Result<Fleet, String> {
        // Host calibration is a once-per-process cost of the first
        // compile; paying it here keeps the set-up samples alike.
        let _ = pbqp_dnn::cost::host_calibration();
        let mut fleet = Fleet {
            readies: Vec::new(),
            expected: Vec::new(),
            options,
            setup_s: Vec::new(),
            stages: Vec::new(),
            last: Instant::now(),
        };
        for _ in 0..reps.max(1) {
            fleet.readies = fleet.set_up(cases, tracer)?;
        }
        for (case, ready) in cases.iter().zip(&fleet.readies) {
            let mut serial = ready.engine.session();
            serial.set_parallelism(Parallelism::serial());
            fleet.expected.push(zoo::expected_outputs(case, &ready.model, &mut serial)?);
        }
        Ok(fleet)
    }

    /// One timed cold set-up of every case.
    fn set_up(&mut self, cases: &[Case], tracer: &Tracer) -> Result<Vec<Ready>, String> {
        let begin = Instant::now();
        let mut sum = SetupTimes::default();
        let readies = tracer.span("setup", 0, 0, |parent| {
            cases
                .iter()
                .map(|case| {
                    let (ready, t) = zoo::setup(case, (self.options)(case), tracer, parent)
                        .map_err(|e| format!("set-up of {}: {e}", case.name))?;
                    sum.add(&t);
                    Ok(ready)
                })
                .collect::<Result<Vec<Ready>, String>>()
        })?;
        self.setup_s.push(begin.elapsed().as_secs_f64());
        self.stages.push(sum);
        self.last = Instant::now();
        Ok(readies)
    }

    /// Whether `interval` seconds have passed since the last set-up.
    pub fn due(&self, interval: f64) -> bool {
        self.last.elapsed().as_secs_f64() >= interval
    }

    /// One more timed cold set-up; the new sessions are dropped.
    pub fn resample(&mut self, cases: &[Case], tracer: &Tracer) -> Result<(), String> {
        self.set_up(cases, tracer).map(drop)
    }

    /// Tops the set-up samples up to [`SETUP_REPS`].
    pub fn finish(&mut self, cases: &[Case], tracer: &Tracer) -> Result<(), String> {
        while self.setup_s.len() < SETUP_REPS {
            self.resample(cases, tracer)?;
        }
        Ok(())
    }

    pub fn setup_s(&self) -> f64 {
        median(&mut self.setup_s.clone())
    }

    pub fn compile_s(&self) -> f64 {
        median(&mut self.stages.iter().map(SetupTimes::compile_save_load).collect::<Vec<_>>())
    }

    pub fn targets<'a>(&'a self, cases: &'a [Case]) -> Vec<Target<'a>> {
        cases
            .iter()
            .zip(&self.readies)
            .zip(&self.expected)
            .map(|((case, r), expected)| Target {
                case,
                model: &r.model,
                engine: &r.engine,
                expected,
            })
            .collect()
    }

    /// The set-up stage metrics of the artifact layer.
    pub fn artifact_layers(&self, layers: &mut Layers) {
        let med = |f: &dyn Fn(&SetupTimes) -> f64| {
            median(&mut self.stages.iter().map(f).collect::<Vec<_>>())
        };
        layers.insert("artifact.save_ms".into(), med(&|t| t.save * 1e3));
        layers.insert("artifact.load_ms".into(), med(&|t| t.load * 1e3));
        layers.insert("artifact.mb".into(), self.stages[0].artifact_bytes as f64 / 1e6);
    }
}

/// Latencies of a closed loop, split into untraced and traced requests.
#[derive(Default)]
pub struct Loop {
    pub plain_ms: Vec<f64>,
    pub traced_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// Wall seconds spent serving (the loop minus its set-up and host
    /// samples).
    pub serving_s: f64,
}

/// One client sending the next request when the last one returns: a
/// seeded uniform pick of model and input per request, served on each
/// model's kept session into its recycled output, every response checked
/// bit for bit. A plain run takes a cold set-up sample every
/// `setup_every` seconds and a host-speed sample every 100 ms, both
/// outside the request timings. With tracing on,
/// requests alternate in blocks of `block` between traced and untraced,
/// so the two p50s measure the tracing overhead.
#[allow(clippy::too_many_arguments)]
pub fn closed_loop(
    fleet: &mut Fleet,
    cases: &[Case],
    seconds: f64,
    block: u64,
    setup_every: f64,
    host: &mut HostSpeed,
    rng: &mut Rng,
    tracer: &Tracer,
) -> Result<Loop, String> {
    let mut result = Loop::default();
    let mut setup_s = 0.0;
    let start = Instant::now();
    // At least two blocks, so a traced run has both kinds of request.
    while start.elapsed().as_secs_f64() < seconds || result.attempted < 2 * block {
        if !tracer.enabled() {
            let begin = Instant::now();
            if fleet.due(setup_every) {
                fleet.resample(cases, tracer)?;
            }
            host.sample_every(0.1);
            setup_s += begin.elapsed().as_secs_f64();
        }
        let m = rng.below(cases.len());
        let i = rng.below(cases[m].inputs.len());
        let ready = &mut fleet.readies[m];
        let traced = tracer.enabled() && (result.attempted / block) % 2 == 1;
        result.attempted += 1;
        let request = result.attempted;
        let begin = Instant::now();
        let served = if traced {
            tracer.span("request", 0, request, |parent| {
                tracer.span("runtime.infer", parent, request, |_| {
                    ready.session.infer(&cases[m].inputs[i], &mut ready.out)
                })
            })
        } else {
            ready.session.infer(&cases[m].inputs[i], &mut ready.out)
        };
        let ms = begin.elapsed().as_secs_f64() * 1e3;
        match served {
            Ok(()) if same_bits(&ready.out, &fleet.expected[m][i]) => {
                if traced { &mut result.traced_ms } else { &mut result.plain_ms }.push(ms);
            }
            Ok(()) => {
                result.failed += 1;
                result.problems.push(format!("{} input {i}: wrong output", cases[m].name));
            }
            Err(e) => {
                result.failed += 1;
                result.problems.push(format!("{} input {i}: {e}", cases[m].name));
            }
        }
    }
    result.serving_s = start.elapsed().as_secs_f64() - setup_s;
    fleet.finish(cases, tracer)?;
    Ok(result)
}

/// The end-to-end metrics of a closed-loop serving run.
fn serving_outcome(fleet: &Fleet, host: &HostSpeed, mut run: Loop) -> Outcome {
    let mut out = Outcome::new(run.attempted, run.failed, std::mem::take(&mut run.problems));
    let factor = host.factor();
    let completed = run.plain_ms.len() as f64;
    out.extra("host_factor", factor, "ratio");
    let (setup, compile, p50) = (fleet.setup_s(), fleet.compile_s(), median(&mut run.plain_ms));
    out.time("setup_s", setup / factor, setup);
    out.time("compile_s", compile / factor, compile);
    out.time("latency_p50_ms", p50 / factor, p50);
    out.sampled("latency_p99_ms", p99(&mut run.plain_ms), "ms", run.plain_ms.len());
    out.extra("throughput_rps", completed / run.serving_s, "1/s");
    out
}

/// The traced run's layer metrics shared by both serving workloads.
fn serving_layers(fleet: &Fleet, run: &mut Loop, out: &mut Outcome) {
    let (plain, traced) = (median(&mut run.plain_ms), median(&mut run.traced_ms));
    out.layers.insert("trace.overhead_ms".into(), traced - plain);
    fleet.artifact_layers(&mut out.layers);
}

/// `zoo_serve`: the micro zoo, one closed-loop client on serial sessions.
pub fn zoo_serve(args: &Args, tracer: &Tracer) -> Result<Outcome, String> {
    let cases = zoo::micro_zoo(args.seed, 16);
    let reps = if tracer.enabled() { SETUP_REPS } else { 1 };
    let mut fleet = Fleet::setup(&cases, Case::options, reps, tracer)?;
    let (mut rng, mut host) = (Rng::new(args.seed), HostSpeed::new());
    if !tracer.enabled() {
        let run =
            closed_loop(&mut fleet, &cases, args.seconds, 16, 0.25, &mut host, &mut rng, tracer)?;
        return Ok(serving_outcome(&fleet, &host, run));
    }
    let seconds = args.seconds * 0.4;
    let mut run = closed_loop(&mut fleet, &cases, seconds, 16, 0.0, &mut host, &mut rng, tracer)?;
    let mut out = Outcome::new(run.attempted, run.failed, std::mem::take(&mut run.problems));
    serving_layers(&fleet, &mut run, &mut out);
    let targets = fleet.targets(&cases);
    let layers = &mut out.layers;
    probe::runtime(&targets, args.seconds * 0.3, 20, tracer, layers)?;
    probe::wavefront(&targets, 20, layers)?;
    probe::batch8(&targets, 10, layers)?;
    probe::vendor(&targets, 20, layers)?;
    probe::select(&targets, &probe::analytic(), tracer, layers)?;
    probe::schedule(&targets, 3, tracer, layers)?;
    Ok(out)
}

fn googlenet_options(_: &Case) -> CompileOptions {
    CompileOptions::new().parallelism(Parallelism::available())
}

/// `googlenet_serve`: paper-scale GoogleNet, one closed-loop client on a
/// `Parallelism::available()` session.
pub fn googlenet_serve(args: &Args, tracer: &Tracer) -> Result<Outcome, String> {
    let cases = [zoo::googlenet(args.seed, 2)];
    let reps = if tracer.enabled() { SETUP_REPS } else { 1 };
    let mut fleet = Fleet::setup(&cases, googlenet_options, reps, tracer)?;
    let (mut rng, mut host) = (Rng::new(args.seed), HostSpeed::new());
    if !tracer.enabled() {
        let run =
            closed_loop(&mut fleet, &cases, args.seconds, 1, 2.0, &mut host, &mut rng, tracer)?;
        return Ok(serving_outcome(&fleet, &host, run));
    }
    let seconds = args.seconds * 0.2;
    let mut run = closed_loop(&mut fleet, &cases, seconds, 1, 0.0, &mut host, &mut rng, tracer)?;
    let mut out = Outcome::new(run.attempted, run.failed, std::mem::take(&mut run.problems));
    serving_layers(&fleet, &mut run, &mut out);
    let targets = fleet.targets(&cases);
    let layers = &mut out.layers;
    probe::runtime(&targets, 0.0, 3, tracer, layers)?;
    probe::wavefront(&targets, 3, layers)?;
    probe::vendor(&targets, 3, layers)?;
    probe::select(&targets, &probe::analytic(), tracer, layers)?;
    probe::schedule(&targets, 2, tracer, layers)?;
    Ok(out)
}
