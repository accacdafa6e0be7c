//! The models a workload serves, their seeded inputs, the output oracle,
//! and the timed cold set-up that takes a model from graph to a warmed
//! session: compile, save, load, engine, session, first request.

use std::time::Instant;

use pbqp_dnn::graph::models;
use pbqp_dnn::prelude::*;

use crate::stats::derive;
use crate::trace::{SpanId, Tracer};

/// One model of a workload with its seeded weights, inputs, and the
/// reference outputs (`reference_forward`) of its first `reference.len()`
/// inputs.
pub struct Case {
    pub name: &'static str,
    pub graph: DnnGraph,
    pub weights: Weights,
    /// Compiled with the mixed-precision (int8) library.
    pub mixed: bool,
    pub inputs: Vec<Tensor>,
    pub reference: Vec<Tensor>,
}

impl Case {
    fn new(
        name: &'static str,
        graph: DnnGraph,
        mixed: bool,
        seed: u64,
        inputs: usize,
        references: usize,
    ) -> Case {
        let weights = Weights::random(&graph, derive(seed, 1));
        let (c, h, w) = graph.infer_shapes().expect("model zoo graphs are valid")[0];
        let inputs: Vec<Tensor> = (0..inputs)
            .map(|i| Tensor::random(c, h, w, Layout::Chw, derive(seed, 100 + i as u64)))
            .collect();
        let reference = inputs
            .iter()
            .take(references)
            .map(|x| reference_forward(&graph, &weights, x))
            .collect();
        Case { name, graph, weights, mixed, inputs, reference }
    }

    /// Compile options of this case: serial serving, the mixed-precision
    /// library where the case asks for it.
    pub fn options(&self) -> CompileOptions {
        CompileOptions::new().mixed_precision(self.mixed)
    }
}

/// The micro zoo: two f32 models and two compiled with mixed precision,
/// `inputs` seeded inputs each, every one with a reference output.
pub fn micro_zoo(seed: u64, inputs: usize) -> Vec<Case> {
    [
        ("micro_alexnet", models::micro_alexnet(), false),
        ("micro_inception", models::micro_inception(), false),
        ("micro_resnet", models::micro_resnet(), true),
        ("micro_mixed", models::micro_mixed(), true),
    ]
    .into_iter()
    .enumerate()
    .map(|(i, (name, graph, mixed))| {
        Case::new(name, graph, mixed, derive(seed, 10 + i as u64), inputs, inputs)
    })
    .collect()
}

/// Paper-scale GoogleNet (f32). Its reference forward pass is slow, so
/// only the first input gets one.
pub fn googlenet(seed: u64, inputs: usize) -> Case {
    Case::new("googlenet", models::googlenet(), false, derive(seed, 20), inputs, 1)
}

/// Cold set-up times of one model, in seconds, and the artifact size.
#[derive(Clone, Copy, Default)]
pub struct SetupTimes {
    pub compile: f64,
    pub save: f64,
    pub load: f64,
    /// Engine and session creation.
    pub engine: f64,
    /// The session's first request.
    pub warmup: f64,
    pub artifact_bytes: usize,
}

impl SetupTimes {
    /// Adds `t`'s stage times and artifact size to these.
    pub fn add(&mut self, t: &SetupTimes) {
        self.compile += t.compile;
        self.save += t.save;
        self.load += t.load;
        self.engine += t.engine;
        self.warmup += t.warmup;
        self.artifact_bytes += t.artifact_bytes;
    }

    /// Compile, save and load: the `compile_s` share of set-up.
    pub fn compile_save_load(&self) -> f64 {
        self.compile + self.save + self.load
    }

    /// Every stage: the whole set-up.
    pub fn total(&self) -> f64 {
        self.compile_save_load() + self.engine + self.warmup
    }

    /// These times divided by a host-speed `factor`.
    pub fn over(&self, factor: f64) -> SetupTimes {
        SetupTimes {
            compile: self.compile / factor,
            save: self.save / factor,
            load: self.load / factor,
            engine: self.engine / factor,
            warmup: self.warmup / factor,
            artifact_bytes: self.artifact_bytes,
        }
    }
}

/// A model ready to serve: the loaded artifact, its engine, and one
/// warmed session with a recycled output tensor.
pub struct Ready {
    pub model: CompiledModel,
    pub engine: Engine,
    pub session: Session,
    pub out: Tensor,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Takes `case` from graph to a warmed session under `options`, timing
/// each stage. A fresh [`Compiler`] per call keeps every compile cold.
pub fn setup(
    case: &Case,
    options: CompileOptions,
    tracer: &Tracer,
    parent: SpanId,
) -> Result<(Ready, SetupTimes), Error> {
    let mut times = SetupTimes::default();
    let t = Instant::now();
    let compiled = tracer.span("compile", parent, 0, |_| {
        Compiler::new(options).compile(&case.graph, &case.weights)
    })?;
    times.compile = secs(t);

    let t = Instant::now();
    let mut bytes = Vec::new();
    tracer.span("artifact.save", parent, 0, |_| compiled.save(&mut bytes))?;
    times.save = secs(t);
    times.artifact_bytes = bytes.len();

    let t = Instant::now();
    let model =
        tracer.span("artifact.load", parent, 0, |_| CompiledModel::load(&mut &bytes[..]))?;
    times.load = secs(t);

    let t = Instant::now();
    let (engine, mut session) = tracer.span("runtime.engine", parent, 0, |_| {
        let engine = model.engine();
        let session = engine.session();
        (engine, session)
    });
    times.engine = secs(t);

    let t = Instant::now();
    let mut out = Tensor::empty();
    tracer.span("runtime.warmup", parent, 0, |_| session.infer(&case.inputs[0], &mut out))?;
    times.warmup = secs(t);
    Ok((Ready { model, engine, session, out }, times))
}

/// Whether the plan runs any int8 kernel, which widens the error budget.
pub fn is_int8(model: &CompiledModel) -> bool {
    !model.plan().int8_layers().is_empty() || !model.plan().int8_op_nodes().is_empty()
}

/// Checks a plan's outputs of `case`'s first inputs against their
/// reference outputs, within the dtype's error budget.
///
/// An f32 plan must match elementwise: max |diff| within 1e-3 of
/// max |ref| (plus 1e-3), for every output. An int8 plan quantizes each
/// activation it touches per tensor, and micro_resnet ends in a softmax
/// that turns small logit errors into visible probability shifts: one
/// output in a few hundred moves by a third of its L1 mass. So the int8
/// budget bounds the mean relative L1 error (sum |diff| / sum |ref|) over
/// the checked outputs at 0.25; seeded runs measure at most 0.11, and a
/// wrong kernel or layout is off by the order of the output itself.
pub fn check_reference(case: &Case, outs: &[Tensor], int8: bool) -> Result<(), String> {
    let mut rel_l1 = Vec::new();
    for (i, (out, reference)) in outs.iter().zip(&case.reference).enumerate() {
        let diff =
            out.max_abs_diff(reference).map_err(|e| format!("{} input {i}: {e}", case.name))?;
        let maxabs = reference.data().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        if !int8 && (diff.is_nan() || diff > 1e-3 * maxabs + 1e-3) {
            return Err(format!(
                "{} input {i}: max |diff| {diff} exceeds 1e-3 * {maxabs} + 1e-3",
                case.name
            ));
        }
        let canonical = out.to_layout(reference.layout());
        let l1: f32 =
            canonical.data().iter().zip(reference.data()).map(|(a, b)| (a - b).abs()).sum();
        rel_l1.push(f64::from(l1 / reference.data().iter().map(|v| v.abs()).sum::<f32>()));
    }
    let mean = crate::stats::mean(&rel_l1);
    if int8 && (mean.is_nan() || mean > 0.25) {
        return Err(format!(
            "{}: mean relative L1 error {mean} of the int8 plan exceeds 0.25",
            case.name
        ));
    }
    Ok(())
}

/// Bit-for-bit equality: same dims, layout and f32 bit patterns.
pub fn same_bits(a: &Tensor, b: &Tensor) -> bool {
    a.dims() == b.dims()
        && a.layout() == b.layout()
        && a.dtype() == b.dtype()
        && a.data().len() == b.data().len()
        && a.data().iter().zip(b.data()).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The expected outputs of every input of `case`, served once through a
/// serial `session` and checked against the reference outputs.
pub fn expected_outputs(
    case: &Case,
    model: &CompiledModel,
    session: &mut Session,
) -> Result<Vec<Tensor>, String> {
    let expected = case
        .inputs
        .iter()
        .map(|input| session.infer_new(input).map_err(|e| format!("{}: {e}", case.name)))
        .collect::<Result<Vec<_>, _>>()?;
    check_reference(case, &expected, is_int8(model))?;
    Ok(expected)
}
