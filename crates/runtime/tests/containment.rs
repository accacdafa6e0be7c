//! Schedule-level fault containment: injected kernel panics and errors
//! are typed, never process-fatal, and the next un-injected request is
//! bit-identical to the reference.
//!
//! Failpoints are process-global, so every test serializes on one guard
//! and disarms on entry; the facade-level sweep lives in the workspace
//! `tests/chaos.rs`.

use std::sync::{Mutex, MutexGuard};

use pbqp_dnn_cost::{AnalyticCost, MachineModel};
use pbqp_dnn_graph::{ConvScenario, DnnGraph, Layer, LayerKind};
use pbqp_dnn_primitives::registry::{full_library, mixed_precision_library, Registry};
use pbqp_dnn_runtime::{faults, BatchBuffers, Parallelism, RuntimeError, Schedule, Weights};
use pbqp_dnn_select::{Optimizer, Strategy};
use pbqp_dnn_tensor::{Layout, Tensor};

fn guard() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    let g = match LOCK.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    };
    faults::disarm_all();
    g
}

/// Runs `f` with the default panic hook silenced: contained panics are
/// expected here, and their default-hook backtraces would drown the
/// test output. The hook is restored before returning.
fn quiet<R>(f: impl FnOnce() -> R) -> R {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let r = f();
    drop(std::panic::take_hook());
    std::panic::set_hook(hook);
    r
}

/// Two parallel branches so wavefront mode genuinely fans out.
fn forked_net() -> DnnGraph {
    let mut g = DnnGraph::new();
    let data = g.add(Layer::new("data", LayerKind::Input { c: 4, h: 12, w: 12 }));
    let b1 =
        g.add(Layer::new("b1", LayerKind::Conv(ConvScenario::new(4, 12, 12, 1, 1, 6).with_pad(0))));
    let b3 = g.add(Layer::new("b3", LayerKind::Conv(ConvScenario::new(4, 12, 12, 1, 3, 6))));
    let cat = g.add(Layer::new("cat", LayerKind::Concat));
    let relu = g.add(Layer::new("relu", LayerKind::Relu));
    let out = g.add(Layer::new("out", LayerKind::Conv(ConvScenario::new(12, 12, 12, 1, 3, 5))));
    g.connect(data, b1).unwrap();
    g.connect(data, b3).unwrap();
    g.connect(b1, cat).unwrap();
    g.connect(b3, cat).unwrap();
    g.connect(cat, relu).unwrap();
    g.connect(relu, out).unwrap();
    g
}

struct Fixture {
    net: DnnGraph,
    reg: Registry,
    weights: Weights,
    plan: pbqp_dnn_select::ExecutionPlan,
    input: Tensor,
}

fn fixture() -> Fixture {
    let net = forked_net();
    let reg = Registry::new(full_library());
    let cost = AnalyticCost::new(MachineModel::intel_haswell_like(), 1);
    let plan = Optimizer::new(&reg, &cost).plan(&net, Strategy::Pbqp).unwrap();
    let weights = Weights::random(&net, 7);
    let input = Tensor::random(4, 12, 12, Layout::Chw, 8);
    Fixture { net, reg, weights, plan, input }
}

impl Fixture {
    fn schedule(&self) -> Schedule {
        Schedule::compile(&self.net, &self.plan, &self.reg, &self.weights).unwrap()
    }
}

/// One serial forward pass.
fn run(schedule: &Schedule, input: &Tensor) -> Result<Tensor, RuntimeError> {
    schedule.run(input, Parallelism::serial())
}

#[test]
fn injected_kernel_panic_is_contained_under_all_three_modes() {
    let _g = guard();
    let fx = fixture();
    let schedule = fx.schedule();
    let baseline = run(&schedule, &fx.input).unwrap();
    let batch: Vec<Tensor> = (0..4).map(|_| fx.input.clone()).collect();

    type Mode<'a> = (&'a str, Box<dyn Fn(&Schedule) -> Result<(), RuntimeError> + 'a>);
    let modes: Vec<Mode> = vec![
        ("serial", Box::new(|s: &Schedule| run(s, &fx.input).map(|_| ()))),
        (
            "wavefront",
            Box::new(|s: &Schedule| {
                s.run(&fx.input, Parallelism::serial().with_inter_op(4)).map(|_| ())
            }),
        ),
        (
            "batch",
            Box::new(|s: &Schedule| {
                let mut outs = vec![Tensor::empty(); batch.len()];
                s.run_batch_fused_into(&batch, &mut BatchBuffers::new(), &mut outs, 1)
            }),
        ),
    ];
    for (mode, run_mode) in modes {
        faults::arm(faults::KERNEL_DISPATCH, "every:panic(injected chaos)").unwrap();
        let err = quiet(|| run_mode(&schedule)).unwrap_err();
        match err {
            RuntimeError::KernelPanicked { node, kernel, message } => {
                assert!(!node.is_empty() && !kernel.is_empty(), "{mode}");
                assert!(message.contains("injected chaos"), "{mode}: {message}");
            }
            // Under fan-out a worker-level containment is also legal.
            RuntimeError::Panicked { message, .. } => {
                assert!(message.contains("injected chaos"), "{mode}: {message}")
            }
            other => panic!("{mode}: expected a contained panic, got {other}"),
        }
        faults::disarm_all();
        // The schedule must be fully serviceable, bit-identical to the
        // pre-fault baseline.
        let after = run(&schedule, &fx.input).unwrap();
        assert_eq!(after.data(), baseline.data(), "{mode}: post-fault output diverged");
    }
}

#[test]
fn injected_dispatch_error_is_typed_with_attribution() {
    let _g = guard();
    let fx = fixture();
    let schedule = fx.schedule();
    let baseline = run(&schedule, &fx.input).unwrap();
    faults::arm(faults::KERNEL_DISPATCH, "nth(2):error(flaky kernel)").unwrap();
    let err = run(&schedule, &fx.input).unwrap_err();
    match err {
        RuntimeError::KernelFailed { node, kernel, message } => {
            assert!(!node.is_empty() && !kernel.is_empty());
            assert_eq!(message, "flaky kernel");
        }
        other => panic!("expected KernelFailed, got {other}"),
    }
    faults::disarm_all();
    assert_eq!(run(&schedule, &fx.input).unwrap().data(), baseline.data());
}

#[test]
fn quant_edge_injection_surfaces_on_mixed_precision_plans() {
    let _g = guard();
    let net = pbqp_dnn_graph::models::micro_mixed();
    let reg = Registry::new(mixed_precision_library());
    let cost = AnalyticCost::new(MachineModel::intel_haswell_like(), 1);
    let plan = Optimizer::new(&reg, &cost).plan(&net, Strategy::Pbqp).unwrap();
    assert!(plan.quant_edge_count() >= 2, "precondition: quant edges\n{plan}");
    let weights = Weights::random(&net, 17);
    let input = Tensor::random(16, 20, 20, Layout::Chw, 18);
    let schedule = Schedule::compile(&net, &plan, &reg, &weights).unwrap();
    let baseline = run(&schedule, &input).unwrap();

    faults::arm(faults::QUANT_EDGE, "every:error(bad quant)").unwrap();
    let err = run(&schedule, &input).unwrap_err();
    assert!(
        matches!(err, RuntimeError::Injected { site, .. } if site == faults::QUANT_EDGE),
        "expected injected quant-edge error, got {err}"
    );
    faults::disarm_all();
    assert_eq!(run(&schedule, &input).unwrap().data(), baseline.data());
}

#[test]
fn schedule_compile_failpoint_is_contained_and_not_cached() {
    let _g = guard();
    let fx = fixture();
    faults::arm(faults::SCHEDULE_COMPILE, "every:panic(compile chaos)").unwrap();
    let err = match quiet(|| Schedule::compile(&fx.net, &fx.plan, &fx.reg, &fx.weights)) {
        Err(e) => e,
        Ok(_) => panic!("armed compile failpoint did not fire"),
    };
    match err {
        RuntimeError::Panicked { context, message } => {
            assert_eq!(context, "schedule compile");
            assert!(message.contains("compile chaos"));
        }
        other => panic!("expected contained compile panic, got {other}"),
    }
    // An injected compile error is typed, and nothing of it is cached:
    // once disarmed, the same plan compiles and serves.
    faults::arm(faults::SCHEDULE_COMPILE, "every:error(compile refused)").unwrap();
    let err = match Schedule::compile(&fx.net, &fx.plan, &fx.reg, &fx.weights) {
        Err(e) => e,
        Ok(_) => panic!("armed compile failpoint did not fire"),
    };
    assert!(matches!(err, RuntimeError::Injected { site, .. } if site == faults::SCHEDULE_COMPILE));
    faults::disarm_all();
    run(&fx.schedule(), &fx.input).unwrap();
}

#[test]
fn shape_mismatched_batch_member_is_a_typed_error_before_execution() {
    let _g = guard();
    let fx = fixture();
    let schedule = fx.schedule();
    let batch = vec![
        fx.input.clone(),
        Tensor::random(4, 10, 12, Layout::Chw, 9), // wrong dims
        fx.input.clone(),
    ];
    let mut bufs = BatchBuffers::new();
    let mut outs = vec![Tensor::empty(); batch.len()];
    let err = schedule.run_batch_fused_into(&batch, &mut bufs, &mut outs, 1).unwrap_err();
    assert!(matches!(err, RuntimeError::BadInput(_)), "got {err}");
    // And the schedule still serves.
    run(&schedule, &fx.input).unwrap();
}
