//! Cross-crate integration: optimize miniature networks with every
//! strategy, execute the legalized plans on real tensors, and verify each
//! against the independent reference implementation.

use pbqp_dnn_cost::{AnalyticCost, MachineModel};
use pbqp_dnn_graph::models::{micro_alexnet, micro_inception, micro_resnet};
use pbqp_dnn_graph::DnnGraph;
use pbqp_dnn_primitives::registry::{full_library, Registry};
use pbqp_dnn_runtime::{reference_forward, Parallelism, Schedule, Weights};
use pbqp_dnn_select::{Optimizer, Strategy};
use pbqp_dnn_tensor::{Layout, Tensor};

fn all_strategies() -> Vec<Strategy> {
    let mut v = vec![
        Strategy::Pbqp,
        Strategy::PbqpHeuristic,
        Strategy::Sum2d,
        Strategy::LocalOptimalChw,
        Strategy::CaffeLike,
        Strategy::VendorLike { vector_width: 8 },
        Strategy::VendorLike { vector_width: 4 },
    ];
    v.extend(Strategy::family_bars());
    v
}

fn check_network(name: &str, net: &DnnGraph, machine: MachineModel) {
    let reg = Registry::new(full_library());
    let cost = AnalyticCost::new(machine, 2);
    let opt = Optimizer::new(&reg, &cost);
    let weights = Weights::random(net, 0xFEED);
    let (c, h, w) = net.infer_shapes().unwrap()[0];
    let input = Tensor::random(c, h, w, Layout::Chw, 0xF00D);
    let oracle = reference_forward(net, &weights, &input);

    for strategy in all_strategies() {
        let plan = opt.plan(net, strategy).unwrap_or_else(|e| panic!("{name}/{strategy:?}: {e}"));
        let out = Schedule::compile(net, &plan, &reg, &weights)
            .and_then(|s| s.run(&input, Parallelism::serial().with_intra_op(2)))
            .unwrap_or_else(|e| panic!("{name}/{strategy:?}: {e}"));
        let diff = out.max_abs_diff(&oracle).unwrap();
        assert!(diff < 1e-2, "{name}/{}: diff {diff}", strategy.label());
    }
}

#[test]
fn micro_alexnet_all_strategies_compute_the_network_function() {
    check_network("micro_alexnet", &micro_alexnet(), MachineModel::intel_haswell_like());
}

#[test]
fn micro_alexnet_on_the_embedded_model_too() {
    check_network("micro_alexnet_arm", &micro_alexnet(), MachineModel::arm_a57_like());
}

#[test]
fn micro_inception_all_strategies_compute_the_network_function() {
    check_network("micro_inception", &micro_inception(), MachineModel::intel_haswell_like());
}

#[test]
fn micro_resnet_all_strategies_compute_the_network_function() {
    // The residual merge (Add) flows through every strategy, layout
    // choice and execution path like any other operator.
    check_network("micro_resnet", &micro_resnet(), MachineModel::intel_haswell_like());
}

/// The acceptance path for first-class operator selection: the ARM-model
/// int8-island plan (conv → relu → pool → conv quantized end to end, no
/// interior conversions) computes the network function within the
/// quantization budget and is executed **bit-identically** by the serial
/// schedule, the wavefront scheduler and the front door's
/// `Session::infer`.
#[test]
fn int8_island_plan_executes_bit_identically_across_all_paths() {
    use pbqp_dnn::prelude::{CompileOptions, Compiler};
    use pbqp_dnn_primitives::registry::mixed_precision_library;

    let net = micro_resnet();
    let reg = Registry::new(mixed_precision_library());
    let cost = AnalyticCost::new(MachineModel::arm_a57_like(), 1);
    let plan = Optimizer::new(&reg, &cost).plan(&net, Strategy::Pbqp).unwrap();
    assert!(
        !plan.int8_op_nodes().is_empty(),
        "precondition: relu/pool must join the int8 island\n{plan}"
    );

    let weights = Weights::random(&net, 0x7E57);
    let input = Tensor::random(16, 48, 48, Layout::Chw, 0x1D);
    let schedule = Schedule::compile(&net, &plan, &reg, &weights).unwrap();
    let serial = schedule.run(&input, Parallelism::serial()).unwrap();

    // Quantization error budget against the f32 oracle: the stem is
    // int8, the residual block and head are f32.
    let oracle = reference_forward(&net, &weights, &input);
    let maxabs = oracle.data().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
    let diff = serial.max_abs_diff(&oracle).unwrap();
    assert!(diff < 0.05 * maxabs + 0.05, "diff {diff} vs maxabs {maxabs}");

    // Wavefront and intra-op threading never change a bit.
    let wave = schedule.run(&input, Parallelism::serial().with_inter_op(4)).unwrap();
    assert_eq!(wave.data(), serial.data(), "wavefront diverged");
    let threaded = schedule.run(&input, Parallelism::serial().with_intra_op(4)).unwrap();
    assert_eq!(threaded.data(), serial.data(), "intra-op threading diverged");

    // The front door serves the same plan bit-identically.
    let model = Compiler::new(
        CompileOptions::new().machine(MachineModel::arm_a57_like()).mixed_precision(true),
    )
    .compile(&net, &weights)
    .unwrap();
    assert_eq!(model.plan().predicted_us.to_bits(), plan.predicted_us.to_bits());
    let engine = model.engine();
    let mut session = engine.session();
    let front_door = session.infer_new(&input).unwrap();
    assert_eq!(front_door.data(), serial.data(), "Session::infer diverged");
}

#[test]
fn pbqp_plan_quality_dominates_on_the_micro_networks() {
    let reg = Registry::new(full_library());
    let cost = AnalyticCost::new(MachineModel::arm_a57_like(), 2);
    let opt = Optimizer::new(&reg, &cost);
    for net in [micro_alexnet(), micro_inception()] {
        let pbqp = opt.plan(&net, Strategy::Pbqp).unwrap();
        assert_eq!(pbqp.optimal, Some(true));
        for s in all_strategies() {
            let p = opt.plan(&net, s).unwrap();
            assert!(pbqp.predicted_us <= p.predicted_us + 1e-6, "{} beat PBQP", s.label());
        }
    }
}

#[test]
fn front_door_engine_matches_the_low_level_executor_bit_for_bit() {
    // The Engine/Session surface is a repackaging of the same compiled
    // schedule a hand-built plan compiles to — outputs must agree exactly,
    // for every strategy and for wavefront parallelism, on both micro
    // networks.
    use pbqp_dnn::prelude::{CompileOptions, Compiler};

    for net in [micro_alexnet(), micro_inception()] {
        let reg = Registry::new(full_library());
        let cost = AnalyticCost::new(MachineModel::intel_haswell_like(), 1);
        let opt = Optimizer::new(&reg, &cost);
        let weights = Weights::random(&net, 0xD00F);
        let (c, h, w) = net.infer_shapes().unwrap()[0];
        let input = Tensor::random(c, h, w, Layout::Chw, 0xABCD);
        for strategy in
            [Strategy::Pbqp, Strategy::CaffeLike, Strategy::VendorLike { vector_width: 8 }]
        {
            let plan = opt.plan(&net, strategy).unwrap();
            let low_level = Schedule::compile(&net, &plan, &reg, &weights)
                .and_then(|s| s.run(&input, Parallelism::serial()))
                .unwrap();

            let model = Compiler::new(CompileOptions::new().strategy(strategy))
                .compile(&net, &weights)
                .unwrap();
            assert_eq!(model.plan().predicted_us.to_bits(), plan.predicted_us.to_bits());
            let engine = model.engine();
            let mut session = engine.session();
            let front_door = session.infer_new(&input).unwrap();
            assert_eq!(front_door.data(), low_level.data(), "{}", strategy.label());

            // Wavefront sessions stay bit-identical to serial ones.
            session.set_parallelism(Parallelism::serial().with_inter_op(4));
            let wave = session.infer_new(&input).unwrap();
            assert_eq!(wave.data(), low_level.data(), "{} wavefront", strategy.label());
        }
    }
}

#[test]
fn transform_chains_in_executed_plans_are_exact() {
    // Force a plan with layout churn: vendor strategy pins blocked layouts,
    // so chains CHW -> CHWc8 -> CHW appear, and execution must still be
    // bit-accurate vs reference.
    let reg = Registry::new(full_library());
    let cost = AnalyticCost::new(MachineModel::intel_haswell_like(), 1);
    let opt = Optimizer::new(&reg, &cost);
    let net = micro_inception();
    let plan = opt.plan(&net, Strategy::VendorLike { vector_width: 8 }).unwrap();
    let weights = Weights::random(&net, 3);
    let input = Tensor::random(8, 14, 14, Layout::Chw, 4);
    let schedule = Schedule::compile(&net, &plan, &reg, &weights).unwrap();
    let out = schedule.run(&input, Parallelism::serial()).unwrap();
    let oracle = reference_forward(&net, &weights, &input);
    assert!(out.allclose(&oracle, 1e-3).unwrap());
}
