//! The §8 sparsity extension: "given some convolution routines which
//! leverage sparsity in the kernel … our approach can be used to decide
//! whether a dense or a sparse implementation (and moreover, which sparse
//! implementation) will be faster for any given convolutional layer".
//!
//! Sweeps the kernel sparsity ratio of a VGG-style layer and shows the
//! PBQP selection flipping from a dense primitive to a CSR sparse one at
//! some crossover, then verifies the sparse plan end to end.
//!
//! ```sh
//! cargo run --release --example sparsity_extension
//! ```

use pbqp_dnn::cost::{AnalyticCost, MachineModel};
use pbqp_dnn::graph::{ConvScenario, DnnGraph, Layer, LayerKind};
use pbqp_dnn::primitives::registry::{full_library, Registry};
use pbqp_dnn::runtime::{reference_forward, Parallelism, Schedule, Weights};
use pbqp_dnn::select::{AssignmentKind, Optimizer, Strategy};
use pbqp_dnn::tensor::{Layout, Tensor};
use pbqp_dnn::Error;

fn net_with_sparsity(pm: u16) -> DnnGraph {
    let mut g = DnnGraph::new();
    let data = g.add(Layer::new("data", LayerKind::Input { c: 64, h: 28, w: 28 }));
    let conv = g.add(Layer::new(
        "conv",
        LayerKind::Conv(ConvScenario::new(64, 28, 28, 1, 3, 64).with_sparsity_pm(pm)),
    ));
    let relu = g.add(Layer::new("relu", LayerKind::Relu));
    g.connect(data, conv).unwrap();
    g.connect(conv, relu).unwrap();
    g
}

fn main() -> Result<(), Error> {
    let registry = Registry::new(full_library());
    let cost = AnalyticCost::new(MachineModel::arm_a57_like(), 1);
    let optimizer = Optimizer::new(&registry, &cost);

    println!("{:>9} {:>28} {:>12}", "sparsity", "PBQP selection", "cost (µs)");
    let mut crossover = None;
    for pm in [0u16, 250, 500, 700, 800, 900, 950, 990] {
        let net = net_with_sparsity(pm);
        let plan = optimizer.plan(&net, Strategy::Pbqp)?;
        let conv = net.find("conv").unwrap();
        let AssignmentKind::Conv { primitive, cost_us, .. } = plan.assignment(conv) else {
            unreachable!("conv node");
        };
        println!("{:>8.1}% {:>28} {:>12.1}", pm as f64 / 10.0, primitive, cost_us);
        if crossover.is_none() && primitive.starts_with("sparse") {
            crossover = Some(pm);
        }
    }
    let pm = crossover.expect("a sparse routine should win at high sparsity");
    println!("\ndense→sparse crossover at {:.1}% kernel sparsity", pm as f64 / 10.0);

    // Execute the sparse plan and verify against the reference (weights are
    // genuinely sparsified to the scenario's ratio).
    let net = net_with_sparsity(950);
    let plan = optimizer.plan(&net, Strategy::Pbqp)?;
    let weights = Weights::random(&net, 33);
    let input = Tensor::random(64, 28, 28, Layout::Chw, 44);
    let out =
        Schedule::compile(&net, &plan, &registry, &weights)?.run(&input, Parallelism::serial())?;
    let oracle = reference_forward(&net, &weights, &input);
    println!("sparse plan verified: max |Δ| = {:.2e}", out.max_abs_diff(&oracle)?);
    Ok(())
}
