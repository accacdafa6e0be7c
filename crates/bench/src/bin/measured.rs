//! E11: the paper's actual methodology on the build host — per-layer
//! wall-clock profiling of every candidate primitive (§3.1), PBQP
//! selection over the measured cost table, then **real execution** of the
//! competing plans with wall-clock timing.
//!
//! Profiling runs at reduced spatial scale (costs are Θ(H·W) per family
//! and are scaled back up); the final network executions are full size.
//! Run with `--quick` to profile at a coarser scale.

use std::time::Instant;

use pbqp_dnn_bench::registry;
use pbqp_dnn_cost::MeasuredCost;
use pbqp_dnn_graph::models;
use pbqp_dnn_runtime::{Parallelism, Schedule, Weights};
use pbqp_dnn_select::{Optimizer, Strategy};
use pbqp_dnn_tensor::{Layout, Tensor};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let scale = if quick { 8 } else { 4 };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));

    let reg = registry();
    let profiler = MeasuredCost::new(threads, 2).with_scale(scale);
    let net = models::alexnet();

    println!("profiling AlexNet x {} primitives at 1/{scale} spatial scale...", reg.len());
    let start = Instant::now();
    let opt = Optimizer::new(&reg, &profiler);
    let table = opt.cost_table(&net);
    println!("profiled in {:.1} s", start.elapsed().as_secs_f64());
    for layer in table.layers() {
        let (best, cost) = layer.best();
        println!("  {}: best measured = {best} ({:.0} µs extrapolated)", layer.scenario, cost);
    }

    let shapes = net.infer_shapes().expect("alexnet is valid");
    let weights = Weights::random(&net, 1);
    let input = Tensor::random(3, 227, 227, Layout::Chw, 2);

    println!("\nexecuting competing plans (full-size AlexNet, {threads} threads):");
    println!("{:22} {:>14} {:>14}", "strategy", "predicted ms", "measured ms");
    let mut rows = Vec::new();
    for strategy in
        [Strategy::Pbqp, Strategy::LocalOptimalChw, Strategy::CaffeLike, Strategy::Sum2d]
    {
        let plan = opt.plan_with_table(&net, &shapes, &table, strategy).expect("alexnet plans");
        let schedule = Schedule::compile(&net, &plan, &reg, &weights).expect("plan compiles");
        let mut bufs = schedule.make_buffers();
        let par = Parallelism::serial().with_intra_op(threads);
        // Warm-up pass, then the timed pass (the paper averages five; one
        // timed pass keeps the sum2d row tolerable).
        let mut out = Tensor::empty();
        schedule.run_into(&input, &mut bufs, &mut out, par).expect("plan executes");
        let mut out2 = Tensor::empty();
        let start = Instant::now();
        schedule.run_into(&input, &mut bufs, &mut out2, par).expect("plan executes");
        let ms = start.elapsed().as_secs_f64() * 1000.0;
        assert!(out.allclose(&out2, 1e-5).unwrap());
        println!("{:22} {:>14.1} {:>14.1}", strategy.label(), plan.predicted_us / 1000.0, ms);
        rows.push((strategy, ms));
    }
    let pbqp = rows[0].1;
    let sum2d = rows[3].1;
    println!("\nmeasured speedup, PBQP vs sum2d: {:.1}x", sum2d / pbqp);
    assert!(pbqp < sum2d, "PBQP must beat the baseline in real execution");
}
