//! Self-tuning serving: compile against a wrong machine model, then let
//! live traffic fix it.
//!
//! The example compiles micro-resnet against a machine model that
//! overstates the int8 speedup 30x — the compile-time PBQP solve picks
//! int8 kernels everywhere the quantization edges allow, whether or not
//! they pay on this host. [`Engine::enable_autotune`] then arms the
//! live sampler: served requests feed per-(node, kernel) latencies into
//! an observed-cost table, a background thread watches the divergence
//! between observed and predicted costs, re-solves the PBQP instance
//! against reality when the gap is large enough, and hot-swaps the plan
//! under the same lock the quarantine path uses. In-flight requests are
//! never blocked; each one runs to completion under the plan it started
//! with.
//!
//! ```sh
//! cargo run --release --example self_tuning
//! ```

use std::time::{Duration, Instant};

use pbqp_dnn::cost::CostTable;
use pbqp_dnn::prelude::*;
use pbqp_dnn::runtime::Schedule;
use pbqp_dnn::select::Optimizer;

fn main() -> Result<(), Error> {
    // A machine model that is confidently wrong about int8.
    let mut wrong = MachineModel::intel_haswell_like();
    wrong.int8_speedup = 30.0;
    wrong.int8_pointwise_speedup = 30.0;

    let net = models::micro_resnet();
    let weights = Weights::random(&net, 0x77);
    let model = Compiler::new(CompileOptions::new().machine(wrong).mixed_precision(true))
        .compile(&net, &weights)?;
    println!("[tune] compiled against the mis-model: {}", model.plan());

    // The paper's offline methodology on *this* host — measured costs,
    // PBQP — is the ground truth the online loop should rediscover.
    let probe = MeasuredCost::new(1, 3).with_scale(4);
    let offline_table = CostTable::profile(&net, model.registry(), &probe);
    let shapes = net.infer_shapes()?;
    let optimizer = Optimizer::new(model.registry(), &probe);
    let offline_plan = optimizer.plan_with_table(&net, &shapes, &offline_table, Strategy::Pbqp)?;
    let offline_us = optimizer.price_plan(&net, &shapes, &offline_table, &offline_plan);
    let price = |plan: &pbqp_dnn::select::ExecutionPlan| {
        optimizer.price_plan(&net, &shapes, &offline_table, plan)
    };

    let engine = model.engine();
    let initial_us = price(&engine.active_plan());
    println!(
        "[tune] offline optimum prices at {offline_us:.0} µs; the mis-modeled plan at \
         {initial_us:.0} µs"
    );

    // Arm the sampler and the background re-optimizer. Sampling rate 1
    // makes the demo converge fast; production deployments sample a
    // fraction of requests and pay one relaxed atomic load on the rest.
    engine.enable_autotune(
        AutotuneConfig::new()
            .with_sample_rate(1)
            .with_min_samples(40)
            .with_min_node_samples(3)
            .with_divergence_threshold(0.25)
            .with_cooldown(Duration::from_millis(100))
            .with_poll_interval(Duration::from_millis(10))
            .with_fill(CandidateFill::Probe { reps: 3, scale: 4 }),
    );

    // Serve live traffic and narrate every hot-swap as it lands.
    let input = Tensor::random(16, 48, 48, Layout::Chw, 0xC0);
    let mut session = engine.session();
    let started = Instant::now();
    let mut stable_since = Instant::now();
    let mut last_gen = engine.health().plan_generation;
    let initially_close = initial_us <= offline_us * 1.30;
    loop {
        session.infer_new(&input)?;
        let health = engine.health();
        if health.plan_generation != last_gen {
            last_gen = health.plan_generation;
            stable_since = Instant::now();
            println!(
                "[tune] hot-swap → generation {} after {:?}: {} samples, divergence {}, plan \
                 now prices at {:.0} µs",
                health.plan_generation,
                started.elapsed(),
                health.samples,
                health.divergence.map(|d| format!("{d:.3}")).unwrap_or_else(|| "-".into()),
                price(&engine.active_plan()),
            );
        }
        let settled = health.samples >= 40
            && stable_since.elapsed() > Duration::from_millis(600)
            && (initially_close || health.reoptimizations >= 1);
        if settled || started.elapsed() > Duration::from_secs(120) {
            break;
        }
    }

    let health = engine.health();
    let final_us = price(&engine.active_plan());
    println!(
        "[tune] settled: generation {}, {} re-optimizations ({} rejected), {} samples; plan \
         prices at {final_us:.0} µs vs offline optimum {offline_us:.0} µs",
        health.plan_generation, health.reoptimizations, health.autotune_failures, health.samples,
    );

    // The settled engine still serves bit-identically to a serial
    // schedule running its active plan — hot-swapping never trades away
    // determinism.
    let out = session.infer_new(&input)?;
    let active = engine.active_plan();
    let direct = Schedule::compile(model.graph(), &active, model.registry(), model.weights())?
        .run(&input, Parallelism::serial())?;
    assert_eq!(out.data(), direct.data(), "settled serving must be deterministic");
    println!("[tune] settled engine serves bit-identical to its active plan");
    Ok(())
}
