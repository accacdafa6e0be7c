//! Online re-optimization end-to-end, through the front door: a
//! deliberately mis-modeled engine converges under sampled live traffic
//! to (the near-tie neighborhood of) the offline measured-cost plan,
//! no request is ever dropped or blocked across hot-swaps, every
//! response is bit-exact against its own generation's plan, and
//! quarantine reroutes and autotune swaps arbitrate to one consistent
//! serving state.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use pbqp_dnn::cost::CostTable;
use pbqp_dnn::prelude::*;
use pbqp_dnn::runtime::Schedule;
use pbqp_dnn::select::{ExecutionPlan, Optimizer};
use pbqp_dnn::{faults, graph::NodeId};

/// Failpoints and the sampler gate are process-global; every test in
/// this binary serializes on one guard and disarms on entry.
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
/// expected and their backtraces would drown the test output.
fn quiet<R>(f: impl FnOnce() -> R) -> R {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let r = f();
    drop(std::panic::take_hook());
    std::panic::set_hook(hook);
    r
}

/// A plan's selected `(node, kernel)` pairs, convs and ops together.
fn selections(plan: &ExecutionPlan) -> Vec<(NodeId, String)> {
    plan.selected_primitives()
        .into_iter()
        .chain(plan.selected_op_kernels())
        .map(|(n, k)| (n, k.to_owned()))
        .collect()
}

/// The convergence acceptance demo (ISSUE tentpole): an engine compiled
/// against a machine model that wildly overstates the int8 speedup
/// serves live traffic, the sampler + background re-solve correct it,
/// and the settled plan matches the offline measured-cost plan modulo
/// near-ties — priced under the offline measured table it lands within
/// tolerance of the offline optimum (two independent wall-clock
/// profiles can legitimately swap near-tied kernels, so selection
/// equality is asserted through cost equivalence, not string equality).
#[test]
fn mis_modeled_engine_converges_under_live_traffic_without_dropping_requests() {
    let _g = guard();

    let net = models::micro_resnet();
    let weights = Weights::random(&net, 0x77);
    let mut wrong = MachineModel::intel_haswell_like();
    wrong.int8_speedup = 30.0;
    wrong.int8_pointwise_speedup = 30.0;
    let model = Compiler::new(CompileOptions::new().machine(wrong).mixed_precision(true))
        .compile(&net, &weights)
        .expect("compiles");

    // The paper's offline methodology on *this* host: measured costs,
    // PBQP — the ground truth the online loop should rediscover.
    let probe = MeasuredCost::new(1, 3).with_scale(4);
    let offline_table = CostTable::profile(&net, model.registry(), &probe);
    let shapes = net.infer_shapes().unwrap();
    let optimizer = Optimizer::new(model.registry(), &probe);
    let offline_plan =
        optimizer.plan_with_table(&net, &shapes, &offline_table, Strategy::Pbqp).unwrap();
    let offline_us = optimizer.price_plan(&net, &shapes, &offline_table, &offline_plan);
    assert!(offline_us > 0.0);
    let close_to_offline = |plan: &ExecutionPlan| {
        optimizer.price_plan(&net, &shapes, &offline_table, plan) <= offline_us * 1.30
    };

    let engine = model.engine();
    let initially_close = close_to_offline(&engine.active_plan());

    assert!(engine.enable_autotune(
        AutotuneConfig::new()
            .with_sample_rate(1)
            .with_min_samples(40)
            .with_min_node_samples(3)
            .with_divergence_threshold(0.25)
            .with_cooldown(Duration::from_millis(100))
            .with_poll_interval(Duration::from_millis(10))
            .with_fill(CandidateFill::Probe { reps: 3, scale: 4 }),
    ));
    assert!(!engine.enable_autotune(AutotuneConfig::new()), "enable is once per engine");

    let inputs: Vec<Tensor> =
        (0..4).map(|i| Tensor::random(16, 48, 48, Layout::Chw, 0xC0 + i)).collect();

    // Serve live traffic, capturing every response whose serving
    // generation is unambiguous (unchanged across the request) together
    // with that generation's plan.
    let mut session = engine.session();
    let mut plan_of: HashMap<u64, Arc<ExecutionPlan>> = HashMap::new();
    let mut captures: Vec<(u64, usize, Tensor)> = Vec::new();
    let started = Instant::now();
    let mut stable_since = Instant::now();
    let mut last_gen = engine.health().plan_generation;
    loop {
        for (i, input) in inputs.iter().enumerate() {
            let before = engine.health().plan_generation;
            let out = session.infer_new(input).expect("no request is ever dropped");
            let after = engine.health().plan_generation;
            if before != after {
                continue; // a swap raced this request; attribution is ambiguous
            }
            if let std::collections::hash_map::Entry::Vacant(e) = plan_of.entry(before) {
                let plan = engine.active_plan();
                if engine.health().plan_generation == before {
                    e.insert(plan);
                }
            }
            captures.push((before, i, out));
        }
        let health = engine.health();
        if health.plan_generation != last_gen {
            last_gen = health.plan_generation;
            stable_since = Instant::now();
        }
        let settled = health.samples >= 40
            && stable_since.elapsed() > Duration::from_millis(600)
            && (initially_close || health.reoptimizations >= 1);
        if settled {
            break;
        }
        assert!(
            started.elapsed() < Duration::from_secs(120),
            "autotune did not settle: {health:?}"
        );
    }
    drop(session);

    let health = engine.health();
    assert!(health.samples > 0, "{health:?}");
    assert!(health.divergence.is_some(), "live traffic produced a divergence signal: {health:?}");
    if !initially_close {
        assert!(health.reoptimizations >= 1, "mis-modeled plan was never corrected: {health:?}");
        assert!(health.plan_generation >= 2, "{health:?}");
    }

    // Acceptance: the settled plan matches the offline measured-cost
    // plan modulo near-ties.
    let final_plan = engine.active_plan();
    assert!(
        close_to_offline(&final_plan),
        "settled plan prices at {} µs vs offline optimum {} µs under the offline table",
        optimizer.price_plan(&net, &shapes, &offline_table, &final_plan),
        offline_us,
    );

    // Every captured response is bit-exact against its own generation's
    // plan executed through a serial schedule.
    assert!(!captures.is_empty());
    let mut checked = 0;
    for (gen, i, out) in &captures {
        let Some(plan) = plan_of.get(gen) else { continue };
        let direct = Schedule::compile(&net, plan, model.registry(), model.weights())
            .and_then(|s| s.run(&inputs[*i], Parallelism::serial()))
            .expect("generation plan executes directly");
        assert_eq!(
            out.data(),
            direct.data(),
            "generation {gen}: response diverged from its own plan's serial execution"
        );
        checked += 1;
    }
    assert!(checked > 0, "at least one capture has an attributable plan");
}

/// Swap arbitration: a kernel fault quarantines and reroutes while the
/// autotune loop is live and eager to swap. Whatever interleaving
/// happens, the engine settles on one consistent serving state that
/// never selects a quarantined kernel, and every request is served.
#[test]
fn quarantine_and_autotune_swaps_arbitrate_to_one_consistent_state() {
    let _g = guard();

    let net = models::micro_mixed();
    let weights = Weights::random(&net, 0x1817);
    let model = Compiler::new(CompileOptions::new().mixed_precision(true))
        .compile(&net, &weights)
        .expect("compiles");
    let engine = model.engine();

    // Analytic fill keeps re-solves instant; tiny gates and cooldown
    // keep the autotune loop constantly eager, maximizing the window
    // for a swap race with the quarantine path.
    assert!(engine.enable_autotune(
        AutotuneConfig::new()
            .with_sample_rate(1)
            .with_min_samples(4)
            .with_min_node_samples(1)
            .with_divergence_threshold(0.01)
            .with_cooldown(Duration::from_millis(5))
            .with_poll_interval(Duration::from_millis(2))
            .with_fill(CandidateFill::Analytic(MachineModel::intel_haswell_like())),
    ));

    let input = Tensor::random(16, 20, 20, Layout::Chw, 0xFA);
    let mut session = engine.session();

    // Warm the sampler so the loop has observations to act on.
    for _ in 0..10 {
        session.infer_new(&input).expect("warmup serves");
    }

    // Now fault a kernel dispatch mid-stream: the 3rd dispatch panics,
    // forcing a quarantine + reroute while the autotune thread may be
    // mid-swap.
    faults::arm(faults::KERNEL_DISPATCH, "nth(3):panic(arbitration chaos)").unwrap();
    for _ in 0..10 {
        quiet(|| session.infer_new(&input)).expect("faulted stream still serves");
    }
    faults::disarm_all();

    // Let the autotune loop run a few more cycles against the
    // quarantine, then settle.
    let deadline = Instant::now() + Duration::from_secs(30);
    let health = loop {
        session.infer_new(&input).expect("post-fault serves");
        let h = engine.health();
        if !h.quarantined.is_empty() || Instant::now() > deadline {
            break h;
        }
    };
    std::thread::sleep(Duration::from_millis(50));

    let health = if health.quarantined.is_empty() { engine.health() } else { health };
    assert!(health.contained_panics >= 1, "{health:?}");
    assert!(!health.quarantined.is_empty(), "{health:?}");
    assert!(health.plan_generation >= 2, "enable bump + at least one swap: {health:?}");

    // The single consistent outcome: whatever plan is serving, it
    // selects no quarantined kernel — the autotune path validates
    // against the quarantine list under the same lock the quarantine
    // path swaps under.
    let active = engine.active_plan();
    let selected = selections(&active);
    for (node, kernel) in &engine.health().quarantined {
        let id = net.find(node).expect("quarantined node exists");
        assert!(
            !selected.iter().any(|(n, k)| *n == id && k == kernel),
            "active plan still selects quarantined ({node}, {kernel})"
        );
    }

    // And the settled engine serves bit-exactly per its own plan (only
    // asserted when no swap raced the request — generation stable
    // across the capture).
    let before = engine.health().plan_generation;
    let out = session.infer_new(&input).expect("settled serve");
    let plan = engine.active_plan();
    let after = engine.health().plan_generation;
    if before == after {
        let direct = Schedule::compile(&net, &plan, model.registry(), model.weights())
            .and_then(|s| s.run(&input, Parallelism::serial()))
            .expect("active plan executes directly");
        assert_eq!(
            out.data(),
            direct.data(),
            "settled response diverged from the active plan's serial execution"
        );
    }
}
