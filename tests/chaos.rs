//! Chaos suite: every failpoint site × every action × every execution
//! mode, driven through the front door (load → engine → session).
//!
//! The contract under injected faults, per the fault-containment design:
//!
//! * the process never aborts — panics are contained into typed errors;
//! * whatever surfaces is either `Ok` (the engine recovered and served
//!   the request, possibly degraded through the reference path) or a
//!   typed [`Error`] — never a hang, never garbage;
//! * once the fault is disarmed, a freshly loaded model serves
//!   **bit-identically** to the never-injected baseline.
//!
//! Failpoints are process-global, so every test serializes on one guard
//! and disarms on entry (the schedule-level containment tests live in
//! `crates/runtime/tests/containment.rs`).

use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use pbqp_dnn::prelude::*;
use pbqp_dnn::{faults, CompiledModel};

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
/// expected here and their backtraces would drown the test output.
fn quiet<R>(f: impl FnOnce() -> R) -> R {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let r = f();
    drop(std::panic::take_hook());
    std::panic::set_hook(hook);
    r
}

const MODES: &[&str] = &["serial", "wavefront", "batch"];

fn parallelism_for(mode: &str) -> Parallelism {
    match mode {
        "serial" => Parallelism::serial(),
        _ => Parallelism::serial().with_inter_op(4),
    }
}

/// Loads the artifact and serves one request (or a 3-batch) under
/// `mode`. Every failpoint site on the load→serve path is crossed:
/// artifact read, schedule compile, kernel dispatch,
/// quant/dequant edges (the model is mixed-precision).
fn load_and_serve(bytes: &[u8], input: &Tensor, mode: &str) -> Result<Vec<Tensor>, Error> {
    let model = CompiledModel::load(&mut &bytes[..])?;
    let mut session = model.engine().session();
    session.set_parallelism(parallelism_for(mode));
    if mode == "batch" {
        let inputs: Vec<Tensor> = (0..3).map(|_| input.clone()).collect();
        let mut outs = vec![Tensor::empty(); inputs.len()];
        session.infer_batch_into(&inputs, &mut outs)?;
        Ok(outs)
    } else {
        Ok(vec![session.infer_new(input)?])
    }
}

#[test]
fn every_site_every_action_every_mode_is_contained() {
    let _g = guard();

    // Mixed precision so the plan has quant/dequant edges and int8
    // kernels — the quant-edge site is genuinely on the serve path.
    let net = models::micro_mixed();
    let weights = Weights::random(&net, 0x1817);
    let model = Compiler::new(CompileOptions::new().mixed_precision(true))
        .compile(&net, &weights)
        .expect("compiles");
    assert!(model.plan().quant_edge_count() >= 2, "precondition: quant edges on the plan");
    let mut bytes = Vec::new();
    model.save(&mut bytes).expect("saves");
    let input = Tensor::random(16, 20, 20, Layout::Chw, 0xFA);

    let baseline = load_and_serve(&bytes, &input, "serial").expect("clean baseline")[0].clone();

    let actions = ["panic(chaos)", "error(chaos)", "delay(1)", "short-read(3)"];
    for site in faults::SITES {
        for action in actions {
            for mode in MODES {
                faults::arm(site, &format!("every:{action}")).expect("valid spec");
                let label = format!("{site} × {action} × {mode}");
                match quiet(|| load_and_serve(&bytes, &input, mode)) {
                    // Recovered (degraded serve) or the action was a
                    // no-op at this site (delay, short-read off the
                    // read path): results must still be well-formed.
                    Ok(outs) => {
                        for out in &outs {
                            assert_eq!(out.dims(), baseline.dims(), "{label}: malformed output");
                        }
                    }
                    // Contained into the typed vocabulary: anything but
                    // an abort. Spot-check the family per action.
                    Err(e) => match e {
                        Error::Runtime(_) | Error::Artifact(_) | Error::Io(_) => {}
                        other => panic!("{label}: unexpected error family: {other}"),
                    },
                }
                faults::disarm_all();

                // The very next un-injected load serves bit-identically
                // to the never-injected baseline.
                let outs = load_and_serve(&bytes, &input, mode)
                    .unwrap_or_else(|e| panic!("{label}: post-disarm serve failed: {e}"));
                for out in &outs {
                    assert_eq!(
                        out.data(),
                        baseline.data(),
                        "{label}: post-disarm output diverged from baseline"
                    );
                }
            }
        }
    }
}

#[test]
fn engine_degrades_gracefully_on_the_int8_island_plan_under_all_modes() {
    let _g = guard();

    // The int8-island plan from the alloc suite: micro-resnet on the ARM
    // machine model keeps its stem quantized end to end.
    let net = models::micro_resnet();
    let weights = Weights::random(&net, 0x2026);
    let model = Compiler::new(
        CompileOptions::new().machine(MachineModel::arm_a57_like()).mixed_precision(true),
    )
    .compile(&net, &weights)
    .expect("compiles");
    assert!(!model.plan().int8_op_nodes().is_empty(), "precondition: int8 island");
    let input = Tensor::random(16, 48, 48, Layout::Chw, 0xBEEF);
    let oracle = reference_forward(&net, &weights, &input);

    for mode in MODES {
        // Fresh engine per mode: health counters and quarantine start clean.
        let engine = model.engine();
        let mut session = engine.session();
        session.set_parallelism(parallelism_for(mode));
        assert!(engine.health().is_pristine(), "{mode}: fresh engine");

        // Every kernel dispatch panics — the worst serving day possible.
        faults::arm(faults::KERNEL_DISPATCH, "every:panic(injected kernel chaos)").unwrap();
        let mut out = Tensor::empty();
        let served = quiet(|| {
            if *mode == "batch" {
                let inputs: Vec<Tensor> = (0..3).map(|_| input.clone()).collect();
                let mut outs = vec![Tensor::empty(); inputs.len()];
                session.infer_batch_into(&inputs, &mut outs).map(|()| outs.remove(0))
            } else {
                session.infer(&input, &mut out).map(|()| out.clone())
            }
        });
        faults::disarm_all();

        // The request was SERVED — degraded through the bit-exact
        // reference path — not failed.
        let served = served.unwrap_or_else(|e| panic!("{mode}: degraded serve failed: {e}"));
        assert!(
            served.allclose(&oracle, 1e-4).unwrap(),
            "{mode}: degraded serve must match the reference oracle"
        );

        // Health reflects the incident: contained panics counted, the
        // offending kernel quarantined, the plan re-planned around it.
        let health = engine.health();
        assert!(health.contained_panics >= 1, "{mode}: {health:?}");
        assert!(health.degraded_serves >= 1, "{mode}: {health:?}");
        assert!(!health.quarantined.is_empty(), "{mode}: {health:?}");
        assert!(health.plan_generation >= 1, "{mode}: {health:?}");

        // The re-planned engine serves un-injected requests normally —
        // bit-identical to a serial schedule running the same rerouted
        // plan (the oracle comparison above covered correctness; int8
        // plans are not f32-oracle-tight, so this is the right check).
        let clean = session.infer_new(&input).expect("post-fault serve");
        let active = engine.active_plan();
        let direct = pbqp_dnn::runtime::Schedule::compile(
            model.graph(),
            &active,
            model.registry(),
            model.weights(),
        )
        .and_then(|s| s.run(&input, Parallelism::serial()))
        .expect("rerouted plan executes directly");
        assert_eq!(
            clean.data(),
            direct.data(),
            "{mode}: re-planned engine diverged from its own plan's serial execution"
        );

        // The active plan routes the quarantined node off its failed
        // kernel; the compiled base plan is untouched.
        for (node, kernel) in &health.quarantined {
            let id = net.find(node).expect("quarantined node exists");
            let assigned = active.assignment(id);
            let name = format!("{assigned:?}");
            assert!(
                !name.contains(kernel.as_str()) || kernel == "sum2d",
                "{mode}: node `{node}` still assigned quarantined kernel `{kernel}`"
            );
        }
    }
}

#[test]
fn artifact_load_faults_are_typed_and_transient() {
    let _g = guard();

    let net = models::micro_alexnet();
    let weights = Weights::random(&net, 42);
    let model = Compiler::new(CompileOptions::new()).compile(&net, &weights).expect("compiles");
    let mut bytes = Vec::new();
    model.save(&mut bytes).expect("saves");
    let (c, h, w) = net.infer_shapes().unwrap()[0];
    let input = Tensor::random(c, h, w, Layout::Chw, 7);
    let baseline = model.engine().infer(&input).expect("baseline");

    // Short read: the truncated stream is rejected through the normal
    // truncation/corruption vocabulary.
    faults::arm(faults::ARTIFACT_READ, "nth(1):short-read(5)").unwrap();
    let err = CompiledModel::load(&mut bytes.as_slice()).unwrap_err();
    assert!(matches!(err, Error::Artifact(_)), "short read: got {err}");

    // Injected I/O error.
    faults::arm(faults::ARTIFACT_READ, "nth(1):error(disk gremlin)").unwrap();
    let err = CompiledModel::load(&mut bytes.as_slice()).unwrap_err();
    assert!(matches!(err, Error::Io(_)), "io error: got {err}");

    // A panic mid-decode is contained, attributed to the load.
    faults::arm(faults::ARTIFACT_READ, "nth(1):panic(decoder bug)").unwrap();
    let err = quiet(|| CompiledModel::load(&mut bytes.as_slice())).unwrap_err();
    match err {
        Error::Runtime(e) => {
            let msg = e.to_string();
            assert!(
                msg.contains("artifact load") && msg.contains("decoder bug"),
                "contained load panic: {msg}"
            );
        }
        other => panic!("expected contained load panic, got {other}"),
    }

    // All three were nth(1) one-shots: the next load is clean and the
    // loaded model serves bit-identically.
    faults::disarm_all();
    let loaded = CompiledModel::load(&mut bytes.as_slice()).expect("clean load");
    let out = loaded.engine().infer(&input).expect("clean serve");
    assert_eq!(out.data(), baseline.data());
}

#[test]
fn autotune_resolve_faults_are_contained_and_the_next_trigger_retries() {
    let _g = guard();

    // Mis-modeled compile so the autotune loop genuinely wants to
    // re-solve the moment it has observations.
    let net = models::micro_alexnet();
    let weights = Weights::random(&net, 42);
    let mut wrong = MachineModel::intel_haswell_like();
    wrong.int8_speedup = 30.0;
    let model = Compiler::new(CompileOptions::new().machine(wrong).mixed_precision(true))
        .compile(&net, &weights)
        .expect("compiles");
    let engine = model.engine();

    // Every background re-solve panics (injected) until disarmed.
    faults::arm(faults::AUTOTUNE_RESOLVE, "every:panic(resolve chaos)").unwrap();
    assert!(engine.enable_autotune(
        AutotuneConfig::new()
            .with_sample_rate(1)
            .with_min_samples(4)
            .with_min_node_samples(1)
            .with_divergence_threshold(0.01)
            .with_cooldown(Duration::from_millis(10))
            .with_poll_interval(Duration::from_millis(5))
            .with_fill(CandidateFill::Analytic(MachineModel::intel_haswell_like())),
    ));

    let (c, h, w) = net.infer_shapes().unwrap()[0];
    let input = Tensor::random(c, h, w, Layout::Chw, 7);
    let mut session = engine.session();

    // Serving continues on the old generation through repeated contained
    // background failures; health reports every one of them.
    let deadline = Instant::now() + Duration::from_secs(60);
    let failed = quiet(|| loop {
        session.infer_new(&input).expect("serving continues through re-solve failures");
        let h = engine.health();
        if h.autotune_failures >= 2 {
            break h;
        }
        assert!(Instant::now() < deadline, "injected resolve fault never surfaced: {h:?}");
    });
    assert_eq!(failed.reoptimizations, 0, "{failed:?}");
    assert_eq!(failed.plan_generation, 1, "enable bump only — failures swap nothing: {failed:?}");

    // Disarm: the next post-cooldown trigger retries and lands a swap.
    faults::disarm_all();
    let deadline = Instant::now() + Duration::from_secs(60);
    let healed = quiet(|| loop {
        session.infer_new(&input).expect("serving continues across the swap");
        let h = engine.health();
        if h.reoptimizations >= 1 {
            break h;
        }
        assert!(Instant::now() < deadline, "post-disarm retry never landed: {h:?}");
    });
    assert!(healed.plan_generation >= 2, "{healed:?}");
    assert_eq!(
        healed.contained_panics, 0,
        "background re-solve panics are autotune failures, not serving-path panics: {healed:?}"
    );
}

#[test]
fn probability_trigger_injects_deterministically_by_seed() {
    let _g = guard();

    let net = models::micro_alexnet();
    let weights = Weights::random(&net, 42);
    let model = Compiler::new(CompileOptions::new()).compile(&net, &weights).expect("compiles");
    let (c, h, w) = net.infer_shapes().unwrap()[0];
    let input = Tensor::random(c, h, w, Layout::Chw, 7);

    // p=1 always fires; p=0 never does. Either way the engine serves:
    // kernel failures degrade to the reference path.
    faults::arm(faults::KERNEL_DISPATCH, "prob(1.0,7):error(flaky)").unwrap();
    let engine = model.engine();
    let out = engine.infer(&input).expect("degraded serve");
    assert!(engine.health().degraded_serves >= 1);
    assert_eq!(out.dims(), *net.infer_shapes().unwrap().last().unwrap());

    faults::arm(faults::KERNEL_DISPATCH, "prob(0.0,7):error(flaky)").unwrap();
    let engine = model.engine();
    engine.infer(&input).expect("p=0 never fires");
    assert!(engine.health().is_pristine());
    faults::disarm_all();
}
