//! Fault drill: inject kernel panics into a live engine and watch it
//! degrade gracefully instead of dying.
//!
//! The drill compiles the int8-island model (micro-resnet on the ARM
//! machine model, mixed precision), then serves a stream of requests
//! while failpoints fire. A panicking kernel is contained, the request
//! is answered through the bit-exact reference path, the kernel is
//! quarantined and the plan re-routed around it — the caller never sees
//! an error, only [`Engine::health`] does.
//!
//! ```sh
//! cargo run --release --example fault_drill
//! ```
//!
//! By default the drill arms its own failpoint (`kernel.dispatch` panics
//! on the 3rd dispatch). Set `PBQP_DNN_FAILPOINTS` to run your own
//! scenario with the same grammar the library reads in production:
//!
//! ```sh
//! PBQP_DNN_FAILPOINTS='kernel.dispatch=prob(0.2,7):panic(flaky simd)' \
//!     cargo run --release --example fault_drill
//! ```

use pbqp_dnn::prelude::*;
use pbqp_dnn::{faults, runtime::Schedule};

fn main() -> Result<(), Error> {
    // `armed()` consults PBQP_DNN_FAILPOINTS on first use; an empty
    // answer means no operator spec, so the drill arms its default.
    let env_driven = !faults::armed().is_empty();
    if !env_driven {
        faults::arm(faults::KERNEL_DISPATCH, "nth(3):panic(drill: kernel bug)").unwrap();
    }
    println!("[drill] armed failpoints ({}):", if env_driven { "env" } else { "default" });
    for (site, _, _) in faults::armed() {
        println!("[drill]   {site}");
    }

    // The int8-island model: micro-resnet's stem stays quantized end to
    // end on the ARM machine model — the juiciest plan to break.
    let net = models::micro_resnet();
    let weights = Weights::random(&net, 0x2026);
    let model = Compiler::new(
        CompileOptions::new().machine(MachineModel::arm_a57_like()).mixed_precision(true),
    )
    .compile(&net, &weights)?;
    println!("[drill] compiled: {}", model.plan());

    let engine = model.engine();
    let mut session = engine.session();
    let input = Tensor::random(16, 48, 48, Layout::Chw, 0xD1);
    let oracle = reference_forward(&net, &weights, &input);

    // Serve through the storm. Contained panics print no backtraces —
    // that is the point of the drill — so silence the default hook.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut out = Tensor::empty();
    for request in 0..6 {
        let before = engine.health();
        match session.infer(&input, &mut out) {
            Ok(()) => {
                let after = engine.health();
                let verdict = if after.degraded_serves > before.degraded_serves {
                    assert!(
                        out.allclose(&oracle, 1e-4).unwrap(),
                        "degraded serve must match the reference oracle"
                    );
                    "DEGRADED (reference path, answer verified)"
                } else {
                    "ok"
                };
                println!("[drill] request {request}: {verdict}");
            }
            // Faults the engine cannot transparently absorb (e.g. an
            // injected artifact or quant-edge error) surface typed.
            Err(e) => println!("[drill] request {request}: typed error: {e}"),
        }
    }
    drop(std::panic::take_hook());
    std::panic::set_hook(hook);

    let health = engine.health();
    println!(
        "[drill] health: {} contained panics, {} degraded serves, plan generation {}",
        health.contained_panics, health.degraded_serves, health.plan_generation
    );
    for (node, kernel) in &health.quarantined {
        println!("[drill]   quarantined: node `{node}` kernel `{kernel}`");
    }
    if !env_driven {
        assert!(health.contained_panics >= 1, "the default drill must contain a panic");
        assert!(!health.quarantined.is_empty(), "the default drill must quarantine");
    }

    // All clear: disarm, and prove the (possibly re-routed) engine
    // serves bit-identically to a serial schedule running its active
    // plan.
    faults::disarm_all();
    let clean = session.infer_new(&input)?;
    let active = engine.active_plan();
    let direct = Schedule::compile(model.graph(), &active, model.registry(), model.weights())?
        .run(&input, Parallelism::serial())?;
    assert_eq!(clean.data(), direct.data(), "post-drill serving must be deterministic");
    println!("[drill] disarmed: engine serves clean, bit-identical to its active plan");
    Ok(())
}
