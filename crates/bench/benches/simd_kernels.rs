//! Runtime-dispatch microbenchmarks: every ISA the host can execute vs
//! the scalar reference, at three levels —
//!
//! * **panel kernels** — packed f32 GEMM and the quantized int8 GEMM on
//!   a conv-shaped product, pinned per ISA via the `.isa()` builders;
//! * **conv primitive** — `qint8_im2col_chw` under a forced-scalar
//!   override vs automatic dispatch;
//! * **end to end** — micro_resnet served with its f32-only optimum vs
//!   its int8-island plan (the measured version of the plan comparison
//!   the mixed-precision solve makes analytically).
//!
//! Also records the one-shot host calibration
//! (`pbqp_dnn_cost::host_calibration`) next to the machine-model presets'
//! *assumed* `int8_speedup` figures — the honest-caveat ledger for
//! README/ROADMAP.
//!
//! Emits machine-readable `BENCH_PR6.json` at the repo root. Run with
//! `cargo bench -p pbqp-dnn-bench --bench simd_kernels`; set
//! `SIMD_KERNELS_NO_ASSERT=1` (as CI smoke steps do) to print without
//! asserting. `PBQP_DNN_FORCE_ISA` pins the *dispatched* rows without
//! touching the per-ISA ones.

use std::hint::black_box;

use pbqp_dnn_bench::harness::{fmt_duration, write_repo_artifact, Bench};
use pbqp_dnn_cost::{host_calibration, AnalyticCost, MachineModel};
use pbqp_dnn_gemm::arch::{self, Isa};
use pbqp_dnn_gemm::{Gemm, GemmKind, QuantGemm, Trans};
use pbqp_dnn_graph::models::micro_resnet;
use pbqp_dnn_graph::ConvScenario;
use pbqp_dnn_primitives::registry::{full_library, mixed_precision_library, Registry};
use pbqp_dnn_runtime::{Parallelism, Schedule, Weights};
use pbqp_dnn_select::{Optimizer, Strategy};
use pbqp_dnn_tensor::transform::quantize_dynamic_into;
use pbqp_dnn_tensor::{DType, KernelTensor, Layout, Tensor};

const REPS: usize = 25;

/// Conv-shaped probe product: 32 filters over a 24×24 map, 4·6·6 patch.
const M: usize = 32;
const N: usize = 576;
const K: usize = 144;

struct GemmRow {
    isa: &'static str,
    f32_ns: u128,
    int8_ns: u128,
}

fn gemm_rows(timer: &mut Bench) -> Vec<GemmRow> {
    let mut rng = 1u64;
    let mut next = move || {
        rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        rng >> 33
    };
    let af: Vec<f32> = (0..M * K).map(|_| (next() % 255) as f32 / 127.0 - 1.0).collect();
    let bf: Vec<f32> = (0..K * N).map(|_| (next() % 255) as f32 / 127.0 - 1.0).collect();
    let aq: Vec<i8> = (0..M * K).map(|_| (next() % 255) as i8).collect();
    let bq: Vec<i8> = (0..K * N).map(|_| (next() % 255) as i8).collect();

    // Pinned per-ISA rows first, then the dispatched row (which also
    // reflects a PBQP_DNN_FORCE_ISA env override if one is set).
    let mut pins: Vec<(&'static str, Option<Isa>)> =
        arch::available_kernels().iter().map(|k| (k.isa().name(), Some(k.isa()))).collect();
    pins.push(("dispatched", None));

    let mut rows = Vec::new();
    for (label, pin) in pins {
        let gemm = Gemm::new(GemmKind::Packed).isa(pin);
        let mut cf = vec![0.0f32; M * N];
        let mut sf = vec![0.0f32; gemm.scratch_elems(Trans::N, Trans::N, M, N, K)];
        let f32_ns = timer
            .run(&format!("f32 gemm {M}x{N}x{K} [{label}]"), || {
                gemm.run_with_scratch(Trans::N, Trans::N, M, N, K, &af, &bf, 0.0, &mut cf, &mut sf);
            })
            .as_nanos();
        let qgemm = QuantGemm::new().isa(pin);
        let mut cq = vec![0i32; M * N];
        let mut sq = vec![0i32; qgemm.scratch_elems(M, N, K)];
        let int8_ns = timer
            .run(&format!("int8 gemm {M}x{N}x{K} [{label}]"), || {
                qgemm.run_with_scratch(M, N, K, &aq, 3, &bq, -7, &mut cq, &mut sq);
            })
            .as_nanos();
        rows.push(GemmRow { isa: label, f32_ns, int8_ns });
    }
    rows
}

/// `qint8_im2col_chw` under a forced-scalar override vs automatic
/// dispatch: the conv primitive whose inner product is the quantized
/// panel kernel.
fn im2col_conv_rows(timer: &mut Bench) -> (u128, u128) {
    let reg = Registry::new(mixed_precision_library());
    let prim = reg.by_name("qint8_im2col_chw").expect("int8 im2col is registered");
    let s = ConvScenario::new(16, 24, 24, 1, 3, 32);
    let f32_input = Tensor::random(s.c, s.h, s.w, prim.descriptor().input_layout, 0xA11CE);
    let mut input = Tensor::empty_dtype(DType::I8);
    quantize_dynamic_into(&f32_input, &mut input);
    let kernel = KernelTensor::random(s.m, s.c, s.k, s.k, 0xB0B);

    arch::set_override(Some(Isa::Scalar));
    let scalar_ns = timer
        .run("qint8_im2col_chw 16c 24x24 k3 m32 [scalar]", || {
            black_box(prim.execute(&input, &kernel, &s, 1).expect("runs"));
        })
        .as_nanos();
    arch::set_override(None);
    let auto_ns = timer
        .run("qint8_im2col_chw 16c 24x24 k3 m32 [dispatched]", || {
            black_box(prim.execute(&input, &kernel, &s, 1).expect("runs"));
        })
        .as_nanos();
    (scalar_ns, auto_ns)
}

/// micro_resnet end to end: the f32-only optimum vs the int8-island
/// plan, both served on this host through `Schedule::run_into`.
fn end_to_end_rows(timer: &mut Bench) -> (u128, u128) {
    let net = micro_resnet();
    let cost = AnalyticCost::new(MachineModel::arm_a57_like(), 1);
    let f32_reg = Registry::new(full_library());
    let island_reg = Registry::new(mixed_precision_library());
    let f32_plan = Optimizer::new(&f32_reg, &cost).plan(&net, Strategy::Pbqp).expect("plans");
    let island_plan = Optimizer::new(&island_reg, &cost).plan(&net, Strategy::Pbqp).expect("plans");
    assert!(!island_plan.int8_layers().is_empty(), "island fixture must select int8");

    let weights = Weights::random(&net, 0x0DD5);
    let (c, h, w) = net.infer_shapes().expect("valid model")[0];
    let input = Tensor::random(c, h, w, Layout::Chw, 9);
    let mut out = Tensor::empty();
    let serial = Parallelism::serial();

    let f32_schedule = Schedule::compile(&net, &f32_plan, &f32_reg, &weights).expect("compiles");
    let island_schedule =
        Schedule::compile(&net, &island_plan, &island_reg, &weights).expect("compiles");
    let mut f32_bufs = f32_schedule.make_buffers();
    let mut island_bufs = island_schedule.make_buffers();
    let f32_ns = timer
        .run("micro_resnet f32-only plan run_into", || {
            f32_schedule.run_into(&input, &mut f32_bufs, &mut out, serial).expect("runs");
        })
        .as_nanos();
    let island_ns = timer
        .run("micro_resnet int8-island plan run_into", || {
            island_schedule.run_into(&input, &mut island_bufs, &mut out, serial).expect("runs");
        })
        .as_nanos();
    (f32_ns, island_ns)
}

fn main() {
    let mut timer = Bench::new("simd_kernels").samples(REPS);
    let gemm = gemm_rows(&mut timer);
    let (im2col_scalar_ns, im2col_auto_ns) = im2col_conv_rows(&mut timer);
    let (e2e_f32_ns, e2e_island_ns) = end_to_end_rows(&mut timer);
    let cal = host_calibration();
    print!("{}", timer.report());

    let active = arch::active_isa();
    println!(
        "  dispatch: active {active} (host best {}), calibrated int8_speedup {:.2} \
         (presets assume {:.1} intel / {:.1} arm)",
        arch::features().best(),
        cal.int8_speedup,
        MachineModel::intel_haswell_like().int8_speedup,
        MachineModel::arm_a57_like().int8_speedup,
    );
    println!(
        "  end to end: f32-only {} vs int8-island {}",
        fmt_duration(std::time::Duration::from_nanos(e2e_f32_ns as u64)),
        fmt_duration(std::time::Duration::from_nanos(e2e_island_ns as u64)),
    );

    let mut json = String::from("{\n  \"bench\": \"simd_kernels\",\n");
    json.push_str(&format!(
        "  \"reps\": {REPS},\n  \"active_isa\": \"{active}\",\n  \"gemm_shape\": \"{M}x{N}x{K}\",\n"
    ));
    json.push_str("  \"gemm\": [\n");
    for (i, r) in gemm.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"isa\": \"{}\", \"f32_ns_per_run\": {}, \"int8_ns_per_run\": {}}}{}\n",
            r.isa,
            r.f32_ns,
            r.int8_ns,
            if i + 1 == gemm.len() { "" } else { "," },
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"qint8_im2col_chw\": {{\"scalar_ns_per_run\": {im2col_scalar_ns}, \"dispatched_ns_per_run\": {im2col_auto_ns}}},\n"
    ));
    json.push_str(&format!(
        "  \"micro_resnet\": {{\"f32_plan_ns_per_run\": {e2e_f32_ns}, \"int8_island_plan_ns_per_run\": {e2e_island_ns}}},\n"
    ));
    json.push_str(&format!(
        "  \"int8_speedup\": {{\"calibrated\": {:.4}, \"calibration_isa\": \"{}\", \"assumed_intel_haswell_like\": {:.1}, \"assumed_arm_a57_like\": {:.1}}}\n",
        cal.int8_speedup,
        cal.isa,
        MachineModel::intel_haswell_like().int8_speedup,
        MachineModel::arm_a57_like().int8_speedup,
    ));
    json.push_str("}\n");
    match write_repo_artifact("BENCH_PR6.json", &json) {
        Ok(path) => println!("  wrote {}", path.display()),
        Err(e) => println!("  could not write BENCH_PR6.json: {e}"),
    }

    // Wall-clock assertions only make sense with real SIMD dispatched;
    // CI smoke (forced scalar / shared runners) sets the no-assert gate.
    if std::env::var_os("SIMD_KERNELS_NO_ASSERT").is_none() && active == Isa::Avx2 {
        let auto = gemm.iter().find(|r| r.isa == "dispatched").expect("dispatched row");
        let scalar = gemm.iter().find(|r| r.isa == "scalar").expect("scalar row");
        assert!(
            auto.f32_ns < scalar.f32_ns,
            "dispatched f32 must beat scalar: {} vs {}",
            auto.f32_ns,
            scalar.f32_ns
        );
        assert!(
            auto.int8_ns < scalar.int8_ns,
            "dispatched int8 must beat scalar: {} vs {}",
            auto.int8_ns,
            scalar.int8_ns
        );
        assert!(
            auto.int8_ns < auto.f32_ns,
            "SIMD int8 must beat SIMD f32 on the conv-shaped product: {} vs {}",
            auto.int8_ns,
            auto.f32_ns
        );
        assert!(
            im2col_auto_ns < im2col_scalar_ns,
            "dispatched int8 conv must beat forced-scalar: {im2col_auto_ns} vs {im2col_scalar_ns}"
        );
        assert!(
            e2e_island_ns < e2e_f32_ns,
            "measured int8-island plan must beat the measured f32-only plan: \
             {e2e_island_ns} vs {e2e_f32_ns}"
        );
    }
}
