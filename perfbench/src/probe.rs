//! The traced run's layer probes: each one calls into a layer's public
//! functions from the benchmark and turns what it times or counts into
//! per-layer metrics.

use std::collections::BTreeMap;
use std::time::Instant;

use pbqp_dnn::cost::{AnalyticCost, CostSource, CostTable};
use pbqp_dnn::prelude::*;
use pbqp_dnn::runtime::Schedule;
use pbqp_dnn::select::Optimizer;

use crate::alloc;
use crate::replay::{Replay, RequestTimes, FAMILIES};
use crate::stats::{geomean, mean, median, spearman};
use crate::trace::Tracer;
use crate::zoo::{check_reference, is_int8, same_bits, Case};

/// Per-layer metric values by name.
pub type Layers = BTreeMap<String, f64>;

/// One served model the probes run against.
pub struct Target<'a> {
    pub case: &'a Case,
    pub model: &'a CompiledModel,
    pub engine: &'a Engine,
    /// Serial-session outputs of `case.inputs`, the bit-exact oracle.
    pub expected: &'a [Tensor],
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn serial_session(engine: &Engine) -> Session {
    let mut s = engine.session();
    s.set_parallelism(Parallelism::serial());
    s
}

fn check(out: &Tensor, expected: &Tensor, what: &str) -> Result<(), String> {
    if same_bits(out, expected) {
        Ok(())
    } else {
        Err(format!("{what}: output differs from the serial session's"))
    }
}

/// Serial latency beside the step replay of the same requests, for
/// `seconds` and at least `min_rounds` rounds over every target. Fills
/// the `runtime`, `primitives`, `tensor` and replay-based `cost` metrics.
pub fn runtime(
    targets: &[Target],
    seconds: f64,
    min_rounds: usize,
    tracer: &Tracer,
    layers: &mut Layers,
) -> Result<(), String> {
    let mut sessions: Vec<Session> = targets.iter().map(|t| serial_session(t.engine)).collect();
    let mut replays =
        targets.iter().map(|t| Replay::new(t.model)).collect::<Result<Vec<_>, _>>()?;
    let mut serial_ms: Vec<Vec<f64>> = vec![Vec::new(); targets.len()];
    let mut replayed: Vec<Vec<RequestTimes>> = vec![Vec::new(); targets.len()];
    let (mut out, mut replay_out) = (Tensor::empty(), Tensor::empty());
    // Warm both paths: first-use buffer growth is set-up, not a step.
    for ((t, s), r) in targets.iter().zip(&mut sessions).zip(&mut replays) {
        s.infer(&t.case.inputs[0], &mut out).map_err(|e| e.to_string())?;
        r.run(&t.case.inputs[0], &mut replay_out, &Tracer::new(false), 0, 0)?;
    }
    let start = Instant::now();
    let mut round = 0;
    let mut request = 0u64;
    while round < min_rounds || start.elapsed().as_secs_f64() < seconds {
        for (m, t) in targets.iter().enumerate() {
            request += 1;
            let i = round % t.case.inputs.len();
            let input = &t.case.inputs[i];
            tracer.span("runtime.probe", 0, request, |parent| -> Result<(), String> {
                let begin = Instant::now();
                tracer
                    .span("runtime.infer", parent, request, |_| sessions[m].infer(input, &mut out))
                    .map_err(|e| e.to_string())?;
                serial_ms[m].push(ms(begin));
                check(&out, &t.expected[i], t.case.name)?;
                let times = tracer.span("replay", parent, request, |id| {
                    replays[m].run(input, &mut replay_out, tracer, id, request)
                })?;
                check(&replay_out, &t.expected[i], "step replay")?;
                replayed[m].push(times);
                Ok(())
            })?;
        }
        round += 1;
    }

    let med = |m: usize, f: &dyn Fn(&RequestTimes) -> f64| {
        median(&mut replayed[m].iter().map(f).collect::<Vec<_>>())
    };
    let n = targets.len();
    let p50: Vec<f64> = serial_ms.iter_mut().map(|v| median(v)).collect();
    let per_model = |f: &dyn Fn(usize) -> f64| (0..n).map(f).collect::<Vec<f64>>();
    let kernel = mean(&per_model(&|m| med(m, &|t| t.kernel_s) * 1e3));
    let conversion = mean(&per_model(&|m| med(m, &|t| t.conversion_s) * 1e3));
    let serial = mean(&p50);
    layers.insert("runtime.kernel_ms".into(), kernel);
    layers.insert("runtime.conversion_ms".into(), conversion);
    layers.insert("runtime.dispatch_ms".into(), serial - kernel - conversion);
    layers.insert("runtime.coverage".into(), (kernel + conversion) / serial);
    for (f, family) in FAMILIES.iter().enumerate() {
        let v = mean(&per_model(&|m| med(m, &|t| t.family_s[f]) * 1e3));
        layers.insert(format!("primitives.conv_ms.{family}"), v);
    }
    layers.insert("primitives.op_ms".into(), mean(&per_model(&|m| med(m, &|t| t.op_s) * 1e3)));
    let macs: f64 = per_model(&|m| replayed[m][0].conv_macs).iter().sum();
    let conv_s: f64 = per_model(&|m| med(m, &|t| t.family_s.iter().sum())).iter().sum();
    layers.insert("primitives.gmacs_per_s".into(), macs / conv_s / 1e9);
    layers
        .insert("tensor.conversion_hops".into(), mean(&per_model(&|m| replayed[m][0].hops as f64)));
    layers.insert(
        "tensor.conversion_mb".into(),
        mean(&per_model(&|m| replayed[m][0].hop_bytes / 1e6)),
    );

    let rho: Vec<f64> = (0..n)
        .filter_map(|m| {
            let steps = replayed[m][0].per_step_s.len();
            let measured: Vec<f64> = (0..steps).map(|s| med(m, &|t| t.per_step_s[s])).collect();
            spearman(&replays[m].predicted_us(), &measured)
        })
        .collect();
    layers.insert("cost.rank_spearman".into(), mean(&rho));
    let predicted: f64 = targets.iter().map(|t| t.model.plan().predicted_us / 1e3).sum();
    layers.insert("cost.predicted_over_measured".into(), predicted / p50.iter().sum::<f64>());

    // The zero-allocation contract, counted on warmed serial sessions.
    let (mut allocs, mut requests) = (0u64, 0u64);
    for (t, s) in targets.iter().zip(&mut sessions) {
        for input in &t.case.inputs {
            let (r, n) = alloc::count(|| s.infer(input, &mut out));
            r.map_err(|e| e.to_string())?;
            allocs += n;
            requests += 1;
        }
    }
    layers.insert("runtime.allocs_per_request".into(), allocs as f64 / requests as f64);
    Ok(())
}

/// Interleaved serial and `Parallelism::available()` requests:
/// `runtime.wavefront_over_serial` is the geometric mean over targets of
/// the wavefront p50 over the serial p50.
pub fn wavefront(targets: &[Target], rounds: usize, layers: &mut Layers) -> Result<(), String> {
    let mut ratios = Vec::new();
    for t in targets {
        let mut serial = serial_session(t.engine);
        let mut wave = t.engine.session();
        wave.set_parallelism(Parallelism::available());
        let (mut s_ms, mut w_ms) = (Vec::new(), Vec::new());
        let mut out = Tensor::empty();
        for round in 0..=rounds {
            let i = round % t.case.inputs.len();
            for (session, times) in [(&mut serial, &mut s_ms), (&mut wave, &mut w_ms)] {
                let begin = Instant::now();
                session.infer(&t.case.inputs[i], &mut out).map_err(|e| e.to_string())?;
                // Round 0 warms both sessions.
                if round > 0 {
                    times.push(ms(begin));
                }
                check(&out, &t.expected[i], "wavefront")?;
            }
        }
        ratios.push(median(&mut w_ms) / median(&mut s_ms));
    }
    layers.insert("runtime.wavefront_over_serial".into(), geomean(&ratios));
    Ok(())
}

/// An 8-input fused `infer_batch_into` against the same 8 inputs served
/// one by one on a serial session: `runtime.batch8_fused_over_item` is
/// the geometric mean over targets of the fused time over the per-item
/// time.
pub fn batch8(targets: &[Target], rounds: usize, layers: &mut Layers) -> Result<(), String> {
    let mut ratios = Vec::new();
    for t in targets {
        let inputs = &t.case.inputs[..8];
        let mut session = serial_session(t.engine);
        let mut outs: Vec<Tensor> = (0..8).map(|_| Tensor::empty()).collect();
        let mut out = Tensor::empty();
        let (mut fused, mut items) = (Vec::new(), Vec::new());
        for round in 0..=rounds {
            let begin = Instant::now();
            session.infer_batch_into(inputs, &mut outs).map_err(|e| e.to_string())?;
            let f = ms(begin);
            let begin = Instant::now();
            for input in inputs {
                session.infer(input, &mut out).map_err(|e| e.to_string())?;
            }
            if round > 0 {
                fused.push(f);
                items.push(ms(begin));
            }
            for (o, e) in outs.iter().zip(t.expected) {
                check(o, e, "fused batch")?;
            }
        }
        ratios.push(median(&mut fused) / median(&mut items));
    }
    layers.insert("runtime.batch8_fused_over_item".into(), geomean(&ratios));
    Ok(())
}

/// The vendor-library plan (`Strategy::VendorLike { vector_width: 8 }`)
/// served beside the PBQP plan, requests interleaved:
/// `select.speedup_vs_vendor` is the geometric mean over targets of the
/// vendor p50 over the PBQP p50.
pub fn vendor(targets: &[Target], rounds: usize, layers: &mut Layers) -> Result<(), String> {
    let mut speedups = Vec::new();
    for t in targets {
        let options = t.case.options().strategy(Strategy::VendorLike { vector_width: 8 });
        let model = Compiler::new(options)
            .compile(&t.case.graph, &t.case.weights)
            .map_err(|e| e.to_string())?;
        let vendor_engine = model.engine();
        let mut vendor = serial_session(&vendor_engine);
        let mut pbqp = serial_session(t.engine);
        let (mut v_ms, mut p_ms) = (Vec::new(), Vec::new());
        let mut vendor_outs: Vec<Tensor> = Vec::new();
        let mut out = Tensor::empty();
        for round in 0..=rounds {
            let i = round % t.case.inputs.len();
            let begin = Instant::now();
            vendor.infer(&t.case.inputs[i], &mut out).map_err(|e| e.to_string())?;
            let v = ms(begin);
            if vendor_outs.len() == i && i < t.case.reference.len() {
                vendor_outs.push(out.clone());
            }
            let begin = Instant::now();
            pbqp.infer(&t.case.inputs[i], &mut out).map_err(|e| e.to_string())?;
            let p = ms(begin);
            check(&out, &t.expected[i], "pbqp")?;
            if round > 0 {
                v_ms.push(v);
                p_ms.push(p);
            }
        }
        check_reference(t.case, &vendor_outs, is_int8(&model))
            .map_err(|e| format!("vendor plan: {e}"))?;
        speedups.push(median(&mut v_ms) / median(&mut p_ms));
    }
    layers.insert("select.speedup_vs_vendor".into(), geomean(&speedups));
    Ok(())
}

/// Solves each target's selection again from a cost table built by
/// `source`, timing `CostTable::profile` and `Optimizer::plan_with_table`
/// and reading the solver's statistics from the plan. Times and counts
/// are summed over the targets; `pbqp.optimal` is the share proven
/// optimal. Returns the profiled tables.
pub fn select(
    targets: &[Target],
    source: &dyn CostSource,
    tracer: &Tracer,
    layers: &mut Layers,
) -> Result<Vec<CostTable>, String> {
    let mut tables = Vec::new();
    let (mut profile_s, mut plan_ms, mut solve_ms, mut core, mut steps, mut optimal) =
        (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
    for t in targets {
        let graph = &t.case.graph;
        let registry = t.model.registry();
        let optimizer = Optimizer::new(registry, source);
        let shapes = graph.infer_shapes().map_err(|e| e.to_string())?;
        let begin = Instant::now();
        let table =
            tracer.span("cost.profile", 0, 0, |_| CostTable::profile(graph, registry, source));
        profile_s += begin.elapsed().as_secs_f64();
        let begin = Instant::now();
        let plan = tracer
            .span("select.plan", 0, 0, |_| {
                optimizer.plan_with_table(graph, &shapes, &table, Strategy::Pbqp)
            })
            .map_err(|e| e.to_string())?;
        plan_ms += ms(begin);
        solve_ms += plan.solve_time_us / 1e3;
        if let Some(stats) = plan.solve_stats {
            core += stats.core_nodes as f64;
            steps += stats.bb_steps as f64;
        }
        optimal += f64::from(u8::from(plan.optimal == Some(true)));
        tables.push(table);
    }
    layers.insert("cost.profile_s".into(), profile_s);
    layers.insert("select.plan_ms".into(), plan_ms);
    layers.insert("pbqp.solve_ms".into(), solve_ms);
    layers.insert("pbqp.core_nodes".into(), core);
    layers.insert("pbqp.bb_steps".into(), steps);
    layers.insert("pbqp.optimal".into(), optimal / targets.len() as f64);
    Ok(tables)
}

/// The analytic cost source every serving workload compiles with (the
/// `CompileOptions` default machine model and thread budget).
pub fn analytic() -> AnalyticCost {
    AnalyticCost::new(MachineModel::intel_haswell_like(), 1)
}

/// Median of `reps` timed `Schedule::compile` calls, summed over targets.
pub fn schedule(
    targets: &[Target],
    reps: usize,
    tracer: &Tracer,
    layers: &mut Layers,
) -> Result<(), String> {
    let mut total = 0.0;
    for t in targets {
        let mut times = Vec::new();
        for _ in 0..reps {
            let begin = Instant::now();
            tracer
                .span("schedule.compile", 0, 0, |_| {
                    Schedule::compile(
                        t.model.graph(),
                        t.model.plan(),
                        t.model.registry(),
                        t.model.weights(),
                    )
                })
                .map_err(|e| e.to_string())?;
            times.push(ms(begin));
        }
        total += median(&mut times);
    }
    layers.insert("schedule.compile_ms".into(), total);
    Ok(())
}
