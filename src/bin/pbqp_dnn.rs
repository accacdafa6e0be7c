//! `pbqp-dnn` — command-line front end to the optimizer.
//!
//! ```text
//! pbqp_dnn plan     --model alexnet --machine intel --threads 4 [--strategy pbqp]
//! pbqp_dnn profile  --model vgg-e   --machine arm   [--out table.txt]
//! pbqp_dnn compare  --model googlenet --machine arm --threads 4
//! pbqp_dnn run      --model alexnet --machine intel --threads 2
//! ```
//!
//! `plan` prints the per-layer `{L_in, P, L_out}` selection; `profile`
//! emits the shippable text cost table (§4: "produce these cost tables
//! before deployment, and ship them with the trained model"); `compare`
//! evaluates every strategy; `run` compiles the model through the front
//! door (`Compiler` → `Engine` → `Session`), serves one request of random
//! data and verifies it against the reference implementation.

use std::error::Error;
use std::process::ExitCode;

use pbqp_dnn::graph::models::VggVariant;
use pbqp_dnn::prelude::*;
use pbqp_dnn::primitives::registry::{full_library, Registry};
use pbqp_dnn::select::Optimizer;

fn usage() -> String {
    "usage: pbqp_dnn <plan|profile|compare|run> --model <alexnet|vgg-a..vgg-e|googlenet> \
     [--machine <intel|arm>] [--threads N] [--strategy <pbqp|heuristic|sum2d|local-opt|caffe|vendor>] [--out FILE]"
        .to_owned()
}

struct Args {
    command: String,
    model: String,
    machine: String,
    threads: usize,
    strategy: String,
    out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().ok_or_else(usage)?;
    let mut args = Args {
        command,
        model: "alexnet".into(),
        machine: "intel".into(),
        threads: 1,
        strategy: "pbqp".into(),
        out: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("missing value for {flag}"));
        match flag.as_str() {
            "--model" => args.model = value()?,
            "--machine" => args.machine = value()?,
            "--threads" => {
                args.threads = value()?.parse().map_err(|e| format!("--threads: {e}"))?
            }
            "--strategy" => args.strategy = value()?,
            "--out" => args.out = Some(value()?),
            other => return Err(format!("unknown flag `{other}`\n{}", usage())),
        }
    }
    Ok(args)
}

fn model_by_name(name: &str) -> Result<DnnGraph, String> {
    Ok(match name.to_ascii_lowercase().as_str() {
        "alexnet" => models::alexnet(),
        "vgg-a" => models::vgg(VggVariant::A),
        "vgg-b" => models::vgg(VggVariant::B),
        "vgg-c" => models::vgg(VggVariant::C),
        "vgg-d" => models::vgg(VggVariant::D),
        "vgg-e" => models::vgg(VggVariant::E),
        "googlenet" => models::googlenet(),
        other => return Err(format!("unknown model `{other}`")),
    })
}

fn machine_by_name(name: &str) -> Result<MachineModel, String> {
    Ok(match name.to_ascii_lowercase().as_str() {
        "intel" | "haswell" | "x86" => MachineModel::intel_haswell_like(),
        "arm" | "a57" | "aarch64" => MachineModel::arm_a57_like(),
        other => return Err(format!("unknown machine `{other}`")),
    })
}

fn strategy_by_name(name: &str, machine: &MachineModel) -> Result<Strategy, String> {
    Ok(match name.to_ascii_lowercase().as_str() {
        "pbqp" => Strategy::Pbqp,
        "heuristic" => Strategy::PbqpHeuristic,
        "sum2d" => Strategy::Sum2d,
        "local-opt" | "local-optimal" => Strategy::LocalOptimalChw,
        "caffe" => Strategy::CaffeLike,
        "vendor" => Strategy::VendorLike { vector_width: machine.vector_width },
        other => return Err(format!("unknown strategy `{other}`")),
    })
}

fn run() -> Result<(), Box<dyn Error>> {
    let args = parse_args()?;
    let net = model_by_name(&args.model)?;
    let machine = machine_by_name(&args.machine)?;
    let strategy = strategy_by_name(&args.strategy, &machine)?;
    let registry = Registry::new(full_library());
    let cost = AnalyticCost::new(machine.clone(), args.threads);
    let optimizer = Optimizer::new(&registry, &cost);

    match args.command.as_str() {
        "plan" => {
            let plan = optimizer.plan(&net, strategy)?;
            print!("{plan}");
            println!(
                "optimal: {:?}; solve time: {:.2} ms; machine: {machine}",
                plan.optimal,
                plan.solve_time_us / 1000.0
            );
        }
        "profile" => {
            let table = optimizer.cost_table(&net);
            let text = table.to_text();
            match args.out {
                Some(path) => {
                    std::fs::write(&path, &text)?;
                    println!(
                        "wrote cost table for {} ({} layers, {} bytes) to {path}",
                        args.model,
                        table.layers().len(),
                        text.len()
                    );
                }
                None => print!("{text}"),
            }
        }
        "compare" => {
            let mut lineup = vec![
                Strategy::Sum2d,
                Strategy::LocalOptimalChw,
                Strategy::CaffeLike,
                Strategy::VendorLike { vector_width: machine.vector_width },
                Strategy::PbqpHeuristic,
                Strategy::Pbqp,
            ];
            lineup.splice(1..1, Strategy::family_bars());
            let baseline = optimizer.plan(&net, Strategy::Sum2d)?.predicted_us;
            println!("{:24} {:>12} {:>9}", "strategy", "predicted ms", "speedup");
            for s in lineup {
                let p = optimizer.plan(&net, s)?;
                println!(
                    "{:24} {:>12.2} {:>8.2}x",
                    s.label(),
                    p.predicted_us / 1000.0,
                    baseline / p.predicted_us
                );
            }
        }
        "run" => {
            let weights = Weights::random(&net, 0x5EED);
            let options = CompileOptions::new()
                .machine(machine.clone())
                .threads(args.threads)
                .strategy(strategy)
                .parallelism(Parallelism::serial().with_intra_op(args.threads));
            let model = Compiler::new(options).compile(&net, &weights)?;
            let plan = model.plan();
            let (c, h, w) = net.infer_shapes()?[0];
            let input = Tensor::random(c, h, w, Layout::Chw, 0xDA7A);
            let mut session = model.engine().session();
            let start = std::time::Instant::now();
            let out = session.infer_new(&input)?;
            let wall = start.elapsed().as_secs_f64() * 1000.0;
            let oracle = reference_forward(&net, &weights, &input);
            let diff = out.max_abs_diff(&oracle)?;
            println!(
                "executed {} [{}] in {wall:.1} ms on this host (predicted {:.1} ms on {}); \
                 max |Δ| vs reference = {diff:.2e}",
                args.model,
                strategy.label(),
                plan.predicted_us / 1000.0,
                machine.name
            );
            if diff > 1e-2 {
                return Err("plan output diverged from the reference".into());
            }
        }
        other => return Err(format!("unknown command `{other}`\n{}", usage()).into()),
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
