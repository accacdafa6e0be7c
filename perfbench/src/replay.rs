//! Replays a compiled plan step by step through the public kernel entry
//! points (`ConvAlgorithm::execute_into`, `OpKernel::execute_into`,
//! `tensor::transform::apply_repr_into`), timing each kernel and each
//! representation hop. The replay walks the same topological order with
//! the same kernels, chains and workspace discipline as the serial
//! runtime, so its output must equal the session's bit for bit; the
//! caller checks that, which is what makes the per-step times trustworthy.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use pbqp_dnn::graph::{ConvScenario, LayerKind};
use pbqp_dnn::prelude::*;
use pbqp_dnn::primitives::{ConvAlgorithm, Family, OpInputs, OpKernel, OpSpec, Workspace};
use pbqp_dnn::select::AssignmentKind;
use pbqp_dnn::tensor::transform::{apply_repr_into, ReprTransform};

use crate::trace::{SpanId, Tracer};

/// Conv families as reported: sum2d counts as direct, and every int8
/// primitive counts as int8 whatever its algorithm.
pub const FAMILIES: [&str; 7] = ["direct", "im2", "kn2", "winograd", "fft", "sparse", "int8"];

fn family_index(prim: &dyn ConvAlgorithm) -> usize {
    let d = prim.descriptor();
    if d.input_dtype == DType::I8 {
        return 6;
    }
    match d.family {
        Family::Sum2d | Family::Direct => 0,
        Family::Im2 => 1,
        Family::Kn2 => 2,
        Family::Winograd => 3,
        Family::Fft => 4,
        Family::Sparse => 5,
    }
}

/// A representation chain with its staging tensors.
struct Chain {
    hops: Vec<ReprTransform>,
    stage: Vec<Tensor>,
}

impl Chain {
    fn new(hops: &[ReprTransform]) -> Chain {
        Chain {
            hops: hops.to_vec(),
            stage: hops.iter().map(|h| Tensor::empty_dtype(h.to().dtype)).collect(),
        }
    }

    /// Applies the first `upto` hops into staging, timing each one into
    /// `acc`.
    fn run(&mut self, src: &Tensor, upto: usize, acc: &mut Acc, ctx: &Ctx) -> Result<(), String> {
        for j in 0..upto {
            let (done, rest) = self.stage.split_at_mut(j);
            let from: &Tensor = if j == 0 { src } else { &done[j - 1] };
            acc.hop(from, self.hops[j], &mut rest[0], ctx)?;
        }
        Ok(())
    }

    /// The chain's result (`src` itself when the chain is empty).
    fn result<'a>(&'a self, src: &'a Tensor) -> &'a Tensor {
        self.stage.last().unwrap_or(src)
    }
}

enum Kind {
    Input {
        chain: Chain,
    },
    Conv {
        prim: Arc<dyn ConvAlgorithm>,
        kernel: Arc<pbqp_dnn::tensor::KernelTensor>,
        scenario: ConvScenario,
    },
    Op {
        kernel: Arc<dyn OpKernel>,
        spec: OpSpec,
        fc: Option<Arc<Vec<f32>>>,
    },
}

struct Step {
    node: usize,
    kind: Kind,
    /// `(predecessor node index, edge chain)` in predecessor order.
    preds: Vec<(usize, Chain)>,
    /// Predicted µs of the node's assignment plus its incoming chains
    /// (and, for the sink, the output chain).
    predicted_us: f64,
    /// Multiply–accumulates of a conv step (0 for other steps).
    macs: f64,
}

/// Times of one replayed request.
#[derive(Clone, Default)]
pub struct RequestTimes {
    /// Selected conv and op kernels, seconds.
    pub kernel_s: f64,
    /// Every edge, input and output hop, seconds.
    pub conversion_s: f64,
    /// Conv kernel seconds per entry of [`FAMILIES`].
    pub family_s: [f64; 7],
    pub op_s: f64,
    pub conv_macs: f64,
    pub hops: u64,
    /// Bytes read plus bytes written by the hops.
    pub hop_bytes: f64,
    /// Kernel plus incoming-hop seconds per step, in step order.
    pub per_step_s: Vec<f64>,
}

/// Accumulates the timings of one request.
struct Acc {
    times: RequestTimes,
    step: usize,
}

/// Span context of one replayed request.
struct Ctx<'a> {
    tracer: &'a Tracer,
    parent: SpanId,
    request: u64,
}

fn storage_bytes(t: &Tensor) -> f64 {
    let (c, h, w) = t.dims();
    (t.layout().storage_len(c, h, w) * t.dtype().bytes()) as f64
}

impl Acc {
    fn hop(
        &mut self,
        src: &Tensor,
        hop: ReprTransform,
        dst: &mut Tensor,
        ctx: &Ctx,
    ) -> Result<(), String> {
        let start = Instant::now();
        apply_repr_into(src, hop, dst).map_err(|e| format!("hop {}: {e}", hop.name()))?;
        let end = Instant::now();
        ctx.tracer.record("tensor.convert", ctx.parent, ctx.request, start, end);
        let s = end.duration_since(start).as_secs_f64();
        self.times.conversion_s += s;
        self.times.per_step_s[self.step] += s;
        self.times.hops += 1;
        self.times.hop_bytes += storage_bytes(src) + storage_bytes(dst);
        Ok(())
    }
}

pub struct Replay {
    steps: Vec<Step>,
    values: Vec<Tensor>,
    out_chain: Chain,
    sink: usize,
    ws: Workspace,
}

impl Replay {
    /// Builds the replay of `model`'s plan.
    pub fn new(model: &CompiledModel) -> Result<Replay, String> {
        let graph = model.graph();
        let plan = model.plan();
        let registry = model.registry();
        let weights = model.weights();
        let shapes = graph.infer_shapes().map_err(|e| e.to_string())?;
        let order = graph.topo_order().map_err(|e| e.to_string())?;
        let edges: HashMap<(usize, usize), (&[ReprTransform], f64)> = plan
            .edges
            .iter()
            .map(|e| ((e.from.index(), e.to.index()), (e.chain.as_slice(), e.cost_us)))
            .collect();
        let sink = order.last().ok_or("empty graph")?.index();
        let mut steps = Vec::with_capacity(order.len());
        for &node in &order {
            let layer = graph.layer(node);
            let assignment = plan.assignment(node);
            let mut predicted_us = assignment.cost_us();
            let preds = graph
                .predecessors(node)
                .iter()
                .map(|p| {
                    let (hops, cost) =
                        edges.get(&(p.index(), node.index())).copied().unwrap_or((&[], 0.0));
                    predicted_us += cost;
                    (p.index(), Chain::new(hops))
                })
                .collect();
            let mut macs = 0.0;
            let kind = match (&layer.kind, assignment) {
                (LayerKind::Input { .. }, AssignmentKind::Source { .. }) => {
                    let (hops, cost) = plan
                        .input_conversion
                        .iter()
                        .find(|(n, _, _)| *n == node)
                        .map(|(_, c, cost)| (c.as_slice(), *cost))
                        .unwrap_or((&[], 0.0));
                    predicted_us += cost;
                    Kind::Input { chain: Chain::new(hops) }
                }
                (LayerKind::Conv(s), AssignmentKind::Conv { primitive, .. }) => {
                    let prim = registry
                        .by_name(primitive)
                        .ok_or(format!("unknown primitive {primitive}"))?;
                    let kernel = weights
                        .conv_kernel_shared(node)
                        .ok_or(format!("no weights for {}", layer.name))?;
                    macs = (s.flops() / 2) as f64;
                    Kind::Conv { prim: Arc::clone(prim), kernel, scenario: *s }
                }
                (kind, AssignmentKind::Op { kernel, .. }) => {
                    let op =
                        registry.op_by_name(kernel).ok_or(format!("unknown op kernel {kernel}"))?;
                    let inputs =
                        graph.predecessors(node).iter().map(|p| shapes[p.index()]).collect();
                    let spec = OpSpec::for_layer(kind, inputs, shapes[node.index()])
                        .ok_or(format!("op kernel on non-operator layer {}", layer.name))?;
                    let fc = match kind {
                        LayerKind::FullyConnected { .. } => Some(
                            weights
                                .fc_matrix_shared(node)
                                .ok_or(format!("no weights for {}", layer.name))?,
                        ),
                        _ => None,
                    };
                    Kind::Op { kernel: Arc::clone(op), spec, fc }
                }
                (kind, a) => return Err(format!("assignment {a:?} on layer {kind}")),
            };
            steps.push(Step { node: node.index(), kind, preds, predicted_us, macs });
        }
        let (out_hops, out_cost) = plan
            .output_conversion
            .iter()
            .find(|(n, _, _)| n.index() == sink)
            .map(|(_, c, cost)| (c.as_slice(), *cost))
            .unwrap_or((&[], 0.0));
        if let Some(last) = steps.last_mut() {
            last.predicted_us += out_cost;
        }
        let values = (0..graph.len()).map(|_| Tensor::empty()).collect();
        Ok(Replay { steps, values, out_chain: Chain::new(out_hops), sink, ws: Workspace::new() })
    }

    /// Predicted µs per step, aligned with [`RequestTimes::per_step_s`].
    pub fn predicted_us(&self) -> Vec<f64> {
        self.steps.iter().map(|s| s.predicted_us).collect()
    }

    /// Replays one request, writing the network output into `out`.
    pub fn run(
        &mut self,
        input: &Tensor,
        out: &mut Tensor,
        tracer: &Tracer,
        parent: SpanId,
        request: u64,
    ) -> Result<RequestTimes, String> {
        let ctx = Ctx { tracer, parent, request };
        let mut acc = Acc {
            times: RequestTimes {
                per_step_s: vec![0.0; self.steps.len()],
                ..RequestTimes::default()
            },
            step: 0,
        };
        for (i, step) in self.steps.iter_mut().enumerate() {
            acc.step = i;
            for (from, chain) in &mut step.preds {
                let n = chain.hops.len();
                chain.run(&self.values[*from], n, &mut acc, &ctx)?;
            }
            let mut dst = std::mem::replace(&mut self.values[step.node], Tensor::empty());
            match &mut step.kind {
                Kind::Input { chain } => match chain.hops.len() {
                    // The runtime copies an unconverted input into the
                    // step's buffer: neither kernel nor hop.
                    0 => dst.assign_from(input),
                    n => {
                        chain.run(input, n - 1, &mut acc, &ctx)?;
                        let src = if n == 1 { input } else { &chain.stage[n - 2] };
                        acc.hop(src, chain.hops[n - 1], &mut dst, &ctx)?;
                    }
                },
                Kind::Conv { prim, kernel, scenario } => {
                    let (from, chain) = &step.preds[0];
                    let x = chain.result(&self.values[*from]);
                    self.ws.reset();
                    let start = Instant::now();
                    prim.execute_into(x, kernel, scenario, 1, &mut self.ws, &mut dst)
                        .map_err(|e| format!("{}: {e}", prim.descriptor().name))?;
                    let end = Instant::now();
                    tracer.record("primitives.conv", parent, request, start, end);
                    let s = end.duration_since(start).as_secs_f64();
                    acc.times.kernel_s += s;
                    acc.times.family_s[family_index(prim.as_ref())] += s;
                    acc.times.per_step_s[i] += s;
                    acc.times.conv_macs += step.macs;
                }
                Kind::Op { kernel, spec, fc } => {
                    let operands: Vec<&Tensor> = step
                        .preds
                        .iter()
                        .map(|(from, chain)| chain.result(&self.values[*from]))
                        .collect();
                    self.ws.reset();
                    let start = Instant::now();
                    kernel
                        .execute_into(
                            OpInputs::Slice(&operands),
                            fc.as_deref().map(Vec::as_slice),
                            spec,
                            &mut self.ws,
                            &mut dst,
                        )
                        .map_err(|e| format!("{}: {e}", kernel.descriptor().name))?;
                    let end = Instant::now();
                    tracer.record("primitives.op", parent, request, start, end);
                    let s = end.duration_since(start).as_secs_f64();
                    acc.times.kernel_s += s;
                    acc.times.op_s += s;
                    acc.times.per_step_s[i] += s;
                }
            }
            self.values[step.node] = dst;
        }
        let sink = &self.values[self.sink];
        match self.out_chain.hops.len() {
            0 => out.assign_from(sink),
            n => {
                self.out_chain.run(sink, n - 1, &mut acc, &ctx)?;
                let src = if n == 1 { sink } else { &self.out_chain.stage[n - 2] };
                acc.hop(src, self.out_chain.hops[n - 1], out, &ctx)?;
            }
        }
        Ok(acc.times)
    }
}
