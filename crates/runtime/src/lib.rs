//! Runtime execution of legalized primitive-selection plans.
//!
//! The paper maps PBQP solutions to code with a simple code generator that
//! emits calls into the primitive library (§5.2). This crate is the Rust
//! equivalent grown into a small execution engine. [`Schedule::compile`]
//! turns a plan into an owned, immutable schedule (topological step order
//! plus wavefront levels, with every primitive/weight lookup resolved up
//! front), which runs in three modes:
//!
//! * **serial** ([`Schedule::run_into`] with `inter_op == 1`) — walks the
//!   graph in topological order, applies each edge's
//!   representation-transformation chain, and dispatches every node to
//!   its selected kernel: convolutions to their primitive, every other
//!   operator (pooling, activation, LRN, fully-connected, concat, add,
//!   softmax) to the op kernel the plan assigned — f32 or int8;
//! * **wavefront** ([`Schedule::run_into`] with `inter_op > 1`) — runs
//!   the independent nodes of each DAG level (e.g. GoogleNet inception
//!   branches) concurrently on scoped threads;
//! * **fused batch** ([`Schedule::run_batch_fused_into`]) — walks a whole
//!   batch level-major and stacks every item's patch matrix into one wide
//!   GEMM where the selected primitive supports it.
//!
//! All modes are configured by [`Parallelism`] (inter-op × intra-op) and
//! produce **bit-identical** outputs to the serial reference: the engine
//! partitions work between threads but never changes a kernel's
//! per-element accumulation order.
//!
//! The schedule also compiles an *activation memory plan*: node output
//! shapes are inferred up front, liveness over the wavefront levels lets
//! dead activations donate their buffers to later nodes, and every
//! primitive runs out of a recycled bump-arena
//! [`Workspace`](pbqp_dnn_primitives::Workspace). Each caller owns one
//! [`ExecBuffers`] (or [`BatchBuffers`]) and — after one warmup pass —
//! the serial steady-state loop performs **zero heap allocations** per
//! request. The front door's `Engine`/`Session` in the `pbqp-dnn` facade
//! is built on exactly this split.
//!
//! [`reference_forward`] is an independent oracle (sum-of-single-channels
//! convolution, canonical layout throughout) used to verify that *any*
//! plan — whatever exotic layouts and primitives it selected — computes
//! the same network function.
//!
//! # Example: optimize, then serve a batch
//!
//! ```
//! use pbqp_dnn_cost::{AnalyticCost, MachineModel};
//! use pbqp_dnn_graph::{ConvScenario, DnnGraph, Layer, LayerKind};
//! use pbqp_dnn_primitives::registry::{full_library, Registry};
//! use pbqp_dnn_runtime::{reference_forward, BatchBuffers, Parallelism, Schedule, Weights};
//! use pbqp_dnn_select::{Optimizer, Strategy};
//! use pbqp_dnn_tensor::{Layout, Tensor};
//!
//! let mut net = DnnGraph::new();
//! let data = net.add(Layer::new("data", LayerKind::Input { c: 3, h: 16, w: 16 }));
//! let conv = net.add(Layer::new(
//!     "conv",
//!     LayerKind::Conv(ConvScenario::new(3, 16, 16, 1, 3, 8)),
//! ));
//! net.connect(data, conv).unwrap();
//!
//! let registry = Registry::new(full_library());
//! let cost = AnalyticCost::new(MachineModel::intel_haswell_like(), 1);
//! let plan = Optimizer::new(&registry, &cost).plan(&net, Strategy::Pbqp).unwrap();
//!
//! let weights = Weights::random(&net, 42);
//! let schedule = Schedule::compile(&net, &plan, &registry, &weights).unwrap();
//!
//! // One request, checked against the independent oracle.
//! let input = Tensor::random(3, 16, 16, Layout::Chw, 7);
//! let out = schedule.run(&input, Parallelism::serial()).unwrap();
//! let oracle = reference_forward(&net, &weights, &input);
//! assert!(out.allclose(&oracle, 1e-3).unwrap());
//!
//! // A fused batch of eight; item 0 is bit-identical to the
//! // single-request answer.
//! let batch: Vec<Tensor> =
//!     (0..8).map(|i| Tensor::random(3, 16, 16, Layout::Chw, 7 + i)).collect();
//! let mut outs = vec![Tensor::empty(); batch.len()];
//! schedule.run_batch_fused_into(&batch, &mut BatchBuffers::new(), &mut outs, 1).unwrap();
//! assert_eq!(outs[0].data(), out.data());
//!
//! // The steady-state serving loop: recycled output, pooled activation
//! // slots, workspace-backed primitives — zero heap allocations per
//! // pass once warmed (proven by `tests/steady_state_alloc.rs`).
//! let mut bufs = schedule.make_buffers();
//! let mut served = Tensor::empty();
//! for request in &batch {
//!     schedule.run_into(request, &mut bufs, &mut served, Parallelism::serial()).unwrap();
//! }
//! assert_eq!(served.data(), outs[7].data());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod exec;
pub mod faults;
mod par;
pub mod sampler;
mod weights;

pub use exec::{reference_forward, BatchBuffers, ExecBuffers, RuntimeError, Schedule, StepMeta};
pub use par::Parallelism;
pub use weights::Weights;
