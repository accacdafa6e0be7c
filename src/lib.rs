//! One front door for the PBQP-DNN system — a reproduction of Anderson &
//! Gregg, *Optimal DNN Primitive Selection with Partitioned Boolean
//! Quadratic Programming* (CGO 2018) — grown into a compile → ship →
//! serve lifecycle.
//!
//! The paper's pitch is "solve once, run the optimal plan forever". The
//! front door makes that the API:
//!
//! * a [`Compiler`] (configured by [`CompileOptions`]: machine model,
//!   cost source, strategy, primitive library including mixed precision,
//!   parallelism) takes a [`graph::DnnGraph`] + [`runtime::Weights`] and
//!   produces a [`CompiledModel`] — plan, activation memory plan,
//!   pre-quantized weight images, output-conversion chains, fingerprint;
//! * the [`CompiledModel`] ships between machines via
//!   [`CompiledModel::save`] / [`CompiledModel::load`] — a versioned,
//!   fingerprint-validated binary format, so a plan solved on a big
//!   build host serves on an edge deployment;
//! * an [`Engine`] (shared, immutable, `Sync`) hands out per-thread
//!   [`Session`]s, each owning its buffers — warmed
//!   [`Session::infer`](serve::Session::infer) performs **zero heap
//!   allocations** per request;
//! * the engine is **fault-contained**: a panicking kernel is caught,
//!   served through the bit-exact reference path, quarantined and
//!   re-planned around — [`Engine::health`] reports the vitals, and the
//!   [`faults`] failpoint module injects panics/errors/delays/short
//!   reads for chaos testing (`PBQP_DNN_FAILPOINTS` env var);
//! * the engine **re-optimizes online**:
//!   [`Engine::enable_autotune`](serve::Engine::enable_autotune) samples
//!   live per-step kernel latencies (one relaxed atomic load per step
//!   while off), folds them into an observed-cost table, re-solves the
//!   PBQP selection on a background thread when reality diverges from
//!   the plan's predictions, and hot-swaps validated improvements
//!   through the same generation-counted serving state.
//!
//! ```
//! use pbqp_dnn::prelude::*;
//!
//! # fn main() -> Result<(), Error> {
//! let net = models::micro_alexnet();
//! let weights = Weights::random(&net, 42);
//! let model = Compiler::new(CompileOptions::new()).compile(&net, &weights)?;   // 1. compile
//! let mut bytes = Vec::new();
//! model.save(&mut bytes)?;                                                     // 2. ship
//! let mut session = CompiledModel::load(&mut bytes.as_slice())?.engine().session(); // 3. serve
//! let (c, h, w) = net.infer_shapes()?[0];
//! let out = session.infer_new(&Tensor::random(c, h, w, Layout::Chw, 7))?;
//! # let _ = out;
//! # Ok(())
//! # }
//! ```
//!
//! The per-crate APIs stay public for power users (custom DT graphs,
//! hand-built plans, direct [`runtime::Schedule`] use), re-exported
//! under one name. The layering, bottom to top:
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`tensor`] | `pbqp-dnn-tensor` | dtype-generic tensors (`f32`/`i8`/`i32`), layouts, wire codecs |
//! | [`fft`] | `pbqp-dnn-fft` | radix-2 / Bluestein FFTs |
//! | [`gemm`] | `pbqp-dnn-gemm` | blocked / packed SGEMM + int8 GEMM kernels |
//! | [`solver`] | `pbqp-solver` | exact branch-and-bound PBQP solver |
//! | [`graph`] | `pbqp-dnn-graph` | DNN graph IR + model zoo |
//! | [`primitives`] | `pbqp-dnn-primitives` | the 70+ convolution primitives |
//! | [`cost`] | `pbqp-dnn-cost` | analytic / measured cost sources |
//! | [`select`] | `pbqp-dnn-select` | PBQP instance, strategies, plan cache, plan wire format |
//! | [`runtime`] | `pbqp-dnn-runtime` | owned execution schedules: serial, wavefront and fused-batch runs; live sampler |
//! | [`autotune`] | `pbqp-dnn-autotune` | online re-optimization: observed costs, background re-solve, swap policy |
//!
//! See the workspace `README.md` for the paper-section map and quickstart.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod compile;
pub mod error;
pub mod prelude;
pub mod serve;

pub use artifact::{ArtifactError, CompiledModel, FORMAT_VERSION, MAGIC};
pub use compile::{CompileOptions, Compiler, CostModel, PrimitiveLibrary};
pub use error::Error;
pub use serve::{Engine, Health, Session};

pub use pbqp_dnn_autotune::{AutotuneConfig, CandidateFill};
pub use pbqp_dnn_runtime::faults;

pub use pbqp_dnn_autotune as autotune;
pub use pbqp_dnn_cost as cost;
pub use pbqp_dnn_fft as fft;
pub use pbqp_dnn_gemm as gemm;
pub use pbqp_dnn_graph as graph;
pub use pbqp_dnn_primitives as primitives;
pub use pbqp_dnn_runtime as runtime;
pub use pbqp_dnn_select as select;
pub use pbqp_dnn_tensor as tensor;
pub use pbqp_solver as solver;
