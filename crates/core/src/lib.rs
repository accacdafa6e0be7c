//! Optimal DNN primitive selection with PBQP — the paper's contribution.
//!
//! Given a DNN graph, a primitive library and a cost source, this crate
//! builds the PBQP instance of §3.2, with **every** node a first-class
//! decision:
//!
//! * every **convolution layer** becomes a PBQP node whose options are the
//!   candidate primitives and whose costs are their profiled/modelled
//!   execution times;
//! * every **other operator** (ReLU, pooling, LRN, concat, add, FC,
//!   softmax, dropout) becomes a node whose options are its op-kernel
//!   candidates over the full representation space — f32 at every layout
//!   plus int8 where quantized kernels exist — priced by the cost
//!   source's operator terms (the paper models these as zero-cost
//!   layout-only dummies, §5.2; generalizing them is what lets an int8
//!   island span conv → relu → pool → conv with no interior conversions);
//! * every **graph source** becomes a node choosing the representation
//!   the canonical f32 input is delivered in;
//! * every **edge** carries the all-pairs-shortest-path
//!   representation-transformation cost matrix between the producer's
//!   output repr and the consumer's input repr (§3.1).
//!
//! Solving the instance with the exact PBQP solver and **legalizing** the
//! winning assignment (materializing the DT chains on every edge, §3)
//! yields an [`ExecutionPlan`] the runtime can execute directly.
//!
//! The same machinery evaluates the paper's baseline strategies — per-layer
//! family bests, the canonical-layout local optimum, and the vendor-library
//! simulacra — so every bar of Figures 5–7 comes from one code path.
//!
//! For serving workloads, the [`PlanCache`] memoizes legalized plans by
//! (graph fingerprint, strategy, cost source): repeated requests for a
//! deployed model skip the profile and the solve entirely, and the cached
//! `Arc<ExecutionPlan>` feeds straight into the runtime's compiled
//! schedule (`Schedule::compile` in `pbqp-dnn-runtime`).
//!
//! # Example
//!
//! ```
//! use pbqp_dnn_cost::{AnalyticCost, MachineModel};
//! use pbqp_dnn_graph::models;
//! use pbqp_dnn_primitives::registry::{full_library, Registry};
//! use pbqp_dnn_select::{Optimizer, Strategy};
//!
//! let registry = Registry::new(full_library());
//! let cost = AnalyticCost::new(MachineModel::intel_haswell_like(), 1);
//! let optimizer = Optimizer::new(&registry, &cost);
//! let net = models::alexnet();
//!
//! let pbqp = optimizer.plan(&net, Strategy::Pbqp).unwrap();
//! let baseline = optimizer.plan(&net, Strategy::Sum2d).unwrap();
//! assert!(pbqp.predicted_us < baseline.predicted_us);
//! assert_eq!(pbqp.optimal, Some(true));
//! ```
//!
//! # Example: cached planning for repeated requests
//!
//! ```
//! use pbqp_dnn_cost::{AnalyticCost, MachineModel};
//! use pbqp_dnn_graph::models;
//! use pbqp_dnn_primitives::registry::{full_library, Registry};
//! use pbqp_dnn_select::{Optimizer, PlanCache, Strategy};
//!
//! let registry = Registry::new(full_library());
//! let cost = AnalyticCost::new(MachineModel::arm_a57_like(), 4);
//! let optimizer = Optimizer::new(&registry, &cost);
//! let net = models::alexnet();
//!
//! let cache = PlanCache::new();
//! let first = cache.plan(&optimizer, &net, Strategy::Pbqp).unwrap();
//! let second = cache.plan(&optimizer, &net, Strategy::Pbqp).unwrap();
//! assert!(std::sync::Arc::ptr_eq(&first, &second), "second request skipped the solve");
//! assert_eq!((cache.hits(), cache.misses()), (1, 1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod instance;
mod optimizer;
mod plan;
mod strategies;
pub mod wire;

pub use cache::{artifact_fingerprint, PlanCache};
pub use optimizer::{Optimizer, PlanError};
pub use plan::{AssignmentKind, EdgeLegalization, ExecutionPlan, NodeAssignment};
pub use strategies::Strategy;
