//! The serving layer: a shared [`Engine`] handing out per-thread
//! [`Session`]s, with fault containment built in.
//!
//! The split mirrors the runtime's schedule/buffers design: the engine
//! holds the compiled state (schedule, plan, graph — all `Sync`, all
//! behind [`Arc`]s), and each session owns the one piece of per-caller
//! mutable state, its [`ExecBuffers`]. A serving process clones one
//! engine into every worker thread, gives each a session, and after each
//! session's first (warmup) request the steady-state loop performs
//! **zero heap allocations** per inference — the PR 2 contract,
//! preserved behind the front door and enforced by
//! `tests/steady_state_alloc.rs`.
//!
//! # Fault containment and graceful degradation
//!
//! A production engine must outlive its worst request. When a selected
//! kernel panics or fails mid-request (real bug or injected via
//! [`runtime::faults`](pbqp_dnn_runtime::faults)), the runtime contains
//! it into a typed error and the session:
//!
//! 1. **serves the request anyway** through the bit-exact serial
//!    reference path ([`reference_forward`]) — degraded latency, correct
//!    answer;
//! 2. **quarantines** the offending `(node, kernel)` pair engine-wide
//!    and re-plans in place: the quarantined node is routed to its f32
//!    baseline candidate and a fresh schedule is atomically swapped in
//!    (sessions notice via one atomic generation check per request);
//! 3. **counts** everything — [`Engine::health`] reports contained
//!    panics, degraded serves, and the quarantine list, so an operator
//!    can see a sick kernel before users do.
//!
//! The steady state pays one extra relaxed atomic load per request for
//! all of this; nothing else changes while no fault fires.
//!
//! # Online re-optimization
//!
//! [`Engine::enable_autotune`] turns the same swap machinery into a
//! *self-correcting* serving loop (see
//! [`autotune`](pbqp_dnn_autotune)): sessions sample live per-step
//! kernel latencies into preallocated reservoirs (one relaxed atomic
//! load per step while sampling is off anywhere in the process), a
//! background thread folds the summaries into an observed-cost table,
//! and when observed reality diverges far enough from the serving plan's
//! predictions it re-runs the PBQP solve off-thread and hot-swaps a
//! validated winner — never selecting a quarantined kernel, never
//! blocking an in-flight request. [`Engine::health`] reports the loop's
//! vitals: samples, divergence, re-optimization and failure counts.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock, Weak};
use std::time::Instant;

use pbqp_dnn_autotune::{fold_observations, predicted_selections, AutotuneConfig};
use pbqp_dnn_cost::{AnalyticCost, MachineModel, ObservedTable};
use pbqp_dnn_graph::{DnnGraph, NodeId};
use pbqp_dnn_primitives::registry::Registry;
use pbqp_dnn_runtime::sampler::Sampler;
use pbqp_dnn_runtime::{
    reference_forward, BatchBuffers, ExecBuffers, Parallelism, RuntimeError, Schedule, Weights,
};
use pbqp_dnn_select::{ExecutionPlan, Optimizer};
use pbqp_dnn_tensor::transform::to_layout_into;
use pbqp_dnn_tensor::{Layout, Tensor};

use crate::artifact::CompiledModel;
use crate::Error;

/// The active serving state: swapped atomically (behind the `RwLock`)
/// when a quarantine re-plan or an autotune re-optimization lands.
struct ServingState {
    schedule: Arc<Schedule>,
    plan: Arc<ExecutionPlan>,
    /// The layout the (always f32) network output is delivered in — the
    /// active plan's sink layout.
    delivered: Layout,
    /// The live profiler for this generation, present while autotuning.
    /// Fresh per generation: a swap changes which kernel each step runs,
    /// so reusing reservoirs would mis-attribute timings.
    sampler: Option<Arc<Sampler>>,
}

/// Engine-wide shared state: the immutable compiled inputs plus the
/// swappable serving state and fault-health counters.
struct Shared {
    graph: Arc<DnnGraph>,
    base_plan: Arc<ExecutionPlan>,
    weights: Arc<Weights>,
    registry: Arc<Registry>,
    state: RwLock<ServingState>,
    /// Bumped on every successful re-plan; sessions compare one atomic
    /// per request and re-sync when it moves.
    generation: AtomicU64,
    contained_panics: AtomicU64,
    degraded_serves: AtomicU64,
    /// Quarantined `(node id, node name, kernel)` triples, accumulated
    /// across the engine's lifetime.
    quarantined: Mutex<Vec<(NodeId, String, String)>>,
    /// Online re-optimization state, set once by
    /// [`Engine::enable_autotune`].
    autotune: OnceLock<Arc<AutotuneState>>,
}

/// The autotune half of the shared engine state: the observed-cost
/// table, the trigger bookkeeping, and the loop's health counters.
struct AutotuneState {
    config: AutotuneConfig,
    /// Live `(node, kernel)` latency summaries, engine-lifetime.
    observed: Mutex<ObservedTable>,
    /// Successful background re-optimizations swapped in.
    reoptimizations: AtomicU64,
    /// Failed or refused re-solve attempts (injected faults, contained
    /// panics, plan/compile errors, quarantine-refused swaps).
    failures: AtomicU64,
    /// Bit pattern of the last computed divergence (`f64::to_bits`);
    /// NaN until the first measurable comparison.
    last_divergence: AtomicU64,
    /// Samples of the *current* generation's sampler already folded into
    /// `observed` — [`Engine::health`] adds the unfolded remainder so
    /// sampling is visible before the background thread's next poll.
    folded_current: AtomicU64,
    /// When the last re-solve was attempted (success or failure) — the
    /// cooldown basis, set at attempt time so a failed attempt retries
    /// on the next post-cooldown trigger rather than immediately.
    last_attempt: Mutex<Option<Instant>>,
}

impl Shared {
    /// Quarantines `(node, kernel)` engine-wide and re-plans around the
    /// full accumulated quarantine set. Never fails: if re-planning is
    /// impossible the old state stays active and requests keep being
    /// served (degraded through the reference path when the kernel keeps
    /// failing).
    fn quarantine(&self, node_name: &str, kernel: &str) {
        let pairs = {
            let mut q = lock_recover(&self.quarantined);
            if q.iter().any(|(_, n, k)| n == node_name && k == kernel) {
                return; // another session already handled this pair
            }
            let Some(node) = self.graph.find(node_name) else { return };
            q.push((node, node_name.to_owned(), kernel.to_owned()));
            q.iter().map(|(id, _, k)| (*id, k.clone())).collect::<Vec<_>>()
        };
        // The cost numbers only rank repair candidates — correctness of
        // the rerouted plan never depends on them — so a transient
        // analytic source on the rare degrade path is fine. Rerouting
        // from the base plan may discard an autotuned improvement; the
        // next autotune trigger re-solves around the quarantine and wins
        // it back.
        let cost = AnalyticCost::new(MachineModel::intel_haswell_like(), 1);
        let optimizer = Optimizer::new(&self.registry, &cost);
        let Ok(plan) = optimizer.reroute(&self.graph, &self.base_plan, &pairs) else { return };
        let Ok(schedule) = Schedule::compile(&self.graph, &plan, &self.registry, &self.weights)
        else {
            return;
        };
        // Best-effort install: when every alternative for a node is
        // itself quarantined, the reroute keeps the least-bad kernel —
        // serving (degraded through the reference path when it keeps
        // failing) beats refusing to re-plan at all.
        self.install_plan(plan, schedule, false);
    }

    /// The single gate every plan swap goes through — quarantine
    /// reroutes and autotune re-optimizations alike — so concurrent
    /// swaps arbitrate to one consistent generation. Holds the
    /// quarantine lock across validation, the state write and the
    /// generation bump. With `refuse_quarantined` (the autotune path) a
    /// plan that selects a quarantined kernel is refused (`None`): the
    /// quarantine it races either already installed a repaired plan or
    /// will immediately after, and an optimization must never resurrect
    /// a failing kernel.
    ///
    /// Returns the new generation on success.
    fn install_plan(
        &self,
        plan: ExecutionPlan,
        schedule: Schedule,
        refuse_quarantined: bool,
    ) -> Option<u64> {
        // Lock order everywhere: quarantine list before serving state.
        let q = lock_recover(&self.quarantined);
        if refuse_quarantined {
            let dirty = plan
                .selected_primitives()
                .into_iter()
                .chain(plan.selected_op_kernels())
                .any(|(node, kernel)| q.iter().any(|(qn, _, qk)| *qn == node && qk == kernel));
            if dirty {
                return None;
            }
        }
        let delivered = delivered_layout(&self.graph, &plan);
        // Preserve the outgoing generation's observations: its sampler
        // retires with the swap, so fold its final summaries now.
        if let Some(at) = self.autotune.get() {
            let folded = {
                let state = self.state.read().unwrap_or_else(|e| e.into_inner());
                state.sampler.as_ref().map(|s| (state.schedule.step_meta(), s.snapshot()))
            };
            if let Some((meta, summaries)) = folded {
                fold_observations(&mut lock_recover(&at.observed), &meta, &summaries);
            }
            at.folded_current.store(0, Ordering::Relaxed);
        }
        let sampler = self
            .autotune
            .get()
            .map(|at| Sampler::new(schedule.step_count(), at.config.sample_rate));
        {
            let mut state = self.state.write().unwrap_or_else(|e| e.into_inner());
            *state = ServingState {
                schedule: Arc::new(schedule),
                plan: Arc::new(plan),
                delivered,
                sampler,
            };
        }
        let generation = self.generation.fetch_add(1, Ordering::Release) + 1;
        drop(q);
        Some(generation)
    }

    /// One background autotune poll: fold the current sampler into the
    /// observed table, update the divergence signal, and when the
    /// trigger policy fires run a re-solve and install a validated
    /// winner. Every failure path is contained — the engine keeps
    /// serving its current generation and the next post-cooldown trigger
    /// retries.
    fn autotune_tick(&self) {
        let Some(at) = self.autotune.get() else { return };
        let (schedule, plan, sampler) = {
            let state = self.state.read().unwrap_or_else(|e| e.into_inner());
            (Arc::clone(&state.schedule), Arc::clone(&state.plan), state.sampler.clone())
        };
        let Some(sampler) = sampler else { return };

        let total = sampler.total_samples();
        let meta = schedule.step_meta();
        let summaries = sampler.snapshot();
        let (samples, divergence) = {
            let mut observed = lock_recover(&at.observed);
            fold_observations(&mut observed, &meta, &summaries);
            at.folded_current.store(total, Ordering::Relaxed);
            let predicted = predicted_selections(&plan);
            (observed.total_samples(), observed.divergence(&predicted, at.config.min_node_samples))
        };
        if let Some(d) = divergence {
            at.last_divergence.store(d.to_bits(), Ordering::Relaxed);
        }
        let since_last = lock_recover(&at.last_attempt).map(|t| t.elapsed());
        if !at.config.should_trigger(samples, divergence, since_last) {
            return;
        }
        *lock_recover(&at.last_attempt) = Some(Instant::now());

        let quarantined: Vec<(NodeId, String)> =
            lock_recover(&self.quarantined).iter().map(|(id, _, k)| (*id, k.clone())).collect();
        let observed = lock_recover(&at.observed).clone();
        match pbqp_dnn_autotune::resolve(
            &self.graph,
            &self.registry,
            &observed,
            &plan,
            &quarantined,
            &at.config,
        ) {
            Ok(r) if r.improves => {
                let installed =
                    Schedule::compile(&self.graph, &r.plan, &self.registry, &self.weights)
                        .ok()
                        .and_then(|schedule| self.install_plan(r.plan, schedule, true));
                match installed {
                    Some(_) => {
                        at.reoptimizations.fetch_add(1, Ordering::Relaxed);
                    }
                    None => {
                        at.failures.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            // Converged, or the candidate's win is inside the margin:
            // not a failure, just nothing worth swapping.
            Ok(_) => {}
            Err(_) => {
                at.failures.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// The background re-optimizer loop: polls until its engine is dropped
/// (the `Weak` stops upgrading), never holding a strong reference that
/// would keep a retired engine alive.
fn autotune_loop(shared: Weak<Shared>, poll: std::time::Duration) {
    loop {
        std::thread::sleep(poll);
        let Some(shared) = shared.upgrade() else { return };
        shared.autotune_tick();
    }
}

/// Locks a mutex, recovering from poison (the guarded values here are
/// always coherent — single-field updates).
fn lock_recover<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => {
            m.clear_poison();
            poisoned.into_inner()
        }
    }
}

/// The layout a plan delivers its (always f32) network output in: the
/// sink node's chosen layout.
fn delivered_layout(graph: &DnnGraph, plan: &ExecutionPlan) -> Layout {
    graph
        .topo_order()
        .ok()
        .and_then(|order| order.last().copied())
        .map(|sink| plan.assignment(sink).output_repr().layout)
        .unwrap_or(Layout::Chw)
}

/// An engine's fault-containment and autotune vitals — see
/// [`Engine::health`].
#[derive(Debug, Clone, PartialEq)]
pub struct Health {
    /// Kernel (and other) panics contained into typed errors instead of
    /// aborting the process.
    pub contained_panics: u64,
    /// Requests answered through the serial reference path after their
    /// selected kernel failed — degraded latency, correct results.
    pub degraded_serves: u64,
    /// Quarantined `(node, kernel)` pairs: these kernels panicked or
    /// failed, and the active plan routes around them.
    pub quarantined: Vec<(String, String)>,
    /// How many times the serving plan was re-planned and swapped
    /// (quarantine reroutes and autotune re-optimizations both count).
    /// `0` means the engine is still on its compiled plan.
    pub plan_generation: u64,
    /// Live-profiler samples observed so far: the folded observed-cost
    /// table plus the current generation's not-yet-folded sampler.
    /// Always `0` while autotune is off.
    pub samples: u64,
    /// The latest observed-vs-predicted cost divergence (mean relative
    /// error over sufficiently-sampled selections), `None` until
    /// measurable or while autotune is off.
    pub divergence: Option<f64>,
    /// Background re-optimizations successfully swapped in.
    pub reoptimizations: u64,
    /// Background re-solve attempts that failed or were refused
    /// (injected faults, contained panics, plan/compile errors,
    /// quarantine-refused swaps). The loop keeps serving the current
    /// generation and retries after the cooldown.
    pub autotune_failures: u64,
}

impl Health {
    /// `true` while no fault has ever fired: the engine serves its
    /// compiled plan at full speed.
    pub fn is_pristine(&self) -> bool {
        self.contained_panics == 0 && self.degraded_serves == 0 && self.quarantined.is_empty()
    }
}

/// A shared serving engine for one compiled model.
///
/// `Engine` is `Clone + Send + Sync`: hand one to every worker thread
/// (or wrap one in an `Arc` — cloning is a few reference-count bumps
/// either way) and create a [`Session`] per thread with
/// [`Engine::session`]. All clones share fault state: a kernel
/// quarantined by one session's request routes every session's
/// subsequent requests around it (see the [module docs](self)).
///
/// # Example
///
/// ```
/// use pbqp_dnn::prelude::*;
///
/// let net = models::micro_alexnet();
/// let weights = Weights::random(&net, 42);
/// let model = Compiler::new(CompileOptions::new()).compile(&net, &weights).unwrap();
/// let engine = model.engine();
///
/// let (c, h, w) = net.infer_shapes().unwrap()[0];
/// let inputs: Vec<Tensor> =
///     (0..4).map(|i| Tensor::random(c, h, w, Layout::Chw, 10 + i)).collect();
///
/// // Serve from two threads, one session each; results match the
/// // engine's one-shot API bit-for-bit.
/// let outputs: Vec<Tensor> = std::thread::scope(|scope| {
///     inputs
///         .chunks(2)
///         .map(|chunk| {
///             let engine = engine.clone();
///             scope.spawn(move || {
///                 let mut session = engine.session();
///                 chunk.iter().map(|x| session.infer_new(x).unwrap()).collect::<Vec<_>>()
///             })
///         })
///         .collect::<Vec<_>>()
///         .into_iter()
///         .flat_map(|h| h.join().unwrap())
///         .collect()
/// });
/// for (input, out) in inputs.iter().zip(&outputs) {
///     assert_eq!(engine.infer(input).unwrap().data(), out.data());
/// }
/// assert!(engine.health().is_pristine());
/// ```
#[derive(Clone)]
pub struct Engine {
    shared: Arc<Shared>,
    parallelism: Parallelism,
}

impl Engine {
    /// Builds an engine sharing a compiled model's state.
    pub(crate) fn from_model(model: &CompiledModel) -> Engine {
        let (schedule, graph, plan, weights, registry) = model.serving_parts();
        let delivered = delivered_layout(&graph, &plan);
        let shared = Shared {
            graph,
            base_plan: Arc::clone(&plan),
            weights,
            registry,
            state: RwLock::new(ServingState { schedule, plan, delivered, sampler: None }),
            generation: AtomicU64::new(0),
            contained_panics: AtomicU64::new(0),
            degraded_serves: AtomicU64::new(0),
            quarantined: Mutex::new(Vec::new()),
            autotune: OnceLock::new(),
        };
        Engine { shared: Arc::new(shared), parallelism: model.parallelism() }
    }

    /// Turns on online re-optimization: live traffic is sampled, and a
    /// background thread re-solves the PBQP selection against observed
    /// costs and hot-swaps validated improvements (see the
    /// [module docs](self) and [`pbqp_dnn_autotune`]).
    ///
    /// Can be enabled once per engine; returns `false` (and changes
    /// nothing) if autotune is already on. Enabling bumps the serving
    /// generation so existing sessions attach the sampler on their next
    /// request — a one-time buffer rebuild per session, after which the
    /// zero-allocation steady state holds again, sampling included.
    pub fn enable_autotune(&self, config: AutotuneConfig) -> bool {
        let state = AutotuneState {
            config: config.clone(),
            observed: Mutex::new(ObservedTable::new()),
            reoptimizations: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            last_divergence: AtomicU64::new(f64::NAN.to_bits()),
            folded_current: AtomicU64::new(0),
            last_attempt: Mutex::new(None),
        };
        if self.shared.autotune.set(Arc::new(state)).is_err() {
            return false;
        }
        {
            let mut state = self.shared.state.write().unwrap_or_else(|e| e.into_inner());
            state.sampler = Some(Sampler::new(state.schedule.step_count(), config.sample_rate));
        }
        self.shared.generation.fetch_add(1, Ordering::Release);
        let weak = Arc::downgrade(&self.shared);
        std::thread::Builder::new()
            .name("pbqp-autotune".to_owned())
            .spawn(move || autotune_loop(weak, config.poll_interval))
            .is_ok()
    }

    /// A new session owning its own warm-up-once buffer set, inheriting
    /// the engine's parallelism and synced to the active plan.
    pub fn session(&self) -> Session {
        // Generation first: worst case the session re-syncs an
        // already-current state on its first request, never serves a
        // newer state under an older generation forever.
        let generation = self.shared.generation.load(Ordering::Acquire);
        let (schedule, delivered, sampler) = {
            let state = self.shared.state.read().unwrap_or_else(|e| e.into_inner());
            (Arc::clone(&state.schedule), state.delivered, state.sampler.clone())
        };
        let mut bufs = schedule.make_buffers();
        if let Some(s) = &sampler {
            bufs.attach_sampler(s.state());
        }
        Session {
            shared: Arc::clone(&self.shared),
            parallelism: self.parallelism,
            generation,
            delivered,
            schedule,
            sampler,
            bufs,
            batch_bufs: BatchBuffers::new(),
        }
    }

    /// One-shot convenience inference: builds a transient session and an
    /// output tensor per call. Use [`Engine::session`] for the
    /// allocation-free steady-state loop.
    ///
    /// # Errors
    ///
    /// Propagates execution errors (bad input shape/layout, primitive
    /// failures). Contained kernel panics are *not* errors here — the
    /// request is served through the reference path (see the
    /// [module docs](self)).
    pub fn infer(&self, input: &Tensor) -> Result<Tensor, Error> {
        self.session().infer_new(input)
    }

    /// Validates `input` against the active schedule's expected shape,
    /// layout and dtype **without executing** — the admission check a
    /// request gateway runs before queuing, so one malformed request is
    /// rejected at the door instead of failing the batch it would have
    /// been coalesced into.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::BadInput`] (wrapped in [`Error::Runtime`])
    /// describing the mismatch.
    pub fn validate_input(&self, input: &Tensor) -> Result<(), Error> {
        let state = self.shared.state.read().unwrap_or_else(|e| e.into_inner());
        state.schedule.check_input(input).map_err(Into::into)
    }

    /// The plan this engine was compiled with. Quarantine re-planning
    /// never mutates it — see [`Engine::active_plan`] for what is
    /// serving right now.
    pub fn plan(&self) -> &ExecutionPlan {
        &self.shared.base_plan
    }

    /// The plan currently serving: the compiled plan, or the latest
    /// quarantine re-route.
    pub fn active_plan(&self) -> Arc<ExecutionPlan> {
        let state = self.shared.state.read().unwrap_or_else(|e| e.into_inner());
        Arc::clone(&state.plan)
    }

    /// The network this engine serves.
    pub fn graph(&self) -> &DnnGraph {
        &self.shared.graph
    }

    /// This engine's fault-containment and autotune vitals: contained
    /// panics, degraded serves, the quarantine list, the active plan
    /// generation, and — with [`Engine::enable_autotune`] on — the
    /// sampling/re-optimization counters. All clones of an engine share
    /// one set of vitals.
    pub fn health(&self) -> Health {
        let quarantined = lock_recover(&self.shared.quarantined)
            .iter()
            .map(|(_, node, kernel)| (node.clone(), kernel.clone()))
            .collect();
        let (samples, divergence, reoptimizations, autotune_failures) =
            match self.shared.autotune.get() {
                Some(at) => {
                    let folded = lock_recover(&at.observed).total_samples();
                    let pending = {
                        let state = self.shared.state.read().unwrap_or_else(|e| e.into_inner());
                        state.sampler.as_ref().map_or(0, |s| {
                            s.total_samples()
                                .saturating_sub(at.folded_current.load(Ordering::Relaxed))
                        })
                    };
                    let d = f64::from_bits(at.last_divergence.load(Ordering::Relaxed));
                    (
                        folded + pending,
                        (!d.is_nan()).then_some(d),
                        at.reoptimizations.load(Ordering::Relaxed),
                        at.failures.load(Ordering::Relaxed),
                    )
                }
                None => (0, None, 0, 0),
            };
        Health {
            contained_panics: self.shared.contained_panics.load(Ordering::Relaxed),
            degraded_serves: self.shared.degraded_serves.load(Ordering::Relaxed),
            quarantined,
            plan_generation: self.shared.generation.load(Ordering::Relaxed),
            samples,
            divergence,
            reoptimizations,
            autotune_failures,
        }
    }

    /// The parallelism new sessions inherit.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// Returns an engine whose new sessions use `parallelism` instead of
    /// the compiled-in default.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Engine {
        self.parallelism = parallelism;
        self
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("nodes", &self.shared.graph.len())
            .field("parallelism", &self.parallelism)
            .field("generation", &self.shared.generation.load(Ordering::Relaxed))
            .finish()
    }
}

/// One caller's serving handle: a shared schedule plus an owned buffer
/// set. `Session` is `Send` (move it into a worker thread) but
/// deliberately not `Sync` — one session per thread is the model.
///
/// After the first (warmup) call settles buffer capacities,
/// [`Session::infer`] and [`Session::infer_batch_into`] with serial
/// parallelism perform zero heap allocations per request. If a kernel
/// fails mid-request the session recovers per the engine's containment
/// contract (see the [module docs](self)); the recovery path allocates,
/// the steady state does not.
pub struct Session {
    shared: Arc<Shared>,
    parallelism: Parallelism,
    /// The engine generation this session's schedule corresponds to.
    generation: u64,
    delivered: Layout,
    schedule: Arc<Schedule>,
    /// This generation's live profiler (autotune on), used to re-attach
    /// a recording state whenever the buffer set is rebuilt.
    sampler: Option<Arc<Sampler>>,
    bufs: ExecBuffers,
    batch_bufs: BatchBuffers,
}

impl Session {
    /// Re-syncs to the engine's active plan if a re-plan (quarantine or
    /// autotune) landed since this session last looked. One relaxed
    /// atomic load in the common (unchanged) case.
    fn refresh(&mut self) {
        let generation = self.shared.generation.load(Ordering::Acquire);
        if generation == self.generation {
            return;
        }
        {
            let state = self.shared.state.read().unwrap_or_else(|e| e.into_inner());
            self.schedule = Arc::clone(&state.schedule);
            self.delivered = state.delivered;
            self.sampler = state.sampler.clone();
        }
        self.rebuild_bufs();
        self.batch_bufs = BatchBuffers::new();
        self.generation = generation;
    }

    /// Replaces the buffer set (a panic may have dirtied it, or the plan
    /// moved), re-attaching the live-profiler state when sampling.
    fn rebuild_bufs(&mut self) {
        self.bufs = self.schedule.make_buffers();
        if let Some(s) = &self.sampler {
            self.bufs.attach_sampler(s.state());
        }
    }

    /// Runs one forward pass, writing the (always f32) network output
    /// into the caller-recycled `out`.
    ///
    /// # Errors
    ///
    /// Propagates bad-input and plan errors. A kernel panic or failure
    /// is *recovered*, not propagated: the request is served through the
    /// bit-exact reference path, the kernel is quarantined engine-wide,
    /// and [`Engine::health`] records the incident.
    pub fn infer(&mut self, input: &Tensor, out: &mut Tensor) -> Result<(), Error> {
        self.refresh();
        match self.schedule.run_into(input, &mut self.bufs, out, self.parallelism) {
            Ok(()) => Ok(()),
            Err(e) => self.recover(e, input, out),
        }
    }

    /// The containment path: rebuild state the failure may have dirtied,
    /// quarantine attributable kernel faults, and serve the request
    /// through the reference oracle.
    fn recover(
        &mut self,
        err: RuntimeError,
        input: &Tensor,
        out: &mut Tensor,
    ) -> Result<(), Error> {
        match err {
            RuntimeError::KernelPanicked { node, kernel, .. } => {
                self.shared.contained_panics.fetch_add(1, Ordering::Relaxed);
                // A panicking kernel may have left buffers mid-mutation.
                self.rebuild_bufs();
                self.shared.quarantine(&node, &kernel);
                self.degraded_serve(input, out)
            }
            RuntimeError::KernelFailed { node, kernel, .. } => {
                self.shared.quarantine(&node, &kernel);
                self.degraded_serve(input, out)
            }
            RuntimeError::Panicked { .. } => {
                // Contained, but with no kernel to attribute (worker
                // thread, edge conversion): serve
                // degraded, nothing to quarantine.
                self.shared.contained_panics.fetch_add(1, Ordering::Relaxed);
                self.rebuild_bufs();
                self.degraded_serve(input, out)
            }
            other => Err(other.into()),
        }
    }

    /// Serves a request through the bit-exact serial reference path,
    /// delivered in the active plan's output layout.
    fn degraded_serve(&mut self, input: &Tensor, out: &mut Tensor) -> Result<(), Error> {
        let reference = reference_forward(&self.shared.graph, &self.shared.weights, input);
        // Sync to any re-plan the failure just triggered, so this
        // response's layout matches what subsequent requests deliver.
        self.refresh();
        if reference.layout() == self.delivered {
            out.assign_from(&reference);
        } else {
            to_layout_into(&reference, self.delivered, out);
        }
        self.shared.degraded_serves.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// [`Session::infer`] allocating a fresh output tensor.
    ///
    /// # Errors
    ///
    /// Propagates execution errors.
    pub fn infer_new(&mut self, input: &Tensor) -> Result<Tensor, Error> {
        let mut out = Tensor::empty();
        self.infer(input, &mut out)?;
        Ok(out)
    }

    /// Serves a whole batch through the **fused** execution path,
    /// writing item `i`'s output into the caller-recycled `outs[i]` —
    /// the zero-allocation batch entry point the gateway's dynamic
    /// batches flush through.
    ///
    /// Conv steps whose selected primitive supports it (the
    /// im2col/im2row GEMM family, sparse im2col) execute the whole batch
    /// as one wide GEMM, amortizing kernel re-layouts and packed panels
    /// across items; every other step runs per item. Each item's result
    /// is **bit-identical** to serving it alone through
    /// [`Session::infer`]. After a warmup at the largest batch size, a
    /// steady-state loop over batches of at most that size performs zero
    /// heap allocations (proven by `tests/steady_state_alloc.rs`).
    ///
    /// The whole batch is validated up front: an empty batch, a
    /// shape-mismatched member, or `outs.len() != inputs.len()` is a
    /// typed [`RuntimeError::BadInput`] before any item executes.
    ///
    /// If a kernel fails or panics mid-batch, the session falls back to
    /// serving every item through the serial path, which recovers per
    /// the engine's containment contract (quarantine + degraded serve —
    /// see the [module docs](self)); the recovery path allocates, the
    /// steady state does not.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::BadInput`] (wrapped in [`Error::Runtime`]) for an
    /// empty batch, a malformed member, or mismatched `outs` length —
    /// detected before execution. Otherwise the first non-containable
    /// error; earlier outputs are already written.
    pub fn infer_batch_into(
        &mut self,
        inputs: &[Tensor],
        outs: &mut [Tensor],
    ) -> Result<(), Error> {
        if inputs.is_empty() {
            return Err(RuntimeError::BadInput(
                "empty batch: infer_batch_into needs at least one input".to_owned(),
            )
            .into());
        }
        self.refresh();
        match self.schedule.run_batch_fused_into(
            inputs,
            &mut self.batch_bufs,
            outs,
            self.parallelism.intra_op,
        ) {
            Ok(()) => Ok(()),
            Err(e @ RuntimeError::BadInput(_)) => Err(e.into()),
            Err(_) => {
                // A kernel failed or panicked mid-batch: the shared
                // buffer sets may be dirty, so rebuild them and replay
                // the batch item-by-item through the serial path. A
                // deterministic fault re-fires there and is contained
                // per item (quarantined, served degraded); a one-shot
                // injected fault replays clean. Either way every slot
                // ends up with its item's correct output.
                self.batch_bufs = BatchBuffers::new();
                for (input, out) in inputs.iter().zip(outs.iter_mut()) {
                    self.infer(input, out)?;
                }
                Ok(())
            }
        }
    }

    /// The parallelism this session executes under.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// Replaces this session's parallelism (e.g. turn on wavefront
    /// inter-op for a branchy graph).
    pub fn set_parallelism(&mut self, parallelism: Parallelism) {
        self.parallelism = parallelism;
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("parallelism", &self.parallelism)
            .field("generation", &self.generation)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_is_sync_and_session_is_send() {
        fn assert_send_sync<T: Send + Sync>() {}
        fn assert_send<T: Send>() {}
        assert_send_sync::<Engine>();
        assert_send::<Session>();
    }

    #[test]
    fn empty_and_mismatched_batches_are_typed_errors() {
        use crate::{CompileOptions, Compiler};
        use pbqp_dnn_graph::models;

        let net = models::micro_alexnet();
        let weights = Weights::random(&net, 42);
        let model = Compiler::new(CompileOptions::new()).compile(&net, &weights).unwrap();
        let mut session = model.engine().session();
        let (c, h, w) = net.infer_shapes().unwrap()[0];

        let err = session.infer_batch_into(&[], &mut []).unwrap_err();
        assert!(matches!(err, Error::Runtime(RuntimeError::BadInput(_))), "empty batch: got {err}");

        let good = Tensor::random(c, h, w, Layout::Chw, 7);
        let bad = Tensor::random(c, h + 1, w, Layout::Chw, 8);
        let mut outs = vec![Tensor::empty(); 3];
        let err =
            session.infer_batch_into(&[good.clone(), bad, good.clone()], &mut outs).unwrap_err();
        assert!(
            matches!(err, Error::Runtime(RuntimeError::BadInput(_))),
            "mismatched member: got {err}"
        );

        // The session still serves after both rejections.
        session.infer_batch_into(std::slice::from_ref(&good), &mut outs[..1]).unwrap();
        assert_eq!(outs[0].dims(), *net.infer_shapes().unwrap().last().unwrap());
    }
}
