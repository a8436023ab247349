//! Deterministic virtual-clock serving simulator.
//!
//! The single-threaded driver of the pool core the lockstep
//! [`crate::pool::ReplicaPool`] also drives: this module owns only the
//! arrival source and the inline model execution, while every scheduling
//! rule — bounded-queue admission, routing, `max_batch`/`max_wait`
//! coalescing, serial per-replica execution, the adaptive ladder, faults,
//! and the controller — lives in that one state machine, run here as a
//! discrete-event simulation over integer nanoseconds. The
//! model outputs are computed for real on an [`ExecContext`] (bit-identical
//! across host thread counts by the execution layer's contract), while
//! *time* comes from a [`ServiceModel`] instead of the wall clock, so two
//! runs of the same seeded trace produce identical batch compositions,
//! latencies, and metrics — on any machine, at any host thread count.
//!
//! Three arrival models are supported, matching the `nbsmt-bench` load
//! generator: **open loop** (a pre-generated arrival trace, e.g. Poisson),
//! **closed loop** (N clients that submit, wait for the response, think,
//! and submit again — arrivals emerge from completions), and **generated**
//! (a lazy, seeded [`TrafficModel`] stream — bursty MMPP, diurnal
//! envelopes, per-user sessions — that never materializes the trace, so
//! 10^6–10^7-request runs stay constant-memory; see [`simulate_pool_stats`]
//! for the matching constant-memory outcome path).

use std::borrow::Borrow;
use std::collections::VecDeque;

use nbsmt_tensor::exec::ExecContext;
use nbsmt_tensor::tensor::Tensor;
use nbsmt_tensor::validate::Validate;

use crate::config::{
    AdaptivePolicy, ModeTransition, PoolConfig, RoutePolicy, SchedulerConfig, ServeError,
    REJECTION_LOG_CAP, RESPONSE_LOG_CAP,
};
use crate::control::{ControlConfig, ControlEvent};
use crate::faults::{FaultPlan, HandoffRecord};
use crate::metrics::{MetricsSnapshot, ServeMetrics};
use crate::pool_core::PoolCore;
use crate::session::{Inference, Session};
use crate::trace::TraceRecorder;
use crate::traffic::{GeneratedArrivals, SizeModel, TrafficModel};

/// Deterministic service-time model for the virtual clock.
///
/// A batch of `B` requests costs
/// `batch_overhead_ns + B * macs_per_sample * ns_per_mac_x1024 / 1024 /
/// speedup` nanoseconds, where `speedup` is the session's SMT design-point
/// speedup (1 for dense, T for a T-threaded SySMT). All integer arithmetic —
/// no floats, no platform-dependent rounding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceModel {
    /// Nanoseconds per dense MAC, scaled by 1024 (1024 = 1 ns/MAC).
    pub ns_per_mac_x1024: u64,
    /// Fixed per-batch launch cost in nanoseconds.
    pub batch_overhead_ns: u64,
    /// Per-request work multiplier keyed by router key. [`SizeModel::Unit`]
    /// (the default) reproduces the historical uniform-size arithmetic
    /// bit-exactly; a bounded-Pareto model makes service time scale with
    /// heterogeneous request MACs.
    pub size: SizeModel,
}

impl Default for ServiceModel {
    fn default() -> Self {
        ServiceModel {
            // 2 ns per dense MAC (0.5 GMAC/s): a deliberately modest host
            // so quick-scale sweeps show real queueing behaviour.
            ns_per_mac_x1024: 2048,
            batch_overhead_ns: 20_000,
            size: SizeModel::Unit,
        }
    }
}

impl ServiceModel {
    /// Virtual service time of a batch of `batch` unit-size requests on
    /// `session` (the historical model; ignores [`ServiceModel::size`]).
    pub fn service_ns(&self, session: &Session, batch: usize) -> u64 {
        let macs = session.macs_per_sample() as u128 * batch as u128;
        let work = macs * self.ns_per_mac_x1024 as u128 / 1024 / session.smt().speedup() as u128;
        self.batch_overhead_ns + work.min(u128::from(u64::MAX)) as u64
    }

    /// Virtual service time of a batch whose requests carry the given
    /// router keys, with each request's MACs scaled by
    /// [`ServiceModel::size`]. For [`SizeModel::Unit`] every key weighs
    /// 1024/1024 and the result is bit-identical to
    /// [`ServiceModel::service_ns`] of the same batch length — the first
    /// `/ 1024` is exact — so unit-size runs are unchanged by construction.
    /// The pool core both deterministic drivers share costs every batch
    /// with it, keeping heterogeneous sizes inside the determinism contract.
    pub fn batch_ns<I: IntoIterator<Item = u64>>(&self, session: &Session, keys: I) -> u64 {
        let total_x1024: u128 = keys
            .into_iter()
            .map(|k| self.size.size_x1024(k) as u128)
            .sum();
        let work = session.macs_per_sample() as u128 * total_x1024 * self.ns_per_mac_x1024 as u128
            / 1024
            / 1024
            / session.smt().speedup() as u128;
        self.batch_overhead_ns + work.min(u128::from(u64::MAX)) as u64
    }

    /// Service time of a single request (the natural unit for choosing
    /// offered loads relative to capacity).
    pub fn single_ns(&self, session: &Session) -> u64 {
        self.service_ns(session, 1)
    }
}

/// How requests arrive at the simulated server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArrivalProcess {
    /// Open loop: a fixed trace of arrival times (ns, ascending). Request
    /// `i` uses input `i % inputs.len()`.
    Open {
        /// Ascending arrival timestamps in virtual nanoseconds.
        arrivals_ns: Vec<u64>,
    },
    /// Closed loop: `clients` clients each submit at `t = 0`, wait for
    /// their response, think, and submit again until `total_requests` have
    /// been issued overall. The queue bound is raised to at least `clients`
    /// for the run — each client holds at most one slot, so a smaller bound
    /// would permanently orphan the shed clients.
    Closed {
        /// Number of concurrent clients.
        clients: usize,
        /// Think time between receiving a response and the next submit.
        think_ns: u64,
        /// Total requests to issue across all clients.
        total_requests: usize,
    },
    /// Generated open loop: a seeded [`TrafficModel`] streamed lazily, one
    /// arrival at a time — the trace never materializes, so 10^7-request
    /// runs cost O(1) arrival memory. Request `i` uses input
    /// `i % inputs.len()` exactly like [`ArrivalProcess::Open`]; the
    /// stream's key (the user id under [`TrafficModel::Sessions`], the
    /// request index otherwise) feeds the router and the
    /// [`SizeModel`].
    Generated {
        /// The traffic model to stream.
        model: TrafficModel,
        /// Stream seed: same seed, same arrivals, on every platform.
        seed: u64,
        /// Number of arrivals to generate.
        n: u64,
    },
}

/// One launched batch in the simulated schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchRecord {
    /// Virtual launch time [ns].
    pub launch_ns: u64,
    /// Virtual completion time [ns].
    pub finish_ns: u64,
    /// Request ids coalesced into this batch, in queue order.
    pub request_ids: Vec<u64>,
    /// Queue depth left behind after the batch was drained.
    pub queue_depth_after: usize,
}

/// The full, deterministic outcome of a simulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// `(request id, inference)` for every completed request, in completion
    /// order.
    pub responses: Vec<(u64, Inference)>,
    /// Ids shed by admission control, in arrival order.
    pub rejected_ids: Vec<u64>,
    /// Every launched batch, in launch order.
    pub batches: Vec<BatchRecord>,
    /// Metrics snapshot over the virtual makespan.
    pub metrics: MetricsSnapshot,
    /// Completions not retained in `responses` past
    /// [`RESPONSE_LOG_CAP`] (or not computed at all on the
    /// [`simulate_pool_stats`] path) — `metrics.completed` still counts
    /// them, closing the accounting.
    pub dropped_responses: u64,
    /// Sheds not retained in `rejected_ids` past [`REJECTION_LOG_CAP`] —
    /// `metrics.rejected` still counts them.
    pub dropped_rejections: u64,
    /// Virtual time at which the last batch finished [ns].
    pub makespan_ns: u64,
}

/// A not-yet-admitted arrival. Request `id` uses input
/// `id % inputs.len()`.
#[derive(Debug, Clone, Copy)]
struct PendingArrival {
    id: u64,
    /// Router/affinity key: equal to `id` for open and closed loops, the
    /// stream key (e.g. the session's user id) for generated arrivals.
    /// Feeds the router and the [`SizeModel`].
    key: u64,
    time_ns: u64,
}

/// Runs the single-session simulation: `inputs` is the request-input pool,
/// `arrivals` the arrival process, `scheduler` the batching/admission
/// policy, and `service` the virtual-clock cost model. Model outputs are
/// computed for real on `ctx`.
///
/// This is the single-replica specialization of [`simulate_pool`]: one
/// replica, a pinned single-rung ladder, and the pool outcome projected
/// down to [`SimOutcome`] — one event loop owns the scheduling semantics,
/// so the single and sharded simulators cannot drift apart.
///
/// # Errors
///
/// Propagates session-execution failures; rejects an empty input pool or an
/// unsorted open-loop trace as [`ServeError::BadRequest`].
pub fn simulate(
    session: &Session,
    ctx: &ExecContext,
    inputs: &[Tensor<f32>],
    arrivals: &ArrivalProcess,
    scheduler: SchedulerConfig,
    service: ServiceModel,
) -> Result<SimOutcome, ServeError> {
    let pool = PoolConfig {
        replicas: 1,
        route: RoutePolicy::RoundRobin,
        scheduler,
        adaptive: AdaptivePolicy::pinned(),
    };
    let outcome = simulate_pool(
        std::slice::from_ref(&session),
        ctx,
        inputs,
        arrivals,
        pool,
        service,
    )?;
    Ok(SimOutcome {
        responses: outcome.responses,
        rejected_ids: outcome.rejected_ids,
        batches: outcome
            .batches
            .into_iter()
            .map(|b| BatchRecord {
                launch_ns: b.launch_ns,
                finish_ns: b.finish_ns,
                request_ids: b.request_ids,
                queue_depth_after: b.queue_depth_after,
            })
            .collect(),
        metrics: outcome.metrics,
        dropped_responses: outcome.dropped_responses,
        dropped_rejections: outcome.dropped_rejections,
        makespan_ns: outcome.makespan_ns,
    })
}

struct ArrivalPlan {
    /// Pending arrivals, always sorted by `(time, id)`.
    pending: VecDeque<PendingArrival>,
    /// Lazy arrival stream for [`ArrivalProcess::Generated`]: `pending` is
    /// refilled one arrival at a time from here, so the trace never
    /// materializes.
    generator: Option<GeneratedArrivals>,
    next_id: u64,
    remaining_closed: usize,
    think_ns: u64,
}

/// The client population a closed loop needs admitted (0 for open loops) —
/// the per-queue capacity floor.
fn closed_population(arrivals: &ArrivalProcess) -> usize {
    match arrivals {
        ArrivalProcess::Open { .. } | ArrivalProcess::Generated { .. } => 0,
        ArrivalProcess::Closed { clients, .. } => *clients,
    }
}

/// Expands an arrival process into the initial pending set: the open loop
/// prefills the whole trace; the closed loop seeds one submission per client
/// and grows on completions; the generated loop installs a lazy stream the
/// event loop pulls from one arrival at a time.
fn expand_arrivals(arrivals: &ArrivalProcess) -> Result<ArrivalPlan, ServeError> {
    let mut pending: VecDeque<PendingArrival> = VecDeque::new();
    let mut generator = None;
    let mut next_id = 0u64;
    let mut remaining_closed = 0usize;
    let think_ns = match arrivals {
        ArrivalProcess::Open { arrivals_ns } => {
            if arrivals_ns.windows(2).any(|w| w[0] > w[1]) {
                return Err(ServeError::BadRequest(
                    "open-loop arrival trace must be ascending".into(),
                ));
            }
            for &t in arrivals_ns {
                pending.push_back(PendingArrival {
                    id: next_id,
                    key: next_id,
                    time_ns: t,
                });
                next_id += 1;
            }
            0
        }
        ArrivalProcess::Closed {
            clients,
            think_ns,
            total_requests,
        } => {
            let clients = (*clients).max(1).min(*total_requests);
            remaining_closed = total_requests.saturating_sub(clients);
            for _ in 0..clients {
                pending.push_back(PendingArrival {
                    id: next_id,
                    key: next_id,
                    time_ns: 0,
                });
                next_id += 1;
            }
            *think_ns
        }
        ArrivalProcess::Generated { model, seed, n } => {
            model.check().map_err(ServeError::BadRequest)?;
            generator = Some(model.generate(*seed, *n));
            0
        }
    };
    Ok(ArrivalPlan {
        pending,
        generator,
        next_id,
        remaining_closed,
        think_ns,
    })
}

/// Closed loop: each of the `completed` clients thinks for `think_ns` after
/// `finish` and submits again (as a fresh pending arrival routed like any
/// other), until `remaining_closed` runs out. Completions are strictly
/// after the batch's launch, so a respawned arrival can never belong to the
/// batch that produced it.
fn respawn_closed(
    pending: &mut VecDeque<PendingArrival>,
    remaining_closed: &mut usize,
    next_id: &mut u64,
    completed: usize,
    finish: u64,
    think_ns: u64,
) {
    for _ in 0..completed.min(*remaining_closed) {
        *remaining_closed -= 1;
        let arrival = PendingArrival {
            id: *next_id,
            key: *next_id,
            time_ns: finish.saturating_add(think_ns),
        };
        *next_id += 1;
        insert_sorted(pending, arrival);
    }
}

/// Keeps `pending` sorted by `(time, id)`; completions share one finish
/// time so a linear scan from the back is cheap.
fn insert_sorted(pending: &mut VecDeque<PendingArrival>, arrival: PendingArrival) {
    let pos = pending
        .iter()
        .rposition(|p| (p.time_ns, p.id) <= (arrival.time_ns, arrival.id))
        .map(|p| p + 1)
        .unwrap_or(0);
    pending.insert(pos, arrival);
}

/// One launched batch in a simulated replica pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolBatchRecord {
    /// Replica that executed the batch.
    pub replica: usize,
    /// Ladder rung the batch executed at.
    pub mode: usize,
    /// Virtual launch time [ns].
    pub launch_ns: u64,
    /// Virtual completion time [ns].
    pub finish_ns: u64,
    /// Request ids coalesced into this batch, in queue order.
    pub request_ids: Vec<u64>,
    /// Queue depth left behind after the batch was drained.
    pub queue_depth_after: usize,
}

/// The full, deterministic outcome of a simulated replica pool run.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolSimOutcome {
    /// `(request id, inference)` for every completed request, in
    /// event-processing order (chronological; ties break arrival-first,
    /// then lowest replica index).
    pub responses: Vec<(u64, Inference)>,
    /// Ids shed by per-replica admission control, in arrival order.
    pub rejected_ids: Vec<u64>,
    /// Every launched batch, in event-processing order.
    pub batches: Vec<PoolBatchRecord>,
    /// Every adaptive mode switch, grouped by replica in replica order
    /// (matching [`crate::pool::PoolSnapshot::transitions`]).
    pub transitions: Vec<ModeTransition>,
    /// Per-replica metrics over the virtual makespan. Rejections are
    /// attributed to the replica the router picked.
    pub per_replica: Vec<MetricsSnapshot>,
    /// Pool-level aggregate metrics over the virtual makespan.
    pub metrics: MetricsSnapshot,
    /// Every crash handoff decision, in crash order then queue order —
    /// empty without fault injection. Part of the extended lockstep
    /// contract (mirrors [`crate::pool::PoolSnapshot::handoffs`]).
    pub handoffs: Vec<HandoffRecord>,
    /// Batches launched but *not* retained in `batches` because the log hit
    /// [`crate::config::BATCH_LOG_CAP`] — the log is constant-memory, this
    /// counter closes the accounting.
    pub dropped_batches: u64,
    /// Mode transitions applied but not retained in `transitions` past
    /// [`crate::config::TRANSITION_LOG_CAP`], summed over replicas.
    pub dropped_transitions: u64,
    /// Completions not retained in `responses` past [`RESPONSE_LOG_CAP`]
    /// (or whose outputs were never computed, on the
    /// [`simulate_pool_stats`] path) — `metrics.completed` still counts
    /// every one, closing the accounting at any request count.
    pub dropped_responses: u64,
    /// Sheds not retained in `rejected_ids` past [`REJECTION_LOG_CAP`] —
    /// `metrics.rejected` still counts every one.
    pub dropped_rejections: u64,
    /// Every pool-controller decision (predictive shift, scale, steal) in
    /// decision order — empty without a controller. Part of the extended
    /// lockstep contract (mirrors
    /// [`crate::pool::PoolSnapshot::control_events`]).
    pub control_events: Vec<ControlEvent>,
    /// Controller decisions applied but not retained past
    /// [`crate::config::CONTROL_LOG_CAP`].
    pub dropped_control_events: u64,
    /// Total live-replica nanoseconds over the run: `replicas × makespan`
    /// without autoscaling, the exact event-log integral with it — the cost
    /// axis autoscaling trades against sheds.
    pub replica_ns: u64,
    /// Virtual time at which the last batch finished [ns].
    pub makespan_ns: u64,
}

/// Simulates a sharded replica pool: N virtual-clock replicas behind a
/// deterministic router, each switching between the `sessions` ladder rungs
/// under the pool's [`crate::config::AdaptivePolicy`]. The mirror of
/// [`crate::pool::ReplicaPool`] — same router arithmetic, same adaptive
/// state machine, virtual time instead of the wall clock.
///
/// Events are processed chronologically; an arrival that coincides with a
/// launch is admitted (and routed) first, and simultaneous launches resolve
/// lowest-replica-first. Request ids double as the router keys, matching a
/// threaded pool driven with `submit(id, …)`.
///
/// # Errors
///
/// Rejects an empty ladder, an empty input pool, or an unsorted open-loop
/// trace as [`ServeError::BadRequest`]; propagates session-execution
/// failures.
pub fn simulate_pool<S: Borrow<Session>>(
    sessions: &[S],
    ctx: &ExecContext,
    inputs: &[Tensor<f32>],
    arrivals: &ArrivalProcess,
    pool: PoolConfig,
    service: ServiceModel,
) -> Result<PoolSimOutcome, ServeError> {
    simulate_pool_faulted(sessions, ctx, inputs, arrivals, pool, service, None)
}

/// [`simulate_pool`] with an injected [`FaultPlan`]: each replica consumes
/// its slice of the plan at the same batch-lifecycle points as the threaded
/// pool's lockstep mode — straggle factors scale the service time at
/// launch; stalls, queue closes, and crashes apply after the batch's
/// latencies, closed-loop respawns, and adaptive evaluation. A crash drains
/// the replica's queue through the shared handoff rule
/// ([`crate::faults::pick_handoff_target`]): each orphan re-enqueues on the
/// first eligible survivor with its `ready` time at the crash instant
/// (latency still anchored at arrival), or is shed when none qualifies. The
/// router skips crashed and closed replicas via
/// [`crate::faults::pick_replica`]; with every replica eligible the
/// arithmetic is exactly the fault-free router's. `None` faults make this
/// identical to [`simulate_pool`].
///
/// # Errors
///
/// Same as [`simulate_pool`].
pub fn simulate_pool_faulted<S: Borrow<Session>>(
    sessions: &[S],
    ctx: &ExecContext,
    inputs: &[Tensor<f32>],
    arrivals: &ArrivalProcess,
    pool: PoolConfig,
    service: ServiceModel,
    faults: Option<&FaultPlan>,
) -> Result<PoolSimOutcome, ServeError> {
    simulate_pool_traced(sessions, ctx, inputs, arrivals, pool, service, faults, None)
}

/// [`simulate_pool_faulted`] with an optional [`TraceRecorder`]: when a
/// recorder is supplied every request leaves a submit → queue-wait →
/// service → respond span chain, and every launched batch a batch span plus
/// per-layer kernel spans (service time partitioned proportionally to each
/// layer's [`nbsmt_core::pe::PeStats`] cycles via
/// [`crate::trace::layer_intervals`], with the stats attached). All timestamps are virtual nanoseconds, so the
/// emitted trace is bit-identical across runs, host thread counts, and
/// backends — and byte-identical to the lockstep
/// [`crate::pool::ReplicaPool`]'s trace of the same seeded burst.
///
/// # Errors
///
/// Same as [`simulate_pool`].
#[allow(clippy::too_many_arguments)]
pub fn simulate_pool_traced<S: Borrow<Session>>(
    sessions: &[S],
    ctx: &ExecContext,
    inputs: &[Tensor<f32>],
    arrivals: &ArrivalProcess,
    pool: PoolConfig,
    service: ServiceModel,
    faults: Option<&FaultPlan>,
    recorder: Option<&TraceRecorder>,
) -> Result<PoolSimOutcome, ServeError> {
    simulate_pool_inner(
        sessions, ctx, inputs, arrivals, pool, service, None, faults, recorder, true,
    )
}

/// [`simulate_pool_traced`] with a [`crate::control::PoolController`] in
/// the loop: the controller observes every admitted arrival (rolling its
/// EWMA windows and emitting predictive-shift / autoscale events at window
/// boundaries) and evaluates work stealing after every batch launch. Scale-down drains the
/// deactivated replica's queue through the crash-handoff rule, the router
/// only considers live replicas, and every batch executes at
/// `max(reactive mode, predictive floor)`. All decisions are pure functions
/// of (arrival trace, config), so the event stream in
/// [`PoolSimOutcome::control_events`] is bit-identical to the threaded
/// lockstep pool's on the same seeded burst.
///
/// # Errors
///
/// Same as [`simulate_pool`], plus any [`ControlConfig`] validation error.
#[allow(clippy::too_many_arguments)]
pub fn simulate_pool_controlled<S: Borrow<Session>>(
    sessions: &[S],
    ctx: &ExecContext,
    inputs: &[Tensor<f32>],
    arrivals: &ArrivalProcess,
    pool: PoolConfig,
    service: ServiceModel,
    control: ControlConfig,
    faults: Option<&FaultPlan>,
    recorder: Option<&TraceRecorder>,
) -> Result<PoolSimOutcome, ServeError> {
    simulate_pool_inner(
        sessions,
        ctx,
        inputs,
        arrivals,
        pool,
        service,
        Some(control),
        faults,
        recorder,
        true,
    )
}

/// The constant-memory statistics variant of [`simulate_pool_controlled`]:
/// identical controller, scheduling, and fault semantics, but model outputs
/// are not computed — the controlled counterpart of
/// [`simulate_pool_stats`], for million-request control-plane sweeps.
///
/// # Errors
///
/// Same as [`simulate_pool_controlled`].
#[allow(clippy::too_many_arguments)]
pub fn simulate_pool_controlled_stats<S: Borrow<Session>>(
    sessions: &[S],
    inputs: &[Tensor<f32>],
    arrivals: &ArrivalProcess,
    pool: PoolConfig,
    service: ServiceModel,
    control: ControlConfig,
    faults: Option<&FaultPlan>,
    recorder: Option<&TraceRecorder>,
) -> Result<PoolSimOutcome, ServeError> {
    let ctx = ExecContext::sequential();
    simulate_pool_inner(
        sessions,
        &ctx,
        inputs,
        arrivals,
        pool,
        service,
        Some(control),
        faults,
        recorder,
        false,
    )
}

/// The constant-memory statistics path for million-request sweeps:
/// identical scheduling, routing, adaptive, and fault semantics to
/// [`simulate_pool_traced`] — same batches, same virtual latencies, same
/// metrics, bit for bit — but model outputs are **not computed** (no
/// [`ExecContext`] needed) and `responses` stays empty, with every
/// completion counted in `dropped_responses`. All retained collections
/// (batch log, transition log, rejected ids, trace ring when a recorder is
/// supplied) are capped, so peak memory is flat in request count. With a
/// recorder, per-layer kernel spans are omitted (they would require real
/// execution); all other span kinds are recorded as usual.
///
/// # Errors
///
/// Same as [`simulate_pool`].
pub fn simulate_pool_stats<S: Borrow<Session>>(
    sessions: &[S],
    inputs: &[Tensor<f32>],
    arrivals: &ArrivalProcess,
    pool: PoolConfig,
    service: ServiceModel,
    faults: Option<&FaultPlan>,
    recorder: Option<&TraceRecorder>,
) -> Result<PoolSimOutcome, ServeError> {
    let ctx = ExecContext::sequential();
    simulate_pool_inner(
        sessions, &ctx, inputs, arrivals, pool, service, None, faults, recorder, false,
    )
}

#[allow(clippy::too_many_arguments)]
fn simulate_pool_inner<S: Borrow<Session>>(
    sessions: &[S],
    ctx: &ExecContext,
    inputs: &[Tensor<f32>],
    arrivals: &ArrivalProcess,
    pool: PoolConfig,
    service: ServiceModel,
    control: Option<ControlConfig>,
    faults: Option<&FaultPlan>,
    recorder: Option<&TraceRecorder>,
    compute_outputs: bool,
) -> Result<PoolSimOutcome, ServeError> {
    if sessions.is_empty() {
        return Err(ServeError::BadRequest(
            "replica pool needs at least one session in the ladder".into(),
        ));
    }
    if inputs.is_empty() {
        return Err(ServeError::BadRequest("empty request-input pool".into()));
    }
    pool.validate()?;
    // Hashed routing can land an entire closed-loop client population on
    // one queue, so each queue admits at least the population.
    let capacity = pool
        .scheduler
        .queue_capacity
        .max(closed_population(arrivals));
    let mut core = PoolCore::new(sessions, &pool, capacity, service, control, faults, true)?;

    let ArrivalPlan {
        mut pending,
        mut generator,
        mut next_id,
        mut remaining_closed,
        think_ns,
    } = expand_arrivals(arrivals)?;
    let mut responses = Vec::new();
    let mut rejected_ids = Vec::new();
    let mut dropped_responses = 0u64;
    let mut dropped_rejections = 0u64;

    loop {
        // Generated arrivals stream in lazily, one at a time: the stream is
        // monotone, so a single-element prefix of `pending` is
        // bit-equivalent to the fully materialized trace (admission only
        // ever peeks the front) while 10^7 arrivals never exist at once.
        if pending.is_empty() {
            if let Some(arrival) = generator.as_mut().and_then(Iterator::next) {
                pending.push_back(PendingArrival {
                    id: next_id,
                    key: arrival.key,
                    time_ns: arrival.time_ns,
                });
                next_id += 1;
            }
        }
        // Arrivals at or before the next launch are admitted first
        // (submission precedes the drain).
        let next_launch = core.next_launch();
        if let Some(arrival) = pending.front().copied() {
            if next_launch.is_none_or(|(launch, _)| arrival.time_ns <= launch) {
                pending.pop_front();
                if !core.admit(arrival.time_ns, arrival.id, arrival.key, (), recorder) {
                    if rejected_ids.len() < REJECTION_LOG_CAP {
                        rejected_ids.push(arrival.id);
                    } else {
                        dropped_rejections += 1;
                    }
                }
                continue;
            }
        }
        let Some((launch, r)) = next_launch else {
            break; // no queued work and no pending arrivals
        };
        let launched = core.launch(r, launch, sessions, recorder, |batch, mode| {
            if !compute_outputs {
                return Ok((None, Vec::new()));
            }
            let session: &Session = sessions[mode].borrow();
            let batch_inputs: Vec<&Tensor<f32>> = batch
                .iter()
                .map(|q| &inputs[q.id as usize % inputs.len()])
                .collect();
            Ok(match recorder {
                Some(_) => {
                    let (outs, kernels) = session.infer_batch_traced(ctx, &batch_inputs)?;
                    (Some(outs), kernels)
                }
                None => (
                    Some(session.infer_batch_refs(ctx, &batch_inputs)?),
                    Vec::new(),
                ),
            })
        })?;
        match launched.output {
            Some(outs) => {
                for (q, inference) in launched.batch.iter().zip(outs) {
                    if responses.len() < RESPONSE_LOG_CAP {
                        responses.push((q.id, inference));
                    } else {
                        dropped_responses += 1;
                    }
                }
            }
            None => dropped_responses += launched.batch.len() as u64,
        }
        // Closed loop: completed clients think, then re-submit through the
        // router like any other arrival.
        respawn_closed(
            &mut pending,
            &mut remaining_closed,
            &mut next_id,
            launched.batch.len(),
            launched.launch_ns.saturating_add(launched.service_ns),
            think_ns,
        );
    }

    let out = core.finish();
    let mut total = ServeMetrics::new();
    for m in &out.metrics {
        total.merge(m);
    }
    Ok(PoolSimOutcome {
        responses,
        rejected_ids,
        batches: out.batches,
        transitions: out.transitions,
        per_replica: out
            .metrics
            .iter()
            .map(|m| m.snapshot(out.makespan_ns))
            .collect(),
        metrics: total.snapshot(out.makespan_ns),
        handoffs: out.handoffs,
        dropped_batches: out.dropped_batches,
        dropped_transitions: out.dropped_transitions,
        dropped_responses,
        dropped_rejections,
        control_events: out.control_events,
        dropped_control_events: out.dropped_control_events,
        replica_ns: out.replica_ns,
        makespan_ns: out.makespan_ns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{route_hash, BatchPolicy, SmtConfig};
    use crate::session::compile_session;
    use nbsmt_workloads::synthnet::quick_synthnet;
    use std::sync::Arc;

    fn test_setup() -> (Session, Vec<Tensor<f32>>) {
        let trained = quick_synthnet(23).expect("training succeeds");
        let calib = trained.calibration_inputs(8, 301);
        let s = trained.task.image_size;
        let session = compile_session(
            "synthnet",
            &trained.model,
            &[calib],
            SmtConfig::sysmt_2t(),
            [1, s, s],
        )
        .unwrap();
        let (inputs, _) = trained.sample_requests(8, 302);
        (session, inputs)
    }

    fn policy(max_batch: usize, max_wait_ns: u64, capacity: usize) -> SchedulerConfig {
        SchedulerConfig {
            batch: BatchPolicy {
                max_batch,
                max_wait_ns,
            },
            queue_capacity: capacity,
        }
    }

    #[test]
    fn widely_spaced_arrivals_run_unbatched() {
        let (session, inputs) = test_setup();
        let ctx = ExecContext::sequential();
        let service = ServiceModel::default();
        let gap = service.single_ns(&session) * 4;
        let arrivals = ArrivalProcess::Open {
            arrivals_ns: (0..6).map(|i| i * gap).collect(),
        };
        let out = simulate(
            &session,
            &ctx,
            &inputs,
            &arrivals,
            policy(8, 1_000, 64),
            service,
        )
        .unwrap();
        assert_eq!(out.metrics.completed, 6);
        assert_eq!(out.metrics.batches, 6, "spaced arrivals must not coalesce");
        assert!(out.rejected_ids.is_empty());
    }

    #[test]
    fn simultaneous_arrivals_coalesce_to_max_batch() {
        let (session, inputs) = test_setup();
        let ctx = ExecContext::sequential();
        let arrivals = ArrivalProcess::Open {
            arrivals_ns: vec![0; 8],
        };
        let out = simulate(
            &session,
            &ctx,
            &inputs,
            &arrivals,
            policy(4, 1_000_000, 64),
            ServiceModel::default(),
        )
        .unwrap();
        assert_eq!(out.batches.len(), 2);
        assert_eq!(out.batches[0].request_ids, vec![0, 1, 2, 3]);
        assert_eq!(out.batches[1].request_ids, vec![4, 5, 6, 7]);
    }

    #[test]
    fn max_wait_closes_a_partial_batch() {
        let (session, inputs) = test_setup();
        let ctx = ExecContext::sequential();
        // Second arrival lands after the first's wait budget: two batches.
        let arrivals = ArrivalProcess::Open {
            arrivals_ns: vec![0, 2_000],
        };
        let out = simulate(
            &session,
            &ctx,
            &inputs,
            &arrivals,
            policy(8, 1_000, 1_000),
            ServiceModel {
                ns_per_mac_x1024: 0,
                batch_overhead_ns: 10,
                size: SizeModel::Unit,
            },
        )
        .unwrap();
        assert_eq!(out.batches.len(), 2);
        assert_eq!(out.batches[0].launch_ns, 1_000);
        // And within the budget: one batch.
        let arrivals = ArrivalProcess::Open {
            arrivals_ns: vec![0, 500],
        };
        let out = simulate(
            &session,
            &ctx,
            &inputs,
            &arrivals,
            policy(8, 1_000, 1_000),
            ServiceModel {
                ns_per_mac_x1024: 0,
                batch_overhead_ns: 10,
                size: SizeModel::Unit,
            },
        )
        .unwrap();
        assert_eq!(out.batches.len(), 1);
        assert_eq!(out.batches[0].request_ids, vec![0, 1]);
    }

    #[test]
    fn overload_sheds_and_accounts_every_request() {
        let (session, inputs) = test_setup();
        let ctx = ExecContext::sequential();
        let n = 40u64;
        let arrivals = ArrivalProcess::Open {
            arrivals_ns: (0..n).map(|i| i * 10).collect(),
        };
        let service = ServiceModel::default(); // far slower than arrivals
        let out = simulate(
            &session,
            &ctx,
            &inputs,
            &arrivals,
            policy(2, 1_000, 4),
            service,
        )
        .unwrap();
        assert!(out.metrics.rejected > 0, "overload must shed load");
        assert_eq!(out.metrics.completed + out.metrics.rejected, n);
        assert_eq!(
            out.responses.len() + out.rejected_ids.len(),
            n as usize,
            "every request is either answered or rejected"
        );
        assert!(out.metrics.max_queue_depth <= 4 + 2);
    }

    #[test]
    fn closed_loop_population_survives_a_small_queue_bound() {
        // 16 clients against a capacity-4 scheduler: the bound is raised to
        // the population so no client is shed at t=0 and orphaned — every
        // request completes.
        let (session, inputs) = test_setup();
        let ctx = ExecContext::sequential();
        let arrivals = ArrivalProcess::Closed {
            clients: 16,
            think_ns: 1_000,
            total_requests: 48,
        };
        let out = simulate(
            &session,
            &ctx,
            &inputs,
            &arrivals,
            policy(4, 10_000, 4),
            ServiceModel::default(),
        )
        .unwrap();
        assert_eq!(out.metrics.completed, 48);
        assert!(out.rejected_ids.is_empty());
    }

    #[test]
    fn closed_loop_issues_exactly_total_requests() {
        let (session, inputs) = test_setup();
        let ctx = ExecContext::sequential();
        let arrivals = ArrivalProcess::Closed {
            clients: 3,
            think_ns: 1_000,
            total_requests: 12,
        };
        let out = simulate(
            &session,
            &ctx,
            &inputs,
            &arrivals,
            policy(4, 10_000, 16),
            ServiceModel::default(),
        )
        .unwrap();
        assert_eq!(out.metrics.completed, 12);
        assert!(out.rejected_ids.is_empty(), "closed loop cannot overflow");
        // No client ever has two requests in flight: at most `clients`
        // requests per batch.
        for batch in &out.batches {
            assert!(batch.request_ids.len() <= 3);
        }
    }

    fn ladder_setup() -> (Vec<Arc<Session>>, Vec<Tensor<f32>>) {
        let trained = quick_synthnet(23).expect("training succeeds");
        let mut registry = crate::registry::ModelRegistry::new();
        registry
            .register_synthnet("synthnet", &trained, 301)
            .unwrap();
        let ladder = registry
            .compile_ladder(
                "synthnet",
                &[
                    SmtConfig::Dense,
                    SmtConfig::sysmt_2t(),
                    SmtConfig::sysmt_4t(),
                ],
            )
            .unwrap();
        let (inputs, _) = trained.sample_requests(8, 302);
        (ladder, inputs)
    }

    fn pool_cfg(replicas: usize, route: RoutePolicy, scheduler: SchedulerConfig) -> PoolConfig {
        PoolConfig {
            replicas,
            route,
            scheduler,
            adaptive: crate::config::AdaptivePolicy::pinned(),
        }
    }

    #[test]
    fn pool_of_one_matches_the_single_replica_simulator() {
        // A 1-replica pinned pool must be behaviourally identical to the
        // original single-session simulator: same launches, same batches,
        // same latencies, same sheds.
        let (session, inputs) = test_setup();
        let ctx = ExecContext::sequential();
        let scheduler = policy(3, 40_000, 4);
        for arrivals in [
            ArrivalProcess::Open {
                arrivals_ns: (0..24).map(|i| i * 17_000).collect(),
            },
            ArrivalProcess::Open {
                arrivals_ns: vec![0; 16],
            },
            ArrivalProcess::Closed {
                clients: 5,
                think_ns: 30_000,
                total_requests: 20,
            },
        ] {
            let single = simulate(
                &session,
                &ctx,
                &inputs,
                &arrivals,
                scheduler,
                ServiceModel::default(),
            )
            .unwrap();
            let pooled = simulate_pool(
                &[Arc::new(session.clone())],
                &ctx,
                &inputs,
                &arrivals,
                pool_cfg(1, RoutePolicy::RoundRobin, scheduler),
                ServiceModel::default(),
            )
            .unwrap();
            assert_eq!(pooled.batches.len(), single.batches.len());
            for (p, s) in pooled.batches.iter().zip(single.batches.iter()) {
                assert_eq!(p.request_ids, s.request_ids);
                assert_eq!(p.launch_ns, s.launch_ns);
                assert_eq!(p.finish_ns, s.finish_ns);
                assert_eq!(p.queue_depth_after, s.queue_depth_after);
                assert_eq!((p.replica, p.mode), (0, 0));
            }
            assert_eq!(pooled.responses, single.responses);
            assert_eq!(pooled.rejected_ids, single.rejected_ids);
            assert_eq!(pooled.makespan_ns, single.makespan_ns);
            assert!(pooled.transitions.is_empty(), "pinned pool never switches");
        }
    }

    #[test]
    fn round_robin_pool_splits_a_burst_across_replicas() {
        let (ladder, inputs) = ladder_setup();
        let ctx = ExecContext::sequential();
        let arrivals = ArrivalProcess::Open {
            arrivals_ns: vec![0; 8],
        };
        let out = simulate_pool(
            &ladder,
            &ctx,
            &inputs,
            &arrivals,
            pool_cfg(2, RoutePolicy::RoundRobin, policy(4, 1_000_000, 64)),
            ServiceModel::default(),
        )
        .unwrap();
        assert_eq!(out.metrics.completed, 8);
        assert_eq!(out.batches.len(), 2, "each replica coalesces its half");
        // Round-robin interleaves ids: evens on replica 0, odds on 1.
        let by_replica: Vec<Vec<u64>> = (0..2)
            .map(|r| {
                out.batches
                    .iter()
                    .filter(|b| b.replica == r)
                    .flat_map(|b| b.request_ids.clone())
                    .collect()
            })
            .collect();
        assert_eq!(by_replica[0], vec![0, 2, 4, 6]);
        assert_eq!(by_replica[1], vec![1, 3, 5, 7]);
        // And both replicas report their own metrics.
        assert_eq!(out.per_replica.len(), 2);
        assert!(out.per_replica.iter().all(|m| m.completed == 4));
    }

    #[test]
    fn hashed_routing_is_sticky_per_key() {
        let (ladder, inputs) = ladder_setup();
        let ctx = ExecContext::sequential();
        // The same id set twice: each id must land on the same replica both
        // times (affinity), regardless of interleaving.
        let arrivals = ArrivalProcess::Open {
            arrivals_ns: (0..16).map(|i| i * 200_000).collect(),
        };
        let out = simulate_pool(
            &ladder,
            &ctx,
            &inputs,
            &arrivals,
            pool_cfg(4, RoutePolicy::Hashed, policy(2, 1_000, 64)),
            ServiceModel::default(),
        )
        .unwrap();
        for batch in &out.batches {
            for &id in &batch.request_ids {
                assert_eq!(
                    batch.replica,
                    (route_hash(id) % 4) as usize,
                    "id {id} must follow its hash"
                );
            }
        }
    }

    #[test]
    fn adaptive_pool_sheds_less_than_pinned_dense_under_overload() {
        let (ladder, inputs) = ladder_setup();
        let ctx = ExecContext::sequential();
        let service = ServiceModel::default();
        // Offered far beyond one dense replica's service rate.
        let gap = service.single_ns(&ladder[0]) / 4;
        let arrivals = ArrivalProcess::Open {
            arrivals_ns: (0..64).map(|i| i * gap).collect(),
        };
        let scheduler = policy(4, 100_000, 8);
        let pinned = simulate_pool(
            &ladder[..1],
            &ctx,
            &inputs,
            &arrivals,
            pool_cfg(1, RoutePolicy::RoundRobin, scheduler),
            service,
        )
        .unwrap();
        let adaptive = simulate_pool(
            &ladder,
            &ctx,
            &inputs,
            &arrivals,
            PoolConfig {
                adaptive: crate::config::AdaptivePolicy {
                    depth_high: 4,
                    depth_low: 1,
                    p95_high_ns: 0,
                    eval_every_batches: 1,
                },
                ..pool_cfg(1, RoutePolicy::RoundRobin, scheduler)
            },
            service,
        )
        .unwrap();
        assert!(
            pinned.metrics.rejected > 0,
            "dense-only must shed at 4x load"
        );
        assert!(
            adaptive.metrics.rejected < pinned.metrics.rejected,
            "adaptive ({} shed) must shed less than pinned dense ({} shed)",
            adaptive.metrics.rejected,
            pinned.metrics.rejected
        );
        assert!(
            adaptive.metrics.mode_transitions > 0,
            "overload must drive the ladder"
        );
        // The trade is visible in the mode histogram: some batches ran
        // above rung 0.
        let above: u64 = adaptive.metrics.batches_per_mode.iter().skip(1).sum();
        assert!(above > 0);
        // Accounting closes for both runs.
        assert_eq!(pinned.metrics.completed + pinned.metrics.rejected, 64);
        assert_eq!(adaptive.metrics.completed + adaptive.metrics.rejected, 64);
    }

    #[test]
    fn closed_loop_pool_completes_every_request() {
        let (ladder, inputs) = ladder_setup();
        let ctx = ExecContext::sequential();
        let arrivals = ArrivalProcess::Closed {
            clients: 6,
            think_ns: 1_000,
            total_requests: 30,
        };
        let out = simulate_pool(
            &ladder,
            &ctx,
            &inputs,
            &arrivals,
            // Capacity 4 is below the 6-client population: the closed-loop
            // capacity floor must still absorb every in-flight request.
            pool_cfg(3, RoutePolicy::LeastOutstanding, policy(4, 10_000, 4)),
            ServiceModel::default(),
        )
        .unwrap();
        assert_eq!(out.metrics.completed, 30);
        assert!(out.rejected_ids.is_empty(), "closed loop cannot overflow");
        let per_replica_total: u64 = out.per_replica.iter().map(|m| m.completed).sum();
        assert_eq!(per_replica_total, 30);
    }

    #[test]
    fn simulation_is_bit_deterministic_across_runs() {
        let (session, inputs) = test_setup();
        let ctx = ExecContext::sequential();
        let arrivals = ArrivalProcess::Open {
            arrivals_ns: (0..16).map(|i| i * 50_000).collect(),
        };
        let run = || {
            simulate(
                &session,
                &ctx,
                &inputs,
                &arrivals,
                policy(4, 100_000, 16),
                ServiceModel::default(),
            )
            .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }
}
