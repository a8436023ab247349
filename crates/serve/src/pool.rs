//! Multi-replica sharded serving: a deterministic router in front of N
//! scheduler workers, each owning its own [`BoundedQueue`], its own
//! [`ExecContext`], and an SLO-aware [`AdaptiveState`] that walks the
//! session ladder (dense → 2T → 4T) under pressure.
//!
//! The pool is the threaded half of the sharded serving layer; the
//! discrete-event half is [`crate::sim::simulate_pool`]. Both drive the same
//! router arithmetic ([`RoutePolicy`], [`crate::config::route_hash`]) and
//! the same adaptive state machine, which yields the **lockstep determinism
//! contract**: when every request is submitted before the workers start (a
//! paused pool resumed after a burst, or equivalently a virtual trace whose
//! arrivals all precede the first launch), batch compositions, executed
//! modes, mode transitions, and logits are bit-identical between the
//! threaded pool and the simulator — for every host thread count and GEMM
//! backend. Wall-clock quantities (latencies, throughput) are the only
//! fields allowed to differ.
//!
//! Routing is decided at submission time from the submission sequence and
//! the per-replica queue depths alone, so a single-threaded submitter drives
//! every policy deterministically.
//!
//! The pool runs on one of two clocks:
//!
//! - **Free-running** ([`ReplicaPool::start`], [`ReplicaPool::start_paused`],
//!   [`ReplicaPool::start_with_faults`]): each worker drains its own queue
//!   on the wall clock. The p95 adaptive trigger observes real tail latency
//!   here, so its *timing* is outside the lockstep contract (batch
//!   composition and routing still replay). An injected [`FaultPlan`]
//!   applies for real — crashes kill workers (queues drain through the
//!   shared handoff rule), stalls sleep, and stragglers pad service time;
//!   this is the mode the availability bench drives with retrying/hedging
//!   clients. Without a plan every worker runs the same loop with an empty
//!   schedule.
//! - **Lockstep** ([`ReplicaPool::start_lockstep`]): the workers share one
//!   virtual-clock pool core — the simulator's own state machine — under a
//!   lock. It grants batch launches in exactly the simulator's event order,
//!   while the granted GEMMs still execute on real threads in parallel.
//!   Latencies are recorded in virtual time, so **both** adaptive triggers
//!   — depth *and* p95 — replay bit-identically against
//!   [`crate::sim::simulate_pool_faulted`], as do fault schedules, crash
//!   handoffs, and every quantile of the latency histogram.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use nbsmt_tensor::exec::{ExecConfig, ExecContext};
use nbsmt_tensor::tensor::Tensor;
use nbsmt_tensor::validate::Validate;

use crate::config::{
    AdaptiveState, ModeTransition, PoolConfig, RoutePolicy, ServeError, SubmitError, BATCH_LOG_CAP,
};
use crate::control::{ControlConfig, ControlEvent};
use crate::faults::{pick_handoff_target, pick_replica, FaultPlan, HandoffRecord, ReplicaFaults};
use crate::metrics::{MetricsSnapshot, ServeMetrics};
use crate::pool_core::{Launched, PoolCore};
use crate::queue::{response_channel, BoundedQueue, ResponseHandle, ResponseSlot};
use crate::server::RequestResult;
use crate::session::Session;
use crate::sim::ServiceModel;
use crate::trace::{layer_intervals, BatchTraceCtx, TraceEvent, TraceRecorder, TraceStage};

struct PooledRequest {
    key: u64,
    input: Tensor<f32>,
    submitted: Instant,
    slot: ResponseSlot<RequestResult>,
}

/// One launched batch as the threaded pool recorded it (no timestamps —
/// wall-clock times are outside the determinism contract).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolBatchLog {
    /// Replica that executed the batch.
    pub replica: usize,
    /// Ladder rung the batch executed at.
    pub mode: usize,
    /// Request keys coalesced into the batch, in queue order.
    pub keys: Vec<u64>,
    /// Queue depth left behind after the batch was drained.
    pub queue_depth_after: usize,
}

/// Final state of a drained replica pool.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolSnapshot {
    /// Pool-level aggregate (per-replica metrics merged).
    pub total: MetricsSnapshot,
    /// Per-replica metrics over the same window. Admission-control
    /// rejections are attributed to the replica the router picked, matching
    /// the simulator's accounting.
    pub per_replica: Vec<MetricsSnapshot>,
    /// Every adaptive mode switch, grouped by replica in replica order.
    pub transitions: Vec<ModeTransition>,
    /// Per-batch log (replica order, launch order within a replica); only
    /// recorded when the pool was started with recording enabled.
    pub batch_log: Vec<PoolBatchLog>,
    /// Every crash handoff decision, in crash order then queue order —
    /// empty without fault injection. Part of the extended lockstep
    /// contract (mirrors [`crate::sim::PoolSimOutcome::handoffs`]).
    pub handoffs: Vec<HandoffRecord>,
    /// Batches executed but *not* retained in `batch_log` because the log
    /// hit [`BATCH_LOG_CAP`] — the log is constant-memory, this counter
    /// closes the accounting (mirrors
    /// [`crate::sim::PoolSimOutcome::dropped_batches`]).
    pub dropped_batches: u64,
    /// Mode transitions applied but not retained past
    /// [`crate::config::TRANSITION_LOG_CAP`], summed over replicas.
    pub dropped_transitions: u64,
    /// Every pool-controller decision in decision order — empty unless the
    /// pool was started with [`ReplicaPool::start_lockstep_controlled`].
    /// Part of the extended lockstep contract (mirrors
    /// [`crate::sim::PoolSimOutcome::control_events`]).
    pub control_events: Vec<ControlEvent>,
    /// Controller decisions applied but not retained past
    /// [`crate::config::CONTROL_LOG_CAP`].
    pub dropped_control_events: u64,
    /// Total live-replica nanoseconds: `replicas × wall elapsed` for
    /// free-running pools, virtual (`replicas × makespan`, or the
    /// controller's event-log integral) in lockstep mode — mirrors
    /// [`crate::sim::PoolSimOutcome::replica_ns`].
    pub replica_ns: u64,
}

struct RouterCore {
    policy: RoutePolicy,
    queues: Vec<Arc<BoundedQueue<PooledRequest>>>,
    rr: AtomicU64,
    /// Admission-control rejections per replica, attributed to the replica
    /// the router picked — the same accounting as the simulator's.
    rejected: Vec<AtomicU64>,
    /// Liveness per replica: cleared by a crashed worker *before* it closes
    /// and drains its queue, so the router never routes into a dying
    /// replica. Always true without fault injection.
    alive: Vec<AtomicBool>,
}

impl RouterCore {
    /// Whether replica `i` is alive and admitting.
    fn eligible(&self, i: usize) -> bool {
        self.alive[i].load(Ordering::Acquire) && !self.queues[i].is_admissions_closed()
    }

    /// Routes a key among the alive, admitting replicas through the shared
    /// [`pick_replica`] arithmetic (with every replica eligible this is
    /// exactly the fault-free router), or `None` when none is eligible.
    fn pick(&self, key: u64) -> Option<usize> {
        let eligible: Vec<(usize, usize)> = (0..self.queues.len())
            .filter(|&i| self.eligible(i))
            .map(|i| (i, self.queues[i].len()))
            .collect();
        // The round-robin counter ticks per routed submission regardless of
        // the eligible-set size — the same clock the simulator advances.
        let tick = if self.policy == RoutePolicy::RoundRobin {
            self.rr.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        pick_replica(self.policy, key, tick, &eligible)
    }
}

/// Cheap cloneable submission handle onto a [`ReplicaPool`].
#[derive(Clone)]
pub struct PoolClient {
    router: Arc<RouterCore>,
}

impl PoolClient {
    /// Routes and submits one request. `key` identifies the request: it is
    /// the hash input for [`RoutePolicy::Hashed`], and the identity under
    /// which the batch log reports the request.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] when the routed replica's queue is at
    /// capacity (the router does not fail over — a deterministic router
    /// must not let load silently leak across replicas), and
    /// [`SubmitError::Closed`] after shutdown began or when every replica
    /// is crashed or has closed admissions (only possible under fault
    /// injection; not counted as an admission-control rejection).
    pub fn submit(
        &self,
        key: u64,
        input: Tensor<f32>,
    ) -> Result<ResponseHandle<RequestResult>, SubmitError> {
        let Some(replica) = self.router.pick(key) else {
            return Err(SubmitError::Closed);
        };
        let (slot, handle) = response_channel();
        let queued = PooledRequest {
            key,
            input,
            submitted: Instant::now(),
            slot,
        };
        match self.router.queues[replica].try_push(queued) {
            Ok(()) => Ok(handle),
            Err(e) => {
                if matches!(e, SubmitError::QueueFull { .. }) {
                    self.router.rejected[replica].fetch_add(1, Ordering::Relaxed);
                }
                Err(e)
            }
        }
    }
}

/// What a free-running worker leaves behind (lockstep workers leave an
/// empty one; their state lives in the gate's core).
#[derive(Default)]
struct ReplicaOutcome {
    metrics: ServeMetrics,
    transitions: Vec<ModeTransition>,
    log: Vec<PoolBatchLog>,
    handoffs: Vec<HandoffRecord>,
    dropped_batches: u64,
    dropped_transitions: u64,
}

struct Replica {
    queue: Arc<BoundedQueue<PooledRequest>>,
    worker: Option<JoinHandle<ReplicaOutcome>>,
}

/// Which clock the pool's workers run on (see the module docs).
enum FaultMode {
    /// Free-running wall-clock workers with `plan` injected for real
    /// ([`FaultPlan::none`] when no faults were asked for).
    Live {
        plan: FaultPlan,
        service: ServiceModel,
    },
    /// Virtual-clock coordination gate; workers only execute granted GEMMs.
    Lockstep { gate: Arc<LockstepGate> },
}

/// A running sharded serving instance: router → N replica workers, each
/// executing batches against the shared session ladder at its own adaptive
/// mode.
pub struct ReplicaPool {
    replicas: Vec<Replica>,
    router: Arc<RouterCore>,
    sessions: Arc<Vec<Arc<Session>>>,
    config: PoolConfig,
    exec: ExecConfig,
    record_log: bool,
    mode: FaultMode,
    recorder: Option<Arc<TraceRecorder>>,
    started: Instant,
    running: bool,
}

impl ReplicaPool {
    /// Starts a pool over `sessions` (the adaptive ladder, rung 0 first —
    /// typically dense → 2T → 4T; a single-session ladder never switches).
    /// Each replica builds its own [`ExecContext`] from `exec`.
    ///
    /// # Errors
    ///
    /// Rejects an empty ladder as [`ServeError::BadRequest`].
    pub fn start(
        sessions: Vec<Arc<Session>>,
        config: PoolConfig,
        exec: ExecConfig,
    ) -> Result<ReplicaPool, ServeError> {
        let mut pool = Self::start_paused(sessions, config, exec, false)?;
        pool.resume();
        Ok(pool)
    }

    /// Builds the pool with every queue live but **no workers running**:
    /// submissions accumulate in the per-replica queues until
    /// [`Self::resume`] spawns the workers. This is the lockstep-replay
    /// mode — with the whole trace queued up front, batch formation is a
    /// pure function of queue contents and the run is bit-comparable to
    /// [`crate::sim::simulate_pool`]. `record_log` additionally captures the
    /// per-batch composition log (unbounded memory — test/replay use only).
    ///
    /// # Errors
    ///
    /// Rejects an empty ladder as [`ServeError::BadRequest`] and an invalid
    /// pool or execution configuration as [`ServeError::Config`].
    pub fn start_paused(
        sessions: Vec<Arc<Session>>,
        config: PoolConfig,
        exec: ExecConfig,
        record_log: bool,
    ) -> Result<ReplicaPool, ServeError> {
        if sessions.is_empty() {
            return Err(ServeError::BadRequest(
                "replica pool needs at least one session in the ladder".into(),
            ));
        }
        config.validate()?;
        exec.validate().map_err(crate::config::ConfigError::from)?;
        let replicas: Vec<Replica> = (0..config.replicas)
            .map(|_| Replica {
                queue: Arc::new(BoundedQueue::new(config.scheduler.queue_capacity)),
                worker: None,
            })
            .collect();
        let router = Arc::new(RouterCore {
            policy: config.route,
            queues: replicas.iter().map(|r| Arc::clone(&r.queue)).collect(),
            rr: AtomicU64::new(0),
            rejected: (0..config.replicas).map(|_| AtomicU64::new(0)).collect(),
            alive: (0..config.replicas)
                .map(|_| AtomicBool::new(true))
                .collect(),
        });
        Ok(ReplicaPool {
            replicas,
            router,
            sessions: Arc::new(sessions),
            config,
            exec,
            record_log,
            mode: FaultMode::Live {
                plan: FaultPlan::none(),
                service: ServiceModel::default(),
            },
            recorder: None,
            started: Instant::now(),
            running: false,
        })
    }

    /// Attaches a shared [`TraceRecorder`] — call between a paused start and
    /// [`Self::resume`]. Every executed batch then leaves the full span
    /// chain (submit, queue-wait, batch, per-layer kernels, service,
    /// respond). In lockstep mode the recorder must hold a virtual
    /// [`crate::trace::Clock`] and the emitted trace is byte-identical to
    /// [`crate::sim::simulate_pool_traced`] on the same burst; free-running
    /// pools emit the same schema on the recorder's wall clock.
    pub fn set_recorder(&mut self, recorder: Arc<TraceRecorder>) {
        self.recorder = Some(recorder);
    }

    /// Starts a free-running pool with `plan` injected for real: crashes
    /// kill workers (their queues drain through the shared handoff rule
    /// onto survivors, or shed as cancellations), stalls sleep on the wall
    /// clock, and straggle windows pad each batch with the [`ServiceModel`]
    /// cost the factor adds. This is the availability bench's pool; for
    /// bit-exact replay against the simulator use [`Self::start_lockstep`].
    ///
    /// # Errors
    ///
    /// Same as [`Self::start`].
    pub fn start_with_faults(
        sessions: Vec<Arc<Session>>,
        config: PoolConfig,
        exec: ExecConfig,
        plan: &FaultPlan,
        service: ServiceModel,
    ) -> Result<ReplicaPool, ServeError> {
        let mut pool = Self::start_paused(sessions, config, exec, false)?;
        pool.mode = FaultMode::Live {
            plan: plan.clone(),
            service,
        };
        pool.resume();
        Ok(pool)
    }

    /// Builds the pool in **lockstep** mode, paused: submissions accumulate
    /// in the real queues; [`Self::resume`] then hands the whole burst to a
    /// virtual-clock coordination gate that grants batch launches in the
    /// simulator's exact event order (GEMMs still run on real threads, in
    /// parallel, outside the gate's lock). Latencies enter the histograms
    /// in virtual [`ServiceModel`] time, so depth *and* p95 adaptive
    /// triggers, straggle factors, stalls, crash handoffs, and every
    /// latency quantile replay bit-identically against
    /// [`crate::sim::simulate_pool_faulted`] with the same `plan`.
    ///
    /// # Errors
    ///
    /// Same as [`Self::start_paused`].
    pub fn start_lockstep(
        sessions: Vec<Arc<Session>>,
        config: PoolConfig,
        exec: ExecConfig,
        record_log: bool,
        service: ServiceModel,
        plan: &FaultPlan,
    ) -> Result<ReplicaPool, ServeError> {
        Self::start_gated(sessions, config, exec, record_log, service, plan, None)
    }

    /// [`Self::start_lockstep`] plus a pool-level
    /// [`crate::control::PoolController`] in the shared core, called at the
    /// simulator's exact lifecycle points (arrival admission, batch launch,
    /// post-batch steal check), so autoscale events, steal events, and
    /// predictive mode transitions replay bit-identically against
    /// [`crate::sim::simulate_pool_controlled`] on the same timed trace.
    ///
    /// # Errors
    ///
    /// Same as [`Self::start_lockstep`], plus [`ServeError::Config`] when
    /// `control` is invalid or its replica bounds exceed `config.replicas`.
    #[allow(clippy::too_many_arguments)]
    pub fn start_lockstep_controlled(
        sessions: Vec<Arc<Session>>,
        config: PoolConfig,
        exec: ExecConfig,
        record_log: bool,
        service: ServiceModel,
        plan: &FaultPlan,
        control: ControlConfig,
    ) -> Result<ReplicaPool, ServeError> {
        Self::start_gated(
            sessions,
            config,
            exec,
            record_log,
            service,
            plan,
            Some(control),
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn start_gated(
        sessions: Vec<Arc<Session>>,
        config: PoolConfig,
        exec: ExecConfig,
        record_log: bool,
        service: ServiceModel,
        plan: &FaultPlan,
        control: Option<ControlConfig>,
    ) -> Result<ReplicaPool, ServeError> {
        let mut pool = Self::start_paused(sessions, config, exec, record_log)?;
        let core = PoolCore::new(
            &pool.sessions,
            &config,
            config.scheduler.queue_capacity,
            service,
            control,
            Some(plan),
            record_log,
        )?;
        pool.mode = FaultMode::Lockstep {
            gate: Arc::new(LockstepGate {
                state: Mutex::new(GateState {
                    core,
                    pending: VecDeque::new(),
                    recorder: None,
                }),
                cv: Condvar::new(),
            }),
        };
        Ok(pool)
    }

    /// Spawns the replica workers (idempotent). In lockstep mode this is
    /// the burst boundary: every queued submission is handed to the gate
    /// (submission order preserved, virtual arrival time 0) and the real
    /// queues close, so late submissions get [`SubmitError::Closed`] —
    /// exactly the "all requests precede the first launch" precondition of
    /// the determinism contract.
    pub fn resume(&mut self) {
        if self.running {
            return;
        }
        self.running = true;
        if let FaultMode::Lockstep { gate } = &self.mode {
            let mut state = gate.state.lock().expect("gate lock");
            let GateState { core, recorder, .. } = &mut *state;
            *recorder = self.recorder.clone();
            for (index, replica) in self.replicas.iter().enumerate() {
                // The burst arrives at virtual t = 0 on the replica the
                // router already picked — the same submit instant the
                // simulator records for an all-at-zero arrival trace.
                for req in replica.queue.drain_up_to(usize::MAX) {
                    core.enqueue(index, 0, req.key, req.key, req, recorder.as_deref());
                }
                replica.queue.close();
            }
        }
        for (index, replica) in self.replicas.iter_mut().enumerate() {
            let sessions = Arc::clone(&self.sessions);
            let exec = self.exec;
            let recorder = self.recorder.clone();
            let builder = std::thread::Builder::new().name(format!("nbsmt-pool-{index}"));
            let worker = match &self.mode {
                FaultMode::Live { plan, service } => {
                    let router = Arc::clone(&self.router);
                    let config = self.config;
                    let record_log = self.record_log;
                    let faults = plan.for_replica(index);
                    let service = *service;
                    builder.spawn(move || {
                        let ctx = ExecContext::new(exec);
                        free_running_loop(
                            index,
                            &router,
                            &sessions,
                            &config,
                            &ctx,
                            record_log,
                            &faults,
                            service,
                            recorder.as_deref(),
                        )
                    })
                }
                FaultMode::Lockstep { gate } => {
                    let gate = Arc::clone(gate);
                    builder.spawn(move || {
                        let ctx = ExecContext::new(exec);
                        lockstep_loop(index, &gate, &sessions, &ctx, recorder.as_deref())
                    })
                }
            }
            .expect("spawning a replica worker succeeds");
            replica.worker = Some(worker);
        }
    }

    /// Number of replica workers.
    pub fn replicas(&self) -> usize {
        self.replicas.len()
    }

    /// A new submission handle.
    pub fn client(&self) -> PoolClient {
        PoolClient {
            router: Arc::clone(&self.router),
        }
    }

    /// Queues a **virtual-time** submission on a paused lockstep pool: the
    /// request arrives at virtual `at_ns` and is routed *inside* the gate at
    /// that instant — admission interleaves with launches exactly as the
    /// simulator's event loop does, so a timed trace (e.g. a seeded MMPP
    /// burst from [`crate::traffic::TrafficModel`]) replays bit-identically
    /// against [`crate::sim::simulate_pool`] with the matching
    /// [`crate::sim::ArrivalProcess`]. `key` is the router/affinity key and
    /// the [`crate::traffic::SizeModel`] input, so per-request sizes are
    /// recomputed identically on both sides.
    ///
    /// Submissions must be issued in non-decreasing `at_ns` order, before
    /// [`Self::resume`]. A request shed by gate admission control cancels
    /// its handle (the wait returns `None`), mirroring the simulator's
    /// rejected-id accounting.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Closed`] when the pool is not a paused lockstep pool
    /// or `at_ns` goes backwards — timed replay is strictly a pre-resume,
    /// ascending-order protocol.
    pub fn submit_virtual(
        &self,
        at_ns: u64,
        key: u64,
        input: Tensor<f32>,
    ) -> Result<ResponseHandle<RequestResult>, SubmitError> {
        let FaultMode::Lockstep { gate } = &self.mode else {
            return Err(SubmitError::Closed);
        };
        if self.running {
            return Err(SubmitError::Closed);
        }
        let mut state = gate.state.lock().expect("gate lock");
        if state.pending.back().is_some_and(|p| p.at_ns > at_ns) {
            return Err(SubmitError::Closed);
        }
        let (slot, handle) = response_channel();
        state.pending.push_back(PendingSubmission {
            at_ns,
            req: PooledRequest {
                key,
                input,
                submitted: Instant::now(),
                slot,
            },
        });
        Ok(handle)
    }

    /// Current per-replica queue depths (approximate under concurrency).
    pub fn queue_depths(&self) -> Vec<usize> {
        self.replicas.iter().map(|r| r.queue.len()).collect()
    }

    /// Stops accepting work, drains every queue, joins the workers, and
    /// returns the final pool snapshot. A pool shut down while paused
    /// resumes first so queued work still completes.
    pub fn shutdown(mut self) -> PoolSnapshot {
        self.resume();
        for replica in &self.replicas {
            replica.queue.close();
        }
        let elapsed = self.started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        let mut outcomes: Vec<ReplicaOutcome> = self
            .replicas
            .iter_mut()
            .map(|replica| {
                replica
                    .worker
                    .take()
                    .expect("worker present until shutdown")
                    .join()
                    .expect("replica worker exits cleanly")
            })
            .collect();
        let mut control_events = Vec::new();
        let mut dropped_control_events = 0u64;
        let mut replica_ns = (self.replicas.len() as u64).saturating_mul(elapsed);
        if let FaultMode::Lockstep { gate } = &self.mode {
            // The deterministic state lives in the gate's core, not the
            // (empty) worker outcomes; its logs are pool-wide, so they ride
            // on replica 0's outcome. Replica-seconds are virtual.
            let core = gate.state.lock().expect("gate lock").core.finish();
            outcomes = core
                .metrics
                .into_iter()
                .map(|metrics| ReplicaOutcome {
                    metrics,
                    ..ReplicaOutcome::default()
                })
                .collect();
            outcomes[0].transitions = core.transitions;
            outcomes[0].dropped_transitions = core.dropped_transitions;
            outcomes[0].log = core
                .batches
                .into_iter()
                .map(|b| PoolBatchLog {
                    replica: b.replica,
                    mode: b.mode,
                    keys: b.request_ids,
                    queue_depth_after: b.queue_depth_after,
                })
                .collect();
            outcomes[0].dropped_batches = core.dropped_batches;
            outcomes[0].handoffs = core.handoffs;
            control_events = core.control_events;
            dropped_control_events = core.dropped_control_events;
            replica_ns = core.replica_ns;
        }
        let mut total = ServeMetrics::new();
        let mut per_replica = Vec::new();
        let mut transitions = Vec::new();
        let mut batch_log = Vec::new();
        let mut handoffs = Vec::new();
        let mut dropped_batches = 0u64;
        let mut dropped_transitions = 0u64;
        for (index, mut outcome) in outcomes.into_iter().enumerate() {
            outcome.metrics.rejected += self.router.rejected[index].load(Ordering::Relaxed);
            total.merge(&outcome.metrics);
            per_replica.push(outcome.metrics.snapshot(elapsed));
            transitions.extend(outcome.transitions);
            batch_log.extend(outcome.log);
            handoffs.extend(outcome.handoffs);
            dropped_batches += outcome.dropped_batches;
            dropped_transitions += outcome.dropped_transitions;
        }
        PoolSnapshot {
            total: total.snapshot(elapsed),
            per_replica,
            transitions,
            batch_log,
            handoffs,
            dropped_batches,
            dropped_transitions,
            control_events,
            dropped_control_events,
            replica_ns,
        }
    }
}

impl Drop for ReplicaPool {
    fn drop(&mut self) {
        for replica in &self.replicas {
            replica.queue.close();
        }
        for replica in &mut self.replicas {
            if let Some(worker) = replica.worker.take() {
                let _ = worker.join();
            }
        }
    }
}

/// The free-running worker loop on the wall clock, with the replica's
/// fault schedule applied for real (an empty schedule changes nothing).
/// `faults` is consumed on the replica-local 1-based batch clock: straggle
/// windows sleep out the extra service time the factor implies, stalls
/// sleep, a queue close half-closes admissions (queued work still drains),
/// and a crash kills the worker: it un-registers from the router *first*,
/// closes its queue, then drains and re-routes every orphan through the
/// shared [`pick_handoff_target`] rule — or sheds it (dropping the slot
/// cancels the request, so no client ever hangs on a dead replica).
#[allow(clippy::too_many_arguments)]
fn free_running_loop(
    index: usize,
    router: &RouterCore,
    sessions: &[Arc<Session>],
    config: &PoolConfig,
    ctx: &ExecContext,
    record_log: bool,
    faults: &ReplicaFaults,
    service: ServiceModel,
    recorder: Option<&TraceRecorder>,
) -> ReplicaOutcome {
    let queue = &router.queues[index];
    let mut out = ReplicaOutcome::default();
    let mut state = AdaptiveState::new(config.adaptive, index, sessions.len());
    let mut batch_index = 0u64;
    let max_batch = config.scheduler.batch.max_batch;
    let max_wait = Duration::from_nanos(config.scheduler.batch.max_wait_ns);
    while let Some(first) = queue.pop_blocking() {
        batch_index += 1;
        let deadline = first.submitted + max_wait;
        let batch = queue.collect_batch(first, max_batch, deadline);
        let depth_after = queue.len();
        let mode = state.mode();
        out.metrics.record_batch(batch.len(), depth_after);
        out.metrics.record_mode_batch(mode);
        if record_log {
            if out.log.len() < BATCH_LOG_CAP {
                out.log.push(PoolBatchLog {
                    replica: index,
                    mode,
                    keys: batch.iter().map(|r| r.key).collect(),
                    queue_depth_after: depth_after,
                });
            } else {
                out.dropped_batches += 1;
            }
        }
        // A straggler pads the batch with the *extra* time the factor
        // implies over the service model's size-aware nominal cost.
        let factor = faults.service_factor_x1024(batch_index);
        let straggle_ns = if factor > 1024 {
            (service.batch_ns(&sessions[mode], batch.iter().map(|r| r.key)) as u128
                * (factor - 1024) as u128
                / 1024)
                .min(u128::from(u64::MAX)) as u64
        } else {
            0
        };
        let trace = recorder.map(|rec| BatchTraceCtx {
            recorder: rec,
            replica: index,
            batch_index,
            mode,
        });
        execute_batch(
            &sessions[mode],
            ctx,
            batch,
            &mut out.metrics,
            trace.as_ref(),
        );
        if straggle_ns > 0 {
            std::thread::sleep(Duration::from_nanos(straggle_ns));
        }
        // Policy evaluation runs after the batch's latencies landed in the
        // histogram; a switch applies from the next batch on.
        let p95 = out.metrics.latency.quantile(0.95);
        if state.observe_batch(depth_after, p95).is_some() {
            out.metrics.record_transition();
        }
        let post = faults.after_batch(batch_index);
        if post.stall_ns > 0 {
            out.metrics.record_stall();
            std::thread::sleep(Duration::from_nanos(post.stall_ns));
        }
        if post.close_queue {
            queue.close_admissions();
        }
        if post.crashed {
            // Order matters: leave the routing set before closing, so no
            // submission races into a queue about to drain.
            router.alive[index].store(false, Ordering::Release);
            queue.close_admissions();
            out.metrics.record_crash();
            let mut cursor = (index + 1) % router.queues.len();
            for orphan in queue.drain_up_to(usize::MAX) {
                let states: Vec<(bool, usize)> = (0..router.queues.len())
                    .map(|i| (router.eligible(i), router.queues[i].len()))
                    .collect();
                let key = orphan.key;
                let target = pick_handoff_target(index, &mut cursor, &states, queue.capacity());
                // A target that raced to full or closed drops the orphan,
                // which cancels it.
                let to_replica = target.filter(|&t| router.queues[t].try_push(orphan).is_ok());
                if to_replica.is_some() {
                    out.metrics.record_handoff();
                } else {
                    out.metrics.record_handoff_shed();
                }
                out.handoffs.push(HandoffRecord {
                    from_replica: index,
                    at_batch: batch_index,
                    key,
                    to_replica,
                });
            }
            break;
        }
    }
    out.dropped_transitions = state.dropped_transitions();
    out.transitions = state.into_transitions();
    out
}

/// Executes one coalesced batch on the wall clock and completes every
/// member's response slot. With a [`BatchTraceCtx`] the batch leaves the
/// full span chain (submit, queue-wait, batch, per-layer kernels, service,
/// respond) on the recorder's clock.
fn execute_batch(
    session: &Session,
    ctx: &ExecContext,
    batch: Vec<PooledRequest>,
    metrics: &mut ServeMetrics,
    trace: Option<&BatchTraceCtx<'_>>,
) {
    let inputs: Vec<&Tensor<f32>> = batch.iter().map(|r| &r.input).collect();
    let exec_start = Instant::now();
    let result = match trace {
        Some(_) => session.infer_batch_traced(ctx, &inputs),
        None => session
            .infer_batch_refs(ctx, &inputs)
            .map(|out| (out, Vec::new())),
    };
    match result {
        Ok((responses, kernels)) => {
            let done = Instant::now();
            if let Some(t) = trace {
                let clock = t.recorder.clock();
                let start_ns = clock.instant_ns(exec_start);
                let done_ns = clock.instant_ns(done);
                let dur_ns = done_ns.saturating_sub(start_ns);
                t.recorder.record(
                    TraceEvent::new(TraceStage::Batch, t.replica, start_ns, dur_ns)
                        .batch(t.batch_index)
                        .mode(t.mode)
                        .batch_size(batch.len()),
                );
                let weights: Vec<u64> = kernels.iter().map(|k| k.stats.cycles).collect();
                for (kernel, (span_start, span_dur)) in kernels
                    .iter()
                    .zip(layer_intervals(start_ns, dur_ns, &weights))
                {
                    t.recorder.record(
                        TraceEvent::new(TraceStage::Kernel, t.replica, span_start, span_dur)
                            .batch(t.batch_index)
                            .mode(t.mode)
                            .layer(kernel.layer)
                            .stats(kernel.stats),
                    );
                }
                for request in &batch {
                    let submit_ns = clock.instant_ns(request.submitted);
                    t.recorder.record(
                        TraceEvent::new(TraceStage::Submit, t.replica, submit_ns, 0)
                            .request(request.key),
                    );
                    t.recorder.record(
                        TraceEvent::new(
                            TraceStage::QueueWait,
                            t.replica,
                            submit_ns,
                            start_ns.saturating_sub(submit_ns),
                        )
                        .request(request.key)
                        .batch(t.batch_index),
                    );
                    t.recorder.record(
                        TraceEvent::new(TraceStage::Service, t.replica, start_ns, dur_ns)
                            .request(request.key)
                            .batch(t.batch_index)
                            .mode(t.mode),
                    );
                    t.recorder.record(
                        TraceEvent::new(TraceStage::Respond, t.replica, done_ns, 0)
                            .request(request.key)
                            .batch(t.batch_index),
                    );
                }
            }
            let nanos = |d: Duration| d.as_nanos().min(u128::from(u64::MAX)) as u64;
            for (request, response) in batch.into_iter().zip(responses) {
                metrics.record_stage_split(
                    nanos(exec_start.saturating_duration_since(request.submitted)),
                    nanos(done.saturating_duration_since(exec_start)),
                );
                metrics.record_latency(nanos(done.saturating_duration_since(request.submitted)));
                request.slot.complete(Ok(response));
            }
        }
        Err(e) => {
            // A malformed request poisons only its own batch; every member
            // learns the error and the replica keeps serving.
            for request in batch {
                request.slot.complete(Err(e.clone()));
            }
        }
    }
}

/// A virtual-time submission waiting to be routed by the lockstep gate —
/// the threaded counterpart of the simulator's pending-arrival queue.
struct PendingSubmission {
    at_ns: u64,
    req: PooledRequest,
}

/// All deterministic pool state in lockstep mode, owned by one mutex so a
/// launch grant commits atomically in virtual-time order.
struct GateState {
    /// The simulator's pool core, holding every queued request.
    core: PoolCore<PooledRequest>,
    /// Timed arrivals from [`ReplicaPool::submit_virtual`], ascending by
    /// `at_ns`; admitted at their virtual arrival instant (before any
    /// launch at or after it, exactly the simulator's event interleaving).
    pending: VecDeque<PendingSubmission>,
    recorder: Option<Arc<TraceRecorder>>,
}

/// The virtual-clock coordinator of [`ReplicaPool::start_lockstep`]. A
/// worker asks the gate for its next batch; the gate blocks it until its
/// replica owns the *earliest* launchable batch pool-wide, commits the
/// batch in the shared [`PoolCore`] under the lock, and releases the worker
/// to run the GEMM outside it — so determinism costs no parallelism.
struct LockstepGate {
    state: Mutex<GateState>,
    cv: Condvar,
}

impl LockstepGate {
    /// Blocks until replica `r` owns the earliest launch (ties break to the
    /// lowest replica index, as in the simulator), commits it, and returns
    /// the granted batch — or `None` when `r` has crashed or the pool has
    /// fully drained.
    fn acquire(&self, r: usize, sessions: &[Arc<Session>]) -> Option<Launched<PooledRequest, ()>> {
        let mut guard = self.state.lock().expect("gate lock");
        loop {
            let state = &mut *guard;
            if state.core.is_crashed(r) {
                return None;
            }
            if state.core.is_idle() && state.pending.is_empty() {
                // Fully drained: release every parked worker so the pool
                // shuts down instead of deadlocking on the last notify.
                self.cv.notify_all();
                return None;
            }
            let next = state.core.next_launch();
            if let Some(front_ns) = state.pending.front().map(|p| p.at_ns) {
                if next.is_none_or(|(launch, _)| front_ns <= launch) {
                    let sub = state.pending.pop_front().expect("front checked");
                    // A shed request's slot drops inside the core, which
                    // cancels the client's handle.
                    let key = sub.req.key;
                    state
                        .core
                        .admit(sub.at_ns, key, key, sub.req, state.recorder.as_deref());
                    // Admission may have changed which replica owns the
                    // earliest launch: wake everyone to recompute.
                    self.cv.notify_all();
                    continue;
                }
            }
            match next {
                Some((launch, winner)) if winner == r => {
                    // Kernel spans are recorded by the worker, outside the
                    // lock, so the core gets no kernels here.
                    let granted = state
                        .core
                        .launch(r, launch, sessions, state.recorder.as_deref(), |_, _| {
                            Ok(((), Vec::new()))
                        })
                        .expect("a no-op execution cannot fail");
                    self.cv.notify_all();
                    return Some(granted);
                }
                // Another replica owns the earliest launch (or only crashed
                // replicas hold work, which a crash's drain rules out).
                _ => guard = self.cv.wait(guard).expect("gate lock"),
            }
        }
    }
}

/// The lockstep worker loop: every scheduling decision already committed in
/// the gate; the worker only executes the granted GEMM and completes the
/// response slots. Logits are computed for real, so they are comparable to
/// the simulator's bit for bit.
fn lockstep_loop(
    index: usize,
    gate: &LockstepGate,
    sessions: &[Arc<Session>],
    ctx: &ExecContext,
    recorder: Option<&TraceRecorder>,
) -> ReplicaOutcome {
    while let Some(grant) = gate.acquire(index, sessions) {
        let session = &sessions[grant.mode];
        let inputs: Vec<&Tensor<f32>> = grant.batch.iter().map(|q| &q.payload.input).collect();
        let result = match recorder {
            Some(_) => session.infer_batch_traced(ctx, &inputs),
            None => session
                .infer_batch_refs(ctx, &inputs)
                .map(|out| (out, Vec::new())),
        };
        match result {
            Ok((responses, kernels)) => {
                if let Some(rec) = recorder {
                    // Insertion order races across workers here, but the
                    // snapshot's canonical sort restores the simulator's
                    // exact order.
                    let weights: Vec<u64> = kernels.iter().map(|k| k.stats.cycles).collect();
                    for (kernel, (start, dur)) in kernels.iter().zip(layer_intervals(
                        grant.launch_ns,
                        grant.service_ns,
                        &weights,
                    )) {
                        rec.record(
                            TraceEvent::new(TraceStage::Kernel, index, start, dur)
                                .batch(grant.batch_index)
                                .mode(grant.mode)
                                .layer(kernel.layer)
                                .stats(kernel.stats),
                        );
                    }
                }
                for (q, response) in grant.batch.into_iter().zip(responses) {
                    q.payload.slot.complete(Ok(response));
                }
            }
            Err(e) => {
                for q in grant.batch {
                    q.payload.slot.complete(Err(e.clone()));
                }
            }
        }
    }
    ReplicaOutcome::default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AdaptivePolicy, BatchPolicy, SchedulerConfig, SmtConfig};
    use crate::registry::ModelRegistry;
    use nbsmt_workloads::synthnet::quick_synthnet;

    fn ladder_fixture() -> (Vec<Arc<Session>>, Vec<Tensor<f32>>) {
        let trained = quick_synthnet(29).expect("training succeeds");
        let mut registry = ModelRegistry::new();
        registry
            .register_synthnet("synthnet", &trained, 600)
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
        let (inputs, _) = trained.sample_requests(24, 601);
        (ladder, inputs)
    }

    fn pool_config(replicas: usize, route: RoutePolicy) -> PoolConfig {
        PoolConfig {
            replicas,
            route,
            scheduler: SchedulerConfig {
                batch: BatchPolicy {
                    max_batch: 4,
                    max_wait_ns: 500_000,
                },
                queue_capacity: 64,
            },
            adaptive: AdaptivePolicy::default(),
        }
    }

    #[test]
    fn pool_serves_across_replicas_end_to_end() {
        let (ladder, inputs) = ladder_fixture();
        let pool = ReplicaPool::start(
            ladder,
            pool_config(2, RoutePolicy::RoundRobin),
            ExecConfig::default(),
        )
        .unwrap();
        assert_eq!(pool.replicas(), 2);
        let client = pool.client();
        let handles: Vec<_> = inputs
            .iter()
            .enumerate()
            .map(|(i, input)| client.submit(i as u64, input.clone()).expect("room"))
            .collect();
        for handle in handles {
            let inference = handle.wait().expect("not cancelled").expect("no error");
            assert!(!inference.logits.is_empty());
        }
        let snapshot = pool.shutdown();
        assert_eq!(snapshot.total.completed, inputs.len() as u64);
        assert_eq!(snapshot.per_replica.len(), 2);
        let per_replica_total: u64 = snapshot.per_replica.iter().map(|m| m.completed).sum();
        assert_eq!(per_replica_total, snapshot.total.completed);
        // Round-robin splits 24 single-threaded submissions 12/12.
        assert!(snapshot.per_replica.iter().all(|m| m.completed == 12));
    }

    #[test]
    fn paused_pool_replays_batches_deterministically() {
        let (ladder, inputs) = ladder_fixture();
        let run = || {
            let mut pool = ReplicaPool::start_paused(
                ladder.clone(),
                pool_config(2, RoutePolicy::Hashed),
                ExecConfig::default(),
                true,
            )
            .unwrap();
            let client = pool.client();
            let handles: Vec<_> = inputs
                .iter()
                .enumerate()
                .map(|(i, input)| client.submit(i as u64, input.clone()).expect("room"))
                .collect();
            pool.resume();
            for handle in handles {
                let _ = handle.wait().expect("completes");
            }
            pool.shutdown()
        };
        let a = run();
        let b = run();
        let key = |s: &PoolSnapshot| {
            (
                s.batch_log.clone(),
                s.transitions.clone(),
                s.total.completed,
                s.total.batches_per_mode.clone(),
            )
        };
        assert_eq!(key(&a), key(&b));
        assert!(!a.batch_log.is_empty());
        // Every batch ran at 4 or fewer requests and modes stay on-ladder.
        for batch in &a.batch_log {
            assert!(batch.keys.len() <= 4);
            assert!(batch.mode < 3);
        }
    }

    #[test]
    fn least_outstanding_balances_and_full_queue_sheds() {
        let (ladder, inputs) = ladder_fixture();
        let config = PoolConfig {
            scheduler: SchedulerConfig {
                batch: BatchPolicy {
                    max_batch: 2,
                    max_wait_ns: 0,
                },
                queue_capacity: 2,
            },
            ..pool_config(2, RoutePolicy::LeastOutstanding)
        };
        let mut pool =
            ReplicaPool::start_paused(ladder, config, ExecConfig::default(), false).unwrap();
        let client = pool.client();
        let mut accepted = Vec::new();
        let mut rejected = 0u64;
        // Paused pool: 2 replicas × capacity 2 admit exactly 4; the rest
        // shed with the typed error.
        for (i, input) in inputs.iter().enumerate() {
            match client.submit(i as u64, input.clone()) {
                Ok(h) => accepted.push(h),
                Err(SubmitError::QueueFull { capacity }) => {
                    assert_eq!(capacity, 2);
                    rejected += 1;
                }
                Err(SubmitError::Closed) => unreachable!("pool is open"),
            }
        }
        assert_eq!(accepted.len(), 4);
        assert_eq!(pool.queue_depths(), vec![2, 2], "LO must balance exactly");
        pool.resume();
        for handle in accepted {
            let _ = handle.wait().expect("accepted requests complete");
        }
        let snapshot = pool.shutdown();
        assert_eq!(snapshot.total.completed, 4);
        assert_eq!(snapshot.total.rejected, rejected);
    }

    #[test]
    fn adaptive_pool_escalates_under_burst() {
        let (ladder, inputs) = ladder_fixture();
        let config = PoolConfig {
            replicas: 1,
            route: RoutePolicy::RoundRobin,
            scheduler: SchedulerConfig {
                batch: BatchPolicy {
                    max_batch: 2,
                    max_wait_ns: 0,
                },
                queue_capacity: 64,
            },
            adaptive: AdaptivePolicy {
                depth_high: 4,
                depth_low: 0,
                p95_high_ns: 0,
                eval_every_batches: 1,
            },
        };
        let mut pool =
            ReplicaPool::start_paused(ladder, config, ExecConfig::default(), true).unwrap();
        let client = pool.client();
        let handles: Vec<_> = inputs
            .iter()
            .enumerate()
            .map(|(i, input)| client.submit(i as u64, input.clone()).expect("room"))
            .collect();
        pool.resume();
        for handle in handles {
            let _ = handle.wait().expect("completes");
        }
        let snapshot = pool.shutdown();
        // 24 queued requests drain in 12 batches of 2; depth stays ≥ 4 for
        // the early batches, so the ladder must have been climbed.
        assert!(
            snapshot.total.mode_transitions > 0,
            "burst must trigger escalation"
        );
        assert!(snapshot.transitions[0].to > snapshot.transitions[0].from);
        assert!(
            snapshot.total.batches_per_mode.len() > 1,
            "batches must have run at more than one rung: {:?}",
            snapshot.total.batches_per_mode
        );
    }

    #[test]
    fn empty_ladder_is_rejected() {
        assert!(matches!(
            ReplicaPool::start(Vec::new(), PoolConfig::default(), ExecConfig::default()),
            Err(ServeError::BadRequest(_))
        ));
    }

    #[test]
    fn free_running_pool_traces_complete_wall_clock_chains() {
        let (ladder, inputs) = ladder_fixture();
        let mut pool = ReplicaPool::start_paused(
            ladder,
            pool_config(2, RoutePolicy::RoundRobin),
            ExecConfig::default(),
            false,
        )
        .unwrap();
        let recorder = Arc::new(TraceRecorder::wall_clock());
        pool.set_recorder(Arc::clone(&recorder));
        pool.resume();
        let client = pool.client();
        let handles: Vec<_> = inputs
            .iter()
            .enumerate()
            .map(|(i, input)| (i as u64, client.submit(i as u64, input.clone()).unwrap()))
            .collect();
        let mut answered = Vec::new();
        for (key, handle) in handles {
            handle.wait().expect("not cancelled").expect("no error");
            answered.push(key);
        }
        let _ = pool.shutdown();
        let snapshot = recorder.snapshot();
        assert!(!recorder.clock().is_virtual());
        assert_eq!(snapshot.dropped, 0, "the ring holds the whole run");

        let one = |stage: TraceStage, key: u64| {
            let found: Vec<&TraceEvent> = snapshot
                .events
                .iter()
                .filter(|e| e.stage == stage && e.request == Some(key))
                .collect();
            assert_eq!(found.len(), 1, "request {key}: one {stage:?} span");
            found[0]
        };
        for key in answered {
            let submit = one(TraceStage::Submit, key);
            let wait = one(TraceStage::QueueWait, key);
            let service = one(TraceStage::Service, key);
            let respond = one(TraceStage::Respond, key);
            let (replica, batch) = (wait.replica, wait.batch.expect("batch-scoped"));
            for e in [submit, service, respond] {
                assert_eq!(e.replica, replica, "request {key}: one replica");
            }
            assert_eq!((service.batch, respond.batch), (Some(batch), Some(batch)));
            let batch_span = snapshot
                .events
                .iter()
                .find(|e| {
                    e.stage == TraceStage::Batch && e.replica == replica && e.batch == Some(batch)
                })
                .expect("the request's batch has a span");
            let kernels: Vec<&TraceEvent> = snapshot
                .events
                .iter()
                .filter(|e| {
                    e.stage == TraceStage::Kernel && e.replica == replica && e.batch == Some(batch)
                })
                .collect();
            assert!(!kernels.is_empty(), "request {key}: kernel spans");
            let batch_end = batch_span.start_ns + batch_span.dur_ns;
            for k in kernels {
                assert!(k.stats.is_some(), "kernel spans carry PE stats");
                assert!(batch_span.start_ns <= k.start_ns && k.start_ns + k.dur_ns <= batch_end);
            }
            // submit → queue-wait → service (= the batch) → respond.
            assert_eq!(submit.start_ns, wait.start_ns);
            assert_eq!(wait.start_ns + wait.dur_ns, batch_span.start_ns);
            assert_eq!(
                (service.start_ns, service.dur_ns),
                (batch_span.start_ns, batch_span.dur_ns)
            );
            assert_eq!(respond.start_ns, batch_end);
        }
    }
}
