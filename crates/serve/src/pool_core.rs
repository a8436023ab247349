//! The virtual-clock pool state machine both deterministic drivers share.
//!
//! [`PoolCore`] owns every scheduling rule of a replica pool on the virtual
//! clock: per-replica queues and free times, routing through
//! [`pick_replica`], `max_batch`/`max_wait` launch selection, the adaptive
//! ladder, the [`ServiceModel`] cost of each batch, injected faults, crash
//! and scale-down handoffs through [`pick_handoff_target`], the optional
//! [`PoolController`], metrics, the batch log, and trace emission. It does
//! no I/O and owns no clock: a driver feeds it arrivals ([`PoolCore::admit`])
//! and launch grants ([`PoolCore::launch`] at [`PoolCore::next_launch`]) in
//! event order and keeps only its own arrival source and output execution.
//!
//! Two drivers exist: the discrete-event simulator ([`crate::sim`]), which
//! runs the loop on one thread and computes outputs inline, and the
//! threaded lockstep pool ([`crate::pool::ReplicaPool::start_lockstep`]),
//! which holds the core under one lock and runs each granted batch's GEMMs
//! on its replica's worker. Because both call the same code, their
//! schedules, metrics, and traces agree by construction.

use std::borrow::Borrow;
use std::collections::VecDeque;

use crate::config::{
    AdaptiveState, ModeTransition, PoolConfig, RoutePolicy, ServeError, BATCH_LOG_CAP,
};
use crate::control::{ControlConfig, ControlEvent, ControlEventKind, PoolController};
use crate::faults::{pick_handoff_target, pick_replica, FaultPlan, HandoffRecord, ReplicaFaults};
use crate::metrics::ServeMetrics;
use crate::session::Session;
use crate::sim::{PoolBatchRecord, ServiceModel};
use crate::trace::{layer_intervals, LayerKernel, TraceEvent, TraceRecorder, TraceStage};

/// One queued request. `id` is the identity traces and the batch log report
/// (the simulator's request id; the lockstep pool's submission key), `key`
/// the router/affinity and [`crate::traffic::SizeModel`] input.
pub(crate) struct Queued<T> {
    pub id: u64,
    pub key: u64,
    /// Virtual arrival time [ns] — every latency is anchored here.
    pub arrival_ns: u64,
    /// Earliest virtual launch time [ns]: the arrival for a fresh request,
    /// later for one handed off or stolen onto another replica.
    pub ready_ns: u64,
    pub payload: T,
}

/// A batch [`PoolCore::launch`] committed, handed back to the driver.
pub(crate) struct Launched<T, O> {
    pub batch: Vec<Queued<T>>,
    /// Ladder rung the batch executes at.
    pub mode: usize,
    /// The replica-local 1-based batch index.
    pub batch_index: u64,
    pub launch_ns: u64,
    pub service_ns: u64,
    /// What the driver's `execute` callback produced.
    pub output: O,
}

/// Everything a finished run leaves behind; metrics stay raw so each driver
/// snapshots them over its own window.
pub(crate) struct CoreOutcome {
    pub metrics: Vec<ServeMetrics>,
    /// Grouped by replica in replica order.
    pub transitions: Vec<ModeTransition>,
    pub dropped_transitions: u64,
    /// In launch order, capped at [`BATCH_LOG_CAP`].
    pub batches: Vec<PoolBatchRecord>,
    pub dropped_batches: u64,
    pub handoffs: Vec<HandoffRecord>,
    pub control_events: Vec<ControlEvent>,
    pub dropped_control_events: u64,
    pub replica_ns: u64,
    pub makespan_ns: u64,
}

struct ReplicaState<T> {
    queue: VecDeque<Queued<T>>,
    t_free: u64,
    adaptive: AdaptiveState,
    metrics: ServeMetrics,
    faults: ReplicaFaults,
    /// Launched batches so far (the fault plan's 1-based batch clock).
    batches: u64,
    crashed: bool,
    /// Admissions closed by a queue-close fault (a crash closes them too).
    closed: bool,
}

/// The shared virtual-clock pool; see the module docs.
pub(crate) struct PoolCore<T> {
    replicas: Vec<ReplicaState<T>>,
    route: RoutePolicy,
    max_batch: usize,
    max_wait_ns: u64,
    capacity: usize,
    service: ServiceModel,
    controller: Option<PoolController>,
    /// Round-robin tick: advances once per routed arrival.
    rr: u64,
    handoffs: Vec<HandoffRecord>,
    log_batches: bool,
    batch_log: Vec<PoolBatchRecord>,
    dropped_batches: u64,
    /// Reused `(replica, queue length)` buffer for routing and stealing.
    scratch: Vec<(usize, usize)>,
}

impl<T> PoolCore<T> {
    /// A core for `pool` over the `sessions` ladder with a per-queue bound
    /// of `capacity`. The controller's utilization forecast is denominated
    /// in the same per-rung request cost the virtual clock runs on.
    /// `log_batches` enables the (capped) batch log.
    ///
    /// # Errors
    ///
    /// Propagates [`ControlConfig`] validation errors.
    pub fn new<S: Borrow<Session>>(
        sessions: &[S],
        pool: &PoolConfig,
        capacity: usize,
        service: ServiceModel,
        control: Option<ControlConfig>,
        faults: Option<&FaultPlan>,
        log_batches: bool,
    ) -> Result<Self, ServeError> {
        let controller = control
            .map(|cfg| {
                let rung_work_ns = sessions
                    .iter()
                    .map(|s| service.single_ns(s.borrow()))
                    .collect();
                PoolController::new(cfg, rung_work_ns, pool.replicas)
            })
            .transpose()?;
        let replicas = (0..pool.replicas)
            .map(|r| ReplicaState {
                queue: VecDeque::new(),
                t_free: 0,
                adaptive: AdaptiveState::new(pool.adaptive, r, sessions.len()),
                metrics: ServeMetrics::new(),
                faults: faults.map(|p| p.for_replica(r)).unwrap_or_default(),
                batches: 0,
                crashed: false,
                closed: false,
            })
            .collect();
        Ok(PoolCore {
            replicas,
            route: pool.route,
            max_batch: pool.scheduler.batch.max_batch,
            max_wait_ns: pool.scheduler.batch.max_wait_ns,
            capacity,
            service,
            controller,
            rr: 0,
            handoffs: Vec::new(),
            log_batches,
            batch_log: Vec::new(),
            dropped_batches: 0,
            scratch: Vec::new(),
        })
    }

    /// Replicas the controller keeps live (all of them without one).
    fn live(&self) -> usize {
        self.controller
            .as_ref()
            .map_or(self.replicas.len(), PoolController::live)
    }

    /// Whether replica `r` has crashed.
    pub fn is_crashed(&self, r: usize) -> bool {
        self.replicas[r].crashed
    }

    /// Whether every queue is empty.
    pub fn is_idle(&self) -> bool {
        self.replicas.iter().all(|rep| rep.queue.is_empty())
    }

    /// The earliest launch any live replica could perform from its current
    /// queue, as `(virtual time, replica)`: a full batch launches once the
    /// replica is free and its `max_batch`-th request is ready; a partial
    /// batch waits out the oldest request's budget. Ties go to the lowest
    /// replica index.
    pub fn next_launch(&self) -> Option<(u64, usize)> {
        let mut best: Option<(u64, usize)> = None;
        for (r, rep) in self.replicas.iter().enumerate() {
            if rep.crashed {
                continue;
            }
            let Some(oldest) = rep.queue.front() else {
                continue;
            };
            let launch = if rep.queue.len() >= self.max_batch {
                rep.t_free.max(rep.queue[self.max_batch - 1].ready_ns)
            } else {
                rep.t_free
                    .max(oldest.ready_ns.saturating_add(self.max_wait_ns))
            };
            if best.is_none_or(|(b, _)| launch < b) {
                best = Some((launch, r));
            }
        }
        best
    }

    /// Admits one arrival at virtual `at_ns`. The controller observes it
    /// first (its decisions apply to this very arrival's eligible set),
    /// then the router picks among the live, uncrashed, admitting replicas.
    /// Returns `false` when the request was shed — its payload is dropped
    /// and the rejection counted on the picked replica (replica 0 when none
    /// is eligible).
    pub fn admit(
        &mut self,
        at_ns: u64,
        id: u64,
        key: u64,
        payload: T,
        rec: Option<&TraceRecorder>,
    ) -> bool {
        if let Some(events) = self.controller.as_mut().map(|c| c.on_arrival(at_ns)) {
            for event in events {
                self.apply_control(event, rec);
            }
        }
        let live = self.live();
        self.scratch.clear();
        self.scratch.extend(
            self.replicas
                .iter()
                .enumerate()
                .filter(|(i, rep)| *i < live && !rep.crashed && !rep.closed)
                .map(|(i, rep)| (i, rep.queue.len())),
        );
        let tick = self.rr;
        if self.route == RoutePolicy::RoundRobin {
            self.rr += 1;
        }
        match pick_replica(self.route, key, tick, &self.scratch) {
            Some(target) if self.replicas[target].queue.len() < self.capacity => {
                self.enqueue(target, at_ns, id, key, payload, rec);
                true
            }
            Some(target) => {
                self.replicas[target].metrics.record_rejected();
                false
            }
            None => {
                self.replicas[0].metrics.record_rejected();
                false
            }
        }
    }

    /// Queues a request on replica `r` at virtual `at_ns`, bypassing the
    /// router and the bound (a burst the threaded router already placed).
    pub fn enqueue(
        &mut self,
        r: usize,
        at_ns: u64,
        id: u64,
        key: u64,
        payload: T,
        rec: Option<&TraceRecorder>,
    ) {
        if let Some(rec) = rec {
            rec.record(TraceEvent::new(TraceStage::Submit, r, at_ns, 0).request(id));
        }
        self.replicas[r].queue.push_back(Queued {
            id,
            key,
            arrival_ns: at_ns,
            ready_ns: at_ns,
            payload,
        });
    }

    /// Launches replica `r`'s next batch at virtual `launch_ns` (the time
    /// [`Self::next_launch`] reported). `execute` runs on the drained batch
    /// at its rung before anything is recorded; its kernels become the
    /// batch's kernel spans, and an error aborts the launch. Then, in
    /// order: metrics with virtual latencies; the batch, kernel, and
    /// per-request trace spans; the batch log; adaptive evaluation;
    /// post-batch faults (stall, queue close, crash handoff); the
    /// controller's steal pass.
    ///
    /// # Errors
    ///
    /// Whatever `execute` returns.
    pub fn launch<S, O, E>(
        &mut self,
        r: usize,
        launch_ns: u64,
        sessions: &[S],
        rec: Option<&TraceRecorder>,
        execute: E,
    ) -> Result<Launched<T, O>, ServeError>
    where
        S: Borrow<Session>,
        E: FnOnce(&[Queued<T>], usize) -> Result<(O, Vec<LayerKernel>), ServeError>,
    {
        let rep = &mut self.replicas[r];
        let batch_index = rep.batches + 1;
        let take = rep.queue.len().min(self.max_batch);
        let batch: Vec<Queued<T>> = rep.queue.drain(..take).collect();
        // The predictive floor raises the reactive rung; the reactive state
        // machine itself keeps observing unmodified, staying the fallback.
        let reactive_mode = rep.adaptive.mode();
        let mode = self
            .controller
            .as_ref()
            .map_or(reactive_mode, |c| c.effective_mode(reactive_mode));
        let (output, kernels) = execute(&batch, mode)?;

        // An active straggle window scales the size-aware service time.
        let rep = &mut self.replicas[r];
        let factor = rep.faults.service_factor_x1024(batch_index);
        let base_ns = self
            .service
            .batch_ns(sessions[mode].borrow(), batch.iter().map(|q| q.key));
        let service_ns = (base_ns as u128 * factor as u128 / 1024).min(u128::from(u64::MAX)) as u64;
        let finish = launch_ns.saturating_add(service_ns);
        let depth_after = rep.queue.len();
        rep.metrics.record_batch(batch.len(), depth_after);
        rep.metrics.record_mode_batch(mode);
        for q in &batch {
            rep.metrics
                .record_stage_split(launch_ns.saturating_sub(q.arrival_ns), service_ns);
            rep.metrics
                .record_latency(finish.saturating_sub(q.arrival_ns));
        }
        if let Some(rec) = rec {
            // Insertion order matters once the ring is full: batch, then
            // kernels, then each request's spans.
            rec.record(
                TraceEvent::new(TraceStage::Batch, r, launch_ns, service_ns)
                    .batch(batch_index)
                    .mode(mode)
                    .batch_size(batch.len()),
            );
            let weights: Vec<u64> = kernels.iter().map(|k| k.stats.cycles).collect();
            for (kernel, (start, dur)) in kernels
                .iter()
                .zip(layer_intervals(launch_ns, service_ns, &weights))
            {
                rec.record(
                    TraceEvent::new(TraceStage::Kernel, r, start, dur)
                        .batch(batch_index)
                        .mode(mode)
                        .layer(kernel.layer)
                        .stats(kernel.stats),
                );
            }
            for q in &batch {
                rec.record(
                    TraceEvent::new(
                        TraceStage::QueueWait,
                        r,
                        q.arrival_ns,
                        launch_ns.saturating_sub(q.arrival_ns),
                    )
                    .request(q.id)
                    .batch(batch_index),
                );
                rec.record(
                    TraceEvent::new(TraceStage::Service, r, launch_ns, service_ns)
                        .request(q.id)
                        .batch(batch_index)
                        .mode(mode),
                );
                rec.record(
                    TraceEvent::new(TraceStage::Respond, r, finish, 0)
                        .request(q.id)
                        .batch(batch_index),
                );
            }
        }
        if self.log_batches {
            if self.batch_log.len() < BATCH_LOG_CAP {
                self.batch_log.push(PoolBatchRecord {
                    replica: r,
                    mode,
                    launch_ns,
                    finish_ns: finish,
                    request_ids: batch.iter().map(|q| q.id).collect(),
                    queue_depth_after: depth_after,
                });
            } else {
                self.dropped_batches += 1;
            }
        }
        rep.t_free = finish;

        // Adaptive evaluation after the batch's latencies landed — the
        // switch, if any, applies from the replica's next batch on.
        let p95 = rep.metrics.latency.quantile(0.95);
        if rep.adaptive.observe_batch(depth_after, p95).is_some() {
            rep.metrics.record_transition();
        }

        // Post-batch fault effects, strictly after the adaptive evaluation.
        rep.batches = batch_index;
        let post = rep.faults.after_batch(batch_index);
        if post.stall_ns > 0 {
            rep.t_free = rep.t_free.saturating_add(post.stall_ns);
            rep.metrics.record_stall();
        }
        if post.close_queue {
            rep.closed = true;
        }
        if post.crashed {
            rep.crashed = true;
            rep.closed = true;
            rep.metrics.record_crash();
            // Orphans cannot launch on a survivor before the crash instant.
            let crash_ns = rep.t_free;
            self.hand_off(r, batch_index, |_| crash_ns);
        }

        // Steal pass, strictly after the fault effects: up to `max_steal`
        // not-yet-batched requests move from the deepest to the shallowest
        // live queue.
        if let Some(ctrl) = self.controller.as_mut() {
            self.scratch.clear();
            self.scratch.extend(
                self.replicas
                    .iter()
                    .enumerate()
                    .take(ctrl.live())
                    .filter(|(_, rep)| !rep.crashed && !rep.closed)
                    .map(|(i, rep)| (i, rep.queue.len())),
            );
            if let Some(event) = ctrl.steal_check(launch_ns, &self.scratch, self.capacity) {
                if let ControlEventKind::Steal { from, to, moved } = event.kind {
                    let split = self.replicas[from].queue.len() - moved;
                    let stolen = self.replicas[from].queue.split_off(split);
                    // A stolen request cannot launch on the thief before
                    // the steal instant.
                    self.replicas[to]
                        .queue
                        .extend(stolen.into_iter().map(|q| Queued {
                            ready_ns: q.ready_ns.max(event.at_ns),
                            ..q
                        }));
                    self.replicas[0].metrics.record_steal(moved);
                    if let Some(rec) = rec {
                        rec.record(TraceEvent::new(TraceStage::Control, 0, event.at_ns, 0));
                    }
                }
            }
        }
        Ok(Launched {
            batch,
            mode,
            batch_index,
            launch_ns,
            service_ns,
            output,
        })
    }

    /// Applies one arrival-time controller decision: an instant `Control`
    /// span, the pool-level counter on replica 0, and for a scale-down the
    /// deactivated replica's queue drained through the handoff rule, each
    /// orphan ready no earlier than the decision instant. (Steals are only
    /// emitted by the post-launch steal pass.)
    fn apply_control(&mut self, event: ControlEvent, rec: Option<&TraceRecorder>) {
        if let Some(rec) = rec {
            rec.record(TraceEvent::new(TraceStage::Control, 0, event.at_ns, 0));
        }
        let counters = &mut self.replicas[0].metrics;
        match event.kind {
            ControlEventKind::PredictiveShift { .. } => counters.record_predictive_shift(),
            ControlEventKind::ScaleUp { .. } => counters.record_scale_up(),
            ControlEventKind::ScaleDown { to: deact, .. } => {
                counters.record_scale_down();
                let at_batch = self.replicas[deact].batches;
                self.hand_off(deact, at_batch, |ready| ready.max(event.at_ns));
            }
            ControlEventKind::Steal { .. } => {}
        }
    }

    /// Drains replica `from`'s queue through [`pick_handoff_target`]: each
    /// orphan re-enqueues on the next eligible live replica with room, its
    /// ready time re-stamped by `ready` (latency stays anchored at arrival),
    /// or is shed — dropping its payload — when none qualifies.
    fn hand_off(&mut self, from: usize, at_batch: u64, ready: impl Fn(u64) -> u64) {
        let orphans: Vec<Queued<T>> = self.replicas[from].queue.drain(..).collect();
        let live = self.live();
        let mut states: Vec<(bool, usize)> = self
            .replicas
            .iter()
            .enumerate()
            .map(|(i, rep)| (i < live && !rep.crashed && !rep.closed, rep.queue.len()))
            .collect();
        let mut cursor = (from + 1) % self.replicas.len();
        for orphan in orphans {
            let target = pick_handoff_target(from, &mut cursor, &states, self.capacity);
            self.handoffs.push(HandoffRecord {
                from_replica: from,
                at_batch,
                key: orphan.key,
                to_replica: target,
            });
            match target {
                Some(t) => {
                    states[t].1 += 1;
                    self.replicas[t].queue.push_back(Queued {
                        ready_ns: ready(orphan.ready_ns),
                        ..orphan
                    });
                    self.replicas[from].metrics.record_handoff();
                }
                None => self.replicas[from].metrics.record_handoff_shed(),
            }
        }
    }

    /// Closes the run: the makespan is the latest replica free time, and
    /// replica-nanoseconds integrate over it (`replicas × makespan`, or the
    /// controller's scale-event log). Leaves the core empty.
    pub fn finish(&mut self) -> CoreOutcome {
        let makespan_ns = self.replicas.iter().map(|r| r.t_free).max().unwrap_or(0);
        let (control_events, dropped_control_events, replica_ns) = match self.controller.take() {
            Some(mut ctrl) => {
                let replica_ns = ctrl.finalize_replica_ns(makespan_ns);
                let (events, dropped) = ctrl.into_events();
                (events, dropped, replica_ns)
            }
            None => (
                Vec::new(),
                0,
                (self.replicas.len() as u64).saturating_mul(makespan_ns),
            ),
        };
        let mut metrics = Vec::with_capacity(self.replicas.len());
        let mut transitions = Vec::new();
        let mut dropped_transitions = 0u64;
        for rep in self.replicas.drain(..) {
            metrics.push(rep.metrics);
            dropped_transitions += rep.adaptive.dropped_transitions();
            transitions.extend(rep.adaptive.into_transitions());
        }
        CoreOutcome {
            metrics,
            transitions,
            dropped_transitions,
            batches: std::mem::take(&mut self.batch_log),
            dropped_batches: self.dropped_batches,
            handoffs: std::mem::take(&mut self.handoffs),
            control_events,
            dropped_control_events,
            replica_ns,
            makespan_ns,
        }
    }
}
