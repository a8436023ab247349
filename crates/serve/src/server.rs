//! The long-lived threaded server for one session: a thin wrapper over a
//! 1-replica [`ReplicaPool`] pinned to its session, on the real clock.
//!
//! The replica's worker blocks for the first queued request, keeps the
//! batch open until `max_batch` requests arrived or the first request has
//! waited `max_wait_ns`, executes the coalesced batch on the session, and
//! completes every request's [`ResponseHandle`]. Admission control is the
//! bounded queue itself — `submit` never blocks and returns a typed
//! [`SubmitError`] under overload.
//!
//! For deterministic, replayable scheduling (tests, the `repro serve`
//! sweep), use the virtual-clock simulator in [`crate::sim`] instead: it
//! runs the same policy arithmetic without real-time jitter.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use nbsmt_tensor::exec::ExecContext;
use nbsmt_tensor::tensor::Tensor;

use crate::config::{
    AdaptivePolicy, PoolConfig, RoutePolicy, SchedulerConfig, ServeError, SubmitError,
};
use crate::faults::FaultPlan;
use crate::metrics::MetricsSnapshot;
use crate::pool::{PoolClient, ReplicaPool};
use crate::queue::ResponseHandle;
use crate::session::{Inference, Session};
use crate::sim::ServiceModel;

/// Result delivered to each request's [`ResponseHandle`].
pub type RequestResult = Result<Inference, ServeError>;

/// A running serving instance for one session.
pub struct Server {
    pool: ReplicaPool,
    seq: Arc<AtomicU64>,
}

/// Cheap cloneable submission handle.
#[derive(Clone)]
pub struct Client {
    client: PoolClient,
    seq: Arc<AtomicU64>,
}

impl Client {
    /// Submits one request; returns immediately with a waitable handle.
    /// Requests are keyed by submission sequence number.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] under overload, [`SubmitError::Closed`]
    /// after shutdown began.
    pub fn submit(&self, input: Tensor<f32>) -> Result<ResponseHandle<RequestResult>, SubmitError> {
        let key = self.seq.fetch_add(1, Ordering::Relaxed);
        self.client.submit(key, input)
    }
}

impl Server {
    /// Starts a server: spawns one worker over `session`, executing batches
    /// on a context built from `ctx`'s configuration.
    ///
    /// # Errors
    ///
    /// Rejects an invalid `config` as [`ServeError::Config`] — the same
    /// typed validation the replica pool and the virtual-clock simulator
    /// apply, so a bad config cannot slip through one driver and not
    /// another.
    pub fn start(
        session: Arc<Session>,
        config: SchedulerConfig,
        ctx: ExecContext,
    ) -> Result<Server, ServeError> {
        Self::wrap(ReplicaPool::start(
            vec![session],
            pinned(config),
            *ctx.config(),
        ))
    }

    /// [`Server::start`] with `plan`'s replica-0 schedule injected for real
    /// — see [`ReplicaPool::start_with_faults`]. Straggle windows sleep out
    /// the extra service time the factor implies over `service`'s
    /// size-aware nominal cost, stalls sleep, a queue close half-closes
    /// admissions (queued work still drains), and a crash kills the worker:
    /// with no surviving replica to hand off to, every queued orphan sheds
    /// (its dropped slot cancels the client's handle, so no caller ever
    /// hangs on a dead server).
    ///
    /// # Errors
    ///
    /// Same as [`Server::start`].
    pub fn start_with_faults(
        session: Arc<Session>,
        config: SchedulerConfig,
        ctx: ExecContext,
        plan: &FaultPlan,
        service: ServiceModel,
    ) -> Result<Server, ServeError> {
        Self::wrap(ReplicaPool::start_with_faults(
            vec![session],
            pinned(config),
            *ctx.config(),
            plan,
            service,
        ))
    }

    fn wrap(pool: Result<ReplicaPool, ServeError>) -> Result<Server, ServeError> {
        Ok(Server {
            pool: pool?,
            seq: Arc::new(AtomicU64::new(0)),
        })
    }

    /// A new submission handle.
    pub fn client(&self) -> Client {
        Client {
            client: self.pool.client(),
            seq: Arc::clone(&self.seq),
        }
    }

    /// Current queue depth (approximate under concurrency).
    pub fn queue_depth(&self) -> usize {
        self.pool.queue_depths()[0]
    }

    /// Stops accepting work, drains the queue, joins the worker, and
    /// returns the final metrics snapshot (wall-clock window).
    pub fn shutdown(self) -> MetricsSnapshot {
        self.pool.shutdown().total
    }
}

/// One replica, pinned to the single session.
fn pinned(scheduler: SchedulerConfig) -> PoolConfig {
    PoolConfig {
        replicas: 1,
        route: RoutePolicy::RoundRobin,
        scheduler,
        adaptive: AdaptivePolicy::pinned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BatchPolicy, SmtConfig};
    use crate::session::compile_session;
    use nbsmt_workloads::synthnet::quick_synthnet;

    fn test_session() -> (Arc<Session>, Vec<Tensor<f32>>) {
        let trained = quick_synthnet(19).expect("training succeeds");
        let calib = trained.calibration_inputs(8, 900);
        let s = trained.task.image_size;
        let session = compile_session(
            "synthnet",
            &trained.model,
            &[calib],
            SmtConfig::sysmt_2t(),
            [1, s, s],
        )
        .unwrap();
        let (inputs, _) = trained.sample_requests(16, 901);
        (Arc::new(session), inputs)
    }

    #[test]
    fn serves_requests_end_to_end() {
        let (session, inputs) = test_session();
        let server = Server::start(
            session,
            SchedulerConfig {
                batch: BatchPolicy {
                    max_batch: 4,
                    max_wait_ns: 1_000_000,
                },
                queue_capacity: 32,
            },
            ExecContext::sequential(),
        )
        .expect("config is valid");
        let client = server.client();
        let handles: Vec<_> = inputs
            .iter()
            .map(|i| client.submit(i.clone()).expect("queue has room"))
            .collect();
        for handle in handles {
            let inference = handle
                .wait()
                .expect("not cancelled")
                .expect("no model error");
            assert!(!inference.logits.is_empty());
        }
        let snapshot = server.shutdown();
        assert_eq!(snapshot.completed, 16);
        assert_eq!(snapshot.rejected, 0);
        assert!(snapshot.batches >= 4, "max_batch 4 ⇒ at least 4 batches");
        assert!(snapshot.p99_ns >= snapshot.p50_ns);
        assert!(snapshot.throughput_rps > 0.0);
    }

    #[test]
    fn overload_rejects_with_typed_error() {
        let (session, inputs) = test_session();
        let server = Server::start(
            session,
            SchedulerConfig {
                batch: BatchPolicy {
                    max_batch: 1,
                    max_wait_ns: 0,
                },
                queue_capacity: 1,
            },
            ExecContext::sequential(),
        )
        .expect("config is valid");
        let client = server.client();
        let mut accepted = Vec::new();
        let mut rejected = 0usize;
        // Burst far past the queue bound; some must shed.
        for _ in 0..20 {
            for input in &inputs {
                match client.submit(input.clone()) {
                    Ok(h) => accepted.push(h),
                    Err(SubmitError::QueueFull { capacity }) => {
                        assert_eq!(capacity, 1);
                        rejected += 1;
                    }
                    Err(SubmitError::Closed) => unreachable!("server is running"),
                }
            }
        }
        for handle in accepted {
            let _ = handle.wait().expect("accepted requests complete");
        }
        let snapshot = server.shutdown();
        assert!(rejected > 0, "burst must overflow a capacity-1 queue");
        assert_eq!(snapshot.rejected, rejected as u64);
        assert!(snapshot.completed >= 1);
    }

    #[test]
    fn invalid_config_is_rejected_before_spawning() {
        let (session, _) = test_session();
        let result = Server::start(
            session,
            SchedulerConfig {
                batch: BatchPolicy {
                    max_batch: 0,
                    max_wait_ns: 0,
                },
                queue_capacity: 8,
            },
            ExecContext::sequential(),
        );
        assert!(matches!(
            result.map(|_| ()),
            Err(ServeError::Config(crate::config::ConfigError::ZeroBatch))
        ));
    }

    #[test]
    fn crash_plan_sheds_orphans_and_cancels_handles() {
        use crate::faults::{FaultEvent, FaultKind, FaultPlan};

        let (session, inputs) = test_session();
        // The server dies after its second batch; everything still queued at
        // that instant must shed by cancelling its handle — no caller hangs.
        let plan = FaultPlan::from_events(vec![FaultEvent {
            replica: 0,
            at_batch: 2,
            kind: FaultKind::Crash,
        }]);
        let server = Server::start_with_faults(
            session,
            SchedulerConfig {
                batch: BatchPolicy {
                    max_batch: 2,
                    max_wait_ns: 1_000_000,
                },
                queue_capacity: 32,
            },
            ExecContext::sequential(),
            &plan,
            ServiceModel::default(),
        )
        .expect("config is valid");
        let client = server.client();
        let handles: Vec<_> = inputs
            .iter()
            .map(|i| client.submit(i.clone()).expect("queue has room"))
            .collect();
        let mut completed = 0u64;
        let mut cancelled = 0u64;
        for handle in handles {
            match handle.wait() {
                Ok(result) => {
                    result.expect("no model error");
                    completed += 1;
                }
                Err(_) => cancelled += 1,
            }
        }
        let snapshot = server.shutdown();
        assert_eq!(snapshot.crashes, 1, "the planned crash fires exactly once");
        assert_eq!(snapshot.completed, completed);
        assert_eq!(snapshot.handoff_shed, cancelled, "every orphan sheds");
        assert_eq!(completed + cancelled, 16, "no request is lost track of");
        assert!(
            completed >= 2,
            "both pre-crash batches complete (got {completed})"
        );
    }

    #[test]
    fn submit_after_shutdown_is_closed() {
        let (session, inputs) = test_session();
        let server = Server::start(
            session,
            SchedulerConfig::default(),
            ExecContext::sequential(),
        )
        .expect("config is valid");
        let client = server.client();
        let _ = server.shutdown();
        assert_eq!(
            client.submit(inputs[0].clone()).map(|_| ()),
            Err(SubmitError::Closed)
        );
    }
}
