//! Pins the virtual-clock trace of a controlled, fault-injected pool run
//! whose recorder ring is far smaller than the number of events emitted.
//!
//! [`TraceRecorder`] overwrites its oldest entry once full, so what a
//! saturated ring keeps depends on the *insertion order* of the spans, not
//! just on the set of spans emitted. The lockstep trace test cannot cover
//! this (pool workers race to insert kernel spans, so it must use a ring
//! that never fills); this test fixes the simulator's order — batch span,
//! then kernel spans, then per-request spans, with controller marks and
//! crash/scale-down handoffs interleaved — by hashing the exported
//! snapshot. Any change to the emission order, the span fields, or the
//! schedule itself changes the hash.

use nbsmt_bench::render_chrome_trace;
use nbsmt_serve::config::{
    AdaptivePolicy, BatchPolicy, PoolConfig, RoutePolicy, SchedulerConfig, SmtConfig,
};
use nbsmt_serve::control::{AutoscaleConfig, ControlConfig, PredictiveConfig, StealConfig};
use nbsmt_serve::faults::{FaultEvent, FaultKind, FaultPlan};
use nbsmt_serve::registry::ModelRegistry;
use nbsmt_serve::sim::{simulate_pool_controlled, ArrivalProcess, ServiceModel};
use nbsmt_serve::trace::{Clock, TraceRecorder};
use nbsmt_serve::traffic::TrafficModel;
use nbsmt_tensor::exec::ExecContext;
use nbsmt_workloads::synthnet::quick_synthnet;

/// Ring capacity: a small fraction of the events the run emits.
const RING: usize = 128;

/// FNV-1a 64 of the rendered Chrome trace.
const PINNED_TRACE_HASH: u64 = 0x54b6_0377_f019_01c5;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn saturated_ring_trace_of_a_controlled_faulted_run_is_pinned() {
    let trained = quick_synthnet(211).expect("training succeeds");
    let mut registry = ModelRegistry::new();
    registry
        .register_synthnet("synthnet", &trained, 212)
        .expect("calibration succeeds");
    let ladder = registry
        .compile_ladder(
            "synthnet",
            &[
                SmtConfig::Dense,
                SmtConfig::sysmt_2t(),
                SmtConfig::sysmt_4t(),
            ],
        )
        .expect("ladder compiles");
    let (inputs, _) = trained.sample_requests(16, 213);

    let config = PoolConfig {
        replicas: 4,
        route: RoutePolicy::Hashed,
        scheduler: SchedulerConfig {
            batch: BatchPolicy {
                max_batch: 4,
                max_wait_ns: 500_000,
            },
            queue_capacity: 8,
        },
        adaptive: AdaptivePolicy {
            depth_high: 3,
            depth_low: 1,
            p95_high_ns: 0,
            eval_every_batches: 1,
        },
    };
    let control = ControlConfig {
        alpha_x1024: 512,
        window_ns: 100_000,
        predictive: Some(PredictiveConfig {
            util_high_x1024: 900,
            util_low_x1024: 300,
        }),
        autoscale: Some(AutoscaleConfig {
            min_replicas: 1,
            max_replicas: 4,
            util_high_x1024: 700,
            util_low_x1024: 200,
        }),
        steal: Some(StealConfig {
            imbalance_threshold: 2,
            max_steal: 2,
        }),
    };
    let plan = FaultPlan::from_events(vec![
        FaultEvent {
            replica: 1,
            at_batch: 3,
            kind: FaultKind::Crash,
        },
        FaultEvent {
            replica: 0,
            at_batch: 2,
            kind: FaultKind::Stall {
                duration_ns: 400_000,
            },
        },
    ]);
    let arrivals = ArrivalProcess::Generated {
        model: TrafficModel::Mmpp {
            calm_mrps: 8_000_000,
            burst_mrps: 60_000_000,
            mean_calm_ns: 600_000,
            mean_burst_ns: 300_000,
        },
        seed: 405,
        n: 160,
    };
    let recorder = TraceRecorder::new(Clock::virtual_clock(), RING);
    let out = simulate_pool_controlled(
        &ladder,
        &ExecContext::sequential(),
        &inputs,
        &arrivals,
        config,
        ServiceModel::default(),
        control,
        Some(&plan),
        Some(&recorder),
    )
    .expect("controlled pool simulation succeeds");

    // The scenario exercises what the pin is meant to cover.
    assert_eq!(out.metrics.crashes, 1, "the planned crash fires");
    assert!(out.metrics.scale_downs > 0, "autoscaling scales down");
    assert!(!out.handoffs.is_empty(), "orphans are handed off");
    assert!(!out.responses.is_empty(), "outputs are computed");
    let snapshot = recorder.snapshot();
    assert_eq!(snapshot.events.len(), RING, "the ring is full");
    assert!(
        snapshot.dropped > 4 * RING as u64,
        "the ring overwrote most of the run ({} dropped)",
        snapshot.dropped
    );
    assert!(
        snapshot.events.iter().any(|e| e.stats.is_some()),
        "kernel spans survive in the ring"
    );

    let hash = fnv1a(render_chrome_trace(&snapshot).as_bytes());
    assert_eq!(
        hash, PINNED_TRACE_HASH,
        "saturated-ring trace changed: {hash:#018x} ({} dropped)",
        snapshot.dropped
    );
}
