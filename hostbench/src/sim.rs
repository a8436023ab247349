//! `sim-control-1m`: the host cost of the virtual-clock serving simulator.
//!
//! `serve::sim::simulate_pool_controlled_stats` (no kernels run) over
//! 10^6 seeded MMPP arrivals: 16 replicas on the dense → 2T → 4T ladder
//! under the predictive + autoscale controller, offered above the dense
//! pool's capacity so the controller scales and shifts modes. Every
//! modelled output is exact, so a refactor of `serve::sim`,
//! `serve::control` or `serve::traffic` must leave them identical; a pinned
//! fingerprint at a fixed seed checks that on every run.

use std::sync::Arc;
use std::time::Instant;

use nbsmt_serve::config::{
    AdaptivePolicy, BatchPolicy, PoolConfig, RoutePolicy, SchedulerConfig, SmtConfig,
};
use nbsmt_serve::control::{AutoscaleConfig, ControlConfig, PredictiveConfig};
use nbsmt_serve::registry::ModelRegistry;
use nbsmt_serve::session::Session;
use nbsmt_serve::sim::{
    simulate_pool_controlled_stats, ArrivalProcess, PoolSimOutcome, ServiceModel,
};
use nbsmt_serve::traffic::TrafficModel;
use nbsmt_tensor::tensor::Tensor;
use nbsmt_workloads::synthnet::quick_synthnet;

use crate::report::{Json, Metric};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{repeat_setup, Outcome, RunConfig};

/// Seed of the served model (only its MAC count reaches the simulator).
const MODEL_SEED: u64 = 11;
/// Arrivals per simulation.
const ARRIVALS: u64 = 1_000_000;
/// Replicas allocated to the pool (the autoscale ceiling).
const REPLICAS: usize = 16;
/// Mean offered load as a multiple of the dense pool's single-request rate.
const LOAD_X: f64 = 1.5;
/// Fewest simulations per run: the medians and the repeat check need them.
const MIN_REPS: usize = 3;
/// Timed passes over the traffic generator alone, in the traced run.
const GEN_REPS: usize = 3;
/// Seed of the pinned reference simulation.
const GOLDEN_SEED: u64 = 1;

/// The exact modelled outputs of one simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// Requests completed.
    pub completed: u64,
    /// Requests shed.
    pub rejected: u64,
    /// Batches launched.
    pub batches: u64,
    /// Median modelled latency [ns].
    pub p50_ns: u64,
    /// 99th-percentile modelled latency [ns].
    pub p99_ns: u64,
    /// Live-replica nanoseconds.
    pub replica_ns: u64,
    /// Controller decisions (retained plus dropped).
    pub control_events: u64,
    /// Reactive mode switches.
    pub mode_transitions: u64,
    /// Virtual time of the last completion [ns].
    pub makespan_ns: u64,
}

impl Fingerprint {
    fn of(o: &PoolSimOutcome) -> Fingerprint {
        Fingerprint {
            completed: o.metrics.completed,
            rejected: o.metrics.rejected,
            batches: o.metrics.batches,
            p50_ns: o.metrics.p50_ns,
            p99_ns: o.metrics.p99_ns,
            replica_ns: o.replica_ns,
            control_events: o.control_events.len() as u64 + o.dropped_control_events,
            mode_transitions: o.metrics.mode_transitions,
            makespan_ns: o.makespan_ns,
        }
    }

    fn to_json(self) -> Json {
        let n = |v: u64| Json::Num(v as f64);
        Json::object(vec![
            ("completed", n(self.completed)),
            ("rejected", n(self.rejected)),
            ("batches", n(self.batches)),
            ("p50_ns", n(self.p50_ns)),
            ("p99_ns", n(self.p99_ns)),
            ("replica_ns", n(self.replica_ns)),
            ("control_events", n(self.control_events)),
            ("mode_transitions", n(self.mode_transitions)),
            ("makespan_ns", n(self.makespan_ns)),
        ])
    }
}

/// The simulation at [`GOLDEN_SEED`], pinned when the benchmark was
/// written. Any change to the simulator's modelled behaviour shows here.
pub const GOLDEN: Fingerprint = Fingerprint {
    completed: 999_403,
    rejected: 597,
    batches: 125_476,
    p50_ns: 784_209,
    p99_ns: 2_633_233,
    replica_ns: 123_096_481_909,
    control_events: 10_024,
    mode_transitions: 7_056,
    makespan_ns: 8_716_355_849,
};

struct Fixture {
    ladder: Vec<Arc<Session>>,
    inputs: Vec<Tensor<f32>>,
    service: ServiceModel,
    pool: PoolConfig,
    control: ControlConfig,
    /// Mean offered rate [req/s of virtual time].
    rate_rps: f64,
}

fn setup(seed: u64) -> Result<Fixture, String> {
    let trained = quick_synthnet(MODEL_SEED).map_err(|e| e.to_string())?;
    let mut registry = ModelRegistry::new();
    registry
        .register_synthnet("synthnet", &trained, MODEL_SEED + 77)
        .map_err(|e| e.to_string())?;
    let ladder = registry
        .compile_ladder(
            "synthnet",
            &[
                SmtConfig::Dense,
                SmtConfig::sysmt_2t(),
                SmtConfig::sysmt_4t(),
            ],
        )
        .map_err(|e| e.to_string())?;
    let (inputs, _) = trained.sample_requests(8, seed);
    let service = ServiceModel::default();
    let rate_rps = 1e9 / service.single_ns(&ladder[0]) as f64 * REPLICAS as f64 * LOAD_X;
    // The estimator window spans ~32 mean inter-arrivals, so a burst moves
    // the forecast within the burst.
    let window_ns = ((32.0 / rate_rps) * 1e9).max(1.0) as u64;
    Ok(Fixture {
        ladder,
        inputs,
        service,
        pool: PoolConfig {
            replicas: REPLICAS,
            route: RoutePolicy::Hashed,
            scheduler: SchedulerConfig {
                batch: BatchPolicy {
                    max_batch: 8,
                    max_wait_ns: 2_000_000,
                },
                queue_capacity: 16,
            },
            adaptive: AdaptivePolicy {
                depth_high: 4,
                depth_low: 1,
                p95_high_ns: 0,
                eval_every_batches: 1,
            },
        },
        control: ControlConfig {
            alpha_x1024: 512,
            window_ns,
            predictive: Some(PredictiveConfig {
                util_high_x1024: 600,
                util_low_x1024: 200,
            }),
            autoscale: Some(AutoscaleConfig {
                min_replicas: REPLICAS / 4,
                max_replicas: REPLICAS,
                util_high_x1024: 700,
                util_low_x1024: 350,
            }),
            steal: None,
        },
        rate_rps,
    })
}

impl Fixture {
    /// The seeded MMPP: calm at half the mean rate, bursts at 2.5×, bursts
    /// lasting ~64 arrivals and calm phases three times as long.
    fn traffic(&self) -> TrafficModel {
        let burst = self.rate_rps * 2.5;
        let mean_burst_ns = ((64.0 / burst) * 1e9).max(1.0) as u64;
        TrafficModel::Mmpp {
            calm_mrps: (self.rate_rps * 0.5 * 1e3) as u64,
            burst_mrps: (burst * 1e3) as u64,
            mean_calm_ns: mean_burst_ns * 3,
            mean_burst_ns,
        }
    }

    fn simulate(&self, seed: u64) -> Result<PoolSimOutcome, String> {
        let arrivals = ArrivalProcess::Generated {
            model: self.traffic(),
            seed,
            n: ARRIVALS,
        };
        simulate_pool_controlled_stats(
            &self.ladder[..],
            &self.inputs,
            &arrivals,
            self.pool,
            self.service,
            self.control,
            None,
            None,
        )
        .map_err(|e| e.to_string())
    }
}

/// Runs simulations for `seconds` (at least [`MIN_REPS`]); returns each
/// one's host time [s] and the first outcome. Flags any simulation whose
/// modelled outputs differ from the first's.
fn measure(
    fx: &Fixture,
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
    problems: &mut Vec<String>,
) -> Result<(Vec<f64>, PoolSimOutcome), String> {
    let mut secs = Vec::new();
    let mut first: Option<(PoolSimOutcome, Fingerprint)> = None;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds || secs.len() < MIN_REPS {
        let (outcome, t) = tracer.time("serve.sim.simulate_pool_controlled_stats", None, || {
            fx.simulate(seed)
        });
        let outcome = outcome?;
        secs.push(t.as_secs_f64());
        let fp = Fingerprint::of(&outcome);
        match &first {
            None => first = Some((outcome, fp)),
            Some((_, f)) if *f != fp => problems.push(format!(
                "simulation {} differs from the first: {fp:?}",
                secs.len()
            )),
            Some(_) => {}
        }
    }
    Ok((secs, first.expect("at least one simulation").0))
}

/// Runs the workload.
pub fn run(cfg: &RunConfig, mut tracer: Tracer) -> Result<Outcome, String> {
    let (fx, setup_secs) = repeat_setup(|| setup(cfg.seed));
    let fx = fx?;
    let mut problems = Vec::new();
    let mut metrics = Vec::new();
    let mut record = vec![
        ("arrivals", Json::Num(ARRIVALS as f64)),
        ("replicas", Json::Num(REPLICAS as f64)),
        ("mean_rate_rps", Json::Num(fx.rate_rps)),
    ];
    let reps;

    if cfg.trace {
        let half = cfg.seconds / 2.0;
        let mut off = Tracer::disabled();
        let (plain, _) = measure(&fx, cfg.seed, half, &mut off, &mut problems)?;
        let (secs, outcome) = measure(&fx, cfg.seed, half, &mut tracer, &mut problems)?;
        let mut gen = Vec::with_capacity(GEN_REPS);
        for _ in 0..GEN_REPS {
            let (sum, t) = tracer.time("serve.traffic.generate", None, || {
                fx.traffic()
                    .generate(cfg.seed, ARRIVALS)
                    .fold(0u64, |acc, a| acc.wrapping_add(a.time_ns ^ a.key))
            });
            std::hint::black_box(sum);
            gen.push(t.as_secs_f64() * 1e3);
        }
        let total_ms = median(&secs) * 1e3;
        let gen_ms = median(&gen);
        let fp = Fingerprint::of(&outcome);
        record.push(("fingerprint", fp.to_json()));
        reps = plain.len() + secs.len();
        metrics.extend([
            Metric::host("serve.traffic.gen_ms", gen_ms).over(gen.len()),
            Metric::host("serve.sim.loop_ms", total_ms - gen_ms).over(secs.len()),
            Metric::host(
                "serve.sim.ns_per_batch",
                (total_ms - gen_ms) * 1e6 / fp.batches.max(1) as f64,
            ),
            Metric::modelled("serve.sim.batches", fp.batches as f64),
            Metric::modelled("serve.control.events", fp.control_events as f64),
            Metric::modelled("serve.control.virt_replica_s", fp.replica_ns as f64 / 1e9),
            Metric::host(
                "bench.trace_overhead",
                total_ms / (median(&plain) * 1e3) - 1.0,
            ),
            Metric::host("bench.spans", tracer.len() as f64),
        ]);
    } else {
        let mut off = Tracer::disabled();
        let (secs, outcome) = measure(&fx, cfg.seed, cfg.seconds, &mut off, &mut problems)?;
        let rate: Vec<f64> = secs.iter().map(|s| ARRIVALS as f64 / s).collect();
        let fp = Fingerprint::of(&outcome);
        record.push(("fingerprint", fp.to_json()));
        reps = secs.len();
        record.push((
            "simulation_s",
            Json::Arr(secs.iter().map(|&s| Json::Num(s)).collect()),
        ));
        metrics.extend([
            Metric::host("setup_s", median(&setup_secs)).over(setup_secs.len()),
            Metric::host(
                "peak_rss_mb",
                crate::host::peak_rss_mb().ok_or("no /proc/self/status")?,
            ),
            Metric::host("work_per_s", median(&rate)).over(rate.len()),
            Metric::modelled("latency_p50_ms", fp.p50_ns as f64 / 1e6).over(fp.completed as usize),
            Metric::modelled("latency_p99_ms", fp.p99_ns as f64 / 1e6).over(fp.completed as usize),
            Metric::modelled("ok_frac", fp.completed as f64 / ARRIVALS as f64)
                .over(ARRIVALS as usize),
        ]);
    }

    // The pinned reference simulation.
    let (golden, _) = tracer.time("serve.sim.simulate_pool_controlled_stats", None, || {
        fx.simulate(GOLDEN_SEED)
    });
    let golden = Fingerprint::of(&golden?);
    record.push(("golden_seed", Json::Num(GOLDEN_SEED as f64)));
    if golden != GOLDEN {
        problems.push(format!(
            "simulation at seed {GOLDEN_SEED} differs from the pinned fingerprint: {golden:?}"
        ));
    }
    Ok(Outcome {
        metrics,
        attempted: reps as u64 + 1,
        failed: problems.len() as u64,
        problems,
        tracer,
        record,
    })
}
