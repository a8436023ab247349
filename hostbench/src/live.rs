//! `live-2t-mmpp`: the threaded serving path on the wall clock.
//!
//! Open loop. One paced submitter thread drives a one-replica
//! `serve::ReplicaPool` (one-thread execution) pinned to the SynthNet
//! `SmtConfig::sysmt_2t()` session, on a seeded two-state MMPP schedule:
//! calm phases at about 0.4× host capacity, where batches launch on the
//! batching timer, and bursts at about 1.5×, where batches fill and the
//! bounded queue sheds. While it waits for each due time, the submitter
//! polls every outstanding response, so one slow response never delays the
//! stamp of another and the generator and the replica worker are the only
//! busy threads on the host's two cores.

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use nbsmt_core::matmul::{NbSmtMatmul, NbSmtMatmulConfig};
use nbsmt_core::ThreadCount;
use nbsmt_nn::quantized::QuantizedModel;
use nbsmt_serve::config::{
    AdaptivePolicy, BatchPolicy, PoolConfig, RoutePolicy, SchedulerConfig, SmtConfig, SubmitError,
};
use nbsmt_serve::pool::ReplicaPool;
use nbsmt_serve::queue::{ResponseHandle, TryWait};
use nbsmt_serve::registry::ModelRegistry;
use nbsmt_serve::server::RequestResult;
use nbsmt_serve::session::Session;
use nbsmt_serve::traffic::TrafficModel;
use nbsmt_tensor::exec::{ExecConfig, ExecContext};
use nbsmt_tensor::tensor::Tensor;
use nbsmt_workloads::synthnet::{quick_synthnet, TrainedSynthNet};

use crate::report::{Json, Metric};
use crate::stats::{median, p99, percentile, sorted, summarize};
use crate::trace::Tracer;
use crate::{repeat_setup, Outcome, RunConfig};

/// Seed of the served model: the model is part of the system under test,
/// not an input, so it is the same on every run.
const MODEL_SEED: u64 = 11;
/// Distinct request inputs drawn from the run seed; request `i` sends input
/// `i % INPUT_POOL`.
const INPUT_POOL: usize = 128;

/// Calm-phase arrival rate [req/s]: about 0.4× the capacity of the 2T
/// session at batch 8 on a 2-core Xeon (AVX2, AVX-512 VNNI), measured once
/// as `8 / serve.session.infer_ms_b8` and frozen, so a faster or slower
/// program meets the same offered load.
pub const CALM_RPS: f64 = 1400.0;
/// Burst-phase arrival rate [req/s]: about 1.5× the same capacity.
pub const BURST_RPS: f64 = 5200.0;
/// Mean calm sojourn [ns].
pub const MEAN_CALM_NS: u64 = 270_000_000;
/// Mean burst sojourn [ns].
pub const MEAN_BURST_NS: u64 = 30_000_000;

/// Largest batch the replica coalesces.
const MAX_BATCH: usize = 8;
/// How long the first queued request holds a batch open [ns].
const MAX_WAIT_NS: u64 = 1_000_000;
/// Admission bound: submissions beyond it are refused.
const QUEUE_CAPACITY: usize = 16;

/// Latency limit of `ok_frac` (the SLO attainment) [ms], from the due time.
pub const LATENCY_LIMIT_MS: f64 = 20.0;
/// A run whose generator ran later than this at p99 [ms] is invalid: a
/// submitter later than the latency limit no longer offers the schedule.
/// (Scheduling on a busy 2-vCPU host puts the p99 lag at 1–6 ms.)
pub const LAG_BOUND_MS: f64 = LATENCY_LIMIT_MS;
/// Interval between completion sweeps while the generator waits; bounds
/// how late a completion is stamped.
const POLL: Duration = Duration::from_micros(100);
/// Lead time between building the schedule and the first due time.
const LEAD: Duration = Duration::from_millis(20);
/// How long to wait for stragglers after the last submission.
const DRAIN: Duration = Duration::from_secs(10);
/// Latency percentiles are taken per window of due times [ns] and the median
/// over windows is reported, so one slow stretch of the host moves a run's
/// figure less than a whole-run percentile would.
const WINDOW_NS: u64 = 2_000_000_000;
/// Repetitions of each timed session call in the traced run.
const INFER_REPS: usize = 40;

/// The arrival schedule: due offsets [ns] from the start of the run, from a
/// seeded two-state MMPP, covering `seconds`.
pub fn schedule(seed: u64, seconds: f64) -> Vec<u64> {
    let horizon = (seconds * 1e9) as u64;
    TrafficModel::Mmpp {
        calm_mrps: (CALM_RPS * 1e3) as u64,
        burst_mrps: (BURST_RPS * 1e3) as u64,
        mean_calm_ns: MEAN_CALM_NS,
        mean_burst_ns: MEAN_BURST_NS,
    }
    .generate(seed, u64::MAX)
    .map(|a| a.time_ns)
    .take_while(|&t| t < horizon)
    .collect()
}

struct Fixture {
    trained: TrainedSynthNet,
    smt2: Arc<Session>,
    inputs: Vec<Tensor<f32>>,
    /// 2T logits of each input at batch 1 (logits are batch-invariant).
    expected: Vec<Vec<f32>>,
    /// Dense top-1 class of each input.
    dense_top1: Vec<usize>,
    train_s: f64,
}

fn setup(seed: u64) -> Result<Fixture, String> {
    let start = Instant::now();
    let trained = quick_synthnet(MODEL_SEED).map_err(|e| e.to_string())?;
    let train_s = start.elapsed().as_secs_f64();
    let mut registry = ModelRegistry::new();
    registry
        .register_synthnet("synthnet", &trained, MODEL_SEED + 77)
        .map_err(|e| e.to_string())?;
    let dense = registry
        .compile("synthnet", SmtConfig::Dense)
        .map_err(|e| e.to_string())?;
    let smt2 = registry
        .compile("synthnet", SmtConfig::sysmt_2t())
        .map_err(|e| e.to_string())?;
    let (inputs, _) = trained.sample_requests(INPUT_POOL, seed);
    let ctx = ExecContext::with_threads(1);
    let mut expected = Vec::with_capacity(inputs.len());
    let mut dense_top1 = Vec::with_capacity(inputs.len());
    for input in &inputs {
        let one = [input];
        let r2 = smt2
            .infer_batch_refs(&ctx, &one)
            .map_err(|e| e.to_string())?;
        let rd = dense
            .infer_batch_refs(&ctx, &one)
            .map_err(|e| e.to_string())?;
        expected.push(r2[0].logits.clone());
        dense_top1.push(rd[0].predicted);
    }
    Ok(Fixture {
        trained,
        smt2,
        inputs,
        expected,
        dense_top1,
        train_s,
    })
}

/// One answered (or cancelled) request as the load generator saw it.
struct Completion {
    index: usize,
    due: Instant,
    at: Instant,
    result: Option<RequestResult>,
}

/// Responses the load generator is still waiting for.
type Pending = Vec<(usize, Instant, ResponseHandle<RequestResult>)>;

/// Probes every outstanding response once and moves the resolved ones to
/// `done`, each stamped when it was seen, so one slow response never delays
/// the stamp of another.
fn sweep(pending: &mut Pending, done: &mut Vec<Completion>, tracer: &mut Tracer) {
    let mut still = Vec::with_capacity(pending.len());
    for (index, due, handle) in pending.drain(..) {
        match handle.try_wait() {
            TryWait::Ready(result) => {
                let at = Instant::now();
                tracer.record("serve.response", due, at, None, Some(index as u64));
                done.push(Completion {
                    index,
                    due,
                    at,
                    result: Some(result),
                });
            }
            TryWait::Cancelled => done.push(Completion {
                index,
                due,
                at: Instant::now(),
                result: None,
            }),
            TryWait::Pending(h) => still.push((index, due, h)),
        }
    }
    *pending = still;
}

/// Sweeps `pending` every [`POLL`] until `until`; with `drain`, returns as
/// soon as nothing is pending.
fn sweep_until(
    until: Instant,
    drain: bool,
    pending: &mut Pending,
    done: &mut Vec<Completion>,
    tracer: &mut Tracer,
) {
    loop {
        sweep(pending, done, tracer);
        let now = Instant::now();
        if now >= until || (drain && pending.is_empty()) {
            return;
        }
        // With nothing outstanding there is nothing to stamp until `until`.
        let mut wait = until - now;
        if !pending.is_empty() {
            wait = wait.min(POLL);
        }
        thread::sleep(wait);
    }
}

/// Everything the open-loop phase measured.
struct LiveRun {
    sent: usize,
    refused: u64,
    submit_errors: u64,
    submit_us: Vec<f64>,
    lag_ms: Vec<f64>,
    completions: Vec<Completion>,
    snapshot: nbsmt_serve::pool::PoolSnapshot,
}

/// Sends the schedule from this thread and, while it waits for each due
/// time, polls the outstanding responses, so the generator and the replica
/// worker are the only busy threads.
fn drive(fx: &Fixture, due_ns: &[u64], tracer: &mut Tracer) -> Result<LiveRun, String> {
    let pool = ReplicaPool::start(
        vec![Arc::clone(&fx.smt2)],
        PoolConfig {
            replicas: 1,
            route: RoutePolicy::RoundRobin,
            scheduler: SchedulerConfig {
                batch: BatchPolicy {
                    max_batch: MAX_BATCH,
                    max_wait_ns: MAX_WAIT_NS,
                },
                queue_capacity: QUEUE_CAPACITY,
            },
            adaptive: AdaptivePolicy::pinned(),
        },
        ExecConfig::with_threads(1),
    )
    .map_err(|e| e.to_string())?;
    let client = pool.client();
    let mut refused = 0u64;
    let mut submit_errors = 0u64;
    let mut submit_us = Vec::with_capacity(due_ns.len());
    let mut lag_ms = Vec::with_capacity(due_ns.len());
    let mut pending: Pending = Vec::new();
    let mut completions = Vec::with_capacity(due_ns.len());
    let start = Instant::now() + LEAD;
    for (i, &offset) in due_ns.iter().enumerate() {
        let due = start + Duration::from_nanos(offset);
        sweep_until(due, false, &mut pending, &mut completions, tracer);
        let input = fx.inputs[i % fx.inputs.len()].clone();
        let t0 = Instant::now();
        let submitted = client.submit(i as u64, input);
        let t1 = Instant::now();
        tracer.record("serve.pool.submit", t0, t1, None, Some(i as u64));
        lag_ms.push(t0.saturating_duration_since(due).as_secs_f64() * 1e3);
        submit_us.push((t1 - t0).as_secs_f64() * 1e6);
        match submitted {
            Ok(handle) => pending.push((i, due, handle)),
            Err(SubmitError::QueueFull { .. }) => refused += 1,
            Err(_) => submit_errors += 1,
        }
    }
    let drained_by = Instant::now() + DRAIN;
    sweep_until(drained_by, true, &mut pending, &mut completions, tracer);
    // Anything still pending after the drain counts as failed.
    completions.extend(pending.into_iter().map(|(index, due, _)| Completion {
        index,
        due,
        at: Instant::now(),
        result: None,
    }));
    let snapshot = pool.shutdown();
    Ok(LiveRun {
        sent: due_ns.len(),
        refused,
        submit_errors,
        submit_us,
        lag_ms,
        completions,
        snapshot,
    })
}

/// Outcome counts of one open-loop phase.
struct Tally {
    sent: u64,
    /// How late the generator ran, p99 [ms].
    lag_p99_ms: f64,
    latencies_ms: Vec<f64>,
    /// Latencies grouped by the window their due time falls in.
    windows: Vec<Vec<f64>>,
    good: u64,
    failed: u64,
    agree: u64,
    answered: u64,
    problems: Vec<String>,
}

fn tally(fx: &Fixture, run: &LiveRun, due_ns: &[u64]) -> Tally {
    let windows = due_ns
        .last()
        .map_or(1, |&last| (last / WINDOW_NS) as usize + 1);
    let mut t = Tally {
        sent: run.sent as u64,
        lag_p99_ms: percentile(&sorted(&run.lag_ms), 99.0),
        latencies_ms: Vec::with_capacity(run.completions.len()),
        windows: vec![Vec::new(); windows],
        good: 0,
        failed: run.submit_errors,
        agree: 0,
        answered: 0,
        problems: Vec::new(),
    };
    for c in &run.completions {
        let input = c.index % fx.inputs.len();
        match &c.result {
            Some(Ok(inference)) => {
                let ms = c.at.saturating_duration_since(c.due).as_secs_f64() * 1e3;
                t.latencies_ms.push(ms);
                t.windows[(due_ns[c.index] / WINDOW_NS) as usize].push(ms);
                if inference.logits != fx.expected[input] {
                    t.failed += 1;
                    if t.problems.len() < 5 {
                        t.problems.push(format!(
                            "request {}: logits differ from the reference",
                            c.index
                        ));
                    }
                    continue;
                }
                t.answered += 1;
                t.agree += u64::from(inference.predicted == fx.dense_top1[input]);
                t.good += u64::from(ms <= LATENCY_LIMIT_MS);
            }
            Some(Err(_)) | None => t.failed += 1,
        }
    }
    t
}

impl Tally {
    /// Median over windows of each window's median latency [ms].
    fn windowed_p50(&self) -> f64 {
        let per: Vec<f64> = self
            .windows
            .iter()
            .filter(|w| !w.is_empty())
            .map(|w| median(w))
            .collect();
        median(&per)
    }

    /// Median over windows of each window's p99 latency [ms], over the
    /// windows with enough samples for a p99.
    fn windowed_p99(&self) -> Result<f64, String> {
        let per: Vec<f64> = self.windows.iter().filter_map(|w| p99(w).ok()).collect();
        if per.is_empty() {
            return p99(&self.latencies_ms);
        }
        Ok(median(&per))
    }
}

fn time_infer(
    session: &Session,
    ctx: &ExecContext,
    inputs: &[&Tensor<f32>],
    tracer: &mut Tracer,
) -> Result<f64, String> {
    let mut ms = Vec::with_capacity(INFER_REPS);
    for _ in 0..INFER_REPS {
        let (r, t) = tracer.time("serve.session.infer_batch_refs", None, || {
            session.infer_batch_refs(ctx, inputs)
        });
        r.map_err(|e| e.to_string())?;
        ms.push(t.as_secs_f64() * 1e3);
    }
    Ok(median(&ms))
}

/// Per-layer GEMM time of one batch-8 forward pass at 2T, from the operands
/// `QuantizedModel::layer_traces` captures [ms]. The model is calibrated the
/// way `ModelRegistry::register_synthnet` calibrates the served one, which
/// keeps its quantized model private.
fn time_layers(fx: &Fixture, batch: &[&Tensor<f32>], tracer: &mut Tracer) -> Result<f64, String> {
    let quantized = QuantizedModel::calibrate(
        &fx.trained.model,
        &[fx.trained.calibration_inputs(8, MODEL_SEED + 77)],
    )
    .map_err(|e| e.to_string())?;
    let [c, h, w] = fx.smt2.input_dims();
    let data: Vec<f32> = batch.iter().flat_map(|t| t.as_slice().to_vec()).collect();
    let stacked = Tensor::from_vec(data, &[batch.len(), c, h, w]).map_err(|e| e.to_string())?;
    let layers = quantized
        .layer_traces(&stacked)
        .map_err(|e| e.to_string())?;
    let SmtConfig::NbSmt {
        threads,
        policy,
        reorder,
        first_layer_1t,
    } = *fx.smt2.smt()
    else {
        return Err("the live session is not an NB-SMT session".into());
    };
    let ctx = ExecContext::with_threads(1);
    let mut reps = Vec::with_capacity(INFER_REPS);
    for _ in 0..INFER_REPS {
        let mut sum = 0.0;
        for (i, (x, wq)) in layers.iter().enumerate() {
            let threads = if i == 0 && first_layer_1t {
                ThreadCount::One
            } else {
                threads
            };
            let emu = NbSmtMatmul::new(NbSmtMatmulConfig {
                threads,
                policy,
                reorder: reorder && threads.count() > 1,
            });
            let (r, t) = tracer.time("core.execute_with.2t", None, || {
                emu.execute_with(&ctx, x, wq)
            });
            r.map_err(|e| e.to_string())?;
            sum += t.as_secs_f64() * 1e3;
        }
        reps.push(sum);
    }
    Ok(median(&reps))
}

/// Runs the workload.
pub fn run(cfg: &RunConfig, mut tracer: Tracer) -> Result<Outcome, String> {
    let mut train_ms = Vec::new();
    let (fx, setup_secs) = repeat_setup(|| {
        let fx = setup(cfg.seed);
        if let Ok(f) = &fx {
            train_ms.push(f.train_s * 1e3);
        }
        fx
    });
    let fx = fx?;
    let mut problems = Vec::new();
    let mut metrics = Vec::new();
    let mut record = vec![
        ("calm_rps", Json::Num(CALM_RPS)),
        ("burst_rps", Json::Num(BURST_RPS)),
        ("latency_limit_ms", Json::Num(LATENCY_LIMIT_MS)),
        ("lag_bound_ms", Json::Num(LAG_BOUND_MS)),
    ];

    let (due_ns, plain) = if cfg.trace {
        // Half the budget untraced, half traced, on the same schedule; the
        // difference is the tracing overhead.
        let due_ns = schedule(cfg.seed, cfg.seconds / 2.0);
        let mut off = Tracer::disabled();
        let plain = drive(&fx, &due_ns, &mut off)?;
        let plain = tally(&fx, &plain, &due_ns);
        (due_ns, Some(plain))
    } else {
        (schedule(cfg.seed, cfg.seconds), None)
    };
    let run = if cfg.trace {
        drive(&fx, &due_ns, &mut tracer)?
    } else {
        drive(&fx, &due_ns, &mut Tracer::disabled())?
    };
    let t = tally(&fx, &run, &due_ns);
    problems.extend(t.problems.iter().cloned());
    let mut failed = t.failed;
    let mut attempted = t.sent;
    let mut lag_p99 = t.lag_p99_ms;
    if let Some(plain) = &plain {
        attempted += plain.sent;
        problems.extend(plain.problems.iter().cloned());
        failed += plain.failed;
        lag_p99 = lag_p99.max(plain.lag_p99_ms);
    }
    if lag_p99.is_nan() || lag_p99 > LAG_BOUND_MS {
        problems.push(format!(
            "generator lagged {lag_p99:.3} ms at p99 (bound {LAG_BOUND_MS} ms): run invalid"
        ));
    }
    let sent = run.sent as f64;
    let shed = run.refused as f64 + t.failed as f64;
    let agreement = t.agree as f64 / t.answered.max(1) as f64;
    record.extend([
        ("sent", Json::Num(sent)),
        ("refused", Json::Num(run.refused as f64)),
        ("shed_frac", Json::Num(shed / sent)),
        ("top1_agreement", Json::Num(agreement)),
        ("lag_p99_ms", Json::Num(lag_p99)),
        ("latency_ms", summarize(&t.latencies_ms).to_json()),
    ]);

    if let Some(plain) = plain {
        let total = &run.snapshot.total;
        let ctx = ExecContext::with_threads(1);
        let b1: Vec<&Tensor<f32>> = fx.inputs.iter().take(1).collect();
        let b8: Vec<&Tensor<f32>> = fx.inputs.iter().take(MAX_BATCH).collect();
        let infer_b1 = time_infer(&fx.smt2, &ctx, &b1, &mut tracer)?;
        let infer_b8 = time_infer(&fx.smt2, &ctx, &b8, &mut tracer)?;
        let gemm_b8 = time_layers(&fx, &b8, &mut tracer)?;
        metrics.extend([
            Metric::host("serve.pool.submit_us_p50", median(&run.submit_us))
                .over(run.submit_us.len()),
            Metric::host(
                "serve.pool.queue_wait_p50_ms",
                total.queue_wait_p50_ns as f64 / 1e6,
            ),
            Metric::host(
                "serve.pool.queue_wait_p99_ms",
                total.queue_wait_p99_ns as f64 / 1e6,
            ),
            Metric::host(
                "serve.pool.service_p50_ms",
                total.service_p50_ns as f64 / 1e6,
            ),
            Metric::host("serve.pool.mean_batch", total.mean_batch_size),
            Metric::host("serve.pool.batches", total.batches as f64),
            Metric::host("serve.pool.rejected", total.rejected as f64),
            Metric::host("serve.pool.shed_frac", shed / sent).over(run.sent),
            Metric::host("serve.session.infer_ms_b1", infer_b1).over(INFER_REPS),
            Metric::host("serve.session.infer_ms_b8", infer_b8).over(INFER_REPS),
            Metric::modelled("serve.session.top1_agreement", agreement).over(t.answered as usize),
            Metric::host("core.fast2t_live_ms", gemm_b8).over(INFER_REPS),
            Metric::host("nn.glue_ms", infer_b8 - gemm_b8),
            Metric::host("loadgen.lag_p99_ms", lag_p99).over(run.lag_ms.len()),
            Metric::host("workloads.train_ms", median(&train_ms)).over(train_ms.len()),
            Metric::host(
                "bench.trace_overhead",
                median(&t.latencies_ms) / median(&plain.latencies_ms) - 1.0,
            ),
            Metric::host("bench.spans", tracer.len() as f64),
        ]);
    } else {
        metrics.extend([
            Metric::host("setup_s", median(&setup_secs)).over(setup_secs.len()),
            Metric::host(
                "peak_rss_mb",
                crate::host::peak_rss_mb().ok_or("no /proc/self/status")?,
            ),
            Metric::host("work_per_s", t.good as f64 / cfg.seconds).over(run.sent),
            Metric::host("latency_p50_ms", t.windowed_p50()).over(t.latencies_ms.len()),
            Metric::host("latency_p99_ms", t.windowed_p99()?).over(t.latencies_ms.len()),
            Metric::host("ok_frac", t.good as f64 / sent).over(run.sent),
        ]);
    }
    Ok(Outcome {
        metrics,
        attempted,
        failed,
        problems,
        tracer,
        record,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_function_of_the_seed() {
        let a = schedule(7, 0.5);
        assert_eq!(a, schedule(7, 0.5));
        assert_ne!(a, schedule(8, 0.5));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.last().is_some_and(|&t| t < 500_000_000));
        // A longer horizon extends the same stream rather than redrawing it.
        let b = schedule(7, 1.0);
        assert_eq!(&b[..a.len()], &a[..]);
    }

    #[test]
    fn schedule_mean_rate_sits_between_calm_and_burst() {
        let s = schedule(3, 20.0);
        let rate = s.len() as f64 / 20.0;
        let calm_share = MEAN_CALM_NS as f64 / (MEAN_CALM_NS + MEAN_BURST_NS) as f64;
        let expected = CALM_RPS * calm_share + BURST_RPS * (1.0 - calm_share);
        assert!(rate > CALM_RPS && rate < BURST_RPS, "{rate}");
        assert!((rate / expected - 1.0).abs() < 0.15, "{rate} vs {expected}");
    }
}
