//! `zoo-resnet18`: ResNet-18's NB-SMT layers through the emulation kernels.
//!
//! Closed loop, one caller. A pass runs every NB-SMT layer of
//! `zoo::resnet18()` (operands from `calib::synthesize_model` at the
//! full-scale caps) through four public calls: dense
//! `quantized_matmul_with`, `NbSmtMatmul::execute_with` at 2T and at 4T, and
//! `OutputStationaryArray::estimate`. GEMMs are nearly all of the time here;
//! no serving or simulator code runs.

use std::time::Instant;

use nbsmt_core::matmul::{reference_output_with, NbSmtMatmul, NbSmtMatmulConfig, NbSmtOutput};
use nbsmt_core::pe::PeStats;
use nbsmt_quant::quantize::quantized_matmul_with;
use nbsmt_systolic::array::{OutputStationaryArray, SimStats, SystolicConfig};
use nbsmt_tensor::exec::{available_threads, ExecContext};
use nbsmt_tensor::tensor::Matrix;
use nbsmt_workloads::calib::{synthesize_model, SynthesisOptions, SynthesizedLayer};
use nbsmt_workloads::zoo::resnet18;

use crate::report::{Json, Metric};
use crate::stats::{median, p99, summarize};
use crate::trace::{SpanId, Tracer};
use crate::{repeat_setup, Outcome, RunConfig};

/// Full-scale row cap of the synthesized operands (GEMM rows per layer).
const MAX_ROWS: usize = 192;
/// Full-scale column cap (output channels per layer).
const MAX_COLS: usize = 96;
/// Kernel calls the end-to-end p99 needs: ten beyond the 99th percentile.
const MIN_CALLS: usize = 1000;
/// Single-thread passes the traced run times for `core.scaling_2t`.
const SCALING_PASSES: usize = 2;

/// Outputs of one pass, kept from the first pass to check the others.
struct PassOutputs {
    dense: Vec<Matrix<f32>>,
    fast2: Vec<NbSmtOutput>,
    fast4: Vec<NbSmtOutput>,
    estimate: Vec<SimStats>,
}

/// Per-pass host times of each kind of call [s].
#[derive(Default)]
struct PassTimes {
    pass: Vec<f64>,
    dense: Vec<f64>,
    fast2: Vec<f64>,
    fast4: Vec<f64>,
    estimate: Vec<f64>,
    /// Every single call, for the per-call latency distribution.
    calls: Vec<f64>,
}

struct Kernels {
    ctx: ExecContext,
    fast2: NbSmtMatmul,
    fast4: NbSmtMatmul,
    array: OutputStationaryArray,
}

fn setup(seed: u64) -> Vec<SynthesizedLayer> {
    synthesize_model(
        &resnet18(),
        &SynthesisOptions {
            max_rows: MAX_ROWS,
            max_cols: MAX_COLS,
            weight_sparsity_override: None,
            seed,
        },
    )
}

/// Runs one pass; compares its outputs with `first` (or becomes `first`).
/// Returns the number of calls whose output differed.
fn pass(
    k: &Kernels,
    layers: &[SynthesizedLayer],
    tracer: &mut Tracer,
    times: &mut PassTimes,
    first: &mut Option<PassOutputs>,
) -> Result<u64, String> {
    let start = Instant::now();
    let root = tracer.open("zoo.pass", None);
    let mut out = PassOutputs {
        dense: Vec::with_capacity(layers.len()),
        fast2: Vec::with_capacity(layers.len()),
        fast4: Vec::with_capacity(layers.len()),
        estimate: Vec::with_capacity(layers.len()),
    };
    let mut sums = [0.0f64; 4];
    for layer in layers {
        let (x, w) = (&layer.activations, &layer.weights);
        let parent: SpanId = root;
        let (dense, t0) = tracer.time("quant.quantized_matmul_with", parent, || {
            quantized_matmul_with(&k.ctx, x, w)
        });
        let (f2, t1) = tracer.time("core.execute_with.2t", parent, || {
            k.fast2.execute_with(&k.ctx, x, w)
        });
        let (f4, t2) = tracer.time("core.execute_with.4t", parent, || {
            k.fast4.execute_with(&k.ctx, x, w)
        });
        let (est, t3) = tracer.time("systolic.estimate", parent, || {
            k.array.estimate(x.values(), w.values())
        });
        let err = |e: nbsmt_tensor::error::TensorError| format!("{}: {e}", layer.name);
        out.dense.push(dense.map_err(err)?);
        out.fast2.push(f2.map_err(err)?);
        out.fast4.push(f4.map_err(err)?);
        out.estimate.push(est.map_err(err)?);
        for (sum, t) in sums.iter_mut().zip([t0, t1, t2, t3]) {
            *sum += t.as_secs_f64();
            times.calls.push(t.as_secs_f64());
        }
    }
    tracer.close(root);
    times.pass.push(start.elapsed().as_secs_f64());
    times.dense.push(sums[0]);
    times.fast2.push(sums[1]);
    times.fast4.push(sums[2]);
    times.estimate.push(sums[3]);

    let Some(f) = first.as_ref() else {
        *first = Some(out);
        return Ok(0);
    };
    let differs = |a: bool| u64::from(!a);
    let mut mismatches = 0;
    for i in 0..layers.len() {
        mismatches += differs(out.dense[i] == f.dense[i])
            + differs(out.fast2[i] == f.fast2[i])
            + differs(out.fast4[i] == f.fast4[i])
            + differs(out.estimate[i] == f.estimate[i]);
    }
    Ok(mismatches)
}

/// Runs the measured loop for `seconds` (and at least `min_calls` calls).
#[allow(clippy::too_many_arguments)]
fn measure(
    k: &Kernels,
    layers: &[SynthesizedLayer],
    seconds: f64,
    min_calls: usize,
    tracer: &mut Tracer,
    first: &mut Option<PassOutputs>,
    failed: &mut u64,
) -> Result<PassTimes, String> {
    let mut times = PassTimes::default();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds || times.calls.len() < min_calls {
        *failed += pass(k, layers, tracer, &mut times, first)?;
    }
    Ok(times)
}

fn reduction_rate(outputs: &[NbSmtOutput]) -> f64 {
    let mut total = PeStats::default();
    for o in outputs {
        total.merge(&o.stats);
    }
    total.reduced_thread_slots as f64 / total.active_thread_slots.max(1) as f64
}

/// Runs the workload.
pub fn run(cfg: &RunConfig, mut tracer: Tracer) -> Result<Outcome, String> {
    let (layers, setup_secs) = repeat_setup(|| setup(cfg.seed));
    let k = Kernels {
        ctx: ExecContext::with_threads(available_threads()),
        fast2: NbSmtMatmul::new(NbSmtMatmulConfig::two_threads()),
        fast4: NbSmtMatmul::new(NbSmtMatmulConfig::four_threads()),
        array: OutputStationaryArray::new(SystolicConfig::paper_16x16()),
    };
    let macs_per_pass: f64 = layers
        .iter()
        .map(|l| 3.0 * (l.activations.rows() * l.activations.cols() * l.weights.cols()) as f64)
        .sum();

    let mut first = None;
    // Kernel calls whose outputs differed from the first pass's.
    let mut drift = 0u64;
    let mut attempted = 0u64;
    let mut problems = Vec::new();
    let mut metrics = Vec::new();
    let mut record = vec![
        ("threads", Json::Num(k.ctx.threads() as f64)),
        ("macs_per_pass", Json::Num(macs_per_pass)),
    ];

    if cfg.trace {
        // Half the budget untraced, half traced: the difference is the
        // tracing overhead.
        let mut off = Tracer::disabled();
        let half = cfg.seconds / 2.0;
        let plain = measure(&k, &layers, half, 0, &mut off, &mut first, &mut drift)?;
        let times = measure(&k, &layers, half, 0, &mut tracer, &mut first, &mut drift)?;
        attempted += (plain.calls.len() + times.calls.len()) as u64;
        let dense = median(&times.dense) * 1e3;
        let fast2 = median(&times.fast2) * 1e3;
        let fast4 = median(&times.fast4) * 1e3;

        // Thread scaling of the 2T fast path: 1 thread against `nproc`.
        let one = ExecContext::with_threads(1);
        let mut single = Vec::with_capacity(SCALING_PASSES);
        for _ in 0..SCALING_PASSES {
            let root = tracer.open("zoo.scaling_pass_1thread", None);
            let mut sum = 0.0;
            for l in &layers {
                let (r, t) = tracer.time("core.execute_with.2t", root, || {
                    k.fast2.execute_with(&one, &l.activations, &l.weights)
                });
                r.map_err(|e| format!("{}: {e}", l.name))?;
                sum += t.as_secs_f64();
            }
            tracer.close(root);
            single.push(sum);
        }
        let f = first.as_ref().expect("at least one pass ran");
        metrics.extend([
            Metric::host("quant.dense_ms", dense).over(times.dense.len()),
            Metric::host("core.fast2t_ms", fast2).over(times.fast2.len()),
            Metric::host("core.fast4t_ms", fast4).over(times.fast4.len()),
            Metric::host("core.overhead_2t", fast2 / dense),
            Metric::host("core.overhead_4t", fast4 / dense),
            Metric::host("core.scaling_2t", median(&single) * 1e3 / fast2).over(single.len()),
            Metric::modelled("core.reduction_rate_2t", reduction_rate(&f.fast2)),
            Metric::modelled("core.reduction_rate_4t", reduction_rate(&f.fast4)),
            Metric::host("systolic.estimate_ms", median(&times.estimate) * 1e3)
                .over(times.estimate.len()),
            Metric::host("workloads.synth_ms", median(&setup_secs) * 1e3).over(setup_secs.len()),
            Metric::host(
                "bench.trace_overhead",
                median(&times.pass) / median(&plain.pass) - 1.0,
            ),
        ]);
    } else {
        let mut off = Tracer::disabled();
        let times = measure(
            &k,
            &layers,
            cfg.seconds,
            MIN_CALLS,
            &mut off,
            &mut first,
            &mut drift,
        )?;
        attempted += times.calls.len() as u64;
        let per_pass: Vec<f64> = times.pass.iter().map(|t| macs_per_pass / t).collect();
        let calls_ms: Vec<f64> = times.calls.iter().map(|t| t * 1e3).collect();
        let n = calls_ms.len();
        record.push(("call_latency_ms", summarize(&calls_ms).to_json()));
        let ok = (n as f64 - drift as f64) / n as f64;
        metrics.extend([
            Metric::host("setup_s", median(&setup_secs)).over(setup_secs.len()),
            Metric::host("work_per_s", median(&per_pass)).over(per_pass.len()),
            Metric::host("latency_p50_ms", median(&calls_ms)).over(n),
            Metric::host("latency_p99_ms", p99(&calls_ms)?).over(n),
            Metric::host("ok_frac", ok).over(n),
        ]);
    }

    let mut failed = drift;
    if drift > 0 {
        problems.push(format!(
            "{drift} kernel calls returned outputs that differ from the first pass"
        ));
    }
    // Output checks that need no timing: dense against the sequential
    // reference kernel on every layer, and the fast path against the
    // event-walking oracle on one layer, rotating with the seed.
    let f = first.as_ref().expect("at least one pass ran");
    let seq = ExecContext::sequential();
    for (i, l) in layers.iter().enumerate() {
        let reference = reference_output_with(&seq, &l.activations, &l.weights)
            .map_err(|e| format!("{}: {e}", l.name))?;
        if reference != f.dense[i] {
            failed += 1;
            problems.push(format!(
                "{}: dense output differs from the reference",
                l.name
            ));
        }
    }
    let pick = (cfg.seed % layers.len() as u64) as usize;
    let l = &layers[pick];
    record.push(("oracle_layer", Json::str(&l.name)));
    let (oracle2, t_oracle) = tracer.time("core.execute_event_with.2t", None, || {
        k.fast2
            .execute_event_with(&k.ctx, &l.activations, &l.weights)
    });
    let (oracle4, _) = tracer.time("core.execute_event_with.4t", None, || {
        k.fast4
            .execute_event_with(&k.ctx, &l.activations, &l.weights)
    });
    let err = |e| format!("{}: {e}", l.name);
    for (oracle, fast, label) in [
        (oracle2, &f.fast2[pick], "2T"),
        (oracle4, &f.fast4[pick], "4T"),
    ] {
        if oracle.map_err(err)? != *fast {
            failed += 1;
            problems.push(format!(
                "{}: {label} fast path differs from the oracle",
                l.name
            ));
        }
    }
    if cfg.trace {
        let (_, t_fast) = tracer.time("core.execute_with.2t", None, || {
            k.fast2.execute_with(&k.ctx, &l.activations, &l.weights)
        });
        metrics.push(Metric::host(
            "core.oracle_ratio",
            t_oracle.as_secs_f64() / t_fast.as_secs_f64(),
        ));
        metrics.push(Metric::host("bench.spans", tracer.len() as f64));
    } else {
        metrics.push(Metric::host(
            "peak_rss_mb",
            crate::host::peak_rss_mb().ok_or("no /proc/self/status")?,
        ));
    }
    // Reference checks on every layer plus the two oracle checks.
    attempted += layers.len() as u64 + 2;
    Ok(Outcome {
        metrics,
        attempted,
        failed,
        problems,
        tracer,
        record,
    })
}
