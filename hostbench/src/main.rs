//! Host wall-clock benchmark of the NB-SMT reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path hostbench/Cargo.toml -- \
//!     --workload <zoo-resnet18|live-2t-mmpp|sim-control-1m> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run prints one `{"record": …}` line (host fingerprint, clock and
//! sample count of every metric) and, as its last line, the result object
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` reports the per-layer metrics and writes
//! the spans to `.hostbench-out/`. See `README.md` for what each workload
//! and metric means.

mod host;
mod live;
mod report;
mod sim;
mod stats;
mod trace;
mod zoo;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use report::{Json, Metric};
use trace::Tracer;

/// End-to-end metrics, reported by every workload on untraced runs.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("work_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("ok_frac", "share"),
];

/// Per-layer metrics, reported on traced runs. A workload that never calls
/// into a layer reports its metrics as 0 and lists them as not exercised.
const PER_LAYER: [(&str, &str); 34] = [
    ("quant.dense_ms", "ms"),
    ("core.fast2t_ms", "ms"),
    ("core.fast4t_ms", "ms"),
    ("core.overhead_2t", "ratio"),
    ("core.overhead_4t", "ratio"),
    ("core.scaling_2t", "ratio"),
    ("core.oracle_ratio", "ratio"),
    ("core.reduction_rate_2t", "share"),
    ("core.reduction_rate_4t", "share"),
    ("systolic.estimate_ms", "ms"),
    ("workloads.synth_ms", "ms"),
    ("serve.pool.submit_us_p50", "us"),
    ("serve.pool.queue_wait_p50_ms", "ms"),
    ("serve.pool.queue_wait_p99_ms", "ms"),
    ("serve.pool.service_p50_ms", "ms"),
    ("serve.pool.mean_batch", "count"),
    ("serve.pool.batches", "count"),
    ("serve.pool.rejected", "count"),
    ("serve.pool.shed_frac", "share"),
    ("serve.session.infer_ms_b1", "ms"),
    ("serve.session.infer_ms_b8", "ms"),
    ("serve.session.top1_agreement", "share"),
    ("core.fast2t_live_ms", "ms"),
    ("nn.glue_ms", "ms"),
    ("loadgen.lag_p99_ms", "ms"),
    ("workloads.train_ms", "ms"),
    ("serve.traffic.gen_ms", "ms"),
    ("serve.sim.loop_ms", "ms"),
    ("serve.sim.ns_per_batch", "ns"),
    ("serve.sim.batches", "count"),
    ("serve.control.events", "count"),
    ("serve.control.virt_replica_s", "s"),
    ("bench.trace_overhead", "share"),
    ("bench.spans", "count"),
];

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// One run's settings, from the command line.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measured time budget [s].
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

/// What a workload hands back.
pub struct Outcome {
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (errors or wrong outputs).
    pub failed: u64,
    /// Output-check failures; any entry makes the run incorrect.
    pub problems: Vec<String>,
    /// Spans of the run (empty unless traced).
    pub tracer: Tracer,
    /// Extra fields for the record line (e.g. a latency tail summary).
    pub record: Vec<(&'static str, Json)>,
}

/// Runs `f` [`SETUP_REPEATS`] times and returns the last result with every
/// set-up's duration in seconds.
pub fn repeat_setup<T>(mut f: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut secs = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        last = Some(f());
        secs.push(start.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), secs)
}

/// The workloads, by name.
const WORKLOADS: [&str; 3] = ["zoo-resnet18", "live-2t-mmpp", "sim-control-1m"];

struct Args {
    workload: String,
    config: RunConfig,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => {
                return Err(format!(
                    "unknown workload '{value}' (expected one of {})",
                    WORKLOADS.join(", ")
                ))
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        config: RunConfig {
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.unwrap_or(false),
        },
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cfg = args.config;
    let tracer = Tracer::new(cfg.trace, Instant::now());
    let result = match args.workload.as_str() {
        "zoo-resnet18" => zoo::run(&cfg, tracer),
        "live-2t-mmpp" => live::run(&cfg, tracer),
        "sim-control-1m" => sim::run(&cfg, tracer),
        _ => unreachable!("workload names are validated by parse_args"),
    };
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("hostbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    match finish(&args.workload, &cfg, outcome) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("hostbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// Orders the workload's metrics by the catalog, writes the trace, and
/// prints the record and result lines. Returns whether the run was correct.
fn finish(workload: &str, cfg: &RunConfig, outcome: Outcome) -> Result<bool, String> {
    let catalog: &[(&'static str, &'static str)] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    if let Some(m) = outcome
        .metrics
        .iter()
        .find(|m| !catalog.iter().any(|(n, _)| *n == m.name))
    {
        return Err(format!("metric {} is not in the catalog", m.name));
    }
    let mut ordered = Vec::with_capacity(catalog.len());
    let mut not_exercised = Vec::new();
    for &(name, unit) in catalog {
        match outcome.metrics.iter().find(|m| m.name == name) {
            Some(m) if m.value.is_finite() => ordered.push((m.clone(), unit)),
            Some(m) => return Err(format!("metric {name} is not finite ({})", m.value)),
            None if cfg.trace => {
                not_exercised.push(Json::str(name));
                ordered.push((Metric::host(name, 0.0), unit));
            }
            None => return Err(format!("end-to-end metric {name} was not measured")),
        }
    }

    let trace_file = if cfg.trace {
        let path =
            PathBuf::from(".hostbench-out").join(format!("{workload}-seed{}-trace.json", cfg.seed));
        outcome
            .tracer
            .write_json(
                &path,
                vec![
                    ("workload", Json::str(workload)),
                    ("seed", Json::Num(cfg.seed as f64)),
                ],
            )
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        Json::str(&path.display().to_string())
    } else {
        Json::Null
    };

    let correct = outcome.problems.is_empty() && outcome.failed == 0;
    let record = Json::object(vec![
        ("workload", Json::str(workload)),
        ("seed", Json::Num(cfg.seed as f64)),
        ("seconds", Json::Num(cfg.seconds)),
        ("trace", Json::Bool(cfg.trace)),
        ("host", host::Fingerprint::detect().to_json()),
        ("metrics", report::metrics_json(&ordered, true)),
        ("not_exercised", Json::Arr(not_exercised)),
        (
            "problems",
            Json::Arr(outcome.problems.iter().map(|p| Json::str(p)).collect()),
        ),
        ("trace_file", trace_file),
        ("details", Json::object(outcome.record)),
    ]);
    println!("{}", Json::object(vec![("record", record)]).render());
    let result = Json::object(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(outcome.attempted.max(1) as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", report::metrics_json(&ordered, false)),
    ]);
    println!("{}", result.render());
    for p in &outcome.problems {
        eprintln!("hostbench: check failed: {p}");
    }
    Ok(correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse_args(&argv(
            "--workload zoo-resnet18 --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, "zoo-resnet18");
        assert_eq!(a.config.seed, 7);
        assert_eq!(a.config.seconds, 10.0);
        assert!(a.config.trace);
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload zoo-resnet18 --seed 1 --seconds 0")).is_err());
        assert!(parse_args(&argv(
            "--workload zoo-resnet18 --seed 1 --seconds 1 --trace 2"
        ))
        .is_err());
        assert!(parse_args(&argv("--workload zoo-resnet18 --seconds 1")).is_err());
    }

    /// The catalogs here and the metric lists in `BENCHMARK.json` name the
    /// same metrics with the same units.
    #[test]
    fn catalog_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let compact: String = text.split_whitespace().collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!(r#"{{"name":"{name}","unit":"{unit}""#);
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = compact.matches(r#""unit":"#).count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
        for w in WORKLOADS {
            assert!(compact.contains(&format!(r#""name":"{w}""#)), "{w}");
        }
    }
}
