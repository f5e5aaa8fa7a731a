//! End-to-end and per-layer benchmark of koala-rs.
//!
//! ```text
//! e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One client drives the named workload as a closed loop on one executor
//! thread per available CPU. With `--trace 0` the run measures for
//! `--seconds` untraced and reports the end-to-end metrics; with `--trace 1`
//! it splits the time into an untraced run, a traced replay through the
//! per-layer public calls and an untraced single-thread run, and reports the
//! per-layer metrics. Every run checks the workload's outputs. The last line
//! of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! The exit code is 0 only when every check passed.

mod dist;
mod ite;
mod rqc;
mod serve;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use workload::{percentile, run_phase, Phase, Workload};

const USAGE: &str =
    "usage: e2ebench --workload <ite_tfi|rqc_peps|serve_mixed|dist_tebd> --seed <n> \
     --seconds <s> --trace <0|1>";

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Spans whose busy time is reported per op (`<span>_ms`).
const ENGINE_SPANS: [&str; 6] = [
    "peps.expectation",
    "peps.norm",
    "peps.update",
    "peps.amplitude",
    "circuit.simplify",
    "peps.dist_update",
];
/// Spans of the served workload, reported as shares of the traced wall.
const SERVE_SPANS: [&str; 4] = ["json.parse", "serve.submit", "serve.drain", "json.encode"];

/// Every per-layer metric with its unit, in output order. A metric a
/// workload does not reach reads 0.
const PER_LAYER: [(&str, &str); 45] = [
    ("peps.expectation_ms", "ms"),
    ("peps.norm_ms", "ms"),
    ("peps.update_ms", "ms"),
    ("peps.amplitude_ms", "ms"),
    ("circuit.simplify_ms", "ms"),
    ("peps.dist_update_ms", "ms"),
    ("peps.expectation.share", "frac"),
    ("peps.norm.share", "frac"),
    ("peps.update.share", "frac"),
    ("peps.amplitude.share", "frac"),
    ("circuit.simplify.share", "frac"),
    ("peps.dist_update.share", "frac"),
    ("json.parse.share", "frac"),
    ("serve.submit.share", "frac"),
    ("serve.drain.share", "frac"),
    ("json.encode.share", "frac"),
    ("linalg.complex_macs", "count"),
    ("linalg.real_macs", "count"),
    ("linalg.bytes", "B"),
    ("linalg.real_share", "frac"),
    ("linalg.hw_gflops", "GFLOP/s"),
    ("linalg.transposes", "count"),
    ("tensor.plan_hits", "count"),
    ("tensor.plan_misses", "count"),
    ("tensor.plan_hit_ratio", "frac"),
    ("tensor.plan_evictions", "count"),
    ("exec.threads", "count"),
    ("exec.nproc", "count"),
    ("exec.speedup", "x"),
    ("serve.submit_us", "us"),
    ("serve.exec_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.concurrency", "x"),
    ("serve.warm_plan_misses", "count"),
    ("json.parse_us", "us"),
    ("json.encode_us", "us"),
    ("json.reply_bytes", "B"),
    ("cluster.bytes", "B"),
    ("cluster.messages", "count"),
    ("cluster.collectives", "count"),
    ("cluster.redistributions", "count"),
    ("cluster.imbalance", "x"),
    ("error.recovery_events", "count"),
    ("trace.overhead", "x"),
    ("trace.other_share", "frac"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let name = flag.strip_prefix("--").ok_or(format!("unexpected argument '{flag}'"))?;
        let value = it.next().ok_or(format!("--{name} needs a value"))?;
        flags.insert(name.to_string(), value);
    }
    let get = |name: &str| flags.get(name).ok_or(format!("missing --{name}"));
    let workload = get("workload")?.clone();
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
    };
    if flags.len() != 4 {
        return Err("unknown flag".to_string());
    }
    Ok(Args { workload, seed, seconds, trace })
}

/// Input construction, pool start-up and warm-up ops. The plan cache is
/// emptied first, so each set-up pays its planning again.
fn setup(name: &str, seed: u64, threads: usize) -> Result<Box<dyn Workload>, String> {
    koala_tensor::clear_plan_cache();
    koala_exec::set_threads(threads);
    Ok(match name {
        "ite_tfi" => Box::new(ite::Ite::setup(seed)?),
        "rqc_peps" => Box::new(rqc::Rqc::setup(seed)?),
        "serve_mixed" => Box::new(serve::Serve::setup(seed)?),
        "dist_tebd" => Box::new(dist::Dist::setup(seed)?),
        other => return Err(format!("unknown workload '{other}'")),
    })
}

/// Peak resident memory of this process (VmHWM), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

struct Report {
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                // A non-finite value only arises from a failed check, which
                // already marks the run incorrect; keep the line valid JSON.
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(
    setup_s: f64,
    phase: &Phase,
    (attempted, failed): (usize, usize),
    energy_err: f64,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    Ok(vec![
        ("setup_s", setup_s, "s"),
        ("ops_per_s", phase.ops() as f64 / phase.wall_s, "1/s"),
        ("op_p50_ms", percentile(&phase.latencies_s, 0.5) * 1e3, "ms"),
        ("op_p90_ms", percentile(&phase.latencies_s, 0.9) * 1e3, "ms"),
        ("peak_rss_mb", peak_rss_mb()?, "MB"),
        ("ok_frac", 1.0 - failed as f64 / attempted.max(1) as f64, "frac"),
        ("energy_err", energy_err, "J/site"),
    ])
}

/// The per-layer metrics of a traced phase, with the untraced (`base`) and
/// single-thread (`single`) phases that frame it and the workload's own
/// figures of the traced phase (`extras`).
fn per_layer(
    extras: Vec<(&'static str, f64)>,
    tracer: &Tracer,
    traced: &Phase,
    base: &Phase,
    single: &Phase,
    threads: usize,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let ops = traced.ops().max(1) as f64;
    let wall_ns = traced.wall_s * 1e9;
    let busy_ns = tracer.total_busy_ns() as f64;
    if busy_ns > wall_ns {
        return Err("spans cover more than the traced wall".to_string());
    }
    if let Some(name) =
        tracer.span_names().find(|n| !ENGINE_SPANS.contains(n) && !SERVE_SPANS.contains(n))
    {
        return Err(format!("span '{name}' has no metric"));
    }
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    for span in ENGINE_SPANS {
        values.insert(format!("{span}_ms"), tracer.busy_ns(span) as f64 / 1e6 / ops);
    }
    for span in ENGINE_SPANS.iter().chain(&SERVE_SPANS) {
        values.insert(format!("{span}.share"), tracer.busy_ns(span) as f64 / wall_ns);
    }
    let c = tracer.counters();
    let macs = (c.work.real_macs + c.work.complex_macs) as f64;
    let lookups = (c.plan_hits + c.plan_misses) as f64;
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let computed = [
        ("linalg.complex_macs", c.work.complex_macs as f64 / ops),
        ("linalg.real_macs", c.work.real_macs as f64 / ops),
        ("linalg.bytes", c.work.bytes as f64 / ops),
        ("linalg.real_share", if macs > 0.0 { c.work.real_macs as f64 / macs } else { 0.0 }),
        ("linalg.hw_gflops", if busy_ns > 0.0 { c.work.hw_flops() / busy_ns } else { 0.0 }),
        ("linalg.transposes", c.transposes as f64 / ops),
        ("tensor.plan_hits", c.plan_hits as f64 / ops),
        ("tensor.plan_misses", c.plan_misses as f64 / ops),
        ("tensor.plan_hit_ratio", if lookups > 0.0 { c.plan_hits as f64 / lookups } else { 0.0 }),
        ("tensor.plan_evictions", c.plan_evictions as f64 / ops),
        ("exec.threads", threads as f64),
        ("exec.nproc", nproc as f64),
        ("exec.speedup", single.per_op_s() / base.per_op_s()),
        ("error.recovery_events", c.recovery_events as f64),
        ("trace.overhead", traced.per_op_s() / base.per_op_s()),
        ("trace.other_share", (wall_ns - busy_ns) / wall_ns),
    ];
    for (name, value) in computed.into_iter().chain(extras) {
        values.insert(name.to_string(), value);
    }
    if let Some(name) = values.keys().find(|k| !PER_LAYER.iter().any(|(n, _)| n == k)) {
        return Err(format!("metric '{name}' is not in the per-layer list"));
    }
    Ok(PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v = values.get(name).copied().unwrap_or(0.0);
            (name, if v.is_finite() { v } else { 0.0 }, unit)
        })
        .collect())
}

fn run(args: &Args) -> Result<Report, String> {
    let threads = std::thread::available_parallelism().map_or(1, usize::from);

    let mut setup_times = Vec::with_capacity(SETUP_REPS);
    let mut instance = None;
    for _ in 0..SETUP_REPS {
        drop(instance.take());
        let start = Instant::now();
        let w = setup(&args.workload, args.seed, threads)?;
        setup_times.push(start.elapsed().as_secs_f64());
        instance = Some(w);
    }
    let mut w = instance.ok_or("no set-up ran")?;

    // Reference values and set-up checks, outside `setup_s`. A failed check
    // counts as one failed op.
    let mut check_failures = 0;
    if let Err(e) = w.prepare_checks() {
        eprintln!("e2ebench: check failed: {e}");
        check_failures += 1;
    }
    let energy_err = match w.energy_err() {
        Some(e) => e,
        None => match ite::reference_job(args.seed) {
            Ok(energies) => energies.last().map_or(f64::NAN, |&e| ite::energy_gap(e)),
            Err(e) => {
                eprintln!("e2ebench: check failed: {e}");
                check_failures += 1;
                f64::NAN
            }
        },
    };

    let report = if args.trace {
        let third = args.seconds / 3.0;
        w.restart();
        let base = run_phase(w.as_mut(), &mut Tracer::off(), third);
        w.restart();
        w.begin_traced();
        let mut tracer = Tracer::on();
        let traced = run_phase(w.as_mut(), &mut tracer, third);
        let extras = w.layer_metrics(&tracer, traced.ops());
        koala_exec::set_threads(1);
        w.restart();
        let single = run_phase(w.as_mut(), &mut Tracer::off(), third);
        koala_exec::set_threads(threads);
        let metrics = per_layer(extras, &tracer, &traced, &base, &single, threads)?;
        let phases = [&base, &traced, &single];
        Report {
            attempted: phases.iter().map(|p| p.ops()).sum::<usize>() + check_failures,
            failed: phases.iter().map(|p| p.failed).sum::<usize>() + check_failures,
            metrics,
        }
    } else {
        w.restart();
        let phase = run_phase(w.as_mut(), &mut Tracer::off(), args.seconds);
        let attempted = phase.ops() + check_failures;
        let failed = phase.failed + check_failures;
        let setup_s = percentile(&setup_times, 0.5);
        Report {
            attempted,
            failed,
            metrics: end_to_end(setup_s, &phase, (attempted, failed), energy_err)?,
        }
    };
    eprintln!(
        "e2ebench: {} seed {} on {threads} threads: {} ops, {} failed",
        args.workload, args.seed, report.attempted, report.failed
    );
    Ok(report)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            println!("{}", report.json());
            if report.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}
