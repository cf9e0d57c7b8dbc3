//! `park-perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload (or all of them), prints every metric by name with
//! its unit and context, then, as the last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics` (the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`). `--trace 1`
//! also replays every served op instead of a fixed prefix. Exits 1 when
//! any correctness check fails, 2 on bad arguments.

use park_perfbench::gen::Workload;
use park_perfbench::run::{run, runs_dir, Metric, Report};
use std::process::ExitCode;

/// End-to-end metrics printed but left out of the JSON result:
/// - `failed_ratio` is 0 on every correct run (the result's `failed`
///   carries it);
/// - `bytes_per_fact` is a property of the final data, not a measurement;
/// - the tails spread by 0.2 to 0.38 (quartile distance over median)
///   between runs on the host the benchmark was built on, more than any
///   bound a regression gate can use.
const HUMAN_ONLY: [&str; 5] = [
    "failed_ratio",
    "bytes_per_fact",
    "insert_tail_ms",
    "delete_tail_ms",
    "query_tail_ms",
];

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 40;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => seconds = value.parse().map_err(|_| "--seconds takes an integer")?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let workloads = if workload == "all" {
        Workload::ALL.to_vec()
    } else {
        vec![Workload::parse(&workload).ok_or(format!("unknown workload {workload}"))?]
    };
    Ok(Args {
        workloads,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("  {title}:");
    for m in metrics {
        println!(
            "    {:<36} {:>14} {:<5} ({})",
            m.name,
            format!("{:.4}", m.value),
            m.unit,
            m.note
        );
    }
}

/// Print a report; returns its JSON metric members (prefixed with the
/// workload name when several run).
fn print_report(w: Workload, report: &Report, trace: bool, prefix: bool) -> Vec<String> {
    println!("{}:", w.name());
    print_metrics("end-to-end (tracing off)", &report.end_to_end);
    print_metrics("per-layer (traced replay)", &report.per_layer);
    println!("  checks:");
    for c in &report.checks {
        println!("    {c}");
    }
    if trace {
        let path = runs_dir().join(format!("spans-{}.json", w.name()));
        let written = std::fs::create_dir_all(runs_dir())
            .and_then(|_| std::fs::write(&path, report.spans.to_json().to_compact()));
        match written {
            Ok(()) => println!(
                "  spans: {} spans written to {}",
                report.spans.spans().len(),
                path.display()
            ),
            Err(e) => println!("  spans: cannot write {}: {e}", path.display()),
        }
    }
    let metrics = if trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    metrics
        .iter()
        .filter(|m| !HUMAN_ONLY.contains(&m.name.as_str()))
        .map(|m| {
            let name = if prefix {
                format!("{}.{}", w.name(), m.name)
            } else {
                m.name.clone()
            };
            format!(
                r#""{name}":{{"value":{},"unit":"{}"}}"#,
                number(m.value),
                m.unit
            )
        })
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("park-perfbench: {e}");
            eprintln!(
                "usage: park-perfbench --workload <warm_mixed|cold_conflict|all> \
                 --seed <n> [--seconds <s>] [--trace <0|1>]"
            );
            return ExitCode::from(2);
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut members = Vec::new();
    for &w in &args.workloads {
        let report = run(w, args.seed, args.seconds, args.trace);
        members.extend(print_report(
            w,
            &report,
            args.trace,
            args.workloads.len() > 1,
        ));
        correct &= report.correct();
        attempted += report.attempted;
        failed += report.failed;
    }
    println!(
        r#"{{"correct":{correct},"attempted":{attempted},"failed":{failed},"metrics":{{{}}}}}"#,
        members.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
