//! The benchmark's command line.
//!
//! ```text
//! perfbench --workload fleet|serve|lint|fuzz --seed N --seconds S --trace 0|1
//! ```
//!
//! Human-readable detail goes to stderr; the last line of stdout is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
//! per-layer ones, and the spans are written under `.perfbench-out/`.
//! Exits 1 when any correctness check fails, 2 on bad arguments or a
//! debug build.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use jgre_perfbench::report::{json_string, peak_rss_mb, Host, RunResult, LAYER_METRICS};
use jgre_perfbench::{run_workload, Size, WORKLOADS};

const USAGE: &str =
    "usage: perfbench --workload fleet|serve|lint|fuzz --seed N --seconds S --trace 0|1";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or_else(|| format!("bad seconds {value}"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                });
            }
            _ => return Err(format!("unexpected argument {flag} {value}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn metric(out: &mut String, name: &str, value: f64, unit: &str) {
    if !out.ends_with('{') {
        out.push(',');
    }
    let _ = write!(
        out,
        "{}:{{\"value\":{value},\"unit\":{}}}",
        json_string(name),
        json_string(unit)
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host = Host::detect();
    eprintln!("perfbench: host {}", host.to_json());
    if host.profile != "release" {
        eprintln!(
            "perfbench: refusing to record results from a {} build",
            host.profile
        );
        return ExitCode::from(2);
    }

    let mut result = run_workload(
        &args.workload,
        args.seed,
        args.seconds as f64,
        args.trace,
        Size::Full,
    )
    .expect("workload name was validated");
    let rss = peak_rss_mb();

    let mut metrics = String::from("{");
    if args.trace {
        for (name, unit) in LAYER_METRICS {
            metric(
                &mut metrics,
                name,
                result.layers.get(name).copied().unwrap_or(0.0),
                unit,
            );
        }
    } else {
        let e2e = result
            .end_to_end
            .expect("untraced runs report end-to-end figures");
        metric(&mut metrics, "setup_s", e2e.setup_s, "s");
        metric(&mut metrics, "peak_rss_mb", rss.unwrap_or(0.0), "MB");
        metric(
            &mut metrics,
            "throughput_per_s",
            e2e.throughput_per_s,
            "1/s",
        );
        metric(&mut metrics, "latency_p50_ms", e2e.latency_p50_ms, "ms");
        metric(
            &mut metrics,
            "latency_tail_ms",
            e2e.latency_tail.value,
            "ms",
        );
        result.name("setup_s", e2e.setup_s, "s");
        result.name("peak_rss_mb", rss.unwrap_or(0.0), "MB");
        result.name(
            &format!(
                "latency_tail ({}, {} samples)",
                e2e.latency_tail.label(),
                e2e.latency_tail.samples
            ),
            e2e.latency_tail.value,
            "ms",
        );
        result
            .tally
            .check(rss.is_some(), || "peak RSS unreadable".to_owned());
    }
    metrics.push('}');
    let finite = !metrics.contains("NaN") && !metrics.contains("inf");
    result
        .tally
        .check(finite, || "a metric is not a finite number".to_owned());

    report(&args, &host, &result);
    if let Some(tracer) = &result.tracer {
        let path = PathBuf::from(".perfbench-out")
            .join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
        let header = format!(
            "{{\"workload\":{},\"seed\":{},\"host\":{}}}",
            json_string(&args.workload),
            args.seed,
            host.to_json()
        );
        match tracer.write_jsonl(&path, &header) {
            Ok(()) => eprintln!(
                "perfbench: {} spans written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => result
                .tally
                .check(false, || format!("writing {}: {e}", path.display())),
        }
    }

    let correct = result.tally.correct();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{metrics}}}",
        result.tally.attempted, result.tally.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The human-readable report on stderr.
fn report(args: &Args, host: &Host, result: &RunResult) {
    let mut out = format!(
        "perfbench: workload {} seed {} seconds {} trace {} — {} nproc, {}, {} build, {}, commit {}\n",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host.nproc,
        host.cpu,
        host.profile,
        host.rustc,
        host.commit
    );
    for (name, value, unit) in &result.named {
        let _ = writeln!(out, "  {name:<40} {value:>16.4} {unit}");
    }
    if args.trace {
        for (name, unit) in LAYER_METRICS {
            if let Some(value) = result.layers.get(name) {
                let _ = writeln!(out, "  {name:<40} {value:>16.4} {unit}");
            }
        }
    }
    let _ = writeln!(
        out,
        "  {:<40} {:>16.4} (failed {} of {} attempted)",
        "failed_share",
        result.tally.failed_share(),
        result.tally.failed,
        result.tally.attempted
    );
    for problem in &result.tally.problems {
        let _ = writeln!(out, "  FAILED: {problem}");
    }
    eprint!("{out}");
}
