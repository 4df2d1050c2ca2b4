//! Serve-path benchmark for the sharded entity runtime.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <hot-oltp|big-state|durable-transfer|all> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Each run drives one seeded workload through the real front door
//! (`ShardRuntime::serve`, `ClientSession::submit`,
//! `ServiceHandle::read_field`): a saturated closed loop, then a paced open
//! loop with point reads and a freshness probe beside it. Every run is
//! checked against the sequential `LocalRuntime` oracle. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` — the gated end-to-end metrics with `--trace 0`; with
//! `--trace 1` the per-layer metrics of a traced pass that follows an
//! untraced one. Every end-to-end metric is printed above that line. The
//! process exits non-zero on any oracle divergence or failed call. See
//! `METRICS.md` for what each metric means and which layer moves it.

mod alloc;
mod gen;
mod oracle;
mod procfs;
mod report;
mod run;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("seconds must be in (0, 120], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace,
    })
}

/// Outcome of one workload invocation.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<report::Metric>,
    text: String,
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn run_workload(w: workload::Workload, args: &Args, out: &Path) -> Result<Outcome, String> {
    let plain = run::run_pass(run::PassConfig {
        workload: w,
        seed: args.seed,
        seconds: args.seconds,
        out_dir: out,
        tracer: None,
    })?;
    let mut text = report::describe(&format!("{} seed {} untraced", w.name, args.seed), &plain);
    if !args.trace {
        return Ok(Outcome {
            correct: plain.correct(),
            attempted: plain.attempted(),
            failed: plain.failed(),
            metrics: report::end_to_end(&plain),
            text,
        });
    }
    let mut tracer = trace::Tracer::new();
    let traced = run::run_pass(run::PassConfig {
        workload: w,
        seed: args.seed,
        seconds: args.seconds,
        out_dir: out,
        tracer: Some(&mut tracer),
    })?;
    text.push_str(&report::describe(
        &format!("{} seed {} traced", w.name, args.seed),
        &traced,
    ));
    let csv = out.join(format!("trace-{}-{}.csv", w.name, args.seed));
    tracer
        .write_csv(&csv)
        .map_err(|e| format!("writing {}: {e}", csv.display()))?;
    text.push_str(&format!(
        "  spans: {} written to {}\n",
        tracer.len(),
        csv.display()
    ));
    Ok(Outcome {
        correct: plain.correct() && traced.correct(),
        attempted: plain.attempted() + traced.attempted(),
        failed: plain.failed() + traced.failed(),
        metrics: report::per_layer(&traced, &plain),
        text,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <hot-oltp|big-state|durable-transfer|all> \
                 --seed <n> --seconds <n> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let chosen: Vec<workload::Workload> = if args.workload == "all" {
        workload::all().to_vec()
    } else {
        match workload::by_name(&args.workload) {
            Some(w) => vec![w],
            None => {
                eprintln!("perfbench: unknown workload {}", args.workload);
                std::process::exit(2);
            }
        }
    };
    let out = out_dir();
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("perfbench: creating {}: {e}", out.display());
        std::process::exit(1);
    }
    let mut all_correct = true;
    for w in chosen {
        match run_workload(w, &args, &out) {
            Ok(o) => {
                print!("{}", o.text);
                println!(
                    "{}",
                    report::json_line(o.correct, o.attempted, o.failed, &o.metrics)
                );
                all_correct &= o.correct;
            }
            Err(e) => {
                eprintln!("perfbench: {}: {e}", w.name);
                std::process::exit(1);
            }
        }
    }
    if !all_correct {
        eprintln!("perfbench: a run failed its checks (oracle divergence, failed calls or too few samples)");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&argv("--workload hot-oltp --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            a,
            Args {
                workload: "hot-oltp".into(),
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
        assert!(parse_args(&argv("--workload x --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload x --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--seed 1 --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload")).is_err());
    }

    /// A short run of every workload, untraced and traced: every named
    /// metric prints with its unit and the run passes its checks.
    #[test]
    fn smoke_every_workload_prints_every_metric() {
        let dir = out_dir().join(format!("smoke-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for w in workload::all() {
            let args = Args {
                workload: w.name.to_string(),
                seed: 3,
                seconds: 2.0,
                trace: true,
            };
            let o = run_workload(w, &args, &dir).expect("smoke run");
            assert!(o.correct, "{}: {}", w.name, o.text);
            assert_eq!(o.failed, 0);
            for e in report::END_TO_END {
                let line = format!("  {:<16}", e.name);
                assert!(
                    o.text
                        .lines()
                        .any(|l| l.starts_with(&line) && l.contains(&format!(" {}", e.unit))),
                    "{}: {} missing from\n{}",
                    w.name,
                    e.name,
                    o.text
                );
            }
            let line = report::json_line(o.correct, o.attempted, o.failed, &o.metrics);
            for metric in &o.metrics {
                assert!(line.contains(&format!("\"{}\": {{\"value\": ", metric.name)));
                assert!(!metric.unit.is_empty());
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
