//! Metric assembly and the result line.
//!
//! The untraced pass gives the end-to-end metrics; the traced pass gives the
//! per-layer metrics, plus its own end-to-end numbers beside the untraced
//! ones so the cost of tracing shows.

use crate::run::Pass;
use std::fmt::Write;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// One end-to-end metric: its name, the name it carries among the
/// per-layer metrics, its unit, and whether it is gated.
pub struct EndToEnd {
    pub name: &'static str,
    pub layer_name: &'static str,
    pub unit: &'static str,
    pub gated: bool,
}

const fn e2e(
    name: &'static str,
    layer_name: &'static str,
    unit: &'static str,
    gated: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        layer_name,
        unit,
        gated,
    }
}

/// Every end-to-end metric, in print order. The gated ones — set-up time and
/// peak memory — form the result line of an untraced run, and
/// `BENCHMARK.json` bounds them. The others are printed beside them and
/// carried in the traced run's result line under `e2e.`: on a shared 2-CPU
/// host with up to 40% steal time, the run-to-run spread of throughput,
/// latency and even CPU per call (which follows batching, and batching
/// follows timing) is wider than any bound the benchmark may set;
/// `restart_s` exists on one workload only; `error_rate` is zero on a
/// correct run.
pub const END_TO_END: [EndToEnd; 11] = [
    e2e("setup_s", "e2e.setup_s", "s", true),
    e2e("throughput_rps", "e2e.throughput_rps", "1/s", false),
    e2e("sat_cpu_us_per_req", "e2e.sat_cpu_us_per_req", "us", false),
    e2e("p50_ms", "e2e.p50_ms", "ms", false),
    e2e("p99_ms", "e2e.p99_ms", "ms", false),
    e2e("cpu_us_per_req", "e2e.cpu_us_per_req", "us", false),
    e2e("read_p99_us", "e2e.read_p99_us", "us", false),
    e2e("fresh_p50_ms", "e2e.fresh_p50_ms", "ms", false),
    e2e("restart_s", "e2e.restart_s", "s", false),
    e2e("peak_rss_mb", "e2e.peak_rss_mb", "MiB", true),
    e2e("error_rate", "e2e.error_rate", "ratio", false),
];

/// Values of [`END_TO_END`] for one pass, in the same order.
fn e2e_values(p: &Pass) -> [f64; 11] {
    let g = &p.gen;
    [
        p.setup_s,
        g.throughput_rps,
        g.sat_cpu_us_per_req,
        g.p50_ms,
        g.p99_ms.unwrap_or(0.0),
        g.cpu_us_per_req,
        g.read_p99_us.unwrap_or(0.0),
        g.fresh_p50_ms,
        p.restart_s.unwrap_or(0.0),
        p.peak_rss_mb,
        p.error_rate(),
    ]
}

/// The gated end-to-end metrics of an untraced pass.
pub fn end_to_end(p: &Pass) -> Vec<Metric> {
    END_TO_END
        .iter()
        .zip(e2e_values(p))
        .filter(|(e, _)| e.gated)
        .map(|(e, value)| m(e.name, value, e.unit))
        .collect()
}

/// The ungated end-to-end metrics of an untraced pass, under their
/// per-layer names.
fn ungated(p: &Pass) -> impl Iterator<Item = Metric> {
    END_TO_END
        .iter()
        .zip(e2e_values(p))
        .filter(|(e, _)| !e.gated)
        .map(|(e, value)| m(e.layer_name, value, e.unit))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Median and p99 of a sample set (zeros when empty).
fn p50_p99(samples: &[f64]) -> (f64, f64) {
    if samples.is_empty() {
        return (0.0, 0.0);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    (
        crate::stats::quantile_sorted(&sorted, 0.5),
        crate::stats::quantile_sorted(&sorted, 0.99),
    )
}

/// The per-layer metrics of a traced pass `t`, followed by the ungated
/// end-to-end metrics of `plain`, the untraced pass of the same invocation.
pub fn per_layer(t: &Pass, plain: &Pass) -> Vec<Metric> {
    let r = &t.report;
    let g = &t.gen;
    let answered = g.ledger.answered as f64;
    let per_req = |x: f64| ratio(x, answered);
    let events: Vec<f64> = r.events_per_shard.iter().map(|&e| e as f64).collect();
    let mean_events = ratio(events.iter().sum(), events.len() as f64);
    let max_events = events.iter().copied().fold(0.0, f64::max);
    let (submit_p50, submit_p99) = p50_p99(&g.submit_ns);
    let late_max = g.lateness_ms.iter().copied().fold(0.0, f64::max);
    let (_, late_p99) = p50_p99(&g.lateness_ms);
    vec![
        m("compile.parse_us", t.compile.parse_us, "us"),
        m("compile.typecheck_us", t.compile.typecheck_us, "us"),
        m("compile.analysis_us", t.compile.analysis_us, "us"),
        m("compile.split_us", t.compile.split_us, "us"),
        m("compile.verify_us", t.compile.verify_us, "us"),
        m("runtime.construct_ms", t.construct_ms, "ms"),
        m("runtime.load_ms", t.load_ms, "ms"),
        m("runtime.serve_start_ms", g.serve_start_ms, "ms"),
        m("service.submit_p50_ns", submit_p50, "ns"),
        m("service.submit_p99_ns", submit_p99, "ns"),
        m("service.shed", g.engine_shed as f64, "count"),
        m("service.peak_queue", g.peak_queue as f64, "count"),
        m(
            "coord.calls_per_batch",
            ratio(answered, r.batches as f64),
            "calls",
        ),
        m(
            "coord.deferrals_per_req",
            per_req(r.deferrals as f64),
            "count",
        ),
        m(
            "coord.commit_ratio",
            ratio(answered, answered + r.deferrals as f64),
            "ratio",
        ),
        m(
            "coord.adaptive_fallbacks",
            r.adaptive_fallbacks as f64,
            "count",
        ),
        m(
            "coord.pipelined_share",
            ratio(r.pipelined_batches as f64, r.batches as f64),
            "ratio",
        ),
        m("coord.cpu_busy", g.coord_cpu_busy, "ratio"),
        m("worker.cpu_busy_max", g.worker_cpu_busy_max, "ratio"),
        m("worker.event_skew", ratio(max_events, mean_events), "ratio"),
        m(
            "mailbox.sends_per_kreq",
            per_req(r.cross_shard_batches as f64) * 1e3,
            "count",
        ),
        m(
            "mailbox.events_per_send",
            ratio(r.cross_shard_events as f64, r.cross_shard_batches as f64),
            "count",
        ),
        m(
            "mailbox.hop_bytes_per_req",
            per_req(r.hop_frame_bytes as f64),
            "B",
        ),
        m(
            "snap.epochs_per_kreq",
            per_req(r.epochs_completed as f64) * 1e3,
            "count",
        ),
        m("snap.bytes_per_req", per_req(r.snapshot_bytes as f64), "B"),
        m(
            "snap.delta_share",
            ratio(r.delta_snapshots_taken as f64, r.snapshots_taken as f64),
            "ratio",
        ),
        m(
            "snap.capture_us_per_epoch",
            ratio(r.barrier_capture_ns as f64 / 1e3, r.epochs_completed as f64),
            "us",
        ),
        m(
            "snap.barrier_wall_share",
            ratio(r.barrier_wall_ns as f64 / 1e9, t.serve_wall_s),
            "ratio",
        ),
        m(
            "snap.encoded_entities_per_req",
            per_req(t.encoded_entities as f64),
            "count",
        ),
        m(
            "snap.decoded_entities_per_req",
            per_req(t.decoded_entities as f64),
            "count",
        ),
        m("snap.max_delta_chain", r.max_delta_chain as f64, "count"),
        m("view.read_p50_ns", g.read_p50_ns, "ns"),
        m(
            "view.staleness_epochs",
            ratio(g.staleness_sum as f64, g.read_samples as f64),
            "epochs",
        ),
        m(
            "cdc.updates_per_req",
            per_req(r.cdc_updates as f64),
            "count",
        ),
        m(
            "durable.write_bytes_per_req",
            per_req(t.write_bytes as f64),
            "B",
        ),
        m(
            "durable.write_syscalls_per_req",
            per_req(t.write_syscalls as f64),
            "count",
        ),
        m("durable.dir_bytes", t.dir_bytes as f64, "B"),
        m("proc.allocs_per_req", per_req(t.allocs as f64), "count"),
        m(
            "proc.alloc_bytes_per_req",
            per_req(t.alloc_bytes as f64),
            "B",
        ),
        m("oracle.us_per_req", t.oracle_us_per_req, "us"),
        m("health.cpus", crate::procfs::cpus_visible() as f64, "count"),
        m("health.steal_ms", t.steal_ms, "ms"),
        m("health.lateness_max_ms", late_max, "ms"),
        m("health.lateness_p99_ms", late_p99, "ms"),
        m("run.paced_samples", g.paced_samples as f64, "count"),
        m("trace.throughput_rps", g.throughput_rps, "1/s"),
        m("trace.p50_ms", g.p50_ms, "ms"),
        m("trace.p99_ms", g.p99_ms.unwrap_or(0.0), "ms"),
        m(
            "trace.throughput_cost",
            1.0 - ratio(g.throughput_rps, plain.gen.throughput_rps),
            "ratio",
        ),
        m(
            "trace.p50_cost",
            ratio(g.p50_ms, plain.gen.p50_ms) - 1.0,
            "ratio",
        ),
    ]
    .into_iter()
    .chain(ungated(plain))
    .collect()
}

/// Human-readable lines for one pass: every end-to-end metric by name and
/// unit, the two that only some workloads have, and the run-health record.
pub fn describe(label: &str, p: &Pass) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "[{label}]");
    for (e, value) in END_TO_END.iter().zip(e2e_values(p)) {
        let shown = match (e.name, p.restart_s) {
            ("restart_s", None) => "n/a".to_string(),
            _ => format!("{value:.4}"),
        };
        let note = if e.gated { "" } else { " (not gated)" };
        let _ = writeln!(out, "  {:<16} {:>14} {}{note}", e.name, shown, e.unit);
    }
    let g = &p.gen;
    let _ = writeln!(
        out,
        "  calls: {} failed of {} attempted; {} divergent oracle blocks; final states {}",
        p.failed(),
        p.attempted(),
        p.divergent_blocks,
        if p.states_equal { "equal" } else { "DIFFER" }
    );
    let _ = writeln!(
        out,
        "  samples: paced {} (p50/p99 are medians over slices of >= 2,000), reads {}, probes {}",
        g.paced_samples, g.read_samples, g.fresh_samples
    );
    let (_, late_p99) = p50_p99(&g.lateness_ms);
    let _ = writeln!(
        out,
        "  health: cpus {} steal_ms {:.1} lateness_max_ms {:.3} lateness_p99_ms {:.3}",
        crate::procfs::cpus_visible(),
        p.steal_ms,
        g.lateness_ms.iter().copied().fold(0.0, f64::max),
        late_p99
    );
    out
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, metric) in metrics.iter().enumerate() {
        let value = if metric.value.is_finite() {
            metric.value
        } else {
            0.0
        };
        let _ = write!(
            out,
            "{}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            metric.name,
            value,
            metric.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_shape() {
        let line = json_line(
            true,
            3,
            0,
            &[
                m("a_ms", 1.5, "ms"),
                m("b", 2.0, "count"),
                m("c", f64::NAN, "s"),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"a_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, \
             \"b\": {\"value\": 2.0, \"unit\": \"count\"}, \
             \"c\": {\"value\": 0.0, \"unit\": \"s\"}}}"
        );
    }

    /// Every string value of `"key": "..."` in `text`, in order.
    fn string_fields(text: &str, key: &str) -> Vec<String> {
        let pattern = format!("\"{key}\": \"");
        text.match_indices(&pattern)
            .map(|(i, _)| {
                let rest = &text[i + pattern.len()..];
                rest[..rest.find('"').expect("closing quote")].to_string()
            })
            .collect()
    }

    /// `BENCHMARK.json` lists exactly the metrics the result lines carry,
    /// with the same units.
    #[test]
    fn benchmark_json_matches_the_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let e2e_at = json.find("\"end_to_end\"").expect("end_to_end");
        let layer_at = json.find("\"per_layer\"").expect("per_layer");
        let sections = [
            (&json[e2e_at..layer_at], end_to_end(&Pass::default())),
            (
                &json[layer_at..],
                per_layer(&Pass::default(), &Pass::default()),
            ),
        ];
        for (section, metrics) in sections {
            let names: Vec<&str> = metrics.iter().map(|m| m.name).collect();
            let units: Vec<&str> = metrics.iter().map(|m| m.unit).collect();
            assert_eq!(string_fields(section, "name"), names);
            assert_eq!(string_fields(section, "unit"), units);
        }
    }

    #[test]
    fn metric_names_are_unique() {
        let p = Pass::default();
        let mut names: Vec<&str> = end_to_end(&p)
            .iter()
            .chain(per_layer(&p, &p).iter())
            .map(|m| m.name)
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
