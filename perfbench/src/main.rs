//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <pipe-small|pipe-bulk|pubsub-open|crash-restart>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one envelope line (host, settings, sample counts, reference-check
//! problems) and, last, one JSON result: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. A traced run also
//! writes its span dump and per-layer self-time summary under `.bench_out`
//! in the working directory. `perfbench/run.py` builds this binary and runs
//! it from the repository root.

mod chain;
mod crash;
mod gen;
mod harness;
mod pipes;
mod probe;
mod pubsub;
mod report;

use harness::{Ctx, Metrics, Outcome};

/// End-to-end metrics: every workload reports each of them. Latency
/// percentiles are reported in the envelope instead (see
/// `harness::latency_metrics`).
const E2E: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_rps", "records/s"),
    ("goodput_rps", "records/s"),
    ("cpu_us_per_record", "us"),
    ("peak_rss_mb", "MiB"),
    ("recovery_s", "s"),
];

/// Per-layer metrics of the traced run; a layer a workload does not use
/// reports 0.
const PER_LAYER: [(&str, &str); 57] = [
    ("filters.busy_ms", "ms"),
    ("filters.bottleneck_busy_frac", "ratio"),
    ("filters.oracle_ms", "ms"),
    ("filters.records_in", "count"),
    ("filters.records_out", "count"),
    ("transput.build_ms", "ms"),
    ("transput.run_ms.read_only", "ms"),
    ("transput.run_ms.write_only", "ms"),
    ("transput.run_ms.conventional", "ms"),
    ("transput.records_per_pull", "records"),
    ("transput.source_wait_ms", "ms"),
    ("transput.write_rtt_us.p50", "us"),
    ("transput.write_rtt_us.p99", "us"),
    ("kernel.invocations_per_record", "ratio"),
    ("kernel.invocations_per_record.read_only", "ratio"),
    ("kernel.invocations_per_record.write_only", "ratio"),
    ("kernel.invocations_per_record.conventional", "ratio"),
    ("kernel.internal_messages_per_record", "ratio"),
    ("kernel.route_cache_hit_ratio", "ratio"),
    ("kernel.bytes_per_record", "B"),
    ("kernel.retries", "count"),
    ("kernel.sheds", "count"),
    ("kernel.fatal_failures", "count"),
    ("kernel.spawn_us.p50", "us"),
    ("kernel.reactivations", "count"),
    ("kernel.activate_us.p50", "us"),
    ("kernel.activate_us.p99", "us"),
    ("sched.steals", "count"),
    ("sched.workers_max", "count"),
    ("sched.queued_tasks_max", "count"),
    ("sched.idle_frac", "ratio"),
    ("mailbox.queued_max", "count"),
    ("mailbox.queued_mean", "count"),
    ("payload.copies_per_record", "ratio"),
    ("payload.bytes_moved_per_record", "B"),
    ("payload.shares_per_record", "ratio"),
    ("payload.cow_breaks", "count"),
    ("wire.encode_ns_per_kb", "ns/KiB"),
    ("wire.decode_ns_per_kb", "ns/KiB"),
    ("stable.stores", "count"),
    ("stable.store_us.p50", "us"),
    ("stable.store_us.p99", "us"),
    ("stable.loads", "count"),
    ("stable.load_us.p99", "us"),
    ("stable.appends", "count"),
    ("stable.syncs", "count"),
    ("stable.stores_per_sync", "ratio"),
    ("stable.log_bytes_per_record", "B"),
    ("stable.replay_ms", "ms"),
    ("obs.queue_us.p99", "us"),
    ("obs.sched_us.p99", "us"),
    ("obs.service_us.p99", "us"),
    ("obs.spans_recorded", "count"),
    ("obs.spans_dropped", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.spans_kept", "count"),
    ("trace.trees_broken", "count"),
];

const WORKLOADS: [&str; 4] = ["pipe-small", "pipe-bulk", "pubsub-open", "crash-restart"];

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| usage(&format!("bad value for {flag}: {value}")))
}

fn parse_args() -> Ctx {
    let mut args = std::env::args().skip(1);
    let mut ctx = Ctx {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => ctx.workload = value.clone(),
            "--seed" => ctx.seed = parse(&flag, &value),
            "--seconds" => ctx.seconds = parse(&flag, &value),
            "--trace" => ctx.trace = parse::<u8>(&flag, &value) == 1,
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&ctx.workload.as_str()) {
        usage(&format!("unknown workload `{}`", ctx.workload));
    }
    if ctx.seconds.is_nan() || ctx.seconds <= 0.0 {
        usage("--seconds must be positive");
    }
    ctx
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn quote(s: &str) -> String {
    let mut q = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => q.push_str("\\\""),
            '\\' => q.push_str("\\\\"),
            c if (c as u32) < 0x20 => q.push_str(&format!("\\u{:04x}", c as u32)),
            c => q.push(c),
        }
    }
    q.push('"');
    q
}

fn metrics_json(list: &[(&str, &str)], m: &Metrics) -> String {
    let items: Vec<String> = list
        .iter()
        .map(|(name, unit)| {
            let v = m.0.get(*name).copied().unwrap_or(0.0);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                num(v),
                quote(unit)
            )
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}

fn main() {
    let ctx = parse_args();
    let mut out: Outcome = match ctx.workload.as_str() {
        "pipe-small" => pipes::pipe_small(&ctx),
        "pipe-bulk" => pipes::pipe_bulk(&ctx),
        "pubsub-open" => pubsub::pubsub_open(&ctx),
        _ => crash::crash_restart(&ctx),
    };
    out.e2e.put("peak_rss_mb", harness::peak_rss_mb());
    if ctx.trace {
        let (spans, over_cap) = probe::take_spans();
        report::trace_report(&ctx, &spans, over_cap, &mut out);
        for key in ["trace.spans_kept", "trace.trees_broken"] {
            let v = out.envelope.0.get(key).copied().unwrap_or(0.0);
            out.layers.put(key, v);
        }
    }
    let attempted = out.attempted.max(1);
    out.envelope
        .put("failed_frac", out.failed as f64 / attempted as f64);

    let mut env: Vec<String> = vec![
        format!("\"workload\": {}", quote(&ctx.workload)),
        format!("\"seed\": {}", ctx.seed),
        format!("\"run_seconds\": {}", num(ctx.seconds)),
        format!("\"trace\": {}", ctx.trace),
        format!("\"available_parallelism\": {}", ctx.workers),
        format!("\"sched_workers\": {}", ctx.workers),
        format!("\"client_threads_max\": {}", ctx.workers),
    ];
    env.extend(
        out.envelope
            .0
            .iter()
            .map(|(k, v)| format!("{}: {}", quote(k), num(*v))),
    );
    let problems: Vec<String> = out.problems.iter().map(|p| quote(p)).collect();
    env.push(format!("\"problems\": [{}]", problems.join(", ")));
    println!("{{\"envelope\": {{{}}}}}", env.join(", "));

    let metrics = if ctx.trace {
        metrics_json(&PER_LAYER, &out.layers)
    } else {
        metrics_json(&E2E, &out.e2e)
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.problems.is_empty() && out.failed == 0,
        attempted,
        out.failed,
        metrics
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in `BENCHMARK.json` name the same
    /// metrics with the same units.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let compact: String = json.split_whitespace().collect();
        for (name, unit) in E2E.iter().chain(PER_LAYER.iter()) {
            let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let entries = compact.matches("\"unit\":").count();
        assert_eq!(
            entries,
            E2E.len() + PER_LAYER.len(),
            "BENCHMARK.json lists other metrics too"
        );
        for w in WORKLOADS {
            assert!(
                compact.contains(&format!("{{\"name\":\"{w}\"")),
                "workload {w}"
            );
        }
    }

    /// The interaction map in `workloads.json` covers exactly the per-layer
    /// metrics.
    #[test]
    fn interaction_map_covers_every_per_layer_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/workloads.json");
        let json = std::fs::read_to_string(path).expect("workloads.json beside Cargo.toml");
        let map = &json[json.find("\"per_layer\"").expect("a per_layer map")..];
        for (name, _) in PER_LAYER {
            assert!(
                map.contains(&format!("\"{name}\": {{")),
                "workloads.json lacks {name}"
            );
        }
        assert_eq!(map.matches("\"moves\"").count(), PER_LAYER.len());
    }

    /// The open-loop rate is one constant, and `workloads.json` and
    /// pubsub-open's `why` in `BENCHMARK.json` state the same number.
    #[test]
    fn documented_rate_is_the_constant() {
        let dir = env!("CARGO_MANIFEST_DIR");
        let rate = pubsub::RATE_PER_S;
        let json = std::fs::read_to_string(format!("{dir}/workloads.json"))
            .expect("workloads.json beside Cargo.toml");
        assert!(
            json.contains(&format!("\"rate_per_s\": {rate},")),
            "workloads.json rate_per_s is not {rate}"
        );
        let bench = std::fs::read_to_string(format!("{dir}/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
        assert!(
            bench.contains(&format!("at a fixed {rate} publishes/s")),
            "pubsub-open's why in BENCHMARK.json does not state {rate} publishes/s"
        );
    }
}
