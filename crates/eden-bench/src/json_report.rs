//! Machine-readable benchmark report — the `--json` mode of the
//! `experiments` binary.
//!
//! Emits `BENCH_pipeline.json` with two sections so the performance
//! trajectory can be tracked across PRs without scraping tables:
//!
//! * `pipelines`: single identity pipelines per discipline — throughput
//!   plus the invocation counts the paper argues about (n+1 vs 2n+2),
//!   and the route-cache hit/miss split.
//! * `contention`: the fast-invocation-plane experiment — eight
//!   concurrent read-only pipelines under a modeled rendezvous cost,
//!   pre-PR shape (single-shard registry, fixed batch) against the full
//!   fast plane (sharded registry, cached routes, adaptive batching).

use std::time::{Duration, Instant};

use eden_core::Value;
use eden_kernel::{Kernel, KernelBuilder};
use eden_transput::transform::Identity;
use eden_transput::{ChannelPolicy, Discipline, PipelineSpec};

use crate::runner::DEADLINE;

/// Records per measured pipeline.
const RECORDS: i64 = 2000;
/// Identity filters between source and sink.
const DEPTH: usize = 4;
/// Base batch size (also the adaptive dial's floor).
const BATCH: usize = 4;
/// Adaptive dial ceiling for the fast-plane rows.
const BATCH_MAX: usize = 64;

/// Concurrent pipelines in the contention section.
const CONTENTION_PIPELINES: usize = 8;
/// Records per concurrent pipeline.
const CONTENTION_RECORDS: i64 = 600;
/// Modeled per-invocation rendezvous cost for the contention section.
/// The real Eden's was ~100ms (§6); 2ms keeps the run quick while
/// preserving the regime where the rendezvous dominates the data.
const RENDEZVOUS: Duration = Duration::from_millis(2);
/// Timed samples per contention arm (after one warm-up); the median is
/// reported.
const CONTENTION_SAMPLES: usize = 3;

struct PipelineRow {
    name: &'static str,
    discipline: &'static str,
    batch_max: usize,
    records_out: u64,
    invocations: u64,
    invocations_per_record: f64,
    route_cache_hits: u64,
    route_cache_misses: u64,
    wall_seconds: f64,
    krecords_per_second: f64,
}

fn measure_pipeline(name: &'static str, discipline: Discipline, batch_max: usize) -> PipelineRow {
    let kernel = Kernel::new();
    let mut builder = PipelineSpec::new(discipline)
        .source_vec((0..RECORDS).map(Value::Int).collect())
        .batch(BATCH)
        .adaptive_batch(batch_max)
        .policy(ChannelPolicy::Integer);
    for _ in 0..DEPTH {
        builder = builder.stage(Box::new(Identity));
    }
    let run = builder
        .build(&kernel)
        .expect("pipeline builds")
        .run(DEADLINE)
        .expect("pipeline completes");
    kernel.shutdown();
    assert_eq!(run.records_out, RECORDS as u64, "{name} lost records");
    let secs = run.wall.as_secs_f64();
    PipelineRow {
        name,
        discipline: discipline.label(),
        batch_max,
        records_out: run.records_out,
        invocations: run.metrics.invocations,
        invocations_per_record: run.invocations_per_record(),
        route_cache_hits: run.metrics.route_cache_hits,
        route_cache_misses: run.metrics.route_cache_misses,
        wall_seconds: secs,
        krecords_per_second: if secs > 0.0 {
            run.records_out as f64 / secs / 1000.0
        } else {
            f64::INFINITY
        },
    }
}

/// One end-to-end run of the contention workload; returns the wall time.
fn contention_run(kernel: &Kernel, batch_max: usize) -> Duration {
    let t0 = Instant::now();
    let workers: Vec<_> = (0..CONTENTION_PIPELINES)
        .map(|_| {
            let kernel = kernel.clone();
            std::thread::spawn(move || {
                let run = PipelineSpec::new(Discipline::ReadOnly { read_ahead: 8 })
                    .source_vec((0..CONTENTION_RECORDS).map(Value::Int).collect())
                    .batch(BATCH)
                    .adaptive_batch(batch_max)
                    .stage(Box::new(Identity))
                    .stage(Box::new(Identity))
                    .build(&kernel)
                    .expect("pipeline builds")
                    .run(DEADLINE)
                    .expect("pipeline completes");
                assert_eq!(run.records_out, CONTENTION_RECORDS as u64);
            })
        })
        .collect();
    for w in workers {
        w.join().expect("pipeline thread");
    }
    t0.elapsed()
}

fn contention_arm(builder: KernelBuilder, batch_max: usize) -> f64 {
    let kernel = builder.build();
    contention_run(&kernel, batch_max); // warm-up
    let mut samples: Vec<f64> = (0..CONTENTION_SAMPLES)
        .map(|_| contention_run(&kernel, batch_max).as_secs_f64())
        .collect();
    kernel.shutdown();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn json_pipeline(row: &PipelineRow) -> String {
    format!(
        concat!(
            "    {{\n",
            "      \"name\": \"{}\",\n",
            "      \"discipline\": \"{}\",\n",
            "      \"batch\": {},\n",
            "      \"batch_max\": {},\n",
            "      \"records_out\": {},\n",
            "      \"invocations\": {},\n",
            "      \"invocations_per_record\": {:.4},\n",
            "      \"route_cache_hits\": {},\n",
            "      \"route_cache_misses\": {},\n",
            "      \"wall_seconds\": {:.6},\n",
            "      \"krecords_per_second\": {:.2}\n",
            "    }}"
        ),
        row.name,
        row.discipline,
        BATCH,
        row.batch_max,
        row.records_out,
        row.invocations,
        row.invocations_per_record,
        row.route_cache_hits,
        row.route_cache_misses,
        row.wall_seconds,
        row.krecords_per_second,
    )
}

/// Run the measurements and render the full `BENCH_pipeline.json` text.
pub fn pipeline_report() -> String {
    let rows = [
        measure_pipeline("read-only", Discipline::ReadOnly { read_ahead: 0 }, 0),
        measure_pipeline("read-only-ra8", Discipline::ReadOnly { read_ahead: 8 }, 0),
        measure_pipeline("write-only", Discipline::WriteOnly { push_ahead: 4 }, 0),
        measure_pipeline(
            "conventional",
            Discipline::Conventional { buffer_capacity: 4 },
            0,
        ),
        measure_pipeline(
            "fast-plane",
            Discipline::ReadOnly { read_ahead: 8 },
            BATCH_MAX,
        ),
    ];

    let pre = contention_arm(
        Kernel::builder()
            .registry_shards(1)
            .invocation_latency(RENDEZVOUS),
        0,
    );
    let fast = contention_arm(Kernel::builder().invocation_latency(RENDEZVOUS), BATCH_MAX);
    let total = (CONTENTION_PIPELINES as f64) * (CONTENTION_RECORDS as f64);
    let krate = |secs: f64| total / secs / 1000.0;

    let pipelines = rows
        .iter()
        .map(json_pipeline)
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        concat!(
            "{{\n",
            "  \"schema\": 1,\n",
            "  \"records\": {records},\n",
            "  \"depth\": {depth},\n",
            "  \"batch\": {batch},\n",
            "  \"pipelines\": [\n{pipelines}\n  ],\n",
            "  \"contention\": {{\n",
            "    \"pipelines\": {cp},\n",
            "    \"records_per_pipeline\": {cr},\n",
            "    \"rendezvous_ms\": {rv},\n",
            "    \"pre_pr_shape\": {{ \"wall_seconds\": {pw:.6}, ",
            "\"krecords_per_second\": {pk:.2} }},\n",
            "    \"fast_plane\": {{ \"wall_seconds\": {fw:.6}, ",
            "\"krecords_per_second\": {fk:.2} }},\n",
            "    \"speedup\": {sp:.2}\n",
            "  }}\n",
            "}}\n"
        ),
        records = RECORDS,
        depth = DEPTH,
        batch = BATCH,
        pipelines = pipelines,
        cp = CONTENTION_PIPELINES,
        cr = CONTENTION_RECORDS,
        rv = RENDEZVOUS.as_millis(),
        pw = pre,
        pk = krate(pre),
        fw = fast,
        fk = krate(fast),
        sp = pre / fast,
    )
}
