//! Registry contention under concurrent invocation — the overhead the
//! fast invocation plane removes.
//!
//! Two comparisons, both on the same binary:
//!
//! * `registry_contention/*`: M threads each hammer a private Echo Eject.
//!   `uncached-1shard` is the pre-PR invocation path — every invocation
//!   takes the (single) registry mutex and re-resolves the target.
//!   `cached-sharded` is the post-PR steady state — a route cache per
//!   caller, registry touched once.
//! * `concurrent_pipelines/*`: eight read-only identity pipelines run end
//!   to end at once under a modeled per-invocation rendezvous cost (the
//!   regime the paper lives in: Eden invocations took ~100ms, and
//!   Chrobot & Daszczuk's duality argument is that the rendezvous, not
//!   the data, dominates). `pre-pr-shape` is the seed configuration —
//!   single-shard registry, fixed batch. `fast-plane` opens every layer
//!   of this PR: sharded registry, cached routes, adaptive batching.

use std::time::Duration as BenchDuration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use eden_core::{EdenError, Value};
use eden_kernel::{
    EjectBehavior, EjectContext, Invocation, InvokeOptions, Kernel, ReplyHandle, RouteCache,
};
use eden_transput::transform::Identity;
use eden_transput::{Discipline, PipelineSpec};

struct Echo;

impl EjectBehavior for Echo {
    fn type_name(&self) -> &'static str {
        "Echo"
    }
    fn handle(&mut self, ctx: &EjectContext, inv: Invocation, reply: ReplyHandle) {
        match inv.op.as_str() {
            "Echo" => reply.reply(Ok(inv.arg)),
            _ => reply.reply(Err(EdenError::NoSuchOperation {
                target: ctx.uid(),
                op: inv.op,
            })),
        }
    }
}

const CALLS_PER_THREAD: usize = 200;

fn kernel_with_shards(shards: usize) -> Kernel {
    Kernel::builder().registry_shards(shards).build()
}

/// M threads × CALLS_PER_THREAD invocations, each thread on its own Eject.
fn hammer(kernel: &Kernel, threads: usize, cached: bool) {
    let targets: Vec<_> = (0..threads)
        .map(|_| kernel.spawn(Box::new(Echo)).expect("spawn"))
        .collect();
    let workers: Vec<_> = targets
        .into_iter()
        .map(|target| {
            let kernel = kernel.clone();
            std::thread::spawn(move || {
                let mut cache = RouteCache::new();
                for i in 0..CALLS_PER_THREAD as i64 {
                    let pending = if cached {
                        kernel.invoke_with(target, "Echo", Value::Int(i), InvokeOptions::new().route_cache(&mut cache))
                    } else {
                        kernel.invoke(target, "Echo", Value::Int(i))
                    };
                    pending.wait().expect("echo");
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker");
    }
}

fn registry_contention(c: &mut Criterion) {
    let mut group = c.benchmark_group("registry_contention");
    group.sample_size(10);
    group.warm_up_time(BenchDuration::from_millis(300));
    group.measurement_time(BenchDuration::from_secs(2));
    for threads in [1usize, 2, 4, 8] {
        group.throughput(Throughput::Elements((threads * CALLS_PER_THREAD) as u64));
        group.bench_function(BenchmarkId::new("uncached-1shard", threads), |b| {
            let kernel = kernel_with_shards(1);
            b.iter(|| hammer(&kernel, threads, false));
            kernel.shutdown();
        });
        group.bench_function(BenchmarkId::new("cached-sharded", threads), |b| {
            let kernel = kernel_with_shards(16);
            b.iter(|| hammer(&kernel, threads, true));
            kernel.shutdown();
        });
    }
    group.finish();
}

const PIPELINES: usize = 8;
const RECORDS: i64 = 600;
/// Modeled rendezvous cost per invocation. The real Eden's was ~100ms
/// (§6); two milliseconds keep the bench quick while preserving the
/// regime where the rendezvous dominates the data.
const RENDEZVOUS: BenchDuration = BenchDuration::from_millis(2);

/// Eight 2-filter identity pipelines running concurrently to completion.
fn run_pipelines(kernel: &Kernel, batch_max: usize) {
    let workers: Vec<_> = (0..PIPELINES)
        .map(|_| {
            let kernel = kernel.clone();
            std::thread::spawn(move || {
                let run = PipelineSpec::new(Discipline::ReadOnly { read_ahead: 8 })
                    .source_vec((0..RECORDS).map(Value::Int).collect())
                    .batch(4)
                    .adaptive_batch(batch_max)
                    .stage(Box::new(Identity))
                    .stage(Box::new(Identity))
                    .build(&kernel)
                    .expect("build")
                    .run(BenchDuration::from_secs(120))
                    .expect("run");
                assert_eq!(run.records_out, RECORDS as u64);
            })
        })
        .collect();
    for w in workers {
        w.join().expect("pipeline");
    }
}

fn concurrent_pipelines(c: &mut Criterion) {
    let mut group = c.benchmark_group("concurrent_pipelines");
    group.sample_size(10);
    group.warm_up_time(BenchDuration::from_millis(300));
    group.measurement_time(BenchDuration::from_secs(4));
    group.throughput(Throughput::Elements(PIPELINES as u64 * RECORDS as u64));
    group.bench_function("pre-pr-shape", |b| {
        let kernel = Kernel::builder()
            .registry_shards(1)
            .invocation_latency(RENDEZVOUS)
            .build();
        b.iter(|| run_pipelines(&kernel, 0));
        kernel.shutdown();
    });
    group.bench_function("fast-plane", |b| {
        let kernel = Kernel::builder().invocation_latency(RENDEZVOUS).build();
        b.iter(|| run_pipelines(&kernel, 64));
        kernel.shutdown();
    });
    group.finish();
}

criterion_group!(benches, registry_contention, concurrent_pipelines);
criterion_main!(benches);
