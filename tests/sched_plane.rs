//! The density plane's behaviour contract: the N-worker parked-mailbox
//! scheduler must be invisible to correctness. Ten thousand Ejects on a
//! two-worker pool see every invocation exactly once; a parked idle
//! population stays responsive while a pipeline hammers the same pool;
//! and pipeline output on one- and two-worker pools is byte-identical to
//! the kernel-free offline oracle, so a scheduler bug cannot hide behind
//! a second kernel sharing it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use eden::core::op::ops;
use eden::core::{Uid, Value};
use eden::filters;
use eden::filters::DurableFilterEject;
use eden::fs::{register_fs_types, FileEject};
use eden::kernel::{
    EjectBehavior, EjectContext, Invocation, Kernel, ReplyHandle, SchedulerConfig,
};
use eden::transput::protocol::{Batch, TransferRequest};
use eden::transput::transform::{apply_chain_offline, Transform};
use eden::transput::{ChannelPolicy, Discipline, PipelineSpec};

/// A deliberately starved pool: every test here runs its whole cast on
/// two workers, so any lost wakeup or unfair queue shows up as a hang
/// or a wrong count rather than hiding behind spare threads.
fn two_worker_kernel() -> Kernel {
    Kernel::builder()
        .scheduler(SchedulerConfig {
            workers: 2,
            ..SchedulerConfig::default()
        })
        .build()
}

struct Accumulator {
    total: i64,
}

impl EjectBehavior for Accumulator {
    fn type_name(&self) -> &'static str {
        "Accumulator"
    }

    fn handle(&mut self, ctx: &EjectContext, inv: Invocation, reply: ReplyHandle) {
        match inv.op.as_str() {
            "Add" => {
                self.total += inv.arg.as_int().unwrap_or(0);
                reply.reply(Ok(Value::Int(self.total)));
            }
            "Total" => reply.reply(Ok(Value::Int(self.total))),
            _ => reply.reply(Err(eden_core::EdenError::NoSuchOperation {
                target: ctx.uid(),
                op: inv.op.clone(),
            })),
        }
    }
}

/// 10k resident Ejects multiplexed onto two workers: three full rounds
/// of increments land exactly once each, and crashing a slice of the
/// population leaves the survivors' counts untouched.
#[test]
fn ten_thousand_ejects_on_two_workers_see_each_invocation_once() {
    const EJECTS: usize = 10_000;
    const ROUNDS: i64 = 3;
    let kernel = two_worker_kernel();
    let uids: Vec<Uid> = (0..EJECTS)
        .map(|_| {
            kernel
                .spawn(Box::new(Accumulator { total: 0 }))
                .expect("spawn accumulator")
        })
        .collect();
    for round in 1..=ROUNDS {
        let pending: Vec<_> = uids
            .iter()
            .map(|&uid| kernel.invoke(uid, "Add", Value::Int(1)))
            .collect();
        for reply in pending {
            assert_eq!(reply.wait(), Ok(Value::Int(round)), "double or lost delivery");
        }
    }
    // Crash a slice; exactly-once for the survivors must be unaffected.
    for &uid in uids.iter().step_by(97) {
        kernel.crash(uid).expect("crash");
    }
    for (i, &uid) in uids.iter().enumerate() {
        if i % 97 != 0 {
            assert_eq!(
                kernel.invoke(uid, "Total", Value::Unit).wait(),
                Ok(Value::Int(ROUNDS)),
                "survivor count drifted after neighbours crashed"
            );
        }
    }
    kernel.shutdown();
}

/// Fans invocations out to a fixed cast from *worker context*, so every
/// wake lands on the producing worker's LIFO slot and deque rather than
/// the external-producer injector. `Blast(round)` increments the whole
/// cast and replies with how many replies came back equal to `round` —
/// i.e. how many targets have seen exactly `round` increments.
struct Fanout {
    targets: Vec<Uid>,
}

impl EjectBehavior for Fanout {
    fn type_name(&self) -> &'static str {
        "Fanout"
    }

    fn handle(&mut self, ctx: &EjectContext, inv: Invocation, reply: ReplyHandle) {
        match inv.op.as_str() {
            "Blast" => {
                let round = inv.arg.as_int().unwrap_or(0);
                let pending: Vec<_> = self
                    .targets
                    .iter()
                    .map(|&uid| ctx.invoke(uid, "Add", Value::Int(1)))
                    .collect();
                let mut exact = 0i64;
                for p in pending {
                    if p.wait() == Ok(Value::Int(round)) {
                        exact += 1;
                    }
                }
                reply.reply(Ok(Value::Int(exact)));
            }
            _ => reply.reply(Err(eden_core::EdenError::NoSuchOperation {
                target: ctx.uid(),
                op: inv.op.clone(),
            })),
        }
    }
}

/// Forced work stealing: one worker produces all 10k wakes (the fanout
/// runs in worker context, so they land on its LIFO slot and deque, not
/// the injector), and the other three workers can only get work by
/// stealing. Every increment must still land exactly once, and the
/// steal counter must show the thieves actually fed off the producer.
#[test]
fn forced_stealing_delivers_ten_thousand_ejects_exactly_once() {
    const EJECTS: usize = 10_000;
    const ROUNDS: i64 = 2;
    let kernel = Kernel::builder()
        .scheduler(SchedulerConfig {
            workers: 4,
            ..SchedulerConfig::default()
        })
        .build();
    let targets: Vec<Uid> = (0..EJECTS)
        .map(|_| {
            kernel
                .spawn(Box::new(Accumulator { total: 0 }))
                .expect("spawn accumulator")
        })
        .collect();
    let fanout = kernel
        .spawn(Box::new(Fanout { targets }))
        .expect("spawn fanout");

    let steals_before = kernel.metrics_snapshot().sched.sched_steals;
    for round in 1..=ROUNDS {
        assert_eq!(
            kernel.invoke(fanout, "Blast", Value::Int(round)).wait(),
            Ok(Value::Int(EJECTS as i64)),
            "round {round}: some target saw a lost or doubled increment"
        );
    }
    let steals_after = kernel.metrics_snapshot().sched.sched_steals;
    assert!(
        steals_after > steals_before,
        "no steals recorded ({steals_before} -> {steals_after}): \
         the hot producer's backlog was never distributed"
    );
    kernel.shutdown();
}

fn transfer(kernel: &Kernel, target: Uid, max: usize) -> Batch {
    Batch::from_value(
        kernel
            .invoke(target, ops::TRANSFER, TransferRequest::primary(max).to_value())
            .wait()
            .expect("transfer"),
    )
    .expect("batch")
}

/// Crash/recovery on the starved pool: a durable cursor crashed
/// mid-stream reactivates at its checkpoint — each record delivered
/// exactly once, none replayed, none skipped.
#[test]
fn crash_recovery_on_two_worker_pool_is_exactly_once() {
    let kernel = two_worker_kernel();
    register_fs_types(&kernel);
    DurableFilterEject::register(&kernel);
    let file = kernel
        .spawn(Box::new(FileEject::from_lines(
            (0..6).map(|i| format!("record {i}")),
        )))
        .expect("file");
    let cursor = kernel
        .invoke(file, "OpenDurable", Value::Unit)
        .wait()
        .expect("open durable")
        .as_uid()
        .expect("cursor uid");
    let first = transfer(&kernel, cursor, 2);
    assert_eq!(first.items.len(), 2);
    kernel.crash(cursor).expect("crash cursor");
    let next = transfer(&kernel, cursor, 1);
    assert_eq!(next.items[0].as_str().unwrap(), "record 2");
    kernel.shutdown();
}

/// Fairness: a hot depth-4 pipeline saturating the pool must not starve
/// a parked population — the fairness budget forces the hot Ejects back
/// into the queue (FIFO through the injector, never back onto a LIFO
/// slot), so idle streams' tail latency stays bounded instead of
/// waiting for the pipeline to finish. Parameterised over the pool size
/// because the LIFO slot changes shape with it: one worker is the
/// worst case for slot monopolisation, eight exercises the slot-per-
/// worker layout with thieves present.
fn idle_p99_bounded_under_hot_pipeline(workers: usize) {
    const IDLE: usize = 1_000;
    let kernel = Kernel::builder()
        .scheduler(SchedulerConfig {
            workers,
            ..SchedulerConfig::default()
        })
        .build();
    let idle: Vec<Uid> = (0..IDLE)
        .map(|_| {
            kernel
                .spawn(Box::new(Accumulator { total: 0 }))
                .expect("spawn idle stream")
        })
        .collect();

    let stop = Arc::new(AtomicBool::new(false));
    let hot = {
        let kernel = kernel.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Acquire) {
                let mut builder = PipelineSpec::new(Discipline::ReadOnly { read_ahead: 8 })
                    .source_vec((0..2_000).map(Value::Int).collect())
                    .batch(8)
                    .policy(ChannelPolicy::Integer);
                for _ in 0..4 {
                    builder = builder.stage(Box::new(eden::transput::transform::Identity));
                }
                let run = builder
                    .build(&kernel)
                    .expect("hot pipeline builds")
                    .run(Duration::from_secs(60))
                    .expect("hot pipeline completes");
                assert_eq!(run.records_out, 2_000);
            }
        })
    };

    let mut latencies: Vec<Duration> = Vec::with_capacity(IDLE);
    for &uid in &idle {
        let t0 = Instant::now();
        assert_eq!(
            kernel.invoke(uid, "Total", Value::Unit).wait(),
            Ok(Value::Int(0)),
            "idle stream starved out entirely"
        );
        latencies.push(t0.elapsed());
    }
    stop.store(true, Ordering::Release);
    hot.join().expect("hot pipeline thread");

    latencies.sort();
    let p99 = latencies[IDLE * 99 / 100 - 1];
    // Generous for a loaded single-core CI box; the failure mode being
    // excluded is "idle p99 ≈ the hot pipeline's whole runtime".
    assert!(
        p99 < Duration::from_secs(2),
        "idle stream p99 {p99:?} unbounded under hot pipeline ({workers} workers)"
    );
    kernel.shutdown();
}

#[test]
fn idle_streams_stay_responsive_under_hot_pipeline_one_worker() {
    idle_p99_bounded_under_hot_pipeline(1);
}

#[test]
fn idle_streams_stay_responsive_under_hot_pipeline_two_workers() {
    idle_p99_bounded_under_hot_pipeline(2);
}

#[test]
fn idle_streams_stay_responsive_under_hot_pipeline_eight_workers() {
    idle_p99_bounded_under_hot_pipeline(8);
}

fn oracle_input() -> Vec<Value> {
    (0..200).map(|i| Value::str(format!("line {i}"))).collect()
}

fn oracle_chain() -> Vec<Box<dyn Transform>> {
    vec![
        Box::new(filters::CaseFold::upper()),
        Box::new(filters::LineNumber::new()),
    ]
}

fn pipeline_output(kernel: &Kernel, discipline: Discipline) -> Vec<Value> {
    let mut builder = PipelineSpec::new(discipline)
        .source_vec(oracle_input())
        .batch(4)
        .policy(ChannelPolicy::Integer);
    for stage in oracle_chain() {
        builder = builder.stage(stage);
    }
    builder
        .build(kernel)
        .expect("pipeline builds")
        .run(Duration::from_secs(60))
        .expect("pipeline completes")
        .output
}

/// Arbitration by a pure oracle: on a two-worker and a one-worker pool,
/// every discipline's primary stream equals — and renders byte-identical
/// to — the same `CaseFold::upper → LineNumber` chain applied offline,
/// with no kernel involved.
#[test]
fn scheduler_output_matches_offline_oracle() {
    let expected = apply_chain_offline(&mut oracle_chain(), oracle_input());
    assert_eq!(expected.len(), 200, "the oracle must see every line");
    for workers in [2, 1] {
        for discipline in [
            Discipline::ReadOnly { read_ahead: 8 },
            Discipline::WriteOnly { push_ahead: 8 },
            Discipline::Conventional { buffer_capacity: 16 },
        ] {
            let kernel = Kernel::builder()
                .scheduler(SchedulerConfig {
                    workers,
                    ..SchedulerConfig::default()
                })
                .build();
            let out = pipeline_output(&kernel, discipline);
            kernel.shutdown();
            assert_eq!(
                out, expected,
                "{discipline:?} on {workers} worker(s): output diverged from the oracle"
            );
            assert_eq!(
                format!("{out:?}"),
                format!("{expected:?}"),
                "{discipline:?} on {workers} worker(s): rendered bytes diverged"
            );
        }
    }
}
