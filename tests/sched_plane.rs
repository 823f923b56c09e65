//! The density plane's behaviour contract: the N-worker parked-mailbox
//! scheduler must be invisible to correctness. Ten thousand Ejects on a
//! two-worker pool see every invocation exactly once; a parked idle
//! population stays responsive while a pipeline hammers the same pool;
//! and pipeline output on one- and two-worker pools is byte-identical to
//! the kernel-free offline oracle, so a scheduler bug cannot hide behind
//! a second kernel sharing it.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::ThreadId;
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

// ---------------------------------------------------------------------
// Inline callee resume: a worker waiting on a reply runs the responder
// it just woke on its own stack (`sched::run_inline`).

/// Forwards `Ping` synchronously down a chain and replies with the chain
/// length below it (the tail answers 1), recording the OS thread of every
/// handler. `Boom` panics; `CrashCaller(uid)` crashes `uid` and replies.
struct Forwarder {
    next: Option<Uid>,
    threads: Arc<Mutex<HashSet<ThreadId>>>,
}

impl EjectBehavior for Forwarder {
    fn type_name(&self) -> &'static str {
        "Forwarder"
    }

    fn handle(&mut self, ctx: &EjectContext, inv: Invocation, reply: ReplyHandle) {
        self.threads
            .lock()
            .unwrap()
            .insert(std::thread::current().id());
        match inv.op.as_str() {
            "Ping" => match self.next {
                Some(next) => {
                    let below = ctx.invoke(next, "Ping", Value::Unit).wait();
                    reply.reply(below.map(|v| Value::Int(v.as_int().unwrap_or(0) + 1)));
                }
                None => reply.reply(Ok(Value::Int(1))),
            },
            // Forward one `Boom` to the next Eject and report what came back.
            "Relay" => {
                let next = self.next.expect("relay needs a next hop");
                let got = ctx.invoke(next, "Boom", Value::Unit).wait();
                reply.reply(Ok(Value::str(format!("{got:?}"))));
            }
            "Boom" => panic!("inlined callee panics on purpose"),
            "BlockedBoom" => eden::kernel::blocking(|| panic!("panics inside a blocking section")),
            "CallCrasher" => {
                let next = self.next.expect("needs a crasher below");
                let got = ctx
                    .invoke(next, "CrashCaller", Value::Uid(ctx.uid()))
                    .wait_timeout(Duration::from_secs(10));
                reply.reply(got);
            }
            "CrashCaller" => {
                let caller = inv.arg.as_uid().expect("caller uid");
                let kernel = ctx.kernel().expect("kernel alive");
                reply.reply(kernel.crash(caller).map(|()| Value::Unit));
            }
            _ => reply.reply(Err(eden_core::EdenError::NoSuchOperation {
                target: ctx.uid(),
                op: inv.op.clone(),
            })),
        }
    }
}

fn one_worker_kernel() -> Kernel {
    Kernel::builder()
        .scheduler(SchedulerConfig {
            workers: 1,
            ..SchedulerConfig::default()
        })
        .build()
}

/// Spawn a `depth`-long forwarding chain and wait until every link has
/// activated and parked (a wake that finds a link still queued for its
/// first resume cannot land in the caller's LIFO slot). Returns the links
/// head first.
fn spawn_chain(kernel: &Kernel, depth: usize, threads: &Arc<Mutex<HashSet<ThreadId>>>) -> Vec<Uid> {
    let mut links = Vec::with_capacity(depth);
    let mut next = None;
    for _ in 0..depth {
        let uid = kernel
            .spawn(Box::new(Forwarder {
                next,
                threads: Arc::clone(threads),
            }))
            .expect("spawn link");
        links.push(uid);
        next = Some(uid);
    }
    links.reverse();
    for &uid in &links {
        kernel
            .invoke(uid, ops::DESCRIBE, Value::Unit)
            .wait()
            .expect("link activates");
    }
    threads.lock().unwrap().clear();
    links
}

/// The tentpole's shape: on a one-worker pool, a depth-6 chain of
/// synchronously forwarding Ejects runs every handler on the one worker
/// thread — each reply wait resumes the callee nested instead of
/// blocking, so the pool never compensates with a spare.
#[test]
fn synchronous_chain_runs_inline_on_one_worker() {
    const DEPTH: usize = 6;
    const ROUNDS: u64 = 50;
    let kernel = one_worker_kernel();
    let threads = Arc::new(Mutex::new(HashSet::new()));
    let links = spawn_chain(&kernel, DEPTH, &threads);
    let before = kernel.metrics_snapshot().sched.inline_resumes;
    let mut max_workers = 0;
    for _ in 0..ROUNDS {
        assert_eq!(
            kernel.invoke(links[0], "Ping", Value::Unit).wait(),
            Ok(Value::Int(DEPTH as i64))
        );
        max_workers = max_workers.max(kernel.metrics_snapshot().sched.workers);
    }
    let inline = kernel.metrics_snapshot().sched.inline_resumes - before;
    assert_eq!(
        max_workers, 1,
        "a reply wait blocked and the pool grew a spare"
    );
    assert_eq!(
        threads.lock().unwrap().len(),
        1,
        "every handler of the chain must run on the one worker thread"
    );
    assert!(
        inline >= ROUNDS * (DEPTH as u64 - 1),
        "one inline resume per hop expected, saw {inline} over {ROUNDS} rounds"
    );
    kernel.shutdown();
}

/// Hostage guard: B holds "fast" and then "slow"; A waits on "fast" only.
/// B's "slow" handler blocks on a latch A opens only after its "fast"
/// reply is back. The nested resume must hand B back to the run queue as
/// soon as "fast" settles — draining on into "slow" on A's stack would
/// wait on a latch that only the frame below it can open.
#[test]
fn inline_callee_yields_once_the_awaited_reply_settles() {
    struct Latched {
        latch: Arc<(Mutex<bool>, Condvar)>,
    }
    impl EjectBehavior for Latched {
        fn type_name(&self) -> &'static str {
            "Latched"
        }
        fn handle(&mut self, _ctx: &EjectContext, inv: Invocation, reply: ReplyHandle) {
            match inv.op.as_str() {
                "Fast" => reply.reply(Ok(Value::str("fast"))),
                _ => {
                    let (open, cv) = &*self.latch;
                    let opened = eden::kernel::blocking(|| {
                        let guard = open.lock().unwrap();
                        let (guard, _) = cv
                            .wait_timeout_while(guard, Duration::from_secs(10), |o| !*o)
                            .unwrap();
                        *guard
                    });
                    reply.reply(if opened {
                        Ok(Value::str("slow"))
                    } else {
                        Err(eden_core::EdenError::Timeout)
                    });
                }
            }
        }
    }
    struct Caller {
        b: Uid,
        latch: Arc<(Mutex<bool>, Condvar)>,
    }
    impl EjectBehavior for Caller {
        fn type_name(&self) -> &'static str {
            "Caller"
        }
        fn handle(&mut self, ctx: &EjectContext, _inv: Invocation, reply: ReplyHandle) {
            let fast = ctx.invoke(self.b, "Fast", Value::Unit);
            let slow = ctx.invoke(self.b, "Slow", Value::Unit);
            let fast = fast.wait_timeout(Duration::from_secs(20));
            let (open, cv) = &*self.latch;
            *open.lock().unwrap() = true;
            cv.notify_all();
            let slow = slow.wait_timeout(Duration::from_secs(20));
            reply.reply(Ok(Value::str(format!("{fast:?} {slow:?}"))));
        }
    }

    let kernel = one_worker_kernel();
    let latch = Arc::new((Mutex::new(false), Condvar::new()));
    let b = kernel
        .spawn(Box::new(Latched {
            latch: Arc::clone(&latch),
        }))
        .expect("spawn B");
    let a = kernel
        .spawn(Box::new(Caller {
            b,
            latch: Arc::clone(&latch),
        }))
        .expect("spawn A");
    for uid in [a, b] {
        kernel
            .invoke(uid, ops::DESCRIBE, Value::Unit)
            .wait()
            .expect("activate");
    }
    let before = kernel.metrics_snapshot().sched.inline_resumes;
    let out = kernel
        .invoke(a, "Go", Value::Unit)
        .wait_timeout(Duration::from_secs(30))
        .expect("A replies");
    assert_eq!(
        out.as_str().unwrap(),
        r#"Ok(Str("fast")) Ok(Str("slow"))"#,
        "A must see both replies, the slow one only after opening the latch"
    );
    assert!(
        kernel.metrics_snapshot().sched.inline_resumes > before,
        "the fast reply was meant to be served inline"
    );
    kernel.shutdown();
}

/// A chain four times deeper than the nesting cap still completes
/// correctly: waits past the cap take the blocking path.
#[test]
fn chain_deeper_than_the_inline_cap_completes() {
    const DEPTH: usize = 64;
    let kernel = one_worker_kernel();
    let threads = Arc::new(Mutex::new(HashSet::new()));
    let links = spawn_chain(&kernel, DEPTH, &threads);
    for _ in 0..3 {
        assert_eq!(
            kernel
                .invoke(links[0], "Ping", Value::Unit)
                .wait_timeout(Duration::from_secs(30)),
            Ok(Value::Int(DEPTH as i64))
        );
    }
    assert!(kernel.metrics_snapshot().sched.inline_resumes > 0);
    kernel.shutdown();
}

/// A panic in an inlined callee is caught by its own resume: the caller
/// sees `EjectCrashed`, and the worker and the caller keep serving.
#[test]
fn panicking_inline_callee_crashes_only_itself() {
    let kernel = one_worker_kernel();
    let threads = Arc::new(Mutex::new(HashSet::new()));
    // links[0] relays to links[1], which panics on `Boom`.
    let links = spawn_chain(&kernel, 3, &threads);
    let before = kernel.metrics_snapshot().sched.inline_resumes;
    let relayed = kernel
        .invoke(links[0], "Relay", Value::Unit)
        .wait_timeout(Duration::from_secs(30))
        .expect("the caller survives its callee's panic");
    assert_eq!(
        relayed.as_str().unwrap(),
        format!("Err(EjectCrashed({:?}))", links[1])
    );
    assert!(kernel.metrics_snapshot().sched.inline_resumes > before);
    assert_eq!(threads.lock().unwrap().len(), 1, "the panic ran inline");
    // The caller keeps serving, and so does the one worker: a fresh
    // chain behind it still answers.
    assert_eq!(
        kernel.invoke(links[0], ops::DESCRIBE, Value::Unit).wait(),
        Ok(Value::str("Forwarder"))
    );
    let fresh = spawn_chain(&kernel, 4, &threads);
    assert_eq!(
        kernel.invoke(fresh[0], "Ping", Value::Unit).wait(),
        Ok(Value::Int(4))
    );
    kernel.shutdown();
}

/// A panic inside a `blocking(..)` section must leave the section: the
/// worker stops counting as blocked and keeps resuming callees inline.
#[test]
fn panic_inside_a_blocking_section_releases_the_worker() {
    let kernel = one_worker_kernel();
    let threads = Arc::new(Mutex::new(HashSet::new()));
    let doomed = spawn_chain(&kernel, 1, &threads);
    assert!(matches!(
        kernel.invoke(doomed[0], "BlockedBoom", Value::Unit).wait(),
        Err(eden_core::EdenError::EjectCrashed(_))
    ));
    assert_eq!(
        kernel.metrics_snapshot().sched.workers_blocked,
        0,
        "the unwound blocking section still counts its worker as blocked"
    );
    // The spare the section spawned retires once idle; then the one
    // slotted worker must still take the inline path.
    let deadline = Instant::now() + Duration::from_secs(10);
    while kernel.metrics_snapshot().sched.workers > 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let links = spawn_chain(&kernel, 3, &threads);
    let before = kernel.metrics_snapshot().sched.inline_resumes;
    assert_eq!(
        kernel.invoke(links[0], "Ping", Value::Unit).wait(),
        Ok(Value::Int(3))
    );
    assert!(kernel.metrics_snapshot().sched.inline_resumes >= before + 2);
    kernel.shutdown();
}

/// An inline callee that crashes its own caller — the frame below it on
/// the same stack — must not wait for that caller to die (it cannot
/// before the callee returns); the caller dies when its dispatch ends.
#[test]
fn inline_callee_crashing_its_caller_does_not_deadlock() {
    let kernel = one_worker_kernel();
    let threads = Arc::new(Mutex::new(HashSet::new()));
    let links = spawn_chain(&kernel, 2, &threads);
    let got = kernel
        .invoke(links[0], "CallCrasher", Value::Unit)
        .wait_timeout(Duration::from_secs(20));
    assert_eq!(
        got,
        Ok(Value::Unit),
        "the crash request returns to the caller"
    );
    let deadline = Instant::now() + Duration::from_secs(10);
    while kernel.eject_state(links[0]).is_some() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        kernel.eject_state(links[0]),
        None,
        "the caller died after its dispatch"
    );
    kernel.shutdown();
}
