//! `pubsub-open`: an open-loop generator publishes on a fixed seeded
//! schedule into 256 write-only topic Ejects, each fanning out to four
//! subscriber Ejects that the benchmark owns and that stamp arrival time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use eden_core::op::ops;
use eden_core::{EdenError, Uid, Value};
use eden_kernel::{EjectBehavior, EjectContext, Invocation, Kernel, PendingReply, ReplyHandle};
use eden_transput::transform::Identity;
use eden_transput::write_only::{OutputPort, OutputWiring, PushFilterEject};
use eden_transput::{Emitter, Transform, WriteRequest};

use crate::gen::{self, BurstShape, Schedule};
use crate::harness::{self, Ctx, LayerAcc, Outcome, LIMIT_NS};
use crate::probe::{self, Layer};

/// Mean publish rate over the run, in publishes/s: one fixed number for
/// every host and every run (see `rate_choice` in `perfbench/workloads.json`).
pub const RATE_PER_S: f64 = 4000.0;
const TOPICS: usize = 256;
const FANOUT: usize = 4;
const ON_MS: f64 = 40.0;
const OFF_MS: f64 = 40.0;
const ZIPF_S: f64 = 1.0;
/// Each topic forwards through a drain worker with this many writes
/// buffered. With synchronous forwarding every publish parks a scheduler
/// worker on four replies, and the spare workers the kernel spawns to cover
/// them made peak memory swing by a third between identical runs.
const PUSH_AHEAD: usize = 4;
/// Throwaway set-ups before the measured one (each also times the first
/// delivery on a fresh kernel).
const SETUP_REPS: usize = 49;
/// A run whose generator fell further behind its schedule than the latency
/// limit at the 99th percentile is invalid: it did not offer the load it
/// claims.
const LAG_BOUND_NS: u64 = LIMIT_NS;

/// Span ids of each publish, so the topic and subscriber spans of one
/// publish join the generator's tree.
struct Tables {
    root: Vec<AtomicU64>,
    topic_span: Vec<AtomicU64>,
}

impl Tables {
    fn new(n: usize) -> Arc<Tables> {
        Arc::new(Tables {
            root: (0..n).map(|_| AtomicU64::new(0)).collect(),
            topic_span: (0..n).map(|_| AtomicU64::new(0)).collect(),
        })
    }
}

fn publish_id(v: &Value) -> usize {
    v.as_int().map(|i| i as usize).unwrap_or(usize::MAX)
}

/// The topic's transform: the identity, timed as a filter stage.
struct TopicTap {
    tables: Arc<Tables>,
}

impl Transform for TopicTap {
    fn push(&mut self, item: Value, out: &mut Emitter) {
        if !probe::tracing() {
            return Identity.push(item, out);
        }
        let start = probe::now_ns();
        let id = publish_id(&item);
        let span = probe::fresh_id();
        let root = self
            .tables
            .root
            .get(id)
            .map_or(0, |r| r.load(Ordering::Relaxed));
        if let Some(s) = self.tables.topic_span.get(id) {
            s.store(span, Ordering::Relaxed);
        }
        Identity.push(item, out);
        probe::record(
            Layer::FilterPush,
            start,
            probe::now_ns(),
            true,
            (span, root, root),
        );
    }
    fn name(&self) -> &'static str {
        "topic"
    }
}

/// Each subscriber's (publish id, arrival time) log.
type Arrivals = Arc<Mutex<Vec<(u32, u64)>>>;

/// A subscriber: accepts `Write`s and stamps each record's arrival.
struct Subscriber {
    arrivals: Arrivals,
    tables: Arc<Tables>,
}

impl EjectBehavior for Subscriber {
    fn type_name(&self) -> &'static str {
        "BenchSubscriber"
    }

    fn handle(&mut self, ctx: &EjectContext, inv: Invocation, reply: ReplyHandle) {
        let start = probe::now_ns();
        if inv.op.as_str() != ops::WRITE {
            reply.reply(Err(EdenError::NoSuchOperation {
                target: ctx.uid(),
                op: inv.op,
            }));
            return;
        }
        match WriteRequest::from_value(inv.arg) {
            Ok(w) => {
                let mut arrivals = self.arrivals.lock().expect("arrivals poisoned");
                let mut first = usize::MAX;
                for item in &w.items {
                    let id = publish_id(item);
                    first = first.min(id);
                    arrivals.push((id as u32, start));
                }
                drop(arrivals);
                reply.reply(Ok(Value::Unit));
                if !probe::tracing() {
                    return;
                }
                let parent = self
                    .tables
                    .topic_span
                    .get(first)
                    .map_or(0, |s| s.load(Ordering::Relaxed));
                let root = self
                    .tables
                    .root
                    .get(first)
                    .map_or(0, |s| s.load(Ordering::Relaxed));
                probe::record(
                    Layer::Subscriber,
                    start,
                    probe::now_ns(),
                    true,
                    (probe::fresh_id(), parent, root),
                );
            }
            Err(e) => reply.reply(Err(e)),
        }
    }
}

struct Topology {
    kernel: Kernel,
    topics: Vec<Uid>,
    arrivals: Vec<Arrivals>,
}

/// Build a kernel and spawn all 1,280 Ejects: the set-up being timed.
fn build(ctx: &Ctx, traced: bool, tables: &Arc<Tables>) -> Topology {
    let kernel = probe::timed(Layer::Build, || ctx.kernel(traced).build(), |_| true);
    let mut topics = Vec::with_capacity(TOPICS);
    let mut arrivals = Vec::with_capacity(TOPICS * FANOUT);
    probe::timed(
        Layer::Build,
        || {
            for _ in 0..TOPICS {
                let mut wiring = OutputWiring::default();
                for b in 0..FANOUT {
                    let a = Arc::new(Mutex::new(Vec::new()));
                    let sub = Subscriber {
                        arrivals: Arc::clone(&a),
                        tables: Arc::clone(tables),
                    };
                    let uid = probe::timed_res(Layer::Spawn, || kernel.spawn(Box::new(sub)))
                        .expect("spawn on a live kernel");
                    if b == 0 {
                        wiring = OutputWiring::primary_to(OutputPort::primary(uid));
                    } else {
                        let name = wiring
                            .channels()
                            .next()
                            .expect("primary channel")
                            .to_owned();
                        wiring.add(&name, OutputPort::primary(uid));
                    }
                    arrivals.push(a);
                }
                let tap = TopicTap {
                    tables: Arc::clone(tables),
                };
                let topic = PushFilterEject::with_push_ahead(Box::new(tap), wiring, PUSH_AHEAD);
                topics.push(
                    probe::timed_res(Layer::Spawn, || kernel.spawn(Box::new(topic)))
                        .expect("spawn on a live kernel"),
                );
            }
        },
        |_| true,
    );
    Topology {
        kernel,
        topics,
        arrivals,
    }
}

/// Cold start on a freshly built topology: publish once to topic 0 and
/// return the time the last of its subscribers logged the publish (`None`
/// if the write failed or a subscriber missed it for 10 s). The times are
/// the subscribers' own stamps, so polling them with sleeps costs no
/// precision and leaves the CPUs to the kernel.
fn cold_delivery(topo: &Topology) -> Option<u64> {
    let pending = topo.kernel.invoke(topo.topics[0], ops::WRITE, write(0));
    let deadline = probe::now_ns() + 10_000_000_000;
    let mut last = 0;
    for a in &topo.arrivals[..FANOUT] {
        loop {
            if let Some(&(_, at)) = a.lock().expect("arrivals poisoned").first() {
                last = last.max(at);
                break;
            }
            if probe::now_ns() > deadline {
                return None;
            }
            std::thread::sleep(Duration::from_micros(100));
        }
    }
    pending
        .wait_timeout(Duration::from_secs(10))
        .is_ok()
        .then_some(last)
}

fn write(id: usize) -> Value {
    WriteRequest::more(vec![Value::Int(id as i64)]).to_value()
}

/// One measured open-loop phase's results. Per-window vectors hold one
/// entry per second of schedule, keyed by each publish's due time.
#[derive(Default)]
struct Phase {
    publishes: u64,
    errors: u64,
    lost: u64,
    duplicated: u64,
    reordered: u64,
    win_publishes: Vec<u64>,
    /// Publishes delivered to every subscriber.
    win_complete: Vec<u64>,
    /// Of those, publishes delivered to every subscriber within the limit.
    win_good: Vec<u64>,
    win_latencies: Vec<probe::Hist>,
    win_lag: Vec<Vec<u64>>,
    /// Hypervisor steal share and process CPU seconds per window.
    win_steal: Vec<f64>,
    win_cpu: Vec<f64>,
    /// Steal share over the whole phase.
    steal: f64,
    cpu_s: f64,
}

fn run_phase(
    topo: &Topology,
    sched: &Schedule,
    seconds: f64,
    tables: &Arc<Tables>,
    acc: Option<&mut LayerAcc>,
) -> Phase {
    let n = sched.due_ns.len();
    let traced = acc.is_some();
    let before = topo.kernel.metrics().snapshot();
    let cpu0 = harness::cpu_seconds();
    let gauges = acc.as_ref().map(|a| &a.gauges);
    let (t0, lag, marks, replies) = harness::sampled(
        &topo.kernel,
        gauges.is_some(),
        gauges.unwrap_or(&Default::default()),
        || {
            let (tx, rx) = mpsc::channel::<(usize, u64, u64, PendingReply)>();
            let t0 = probe::now_ns() + 2_000_000;
            std::thread::scope(|s| {
                // The settler: waits on replies so the generator never does.
                let settler = s.spawn(move || {
                    let mut ok = vec![false; n];
                    for (id, span, sent, pending) in rx {
                        let res = pending.wait_timeout(Duration::from_secs(10));
                        if traced {
                            probe::record(
                                Layer::Invoke,
                                sent,
                                probe::now_ns(),
                                res.is_ok(),
                                (span, 0, span),
                            );
                        }
                        ok[id] = res.is_ok();
                    }
                    ok
                });
                let mut lag = Vec::with_capacity(n);
                // Steal and CPU readings at each window boundary the
                // generator crosses, so every second can be judged.
                let mark = || (harness::vm_ticks(), harness::cpu_seconds());
                let mut marks = vec![mark()];
                for (id, (&due, &topic)) in sched.due_ns.iter().zip(&sched.topic).enumerate() {
                    let at = t0 + due;
                    loop {
                        let now = probe::now_ns();
                        if now >= at {
                            break;
                        }
                        if at - now > 300_000 {
                            std::thread::sleep(Duration::from_nanos(at - now - 200_000));
                        } else {
                            std::thread::yield_now();
                        }
                    }
                    while marks.len() <= (due / 1_000_000_000) as usize {
                        marks.push(mark());
                    }
                    let span = if traced {
                        let span = probe::fresh_id();
                        tables.root[id].store(span, Ordering::Relaxed);
                        span
                    } else {
                        0
                    };
                    let sent = probe::now_ns();
                    lag.push(sent - at);
                    let pending =
                        topo.kernel
                            .invoke(topo.topics[topic as usize], ops::WRITE, write(id));
                    tx.send((id, span, sent, pending)).expect("settler alive");
                }
                marks.push(mark());
                drop(tx);
                let replies = settler.join().expect("settler panicked");
                (t0, lag, marks, replies)
            })
        },
    );
    let windows = seconds.ceil() as usize;
    let window_of = |id: usize| ((sched.due_ns[id] / 1_000_000_000) as usize).min(windows - 1);
    let mut p = Phase {
        cpu_s: harness::cpu_seconds() - cpu0,
        win_publishes: vec![0; windows],
        win_complete: vec![0; windows],
        win_good: vec![0; windows],
        win_latencies: vec![probe::Hist::default(); windows],
        win_lag: vec![Vec::new(); windows],
        win_steal: (0..windows)
            .map(|w| {
                let (a, b) = (
                    marks[w.min(marks.len() - 1)],
                    marks[(w + 1).min(marks.len() - 1)],
                );
                harness::steal_between(a.0, b.0)
            })
            .collect(),
        win_cpu: (0..windows)
            .map(|w| marks[(w + 1).min(marks.len() - 1)].1 - marks[w.min(marks.len() - 1)].1)
            .collect(),
        steal: harness::steal_between(marks[0].0, marks[marks.len() - 1].0),
        ..Phase::default()
    };
    for (id, l) in lag.into_iter().enumerate() {
        p.win_lag[window_of(id)].push(l);
    }
    // A topic acknowledges a write once its drain worker has queued it, so
    // the last deliveries may still be in flight: give them time to land
    // before judging any as lost.
    let expected = n * FANOUT;
    let deadline = probe::now_ns() + 10_000_000_000;
    while probe::now_ns() < deadline
        && topo
            .arrivals
            .iter()
            .map(|a| a.lock().expect("arrivals poisoned").len())
            .sum::<usize>()
            < expected
    {
        std::thread::sleep(Duration::from_millis(1));
    }
    let delta = topo.kernel.metrics().snapshot().since(&before);
    // Reference check: each subscriber saw every publish to its topic
    // exactly once, in publish order.
    let mut per_topic: Vec<Vec<usize>> = vec![Vec::new(); TOPICS];
    for (id, &t) in sched.topic.iter().enumerate() {
        per_topic[t as usize].push(id);
    }
    let mut worst = vec![0u64; n];
    let mut reached = vec![0u8; n];
    for (slot, a) in topo.arrivals.iter().enumerate() {
        let got = std::mem::take(&mut *a.lock().expect("arrivals poisoned"));
        let want = &per_topic[slot / FANOUT];
        let mut seen = vec![false; n];
        let mut last = None;
        for &(id, at) in &got {
            let id = id as usize;
            if id >= n || sched.topic[id] as usize != slot / FANOUT {
                p.duplicated += 1;
                continue;
            }
            if seen[id] {
                p.duplicated += 1;
                continue;
            }
            seen[id] = true;
            if last.is_some_and(|l| l > id) {
                p.reordered += 1;
            }
            last = Some(id);
            reached[id] += 1;
            let l = at.saturating_sub(t0 + sched.due_ns[id]);
            worst[id] = worst[id].max(l);
            p.win_latencies[window_of(id)].record(l);
        }
        p.lost += want.iter().filter(|&&id| !seen[id]).count() as u64;
    }
    p.publishes = n as u64;
    for id in 0..n {
        let w = window_of(id);
        p.win_publishes[w] += 1;
        if !replies[id] {
            p.errors += 1;
        }
        if reached[id] as usize == FANOUT && replies[id] {
            p.win_complete[w] += 1;
            if worst[id] <= LIMIT_NS {
                p.win_good[w] += 1;
            }
        }
    }
    if let Some(a) = acc {
        a.kernel.add(&delta);
        a.records += n as u64;
        a.wall_ns += (seconds * 1e9) as u64;
        a.traced_rate.push(p.cpu_s / n.max(1) as f64);
    }
    p
}

pub fn pubsub_open(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let shape = BurstShape {
        rate: RATE_PER_S,
        on_ms: ON_MS,
        off_ms: OFF_MS,
        topics: TOPICS,
        zipf_s: ZIPF_S,
    };
    let phase_s = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let sched = gen::schedule(ctx.seed, phase_s, &shape);
    let tables = Tables::new(sched.due_ns.len());
    let mut setup = Vec::new();
    let mut first = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = probe::now_ns();
        let topo = build(ctx, false, &tables);
        let built = probe::now_ns();
        setup.push((built - t) as f64 / 1e9);
        match cold_delivery(&topo) {
            Some(at) => first.push((at - built) as f64 / 1e9),
            None => out.problem("first publish on a fresh kernel did not reach its subscribers"),
        }
        topo.kernel.shutdown();
    }
    let mut acc = None;
    let mut phases = Vec::new();
    for traced in [false, true]
        .into_iter()
        .take(if ctx.trace { 2 } else { 1 })
    {
        // The traced phase times its own set-up (spawns included) as a
        // layer; only untraced set-ups count towards setup_s.
        if traced {
            acc = Some(LayerAcc::begin());
            probe::set_tracing(true);
        }
        let t = probe::now_ns();
        let topo = build(ctx, traced, &tables);
        let build_ns = probe::now_ns() - t;
        match acc.as_mut() {
            Some(a) => a.build_ns = build_ns,
            None => setup.push(build_ns as f64 / 1e9),
        }
        let p = run_phase(&topo, &sched, phase_s, &tables, acc.as_mut());
        probe::set_tracing(false);
        if let Some(a) = acc.as_mut() {
            a.kernel_done(&topo.kernel);
        }
        topo.kernel.shutdown();
        phases.push(p);
    }
    for p in &phases {
        out.attempted += p.publishes;
        out.failed += p.errors + p.lost + p.duplicated + p.reordered;
        if p.lost + p.duplicated + p.reordered + p.errors > 0 {
            out.problem(format!(
                "{} errors, {} lost, {} duplicated, {} out of order deliveries",
                p.errors, p.lost, p.duplicated, p.reordered
            ));
        }
    }
    // Score the quiet seconds of the untraced phase (see STEAL_LIMIT).
    let base = &mut phases[0];
    let shares = &base.win_steal;
    let (scored, fell_back) = harness::quiet(shares);
    let secs = scored.len().max(1) as f64;
    let sum = |v: &[u64]| scored.iter().map(|&w| v[w]).sum::<u64>();
    let publishes = sum(&base.win_publishes);
    let cpu: f64 = scored.iter().map(|&w| base.win_cpu[w]).sum();
    let mut lag: Vec<u64> = scored
        .iter()
        .flat_map(|&w| base.win_lag[w].iter().copied())
        .collect();
    lag.sort_unstable();
    let lag99 = probe::percentile(&lag, 0.99);
    let env = &mut out.envelope;
    env.put("gen_lag_ms.p50", probe::percentile(&lag, 0.50) as f64 / 1e6);
    env.put("gen_lag_ms.p99", lag99 as f64 / 1e6);
    env.put("gen_lag_bound_ms", LAG_BOUND_NS as f64 / 1e6);
    env.put("offered_rps", RATE_PER_S);
    env.put("publishes", base.publishes as f64);
    env.put("seconds_scored", scored.len() as f64);
    env.put("steal_fallbacks", f64::from(u8::from(fell_back)));
    let all_secs = base.win_good.len().max(1) as f64;
    env.put(
        "goodput_rps_all_seconds",
        base.win_good.iter().sum::<u64>() as f64 / all_secs,
    );
    env.put("vm_steal_frac", base.steal);
    env.put(
        "late_publishes_scored",
        (sum(&base.win_complete) - sum(&base.win_good)) as f64,
    );
    if lag99 > LAG_BOUND_NS {
        out.problem(format!(
            "invalid run: generator p99 lag {:.2} ms exceeds its {} ms bound",
            lag99 as f64 / 1e6,
            LAG_BOUND_NS / 1_000_000
        ));
    }
    let m = &mut out.e2e;
    m.put("setup_s", probe::median(&setup));
    m.put("throughput_rps", sum(&base.win_complete) as f64 / secs);
    m.put("goodput_rps", sum(&base.win_good) as f64 / secs);
    m.put("cpu_us_per_record", cpu * 1e6 / publishes.max(1) as f64);
    m.put("recovery_s", probe::median(&first));
    let windows: Vec<probe::Hist> = scored
        .iter()
        .map(|&w| std::mem::take(&mut base.win_latencies[w]))
        .collect();
    harness::latency_metrics(&mut out.envelope, &windows);
    if let Some(mut a) = acc {
        a.untraced_rate
            .push(base.cpu_s / base.publishes.max(1) as f64);
        // For an open loop the offered rate fixes throughput, so tracing
        // overhead shows as CPU per publish instead: traced over untraced.
        std::mem::swap(&mut a.untraced_rate, &mut a.traced_rate);
        a.wire_sample = Some(write(0));
        a.finish(&mut out.layers);
    }
    out
}
