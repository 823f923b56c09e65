//! `crash-restart`: recoverable pipelines in all three disciplines over a
//! durable log on an in-memory filing system, with stage crashes at a fixed
//! period and whole-kernel restarts at seeded record positions.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use bytes::Bytes;
use eden_core::op::ops;
use eden_core::{EdenError, HostFsHandle, MemFs, Result, Uid, Value};
use eden_filters::editor::{Command, StreamEditor};
use eden_filters::text::{CaseFold, StripComments};
use eden_kernel::{
    DurableConfig, DurableLog, FaultKind, FaultPlan, FaultRule, FsyncPolicy, InvokeOptions, Kernel,
    RetryPolicy, StableBackend, StableStore,
};
use eden_transput::protocol::{Batch, TransferRequest};
use eden_transput::recovery::{RecoverablePullFilter, RecoverableSource};
use eden_transput::{
    install_recovery, resume_recoverable_pipeline, run_recoverable_pipeline, Emitter,
    RecoveryDiscipline, Transform, TransformRegistry,
};

use crate::gen;
use crate::harness::{self, Ctx, Job, LayerAcc, Outcome, Phase};
use crate::probe::{self, Layer, TimedBackend, TimedFs};

const RECORDS: usize = 600;
const BATCH: usize = 8;
const RESTARTS: usize = 2;
/// Idle checkpointed streams resident in the log, so replay reads a
/// realistic amount of state.
const IDLE_STREAMS: usize = 2000;
const IDLE_BYTES: usize = 96;
/// Log segment size. A pipeline's log is a few MiB, so the default 4 MiB
/// segments would hold it in one or two buffers whose reallocation and
/// replay copies made peak memory swing between 27 and 34 MiB across
/// identical runs.
const SEGMENT_BYTES: u64 = 256 << 10;
/// Every this many stream invocations of each kind (`Transfer`, `Write`)
/// crash their target. A fixed period rather than a probability keeps the
/// crash count, and so the recovery work, the same for every seed.
const CRASH_EVERY: u64 = 400;
const TIMEOUT: Duration = Duration::from_secs(60);
const NAMES: [&str; 3] = ["strip", "upcase", "sed"];

const DISCIPLINES: [(&str, RecoveryDiscipline); 3] = [
    ("read_only", RecoveryDiscipline::ReadOnly),
    ("write_only", RecoveryDiscipline::WriteOnly),
    ("conventional", RecoveryDiscipline::Conventional),
];

fn chain() -> Vec<Box<dyn Transform>> {
    vec![
        Box::new(StripComments::new("#")),
        Box::new(CaseFold::upper()),
        Box::new(StreamEditor::new(vec![Command::Substitute(
            "THE".into(),
            "the".into(),
        )])),
    ]
}

/// Per-record observations of one pipeline, keyed by the index each
/// record carries, so they survive crashes and replays. A probe made while
/// tracing is off keeps only the final stage's arrivals, which drive the
/// restart positions and the recovery time.
struct Probe {
    traced: bool,
    entered: Vec<AtomicU64>,
    arrived: Vec<AtomicU64>,
    arrivals: AtomicU64,
    /// First arrival at the final stage since the last restart.
    first_after: AtomicU64,
    stage_busy: [AtomicU64; 3],
    records_in: AtomicU64,
    records_out: AtomicU64,
    /// Traced run: the latest span of each stage per record, and each
    /// record's root span.
    span: [Vec<AtomicU64>; 3],
    root: Vec<AtomicU64>,
}

impl Probe {
    fn new(n: usize) -> Arc<Probe> {
        let v = || (0..n).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
        Arc::new(Probe {
            traced: probe::tracing(),
            entered: v(),
            arrived: v(),
            arrivals: AtomicU64::new(0),
            first_after: AtomicU64::new(0),
            stage_busy: Default::default(),
            records_in: AtomicU64::new(0),
            records_out: AtomicU64::new(0),
            span: [v(), v(), v()],
            root: v(),
        })
    }
}

/// Registry factories are plain `fn`s, so the stage decorators find the
/// current pipeline's probe here.
static PROBE: Mutex<Option<Arc<Probe>>> = Mutex::new(None);

fn current_probe() -> Arc<Probe> {
    PROBE
        .lock()
        .expect("probe slot poisoned")
        .clone()
        .expect("a pipeline is running")
}

/// A recoverable stage's transform, timed, recognising records by index.
struct Stage {
    k: usize,
    inner: Box<dyn Transform>,
    probe: Arc<Probe>,
}

impl Stage {
    /// The record's index, if it carries one in range.
    fn index(&self, item: &Value) -> Option<usize> {
        item.as_str()
            .ok()
            .and_then(gen::line_index)
            .filter(|&i| i < self.probe.entered.len())
    }

    /// Note the record's arrival at the final stage.
    fn arrive(&self, i: usize, now: u64) {
        let p = &self.probe;
        let _ = p
            .first_after
            .compare_exchange(0, now, Ordering::Relaxed, Ordering::Relaxed);
        if p.arrived[i]
            .compare_exchange(0, now, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            p.arrivals.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl Transform for Stage {
    fn push(&mut self, item: Value, out: &mut Emitter) {
        let last = self.k == NAMES.len() - 1;
        if !self.probe.traced {
            if let Some(i) = last.then(|| self.index(&item)).flatten() {
                self.arrive(i, probe::now_ns());
            }
            return self.inner.push(item, out);
        }
        let start = probe::now_ns();
        let p = &self.probe;
        let idx = self.index(&item);
        let span = probe::fresh_id();
        let (mut parent, mut trace) = (0, span);
        if let Some(i) = idx {
            if self.k == 0 {
                let _ =
                    p.entered[i].compare_exchange(0, start, Ordering::Relaxed, Ordering::Relaxed);
                // A replayed first-stage push hangs under the first one, so
                // a record's spans keep a single root.
                match p.root[i].compare_exchange(0, span, Ordering::Relaxed, Ordering::Relaxed) {
                    Ok(_) => {}
                    Err(r) => {
                        parent = r;
                        trace = r;
                    }
                }
            } else {
                parent = p.span[self.k - 1][i].load(Ordering::Relaxed);
                trace = p.root[i].load(Ordering::Relaxed);
            }
            p.span[self.k][i].store(span, Ordering::Relaxed);
            if last {
                self.arrive(i, start);
            }
        }
        p.records_in.fetch_add(1, Ordering::Relaxed);
        let mut e = Emitter::new();
        self.inner.push(item, &mut e);
        let items = e.take_primary();
        p.records_out
            .fetch_add(items.len() as u64, Ordering::Relaxed);
        for it in items {
            out.emit(it);
        }
        let end = probe::now_ns();
        p.stage_busy[self.k].fetch_add(end - start, Ordering::Relaxed);
        probe::record(Layer::FilterPush, start, end, true, (span, parent, trace));
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

fn stage(k: usize) -> Box<dyn Transform> {
    let inner = chain().swap_remove(k);
    Box::new(Stage {
        k,
        inner,
        probe: current_probe(),
    })
}

fn registry() -> TransformRegistry {
    TransformRegistry::new(&[
        (NAMES[0], || stage(0)),
        (NAMES[1], || stage(1)),
        (NAMES[2], || stage(2)),
    ])
}

fn durable_config() -> DurableConfig {
    DurableConfig {
        auto_compact: false,
        segment_bytes: SEGMENT_BYTES,
        ..DurableConfig::with_fsync(FsyncPolicy::EveryN(8))
    }
}

/// Open the durable log over `fs` (the replay) and a fresh kernel on it.
fn open(
    ctx: &Ctx,
    fs: &HostFsHandle,
    traced: bool,
    life: u64,
    replay_ms: &mut Vec<f64>,
) -> Result<Kernel> {
    let t = probe::now_ns();
    let log = probe::timed_res(Layer::Replay, || {
        DurableLog::open(Arc::clone(fs), durable_config())
    })?;
    replay_ms.push((probe::now_ns() - t) as f64 / 1e6);
    let store = StableStore::with_backend(Arc::new(TimedBackend(log)));
    let kernel = probe::timed(
        Layer::Build,
        || ctx.kernel(traced).stable_store(store).build(),
        |_| true,
    );
    install_recovery(&kernel, &registry());
    let seed = ctx.seed.wrapping_mul(31).wrapping_add(life);
    kernel.install_faults(
        FaultPlan::new(seed)
            .rule(
                FaultRule::new(FaultKind::CrashTarget)
                    .on_op(ops::TRANSFER)
                    .every(CRASH_EVERY),
            )
            .rule(
                FaultRule::new(FaultKind::CrashTarget)
                    .on_op(ops::WRITE)
                    .every(CRASH_EVERY),
            ),
    );
    Ok(kernel)
}

/// The library's stream retry policy, for the benchmark's own read-only
/// sink loop.
fn stream_opts() -> InvokeOptions<'static> {
    InvokeOptions::new()
        .retry(
            RetryPolicy::retries(24)
                .base_delay(Duration::from_millis(1))
                .max_delay(Duration::from_millis(25)),
        )
        .deadline(Duration::from_secs(20))
}

/// Reactivate every stage of a restored pipeline with its first
/// invocation, timing each.
fn activate(kernel: &Kernel, stages: &[Uid]) {
    for &uid in stages {
        let _ = probe::timed_res(Layer::Activate, || {
            kernel
                .invoke_with(
                    uid,
                    ops::DESCRIBE,
                    Value::Unit,
                    InvokeOptions::new().immune(),
                )
                .wait_timeout(Duration::from_secs(5))
        });
    }
}

#[derive(Default)]
struct PipeResult {
    setup_ns: u64,
    /// Data-phase bounds, and the share of the machine's CPU stolen
    /// meanwhile.
    start: u64,
    end: u64,
    steal: f64,
    cpu_s: f64,
    recovery_ns: Vec<u64>,
    output: Vec<Value>,
    error: Option<EdenError>,
    /// Traced run: each retired kernel's final snapshot.
    snaps: Vec<eden_kernel::KernelSnapshot>,
}

/// Shut a kernel down, keeping its snapshot in a traced run.
fn retire(kernel: &Kernel, traced: bool, snaps: &mut Vec<eden_kernel::KernelSnapshot>) {
    kernel.shutdown();
    if traced {
        snaps.push(kernel.metrics_snapshot());
    }
}

fn one_pipeline(
    ctx: &Ctx,
    discipline: RecoveryDiscipline,
    items: &[Value],
    positions: &[usize],
    traced: bool,
    replay_ms: &mut Vec<f64>,
) -> PipeResult {
    let mut r = PipeResult::default();
    let t0 = probe::now_ns();
    // Set-up: populate the log with idle streams, then open it.
    let mem = MemFs::new();
    {
        let log = DurableLog::open(Arc::clone(&mem), durable_config()).expect("fresh log opens");
        for i in 0..IDLE_STREAMS {
            let _ = log.store(
                Uid::fresh(),
                "BenchIdle",
                Bytes::from(vec![i as u8; IDLE_BYTES]),
            );
        }
        let _ = log.flush();
    }
    let fs: HostFsHandle = Arc::new(TimedFs(mem));
    let mut kernel = match open(ctx, &fs, traced, 0, replay_ms) {
        Ok(k) => k,
        Err(e) => {
            r.error = Some(e);
            return r;
        }
    };
    let probe_ = current_probe();
    let result = match discipline {
        RecoveryDiscipline::ReadOnly => drive_read_only(
            ctx,
            &fs,
            &mut kernel,
            items,
            positions,
            traced,
            replay_ms,
            &probe_,
            &mut r,
            t0,
        ),
        d => drive_active(
            ctx,
            &fs,
            &mut kernel,
            d,
            items,
            positions,
            traced,
            replay_ms,
            &probe_,
            &mut r,
            t0,
        ),
    };
    retire(&kernel, traced, &mut r.snaps);
    match result {
        Ok(out) => r.output = out,
        Err(e) => r.error = Some(e),
    }
    r
}

/// Read-only: the benchmark is the sink, pulling positional `Transfer`s
/// from the tail filter; the library's read-only pipeline runner keeps its
/// position private and so cannot resume on a new kernel.
#[allow(clippy::too_many_arguments)]
fn drive_read_only(
    ctx: &Ctx,
    fs: &HostFsHandle,
    kernel: &mut Kernel,
    items: &[Value],
    positions: &[usize],
    traced: bool,
    replay_ms: &mut Vec<f64>,
    p: &Probe,
    r: &mut PipeResult,
    t0: u64,
) -> Result<Vec<Value>> {
    let reg = registry();
    let spawn =
        |b: Box<dyn eden_kernel::EjectBehavior>| probe::timed_res(Layer::Spawn, || kernel.spawn(b));
    let mut stages = vec![spawn(Box::new(RecoverableSource::new(items.to_vec())))?];
    for name in NAMES {
        let up = *stages.last().expect("source spawned");
        stages.push(spawn(Box::new(RecoverablePullFilter::new(
            name, &reg, up, BATCH,
        )?))?);
    }
    let tail = *stages.last().expect("filters spawned");
    let start = probe::now_ns();
    r.setup_ns = start - t0;
    let cpu0 = harness::cpu_seconds();
    let vm0 = harness::vm_ticks();
    let mut output = Vec::new();
    let mut pos = 0u64;
    let mut restarts = 0;
    loop {
        let mut reopened = None;
        if restarts < positions.len() && pos as usize >= positions[restarts] {
            restarts += 1;
            retire(kernel, traced, &mut r.snaps);
            reopened = Some(probe::now_ns());
            p.first_after.store(0, Ordering::Relaxed);
            *kernel = open(ctx, fs, traced, restarts as u64, replay_ms)?;
            activate(kernel, &stages);
        }
        let req = TransferRequest::primary(BATCH).at(pos);
        let reply = kernel
            .invoke_with(tail, ops::TRANSFER, req.to_value(), stream_opts())
            .wait_timeout(TIMEOUT)?;
        let b = Batch::from_value(reply)?;
        if let Some(opened) = reopened {
            let first = p.first_after.load(Ordering::Relaxed).max(opened);
            r.recovery_ns.push(first - opened);
        }
        pos += b.items.len() as u64;
        output.extend(b.items);
        if b.end {
            break;
        }
    }
    (r.start, r.end) = (start, probe::now_ns());
    r.steal = harness::steal_since(vm0);
    r.cpu_s = harness::cpu_seconds() - cpu0;
    Ok(output)
}

/// Write-only and conventional: the library runs the pipeline; the
/// benchmark pulls the plug when the final stage has seen enough records,
/// then resumes the same stages on a fresh kernel over the same log.
#[allow(clippy::too_many_arguments)]
fn drive_active(
    ctx: &Ctx,
    fs: &HostFsHandle,
    kernel: &mut Kernel,
    discipline: RecoveryDiscipline,
    items: &[Value],
    positions: &[usize],
    traced: bool,
    replay_ms: &mut Vec<f64>,
    p: &Probe,
    r: &mut PipeResult,
    t0: u64,
) -> Result<Vec<Value>> {
    let start = probe::now_ns();
    r.setup_ns = start - t0;
    let cpu0 = harness::cpu_seconds();
    let vm0 = harness::vm_ticks();
    let reg = registry();
    let k = kernel.clone();
    let input = items.to_vec();
    let mut runner = std::thread::spawn(move || {
        run_recoverable_pipeline(&k, discipline, input, &NAMES, &reg, BATCH, TIMEOUT)
            .map(|run| run.output)
    });
    let mut stages: Vec<Uid> = Vec::new();
    for (life, &pos) in positions.iter().enumerate() {
        while (p.arrivals.load(Ordering::Relaxed) as usize) < pos && !runner.is_finished() {
            std::thread::sleep(Duration::from_micros(200));
        }
        if runner.is_finished() {
            break;
        }
        if stages.is_empty() {
            let mut ejects: Vec<_> = kernel
                .list_ejects()
                .into_iter()
                .filter(|e| e.type_name.starts_with("Recoverable"))
                .collect();
            ejects.sort_by_key(|e| e.uid.seq());
            // Head first, the acceptor last: the order resume expects.
            let (acceptor, rest): (Vec<_>, Vec<_>) = ejects
                .into_iter()
                .partition(|e| e.type_name == "RecoverableAcceptor");
            stages = rest.into_iter().chain(acceptor).map(|e| e.uid).collect();
        }
        retire(kernel, traced, &mut r.snaps);
        let _ = runner.join();
        let opened = probe::now_ns();
        p.first_after.store(0, Ordering::Relaxed);
        *kernel = open(ctx, fs, traced, life as u64 + 1, replay_ms)?;
        activate(kernel, &stages);
        let k = kernel.clone();
        let s = stages.clone();
        runner = std::thread::spawn(move || resume_recoverable_pipeline(&k, &s, TIMEOUT));
        while p.first_after.load(Ordering::Relaxed) == 0 && !runner.is_finished() {
            std::thread::sleep(Duration::from_micros(100));
        }
        r.recovery_ns
            .push(p.first_after.load(Ordering::Relaxed).max(opened) - opened);
    }
    let out = runner
        .join()
        .map_err(|_| EdenError::Application("pipeline thread panicked".into()))?;
    (r.start, r.end) = (start, probe::now_ns());
    r.steal = harness::steal_since(vm0);
    r.cpu_s = harness::cpu_seconds() - cpu0;
    out
}

fn job(
    ctx: &Ctx,
    items: &[Value],
    expect: &[Value],
    positions: &[usize],
    mut acc: Option<&mut LayerAcc>,
    out: &mut Outcome,
) -> Job {
    let traced = acc.is_some();
    let mut j = Job::default();
    for (label, d) in DISCIPLINES {
        let p = Probe::new(items.len());
        *PROBE.lock().expect("probe slot poisoned") = Some(Arc::clone(&p));
        let mut replay = Vec::new();
        let r = one_pipeline(ctx, d, items, positions, traced, &mut replay);
        *PROBE.lock().expect("probe slot poisoned") = None;
        j.setup_ns += r.setup_ns;
        let mut phase = Phase {
            label,
            start: r.start,
            end: r.end,
            steal: r.steal,
            cpu_s: r.cpu_s,
            recovery_ns: r.recovery_ns.clone(),
            ..Phase::default()
        };
        out.attempted += items.len() as u64;
        if let Some(e) = &r.error {
            out.failed += items.len() as u64;
            out.problem(format!("{label}: {e}"));
            continue;
        }
        let (lost, dup, wrong) = check(&r.output, expect);
        if lost + dup + wrong > 0 {
            out.failed += lost + dup + wrong;
            out.problem(format!(
                "{label}: {lost} lost, {dup} duplicated, {wrong} wrong records"
            ));
        }
        phase.records = r.output.len() as u64 - dup;
        for i in 0..items.len() {
            let a = p.arrived[i].load(Ordering::Relaxed);
            let e = p.entered[i].load(Ordering::Relaxed);
            if a > 0 && e > 0 {
                phase.latencies.record(a.saturating_sub(e));
            }
        }
        if let Some(a) = acc.as_deref_mut() {
            let invocations: u64 = r.snaps.iter().map(|s| s.metrics.invocations).sum();
            a.discipline(label, invocations, r.output.len() as u64 - dup);
            for snap in r.snaps {
                a.kernel.add(&snap.metrics);
                a.kernel_snapshot(snap);
            }
            a.wall_ns += r.end - r.start;
            a.replay_ms.extend(replay.iter().skip(1));
            *a.run_ms.entry(label).or_default() += (r.end - r.start) as f64 / 1e6;
            a.bottleneck_ns += p
                .stage_busy
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .max()
                .unwrap_or(0);
            a.filter_in += p.records_in.load(Ordering::Relaxed);
            a.filter_out += p.records_out.load(Ordering::Relaxed);
        }
        j.phases.push(phase);
    }
    j
}

/// Lost, duplicated and wrong records against the reference, matched by
/// the index each record carries.
fn check(got: &[Value], want: &[Value]) -> (u64, u64, u64) {
    if got == want {
        return (0, 0, 0);
    }
    let index = |v: &Value| v.as_str().ok().and_then(gen::line_index);
    let mut seen = std::collections::HashMap::new();
    let mut wrong = 0;
    for g in got {
        *seen.entry(index(g)).or_insert(0u64) += 1;
        if !want.contains(g) {
            wrong += 1;
        }
    }
    let dup = seen.values().map(|&c| c.saturating_sub(1)).sum();
    let lost = want
        .iter()
        .filter(|w| !seen.contains_key(&index(w)))
        .count() as u64;
    (lost, dup, wrong)
}

pub fn crash_restart(ctx: &Ctx) -> Outcome {
    let items: Vec<Value> = gen::indexed_lines(ctx.seed, RECORDS)
        .into_iter()
        .map(Value::str)
        .collect();
    let oracle = || {
        let mut records = items.clone();
        for mut t in chain() {
            let mut e = Emitter::new();
            for r in records {
                t.push(r, &mut e);
            }
            records = e.take_primary();
        }
        records
    };
    let expect = oracle();
    let positions = gen::restart_positions(ctx.seed, RECORDS, RESTARTS);
    harness::run_closed(
        ctx,
        |acc, out| job(ctx, &items, &expect, &positions, acc, out),
        |a| {
            a.oracle_ms = harness::oracle_ms(|| {
                for _ in DISCIPLINES {
                    std::hint::black_box(oracle());
                }
            });
            a.wire_sample =
                Some(eden_transput::WriteRequest::more(items[..BATCH].to_vec()).to_value());
        },
    )
}
