//! Timing decorators around the layers' public seams, and the span store
//! of the traced run.
//!
//! Nothing here reaches inside a layer: every number is taken at a call the
//! benchmark makes or at a trait object it hands the layer (`Transform`,
//! `PullSource`, `StableBackend`, `HostFs`). Counters, spans and duration
//! samples are kept only while [`set_tracing`] is on; with tracing off a
//! decorator calls straight through, so the untraced run pays nothing for
//! them.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use bytes::Bytes;
use eden_core::{HostFs, HostFsHandle, Result, Uid};
use eden_kernel::{PassiveRecord, StableBackend, StableStats};

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The seams the benchmark times. Each is one span name in the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    FilterPush,
    SourcePull,
    StableStore,
    StableLoad,
    FsAppend,
    FsSync,
    Build,
    Run,
    Spawn,
    Invoke,
    Replay,
    Activate,
    Subscriber,
}

pub const LAYERS: [Layer; 13] = [
    Layer::FilterPush,
    Layer::SourcePull,
    Layer::StableStore,
    Layer::StableLoad,
    Layer::FsAppend,
    Layer::FsSync,
    Layer::Build,
    Layer::Run,
    Layer::Spawn,
    Layer::Invoke,
    Layer::Replay,
    Layer::Activate,
    Layer::Subscriber,
];

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::FilterPush => "filters.push",
            Layer::SourcePull => "transput.source_pull",
            Layer::StableStore => "stable.store",
            Layer::StableLoad => "stable.load",
            Layer::FsAppend => "stable.fs_append",
            Layer::FsSync => "stable.fs_sync",
            Layer::Build => "transput.build",
            Layer::Run => "transput.run",
            Layer::Spawn => "kernel.spawn",
            Layer::Invoke => "kernel.invoke",
            Layer::Replay => "stable.replay",
            Layer::Activate => "kernel.activate",
            Layer::Subscriber => "pubsub.subscriber",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Per-layer counters of the traced jobs.
#[derive(Debug, Default)]
pub struct LayerStat {
    pub calls: AtomicU64,
    pub busy_ns: AtomicU64,
    /// Layer-specific item count (records pulled, bytes appended).
    pub items: AtomicU64,
}

static STATS: [LayerStat; 13] = [const {
    LayerStat {
        calls: AtomicU64::new(0),
        busy_ns: AtomicU64::new(0),
        items: AtomicU64::new(0),
    }
}; 13];

pub fn stat(layer: Layer) -> &'static LayerStat {
    &STATS[layer.index()]
}

/// A frozen copy of one layer's counters, for before/after deltas.
#[derive(Debug, Clone, Copy, Default)]
pub struct StatSnap {
    pub calls: u64,
    pub busy_ns: u64,
    pub items: u64,
}

pub fn snap(layer: Layer) -> StatSnap {
    let s = stat(layer);
    StatSnap {
        calls: s.calls.load(Ordering::Relaxed),
        busy_ns: s.busy_ns.load(Ordering::Relaxed),
        items: s.items.load(Ordering::Relaxed),
    }
}

impl StatSnap {
    pub fn since(self, earlier: StatSnap) -> StatSnap {
        StatSnap {
            calls: self.calls - earlier.calls,
            busy_ns: self.busy_ns - earlier.busy_ns,
            items: self.items - earlier.items,
        }
    }
}

/// One recorded call. `parent == 0` marks a root; `trace` groups the spans
/// of one record, publish or benchmark call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub trace: u64,
    pub layer: Layer,
    pub start: u64,
    pub end: u64,
    pub ok: bool,
}

/// Spans kept in memory per traced run; later ones are counted, not kept.
pub const SPAN_CAP: usize = 200_000;

static TRACING: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static SPANS_DROPPED: AtomicU64 = AtomicU64::new(0);
/// Duration samples per layer (traced run only), for percentiles.
static SAMPLES: [Mutex<Vec<u64>>; 13] = [const { Mutex::new(Vec::new()) }; 13];

thread_local! {
    /// The span enclosing the current call on this thread: (span, trace).
    static CURRENT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

pub fn tracing() -> bool {
    TRACING.load(Ordering::Relaxed)
}

pub fn set_tracing(on: bool) {
    TRACING.store(on, Ordering::Relaxed);
}

pub fn fresh_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// Take every kept span and the count of spans over the cap.
pub fn take_spans() -> (Vec<Span>, u64) {
    let spans = std::mem::take(&mut *SPANS.lock().expect("span store poisoned"));
    (spans, SPANS_DROPPED.swap(0, Ordering::Relaxed))
}

/// Take the traced duration samples of one layer.
pub fn take_samples(layer: Layer) -> Vec<u64> {
    std::mem::take(&mut *SAMPLES[layer.index()].lock().expect("samples poisoned"))
}

/// Clear every traced sample and span (between the untraced and traced
/// halves of a run).
pub fn clear_traced() {
    take_spans();
    for l in LAYERS {
        take_samples(l);
    }
}

/// Account one finished call and keep its span (traced jobs only).
pub fn record(layer: Layer, start: u64, end: u64, ok: bool, ids: (u64, u64, u64)) {
    if !tracing() {
        return;
    }
    let s = stat(layer);
    s.calls.fetch_add(1, Ordering::Relaxed);
    s.busy_ns.fetch_add(end - start, Ordering::Relaxed);
    SAMPLES[layer.index()]
        .lock()
        .expect("samples poisoned")
        .push(end - start);
    let (id, parent, trace) = ids;
    let mut spans = SPANS.lock().expect("span store poisoned");
    if spans.len() < SPAN_CAP {
        spans.push(Span {
            id,
            parent,
            trace,
            layer,
            start,
            end,
            ok,
        });
    } else {
        SPANS_DROPPED.fetch_add(1, Ordering::Relaxed);
    }
}

/// Run `f` as a span of `layer`, nested under whatever span encloses this
/// thread's current call (a root if none). `ok` judges the result. With
/// tracing off it only calls `f`.
pub fn timed<T>(layer: Layer, f: impl FnOnce() -> T, ok: impl FnOnce(&T) -> bool) -> T {
    if !tracing() {
        return f();
    }
    let id = fresh_id();
    let (parent, trace) = CURRENT.with(Cell::get);
    let trace = if parent == 0 { id } else { trace };
    let start = now_ns();
    let prev = CURRENT.with(|c| c.replace((id, trace)));
    let out = f();
    CURRENT.with(|c| c.set(prev));
    let good = ok(&out);
    record(layer, start, now_ns(), good, (id, parent, trace));
    out
}

/// [`timed`] for calls returning `Result`.
pub fn timed_res<T, E>(
    layer: Layer,
    f: impl FnOnce() -> std::result::Result<T, E>,
) -> std::result::Result<T, E> {
    timed(layer, f, |r| r.is_ok())
}

/// `StableBackend` decorator: times `store` and `load`, forwards the rest.
#[derive(Debug)]
pub struct TimedBackend<B: StableBackend>(pub B);

impl<B: StableBackend> StableBackend for TimedBackend<B> {
    fn store(&self, uid: Uid, type_name: &str, bytes: Bytes) -> Result<()> {
        timed_res(Layer::StableStore, || self.0.store(uid, type_name, bytes))
    }
    fn load(&self, uid: Uid) -> Result<PassiveRecord> {
        timed_res(Layer::StableLoad, || self.0.load(uid))
    }
    fn contains(&self, uid: Uid) -> bool {
        self.0.contains(uid)
    }
    fn remove(&self, uid: Uid) -> Result<()> {
        self.0.remove(uid)
    }
    fn iter(&self) -> Vec<(Uid, PassiveRecord)> {
        self.0.iter()
    }
    fn uids(&self) -> Vec<Uid> {
        self.0.uids()
    }
    fn len(&self) -> usize {
        self.0.len()
    }
    fn total_bytes(&self) -> usize {
        self.0.total_bytes()
    }
    fn flush(&self) -> Result<()> {
        self.0.flush()
    }
    fn compact(&self) -> Result<()> {
        self.0.compact()
    }
    fn stats(&self) -> StableStats {
        self.0.stats()
    }
}

/// `HostFs` decorator under the durable log: times `append` and `sync`
/// and counts appended bytes.
pub struct TimedFs(pub HostFsHandle);

impl HostFs for TimedFs {
    fn read(&self, path: &str) -> Result<Vec<u8>> {
        self.0.read(path)
    }
    fn write(&self, path: &str, bytes: &[u8]) -> Result<()> {
        self.0.write(path, bytes)
    }
    fn append(&self, path: &str, bytes: &[u8]) -> Result<u64> {
        if tracing() {
            stat(Layer::FsAppend)
                .items
                .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        }
        timed_res(Layer::FsAppend, || self.0.append(path, bytes))
    }
    fn sync(&self, path: &str) -> Result<()> {
        timed_res(Layer::FsSync, || self.0.sync(path))
    }
    fn rename(&self, from: &str, to: &str) -> Result<()> {
        self.0.rename(from, to)
    }
    fn exists(&self, path: &str) -> bool {
        self.0.exists(path)
    }
    fn list(&self) -> Vec<String> {
        self.0.list()
    }
    fn remove(&self, path: &str) -> Result<()> {
        self.0.remove(path)
    }
}

/// A log-linear histogram of nanosecond values: 32 sub-buckets per power
/// of two, so any percentile read from it is within 3% of the sample's.
/// Constant size, so a run's memory does not grow with its sample count;
/// the buckets are allocated on the first sample.
#[derive(Debug, Clone, Default)]
pub struct Hist {
    counts: Vec<u32>,
    n: u64,
}

const BUCKETS: usize = 64 * 32;

impl Hist {
    fn index(v: u64) -> usize {
        if v < 32 {
            return v as usize;
        }
        let k = 63 - v.leading_zeros() as usize - 5;
        32 + k * 32 + ((v >> k) as usize - 32)
    }

    /// The midpoint of bucket `i`.
    fn value(i: usize) -> u64 {
        if i < 32 {
            return i as u64;
        }
        let (k, sub) = ((i - 32) / 32, (i - 32) % 32);
        ((32 + sub as u64) << k) + ((1u64 << k) >> 1)
    }

    pub fn record(&mut self, v: u64) {
        self.counts.resize(BUCKETS, 0);
        self.counts[Self::index(v)] += 1;
        self.n += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        if other.n == 0 {
            return;
        }
        self.counts.resize(BUCKETS, 0);
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    pub fn len(&self) -> u64 {
        self.n
    }

    /// The value at quantile `q` (nearest rank); 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.n == 0 {
            return 0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c as u64;
            if seen >= rank {
                return Self::value(i);
            }
        }
        Self::value(BUCKETS - 1)
    }
}

/// Sorted-sample percentile (nearest rank); 0 for no samples.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of floats (0 for none).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_stay_within_three_percent() {
        let mut h = Hist::default();
        let mut v: Vec<u64> = (1..=10_000u64)
            .map(|i| i * i * 37 % 50_000_000 + 1)
            .collect();
        for &x in &v {
            h.record(x);
        }
        v.sort_unstable();
        for q in [0.5, 0.9, 0.99] {
            let exact = percentile(&v, q) as f64;
            let got = h.quantile(q) as f64;
            assert!(
                (got - exact).abs() <= exact * 0.03,
                "q{q}: {got} vs {exact}"
            );
        }
        assert_eq!(h.len(), 10_000);
    }
}
