//! Record provenance through a closed-loop pipeline, observed only at the
//! `PullSource` and `Transform` seams.
//!
//! Every stage of a pipeline copy consumes its input in stream order on a
//! single Eject, so a FIFO of provenance entries per stage input tells each
//! wrapped stage which source pull its current record came from. That gives
//! per-record latency (source pull to arrival at a final stage) and, in the
//! traced run, the parent links that make one record's spans a tree rooted
//! at the pull that produced it.
//!
//! A chain built while tracing is off keeps none of this: its wrappers call
//! straight through and note only the first record's arrival, which the
//! cold-start metric needs, so the untraced run measures the program rather
//! than the benchmark's bookkeeping.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use eden_core::Value;
use eden_transput::protocol::Batch;
use eden_transput::source::PullSource;
use eden_transput::{Emitter, Transform};

use crate::probe::{self, Layer};

#[derive(Debug, Clone, Copy)]
struct Prov {
    origin: u64,
    trace: u64,
    parent: u64,
}

/// Shared state of one pipeline copy's wrappers.
#[derive(Debug)]
pub struct Chain {
    /// Whether this chain was built for a traced job.
    traced: bool,
    queues: Vec<Mutex<VecDeque<Prov>>>,
    /// Busy time per stage, for the bottleneck stage.
    pub stage_busy_ns: Vec<AtomicU64>,
    pub records_in: AtomicU64,
    pub records_out: AtomicU64,
    /// Per-record latency in ns, taken on entry to a final stage (traced
    /// jobs only).
    pub latencies: Mutex<Vec<u64>>,
    /// Time the first record reached a final stage (`u64::MAX` until then).
    pub first_arrival: AtomicU64,
    last_pull_end: AtomicU64,
    /// Time the source sat idle between pulls.
    pub source_wait_ns: AtomicU64,
    /// Records a stage saw without a provenance entry (a wiring bug).
    pub orphans: AtomicU64,
}

impl Chain {
    /// Provenance for `inputs` stage inputs (input 0 is fed by the source),
    /// kept only if tracing is on now.
    pub fn new(inputs: usize, stages: usize) -> Arc<Chain> {
        Arc::new(Chain {
            traced: probe::tracing(),
            queues: (0..inputs).map(|_| Mutex::new(VecDeque::new())).collect(),
            stage_busy_ns: (0..stages).map(|_| AtomicU64::new(0)).collect(),
            records_in: AtomicU64::new(0),
            records_out: AtomicU64::new(0),
            latencies: Mutex::new(Vec::new()),
            first_arrival: AtomicU64::new(u64::MAX),
            last_pull_end: AtomicU64::new(0),
            source_wait_ns: AtomicU64::new(0),
            orphans: AtomicU64::new(0),
        })
    }

    fn push_prov(&self, queue: usize, prov: Prov, n: usize) {
        let mut q = self.queues[queue]
            .lock()
            .expect("provenance queue poisoned");
        q.extend(std::iter::repeat_n(prov, n));
    }

    fn pop_prov(&self, queue: usize, now: u64) -> Prov {
        let p = self.queues[queue]
            .lock()
            .expect("provenance queue poisoned")
            .pop_front();
        p.unwrap_or_else(|| {
            self.orphans.fetch_add(1, Ordering::Relaxed);
            Prov {
                origin: now,
                trace: 0,
                parent: 0,
            }
        })
    }

    /// Mark the start of a job's data phase (source wait counts from here).
    pub fn start(&self) {
        self.last_pull_end.store(probe::now_ns(), Ordering::Relaxed);
    }
}

/// `PullSource` decorator: times each pull and stamps its records' origin.
pub struct TimedSource {
    pub inner: Box<dyn PullSource>,
    pub chain: Arc<Chain>,
}

impl PullSource for TimedSource {
    fn pull(&mut self, max: usize) -> Batch {
        if !self.chain.traced {
            return self.inner.pull(max);
        }
        let start = probe::now_ns();
        let prev = self.chain.last_pull_end.load(Ordering::Relaxed);
        self.chain
            .source_wait_ns
            .fetch_add(start.saturating_sub(prev), Ordering::Relaxed);
        let batch = self.inner.pull(max);
        let end = probe::now_ns();
        self.chain.last_pull_end.store(end, Ordering::Relaxed);
        let id = probe::fresh_id();
        let n = batch.items.len();
        probe::stat(Layer::SourcePull)
            .items
            .fetch_add(n as u64, Ordering::Relaxed);
        self.chain.push_prov(
            0,
            Prov {
                origin: end,
                trace: id,
                parent: id,
            },
            n,
        );
        probe::record(Layer::SourcePull, start, end, true, (id, 0, id));
        batch
    }
}

/// `Transform` decorator for one stage of a [`Chain`]: reads its records'
/// provenance from input queue `input` and passes it on to `outputs`. A
/// stage with no outputs is final: record latency ends there.
pub struct TimedTransform {
    pub inner: Box<dyn Transform>,
    pub chain: Arc<Chain>,
    pub stage: usize,
    pub input: usize,
    pub outputs: Vec<usize>,
}

impl TimedTransform {
    fn forward(&self, mut emitted: Emitter, out: &mut Emitter, prov: Prov) {
        let items = emitted.take_primary();
        self.chain
            .records_out
            .fetch_add(items.len() as u64, Ordering::Relaxed);
        for &q in &self.outputs {
            self.chain.push_prov(q, prov, items.len());
        }
        for item in items {
            out.emit(item);
        }
        for (channel, items) in emitted.take_secondary() {
            for item in items {
                out.emit_on(&channel, item);
            }
        }
    }

    fn finish(&self, start: u64, ids: (u64, u64, u64)) {
        let end = probe::now_ns();
        self.chain.stage_busy_ns[self.stage].fetch_add(end - start, Ordering::Relaxed);
        probe::record(Layer::FilterPush, start, end, true, ids);
    }
}

impl Transform for TimedTransform {
    fn push(&mut self, item: Value, out: &mut Emitter) {
        if !self.chain.traced {
            let first = &self.chain.first_arrival;
            if self.outputs.is_empty() && first.load(Ordering::Relaxed) == u64::MAX {
                first.fetch_min(probe::now_ns(), Ordering::Relaxed);
            }
            return self.inner.push(item, out);
        }
        let start = probe::now_ns();
        let prov = self.chain.pop_prov(self.input, start);
        self.chain.records_in.fetch_add(1, Ordering::Relaxed);
        if self.outputs.is_empty() {
            self.chain
                .latencies
                .lock()
                .expect("latency store poisoned")
                .push(start - prov.origin);
            self.chain.first_arrival.fetch_min(start, Ordering::Relaxed);
        }
        let id = probe::fresh_id();
        let mut emitted = Emitter::new();
        self.inner.push(item, &mut emitted);
        let next = Prov {
            origin: prov.origin,
            trace: prov.trace,
            parent: id,
        };
        self.forward(emitted, out, next);
        self.finish(start, (id, prov.parent, prov.trace));
    }

    fn flush(&mut self, out: &mut Emitter) {
        if !self.chain.traced {
            return self.inner.flush(out);
        }
        let start = probe::now_ns();
        let id = probe::fresh_id();
        let mut emitted = Emitter::new();
        self.inner.flush(&mut emitted);
        let root = Prov {
            origin: start,
            trace: id,
            parent: id,
        };
        self.forward(emitted, out, root);
        self.finish(start, (id, 0, id));
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn secondary_channels(&self) -> Vec<&'static str> {
        self.inner.secondary_channels()
    }

    fn state(&self) -> Option<Value> {
        self.inner.state()
    }

    fn restore(&mut self, state: &Value) -> eden_core::Result<()> {
        self.inner.restore(state)
    }
}
