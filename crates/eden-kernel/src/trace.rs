//! Invocation tracing: a bounded in-kernel event log.
//!
//! The paper's cost argument is denominated in invocations; this module
//! makes them observable one by one. Enable with
//! [`KernelBuilder::trace_capacity`](crate::KernelBuilder::trace_capacity) and read back with
//! [`Kernel::trace_events`](crate::Kernel) — the experiment harness uses it
//! to show *which* Eject pairs exchange the n+1 versus 2n+2 messages.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use eden_core::{OpName, Uid};
use parking_lot::Mutex;

use crate::kernel::NodeId;

/// One traced kernel event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// An invocation was routed.
    Invoke {
        /// Global sequence number (gaps mean the ring overflowed).
        seq: u64,
        /// The target Eject.
        target: Uid,
        /// The operation.
        op: OpName,
        /// Originating node.
        from: NodeId,
        /// Target's node.
        to: NodeId,
    },
    /// An Eject was (re)activated.
    Activate {
        /// Global sequence number.
        seq: u64,
        /// The Eject.
        uid: Uid,
        /// Its Eden type name.
        type_name: String,
    },
    /// An Eject stopped (deactivation, crash, or shutdown).
    Stop {
        /// Global sequence number.
        seq: u64,
        /// The Eject.
        uid: Uid,
        /// True if it stopped by fault injection.
        crashed: bool,
    },
}

impl TraceEvent {
    /// The event's global sequence number.
    pub fn seq(&self) -> u64 {
        match self {
            TraceEvent::Invoke { seq, .. }
            | TraceEvent::Activate { seq, .. }
            | TraceEvent::Stop { seq, .. } => *seq,
        }
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::Invoke {
                seq,
                target,
                op,
                from,
                to,
            } => write!(
                f,
                "[{seq:06}] invoke {op} -> {target} (node {} -> {}{})",
                from.0,
                to.0,
                if from != to { ", remote" } else { "" }
            ),
            TraceEvent::Activate {
                seq,
                uid,
                type_name,
            } => write!(f, "[{seq:06}] activate {uid} ({type_name})"),
            TraceEvent::Stop { seq, uid, crashed } => write!(
                f,
                "[{seq:06}] stop {uid}{}",
                if *crashed { " (crashed)" } else { "" }
            ),
        }
    }
}

/// The events surviving in the trace ring plus the count of events the ring
/// has evicted since the kernel started. Derefs to `[TraceEvent]`, so code
/// that only wants the events can iterate it directly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceDump {
    /// The surviving events, oldest first.
    pub events: Vec<TraceEvent>,
    /// Events evicted from the ring to stay within capacity. Monotonic:
    /// `events.len() as u64 + dropped` equals the total ever recorded.
    pub dropped: u64,
}

impl std::ops::Deref for TraceDump {
    type Target = [TraceEvent];

    fn deref(&self) -> &[TraceEvent] {
        &self.events
    }
}

impl<'a> IntoIterator for &'a TraceDump {
    type Item = &'a TraceEvent;
    type IntoIter = std::slice::Iter<'a, TraceEvent>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

/// A bounded ring of trace events plus per-target invocation tallies.
pub(crate) struct TraceLog {
    ring: Mutex<VecDeque<TraceEvent>>,
    per_target: Mutex<HashMap<Uid, u64>>,
    capacity: usize,
    seq: AtomicU64,
    dropped: AtomicU64,
}

impl TraceLog {
    pub(crate) fn new(capacity: usize) -> TraceLog {
        TraceLog {
            ring: Mutex::new(VecDeque::with_capacity(capacity.min(4096))),
            per_target: Mutex::new(HashMap::new()),
            capacity: capacity.max(1),
            seq: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    fn push(&self, event: TraceEvent) {
        let mut ring = self.ring.lock();
        if ring.len() == self.capacity {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(event);
    }

    fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed)
    }

    pub(crate) fn record_invoke(&self, target: Uid, op: &OpName, from: NodeId, to: NodeId) {
        *self.per_target.lock().entry(target).or_insert(0) += 1;
        let seq = self.next_seq();
        self.push(TraceEvent::Invoke {
            seq,
            target,
            op: op.clone(),
            from,
            to,
        });
    }

    pub(crate) fn record_activate(&self, uid: Uid, type_name: &str) {
        let seq = self.next_seq();
        self.push(TraceEvent::Activate {
            seq,
            uid,
            type_name: type_name.to_owned(),
        });
    }

    pub(crate) fn record_stop(&self, uid: Uid, crashed: bool) {
        let seq = self.next_seq();
        self.push(TraceEvent::Stop { seq, uid, crashed });
    }

    pub(crate) fn events(&self) -> TraceDump {
        TraceDump {
            events: self.ring.lock().iter().cloned().collect(),
            dropped: self.dropped.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    pub(crate) fn per_target(&self) -> Vec<(Uid, u64)> {
        let mut counts: Vec<(Uid, u64)> =
            self.per_target.lock().iter().map(|(k, v)| (*k, *v)).collect();
        counts.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_bounds_and_orders() {
        let log = TraceLog::new(3);
        for i in 0..5 {
            log.record_invoke(
                Uid::fresh(),
                &OpName::from("Transfer"),
                NodeId(0),
                NodeId(i as u16),
            );
        }
        let events = log.events();
        assert_eq!(events.len(), 3, "ring must stay bounded");
        // The survivors are the latest, in order.
        assert_eq!(events[0].seq() + 1, events[1].seq());
        assert_eq!(events[2].seq(), 4);
    }

    #[test]
    fn overflow_is_counted_not_silent() {
        let log = TraceLog::new(3);
        assert_eq!(log.events().dropped, 0);
        for _ in 0..5 {
            log.record_invoke(Uid::fresh(), &OpName::from("Transfer"), NodeId(0), NodeId(0));
        }
        let dump = log.events();
        assert_eq!(dump.dropped, 2, "two events were evicted");
        assert_eq!(
            dump.events.len() as u64 + dump.dropped,
            5,
            "survivors + dropped account for every recorded event"
        );
        // The counter is monotonic across further wrap-arounds.
        log.record_invoke(Uid::fresh(), &OpName::from("Write"), NodeId(0), NodeId(0));
        assert_eq!(log.events().dropped, 3);
        assert_eq!(log.dropped(), 3);
    }

    #[test]
    fn per_target_tallies_sorted_desc() {
        let log = TraceLog::new(16);
        let a = Uid::fresh();
        let b = Uid::fresh();
        for _ in 0..3 {
            log.record_invoke(a, &OpName::from("Transfer"), NodeId(0), NodeId(0));
        }
        log.record_invoke(b, &OpName::from("Write"), NodeId(0), NodeId(0));
        let counts = log.per_target();
        assert_eq!(counts[0], (a, 3));
        assert_eq!(counts[1], (b, 1));
    }

    #[test]
    fn display_is_readable() {
        let log = TraceLog::new(4);
        let uid = Uid::fresh();
        log.record_invoke(uid, &OpName::from("Transfer"), NodeId(0), NodeId(1));
        log.record_activate(uid, "File");
        log.record_stop(uid, true);
        let rendered: Vec<String> = log.events().iter().map(|e| e.to_string()).collect();
        assert!(rendered[0].contains("remote"));
        assert!(rendered[1].contains("File"));
        assert!(rendered[2].contains("crashed"));
    }
}
