//! Invocations and replies.
//!
//! "An invocation is a request to perform some named operation, and may be
//! thought of as a kind of remote procedure call" (§1). Two properties of
//! Eden invocation shape this module:
//!
//! 1. **Sending does not suspend the sender** — so [`PendingReply`] is a
//!    handle the sender may hold while doing other work (or wait on
//!    immediately, recovering synchronous RPC).
//! 2. **Replies are first-class on the receiving side** — an Eject may park
//!    a [`ReplyHandle`] and reply long after the handling code returned.
//!    This "deferred reply" is precisely the paper's *passive output*: a
//!    source sits on outstanding `Read` invocations ("a partial vacuum, in
//!    the form of outstanding read invocations") and answers them when data
//!    becomes available.
//!
//! The invoker's identity is deliberately absent from [`Invocation`]: §5 of
//! the paper argues that "the effect of a particular invocation ought to
//! depend only on its parameters, and not on the identity of the invoker",
//! since consulting the sender would prohibit dynamic redirection.

use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use eden_core::{EdenError, Metrics, OpName, Result, Uid, Value};

/// The default deadline used by synchronous waits. Generous enough that it
/// only fires on genuine deadlock or teardown, not on slow machines.
pub const DEFAULT_REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// A request to perform a named operation with a parameter value.
#[derive(Debug, Clone)]
pub struct Invocation {
    /// The operation name.
    pub op: OpName,
    /// The operation parameter (often a record).
    pub arg: Value,
}

impl Invocation {
    /// Build an invocation.
    pub fn new(op: impl Into<OpName>, arg: Value) -> Self {
        Invocation {
            op: op.into(),
            arg,
        }
    }
}

/// The replying half of an invocation. Consumed by [`ReplyHandle::reply`].
///
/// If the handle is dropped without replying — the Eject crashed, was shut
/// down, or simply forgot — the waiting party receives
/// [`EdenError::EjectCrashed`] rather than hanging.
#[derive(Debug)]
pub struct ReplyHandle {
    tx: Option<Sender<Result<Value>>>,
    responder: Uid,
    metrics: Metrics,
    /// Observability tag attached by the kernel dispatch path when the
    /// observability plane is enabled. Inline, not boxed: the tag is built
    /// and dropped once per delivered invocation, and a heap round trip
    /// there is measurable on the reply path, while the extra handle bytes
    /// cost only a slightly larger memcpy into the mailbox.
    obs: Option<crate::obs::ObsTag>,
    /// When true, resolving this handle settles the outcome ledger
    /// (`successes` / `fatal_failures`). The kernel sets it for plain
    /// invocations; driver-owned (retrying) invocations keep it false and
    /// let the driver meter the *terminal* outcome exactly once.
    meter_outcome: bool,
    /// The invocation's overall deadline as an absolute instant, when one
    /// was set via `InvokeOptions::deadline`. Admission control reads it on
    /// the send path: a `Park` sender bounds its wait for mailbox space by
    /// it, and `DeadlineDrop` evicts queued envelopes once it has passed.
    admit_by: Option<std::time::Instant>,
}

impl ReplyHandle {
    /// Deliver the reply, consuming the handle.
    pub fn reply(mut self, result: Result<Value>) {
        if let Some(tx) = self.tx.take() {
            let bytes = match &result {
                Ok(v) => v.size_hint(),
                Err(_) => 0,
            };
            self.metrics.record_reply(bytes);
            self.settle(result.is_ok());
            // The waiter may have given up (timeout); that is not an error
            // on the replying side.
            let _ = tx.send(result);
        }
    }

    /// Settle the outcome ledger and complete the observability span.
    /// Idempotent by construction: callers reach it only from the branch
    /// that took `tx`, and the span tag is `take`n.
    fn settle(&mut self, ok: bool) {
        self.settle_ledger(ok);
        self.settle_obs(ok);
    }

    fn settle_ledger(&mut self, ok: bool) {
        if self.meter_outcome {
            if ok {
                self.metrics.record_success();
            } else {
                self.metrics.record_fatal_failure();
            }
        }
    }

    fn settle_obs(&mut self, ok: bool) {
        if let Some(tag) = self.obs.take() {
            tag.plane.complete(&tag, ok);
        }
    }

    /// Attach the observability tag (kernel dispatch path only).
    pub(crate) fn set_obs(&mut self, tag: crate::obs::ObsTag) {
        self.obs = Some(tag);
    }

    /// Opt this handle into outcome-ledger metering (kernel dispatch path,
    /// non-driver invocations only).
    pub(crate) fn set_meter_outcome(&mut self) {
        self.meter_outcome = true;
    }

    /// Stamp the invocation's absolute deadline (kernel dispatch path,
    /// deadline-bearing invocations only).
    pub(crate) fn set_admit_by(&mut self, admit_by: std::time::Instant) {
        self.admit_by = Some(admit_by);
    }

    /// The invocation's absolute deadline, if one was set.
    pub(crate) fn admit_by(&self) -> Option<std::time::Instant> {
        self.admit_by
    }

    /// Mark the moment a coordinator picked this invocation out of its
    /// mailbox: splits queue wait from service time, and returns a guard
    /// installing the invocation's span as the thread's ambient span (so
    /// invocations sent *while handling this one* become its children).
    ///
    /// `rq_enq` and `pickup` are when the owning task was pushed onto the
    /// run queue and when a worker picked it up. The slice of queue time
    /// between those two — bounded below by the envelope's own enqueue
    /// time, since an envelope delivered to an already-queued task waited
    /// for less than the whole run-queue stint — is attributed to
    /// `sched_wait` rather than mailbox queueing, keeping
    /// queue + sched + service an exact decomposition of the span.
    pub(crate) fn begin_service(
        &mut self,
        rq_enq: std::time::Instant,
        pickup: std::time::Instant,
    ) -> Option<eden_core::span::AmbientGuard> {
        let tag = self.obs.as_mut()?;
        if tag.dequeued.is_none() {
            tag.dequeued = Some(std::time::Instant::now());
            let baseline = rq_enq.max(tag.enqueued);
            tag.sched_ns = pickup.saturating_duration_since(baseline).as_nanos() as u64;
        }
        tag.plane
            .config()
            .spans
            .then(|| eden_core::span::enter(Some(tag.ctx)))
    }

    /// Note that this reply is being parked for later (metrics only).
    ///
    /// Call this when storing the handle instead of replying inline; it lets
    /// the experiments count how much passive output is in flight.
    pub fn mark_deferred(&self) {
        self.metrics.record_deferred_reply();
    }

    /// The UID of the Eject this handle belongs to (the responder).
    pub fn responder(&self) -> Uid {
        self.responder
    }

    /// Resolve the waiting side with `err` without metering a reply and
    /// without `Drop`'s crash default. The cached invocation path uses this
    /// when a stale route's target no longer exists anywhere: the uncached
    /// path reports such errors at send time without counting a reply, and
    /// the cached path must be metrically indistinguishable. The outcome
    /// ledger still settles: the logical invocation terminally failed.
    pub(crate) fn resolve_silent(mut self, err: EdenError) {
        if let Some(tx) = self.tx.take() {
            self.settle(false);
            let _ = tx.send(Err(err));
        }
    }
}

impl Drop for ReplyHandle {
    fn drop(&mut self) {
        if let Some(tx) = self.tx.take() {
            self.settle(false);
            let _ = tx.send(Err(EdenError::EjectCrashed(self.responder)));
        }
    }
}

/// The waiting half of an invocation.
///
/// Holding a `PendingReply` costs nothing; the sender is free to perform
/// other work ("the sending of an invocation does not suspend the execution
/// of the sending Eject", §1).
#[derive(Debug)]
pub enum PendingReply {
    /// The reply will arrive on this channel, from `responder`. A
    /// scheduler worker waiting here first tries to run `responder`
    /// inline on its own stack (see the `sched` module docs).
    Waiting {
        /// The reply channel.
        rx: Receiver<Result<Value>>,
        /// The Eject that owes the reply.
        responder: Uid,
    },
    /// The outcome was known at send time (e.g. no such Eject).
    Ready(Option<Result<Value>>),
    /// A reply governed by a retry policy or deadline (see
    /// [`InvokeOptions`](crate::InvokeOptions)): retryable failures are
    /// re-sent by whichever wait/poll call observes them, so the sender
    /// still never suspends.
    Retrying(Box<crate::options::RetryState>),
}

impl PendingReply {
    /// A reply that is already resolved.
    pub fn ready(result: Result<Value>) -> Self {
        PendingReply::Ready(Some(result))
    }

    /// Block until the reply arrives, with the default deadline.
    pub fn wait(self) -> Result<Value> {
        self.wait_timeout(DEFAULT_REPLY_TIMEOUT)
    }

    /// Block until the reply arrives or `deadline` elapses. For a retrying
    /// reply, `deadline` bounds the whole affair — attempts, backoff
    /// pauses, and re-sends together.
    pub fn wait_timeout(self, deadline: Duration) -> Result<Value> {
        match self {
            PendingReply::Ready(mut r) => r.take().unwrap_or(Err(EdenError::Timeout)),
            PendingReply::Waiting { rx, responder } => {
                match recv_waiting(&rx, responder, deadline) {
                    Ok(result) => result,
                    Err(RecvTimeoutError::Timeout) => Err(EdenError::Timeout),
                    // Sender dropped without replying and without the Drop
                    // impl running (only possible on panic mid-reply).
                    Err(RecvTimeoutError::Disconnected) => Err(EdenError::KernelShutdown),
                }
            }
            PendingReply::Retrying(state) => state.wait_timeout(deadline),
        }
    }

    /// Wait up to `deadline` without consuming the handle. Returns `None`
    /// if the reply has not arrived yet; after `Some` is returned once,
    /// further polls yield `Timeout`.
    ///
    /// This is the building block for stop-aware waits: poll with a short
    /// deadline and check a stop flag between polls.
    pub fn poll_timeout(&mut self, deadline: Duration) -> Option<Result<Value>> {
        match self {
            PendingReply::Ready(r) => Some(r.take().unwrap_or(Err(EdenError::Timeout))),
            PendingReply::Waiting { rx, responder } => {
                match recv_waiting(rx, *responder, deadline) {
                    Ok(result) => Some(result),
                    Err(RecvTimeoutError::Timeout) => None,
                    Err(RecvTimeoutError::Disconnected) => Some(Err(EdenError::KernelShutdown)),
                }
            }
            PendingReply::Retrying(state) => state.poll_timeout(deadline),
        }
    }

    /// Check for the reply without blocking. Returns `self` back if the
    /// reply has not arrived yet.
    pub fn try_wait(self) -> std::result::Result<Result<Value>, PendingReply> {
        match self {
            PendingReply::Ready(mut r) => Ok(r.take().unwrap_or(Err(EdenError::Timeout))),
            PendingReply::Waiting { rx, responder } => match rx.try_recv() {
                Ok(result) => Ok(result),
                Err(TryRecvError::Empty) => Err(PendingReply::Waiting { rx, responder }),
                Err(TryRecvError::Disconnected) => Ok(Err(EdenError::KernelShutdown)),
            },
            PendingReply::Retrying(state) => state.try_wait().map_err(PendingReply::Retrying),
        }
    }
}

/// Wait up to `deadline` for a reply owed by `responder`. On a scheduler
/// worker whose LIFO slot holds `responder` (the send just woke it), the
/// responder first runs inline on this stack; only a reply still out
/// after that enters the blocking wait — a rendezvous point, where the
/// worker counts as blocked so the pool can compensate with a spare.
fn recv_waiting(
    rx: &Receiver<Result<Value>>,
    responder: Uid,
    deadline: Duration,
) -> std::result::Result<Result<Value>, RecvTimeoutError> {
    let start = Instant::now();
    if crate::sched::run_inline(responder, &|| !rx.is_empty()) {
        match rx.try_recv() {
            Ok(result) => return Ok(result),
            Err(TryRecvError::Disconnected) => return Err(RecvTimeoutError::Disconnected),
            Err(TryRecvError::Empty) => {}
        }
    }
    let remaining = deadline.saturating_sub(start.elapsed());
    crate::sched::blocking(|| rx.recv_timeout(remaining))
}

/// Create a connected reply pair for an invocation of `responder`.
pub fn reply_pair(responder: Uid, metrics: Metrics) -> (ReplyHandle, PendingReply) {
    let (tx, rx) = bounded(1);
    (
        ReplyHandle {
            tx: Some(tx),
            responder,
            metrics,
            obs: None,
            meter_outcome: false,
            admit_by: None,
        },
        PendingReply::Waiting { rx, responder },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_roundtrip() {
        let m = Metrics::new();
        let (h, p) = reply_pair(Uid::fresh(), m.clone());
        h.reply(Ok(Value::from(42)));
        assert_eq!(p.wait().unwrap(), Value::Int(42));
        assert_eq!(m.snapshot().replies, 1);
    }

    #[test]
    fn dropped_handle_yields_crash_error() {
        let u = Uid::fresh();
        let (h, p) = reply_pair(u, Metrics::new());
        drop(h);
        assert_eq!(p.wait().unwrap_err(), EdenError::EjectCrashed(u));
    }

    #[test]
    fn deferred_reply_from_another_thread() {
        let m = Metrics::new();
        let (h, p) = reply_pair(Uid::fresh(), m.clone());
        h.mark_deferred();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            h.reply(Ok(Value::str("late")));
        });
        assert_eq!(p.wait().unwrap().as_str().unwrap(), "late");
        t.join().unwrap();
        assert_eq!(m.snapshot().deferred_replies, 1);
    }

    #[test]
    fn wait_timeout_fires() {
        let (_h, p) = reply_pair(Uid::fresh(), Metrics::new());
        assert_eq!(
            p.wait_timeout(Duration::from_millis(10)).unwrap_err(),
            EdenError::Timeout
        );
    }

    #[test]
    fn try_wait_returns_pending_then_value() {
        let (h, p) = reply_pair(Uid::fresh(), Metrics::new());
        let p = match p.try_wait() {
            Err(pending) => pending,
            Ok(_) => panic!("reply should not be ready yet"),
        };
        h.reply(Ok(Value::Unit));
        match p.try_wait() {
            Ok(result) => assert_eq!(result.unwrap(), Value::Unit),
            Err(_) => panic!("reply should be ready"),
        }
    }

    #[test]
    fn ready_reply_resolves_immediately() {
        let p = PendingReply::ready(Ok(Value::from(1)));
        assert_eq!(p.wait().unwrap(), Value::Int(1));
    }

    #[test]
    fn error_replies_carry_no_bytes() {
        let m = Metrics::new();
        let (h, p) = reply_pair(Uid::fresh(), m.clone());
        h.reply(Err(EdenError::EndOfStream));
        assert_eq!(p.wait().unwrap_err(), EdenError::EndOfStream);
        assert_eq!(m.snapshot().bytes_replied, 0);
    }
}
