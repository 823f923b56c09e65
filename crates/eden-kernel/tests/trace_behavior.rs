//! Tracing: the kernel's event log — invocation spans and kernel events in
//! the one span store — observed end to end.

use eden_core::{EdenError, Uid, Value};
use eden_kernel::{
    EjectBehavior, EjectContext, Invocation, Kernel, KernelEvent, NodeId, ObsConfig, ReplyHandle,
    SchedulerConfig,
};

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

fn traced_kernel() -> Kernel {
    Kernel::builder().observability(ObsConfig::full()).build()
}

#[test]
fn invocations_appear_in_the_trace() {
    let kernel = traced_kernel();
    let echo = kernel.spawn(Box::new(Echo)).unwrap();
    for _ in 0..3 {
        kernel.invoke(echo, "Echo", Value::Unit).wait().unwrap();
    }
    let invokes = kernel
        .spans()
        .iter()
        .filter(|s| s.target == echo && s.op.as_str() == "Echo")
        .count();
    assert_eq!(invokes, 3);
    // Activation is recorded too, in the same store.
    assert!(kernel.kernel_events().iter().any(|e| matches!(
        e,
        KernelEvent::Activate { uid, type_name: "Echo", incarnation: 1, .. } if *uid == echo
    )));
    kernel.shutdown();
}

#[test]
fn per_target_tallies() {
    let kernel = traced_kernel();
    let busy = kernel.spawn(Box::new(Echo)).unwrap();
    let quiet = kernel.spawn(Box::new(Echo)).unwrap();
    for _ in 0..5 {
        kernel.invoke(busy, "Echo", Value::Unit).wait().unwrap();
    }
    kernel.invoke(quiet, "Echo", Value::Unit).wait().unwrap();
    // One stage row per Eject here (one op each), busiest first.
    let tallies: Vec<(Uid, u64)> = kernel
        .stage_summaries()
        .iter()
        .map(|stage| (stage.target, stage.count))
        .collect();
    assert_eq!(tallies, vec![(busy, 5), (quiet, 1)]);
    kernel.shutdown();
}

#[test]
fn crash_is_traced_as_stop() {
    let kernel = traced_kernel();
    let echo = kernel.spawn(Box::new(Echo)).unwrap();
    kernel.crash(echo).unwrap();
    assert!(kernel
        .kernel_events()
        .iter()
        .any(|e| matches!(e, KernelEvent::Stop { uid, crashed: true, .. } if *uid == echo)));
    kernel.shutdown();
}

#[test]
fn remote_invocations_are_recorded_remote() {
    let kernel = traced_kernel();
    let far = kernel.spawn_on(NodeId(2), Box::new(Echo)).unwrap();
    kernel.invoke(far, "Echo", Value::Unit).wait().unwrap();
    let spans = kernel.spans();
    assert!(spans.iter().any(|s| s.target == far && s.from != s.to), "{spans:?}");
    kernel.shutdown();
}

#[test]
fn tracing_disabled_by_default() {
    let kernel = Kernel::new();
    let echo = kernel.spawn(Box::new(Echo)).unwrap();
    kernel.invoke(echo, "Echo", Value::Unit).wait().unwrap();
    kernel.crash(echo).unwrap();
    assert!(!kernel.spans_enabled());
    assert!(kernel.spans().is_empty());
    assert!(kernel.kernel_events().is_empty());
    let snap = kernel.metrics_snapshot();
    assert_eq!(snap.trace_dropped, 0);
    assert_eq!(snap.spans_recorded, 0);
    assert_eq!(snap.spans_dropped, 0);
    kernel.shutdown();
}

/// `span_capacity` bounds the whole store, not each of its per-thread
/// shards: one worker recording every span still gets every slot.
#[test]
fn span_capacity_bounds_the_whole_store() {
    const CAPACITY: usize = 1024;
    const INVOCATIONS: u64 = 3000;
    let kernel = Kernel::builder()
        .scheduler(SchedulerConfig {
            workers: 1,
            ..SchedulerConfig::default()
        })
        .observability(ObsConfig {
            span_capacity: CAPACITY,
            ..ObsConfig::full()
        })
        .build();
    let echo = kernel.spawn(Box::new(Echo)).unwrap();
    for _ in 0..INVOCATIONS {
        kernel.invoke(echo, "Echo", Value::Unit).wait().unwrap();
    }
    let held = kernel.spans().len();
    let dropped = kernel.spans_dropped();
    assert_eq!(held, CAPACITY);
    assert_eq!(held as u64 + dropped, INVOCATIONS);
    // The oldest entry, the Activate event, left the window first.
    assert!(kernel.kernel_events().is_empty());
    assert_eq!(kernel.metrics_snapshot().trace_dropped, 1);
    kernel.shutdown();
}
