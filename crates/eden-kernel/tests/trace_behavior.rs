//! Tracing: the kernel's event log observed end to end.

use eden_core::{EdenError, Value};
use eden_kernel::{
    EjectBehavior, EjectContext, Invocation, Kernel, NodeId, ReplyHandle,
    TraceEvent,
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
    Kernel::builder().trace_capacity(128).build()
}

#[test]
fn invocations_appear_in_the_trace() {
    let kernel = traced_kernel();
    let echo = kernel.spawn(Box::new(Echo)).unwrap();
    for _ in 0..3 {
        kernel.invoke(echo, "Echo", Value::Unit).wait().unwrap();
    }
    let events = kernel.trace_events();
    let invokes = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Invoke { target, .. } if *target == echo))
        .count();
    assert_eq!(invokes, 3);
    // Activation is traced too.
    assert!(events
        .iter()
        .any(|e| matches!(e, TraceEvent::Activate { uid, .. } if *uid == echo)));
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
    let tallies = kernel.invocations_by_target();
    assert_eq!(tallies[0], (busy, 5));
    assert_eq!(tallies[1], (quiet, 1));
    kernel.shutdown();
}

#[test]
fn crash_is_traced_as_stop() {
    let kernel = traced_kernel();
    let echo = kernel.spawn(Box::new(Echo)).unwrap();
    kernel.crash(echo).unwrap();
    assert!(kernel
        .trace_events()
        .iter()
        .any(|e| matches!(e, TraceEvent::Stop { uid, crashed: true, .. } if *uid == echo)));
    kernel.shutdown();
}

#[test]
fn remote_invocations_render_remote() {
    let kernel = traced_kernel();
    let far = kernel.spawn_on(NodeId(2), Box::new(Echo)).unwrap();
    kernel.invoke(far, "Echo", Value::Unit).wait().unwrap();
    let rendered: Vec<String> = kernel.trace_events().iter().map(|e| e.to_string()).collect();
    assert!(
        rendered.iter().any(|l| l.contains("remote")),
        "trace: {rendered:?}"
    );
    kernel.shutdown();
}

#[test]
fn tracing_disabled_by_default() {
    let kernel = Kernel::new();
    let echo = kernel.spawn(Box::new(Echo)).unwrap();
    kernel.invoke(echo, "Echo", Value::Unit).wait().unwrap();
    assert!(kernel.trace_events().is_empty());
    assert!(kernel.invocations_by_target().is_empty());
    kernel.shutdown();
}
