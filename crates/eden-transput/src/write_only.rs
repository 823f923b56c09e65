//! The "write only" discipline: **active output** and **passive input**
//! (§5) — the exact dual of read-only.
//!
//! "Data sources would continually attempt to perform write invocations,
//! and sinks would always be ready to accept them. An Eject would
//! explicitly send data to the next Eject in a pipeline, but would not in
//! general be concerned with the origin of the data it processed."
//!
//! * [`PushSourceEject`] — the pump: a worker drains a local
//!   [`PullSource`] and `Write`s downstream until end.
//! * [`PushFilterEject`] — passive input (accepts `Write`), transforms,
//!   active output (issues `Write`s). Fan-*out* is natural here: every
//!   output channel may have any number of destinations (Figure 3's report
//!   streams are just extra destinations). Fan-*in* is not: a push filter
//!   cannot tell its writers apart.
//!
//! A `push_ahead` window reproduces the concurrency note of §4 in dual
//! form: with `push_ahead == 0` the filter forwards synchronously inside
//! the coordinator (end-to-end rendezvous); with `push_ahead > 0` a worker
//! drains an internal buffer so all stages run concurrently.

use eden_core::op::ops;
use eden_core::{EdenError, Result, Uid, Value};
use eden_kernel::{
    EjectBehavior, EjectContext, Invocation, ProcessContext, ReplyHandle, RouteCache,
};

use crate::batching::AdaptiveBatch;
use crate::protocol::{ChannelId, WriteRequest, OUTPUT_NAME};
use crate::source::PullSource;
use crate::transform::{Emitter, Transform};

/// One downstream connection: which Eject to write to, and the channel tag
/// the records carry (meaningful when the receiver multiplexes inputs).
#[derive(Debug, Clone, Copy)]
pub struct OutputPort {
    /// The receiving Eject.
    pub uid: Uid,
    /// The channel tag presented in the `Write`.
    pub channel: ChannelId,
}

impl OutputPort {
    /// The common case: write to the receiver's primary input.
    pub fn primary(uid: Uid) -> OutputPort {
        OutputPort {
            uid,
            channel: ChannelId::output(),
        }
    }
}

/// Where each named output channel of a transform goes. Entry 0 is the
/// primary output; multiple ports per channel give fan-out.
#[derive(Debug, Clone, Default)]
pub struct OutputWiring {
    routes: Vec<(String, Vec<OutputPort>)>,
}

impl OutputWiring {
    /// Wiring with only a primary destination.
    pub fn primary_to(port: OutputPort) -> OutputWiring {
        let mut w = OutputWiring::default();
        w.add(OUTPUT_NAME, port);
        w
    }

    /// Add a destination for a named channel.
    pub fn add(&mut self, channel: &str, port: OutputPort) -> &mut Self {
        match self.routes.iter_mut().find(|(name, _)| name == channel) {
            Some((_, ports)) => ports.push(port),
            None => self.routes.push((channel.to_owned(), vec![port])),
        }
        self
    }

    /// Destinations for a named channel (empty slice if none).
    pub fn ports_for(&self, channel: &str) -> &[OutputPort] {
        self.routes
            .iter()
            .find(|(name, _)| name == channel)
            .map(|(_, ports)| ports.as_slice())
            .unwrap_or(&[])
    }

    /// All wired channel names.
    pub fn channels(&self) -> impl Iterator<Item = &str> {
        self.routes.iter().map(|(name, _)| name.as_str())
    }

    /// Total number of wired destinations.
    pub fn fan_out(&self) -> usize {
        self.routes.iter().map(|(_, p)| p.len()).sum()
    }
}

/// Deliver a batch of (channel, items) to every wired destination.
/// `end` is forwarded on every channel so downstream streams close.
///
/// Fan-out shares one batch allocation: the items list is lifted into a
/// single shared `Value::List` per channel and every destination's `Write`
/// argument carries a reference bump of it — O(1) bytes moved per extra
/// consumer, where this used to deep-copy the whole batch per branch.
/// `send` receives the pre-encoded `Write` argument.
pub(crate) fn deliver<F>(
    wiring: &OutputWiring,
    emitter: &mut Emitter,
    end: bool,
    send: &mut F,
) -> Result<()>
where
    F: FnMut(OutputPort, Value) -> Result<()>,
{
    let primary = emitter.take_primary();
    let secondary = emitter.take_secondary();
    for (name, items) in std::iter::once((OUTPUT_NAME.to_owned(), primary)).chain(secondary) {
        let ports = wiring.ports_for(&name);
        if ports.is_empty() {
            continue; // Unwired channel: the records fall on the floor.
        }
        if items.is_empty() && !end {
            continue;
        }
        let shared_items = Value::list(items);
        for port in ports {
            send(
                *port,
                WriteRequest::value_shared(port.channel, shared_items.clone(), end),
            )?;
        }
    }
    Ok(())
}

/// The write-only pump: drains a [`PullSource`] into its wiring.
///
/// The pump starts on the `Start` invocation; the reply to `Start` is
/// deferred until the final write has been acknowledged, so
/// `invoke(source, "Start", ..).wait()` is "run the pipeline".
#[derive(Debug)]
pub struct PushSourceEject {
    source: Option<Box<dyn PullSource>>,
    wiring: OutputWiring,
    batch: usize,
    window: usize,
    /// Upper bound for adaptive batch sizing; 0 keeps `batch` fixed.
    batch_max: usize,
    started: bool,
}

impl PushSourceEject {
    /// Pump `source` into `wiring`, `batch` records per write, waiting for
    /// each acknowledgement before the next write (window = 1).
    pub fn new(
        source: Box<dyn PullSource>,
        wiring: OutputWiring,
        batch: usize,
    ) -> PushSourceEject {
        PushSourceEject::with_window(source, wiring, batch, 1)
    }

    /// As [`new`](Self::new) but keeping up to `window` writes in flight:
    /// "the sending of an invocation does not suspend the execution of the
    /// sending Eject" (§1), exploited for pipelining. Acknowledgements are
    /// collected in order; a window of 1 is the synchronous rendezvous.
    ///
    /// Windowing requires a single primary destination (fan-out wiring
    /// falls back to window 1 so every peer stays in lock-step).
    pub fn with_window(
        source: Box<dyn PullSource>,
        wiring: OutputWiring,
        batch: usize,
        window: usize,
    ) -> PushSourceEject {
        PushSourceEject {
            source: Some(source),
            wiring,
            batch: batch.max(1),
            window: window.max(1),
            batch_max: 0,
            started: false,
        }
    }

    /// Let the pump grow its records-per-`Write` up to `max` when the
    /// window saturates (downstream is invocation-bound) and shrink it back
    /// when acknowledgements return instantly. `max <= batch` keeps the
    /// batch fixed.
    pub fn adaptive_batch(mut self, max: usize) -> PushSourceEject {
        self.batch_max = max;
        self
    }
}

fn pctx_send(
    pctx: &ProcessContext,
    cache: &mut RouteCache,
    port: OutputPort,
    arg: Value,
) -> Result<()> {
    let pending = pctx.invoke_routed(cache, port.uid, ops::WRITE, arg);
    pctx.wait_or_stop(pending).map(|_| ())
}

impl EjectBehavior for PushSourceEject {
    fn type_name(&self) -> &'static str {
        "PushSource"
    }

    fn handle(&mut self, ctx: &EjectContext, inv: Invocation, reply: ReplyHandle) {
        match inv.op.as_str() {
            "Start" => {
                if self.started {
                    reply.reply(Err(EdenError::Application("already started".into())));
                    return;
                }
                self.started = true;
                let mut source = match self.source.take() {
                    Some(s) => s,
                    None => {
                        reply.reply(Err(EdenError::Application("no source".into())));
                        return;
                    }
                };
                let wiring = self.wiring.clone();
                let batch = if self.batch_max > self.batch {
                    AdaptiveBatch::new(self.batch, self.batch_max)
                } else {
                    AdaptiveBatch::fixed(self.batch)
                };
                // Windowed pipelining only with a single destination.
                let single_port = (wiring.fan_out() == 1)
                    .then(|| wiring.ports_for(OUTPUT_NAME).first().copied())
                    .flatten();
                let window = match single_port {
                    Some(_) => self.window,
                    None => 1,
                };
                reply.mark_deferred();
                ctx.spawn_process("pump", move |pctx| {
                    let mut cache = RouteCache::new();
                    let result = (|| -> Result<()> {
                        if let (Some(port), true) = (single_port, window > 1) {
                            // Pipelined: keep up to `window` writes in
                            // flight, reaping acknowledgements in order.
                            let mut in_flight =
                                std::collections::VecDeque::with_capacity(window);
                            loop {
                                if pctx.should_stop() {
                                    return Err(EdenError::KernelShutdown);
                                }
                                let pulled = source.pull(batch.current());
                                eden_core::stream::note_emitted(pulled.items.len());
                                let req = WriteRequest {
                                    channel: port.channel,
                                    items: pulled.items,
                                    end: pulled.end,
                                    seq: None,
                                };
                                in_flight.push_back(pctx.invoke_routed(
                                    &mut cache,
                                    port.uid,
                                    ops::WRITE,
                                    req.to_value(),
                                ));
                                // Reap acknowledgements that have already
                                // arrived without blocking.
                                while let Some(pending) = in_flight.pop_front() {
                                    match pending.try_wait() {
                                        Ok(result) => {
                                            result?;
                                        }
                                        Err(still_pending) => {
                                            in_flight.push_front(still_pending);
                                            break;
                                        }
                                    }
                                }
                                if in_flight.is_empty() && !pulled.end {
                                    // Even the write just sent was already
                                    // acknowledged: batching overshot.
                                    batch.shrink();
                                } else if in_flight.len() >= window {
                                    // Window saturated — downstream is
                                    // invocation-bound; amortise with
                                    // bigger writes, then block.
                                    batch.grow();
                                }
                                while in_flight.len() >= window
                                    || (pulled.end && !in_flight.is_empty())
                                {
                                    let pending =
                                        in_flight.pop_front().expect("non-empty checked");
                                    pctx.wait_or_stop(pending)?;
                                }
                                if pulled.end {
                                    return Ok(());
                                }
                            }
                        }
                        loop {
                            if pctx.should_stop() {
                                return Err(EdenError::KernelShutdown);
                            }
                            let pulled = source.pull(batch.current());
                            eden_core::stream::note_emitted(pulled.items.len());
                            let mut emitter = Emitter::new();
                            for item in pulled.items {
                                emitter.emit(item);
                            }
                            let end = pulled.end;
                            let mut send = |port, w| pctx_send(&pctx, &mut cache, port, w);
                            deliver(&wiring, &mut emitter, end, &mut send)?;
                            if end {
                                return Ok(());
                            }
                        }
                    })();
                    reply.reply(result.map(|()| Value::Unit));
                });
            }
            _ => reply.reply(Err(EdenError::NoSuchOperation {
                target: ctx.uid(),
                op: inv.op,
            })),
        }
    }
}

/// A filter of the write-only discipline. See the module docs.
#[derive(Debug)]
pub struct PushFilterEject {
    transform: Box<dyn Transform>,
    wiring: OutputWiring,
    /// 0 = synchronous forwarding; >0 = buffered via a drain worker.
    push_ahead: usize,
    /// Buffered (request, credit-ack) traffic to the drain worker.
    to_worker: Option<crossbeam::channel::Sender<WorkerItem>>,
    ended: bool,
    /// Downstream routes, learned on first use (synchronous mode; the
    /// drain worker keeps its own cache).
    route_cache: RouteCache,
}

/// What the coordinator hands the drain worker.
struct WorkerItem {
    emitted: Vec<(String, Vec<Value>)>,
    end: bool,
}

impl PushFilterEject {
    /// A push filter with synchronous forwarding.
    pub fn new(transform: Box<dyn Transform>, wiring: OutputWiring) -> PushFilterEject {
        PushFilterEject::with_push_ahead(transform, wiring, 0)
    }

    /// A push filter with a `push_ahead`-deep forwarding buffer.
    pub fn with_push_ahead(
        transform: Box<dyn Transform>,
        wiring: OutputWiring,
        push_ahead: usize,
    ) -> PushFilterEject {
        PushFilterEject {
            transform,
            wiring,
            push_ahead,
            to_worker: None,
            ended: false,
            route_cache: RouteCache::new(),
        }
    }

    fn forward_sync(&mut self, ctx: &EjectContext, mut emitter: Emitter, end: bool) -> Result<()> {
        let wiring = self.wiring.clone();
        let cache = &mut self.route_cache;
        let mut send = |port: OutputPort, arg: Value| -> Result<()> {
            ctx.invoke_routed(cache, port.uid, ops::WRITE, arg)
                .wait()
                .map(|_| ())
        };
        deliver(&wiring, &mut emitter, end, &mut send)
    }
}

impl EjectBehavior for PushFilterEject {
    fn type_name(&self) -> &'static str {
        "PushFilter"
    }

    fn activate(&mut self, ctx: &EjectContext) {
        if self.push_ahead == 0 {
            return;
        }
        let (tx, rx) = crossbeam::channel::bounded::<WorkerItem>(self.push_ahead);
        self.to_worker = Some(tx);
        let wiring = self.wiring.clone();
        ctx.spawn_process("push-drain", move |pctx| {
            let mut cache = RouteCache::new();
            // eden-lint: nonblocking(spawn_process worker thread, not a pool worker)
            while let Ok(item) = rx.recv() {
                let mut emitter = Emitter::new();
                for (channel, records) in item.emitted {
                    if channel == OUTPUT_NAME {
                        for r in records {
                            emitter.emit(r);
                        }
                    } else {
                        for r in records {
                            emitter.emit_on(&channel, r);
                        }
                    }
                }
                let mut send = |port, w| pctx_send(&pctx, &mut cache, port, w);
                if deliver(&wiring, &mut emitter, item.end, &mut send).is_err() {
                    return;
                }
                if item.end {
                    return;
                }
            }
        });
    }

    fn handle(&mut self, ctx: &EjectContext, inv: Invocation, reply: ReplyHandle) {
        match inv.op.as_str() {
            ops::WRITE => {
                let w = match WriteRequest::from_value(inv.arg) {
                    Ok(w) => w,
                    Err(e) => {
                        reply.reply(Err(e));
                        return;
                    }
                };
                if self.ended {
                    reply.reply(Err(EdenError::Application(
                        "write after end of stream".into(),
                    )));
                    return;
                }
                let mut emitter = Emitter::new();
                for item in w.items {
                    self.transform.push(item, &mut emitter);
                }
                if w.end {
                    self.transform.flush(&mut emitter);
                    self.ended = true;
                }
                match (&self.to_worker, self.push_ahead) {
                    (Some(tx), _) => {
                        // Buffered: ack as soon as the item is queued; the
                        // bounded queue provides the backpressure.
                        let emitted: Vec<(String, Vec<Value>)> =
                            std::iter::once((OUTPUT_NAME.to_owned(), emitter.take_primary()))
                                .chain(emitter.take_secondary())
                                .collect();
                        ctx.metrics().record_internal_message();
                        let sent = tx
                            .send(WorkerItem {
                                emitted,
                                end: w.end,
                            })
                            .is_ok();
                        if w.end {
                            self.to_worker = None;
                        }
                        if sent {
                            reply.reply(Ok(Value::Unit));
                        } else {
                            reply.reply(Err(EdenError::Application(
                                "forwarding worker gone".into(),
                            )));
                        }
                    }
                    (None, _) => {
                        // Synchronous: ack only after downstream acks.
                        let result = self.forward_sync(ctx, emitter, w.end);
                        reply.reply(result.map(|()| Value::Unit));
                    }
                }
            }
            _ => reply.reply(Err(EdenError::NoSuchOperation {
                target: ctx.uid(),
                op: inv.op,
            })),
        }
    }

    fn deactivating(&mut self, _ctx: &EjectContext) {
        self.to_worker = None;
    }
}

/// A write-only filter with a **secondary input** (§5): "each filter would
/// have a primary input, which is supplied by a source Eject performing
/// *Write* invocations, and a number of secondary inputs, which are
/// actively read."
///
/// Every record arriving on the primary (passive) input is paired with one
/// record *actively pulled* from the secondary input; the pair
/// `Value::List([primary, secondary])` is pushed downstream. When the
/// secondary runs dry the pairing pads with `Unit`. This is how a stream
/// editor's command input or a comparator's second file enters a
/// write-only pipeline.
#[derive(Debug)]
pub struct ZipPushFilterEject {
    secondary: Uid,
    secondary_channel: ChannelId,
    wiring: OutputWiring,
    secondary_done: bool,
    ended: bool,
    route_cache: RouteCache,
}

impl ZipPushFilterEject {
    /// Pair the pushed primary stream with `secondary`'s primary channel.
    pub fn new(secondary: Uid, wiring: OutputWiring) -> ZipPushFilterEject {
        ZipPushFilterEject {
            secondary,
            secondary_channel: ChannelId::output(),
            wiring,
            secondary_done: false,
            ended: false,
            route_cache: RouteCache::new(),
        }
    }

    fn pull_secondary(&mut self, ctx: &EjectContext) -> Value {
        if self.secondary_done {
            return Value::Unit;
        }
        let req = crate::protocol::TransferRequest {
            channel: self.secondary_channel,
            max: 1,
            pos: None,
        };
        match ctx
            .invoke_routed(
                &mut self.route_cache,
                self.secondary,
                ops::TRANSFER,
                req.to_value(),
            )
            .wait()
            .and_then(crate::protocol::Batch::from_value)
        {
            Ok(batch) => {
                if batch.end {
                    self.secondary_done = true;
                }
                batch.items.into_iter().next().unwrap_or(Value::Unit)
            }
            Err(_) => {
                self.secondary_done = true;
                Value::Unit
            }
        }
    }
}

impl EjectBehavior for ZipPushFilterEject {
    fn type_name(&self) -> &'static str {
        "ZipPushFilter"
    }

    fn handle(&mut self, ctx: &EjectContext, inv: Invocation, reply: ReplyHandle) {
        match inv.op.as_str() {
            ops::WRITE => {
                let w = match WriteRequest::from_value(inv.arg) {
                    Ok(w) => w,
                    Err(e) => {
                        reply.reply(Err(e));
                        return;
                    }
                };
                if self.ended {
                    reply.reply(Err(EdenError::Application(
                        "write after end of stream".into(),
                    )));
                    return;
                }
                let mut emitter = Emitter::new();
                for item in w.items {
                    let paired = self.pull_secondary(ctx);
                    emitter.emit(Value::list(vec![item, paired]));
                }
                if w.end {
                    self.ended = true;
                }
                let wiring = self.wiring.clone();
                let cache = &mut self.route_cache;
                let mut send = |port: OutputPort, arg: Value| -> Result<()> {
                    ctx.invoke_routed(cache, port.uid, ops::WRITE, arg)
                        .wait()
                        .map(|_| ())
                };
                let result = deliver(&wiring, &mut emitter, w.end, &mut send);
                reply.reply(result.map(|()| Value::Unit));
            }
            _ => reply.reply(Err(EdenError::NoSuchOperation {
                target: ctx.uid(),
                op: inv.op,
            })),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::Collector;
    use crate::sink::AcceptorSinkEject;
    use crate::source::VecSource;
    use crate::transform::{map_fn, Identity};
    use eden_kernel::Kernel;
    use std::time::Duration;

    fn spawn_acceptor(kernel: &Kernel) -> (Uid, Collector) {
        let collector = Collector::new();
        let uid = kernel
            .spawn(Box::new(AcceptorSinkEject::new(collector.clone())))
            .unwrap();
        (uid, collector)
    }

    #[test]
    fn push_source_pumps_to_sink() {
        let kernel = Kernel::new();
        let (sink, collector) = spawn_acceptor(&kernel);
        let src = kernel
            .spawn(Box::new(PushSourceEject::new(
                Box::new(VecSource::new((0..10).map(Value::Int).collect())),
                OutputWiring::primary_to(OutputPort::primary(sink)),
                3,
            )))
            .unwrap();
        kernel.invoke(src, "Start", Value::Unit).wait().unwrap();
        let items = collector.wait_done(Duration::from_secs(10)).unwrap();
        assert_eq!(items, (0..10).map(Value::Int).collect::<Vec<_>>());
        kernel.shutdown();
    }

    #[test]
    fn push_filter_transforms_en_route() {
        let kernel = Kernel::new();
        let (sink, collector) = spawn_acceptor(&kernel);
        let filter = kernel
            .spawn(Box::new(PushFilterEject::new(
                Box::new(map_fn("neg", |v| Value::Int(-v.as_int().unwrap()))),
                OutputWiring::primary_to(OutputPort::primary(sink)),
            )))
            .unwrap();
        let src = kernel
            .spawn(Box::new(PushSourceEject::new(
                Box::new(VecSource::new((1..4).map(Value::Int).collect())),
                OutputWiring::primary_to(OutputPort::primary(filter)),
                2,
            )))
            .unwrap();
        kernel.invoke(src, "Start", Value::Unit).wait().unwrap();
        let items = collector.wait_done(Duration::from_secs(10)).unwrap();
        assert_eq!(items, vec![Value::Int(-1), Value::Int(-2), Value::Int(-3)]);
        kernel.shutdown();
    }

    #[test]
    fn fan_out_duplicates_stream() {
        // §5: "there is arbitrary fan-out" — one filter, two sinks.
        let kernel = Kernel::new();
        let (sink_a, col_a) = spawn_acceptor(&kernel);
        let (sink_b, col_b) = spawn_acceptor(&kernel);
        let mut wiring = OutputWiring::default();
        wiring.add(OUTPUT_NAME, OutputPort::primary(sink_a));
        wiring.add(OUTPUT_NAME, OutputPort::primary(sink_b));
        assert_eq!(wiring.fan_out(), 2);
        let filter = kernel
            .spawn(Box::new(PushFilterEject::new(Box::new(Identity), wiring)))
            .unwrap();
        let src = kernel
            .spawn(Box::new(PushSourceEject::new(
                Box::new(VecSource::new((0..5).map(Value::Int).collect())),
                OutputWiring::primary_to(OutputPort::primary(filter)),
                2,
            )))
            .unwrap();
        kernel.invoke(src, "Start", Value::Unit).wait().unwrap();
        let a = col_a.wait_done(Duration::from_secs(10)).unwrap();
        let b = col_b.wait_done(Duration::from_secs(10)).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
        kernel.shutdown();
    }

    #[test]
    fn push_ahead_buffered_filter_works() {
        let kernel = Kernel::new();
        let (sink, collector) = spawn_acceptor(&kernel);
        let filter = kernel
            .spawn(Box::new(PushFilterEject::with_push_ahead(
                Box::new(Identity),
                OutputWiring::primary_to(OutputPort::primary(sink)),
                4,
            )))
            .unwrap();
        let src = kernel
            .spawn(Box::new(PushSourceEject::new(
                Box::new(VecSource::new((0..30).map(Value::Int).collect())),
                OutputWiring::primary_to(OutputPort::primary(filter)),
                5,
            )))
            .unwrap();
        kernel.invoke(src, "Start", Value::Unit).wait().unwrap();
        let items = collector.wait_done(Duration::from_secs(10)).unwrap();
        assert_eq!(items, (0..30).map(Value::Int).collect::<Vec<_>>());
        kernel.shutdown();
    }

    #[test]
    fn windowed_source_delivers_in_order() {
        let kernel = Kernel::new();
        let (sink, collector) = spawn_acceptor(&kernel);
        let src = kernel
            .spawn(Box::new(PushSourceEject::with_window(
                Box::new(VecSource::new((0..100).map(Value::Int).collect())),
                OutputWiring::primary_to(OutputPort::primary(sink)),
                4,
                8,
            )))
            .unwrap();
        kernel.invoke(src, "Start", Value::Unit).wait().unwrap();
        let items = collector.wait_done(Duration::from_secs(10)).unwrap();
        assert_eq!(items, (0..100).map(Value::Int).collect::<Vec<_>>());
        kernel.shutdown();
    }

    #[test]
    fn windowed_source_falls_back_on_fan_out() {
        // Two destinations: the window degrades to lock-step, and both
        // sinks still get the full stream.
        let kernel = Kernel::new();
        let (sink_a, col_a) = spawn_acceptor(&kernel);
        let (sink_b, col_b) = spawn_acceptor(&kernel);
        let mut wiring = OutputWiring::default();
        wiring.add(OUTPUT_NAME, OutputPort::primary(sink_a));
        wiring.add(OUTPUT_NAME, OutputPort::primary(sink_b));
        let src = kernel
            .spawn(Box::new(PushSourceEject::with_window(
                Box::new(VecSource::new((0..10).map(Value::Int).collect())),
                wiring,
                2,
                16,
            )))
            .unwrap();
        kernel.invoke(src, "Start", Value::Unit).wait().unwrap();
        assert_eq!(col_a.wait_done(Duration::from_secs(10)).unwrap().len(), 10);
        assert_eq!(col_b.wait_done(Duration::from_secs(10)).unwrap().len(), 10);
        kernel.shutdown();
    }

    #[test]
    fn zip_push_filter_pairs_with_actively_read_secondary() {
        // §5: primary input pushed in, secondary input actively read.
        let kernel = Kernel::new();
        let (sink, collector) = spawn_acceptor(&kernel);
        let secondary = kernel
            .spawn(Box::new(crate::source::SourceEject::new(Box::new(
                VecSource::from_lines(["s0", "s1"]),
            ))))
            .unwrap();
        let zipper = kernel
            .spawn(Box::new(ZipPushFilterEject::new(
                secondary,
                OutputWiring::primary_to(OutputPort::primary(sink)),
            )))
            .unwrap();
        let src = kernel
            .spawn(Box::new(PushSourceEject::new(
                Box::new(VecSource::from_lines(["p0", "p1", "p2"])),
                OutputWiring::primary_to(OutputPort::primary(zipper)),
                2,
            )))
            .unwrap();
        kernel.invoke(src, "Start", Value::Unit).wait().unwrap();
        let items = collector.wait_done(Duration::from_secs(10)).unwrap();
        assert_eq!(
            items,
            vec![
                Value::list(vec![Value::str("p0"), Value::str("s0")]),
                Value::list(vec![Value::str("p1"), Value::str("s1")]),
                // The secondary ran dry: padding with Unit.
                Value::list(vec![Value::str("p2"), Value::Unit]),
            ]
        );
        kernel.shutdown();
    }

    #[test]
    fn start_twice_is_rejected() {
        let kernel = Kernel::new();
        let (sink, _collector) = spawn_acceptor(&kernel);
        let src = kernel
            .spawn(Box::new(PushSourceEject::new(
                Box::new(VecSource::new(vec![Value::Int(1)])),
                OutputWiring::primary_to(OutputPort::primary(sink)),
                1,
            )))
            .unwrap();
        kernel.invoke(src, "Start", Value::Unit).wait().unwrap();
        let err = kernel.invoke(src, "Start", Value::Unit).wait().unwrap_err();
        assert!(matches!(err, EdenError::Application(_)));
        kernel.shutdown();
    }

    #[test]
    fn write_after_end_is_rejected() {
        let kernel = Kernel::new();
        let (sink, _collector) = spawn_acceptor(&kernel);
        let filter = kernel
            .spawn(Box::new(PushFilterEject::new(
                Box::new(Identity),
                OutputWiring::primary_to(OutputPort::primary(sink)),
            )))
            .unwrap();
        kernel
            .invoke(filter, ops::WRITE, WriteRequest::last(vec![]).to_value()).wait()
            .unwrap();
        let err = kernel
            .invoke(
                filter,
                ops::WRITE,
                WriteRequest::more(vec![Value::Int(1)]).to_value(),
            ).wait()
            .unwrap_err();
        assert!(matches!(err, EdenError::Application(_)));
        kernel.shutdown();
    }
}
