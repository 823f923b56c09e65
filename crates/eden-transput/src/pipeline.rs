//! Pipeline construction and measurement.
//!
//! One typed spec, three disciplines (§3–§5): the same source records and
//! the same [`Transform`] chain can be wired
//!
//! * **read-only** (Figure 2): source ← filters ← sink, the sink pumps;
//! * **write-only** (Figure 3): source → filters → acceptor, the source
//!   pumps;
//! * **conventional** (Figure 1): active filters glued with passive buffer
//!   Ejects, both ends pumping.
//!
//! [`PipelineSpec`] is kernel-free: it describes the wiring without
//! touching a kernel, so the same value can be statically checked
//! ([`PipelineSpec::graph`] → [`conform::check`]) or instantiated
//! ([`PipelineSpec::build`], which validates first — a spec that violates
//! its discipline never spawns an Eject). [`Pipeline::run`] executes to
//! end-of-stream and returns a [`PipelineRun`] with the output, the
//! metered event counts for the data phase, and wall-clock time — the raw
//! material for every experiment in `EXPERIMENTS.md`.
//!
//! [`conform::check`]: crate::conform::check

use std::time::{Duration, Instant};

use eden_core::op::ops;
use eden_core::{EdenError, MetricsSnapshot, Result, Uid, Value};
use eden_kernel::{EjectState, Kernel, NodeId};

use crate::channels::ChannelPolicy;
use crate::collector::Collector;
use crate::conform::{self, DisciplineKind, GrantPolicy, NodeRole, WiringGraph};
use crate::conventional::{PassiveBufferEject, PumpFilterEject};
use crate::protocol::{ChannelId, GetChannelRequest, OUTPUT_NAME};
use crate::read_only::{FanInMode, InputPort, PullFilterConfig, PullFilterEject};
use crate::sink::{AcceptorSinkEject, SinkEject};
use crate::source::{PullSource, VecSource};
use crate::transform::Transform;
use crate::write_only::{OutputPort, OutputWiring, PushFilterEject, PushSourceEject};

/// Which communication discipline to wire the pipeline in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Discipline {
    /// Active input + passive output; the sink pumps (Figure 2).
    ReadOnly {
        /// Records each filter pre-pulls (0 = fully lazy).
        read_ahead: usize,
    },
    /// Passive input + active output; the source pumps (Figure 3).
    WriteOnly {
        /// Depth of each filter's forwarding buffer (0 = rendezvous).
        push_ahead: usize,
    },
    /// Active both ways with interposed passive buffers (Figure 1).
    Conventional {
        /// Record capacity of each passive buffer Eject.
        buffer_capacity: usize,
    },
}

impl Discipline {
    /// A short label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            Discipline::ReadOnly { .. } => "read-only",
            Discipline::WriteOnly { .. } => "write-only",
            Discipline::Conventional { .. } => "conventional",
        }
    }

    /// The discipline's identity, stripped of tuning knobs — what the
    /// static conformance predicates key on.
    pub fn kind(&self) -> DisciplineKind {
        match self {
            Discipline::ReadOnly { .. } => DisciplineKind::ReadOnly,
            Discipline::WriteOnly { .. } => DisciplineKind::WriteOnly,
            Discipline::Conventional { .. } => DisciplineKind::Conventional,
        }
    }
}

/// A tap on a filter's secondary output channel (a report stream, §5).
#[derive(Debug)]
struct ReportTap {
    stage: usize,
    channel: String,
    collector: Collector,
}

/// Where the pipeline's records come from.
enum SourceSpec {
    /// A local record supply; the builder spawns the source Eject.
    Local(Box<dyn PullSource>),
    /// An existing Eject that answers `Transfer` (a file reader, a
    /// directory listing, another pipeline's tail...). §4: "any Eject
    /// which responds to *Read* invocations is by definition a source."
    Eject(Uid),
    /// Several local supplies merged by a fan-in filter (§5 fan-in).
    Merge(Vec<Box<dyn PullSource>>, FanInMode),
    /// Several existing Ejects merged by a fan-in filter.
    MergeEjects(Vec<InputPort>, FanInMode),
    /// An imperative program writing records (§4's standard IO module).
    Program(Box<dyn FnOnce(crate::stdio::TransputWriter) + Send>),
}

impl std::fmt::Debug for SourceSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SourceSpec::Local(_) => f.write_str("Local"),
            SourceSpec::Eject(uid) => f.debug_tuple("Eject").field(uid).finish(),
            SourceSpec::Merge(sources, mode) => f
                .debug_tuple("Merge")
                .field(&sources.len())
                .field(mode)
                .finish(),
            SourceSpec::MergeEjects(ports, mode) => {
                f.debug_tuple("MergeEjects").field(ports).field(mode).finish()
            }
            SourceSpec::Program(_) => f.write_str("Program"),
        }
    }
}

/// The graph-label for an input port's channel.
fn channel_label(id: &ChannelId) -> String {
    match id {
        ChannelId::Number(0) => OUTPUT_NAME.to_owned(),
        ChannelId::Number(n) => format!("#{n}"),
        ChannelId::Cap(uid) => format!("cap:{uid}"),
    }
}

/// A kernel-free description of a linear pipeline with optional report
/// taps: what to wire, in which discipline, with which knobs.
///
/// The spec is the unit of static analysis — [`graph`](Self::graph)
/// renders it as a [`WiringGraph`] for the conformance predicates, and
/// [`build`](Self::build) instantiates it on a kernel only after
/// [`validate`](Self::validate) passes.
#[derive(Debug)]
pub struct PipelineSpec {
    discipline: Discipline,
    batch: usize,
    batch_max: usize,
    policy: ChannelPolicy,
    source: Option<SourceSpec>,
    stages: Vec<Box<dyn Transform>>,
    taps: Vec<ReportTap>,
    nodes: Option<u16>,
    keep_output: bool,
    write_window: usize,
}

impl PipelineSpec {
    /// Start describing a pipeline in `discipline`.
    pub fn new(discipline: Discipline) -> PipelineSpec {
        PipelineSpec {
            discipline,
            batch: 16,
            batch_max: 0,
            policy: ChannelPolicy::Integer,
            source: None,
            stages: Vec::new(),
            taps: Vec::new(),
            nodes: None,
            keep_output: true,
            write_window: 1,
        }
    }

    /// Use an arbitrary record source.
    pub fn source(mut self, source: Box<dyn PullSource>) -> Self {
        self.source = Some(SourceSpec::Local(source));
        self
    }

    /// Use a vector of records as the source.
    pub fn source_vec(self, items: Vec<Value>) -> Self {
        self.source(Box::new(VecSource::new(items)))
    }

    /// Read from an *existing* Eject's primary channel — a file reader, a
    /// directory listing, anything answering `Transfer`. In the read-only
    /// discipline the first filter pulls it directly; in source-pumped
    /// disciplines the builder interposes an identity pump that starts at
    /// spawn (no `Start` invocation).
    pub fn source_eject(mut self, uid: Uid) -> Self {
        self.source = Some(SourceSpec::Eject(uid));
        self
    }

    /// Merge several local supplies through a fan-in filter (§5: "if F
    /// needs n inputs, it maintains n UIDs"). `Concatenate` reads them in
    /// order like `cat a b`; `RoundRobin` interleaves; `Zip` emits tuples.
    pub fn source_merge(mut self, sources: Vec<Box<dyn PullSource>>, mode: FanInMode) -> Self {
        self.source = Some(SourceSpec::Merge(sources, mode));
        self
    }

    /// Merge several existing Ejects' streams through a fan-in filter.
    pub fn source_ejects_merged(mut self, ports: Vec<InputPort>, mode: FanInMode) -> Self {
        self.source = Some(SourceSpec::MergeEjects(ports, mode));
        self
    }

    /// Use an ordinary imperative program as the source: §4's "standard IO
    /// module" — the closure writes records conventionally while the Eject
    /// performs passive output.
    pub fn source_program<F>(mut self, program: F) -> Self
    where
        F: FnOnce(crate::stdio::TransputWriter) + Send + 'static,
    {
        self.source = Some(SourceSpec::Program(Box::new(program)));
        self
    }

    /// Append a filter stage.
    pub fn stage(mut self, transform: Box<dyn Transform>) -> Self {
        self.stages.push(transform);
        self
    }

    /// Records per Transfer/Write (the batching knob of experiment E7).
    pub fn batch(mut self, batch: usize) -> Self {
        self.batch = batch.max(1);
        self
    }

    /// Let every connection adapt its records-per-invocation between
    /// [`batch`](Self::batch) and `max`: starved consumers and saturated
    /// write windows grow the batch; overshoot shrinks it back. `max` at
    /// or below `batch` keeps batches fixed (the default).
    pub fn adaptive_batch(mut self, max: usize) -> Self {
        self.batch_max = max;
        self
    }

    /// Channel identifier policy for read-only filters (§5).
    pub fn policy(mut self, policy: ChannelPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Distribute the pipeline's Ejects round-robin over `n` simulated
    /// nodes (the paper's VAXen).
    pub fn over_nodes(mut self, n: u16) -> Self {
        self.nodes = Some(n.max(1));
        self
    }

    /// Discard output records (null sink) — keeps benchmarks allocation-flat.
    pub fn null_sink(mut self) -> Self {
        self.keep_output = false;
        self
    }

    /// Keep up to `w` writes in flight from a source-pumped pipeline's
    /// pump (write-only / conventional disciplines with a local source).
    /// 1 = synchronous rendezvous (the default).
    pub fn write_window(mut self, w: usize) -> Self {
        self.write_window = w.max(1);
        self
    }

    /// Tap stage `stage`'s secondary channel `channel` into its own
    /// collector (e.g. the report window of Figures 3 and 4).
    pub fn tap(mut self, stage: usize, channel: &str) -> Self {
        self.taps.push(ReportTap {
            stage,
            channel: channel.to_owned(),
            collector: Collector::new(),
        });
        self
    }

    /// Render the spec as a wiring graph for the conformance predicates.
    ///
    /// The graph mirrors the Ejects [`build`](Self::build) would spawn —
    /// merge filters, identity pumps, and conventional buffers included —
    /// so a conforming graph here means the instantiated pipeline's actual
    /// wiring conforms too. Under the capability channel policy every edge
    /// carries a grant, because the wirer itself performs the §5
    /// `GetChannel` handshake for each connection it makes.
    pub fn graph(&self) -> Result<WiringGraph> {
        let source = self.source.as_ref().ok_or_else(|| {
            EdenError::BadParameter("pipeline needs a source before graph()".into())
        })?;
        let mut g = WiringGraph::new(self.discipline.kind());
        if self.policy == ChannelPolicy::Capability {
            g = g.policy(GrantPolicy::Capability);
        }

        // Resolve the source into the node feeding the first stage,
        // mirroring `build`: merges become a fan-in filter; in the
        // source-pumped disciplines, external Ejects and programs get an
        // identity pump; a local supply pumps for itself.
        let pumped = !matches!(self.discipline, Discipline::ReadOnly { .. });
        let head = match source {
            SourceSpec::Local(_) => {
                g.node("source", NodeRole::Source);
                "source".to_owned()
            }
            SourceSpec::Program(_) => {
                g.node("source:program", NodeRole::Source);
                "source:program".to_owned()
            }
            SourceSpec::Eject(uid) => {
                let name = format!("eject:{uid}");
                g.node(&name, NodeRole::Source);
                name
            }
            SourceSpec::Merge(sources, _) => {
                // The merge filter *pulls* its inputs whatever the
                // pipeline's discipline — that pull wiring is the §5
                // workaround making fan-in legal even in a write-only
                // pipeline.
                g.node("merge", NodeRole::Filter);
                for (i, _) in sources.iter().enumerate() {
                    let name = format!("source[{i}]");
                    g.node(&name, NodeRole::Source);
                    g.edge_mode(&name, OUTPUT_NAME, "merge", conform::EdgeMode::Pull);
                }
                "merge".to_owned()
            }
            SourceSpec::MergeEjects(ports, _) => {
                g.node("merge", NodeRole::Filter);
                for port in ports {
                    let name = format!("eject:{}", port.uid);
                    g.node(&name, NodeRole::Source);
                    g.edge_mode(&name, channel_label(&port.channel), "merge", conform::EdgeMode::Pull);
                }
                "merge".to_owned()
            }
        };
        // Non-local sources cannot pump themselves: `build` interposes an
        // identity pump in the source-pumped disciplines. The pump pulls
        // its upstream and pushes downstream.
        let head = if pumped && !matches!(source, SourceSpec::Local(_)) {
            g.node("pump", NodeRole::Filter);
            g.edge_mode(&head, OUTPUT_NAME, "pump", conform::EdgeMode::Pull);
            "pump".to_owned()
        } else {
            head
        };

        let mut stage_names = Vec::with_capacity(self.stages.len());
        for (i, t) in self.stages.iter().enumerate() {
            let name = format!("stage{i}:{}", t.name());
            g.node(&name, NodeRole::Filter);
            stage_names.push(name);
        }
        g.node("sink", NodeRole::Sink);

        match self.discipline {
            Discipline::ReadOnly { .. } | Discipline::WriteOnly { .. } => {
                // A straight chain; taps hang their own sink off the
                // stage's secondary channel.
                let mut prev = head;
                for name in &stage_names {
                    g.edge(&prev, OUTPUT_NAME, name);
                    prev = name.clone();
                }
                g.edge(&prev, OUTPUT_NAME, "sink");
                for tap in &self.taps {
                    if let Some(stage) = stage_names.get(tap.stage) {
                        let sink = format!("tap{}:{}", tap.stage, tap.channel);
                        g.node(&sink, NodeRole::Sink);
                        g.edge(stage, &tap.channel, &sink);
                    }
                }
            }
            Discipline::Conventional { .. } => {
                // Figure 1: n filters need n+1 passive buffers; taps get
                // their own buffer + reader.
                g.node("buf0", NodeRole::Buffer);
                g.edge(&head, OUTPUT_NAME, "buf0");
                let mut upstream = "buf0".to_owned();
                for (i, name) in stage_names.iter().enumerate() {
                    let out_buf = format!("buf{}", i + 1);
                    g.node(&out_buf, NodeRole::Buffer);
                    g.edge(&upstream, OUTPUT_NAME, name);
                    g.edge(name, OUTPUT_NAME, &out_buf);
                    for tap in self.taps.iter().filter(|t| t.stage == i) {
                        let buf = format!("tapbuf{}:{}", tap.stage, tap.channel);
                        let sink = format!("tap{}:{}", tap.stage, tap.channel);
                        g.node(&buf, NodeRole::Buffer);
                        g.node(&sink, NodeRole::Sink);
                        g.edge(name, &tap.channel, &buf);
                        g.edge(&buf, OUTPUT_NAME, &sink);
                    }
                    upstream = out_buf;
                }
                g.edge(&upstream, OUTPUT_NAME, "sink");
            }
        }

        if g.policy == GrantPolicy::Capability {
            g.grant_all_edges();
        }
        Ok(g)
    }

    /// Check the spec without touching a kernel: a source is present,
    /// every tap names a declared secondary channel of a real stage, and
    /// the wiring graph satisfies its discipline's predicates.
    pub fn validate(&self) -> Result<()> {
        // Validate taps up front: in the source-pumped disciplines an
        // unattached tap would otherwise stall `run` until its deadline.
        for tap in &self.taps {
            if tap.stage >= self.stages.len() {
                return Err(EdenError::BadParameter(format!(
                    "tap names stage {} but the pipeline has {} stage(s)",
                    tap.stage,
                    self.stages.len()
                )));
            }
            let declared = self.stages[tap.stage].secondary_channels();
            if !declared.iter().any(|c| *c == tap.channel) {
                return Err(EdenError::NoSuchChannel(format!(
                    "stage {} (`{}`) declares no channel named `{}`",
                    tap.stage,
                    self.stages[tap.stage].name(),
                    tap.channel
                )));
            }
        }
        if let SourceSpec::Merge(sources, _) = self.source.as_ref().ok_or_else(|| {
            EdenError::BadParameter("pipeline needs a source before build()".into())
        })? {
            if sources.is_empty() {
                return Err(EdenError::BadParameter(
                    "merged source needs at least one input".into(),
                ));
            }
        }
        if let SourceSpec::MergeEjects(ports, _) = self.source.as_ref().expect("checked above") {
            if ports.is_empty() {
                return Err(EdenError::BadParameter(
                    "merged source needs at least one input".into(),
                ));
            }
        }
        let violations = self.graph()?.check();
        if !violations.is_empty() {
            let list = violations
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("; ");
            return Err(EdenError::Discipline(list));
        }
        Ok(())
    }

    /// Wire everything up on `kernel`, validating first. Ejects spawn
    /// now; in the read-only discipline no data flows yet (the sink's
    /// first Transfer starts the flow as part of `run`).
    pub fn build(self, kernel: &Kernel) -> Result<Pipeline> {
        self.validate()?;
        // One trace per pipeline: everything wired or spawned from here on
        // (including pump workers, which inherit the ambient span of the
        // thread that spawned their Eject) parents under this root, so the
        // whole run reconstructs as a single causal tree.
        let trace = eden_core::span::SpanContext::root();
        let _ambient = eden_core::span::enter(Some(trace));
        let PipelineSpec {
            discipline,
            batch,
            batch_max,
            policy,
            source,
            stages,
            taps,
            nodes,
            keep_output,
            write_window,
        } = self;
        let source = source.expect("validate() checked the source");
        let collector = if keep_output {
            Collector::new()
        } else {
            Collector::null()
        };
        let mut wiring = Wirer {
            kernel: kernel.clone(),
            nodes,
            next_node: 0,
            ejects: Vec::new(),
            deferred: Vec::new(),
        };
        // Resolve merged sources into a single merging Eject up front, so
        // the discipline builders only ever see Local or Eject sources.
        let source = match source {
            SourceSpec::Program(program) => SourceSpec::Eject(
                wiring.spawn(Box::new(crate::stdio::ProgramSourceEject::new(program)))?,
            ),
            SourceSpec::Merge(sources, mode) => {
                let ports = sources
                    .into_iter()
                    .map(|s| {
                        wiring
                            .spawn(Box::new(crate::source::SourceEject::new(s)))
                            .map(InputPort::primary)
                    })
                    .collect::<Result<Vec<_>>>()?;
                SourceSpec::MergeEjects(ports, mode)
            }
            other => other,
        };
        let source = match source {
            SourceSpec::MergeEjects(ports, mode) => {
                let merger = PullFilterEject::with_config(
                    Box::new(crate::transform::Identity),
                    ports,
                    PullFilterConfig {
                        batch,
                        read_ahead: 0,
                        fan_in: mode,
                        policy: ChannelPolicy::Integer,
                        batch_max,
                    },
                );
                SourceSpec::Eject(wiring.spawn(Box::new(merger))?)
            }
            other => other,
        };
        let start_target = match discipline {
            Discipline::ReadOnly { read_ahead } => {
                build_read_only(
                    &mut wiring, source, stages, &taps, batch, batch_max, read_ahead, policy,
                    &collector,
                )?;
                None
            }
            Discipline::WriteOnly { push_ahead } => build_write_only(
                &mut wiring, source, stages, &taps, batch, batch_max, push_ahead,
                write_window, &collector,
            )?,
            Discipline::Conventional { buffer_capacity } => build_conventional(
                &mut wiring,
                source,
                stages,
                &taps,
                batch,
                batch_max,
                buffer_capacity,
                write_window,
                &collector,
            )?,
        };
        let baseline = kernel.metrics().snapshot();
        Ok(Pipeline {
            kernel: kernel.clone(),
            discipline,
            ejects: wiring.ejects,
            deferred: wiring.deferred,
            start_target,
            collector,
            taps,
            baseline,
            trace,
        })
    }
}

/// Spawning helper that handles node placement and entity accounting.
struct Wirer {
    kernel: Kernel,
    nodes: Option<u16>,
    next_node: u16,
    ejects: Vec<Uid>,
    deferred: Vec<(Option<NodeId>, Box<dyn eden_kernel::EjectBehavior>)>,
}

impl Wirer {
    fn place(&mut self) -> Option<NodeId> {
        self.nodes.map(|n| {
            let node = NodeId(self.next_node % n);
            self.next_node = self.next_node.wrapping_add(1);
            node
        })
    }

    fn spawn(&mut self, behavior: Box<dyn eden_kernel::EjectBehavior>) -> Result<Uid> {
        let uid = match self.place() {
            Some(node) => self.kernel.spawn_on(node, behavior)?,
            None => self.kernel.spawn(behavior)?,
        };
        self.ejects.push(uid);
        Ok(uid)
    }

    /// Queue a behavior to spawn in `run()` instead of now. Used for
    /// every Eject whose pump starts the moment it spawns — pull-side
    /// sinks and conventional pump filters: deferring them past the
    /// metrics baseline keeps every data-phase invocation inside the
    /// measured window, so the analytic n+1 and 2n+2 counts hold exactly
    /// however many cores activate them early.
    fn defer(&mut self, behavior: Box<dyn eden_kernel::EjectBehavior>) {
        let node = self.place();
        self.deferred.push((node, behavior));
    }
}

#[allow(clippy::too_many_arguments)]
fn build_read_only(
    w: &mut Wirer,
    source: SourceSpec,
    stages: Vec<Box<dyn Transform>>,
    taps: &[ReportTap],
    batch: usize,
    batch_max: usize,
    read_ahead: usize,
    policy: ChannelPolicy,
    collector: &Collector,
) -> Result<()> {
    let source_uid = match source {
        SourceSpec::Local(s) => w.spawn(Box::new(crate::source::SourceEject::new(s)))?,
        SourceSpec::Eject(uid) => uid,
        // Merged sources are resolved to an Eject in `build()`.
        SourceSpec::Merge(..) | SourceSpec::MergeEjects(..) | SourceSpec::Program(..) => {
            unreachable!("merge sources resolved before discipline wiring")
        }
    };
    let mut prev = source_uid;
    // Sources always declare integer channels; under the capability
    // policy each *filter*'s primary output becomes a capability the
    // wirer must fetch with GetChannel and hand to the next stage — the
    // §5 connection protocol.
    let mut prev_channel = ChannelId::output();
    let mut filter_uids = Vec::with_capacity(stages.len());
    for transform in stages {
        let filter = PullFilterEject::with_config(
            transform,
            vec![InputPort {
                uid: prev,
                channel: prev_channel,
            }],
            PullFilterConfig {
                batch,
                read_ahead,
                fan_in: FanInMode::Concatenate,
                policy,
                batch_max,
            },
        );
        prev = w.spawn(Box::new(filter))?;
        filter_uids.push(prev);
        prev_channel = match policy {
            ChannelPolicy::Integer => ChannelId::output(),
            ChannelPolicy::Capability => {
                let id_value = w.kernel.invoke(
                    prev,
                    ops::GET_CHANNEL,
                    GetChannelRequest {
                        name: crate::protocol::OUTPUT_NAME.to_owned(),
                    }
                    .to_value(),
                ).wait()?;
                ChannelId::try_from(&id_value)?
            }
        };
    }
    // Report windows: ask each tapped filter for its channel id (the §5
    // connection protocol — mandatory under the capability policy) and
    // attach a reader.
    for tap in taps {
        let filter = *filter_uids.get(tap.stage).ok_or_else(|| {
            EdenError::BadParameter(format!("tap names stage {} of {}", tap.stage, filter_uids.len()))
        })?;
        let id_value = w.kernel.invoke(
            filter,
            ops::GET_CHANNEL,
            GetChannelRequest {
                name: tap.channel.clone(),
            }
            .to_value(),
        ).wait()?;
        let id = ChannelId::try_from(&id_value)?;
        w.defer(Box::new(SinkEject::on_channel(
            filter,
            id,
            batch,
            tap.collector.clone(),
        )));
    }
    // The sinks spawn last — and deferred until `run()`: attaching the
    // sink is "starting the pump" (§4), so nothing flows at build time.
    w.defer(Box::new(
        SinkEject::on_channel(prev, prev_channel, batch, collector.clone())
            .adaptive_batch(batch_max),
    ));
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn build_write_only(
    w: &mut Wirer,
    source: SourceSpec,
    stages: Vec<Box<dyn Transform>>,
    taps: &[ReportTap],
    batch: usize,
    batch_max: usize,
    push_ahead: usize,
    write_window: usize,
    collector: &Collector,
) -> Result<Option<Uid>> {
    // Build sink-first so each stage knows its destination.
    let sink = w.spawn(Box::new(AcceptorSinkEject::new(collector.clone())))?;
    let mut next = sink;
    let n = stages.len();
    for (rev_idx, transform) in stages.into_iter().enumerate().rev() {
        let mut wiring = OutputWiring::primary_to(OutputPort::primary(next));
        // Reports in write-only are just extra destinations (Figure 3):
        // each tapped channel writes into its own acceptor sink.
        for tap in taps.iter().filter(|t| t.stage == rev_idx) {
            let report_sink = w.spawn(Box::new(AcceptorSinkEject::new(tap.collector.clone())))?;
            wiring.add(&tap.channel, OutputPort::primary(report_sink));
        }
        let filter = PushFilterEject::with_push_ahead(transform, wiring, push_ahead);
        next = w.spawn(Box::new(filter))?;
        let _ = n;
    }
    spawn_pump_for(w, source, next, batch, batch_max, write_window)
}

/// Attach the pump appropriate to the source kind: a `Start`-triggered
/// push source for local supplies, or an identity pump reading an
/// existing Eject (it starts at spawn, so it is deferred to `run()`).
fn spawn_pump_for(
    w: &mut Wirer,
    source: SourceSpec,
    target: Uid,
    batch: usize,
    batch_max: usize,
    write_window: usize,
) -> Result<Option<Uid>> {
    let wiring = OutputWiring::primary_to(OutputPort::primary(target));
    match source {
        SourceSpec::Local(s) => {
            let src = w.spawn(Box::new(
                PushSourceEject::with_window(s, wiring, batch, write_window)
                    .adaptive_batch(batch_max),
            ))?;
            Ok(Some(src))
        }
        SourceSpec::Eject(uid) => {
            w.defer(Box::new(PumpFilterEject::new(
                Box::new(crate::transform::Identity),
                uid,
                wiring,
                batch,
            )));
            Ok(None)
        }
        // Merged sources are resolved to an Eject in `build()`.
        SourceSpec::Merge(..) | SourceSpec::MergeEjects(..) | SourceSpec::Program(..) => {
            unreachable!("merge sources resolved before discipline wiring")
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn build_conventional(
    w: &mut Wirer,
    source: SourceSpec,
    stages: Vec<Box<dyn Transform>>,
    taps: &[ReportTap],
    batch: usize,
    batch_max: usize,
    buffer_capacity: usize,
    write_window: usize,
    collector: &Collector,
) -> Result<Option<Uid>> {
    // source →W buf_0 R← F_1 →W buf_1 ... →W buf_n R← sink  (Figure 1:
    // n filters need n+1 passive buffers).
    let first_buf = w.spawn(Box::new(PassiveBufferEject::new(buffer_capacity)))?;
    let mut upstream_buf = first_buf;
    for (idx, transform) in stages.into_iter().enumerate() {
        let out_buf = w.spawn(Box::new(PassiveBufferEject::new(buffer_capacity)))?;
        let mut wiring = OutputWiring::primary_to(OutputPort::primary(out_buf));
        for tap in taps.iter().filter(|t| t.stage == idx) {
            // Conventional report streams need their own pipe + reader.
            let report_buf = w.spawn(Box::new(PassiveBufferEject::new(buffer_capacity)))?;
            wiring.add(&tap.channel, OutputPort::primary(report_buf));
            w.defer(Box::new(SinkEject::new(
                report_buf,
                batch,
                tap.collector.clone(),
            )));
        }
        // Pump filters and sinks start pulling the moment they activate:
        // spawned now, a multicore host would meter their first reads
        // before the baseline. Only the passive buffers spawn at build.
        w.defer(Box::new(PumpFilterEject::new(
            transform,
            upstream_buf,
            wiring,
            batch,
        )));
        upstream_buf = out_buf;
    }
    w.defer(Box::new(
        SinkEject::new(upstream_buf, batch, collector.clone()).adaptive_batch(batch_max),
    ));
    spawn_pump_for(w, source, first_buf, batch, batch_max, write_window)
}

/// A wired pipeline, ready to run.
#[derive(Debug)]
pub struct Pipeline {
    kernel: Kernel,
    discipline: Discipline,
    ejects: Vec<Uid>,
    /// Self-starting Ejects (sinks and pumps), spawned in `run()` so their
    /// pumps start after the metrics baseline (and so that truly nothing
    /// flows at build time).
    deferred: Vec<(Option<NodeId>, Box<dyn eden_kernel::EjectBehavior>)>,
    /// `Start` target for source-pumped disciplines.
    start_target: Option<Uid>,
    collector: Collector,
    taps: Vec<ReportTap>,
    baseline: MetricsSnapshot,
    /// The root span of the pipeline's trace; `run` re-enters it so the
    /// data phase joins the tree the build started.
    trace: eden_core::span::SpanContext,
}

impl Pipeline {
    /// The UIDs of every Eject in the pipeline (entity count).
    pub fn ejects(&self) -> &[Uid] {
        &self.ejects
    }

    /// The discipline this pipeline was wired in.
    pub fn discipline(&self) -> Discipline {
        self.discipline
    }

    /// The output collector (for observing progress mid-run).
    pub fn collector(&self) -> &Collector {
        &self.collector
    }

    /// Run to end-of-stream, tear the Ejects down, and report.
    pub fn run(mut self, deadline: Duration) -> Result<PipelineRun> {
        let start = Instant::now();
        // The data phase belongs to the trace the build started: the sink
        // spawns and the Start invocation below happen under the root span.
        // The guard is dropped before teardown so the Deactivate sweep does
        // not pollute the tree.
        let ambient = eden_core::span::enter(Some(self.trace));
        for (node, behavior) in self.deferred.drain(..) {
            let uid = match node {
                Some(n) => self.kernel.spawn_on(n, behavior)?,
                None => self.kernel.spawn(behavior)?,
            };
            self.ejects.push(uid);
        }
        if let Some(target) = self.start_target {
            // Fire the pump; its deferred reply resolves when the source
            // has pushed end-of-stream all the way in, but completion is
            // judged by the sink's collector.
            let _pending = self.kernel.invoke(target, "Start", Value::Unit);
        }
        let output = self.collector.wait_done(deadline)?;
        // Report streams end when their filter flushes, which has happened
        // by now — but their sink Ejects drain concurrently, so wait for
        // each to observe end-of-stream before reading the windows.
        let mut reports = Vec::with_capacity(self.taps.len());
        for t in &self.taps {
            let remaining = deadline.saturating_sub(start.elapsed()).max(Duration::from_secs(1));
            let items = t.collector.wait_done(remaining)?;
            reports.push(((t.stage, t.channel.clone()), items));
        }
        let wall = start.elapsed();
        let metrics = self.kernel.metrics().snapshot().since(&self.baseline);
        let entities = self.ejects.len();
        drop(ambient);
        self.teardown(Duration::from_secs(10));
        Ok(PipelineRun {
            output,
            records_out: 0,
            metrics,
            wall,
            entities,
            reports,
            trace: self.trace.trace,
        }
        .fix_counts())
    }

    /// Deactivate every Eject and wait for them to disappear. Called by
    /// `run`, and useful directly when a pipeline is abandoned.
    pub fn teardown(&self, deadline: Duration) {
        for &uid in &self.ejects {
            let _ = self.kernel.invoke(uid, ops::DEACTIVATE, Value::Unit);
        }
        let start = Instant::now();
        while start.elapsed() < deadline {
            let alive = self
                .ejects
                .iter()
                .any(|&uid| self.kernel.eject_state(uid) == Some(EjectState::Active));
            if !alive {
                return;
            }
            eden_kernel::blocking(|| std::thread::sleep(Duration::from_millis(2)));
        }
    }
}

/// The results of one pipeline execution.
#[derive(Debug, Clone)]
pub struct PipelineRun {
    /// Output records (empty if the pipeline used a null sink).
    pub output: Vec<Value>,
    /// Records delivered to the sink (valid even with a null sink).
    pub records_out: u64,
    /// Metered events during the data phase (setup excluded).
    pub metrics: MetricsSnapshot,
    /// Wall-clock duration of the data phase.
    pub wall: Duration,
    /// Number of Ejects the pipeline comprised.
    pub entities: usize,
    /// Report-stream captures, keyed by (stage, channel name).
    pub reports: Vec<((usize, String), Vec<Value>)>,
    /// The trace id every span of this run carries (when the kernel records
    /// spans); filter [`Kernel::spans`](eden_kernel::Kernel::spans) by it to
    /// reconstruct the run's causal tree.
    pub trace: u64,
}

impl PipelineRun {
    fn fix_counts(mut self) -> PipelineRun {
        self.records_out = self.output.len() as u64;
        self
    }

    /// Invocations per output record — the paper's headline metric
    /// (n+1 read-only vs 2n+2 conventional).
    pub fn invocations_per_record(&self) -> f64 {
        if self.records_out == 0 {
            return self.metrics.invocations as f64;
        }
        self.metrics.invocations as f64 / self.records_out as f64
    }

    /// Records per wall-clock second.
    pub fn throughput(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs == 0.0 {
            return f64::INFINITY;
        }
        self.records_out as f64 / secs
    }

    /// The capture for a given report tap, if present.
    pub fn report(&self, stage: usize, channel: &str) -> Option<&[Value]> {
        self.reports
            .iter()
            .find(|((s, c), _)| *s == stage && c == channel)
            .map(|(_, items)| items.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::{filter_fn, map_fn};

    fn doubled(n: i64) -> Vec<Value> {
        (0..n).map(|i| Value::Int(i * 2)).collect()
    }

    fn build_and_run(discipline: Discipline) -> PipelineRun {
        let kernel = Kernel::new();
        let run = PipelineSpec::new(discipline)
            .source_vec((0..40).map(Value::Int).collect())
            .stage(Box::new(map_fn("double", |v| {
                Value::Int(v.as_int().unwrap() * 2)
            })))
            .stage(Box::new(filter_fn("keep-all", |_| true)))
            .batch(4)
            .build(&kernel)
            .unwrap()
            .run(Duration::from_secs(20))
            .unwrap();
        kernel.shutdown();
        run
    }

    #[test]
    fn read_only_pipeline_runs() {
        let run = build_and_run(Discipline::ReadOnly { read_ahead: 0 });
        assert_eq!(run.output, doubled(40));
        assert_eq!(run.entities, 4); // source + 2 filters + sink
    }

    #[test]
    fn read_only_with_read_ahead_runs() {
        let run = build_and_run(Discipline::ReadOnly { read_ahead: 8 });
        assert_eq!(run.output, doubled(40));
    }

    #[test]
    fn write_only_pipeline_runs() {
        let run = build_and_run(Discipline::WriteOnly { push_ahead: 0 });
        assert_eq!(run.output, doubled(40));
        assert_eq!(run.entities, 4);
    }

    #[test]
    fn write_only_with_push_ahead_runs() {
        let run = build_and_run(Discipline::WriteOnly { push_ahead: 4 });
        assert_eq!(run.output, doubled(40));
    }

    #[test]
    fn conventional_pipeline_runs() {
        let run = build_and_run(Discipline::Conventional { buffer_capacity: 8 });
        assert_eq!(run.output, doubled(40));
        // source + 2 filters + 3 buffers + sink: 2n+3 entities for n=2.
        assert_eq!(run.entities, 7);
    }

    #[test]
    fn all_disciplines_agree() {
        let a = build_and_run(Discipline::ReadOnly { read_ahead: 0 });
        let b = build_and_run(Discipline::WriteOnly { push_ahead: 0 });
        let c = build_and_run(Discipline::Conventional { buffer_capacity: 8 });
        assert_eq!(a.output, b.output);
        assert_eq!(b.output, c.output);
    }

    #[test]
    fn conventional_needs_more_invocations() {
        let ro = build_and_run(Discipline::ReadOnly { read_ahead: 0 });
        let conv = build_and_run(Discipline::Conventional { buffer_capacity: 64 });
        assert!(
            conv.metrics.invocations > ro.metrics.invocations,
            "conventional {} must exceed read-only {}",
            conv.metrics.invocations,
            ro.metrics.invocations
        );
    }

    #[test]
    fn pipeline_without_source_fails_to_build() {
        let kernel = Kernel::new();
        let err = PipelineSpec::new(Discipline::ReadOnly { read_ahead: 0 })
            .build(&kernel)
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, EdenError::BadParameter(_)));
        kernel.shutdown();
    }

    #[test]
    fn teardown_reclaims_ejects() {
        let kernel = Kernel::new();
        let pipeline = PipelineSpec::new(Discipline::ReadOnly { read_ahead: 0 })
            .source_vec((0..4).map(Value::Int).collect())
            .build(&kernel)
            .unwrap();
        // The sink is deferred to run() ("starting the pump"), so a
        // zero-stage pipeline has spawned only its source at this point.
        assert!(kernel.eject_count() >= 1);
        let _run = pipeline.run(Duration::from_secs(10)).unwrap();
        assert_eq!(kernel.eject_count(), 0, "run() must tear the pipeline down");
        kernel.shutdown();
    }

    #[test]
    fn zero_stage_pipeline_copies() {
        for discipline in [
            Discipline::ReadOnly { read_ahead: 0 },
            Discipline::WriteOnly { push_ahead: 0 },
            Discipline::Conventional { buffer_capacity: 4 },
        ] {
            let kernel = Kernel::new();
            let run = PipelineSpec::new(discipline)
                .source_vec((0..7).map(Value::Int).collect())
                .build(&kernel)
                .unwrap()
                .run(Duration::from_secs(10))
                .unwrap();
            assert_eq!(run.output, (0..7).map(Value::Int).collect::<Vec<_>>());
            kernel.shutdown();
        }
    }

    #[test]
    fn merged_sources_concatenate_and_zip() {
        let kernel = Kernel::new();
        let run = PipelineSpec::new(Discipline::ReadOnly { read_ahead: 0 })
            .source_merge(
                vec![
                    Box::new(crate::source::VecSource::new(vec![Value::Int(1), Value::Int(2)])),
                    Box::new(crate::source::VecSource::new(vec![Value::Int(10)])),
                ],
                FanInMode::Concatenate,
            )
            .build(&kernel)
            .unwrap()
            .run(Duration::from_secs(10))
            .unwrap();
        assert_eq!(run.output, vec![Value::Int(1), Value::Int(2), Value::Int(10)]);

        let run = PipelineSpec::new(Discipline::WriteOnly { push_ahead: 0 })
            .source_merge(
                vec![
                    Box::new(crate::source::VecSource::new(vec![Value::Int(1), Value::Int(2)])),
                    Box::new(crate::source::VecSource::new(vec![Value::Int(10), Value::Int(20)])),
                ],
                FanInMode::Zip,
            )
            .build(&kernel)
            .unwrap()
            .run(Duration::from_secs(10))
            .unwrap();
        assert_eq!(
            run.output,
            vec![
                Value::list(vec![Value::Int(1), Value::Int(10)]),
                Value::list(vec![Value::Int(2), Value::Int(20)]),
            ]
        );
        kernel.shutdown();
    }

    #[test]
    fn invalid_taps_rejected_at_build() {
        struct Reporter;
        impl Transform for Reporter {
            fn push(&mut self, item: Value, out: &mut crate::transform::Emitter) {
                out.emit(item);
            }
            fn secondary_channels(&self) -> Vec<&'static str> {
                vec!["Report"]
            }
        }
        let kernel = Kernel::new();
        for discipline in [
            Discipline::ReadOnly { read_ahead: 0 },
            Discipline::WriteOnly { push_ahead: 0 },
        ] {
            // Stage index out of range.
            let err = PipelineSpec::new(discipline)
                .source_vec(vec![Value::Int(1)])
                .stage(Box::new(Reporter))
                .tap(5, "Report")
                .build(&kernel)
                .map(|_| ())
                .unwrap_err();
            assert!(matches!(err, EdenError::BadParameter(_)), "{err}");
            // Channel not declared by the stage.
            let err = PipelineSpec::new(discipline)
                .source_vec(vec![Value::Int(1)])
                .stage(Box::new(Reporter))
                .tap(0, "Bogus")
                .build(&kernel)
                .map(|_| ())
                .unwrap_err();
            assert!(matches!(err, EdenError::NoSuchChannel(_)), "{err}");
        }
        kernel.shutdown();
    }

    #[test]
    fn program_source_feeds_pipeline() {
        // §4's standard IO module as a pipeline source: conventional
        // imperative writes behind passive output.
        let kernel = Kernel::new();
        let run = PipelineSpec::new(Discipline::ReadOnly { read_ahead: 0 })
            .source_program(|out| {
                for i in 0..5 {
                    out.write(Value::Int(i * 11)).expect("write");
                }
            })
            .stage(Box::new(filter_fn("nonzero", |v| {
                v.as_int().map(|i| i != 0).unwrap_or(false)
            })))
            .build(&kernel)
            .unwrap()
            .run(Duration::from_secs(10))
            .unwrap();
        assert_eq!(
            run.output,
            vec![Value::Int(11), Value::Int(22), Value::Int(33), Value::Int(44)]
        );
        // The program Eject is part of the pipeline and torn down with it.
        assert_eq!(kernel.eject_count(), 0);
        kernel.shutdown();
    }

    #[test]
    fn empty_merge_is_rejected() {
        let kernel = Kernel::new();
        let err = PipelineSpec::new(Discipline::ReadOnly { read_ahead: 0 })
            .source_merge(vec![], FanInMode::Concatenate)
            .build(&kernel)
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, EdenError::BadParameter(_)));
        kernel.shutdown();
    }

    #[test]
    fn distributed_placement_counts_remote_invocations() {
        let kernel = Kernel::new();
        let run = PipelineSpec::new(Discipline::ReadOnly { read_ahead: 0 })
            .source_vec((0..10).map(Value::Int).collect())
            .stage(Box::new(map_fn("id", |v| v)))
            .over_nodes(3)
            .build(&kernel)
            .unwrap()
            .run(Duration::from_secs(10))
            .unwrap();
        assert!(run.metrics.remote_invocations > 0);
        kernel.shutdown();
    }

    // -- static conformance: PipelineSpec::graph() ---------------------

    fn spec(discipline: Discipline) -> PipelineSpec {
        PipelineSpec::new(discipline)
            .source_vec((0..4).map(Value::Int).collect())
            .stage(Box::new(map_fn("id", |v| v)))
            .stage(Box::new(filter_fn("keep", |_| true)))
    }

    #[test]
    fn specs_conform_by_construction() {
        for discipline in [
            Discipline::ReadOnly { read_ahead: 0 },
            Discipline::WriteOnly { push_ahead: 2 },
            Discipline::Conventional { buffer_capacity: 8 },
        ] {
            let g = spec(discipline).graph().unwrap();
            assert!(g.check().is_empty(), "{discipline:?}: {:?}", g.check());
        }
    }

    #[test]
    fn graph_mirrors_conventional_buffer_count() {
        // n filters → n+1 buffers (Figure 1), visible in the graph.
        let g = spec(Discipline::Conventional { buffer_capacity: 8 })
            .graph()
            .unwrap();
        let buffers = g
            .nodes
            .values()
            .filter(|r| **r == NodeRole::Buffer)
            .count();
        assert_eq!(buffers, 3);
    }

    #[test]
    fn graph_grants_every_edge_under_capability_policy() {
        let g = spec(Discipline::ReadOnly { read_ahead: 0 })
            .policy(ChannelPolicy::Capability)
            .graph()
            .unwrap();
        assert_eq!(g.policy, GrantPolicy::Capability);
        assert_eq!(g.grants.len(), g.edges.len());
        assert!(g.check().is_empty());
    }

    #[test]
    fn tapped_spec_graph_conforms() {
        struct Reporter;
        impl Transform for Reporter {
            fn push(&mut self, item: Value, out: &mut crate::transform::Emitter) {
                out.emit(item);
            }
            fn secondary_channels(&self) -> Vec<&'static str> {
                vec!["Report"]
            }
        }
        for discipline in [
            Discipline::ReadOnly { read_ahead: 0 },
            Discipline::WriteOnly { push_ahead: 0 },
            Discipline::Conventional { buffer_capacity: 4 },
        ] {
            let g = PipelineSpec::new(discipline)
                .source_vec(vec![Value::Int(1)])
                .stage(Box::new(Reporter))
                .tap(0, "Report")
                .graph()
                .unwrap();
            assert!(g.check().is_empty(), "{discipline:?}: {:?}", g.check());
        }
    }

    #[test]
    fn merged_spec_graph_conforms_in_both_asymmetric_disciplines() {
        // Fan-in is natural under read-only; under write-only the builder
        // interposes a pull-side merge filter plus a pump — the §5
        // workaround for "fan-in is impossible" — and the graph records
        // those edges as pull-mode, which the write-only predicate
        // exempts.
        for discipline in [
            Discipline::ReadOnly { read_ahead: 0 },
            Discipline::WriteOnly { push_ahead: 0 },
            Discipline::Conventional { buffer_capacity: 4 },
        ] {
            let g = PipelineSpec::new(discipline)
                .source_merge(
                    vec![
                        Box::new(VecSource::new(vec![Value::Int(1)])),
                        Box::new(VecSource::new(vec![Value::Int(2)])),
                    ],
                    FanInMode::Concatenate,
                )
                .graph()
                .unwrap();
            assert!(g.check().is_empty(), "{discipline:?}: {:?}", g.check());
        }
    }

    #[test]
    fn discipline_kind_strips_knobs() {
        assert_eq!(
            Discipline::ReadOnly { read_ahead: 9 }.kind(),
            DisciplineKind::ReadOnly
        );
        assert_eq!(
            Discipline::WriteOnly { push_ahead: 9 }.kind(),
            DisciplineKind::WriteOnly
        );
        assert_eq!(
            Discipline::Conventional { buffer_capacity: 9 }.kind(),
            DisciplineKind::Conventional
        );
    }
}
