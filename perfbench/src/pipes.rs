//! The closed-loop batch workloads: `pipe-small` (invocation-bound) and
//! `pipe-bulk` (payload- and compute-bound).

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use eden_core::{Uid, Value};
use eden_filters::aggregate::WordCount;
use eden_filters::editor::{Command, StreamEditor};
use eden_filters::text::{CaseFold, Grep, LineNumber, StripComments};
use eden_kernel::Kernel;
use eden_transput::sink::AcceptorSinkEject;
use eden_transput::source::VecSource;
use eden_transput::write_only::{OutputPort, OutputWiring, PushFilterEject, PushSourceEject};
use eden_transput::{Collector, Discipline, PipelineSpec, Transform};

use crate::chain::{Chain, TimedSource, TimedTransform};
use crate::gen;
use crate::harness::{self, Ctx, Job, LayerAcc, Outcome, Phase};
use crate::probe::{self, Layer};

const DEADLINE: Duration = Duration::from_secs(60);

/// Apply a chain of transforms directly, with no kernel: the reference
/// output and the compute floor.
fn oracle(stages: Vec<Box<dyn Transform>>, input: &[Value]) -> Vec<Value> {
    let mut records = input.to_vec();
    for mut t in stages {
        let mut out = eden_transput::Emitter::new();
        for r in records {
            t.push(r, &mut out);
        }
        t.flush(&mut out);
        records = out.take_primary();
    }
    records
}

fn lines_to_values(lines: &[String]) -> Vec<Value> {
    lines.iter().map(|l| Value::str(l.as_str())).collect()
}

// ---------------------------------------------------------------------------
// pipe-small
// ---------------------------------------------------------------------------

const SMALL_COPIES: usize = 2;
const SMALL_LINES: usize = 1024;
const SMALL_BATCH: usize = 4;

fn small_chain() -> Vec<Box<dyn Transform>> {
    vec![
        Box::new(StripComments::new("#")),
        Box::new(Grep::deleting("/")),
        Box::new(CaseFold::lower()),
        Box::new(LineNumber::new()),
    ]
}

const DISCIPLINES: [(&str, Discipline); 3] = [
    ("read_only", Discipline::ReadOnly { read_ahead: 0 }),
    ("write_only", Discipline::WriteOnly { push_ahead: 0 }),
    (
        "conventional",
        Discipline::Conventional {
            buffer_capacity: 16,
        },
    ),
];

fn small_job(
    ctx: &Ctx,
    inputs: &[Vec<Value>],
    expect: &[Vec<Value>],
    acc: Option<&mut LayerAcc>,
    out: &mut Outcome,
) -> Job {
    let traced = acc.is_some();
    let mut acc = acc;
    let mut job = Job::default();
    let opened = probe::now_ns();
    let kernel = probe::timed(Layer::Build, || ctx.kernel(traced).build(), |_| true);
    job.setup_ns += probe::now_ns() - opened;
    for (di, (label, discipline)) in DISCIPLINES.iter().enumerate() {
        let t0 = probe::now_ns();
        let mut chains = Vec::new();
        let mut pipelines = Vec::new();
        for input in inputs.iter().take(SMALL_COPIES) {
            let chain = Chain::new(4, 4);
            let mut spec = PipelineSpec::new(*discipline)
                .source(Box::new(TimedSource {
                    inner: Box::new(VecSource::new(input.clone())),
                    chain: Arc::clone(&chain),
                }))
                .batch(SMALL_BATCH);
            for (i, t) in small_chain().into_iter().enumerate() {
                spec = spec.stage(Box::new(TimedTransform {
                    inner: t,
                    chain: Arc::clone(&chain),
                    stage: i,
                    input: i,
                    outputs: if i == 3 { vec![] } else { vec![i + 1] },
                }));
            }
            let built = probe::timed_res(Layer::Build, || spec.build(&kernel));
            match built {
                Ok(p) => pipelines.push(p),
                Err(e) => out.problem(format!("{label}: build failed: {e}")),
            }
            chains.push(chain);
        }
        let built_at = probe::now_ns();
        job.setup_ns += built_at - t0;
        let before = kernel.metrics().snapshot();
        let cpu0 = harness::cpu_seconds();
        let vm0 = harness::vm_ticks();
        let mut phase = Phase {
            label,
            start: built_at,
            ..Phase::default()
        };
        for c in &chains {
            c.start();
        }
        let gauges = acc.as_ref().map(|a| &a.gauges);
        let runs = harness::sampled(
            &kernel,
            gauges.is_some(),
            gauges.unwrap_or(&Default::default()),
            || {
                std::thread::scope(|s| {
                    let handles: Vec<_> = pipelines
                        .drain(..)
                        .map(|p| s.spawn(move || probe::timed_res(Layer::Run, || p.run(DEADLINE))))
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("pipeline thread panicked"))
                        .collect::<Vec<_>>()
                })
            },
        );
        phase.end = probe::now_ns();
        phase.steal = harness::steal_since(vm0);
        let wall = phase.end - built_at;
        phase.cpu_s = harness::cpu_seconds() - cpu0;
        let delta = kernel.metrics().snapshot().since(&before);
        let mut delivered = 0;
        for (copy, run) in runs.into_iter().enumerate() {
            out.attempted += inputs[copy].len() as u64;
            match run {
                Ok(r) => {
                    delivered += r.output.len() as u64;
                    let (lost, wrong) = compare(&r.output, &expect[copy]);
                    if lost + wrong > 0 {
                        out.failed += lost + wrong;
                        out.problem(format!(
                            "{label} copy {copy}: {lost} lost, {wrong} wrong records"
                        ));
                    }
                }
                Err(e) => {
                    out.failed += inputs[copy].len() as u64;
                    out.problem(format!("{label} copy {copy}: run failed: {e}"));
                }
            }
        }
        phase.records = delivered;
        for c in &chains {
            let orphans = c.orphans.load(Ordering::Relaxed);
            if orphans > 0 {
                out.problem(format!("{label}: {orphans} records without provenance"));
            }
            for &l in c.latencies.lock().expect("latency store poisoned").iter() {
                phase.latencies.record(l);
            }
        }
        if di == 0 {
            let first = chains
                .iter()
                .map(|c| c.first_arrival.load(Ordering::Relaxed))
                .min()
                .unwrap_or(opened);
            phase.recovery_ns.push(first.saturating_sub(opened));
        }
        if let Some(a) = acc.as_deref_mut() {
            a.kernel.add(&delta);
            a.discipline(label, delta.invocations, delivered);
            a.wall_ns += wall;
            *a.run_ms.entry(label).or_default() += wall as f64 / 1e6;
            for c in &chains {
                fold_chain(a, c);
            }
        }
        job.phases.push(phase);
    }
    if let Some(a) = acc {
        a.kernel_done(&kernel);
    }
    kernel.shutdown();
    job
}

/// Add one pipeline copy's stage counters to the traced totals.
fn fold_chain(a: &mut LayerAcc, c: &Chain) {
    let busiest = c
        .stage_busy_ns
        .iter()
        .map(|b| b.load(Ordering::Relaxed))
        .max();
    a.bottleneck_ns += busiest.unwrap_or(0);
    a.source_wait_ns += c.source_wait_ns.load(Ordering::Relaxed);
    a.filter_in += c.records_in.load(Ordering::Relaxed);
    a.filter_out += c.records_out.load(Ordering::Relaxed);
}

/// Records missing (or extra) and records differing from the reference.
fn compare(got: &[Value], want: &[Value]) -> (u64, u64) {
    let lost = got.len().abs_diff(want.len()) as u64;
    let wrong = got.iter().zip(want).filter(|(g, w)| g != w).count() as u64;
    (lost, wrong)
}

pub fn pipe_small(ctx: &Ctx) -> Outcome {
    let inputs: Vec<Vec<Value>> = (0..SMALL_COPIES)
        .map(|c| {
            lines_to_values(&gen::prose_lines(
                ctx.seed,
                10 + c as u64,
                SMALL_LINES,
                48,
                80,
            ))
        })
        .collect();
    let expect: Vec<Vec<Value>> = inputs.iter().map(|i| oracle(small_chain(), i)).collect();
    harness::run_closed(
        ctx,
        |acc, out| small_job(ctx, &inputs, &expect, acc, out),
        |acc| {
            acc.oracle_ms = harness::oracle_ms(|| {
                for i in &inputs {
                    for _ in DISCIPLINES {
                        std::hint::black_box(oracle(small_chain(), i));
                    }
                }
            });
            acc.wire_sample = Some(
                eden_transput::WriteRequest::more(inputs[0][..SMALL_BATCH].to_vec()).to_value(),
            );
        },
    )
}

// ---------------------------------------------------------------------------
// pipe-bulk
// ---------------------------------------------------------------------------

const BULK_COPIES: usize = 2;
const BULK_LINES: usize = 1024;
const BULK_FANOUT: usize = 4;

fn sed() -> StreamEditor {
    StreamEditor::new(vec![Command::Substitute("the".into(), "THE".into())])
}

/// The reference: what each of the four sinks must receive.
fn bulk_oracle(input: &[Value]) -> Vec<Value> {
    oracle(
        vec![
            Box::new(Grep::deleting("#")),
            Box::new(sed()),
            Box::new(WordCount::new()),
        ],
        input,
    )
}

fn bulk_job(
    ctx: &Ctx,
    inputs: &[Vec<Value>],
    expect: &[Vec<Value>],
    acc: Option<&mut LayerAcc>,
    out: &mut Outcome,
) -> Job {
    let traced = acc.is_some();
    let mut acc = acc;
    let mut job = Job::default();
    let opened = probe::now_ns();
    let kernel = probe::timed(Layer::Build, || ctx.kernel(traced).build(), |_| true);
    let spawn = |k: &Kernel, b: Box<dyn eden_kernel::EjectBehavior>| -> Uid {
        probe::timed_res(Layer::Spawn, || k.spawn(b)).expect("spawn on a live kernel")
    };
    let mut copies = Vec::new();
    // source -> grep -> sed -> 4 x (wc -> sink), spawned tail first so each
    // stage is born knowing its downstream.
    probe::timed(
        Layer::Build,
        || {
            for input in inputs.iter().take(BULK_COPIES) {
                let chain = Chain::new(2 + BULK_FANOUT, 2 + BULK_FANOUT);
                let stage = |t: Box<dyn Transform>, i: usize, outputs: Vec<usize>| TimedTransform {
                    inner: t,
                    chain: Arc::clone(&chain),
                    stage: i,
                    input: i,
                    outputs,
                };
                let mut collectors = Vec::new();
                let mut fan = OutputWiring::default();
                for b in 0..BULK_FANOUT {
                    let c = Collector::new();
                    let sink = spawn(&kernel, Box::new(AcceptorSinkEject::new(c.clone())));
                    let wc = spawn(
                        &kernel,
                        Box::new(PushFilterEject::new(
                            Box::new(stage(Box::new(WordCount::new()), 2 + b, vec![])),
                            OutputWiring::primary_to(OutputPort::primary(sink)),
                        )),
                    );
                    if b == 0 {
                        fan = OutputWiring::primary_to(OutputPort::primary(wc));
                    } else {
                        let name = fan.channels().next().expect("primary channel").to_owned();
                        fan.add(&name, OutputPort::primary(wc));
                    }
                    collectors.push(c);
                }
                let sed_uid = spawn(
                    &kernel,
                    Box::new(PushFilterEject::new(
                        Box::new(stage(Box::new(sed()), 1, (2..2 + BULK_FANOUT).collect())),
                        fan,
                    )),
                );
                let grep = spawn(
                    &kernel,
                    Box::new(PushFilterEject::new(
                        Box::new(stage(Box::new(Grep::deleting("#")), 0, vec![1])),
                        OutputWiring::primary_to(OutputPort::primary(sed_uid)),
                    )),
                );
                let source = spawn(
                    &kernel,
                    Box::new(
                        PushSourceEject::with_window(
                            Box::new(TimedSource {
                                inner: Box::new(VecSource::new(input.clone())),
                                chain: Arc::clone(&chain),
                            }),
                            OutputWiring::primary_to(OutputPort::primary(grep)),
                            4,
                            4,
                        )
                        .adaptive_batch(64),
                    ),
                );
                copies.push((chain, source, collectors));
            }
        },
        |_| true,
    );
    let started = probe::now_ns();
    job.setup_ns = started - opened;
    let vm0 = harness::vm_ticks();
    let mut phase = Phase {
        label: "write_only",
        start: started,
        ..Phase::default()
    };
    let before = kernel.metrics().snapshot();
    let cpu0 = harness::cpu_seconds();
    let gauges = acc.as_ref().map(|a| &a.gauges);
    let results = harness::sampled(
        &kernel,
        gauges.is_some(),
        gauges.unwrap_or(&Default::default()),
        || {
            probe::timed(
                Layer::Run,
                || {
                    let pending: Vec<_> = copies
                        .iter()
                        .map(|(chain, source, _)| {
                            chain.start();
                            kernel.invoke(*source, "Start", Value::Unit)
                        })
                        .collect();
                    let outs: Vec<Vec<eden_core::Result<Vec<Value>>>> = copies
                        .iter()
                        .map(|(_, _, cs)| cs.iter().map(|c| c.wait_done(DEADLINE)).collect())
                        .collect();
                    for p in pending {
                        let _ = p.wait_timeout(DEADLINE);
                    }
                    outs
                },
                |_| true,
            )
        },
    );
    phase.end = probe::now_ns();
    phase.steal = harness::steal_since(vm0);
    let wall = phase.end - started;
    phase.cpu_s = harness::cpu_seconds() - cpu0;
    let delta = kernel.metrics().snapshot().since(&before);
    for (copy, sinks) in results.into_iter().enumerate() {
        let n = inputs[copy].len() as u64;
        out.attempted += n;
        let mut bad = false;
        for (b, got) in sinks.into_iter().enumerate() {
            match got {
                Ok(v) if v == expect[copy] => {}
                Ok(v) => {
                    bad = true;
                    out.problem(format!(
                        "copy {copy} sink {b}: got {v:?}, want {:?}",
                        expect[copy]
                    ));
                }
                Err(e) => {
                    bad = true;
                    out.problem(format!("copy {copy} sink {b}: {e}"));
                }
            }
        }
        if bad {
            out.failed += n;
        } else {
            phase.records += n;
        }
    }
    for (chain, _, _) in &copies {
        for &l in chain
            .latencies
            .lock()
            .expect("latency store poisoned")
            .iter()
        {
            phase.latencies.record(l);
        }
        let orphans = chain.orphans.load(Ordering::Relaxed);
        if orphans > 0 {
            out.problem(format!("{orphans} records without provenance"));
        }
    }
    let first = copies
        .iter()
        .map(|(c, _, _)| c.first_arrival.load(Ordering::Relaxed))
        .min()
        .unwrap_or(opened);
    phase.recovery_ns.push(first.saturating_sub(opened));
    if let Some(a) = acc.as_deref_mut() {
        a.kernel.add(&delta);
        a.wall_ns += wall;
        *a.run_ms.entry("write_only").or_default() += wall as f64 / 1e6;
        for (c, _, _) in &copies {
            fold_chain(a, c);
        }
    }
    job.phases.push(phase);
    if let Some(a) = acc {
        a.kernel_done(&kernel);
    }
    kernel.shutdown();
    job
}

pub fn pipe_bulk(ctx: &Ctx) -> Outcome {
    let inputs: Vec<Vec<Value>> = (0..BULK_COPIES)
        .map(|c| {
            lines_to_values(&gen::prose_lines(
                ctx.seed,
                20 + c as u64,
                BULK_LINES,
                3584,
                4608,
            ))
        })
        .collect();
    let expect: Vec<Vec<Value>> = inputs.iter().map(|i| bulk_oracle(i)).collect();
    harness::run_closed(
        ctx,
        |acc, out| bulk_job(ctx, &inputs, &expect, acc, out),
        |acc| {
            acc.oracle_ms = harness::oracle_ms(|| {
                for i in &inputs {
                    for _ in 0..BULK_FANOUT {
                        std::hint::black_box(bulk_oracle(i));
                    }
                }
            });
            acc.wire_sample =
                Some(eden_transput::WriteRequest::more(inputs[0][..64].to_vec()).to_value());
        },
    )
}
