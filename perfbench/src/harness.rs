//! What every workload shares: the run context, the pinned kernel, process
//! CPU, memory and hypervisor-steal readings, the closed-loop job loop with
//! its quiet-phase scoring, the snapshot sampler of the traced run, and the
//! accumulator that turns traced jobs into per-layer metrics.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use eden_core::{MetricsSnapshot, PayloadSnapshot};
use eden_kernel::{
    Kernel, KernelBuilder, KernelSnapshot, ObsConfig, SchedulerConfig, StageSummary,
};

use crate::probe::{self, Layer, StatSnap, LAYERS};

/// Latency limit of the goodput metric.
pub const LIMIT_NS: u64 = 20_000_000;

/// The command line, plus the host facts every result records.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Host `available_parallelism`; also the pinned scheduler worker count.
    pub workers: usize,
}

impl Ctx {
    /// A kernel with the scheduler pinned to the host's parallelism; the
    /// traced half of a run also switches on the kernel's own span and
    /// stage-histogram plane.
    pub fn kernel(&self, traced: bool) -> KernelBuilder {
        let obs = if traced {
            ObsConfig {
                span_capacity: 65_536,
                ..ObsConfig::full()
            }
        } else {
            ObsConfig::off()
        };
        Kernel::builder()
            .scheduler(SchedulerConfig {
                workers: self.workers,
                run_queue_shards: self.workers,
                ..SchedulerConfig::default()
            })
            .observability(obs)
    }
}

/// Named metric values in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub BTreeMap<String, f64>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_owned(), value);
    }
}

/// What one workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Reference-check failures, each a readable reason.
    pub problems: Vec<String>,
    pub e2e: Metrics,
    pub layers: Metrics,
    /// Run-envelope extras: sample counts, generator lag, failure split.
    pub envelope: Metrics,
}

impl Outcome {
    pub fn problem(&mut self, p: impl Into<String>) {
        let p = p.into();
        if self.problems.len() < 20 {
            self.problems.push(p);
        }
    }
}

/// Process CPU time (user + system) in seconds, from `/proc/self/stat`.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, in clock ticks of 1/100 s.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

/// Whole-machine CPU ticks from `/proc/stat`: (stolen by the hypervisor,
/// total). On a shared virtual machine the stolen share is CPU time the
/// guest wanted and did not get.
pub fn vm_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let line = stat.lines().next().unwrap_or("");
    let f: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    let total = f.iter().take(8).sum();
    (f.get(7).copied().unwrap_or(0), total)
}

/// The stolen share of the machine's CPU between two [`vm_ticks`] readings.
pub fn steal_between(before: (u64, u64), after: (u64, u64)) -> f64 {
    (after.0 - before.0) as f64 / (after.1 - before.1).max(1) as f64
}

/// The stolen share of the machine's CPU since `before`.
pub fn steal_since(before: (u64, u64)) -> f64 {
    steal_between(before, vm_ticks())
}

/// Intervals whose machine-wide stolen CPU share exceeds this are not
/// scored. On a shared virtual machine the hypervisor's steal swings
/// wall-clock throughput and latency by up to 3x between minutes; the
/// program is measured on the quiet intervals, and the envelope says how
/// many were left out.
pub const STEAL_LIMIT: f64 = 0.02;

/// Indices of the intervals to score: those under [`STEAL_LIMIT`], or,
/// when fewer than a quarter (at least three) are that quiet, the
/// least-stolen quarter. The flag says whether it fell back to the latter.
///
/// Steal accrues only while a vCPU is runnable, so a build that keeps more
/// threads runnable records more of it and falls back more often. Runs
/// report the flag and the unfiltered figure beside the scored one, so a
/// comparison can see when the filter chose differently for two builds.
pub fn quiet(shares: &[f64]) -> (Vec<usize>, bool) {
    let want = (shares.len() / 4).max(3).min(shares.len());
    let calm: Vec<usize> = (0..shares.len())
        .filter(|&i| shares[i] <= STEAL_LIMIT)
        .collect();
    if calm.len() >= want {
        return (calm, false);
    }
    let mut order: Vec<usize> = (0..shares.len()).collect();
    order.sort_by(|&a, &b| shares[a].total_cmp(&shares[b]));
    order.truncate(want);
    order.sort_unstable();
    (order, true)
}

/// Peak resident memory of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Scheduler and mailbox gauges sampled at a fixed interval.
#[derive(Debug, Default, Clone)]
pub struct Gauges {
    pub samples: u64,
    pub workers_max: u64,
    pub queued_tasks_max: u64,
    pub idle_frac_sum: f64,
    pub mailbox_max: u64,
    pub mailbox_sum: f64,
}

/// Sample `kernel`'s snapshots every 5 ms while `body` runs (traced run
/// only; an untraced run returns `body`'s value without sampling).
pub fn sampled<T>(
    kernel: &Kernel,
    on: bool,
    gauges: &Mutex<Gauges>,
    body: impl FnOnce() -> T,
) -> T {
    if !on {
        return body();
    }
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                let snap = kernel.metrics_snapshot();
                let mut g = gauges.lock().expect("gauges poisoned");
                g.samples += 1;
                g.workers_max = g.workers_max.max(snap.sched.workers);
                g.queued_tasks_max = g.queued_tasks_max.max(snap.sched.queued_tasks);
                if snap.sched.workers > 0 {
                    g.idle_frac_sum += snap.sched.workers_idle as f64 / snap.sched.workers as f64;
                }
                g.mailbox_max = g.mailbox_max.max(snap.mailbox.queued_max);
                if snap.mailbox.mailboxes > 0 {
                    g.mailbox_sum +=
                        snap.mailbox.queued_total as f64 / snap.mailbox.mailboxes as f64;
                }
                drop(g);
                std::thread::sleep(Duration::from_millis(5));
            }
        });
        let out = body();
        stop.store(true, Ordering::Relaxed);
        out
    })
}

/// Kernel counters summed over the traced jobs.
#[derive(Debug, Default, Clone, Copy)]
pub struct KernelDelta {
    pub invocations: u64,
    pub internal_messages: u64,
    pub bytes: u64,
    pub route_hits: u64,
    pub route_misses: u64,
    pub retries: u64,
    pub sheds: u64,
    pub fatal: u64,
    pub reactivations: u64,
    pub steals: u64,
}

impl KernelDelta {
    pub fn add(&mut self, m: &MetricsSnapshot) {
        self.invocations += m.invocations;
        self.internal_messages += m.internal_messages;
        self.bytes += m.bytes_invoked + m.bytes_replied;
        self.route_hits += m.route_cache_hits;
        self.route_misses += m.route_cache_misses;
        self.retries += m.retries;
        self.sheds += m.sheds_total();
        self.fatal += m.fatal_failures;
        self.reactivations += m.reactivations;
    }
}

/// Everything the traced half of a run accumulates.
#[derive(Debug, Default)]
pub struct LayerAcc {
    /// Records the workload counts as delivered (its throughput numerator).
    pub records: u64,
    /// Data-phase wall time of the traced jobs.
    pub wall_ns: u64,
    pub kernel: KernelDelta,
    pub gauges: Mutex<Gauges>,
    pub stats_before: Vec<StatSnap>,
    pub payload_before: PayloadSnapshot,
    pub stages: Vec<StageSummary>,
    pub kernel_spans: u64,
    pub kernel_spans_dropped: u64,
    /// Busiest filter stage's busy time, summed over jobs.
    pub bottleneck_ns: u64,
    pub source_wait_ns: u64,
    pub filter_in: u64,
    pub filter_out: u64,
    pub run_ms: BTreeMap<&'static str, f64>,
    /// Invocations and records delivered per discipline.
    pub by_discipline: BTreeMap<&'static str, (u64, u64)>,
    pub build_ns: u64,
    pub oracle_ms: f64,
    pub replay_ms: Vec<f64>,
    /// Throughput (or CPU per record) of untraced vs traced jobs, for the
    /// tracing overhead.
    pub untraced_rate: Vec<f64>,
    pub traced_rate: Vec<f64>,
    /// Representative batch values for the wire timing.
    pub wire_sample: Option<eden_core::Value>,
}

impl LayerAcc {
    pub fn begin() -> LayerAcc {
        probe::clear_traced();
        LayerAcc {
            stats_before: LAYERS.iter().map(|&l| probe::snap(l)).collect(),
            payload_before: eden_core::payload::snapshot(),
            ..LayerAcc::default()
        }
    }

    /// Add one discipline's invocations and delivered records.
    pub fn discipline(&mut self, label: &'static str, invocations: u64, records: u64) {
        let e = self.by_discipline.entry(label).or_default();
        e.0 += invocations;
        e.1 += records;
    }

    /// Fold in a traced kernel's own plane before it shuts down.
    pub fn kernel_done(&mut self, kernel: &Kernel) {
        self.kernel_snapshot(kernel.metrics_snapshot());
    }

    pub fn kernel_snapshot(&mut self, snap: KernelSnapshot) {
        self.kernel_spans += snap.spans_recorded;
        self.kernel_spans_dropped += snap.spans_dropped;
        self.kernel.steals += snap.sched.sched_steals;
        self.stages.extend(snap.stages);
    }

    fn stat(&self, layer: Layer) -> StatSnap {
        probe::snap(layer).since(
            self.stats_before[LAYERS
                .iter()
                .position(|&l| l == layer)
                .expect("known layer")],
        )
    }

    /// Turn the traced jobs into the per-layer metric table.
    pub fn finish(self, m: &mut Metrics) {
        let recs = self.records.max(1) as f64;
        let us = |ns: u64| ns as f64 / 1e3;
        let ms = |ns: u64| ns as f64 / 1e6;

        let filters = self.stat(Layer::FilterPush);
        m.put("filters.busy_ms", ms(filters.busy_ns));
        m.put(
            "filters.bottleneck_busy_frac",
            self.bottleneck_ns as f64 / self.wall_ns.max(1) as f64,
        );
        m.put("filters.oracle_ms", self.oracle_ms);
        // Workloads without a chain of their own count wrapped pushes.
        let (fin, fout) = if self.filter_in == 0 {
            (filters.calls, filters.calls)
        } else {
            (self.filter_in, self.filter_out)
        };
        m.put("filters.records_in", fin as f64);
        m.put("filters.records_out", fout as f64);

        m.put("transput.build_ms", ms(self.build_ns));
        for (k, v) in &self.run_ms {
            m.put(&format!("transput.run_ms.{k}"), *v);
        }
        let pulls = self.stat(Layer::SourcePull);
        m.put(
            "transput.records_per_pull",
            pulls.items as f64 / pulls.calls.max(1) as f64,
        );
        m.put("transput.source_wait_ms", ms(self.source_wait_ns));
        let mut rtt = probe::take_samples(Layer::Invoke);
        rtt.sort_unstable();
        m.put(
            "transput.write_rtt_us.p50",
            us(probe::percentile(&rtt, 0.50)),
        );
        m.put(
            "transput.write_rtt_us.p99",
            us(probe::percentile(&rtt, 0.99)),
        );

        let k = self.kernel;
        m.put("kernel.invocations_per_record", k.invocations as f64 / recs);
        for (d, (inv, n)) in &self.by_discipline {
            m.put(
                &format!("kernel.invocations_per_record.{d}"),
                *inv as f64 / (*n).max(1) as f64,
            );
        }
        m.put(
            "kernel.internal_messages_per_record",
            k.internal_messages as f64 / recs,
        );
        m.put(
            "kernel.route_cache_hit_ratio",
            k.route_hits as f64 / (k.route_hits + k.route_misses).max(1) as f64,
        );
        m.put("kernel.bytes_per_record", k.bytes as f64 / recs);
        m.put("kernel.retries", k.retries as f64);
        m.put("kernel.sheds", k.sheds as f64);
        m.put("kernel.fatal_failures", k.fatal as f64);
        let mut spawn = probe::take_samples(Layer::Spawn);
        spawn.sort_unstable();
        m.put("kernel.spawn_us.p50", us(probe::percentile(&spawn, 0.50)));
        m.put("kernel.reactivations", k.reactivations as f64);
        let mut act = probe::take_samples(Layer::Activate);
        act.sort_unstable();
        m.put("kernel.activate_us.p50", us(probe::percentile(&act, 0.50)));
        m.put("kernel.activate_us.p99", us(probe::percentile(&act, 0.99)));

        let g = self.gauges.lock().expect("gauges poisoned").clone();
        let n = g.samples.max(1) as f64;
        m.put("sched.steals", k.steals as f64);
        m.put("sched.workers_max", g.workers_max as f64);
        m.put("sched.queued_tasks_max", g.queued_tasks_max as f64);
        m.put("sched.idle_frac", g.idle_frac_sum / n);
        m.put("mailbox.queued_max", g.mailbox_max as f64);
        m.put("mailbox.queued_mean", g.mailbox_sum / n);

        let p = eden_core::payload::snapshot().since(&self.payload_before);
        m.put("payload.copies_per_record", p.payload_copies as f64 / recs);
        m.put(
            "payload.bytes_moved_per_record",
            p.payload_bytes_moved as f64 / recs,
        );
        m.put("payload.shares_per_record", p.payload_shares as f64 / recs);
        m.put("payload.cow_breaks", p.cow_breaks as f64);

        let (enc, dec) = self
            .wire_sample
            .as_ref()
            .map(wire_cost)
            .unwrap_or((0.0, 0.0));
        m.put("wire.encode_ns_per_kb", enc);
        m.put("wire.decode_ns_per_kb", dec);

        let stores = self.stat(Layer::StableStore);
        let mut st = probe::take_samples(Layer::StableStore);
        st.sort_unstable();
        m.put("stable.stores", stores.calls as f64);
        m.put("stable.store_us.p50", us(probe::percentile(&st, 0.50)));
        m.put("stable.store_us.p99", us(probe::percentile(&st, 0.99)));
        let loads = self.stat(Layer::StableLoad);
        let mut ld = probe::take_samples(Layer::StableLoad);
        ld.sort_unstable();
        m.put("stable.loads", loads.calls as f64);
        m.put("stable.load_us.p99", us(probe::percentile(&ld, 0.99)));
        let appends = self.stat(Layer::FsAppend);
        let syncs = self.stat(Layer::FsSync);
        m.put("stable.appends", appends.calls as f64);
        m.put("stable.syncs", syncs.calls as f64);
        m.put(
            "stable.stores_per_sync",
            if syncs.calls == 0 {
                0.0
            } else {
                stores.calls as f64 / syncs.calls as f64
            },
        );
        m.put("stable.log_bytes_per_record", appends.items as f64 / recs);
        m.put("stable.replay_ms", probe::median(&self.replay_ms));

        // The kernel keeps one histogram per (Eject, op); its merge is
        // private, so report the worst p99 among stages with enough samples.
        let worst = |f: fn(&StageSummary) -> u64| {
            self.stages
                .iter()
                .filter(|s| s.count >= 100)
                .map(f)
                .max()
                .unwrap_or(0) as f64
                / 1e3
        };
        m.put("obs.queue_us.p99", worst(|s| s.queue.p99_ns()));
        m.put("obs.sched_us.p99", worst(|s| s.sched.p99_ns()));
        m.put("obs.service_us.p99", worst(|s| s.service.p99_ns()));
        m.put("obs.spans_recorded", self.kernel_spans as f64);
        m.put("obs.spans_dropped", self.kernel_spans_dropped as f64);

        let un = probe::median(&self.untraced_rate);
        let tr = probe::median(&self.traced_rate);
        m.put(
            "trace.overhead_pct",
            if tr > 0.0 {
                (un / tr - 1.0) * 100.0
            } else {
                0.0
            },
        );
    }
}

/// Time `wire::encode` and `wire::decode_shared` on one batch value, in ns
/// per KiB of encoding (median of 15 rounds).
pub fn wire_cost(v: &eden_core::Value) -> (f64, f64) {
    let bytes = eden_core::wire::encode(v);
    let kib = bytes.len() as f64 / 1024.0;
    let shared = bytes::Bytes::from(bytes);
    let reps = ((64.0 / kib.max(0.01)) as usize).clamp(8, 20_000);
    let mut enc = Vec::new();
    let mut dec = Vec::new();
    for _ in 0..15 {
        let t = probe::now_ns();
        for _ in 0..reps {
            std::hint::black_box(eden_core::wire::encode(std::hint::black_box(v)));
        }
        enc.push((probe::now_ns() - t) as f64 / reps as f64 / kib);
        let t = probe::now_ns();
        for _ in 0..reps {
            std::hint::black_box(
                eden_core::wire::decode_shared(std::hint::black_box(&shared)).ok(),
            );
        }
        dec.push((probe::now_ns() - t) as f64 / reps as f64 / kib);
    }
    (probe::median(&enc), probe::median(&dec))
}

/// One closed-loop job: batch runs from fresh kernels to verified output,
/// one data phase per discipline.
#[derive(Debug, Default)]
pub struct Job {
    pub setup_ns: u64,
    /// Share of the machine's CPU stolen over the whole job, set-up
    /// included.
    pub steal: f64,
    pub phases: Vec<Phase>,
}

/// One discipline's data phase within a job.
#[derive(Debug, Default)]
pub struct Phase {
    pub label: &'static str,
    pub start: u64,
    pub end: u64,
    /// Share of the machine's CPU the hypervisor stole during the phase.
    pub steal: f64,
    pub cpu_s: f64,
    pub records: u64,
    pub latencies: probe::Hist,
    /// Kernel open to the first record at the final stage: once per cold
    /// start, or once per restart.
    pub recovery_ns: Vec<u64>,
}

impl Phase {
    fn ns_per_record(&self) -> f64 {
        (self.end - self.start) as f64 / self.records.max(1) as f64
    }
}

impl Job {
    fn records(&self) -> u64 {
        self.phases.iter().map(|p| p.records).sum()
    }

    fn rate(&self) -> f64 {
        let ns: u64 = self.phases.iter().map(|p| p.end - p.start).sum();
        self.records() as f64 / (ns as f64 / 1e9)
    }
}

/// Run closed-loop jobs for `ctx.seconds` of wall time (at least three),
/// after one unmeasured warm-up job. An untraced run scores the quiet
/// phases of each discipline: throughput is the rate of a job that runs
/// every discipline at its median quiet time per record. A traced run
/// alternates untraced and traced jobs and reports the per-layer metrics
/// of the traced ones.
pub fn run_closed(
    ctx: &Ctx,
    mut job: impl FnMut(Option<&mut LayerAcc>, &mut Outcome) -> Job,
    traced_extras: impl FnOnce(&mut LayerAcc),
) -> Outcome {
    let mut out = Outcome::default();
    // The warm-up lets thread pools, allocator arenas and lazy statics
    // settle before the clock starts.
    let mut warm = Outcome::default();
    job(None, &mut warm);
    if !warm.problems.is_empty() {
        out.problems = warm.problems;
        out.failed = warm.failed.max(1);
        out.attempted = warm.attempted.max(1);
        return out;
    }
    let mut acc = ctx.trace.then(LayerAcc::begin);
    let vm0 = vm_ticks();
    let start = probe::now_ns();
    let mut jobs: Vec<Job> = Vec::new();
    // Latency histograms are pooled as jobs finish, so memory stays flat
    // however many jobs a run fits.
    let (mut lat_all, mut lat_quiet) = (probe::Hist::default(), probe::Hist::default());
    let mut quiet_phases = 0;
    while (probe::now_ns() - start) < (ctx.seconds * 1e9) as u64 || jobs.len() < 3 {
        let traced = ctx.trace && jobs.len() % 2 == 1;
        probe::set_tracing(traced);
        let vm = vm_ticks();
        let mut j = match (traced, acc.as_mut()) {
            (true, Some(a)) => job(Some(a), &mut out),
            _ => job(None, &mut out),
        };
        j.steal = steal_since(vm);
        probe::set_tracing(false);
        let rate = j.rate();
        if let Some(a) = acc.as_mut() {
            if traced {
                a.records += j.records();
                a.build_ns += j.setup_ns;
                a.traced_rate.push(rate);
            } else {
                a.untraced_rate.push(rate);
            }
        }
        for p in &mut j.phases {
            let lat = std::mem::take(&mut p.latencies);
            lat_all.merge(&lat);
            if p.steal <= STEAL_LIMIT {
                lat_quiet.merge(&lat);
                quiet_phases += 1;
            }
        }
        jobs.push(j);
    }
    let measured = (probe::now_ns() - start) as f64 / 1e9;
    // Set-ups are too short to judge alone: score those of the quiet jobs.
    let (calm_jobs, setup_fallback) = quiet(&jobs.iter().map(|j| j.steal).collect::<Vec<_>>());
    let setup: Vec<f64> = calm_jobs
        .iter()
        .map(|&i| jobs[i].setup_ns as f64 / 1e9)
        .collect();
    let delivered: u64 = jobs.iter().map(Job::records).sum();
    let mut labels: Vec<&'static str> = jobs[0].phases.iter().map(|p| p.label).collect();
    labels.dedup();
    let mut ns_per_record = Vec::new();
    let mut ns_per_record_all = Vec::new();
    let mut fell_back = usize::from(setup_fallback);
    let mut recovery = Vec::new();
    let mut cpu = 0.0;
    let mut records = 0;
    let mut phases_scored = 0;
    for label in labels {
        let phases: Vec<&Phase> = jobs
            .iter()
            .flat_map(|j| j.phases.iter())
            .filter(|p| p.label == label)
            .collect();
        let shares: Vec<f64> = phases.iter().map(|p| p.steal).collect();
        let (scored, fallback) = quiet(&shares);
        fell_back += usize::from(fallback);
        phases_scored += scored.len();
        let times: Vec<f64> = scored.iter().map(|&i| phases[i].ns_per_record()).collect();
        ns_per_record.push(probe::median(&times));
        let all: Vec<f64> = phases.iter().map(|p| p.ns_per_record()).collect();
        ns_per_record_all.push(probe::median(&all));
        for &i in &scored {
            let p = phases[i];
            recovery.extend(p.recovery_ns.iter().map(|&n| n as f64 / 1e9));
            cpu += p.cpu_s;
            records += p.records;
        }
    }
    let rate_of = |ns: &[f64]| 1e9 * ns.len() as f64 / ns.iter().sum::<f64>();
    let tput = rate_of(&ns_per_record);
    let m = &mut out.e2e;
    m.put("setup_s", probe::median(&setup));
    m.put("throughput_rps", tput);
    // A closed loop has no schedule to be late against: every record
    // delivered correctly is good.
    let good = 1.0 - out.failed as f64 / out.attempted.max(1) as f64;
    m.put("goodput_rps", tput * good);
    m.put("cpu_us_per_record", cpu * 1e6 / records.max(1) as f64);
    m.put("recovery_s", probe::median(&recovery));
    // Latency is envelope-only: pooled over the quiet phases when a quarter
    // of them were quiet, else over all phases.
    let phases: usize = jobs.iter().map(|j| j.phases.len()).sum();
    let lat = if quiet_phases * 4 >= phases {
        lat_quiet
    } else {
        lat_all
    };
    latency_metrics(&mut out.envelope, &[lat]);
    let env = &mut out.envelope;
    env.put("jobs", jobs.len() as f64);
    env.put("phases_scored", phases_scored as f64);
    env.put("steal_fallbacks", fell_back as f64);
    env.put("throughput_rps_all_phases", rate_of(&ns_per_record_all));
    env.put("measured_s", measured);
    env.put("vm_steal_frac", steal_since(vm0));
    env.put("records_delivered", delivered as f64);
    env.put("recovery_samples", recovery.len() as f64);
    if let Some(mut a) = acc {
        traced_extras(&mut a);
        a.finish(&mut out.layers);
    }
    out
}

/// Median over 5 rounds of `f`, in ms.
pub fn oracle_ms(f: impl Fn()) -> f64 {
    let rounds: Vec<f64> = (0..5)
        .map(|_| {
            let t = probe::now_ns();
            f();
            (probe::now_ns() - t) as f64 / 1e6
        })
        .collect();
    probe::median(&rounds)
}

/// Latency percentiles over the scored intervals' samples, pooled. They
/// go to the envelope, not the bounded metrics: on a shared virtual
/// machine they move with the hypervisor's steal by more than any bound a
/// regression gate could use (see `perfbench/workloads.json`).
/// The closed loops time records only in traced jobs, so their untraced
/// runs state 0 samples and no percentiles.
pub fn latency_metrics(env: &mut Metrics, windows: &[probe::Hist]) {
    let mut all = probe::Hist::default();
    for w in windows {
        all.merge(w);
    }
    env.put("latency_samples", all.len() as f64);
    if all.len() > 0 {
        env.put("latency_p50_ms", all.quantile(0.50) as f64 / 1e6);
        env.put("latency_p99_ms", all.quantile(0.99) as f64 / 1e6);
    }
}
