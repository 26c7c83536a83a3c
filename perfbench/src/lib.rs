//! End-to-end and per-layer benchmark of FEAM serving.
//!
//! FEAM answers two questions without a trial run: "will binary B run at
//! site S?" (`PredictService::predict`) and "where should B go?"
//! (`plan::plan` plus the checker ensemble). This package drives those
//! answers through the public API from **one closed-loop client
//! thread** and measures what a caller sees, on three workloads:
//!
//! * [`hot`] — `predict-hot`: the result-cache fast path (runnable, not
//!   gated by `BENCHMARK.json`; see its module docs).
//! * [`plan`] — `plan-fresh`: a never-seen build per op, the miss path.
//! * [`churn`] — `fleet-churn`: replicated reads interleaved with
//!   configuration writes on a three-node fleet.
//!
//! Every run pins its environment ([`pin`]), checks every answer, and
//! snapshots deterministic work counters after a fixed number of ops
//! ([`Run::checkpoint`]), so a timing that moves can be traced to the
//! work that changed. `--trace 1` runs the same workload with spans from
//! this package's own files around every public call, plus a replay of
//! each miss through the phase functions ([`replay`]); its per-layer
//! numbers come from [`tracer`].

pub mod churn;
pub mod hot;
pub mod inputs;
pub mod pin;
pub mod plan;
pub mod replay;
pub mod report;
pub mod tracer;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The benchmark's workloads, by the name the command line uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PredictHot,
    PlanFresh,
    FleetChurn,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PredictHot,
        Workload::PlanFresh,
        Workload::FleetChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PredictHot => "predict-hot",
            Workload::PlanFresh => "plan-fresh",
            Workload::FleetChurn => "fleet-churn",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One invocation of the benchmark.
#[derive(Debug, Clone)]
pub struct RunSpec {
    pub workload: Workload,
    pub seed: u64,
    /// Seconds the timed loop runs for (it also runs until the tail has
    /// [`MIN_SAMPLES`] samples).
    pub seconds: f64,
    /// Run the traced variant: per-layer metrics instead of end-to-end.
    pub trace: bool,
}

/// Ops every timed segment completes at least, so its p99 has at least
/// ten samples beyond it.
pub const MIN_SAMPLES: usize = 1000;

/// Hard stop for a timed loop, well inside the 180 s a run may take.
const LOOP_CAP: Duration = Duration::from_secs(120);

/// Set-ups per run. Each set-up builds a fresh service (or fleet) and is
/// followed by a timed segment of `seconds / SEGMENTS` on it, with at
/// least [`MIN_SAMPLES`] ops. Every end-to-end metric is computed per
/// segment and reported as the median over segments, so one segment hit
/// by a burst of noise from the rest of a shared machine does not set
/// the result; `setup_s` is the median set-up time.
pub const SEGMENTS: usize = 3;

/// A reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// Everything one run produces.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops the timed loop attempted (failed ones included).
    pub attempted: u64,
    /// Ops whose public call returned `Err`.
    pub failed: u64,
    /// Answers that did not match their reference.
    pub wrong: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Deterministic work counters at the checkpoint.
    pub counters: BTreeMap<String, u64>,
    /// Counters that race by design (fleet replication), reported only.
    pub racy: BTreeMap<String, u64>,
    /// Timed ops per segment: the samples behind each segment's
    /// percentiles.
    pub samples: Vec<u64>,
}

/// Run one workload.
pub fn run(spec: &RunSpec) -> Outcome {
    match spec.workload {
        Workload::PredictHot => hot::run(spec),
        Workload::PlanFresh => plan::run(spec),
        Workload::FleetChurn => churn::run(spec),
    }
}

/// Bookkeeping shared by the three timed loops: set-up times, per-op
/// latencies, the attempt/failure tally, the segment stop condition and
/// the counter checkpoint.
pub struct Run {
    started: Instant,
    segment_started: Instant,
    seconds: f64,
    /// Ops after which [`Run::checkpoint`] fires.
    checkpoint_at: u64,
    checkpoint_done: bool,
    /// Seconds each set-up took.
    pub setup_times: Vec<f64>,
    /// Per-op latency (ns) of the ops timed in each segment so far.
    pub segments: Vec<Samples>,
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
}

impl Run {
    pub fn new(spec: &RunSpec, checkpoint_at: u64) -> Self {
        Run {
            started: Instant::now(),
            segment_started: Instant::now(),
            seconds: spec.seconds,
            checkpoint_at,
            checkpoint_done: false,
            setup_times: Vec::with_capacity(SEGMENTS),
            segments: Vec::with_capacity(SEGMENTS),
            attempted: 0,
            failed: 0,
            wrong: 0,
        }
    }

    /// Run one set-up, time it, and start the segment that measures it.
    pub fn setup<S>(&mut self, build: impl FnOnce() -> S) -> S {
        let t = Instant::now();
        let s = build();
        self.setup_times.push(t.elapsed().as_secs_f64());
        self.segments.push(Samples::default());
        self.segment_started = Instant::now();
        s
    }

    /// Keep looping in this segment? Until its share of the time is up and
    /// its tail is populated — and, in the first segment, until the
    /// counter checkpoint is taken — or the hard cap is hit.
    pub fn keep_going(&self) -> bool {
        if self.started.elapsed() >= LOOP_CAP {
            return false;
        }
        let share = self.seconds / SEGMENTS as f64;
        let samples = self.segments.last().map_or(0, Samples::count);
        self.segment_started.elapsed().as_secs_f64() < share
            || samples < MIN_SAMPLES as u64
            || !self.checkpoint_done
    }

    /// Record one timed op.
    pub fn record(&mut self, ns: u64, ok: bool) {
        self.attempted += 1;
        self.segments
            .last_mut()
            .expect("ops are recorded inside a segment")
            .push(ns);
        if !ok {
            self.failed += 1;
        }
    }

    /// True exactly once: right after the `checkpoint_at`-th op, which
    /// falls in the first segment. The caller snapshots its work counters
    /// then, so they cover the same op prefix on every run of a seed.
    pub fn checkpoint(&mut self) -> bool {
        if !self.checkpoint_done && self.attempted >= self.checkpoint_at {
            self.checkpoint_done = true;
            return true;
        }
        false
    }
}

/// Samples kept of one timed quantity at most: percentiles over a
/// uniform sample of a million ops are as good as over all of them, and
/// memory stays flat however many ops a fast machine completes.
const RESERVOIR: usize = 1 << 20;

/// One timed quantity: the count and sum of every sample, and a uniform
/// reservoir of at most [`RESERVOIR`] of them for percentiles.
#[derive(Debug, Default)]
pub struct Samples {
    kept: Vec<u64>,
    count: u64,
    sum: u64,
    sorted: bool,
}

impl Samples {
    pub fn push(&mut self, v: u64) {
        self.count += 1;
        self.sum += v;
        self.sorted = false;
        if self.kept.len() < RESERVOIR {
            self.kept.push(v);
        } else {
            // Reservoir sampling: sample n replaces a kept one with
            // probability RESERVOIR / n (a seedless hash of n decides).
            let j = (feam_sim::rng::mix(self.count) % self.count) as usize;
            if j < RESERVOIR {
                self.kept[j] = v;
            }
        }
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of every sample.
    pub fn mean(&self) -> f64 {
        self.sum as f64 / self.count.max(1) as f64
    }

    /// Samples per second of summed sample time, for samples in ns.
    pub fn per_second(&self) -> f64 {
        self.count as f64 / (self.sum.max(1) as f64 / 1e9)
    }

    /// Nearest-rank percentile over the kept samples (0 when empty).
    pub fn percentile(&mut self, q: f64) -> u64 {
        if !self.sorted {
            self.kept.sort_unstable();
            self.sorted = true;
        }
        percentile(&self.kept, q)
    }
}

/// Median of a non-empty slice (upper median for even lengths).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Nearest-rank percentile of an ascending slice (0 when empty).
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Process peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .unwrap_or(0.0)
}
