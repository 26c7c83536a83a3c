//! Turning a run into metrics and counters.

use crate::tracer::{Layer, Tracer};
use crate::{median, peak_rss_mib, Metric, Outcome, Run, RunSpec, Samples};
use feam_svc::PredictService;
use std::collections::BTreeMap;

/// Every per-layer metric, with its unit, in report order. A traced run
/// of any workload reports all of them; a layer the workload bypasses
/// reads 0. Names are `<layer>.<call>.<stat>`; `/op` values are totals
/// over the traced ops divided by their number.
pub const LAYER_METRICS: [(&str, &str); 53] = [
    ("elf.parse.calls", "count/op"),
    ("elf.parse.bytes", "B/op"),
    ("elf.parse.us", "us/op"),
    ("cache.key.calls", "count/op"),
    ("cache.key.bytes", "B/op"),
    ("cache.key.us", "us/op"),
    ("cache.bdc.hits", "count/op"),
    ("cache.bdc.misses", "count/op"),
    ("cache.edc.hits", "count/op"),
    ("cache.edc.misses", "count/op"),
    ("cache.stack_test.hit_ratio", "ratio"),
    ("cache.rejected", "count"),
    ("bdc.describe.calls", "count/op"),
    ("bdc.describe.us", "us/op"),
    ("bdc.collect_libraries.us", "us/op"),
    ("bdc.libraries_per_op", "count/op"),
    ("edc.discover.calls", "count/op"),
    ("edc.discover.us", "us/op"),
    ("phases.source.us", "us/op"),
    ("phases.source.self_us", "us/op"),
    ("phases.target.us", "us/op"),
    ("phases.target.self_us", "us/op"),
    ("tec.evaluate.us", "us/op"),
    ("provenance.analyze.calls", "count/op"),
    ("provenance.analyze.us", "us/op"),
    ("agree.annotate.us", "us/op"),
    ("agree.inventory.us", "us/op"),
    ("agree.checks.us", "us/op"),
    ("agree.contested", "count/op"),
    ("svc.hit.ns_p50", "ns"),
    ("svc.hit.ns_p99", "ns"),
    ("svc.result_hit_ratio", "ratio"),
    ("svc.evaluations", "count/op"),
    ("svc.miss.us_p50", "us"),
    ("svc.miss.us_p99", "us"),
    ("svc.shed", "count"),
    ("svc.coalesced", "count"),
    ("plan.calls", "count/op"),
    ("plan.us", "us/op"),
    ("plan.pairs", "count/op"),
    ("plan.pairs_coalesced", "count/op"),
    ("fleet.route.ns_p50", "ns"),
    ("fleet.config_op.us", "us"),
    ("fleet.node_evaluations", "count/op"),
    ("fleet.failovers", "count"),
    ("fleet.hedges", "count"),
    ("fleet.degraded_routes", "count"),
    ("trace.op.coverage", "ratio"),
    ("trace.replay.coverage", "ratio"),
    ("trace.traced_ops_per_s", "ops/s"),
    ("trace.untraced_ops_per_s", "ops/s"),
    ("trace.overhead_pct", "%"),
    ("trace.ops", "count"),
];

/// Overwrite the value of the per-layer metric `name`.
pub fn set(metrics: &mut [Metric], name: &str, value: f64) {
    metrics
        .iter_mut()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
        .value = value;
}

/// The end-to-end metrics of an untraced run: throughput, median and
/// p99 latency per segment, each reported as its median over segments;
/// median set-up time; peak RSS.
pub fn end_to_end(run: &mut Run) -> Vec<Metric> {
    let (mut ops, mut p50, mut p99) = (Vec::new(), Vec::new(), Vec::new());
    for seg in &mut run.segments {
        // Completed ops per second of the client's busy time in the calls.
        ops.push(seg.per_second());
        p50.push(seg.percentile(0.50) as f64 / 1e3);
        p99.push(seg.percentile(0.99) as f64 / 1e3);
    }
    vec![
        Metric::new("ops_per_s", median(&ops), "ops/s"),
        Metric::new("latency_p50_us", median(&p50), "us"),
        Metric::new("latency_p99_us", median(&p99), "us"),
        Metric::new("setup_s", median(&run.setup_times), "s"),
        Metric::new("peak_rss_mb", peak_rss_mib(), "MiB"),
    ]
}

/// The span-derived per-layer metrics of a traced run; the workload sets
/// the ones read from the program's public state on top.
pub fn layer_metrics(tracer: &Tracer, traced_ns: &Samples, untraced_ns: &Samples) -> Vec<Metric> {
    let mut m: Vec<Metric> = LAYER_METRICS
        .iter()
        .map(|&(name, unit)| Metric::new(name, 0.0, unit))
        .collect();
    let ops = tracer.layer("op").calls.max(1) as f64;
    let per_op = |x: u64| x as f64 / ops;
    let us = |l: Layer| l.total_ns as f64 / 1e3 / ops;
    let self_us = |l: Layer| l.self_ns as f64 / 1e3 / ops;
    let coverage = |l: Layer| l.child_ns as f64 / l.total_ns.max(1) as f64;
    for span in ["elf.parse", "cache.key"] {
        set(
            &mut m,
            &format!("{span}.bytes"),
            per_op(tracer.layer(span).bytes),
        );
    }
    for span in [
        "elf.parse",
        "cache.key",
        "bdc.describe",
        "edc.discover",
        "provenance.analyze",
    ] {
        let l = tracer.layer(span);
        set(&mut m, &format!("{span}.calls"), per_op(l.calls));
        set(&mut m, &format!("{span}.us"), us(l));
    }
    for span in [
        "bdc.collect_libraries",
        "tec.evaluate",
        "agree.annotate",
        "agree.inventory",
        "agree.checks",
    ] {
        set(&mut m, &format!("{span}.us"), us(tracer.layer(span)));
    }
    for span in ["phases.source", "phases.target"] {
        let l = tracer.layer(span);
        set(&mut m, &format!("{span}.us"), us(l));
        set(&mut m, &format!("{span}.self_us"), self_us(l));
    }
    let plan = tracer.layer("plan");
    set(&mut m, "plan.calls", per_op(plan.calls));
    set(&mut m, "plan.us", us(plan));
    set(&mut m, "trace.op.coverage", coverage(tracer.layer("op")));
    set(
        &mut m,
        "trace.replay.coverage",
        coverage(tracer.layer("replay")),
    );
    let traced = traced_ns.per_second();
    let untraced = untraced_ns.per_second();
    set(&mut m, "trace.traced_ops_per_s", traced);
    set(&mut m, "trace.untraced_ops_per_s", untraced);
    set(
        &mut m,
        "trace.overhead_pct",
        100.0 * (untraced / traced.max(1e-9) - 1.0),
    );
    set(&mut m, "trace.ops", tracer.layer("op").calls as f64);
    m
}

/// Deterministic work counters of one service.
pub fn service_counters(svc: &PredictService, ops: u64) -> BTreeMap<String, u64> {
    let mut c = BTreeMap::new();
    c.insert("ops".to_string(), ops);
    c.insert("svc.evaluations".to_string(), svc.evaluations());
    if let Some(caches) = svc.caches() {
        for (layer, s) in [
            ("bdc", caches.bdc.stats()),
            ("edc", caches.edc.stats()),
            ("stack_test", caches.stack_tests.stats()),
        ] {
            c.insert(format!("cache.{layer}.hits"), s.hits);
            c.insert(format!("cache.{layer}.misses"), s.misses);
            c.insert(format!("cache.{layer}.rejected"), s.rejected);
        }
    }
    c
}

/// Hits, misses and rejects summed over the caches of `svcs`, as the
/// per-layer cache metrics want them.
pub fn cache_totals(svcs: &[&PredictService]) -> [(u64, u64, u64); 3] {
    let mut t = [(0, 0, 0); 3];
    for svc in svcs {
        let Some(c) = svc.caches() else { continue };
        for (slot, s) in t
            .iter_mut()
            .zip([c.bdc.stats(), c.edc.stats(), c.stack_tests.stats()])
        {
            slot.0 += s.hits;
            slot.1 += s.misses;
            slot.2 += s.rejected;
        }
    }
    t
}

/// Add the change in cache totals from `before` to `after` to `delta`.
pub fn add_cache_delta(
    delta: &mut [(u64, u64, u64); 3],
    before: [(u64, u64, u64); 3],
    after: [(u64, u64, u64); 3],
) {
    for ((d, b), a) in delta.iter_mut().zip(before).zip(after) {
        d.0 += a.0 - b.0;
        d.1 += a.1 - b.1;
        d.2 += a.2 - b.2;
    }
}

/// Set the cache-layer metrics from the cache totals' change over the
/// timed ops.
pub fn set_cache_metrics(m: &mut [Metric], delta: [(u64, u64, u64); 3], ops: u64) {
    let ops = ops.max(1) as f64;
    let [bdc, edc, stack] = delta;
    set(m, "cache.bdc.hits", bdc.0 as f64 / ops);
    set(m, "cache.bdc.misses", bdc.1 as f64 / ops);
    set(m, "cache.edc.hits", edc.0 as f64 / ops);
    set(m, "cache.edc.misses", edc.1 as f64 / ops);
    set(
        m,
        "cache.stack_test.hit_ratio",
        stack.0 as f64 / (stack.0 + stack.1).max(1) as f64,
    );
    set(m, "cache.rejected", (bdc.2 + edc.2 + stack.2) as f64);
}

/// Counts, failures and counters of a finished run.
pub fn outcome(run: &Run, counters: BTreeMap<String, u64>) -> Outcome {
    Outcome {
        attempted: run.attempted,
        failed: run.failed,
        wrong: run.wrong,
        counters,
        samples: run.segments.iter().map(Samples::count).collect(),
        ..Outcome::default()
    }
}

/// Write the traced run's exported spans next to the benchmark's
/// sources, as `traces/<workload>-seed<seed>.jsonl`.
pub fn write_trace(tracer: &Tracer, spec: &RunSpec) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{}-seed{}.jsonl", spec.workload.name(), spec.seed));
    if let Err(e) = tracer.write_jsonl(&path) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}
