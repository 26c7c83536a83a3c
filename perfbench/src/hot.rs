//! `predict-hot`: the serving fast path schedulers hit for popular
//! binaries.
//!
//! One node with the whole §VI.A corpus registered. Set-up answers every
//! (binary, site, mode) key once; the timed loop then replays a seeded
//! Zipf stream of `PredictService::predict` calls over those warmed
//! keys. Every answer must come from the result cache, equal its warm-up
//! answer, and `evaluations()` must not move: the service layer does all
//! the work and the phases none, so an optimisation to the phases should
//! show no change here.
//!
//! `BENCHMARK.json` does not gate this workload: an op takes about a
//! microsecond, and on a shared two-core machine its figures drift by
//! 20–25% between runs of the same code.

use crate::inputs::{names, read_stream, Testbed};
use crate::pin::service_config;
use crate::replay::same;
use crate::tracer::Tracer;
use crate::{report, Outcome, Run, RunSpec, Samples, SEGMENTS};
use feam_core::predict::{Prediction, PredictionMode};
use feam_svc::{PredictRequest, PredictService, RegisteredBinary, SvcError};
use std::collections::HashMap;
use std::time::Instant;

/// Requests drawn before the timed loop and cycled through, so drawing a
/// request costs nothing inside it.
const STREAM_LEN: usize = 16_384;

/// Ops after which the work counters are snapshotted.
const CHECKPOINT: u64 = 32_768;

/// Spans of this many ops are exported to the JSONL trace.
const EXPORT_OPS: usize = 256;

/// (binary, site, extended) — one warmed key.
fn key(req: &PredictRequest) -> (String, String, bool) {
    (
        req.binary_ref.clone(),
        req.target_site.clone(),
        req.mode == PredictionMode::Extended,
    )
}

struct Setup {
    svc: PredictService,
    stream: Vec<PredictRequest>,
    /// Warm-up answers, one per warmed key.
    answers: Vec<Prediction>,
    /// Index into `answers` of each stream request's warm-up answer.
    answer_of: Vec<usize>,
    warm_failed: u64,
}

fn setup(seed: u64) -> Setup {
    let tb = Testbed::build();
    let sites = tb.site_names();
    let names = names(&tb.corpus);
    let corpus = tb.corpus;
    let mut svc = PredictService::with_sites(service_config(true), tb.sites);
    for b in &corpus {
        svc.register_binary(
            &b.name,
            RegisteredBinary::new(b.image.clone(), &sites[b.home]),
        )
        .expect("corpus names are unique");
    }
    svc.start();
    let mut answers = Vec::new();
    let mut index = HashMap::new();
    let mut warm_failed = 0;
    for mode in [PredictionMode::Basic, PredictionMode::Extended] {
        for name in &names {
            for site in &sites {
                let req = PredictRequest {
                    binary_ref: name.clone(),
                    target_site: site.clone(),
                    mode,
                    deadline: None,
                };
                match svc.predict(&req) {
                    Ok(resp) => {
                        index.insert(key(&req), answers.len());
                        answers.push(resp.prediction);
                    }
                    Err(_) => warm_failed += 1,
                }
            }
        }
    }
    let stream = read_stream(seed, &names, &sites, STREAM_LEN);
    let answer_of = stream
        .iter()
        .map(|r| index.get(&key(r)).copied().unwrap_or(usize::MAX))
        .collect();
    Setup {
        svc,
        stream,
        answers,
        answer_of,
        warm_failed,
    }
}

pub fn run(spec: &RunSpec) -> Outcome {
    let tracer = if spec.trace {
        Tracer::new(EXPORT_OPS)
    } else {
        Tracer::disabled()
    };
    let quiet = Tracer::disabled();
    let mut run = Run::new(spec, CHECKPOINT);
    let mut counters = Default::default();
    let (mut hits, mut shed, mut evaluations) = (0u64, 0u64, 0u64);
    // The service's own latency of each cache answer (ns): the svc layer.
    let mut svc_hit_ns = Samples::default();
    // A traced run alternates traced and untraced ops, so the tracing
    // overhead is measured on the same stream.
    let (mut traced_ns, mut untraced_ns) = (Samples::default(), Samples::default());
    let mut i = 0usize;
    for _ in 0..SEGMENTS {
        let s = run.setup(|| setup(spec.seed));
        // A warm-up key that failed has no reference answer: the run fails.
        run.wrong += s.warm_failed;
        let evaluations_warm = s.svc.evaluations();
        while run.keep_going() {
            let at = i % STREAM_LEN;
            let req = &s.stream[at];
            let traced = tracer.enabled() && i % 2 == 1;
            let t = if traced { &tracer } else { &quiet };
            i += 1;
            let t0 = Instant::now();
            let result = {
                let _op = t.span("op");
                let _c = t.span("svc.predict");
                s.svc.predict(req)
            };
            let ns = t0.elapsed().as_nanos() as u64;
            if tracer.enabled() {
                if traced {
                    &mut traced_ns
                } else {
                    &mut untraced_ns
                }
                .push(ns);
            }
            run.record(ns, result.is_ok());
            // The check compares fields in place: it allocates nothing and
            // serializes nothing, so it leaves the next call's caches be.
            match result {
                Ok(resp) => {
                    if resp.from_result_cache {
                        hits += 1;
                        svc_hit_ns.push(resp.latency_ns);
                    }
                    let warm = s.answers.get(s.answer_of[at]);
                    if !resp.from_result_cache || !warm.is_some_and(|w| same(&resp.prediction, w)) {
                        run.wrong += 1;
                    }
                }
                Err(SvcError::Overloaded { .. }) => shed += 1,
                Err(_) => {}
            }
            if run.checkpoint() {
                counters = report::service_counters(&s.svc, run.attempted);
            }
        }
        evaluations += s.svc.evaluations() - evaluations_warm;
    }
    if evaluations != 0 {
        // A warmed key was evaluated again: the fast path was left.
        run.wrong += 1;
    }
    let mut out = report::outcome(&run, counters);
    if spec.trace {
        let mut m = report::layer_metrics(&tracer, &traced_ns, &untraced_ns);
        report::set(&mut m, "svc.shed", shed as f64);
        report::set(&mut m, "svc.hit.ns_p50", svc_hit_ns.percentile(0.50) as f64);
        report::set(&mut m, "svc.hit.ns_p99", svc_hit_ns.percentile(0.99) as f64);
        let per_op = |x: u64| x as f64 / run.attempted.max(1) as f64;
        report::set(&mut m, "svc.result_hit_ratio", per_op(hits));
        report::set(&mut m, "svc.evaluations", per_op(evaluations));
        out.metrics = m;
        report::write_trace(&tracer, spec);
    } else {
        out.metrics = report::end_to_end(&mut run);
    }
    out
}
