//! Deterministic serving benchmark: the engine behind
//! `feam-eval --serve-bench`, and the load-driver primitives every serving
//! bench shares — the seeded stream ([`stream_request`], [`zipf_rank`]),
//! the wave driver with shed retry ([`drive`]), the percentile rule
//! ([`percentile`]) and the prediction [`fingerprint`].
//!
//! The workload models what a prediction service actually sees: a
//! Zipf-skewed stream — a few popular binaries dominate, the tail is
//! long — of (binary, site, mode) queries over the simulated five-site
//! testbed. Everything is seeded: the same `BenchParams::seed` produces
//! the same request stream, so the cached service and its cache-disabled
//! twin answer *identical* queries and their predictions can be compared
//! request-for-request ([`ServeBenchComparison::equivalent`]).
//!
//! The twin runs a deterministic prefix of the same stream (full-length
//! uncached runs would dominate CI wall clock); throughput is reported in
//! requests/second so the comparison is length-independent.

use crate::service::{Delivery, PredictRequest, PredictResponse, PredictService, SvcError};
use feam_core::predict::{Prediction, PredictionMode};
use feam_sim::rng;
use std::time::Instant;

/// Load-generator parameters. Everything that shapes the stream is here
/// and seeded — two runs with equal params issue identical requests.
#[derive(Debug, Clone)]
pub struct BenchParams {
    /// Master seed for the request stream.
    pub seed: u64,
    /// Requests issued against the cached service.
    pub requests: usize,
    /// Requests issued against the cache-disabled twin (a prefix of the
    /// same stream).
    pub uncached_requests: usize,
    /// Distinct binaries in the popularity distribution.
    pub binaries: usize,
    /// Zipf skew exponent (1.0 = classic Zipf; higher = more skew).
    pub zipf_s: f64,
    /// Fraction of requests asking for the extended prediction.
    pub extended_share: f64,
    /// Requests submitted before draining responses (bounds concurrent
    /// in-flight work; keep at or below the service's queue capacity).
    pub wave: usize,
}

impl BenchParams {
    /// The committed-baseline configuration (`BENCH_serve.json`).
    pub fn standard(seed: u64) -> Self {
        BenchParams {
            seed,
            requests: 4000,
            uncached_requests: 240,
            binaries: 24,
            zipf_s: 1.5,
            extended_share: 0.3,
            wave: 32,
        }
    }

    /// CI-sized run (`--serve-bench --quick`).
    pub fn quick(seed: u64) -> Self {
        BenchParams {
            seed,
            requests: 800,
            uncached_requests: 80,
            binaries: 8,
            zipf_s: 1.5,
            extended_share: 0.25,
            wave: 16,
        }
    }
}

/// One service run's results.
#[derive(Debug, Clone, serde::Serialize)]
pub struct ServeBenchReport {
    pub seed: u64,
    pub caching: bool,
    pub requests: u64,
    pub completed: u64,
    /// Retryable rejections observed (each shed request was retried until
    /// admitted, so `completed` still covers the whole stream).
    pub shed: u64,
    /// Requests answered straight from the result cache.
    pub result_cache_hits: u64,
    /// Requests adopted by an in-flight evaluation.
    pub coalesced: u64,
    pub wall_seconds: f64,
    pub throughput_rps: f64,
    pub p50_us: u64,
    pub p95_us: u64,
    pub p99_us: u64,
    /// Nanosecond-resolution percentiles of the same samples. Result-cache
    /// hits answer in well under a microsecond, where the `_us` fields
    /// truncate to 0 — these carry the real tail.
    pub p50_ns: u64,
    pub p95_ns: u64,
    pub p99_ns: u64,
    pub bdc_hit_rate: f64,
    pub edc_hit_rate: f64,
}

/// Cached run vs cache-disabled twin over the same seeded stream.
#[derive(Debug, Clone, serde::Serialize)]
pub struct ServeBenchComparison {
    pub cached: ServeBenchReport,
    pub uncached: ServeBenchReport,
    /// `cached.throughput_rps / uncached.throughput_rps`.
    pub speedup: f64,
    /// Predictions byte-identical, request-for-request, over the shared
    /// stream prefix.
    pub equivalent: bool,
}

/// One request of the seeded stream. Public so loops other than [`drive`]
/// (the fleet bench's closed-loop clients) can replay the exact workload
/// the serve bench measures.
pub fn stream_request(
    params: &BenchParams,
    names: &[String],
    sites: &[String],
    i: usize,
) -> PredictRequest {
    let idx = i.to_string();
    let n = names.len().min(params.binaries);
    let rank = zipf_rank(params.seed, &["bin", &idx], n, params.zipf_s);
    let binary_ref = names[rank].clone();
    let target_site = rng::pick(params.seed, &["site", &idx], sites).clone();
    let mode = if rng::chance(params.seed, &["mode", &idx], params.extended_share) {
        PredictionMode::Extended
    } else {
        PredictionMode::Basic
    };
    PredictRequest {
        binary_ref,
        target_site,
        mode,
        deadline: None,
    }
}

/// The Zipf popularity draw every seeded bench stream uses: a 0-based
/// rank among `n` items (at least one), drawn with weight `1/r^s` from
/// the hash of `(seed, parts)`. Streams pass `[tag, position]`; the tag
/// keeps them independent: `"bin"` for serve requests, `"plan"` for plans.
pub fn zipf_rank(seed: u64, parts: &[&str], n: usize, s: f64) -> usize {
    let n = n.max(1);
    let total: f64 = (1..=n).map(|r| 1.0 / (r as f64).powf(s)).sum();
    let mut u = rng::unit_f64(rng::hash_parts(seed, parts)) * total;
    for r in 1..=n {
        u -= 1.0 / (r as f64).powf(s);
        if u <= 0.0 {
            return r - 1;
        }
    }
    n - 1
}

/// Exact percentile from collected samples, the one rank rule every bench
/// reports: index `round((n - 1) * q)` of the sorted list; 0 when no
/// samples were collected.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Canonical per-request answer: the serialized prediction. Byte-equal
/// fingerprints mean byte-equal predictions.
pub fn fingerprint(req: &PredictRequest, prediction: &Prediction) -> String {
    format!(
        "{}@{}:{}",
        req.binary_ref,
        req.target_site,
        serde_json::to_string(prediction).expect("prediction serializes")
    )
}

/// The load driver every serving bench shares: issue stream positions
/// `0..requests` against `svc` in waves of `params.wave` submits, then
/// drain the wave. A shed submit ([`SvcError::Overloaded`]) yields and is
/// retried until admitted: a bench measures the cost of the whole stream,
/// and counts how often admission control pushed back. `on_answer`
/// sees each position once, in stream order, with its request and
/// response (`from_result_cache` marks answers that never queued).
/// Returns the number of shed submits.
pub fn drive(
    svc: &PredictService,
    params: &BenchParams,
    requests: usize,
    mut on_answer: impl FnMut(usize, &PredictRequest, PredictResponse),
) -> u64 {
    let names = svc.binary_names();
    let sites = svc.site_names();
    assert!(!names.is_empty(), "bench stream needs registered binaries");
    let mut shed = 0u64;
    let mut start = 0;
    while start < requests {
        let end = (start + params.wave.max(1)).min(requests);
        let mut wave = Vec::with_capacity(end - start);
        for i in start..end {
            let req = stream_request(params, &names, &sites, i);
            let delivery = loop {
                match svc.submit(&req) {
                    Ok(delivery) => break delivery,
                    Err(SvcError::Overloaded { .. }) => {
                        shed += 1;
                        std::thread::yield_now();
                    }
                    Err(e) => panic!("bench stream hit non-retryable error: {e}"),
                }
            };
            wave.push((req, delivery));
        }
        for (i, (req, delivery)) in (start..).zip(wave) {
            let resp = match delivery {
                Delivery::Ready(resp) => resp,
                Delivery::Pending(rx) => rx
                    .recv()
                    .expect("worker delivers every queued request")
                    .expect("deadline-free bench requests are never shed post-admission"),
            };
            on_answer(i, &req, resp);
        }
        start = end;
    }
    shed
}

struct RunOutput {
    report: ServeBenchReport,
    /// Per-request prediction fingerprints, in stream order.
    fingerprints: Vec<String>,
}

fn run_one(
    params: &BenchParams,
    svc: &PredictService,
    requests: usize,
    caching: bool,
) -> RunOutput {
    // Nanosecond samples; microsecond fields are derived at report time.
    let mut latencies: Vec<u64> = Vec::with_capacity(requests);
    let mut fingerprints = Vec::with_capacity(requests);
    let mut result_cache_hits = 0u64;
    let t0 = Instant::now();
    let shed = drive(svc, params, requests, |_, req, resp| {
        result_cache_hits += u64::from(resp.from_result_cache);
        latencies.push(resp.latency_ns);
        fingerprints.push(fingerprint(req, &resp.prediction));
    });
    let wall_seconds = t0.elapsed().as_secs_f64();
    let completed = latencies.len() as u64;
    latencies.sort_unstable();
    let (bdc_hit_rate, edc_hit_rate) = match svc.caches() {
        Some(c) => (c.bdc.stats().hit_rate(), c.edc.stats().hit_rate()),
        None => (0.0, 0.0),
    };
    // Queued = completed - result-hits - coalesced, and the worker pool ran
    // one evaluation per queued key.
    let coalesced = completed
        .saturating_sub(result_cache_hits)
        .saturating_sub(svc.evaluations());

    RunOutput {
        report: ServeBenchReport {
            seed: params.seed,
            caching,
            requests: requests as u64,
            completed,
            shed,
            result_cache_hits,
            coalesced,
            wall_seconds,
            throughput_rps: if wall_seconds > 0.0 {
                completed as f64 / wall_seconds
            } else {
                0.0
            },
            p50_us: percentile(&latencies, 0.50) / 1_000,
            p95_us: percentile(&latencies, 0.95) / 1_000,
            p99_us: percentile(&latencies, 0.99) / 1_000,
            p50_ns: percentile(&latencies, 0.50),
            p95_ns: percentile(&latencies, 0.95),
            p99_ns: percentile(&latencies, 0.99),
            bdc_hit_rate,
            edc_hit_rate,
        },
        fingerprints,
    }
}

/// Run the benchmark: the full stream against a caching service, a prefix
/// of the same stream against its cache-disabled twin, and compare.
///
/// `build` constructs a service (with its registry populated) for the
/// given caching flag; both twins must be built identically otherwise.
pub fn run_serve_bench<F>(params: &BenchParams, build: F) -> ServeBenchComparison
where
    F: Fn(bool) -> PredictService,
{
    let mut cached_svc = build(true);
    cached_svc.start();
    let cached = run_one(params, &cached_svc, params.requests, true);
    drop(cached_svc);

    let mut uncached_svc = build(false);
    uncached_svc.start();
    let uncached_n = params.uncached_requests.min(params.requests);
    let uncached = run_one(params, &uncached_svc, uncached_n, false);
    drop(uncached_svc);

    let shared = uncached.fingerprints.len().min(cached.fingerprints.len());
    let equivalent = cached.fingerprints[..shared] == uncached.fingerprints[..shared];
    let speedup = if uncached.report.throughput_rps > 0.0 {
        cached.report.throughput_rps / uncached.report.throughput_rps
    } else {
        0.0
    };
    ServeBenchComparison {
        cached: cached.report,
        uncached: uncached.report,
        speedup,
        equivalent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_deterministic_and_zipf_skewed() {
        let params = BenchParams::quick(11);
        let names: Vec<String> = (0..12).map(|i| format!("bin-{i:02}")).collect();
        let sites = vec!["ranger".to_string(), "india".to_string()];
        let a: Vec<String> = (0..200)
            .map(|i| stream_request(&params, &names, &sites, i).binary_ref)
            .collect();
        let b: Vec<String> = (0..200)
            .map(|i| stream_request(&params, &names, &sites, i).binary_ref)
            .collect();
        assert_eq!(a, b, "same seed, same stream");

        // Rank-1 must dominate any single tail binary by a wide margin.
        let count = |name: &str| a.iter().filter(|n| n.as_str() == name).count();
        assert!(count("bin-00") > 4 * count("bin-11"));
    }

    #[test]
    fn serve_stream_picks_are_pinned() {
        // The first 64 binary picks of the quick stream at seed 42, as
        // ranks into the name list. Any drift in the Zipf draw or its
        // `"bin"` hash tag changes every seeded serving bench.
        let params = BenchParams::quick(42);
        let names: Vec<String> = (0..8).map(|i| format!("bin-{i:02}")).collect();
        let sites = vec!["ranger".to_string(), "india".to_string()];
        let rank = |i| {
            let pick = stream_request(&params, &names, &sites, i).binary_ref;
            names.iter().position(|n| *n == pick).unwrap().to_string()
        };
        let picks: String = (0..64).map(rank).collect();
        assert_eq!(
            picks,
            "1031000601105020605623050140005100300300003700001001403507000220"
        );
    }

    #[test]
    fn driver_answers_every_position_once_in_stream_order_despite_shedding() {
        use crate::registry::demo_binary;
        use crate::service::ServiceConfig;
        // One worker, no caches and a one-slot queue: a wave of distinct
        // evaluations overruns admission, so submits are shed and retried.
        let mut svc = PredictService::new(ServiceConfig {
            workers: 1,
            queue_capacity: 1,
            caching: false,
            result_cache: false,
            fault_plan: Some(std::sync::Arc::new(feam_sim::faults::FaultPlan::none())),
            sites_seed: 3,
            ..ServiceConfig::default()
        });
        for i in 0..6 {
            svc.register_binary(&format!("bin-{i:02}"), demo_binary(3 + i as u64))
                .unwrap();
        }
        svc.start();
        let params = BenchParams {
            wave: 8,
            ..BenchParams::quick(3)
        };
        let requests = 40;
        let (names, sites) = (svc.binary_names(), svc.site_names());
        let mut seen = Vec::new();
        let shed = drive(&svc, &params, requests, |i, req, resp| {
            let expect = stream_request(&params, &names, &sites, i);
            assert_eq!(req.binary_ref, expect.binary_ref);
            assert_eq!(req.target_site, expect.target_site);
            assert_eq!(req.mode, expect.mode);
            assert_eq!(resp.binary_ref, req.binary_ref);
            assert_eq!(resp.target_site, req.target_site);
            seen.push(i);
        });
        assert_eq!(seen, (0..requests).collect::<Vec<_>>());
        assert!(shed > 0, "a one-slot queue must shed some submits");
    }

    #[test]
    fn report_schema_is_pinned() {
        // `BENCH_serve.json` and the eval renderer both consume this
        // serialization; field set and order are part of the contract.
        // In particular the ns-resolution percentiles must be present —
        // they carry the cached tail that `_us` fields truncate to 0.
        let report = ServeBenchReport {
            seed: 42,
            caching: true,
            requests: 10,
            completed: 10,
            shed: 0,
            result_cache_hits: 7,
            coalesced: 1,
            wall_seconds: 0.5,
            throughput_rps: 20.0,
            p50_us: 0,
            p95_us: 3,
            p99_us: 12,
            p50_ns: 640,
            p95_ns: 3_100,
            p99_ns: 12_400,
            bdc_hit_rate: 0.9,
            edc_hit_rate: 0.8,
        };
        let json = serde_json::to_string(&report).unwrap();
        let expected_order = [
            "seed",
            "caching",
            "requests",
            "completed",
            "shed",
            "result_cache_hits",
            "coalesced",
            "wall_seconds",
            "throughput_rps",
            "p50_us",
            "p95_us",
            "p99_us",
            "p50_ns",
            "p95_ns",
            "p99_ns",
            "bdc_hit_rate",
            "edc_hit_rate",
        ];
        let mut at = 0;
        for key in expected_order {
            let needle = format!("\"{key}\":");
            let pos = json[at..]
                .find(&needle)
                .unwrap_or_else(|| panic!("field {key} missing or out of order in {json}"));
            at += pos + needle.len();
        }
        // Sub-microsecond latencies survive in the ns lane even when the
        // µs lane floors to zero.
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v["p50_us"].as_u64(), Some(0));
        assert_eq!(v["p50_ns"].as_u64(), Some(640));
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        // (len-1) * q rounds half away from zero: index 50, value 51.
        assert_eq!(percentile(&s, 0.50), 51);
        assert_eq!(percentile(&s, 0.95), 95);
        assert_eq!(percentile(&s, 0.99), 99);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[7], 0.99), 7);
    }
}
