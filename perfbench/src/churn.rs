//! `fleet-churn`: replicated reads beside configuration writes.
//!
//! A [`Fleet`] of three one-worker nodes (more nodes than cores),
//! replication 2, with the corpus registered and every key read once in
//! set-up. The timed loop is a seeded Zipf stream of `predict_replicated`
//! reads, mixed basic and extended, interleaved at a fixed seeded rate
//! with writes: `reconfigure_site` (a fleet-wide EDC epoch bump) and
//! `update_binary` (a new build of a popular binary). Writes sit beside
//! reads, so a change that speeds reads up by caching more or
//! invalidating later shows its cost here; it is also the one workload
//! that runs fleet routing, the op log, replication and EDC rediscovery.
//!
//! **Write rate.** Each write turns the keys it touches back into misses:
//! a reconfigured site's results are dropped on every node, an updated
//! binary's keys point at new content. With a write every
//! [`WRITE_EVERY`] ops about 13% of reads miss, so the p99 of all ops
//! sits inside the miss mode (near the 92nd percentile of misses, around
//! a millisecond) rather than on the boundary between the microsecond
//! hits and the millisecond misses, where a small change in the miss
//! share would move it by orders of magnitude. Faster writes push the
//! p99 into the sparse top of the miss distribution; slower ones bring
//! it down towards the boundary.

use crate::inputs::{
    chance, fresh_build, home_site, names, pick, read_stream, stream_params, CorpusBinary, Testbed,
};
use crate::pin::{fleet_config, phase_config, service_config, FLEET_NODES, TESTBED_SEED};
use crate::replay::{same, Mirror};
use crate::tracer::Tracer;
use crate::{report, Outcome, Run, RunSpec, Samples, SEGMENTS};
use feam_core::phases::{run_source_phase, run_target_phase};
use feam_core::predict::{Prediction, PredictionMode};
use feam_obs::{NullSink, Recorder};
use feam_sim::compile::BinaryVariant;
use feam_sim::rng;
use feam_svc::bench::stream_request;
use feam_svc::{Fleet, FleetError, FleetResponse, PredictRequest, PredictService, SvcError};
use feam_workloads::sites::standard_sites;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// One op in this many is a write; writes alternate between
/// reconfiguring a site and pushing a new build of a popular binary.
/// Writes come at a fixed rate (at a seeded phase) rather than as coin
/// flips, so the miss share does not vary with the number of heads.
pub const WRITE_EVERY: u64 = 1000;

/// Share of reads compared against the single-node oracle.
const CHECK_SHARE: f64 = 1.0 / 256.0;

/// Ops after which the work counters are snapshotted.
const CHECKPOINT: u64 = 8_192;

/// Spans of this many ops are exported to the JSONL trace.
const EXPORT_OPS: usize = 512;

/// What a timed op returned. It lives for one loop iteration, on the
/// stack; boxing the read would add an allocation inside the timed call.
#[allow(clippy::large_enum_variant)]
enum Answer {
    Read(Result<FleetResponse, FleetError>),
    /// A write; whether it was accepted.
    Config(bool),
}

/// Op `i` of the timed loop.
#[derive(Debug, Clone)]
pub enum ChurnOp {
    Read(PredictRequest),
    Reconfigure(String),
    /// Push build `i` of the update stream under this corpus index.
    Update(usize),
}

/// The seeded op schedule: a write every [`WRITE_EVERY`] ops, otherwise
/// read `i` of the seeded Zipf stream over `names` and `sites`. Updates
/// rebuild the Zipf-popular binaries of `updates`.
pub fn op(seed: u64, i: u64, names: &[String], sites: &[String], updates: &[usize]) -> ChurnOp {
    let phase = rng::hash_parts(seed, &["write-phase"]) % WRITE_EVERY;
    let shifted = i + phase;
    if !shifted.is_multiple_of(WRITE_EVERY) {
        return ChurnOp::Read(stream_request(
            &stream_params(seed),
            names,
            sites,
            i as usize,
        ));
    }
    // Reconfigures visit the sites round-robin from a seeded start.
    let w = shifted / WRITE_EVERY;
    if w.is_multiple_of(2) {
        let start = pick(seed, "reconfigure", 0, sites.len());
        ChurnOp::Reconfigure(sites[(start + (w / 2) as usize) % sites.len()].clone())
    } else {
        ChurnOp::Update(updates[w as usize % updates.len()])
    }
}

/// The corpus indices update writes rebuild: a Zipf draw over the corpus,
/// so popular binaries are rebuilt most.
pub fn update_targets(seed: u64, names: &[String], sites: &[String]) -> Vec<usize> {
    let index: HashMap<&str, usize> = names
        .iter()
        .enumerate()
        .map(|(i, n)| (n.as_str(), i))
        .collect();
    read_stream(rng::hash_parts(seed, &["updates"]), names, sites, 1024)
        .into_iter()
        .map(|r| index[r.binary_ref.as_str()])
        .collect()
}

struct Setup {
    corpus: Vec<CorpusBinary>,
    sites: Vec<String>,
    fleet: Fleet,
    recorder: Recorder,
    /// (answering node, request) of every set-up read that missed.
    warm_misses: Vec<(usize, PredictRequest)>,
    updates: Vec<usize>,
}

fn node_index(resp: &FleetResponse) -> usize {
    resp.node
        .strip_prefix("node-")
        .and_then(|i| i.parse().ok())
        .expect("fleet nodes are named node-<i>")
}

fn setup(seed: u64) -> Setup {
    let tb = Testbed::build();
    let names = names(&tb.corpus);
    let sites = tb.site_names();
    let recorder = Recorder::with_sink(Box::new(NullSink));
    // Node 0 takes the testbed's own site models; the others build theirs.
    let testbed_sites = std::cell::Cell::new(Some(tb.sites));
    let mut fleet = Fleet::with_factory(fleet_config(recorder.clone()), FLEET_NODES, |_| {
        let sites = testbed_sites
            .take()
            .unwrap_or_else(|| standard_sites(TESTBED_SEED));
        PredictService::with_sites(service_config(true), sites)
    });
    for b in &tb.corpus {
        fleet
            .register_binary(&b.name, b.image.clone(), &sites[b.home])
            .expect("corpus names are unique");
    }
    fleet.start();
    let mut warm_misses = Vec::new();
    for mode in [PredictionMode::Basic, PredictionMode::Extended] {
        for name in &names {
            for site in &sites {
                let req = PredictRequest {
                    binary_ref: name.clone(),
                    target_site: site.clone(),
                    mode,
                    deadline: None,
                };
                let resp = fleet
                    .predict_replicated(&req)
                    .expect("set-up reads succeed");
                if !resp.response.from_result_cache {
                    warm_misses.push((node_index(&resp), req));
                }
            }
        }
    }
    Setup {
        updates: update_targets(seed, &names, &sites),
        corpus: tb.corpus,
        sites,
        fleet,
        recorder,
        warm_misses,
    }
}

/// The answer of a cache-off single node bound to `(image, home)`: the
/// phases such a node runs for `req`, over `svc`'s site models.
fn oracle(
    svc: &PredictService,
    image: &Arc<Vec<u8>>,
    home: &str,
    req: &PredictRequest,
) -> Prediction {
    let cfg = phase_config(None);
    let bundle = match req.mode {
        PredictionMode::Extended => svc
            .site(home)
            .and_then(|gee| run_source_phase(gee, image, &cfg).ok()),
        PredictionMode::Basic => None,
    };
    let target = svc.site(&req.target_site).expect("reads name served sites");
    run_target_phase(target, Some(image), bundle.as_ref(), &cfg).prediction
}

/// Sum of the nodes' evaluations.
fn node_evaluations(fleet: &Fleet) -> u64 {
    (0..fleet.len())
        .map(|i| fleet.node_service(i).evaluations())
        .sum()
}

#[derive(Default)]
struct Tally {
    reads: u64,
    misses: u64,
    reconfigures: u64,
    updates: u64,
    failovers: u64,
    hedges: u64,
    degraded_routes: u64,
    /// Reads refused with `Overloaded`.
    shed: u64,
}

impl Tally {
    fn counters(&self, fleet: &Fleet, ops: u64) -> BTreeMap<String, u64> {
        let mut c = BTreeMap::new();
        for i in 0..fleet.len() {
            for (k, v) in report::service_counters(fleet.node_service(i), ops) {
                if k != "ops" {
                    c.insert(format!("node{i}.{k}"), v);
                }
            }
        }
        c.insert("ops".into(), ops);
        c.insert("fleet.reads".into(), self.reads);
        c.insert("fleet.read_misses".into(), self.misses);
        c.insert("fleet.reconfigures".into(), self.reconfigures);
        c.insert("fleet.updates".into(), self.updates);
        c.insert("fleet.node_evaluations".into(), node_evaluations(fleet));
        c.insert("fleet.failovers".into(), self.failovers);
        c.insert("fleet.hedges".into(), self.hedges);
        c.insert("fleet.degraded_routes".into(), self.degraded_routes);
        c
    }
}

pub fn run(spec: &RunSpec) -> Outcome {
    let seed = spec.seed;
    let tracer = if spec.trace {
        Tracer::new(EXPORT_OPS)
    } else {
        Tracer::disabled()
    };
    let quiet = Tracer::disabled();
    let mut run = Run::new(spec, CHECKPOINT);
    let mut counters = Default::default();
    let mut tally = Tally::default();
    let (mut traced_ns, mut untraced_ns) = (Samples::default(), Samples::default());
    let (mut hit_ns, mut miss_ns) = (Samples::default(), Samples::default());
    let (mut route_ns, mut config_ns) = (Samples::default(), Samples::default());
    let mut cache_delta = [(0, 0, 0); 3];
    let (mut evaluations, mut libraries) = (0u64, 0u64);
    let mut racy: BTreeMap<String, u64> = BTreeMap::new();
    let mut i = 0u64;
    for _ in 0..SEGMENTS {
        let s = run.setup(|| setup(seed));
        let sites = &s.sites;
        let names = names(&s.corpus);
        let node0 = s.fleet.node_service(0);
        // What each name is bound to now: (image, home site).
        let mut bound: HashMap<String, (Arc<Vec<u8>>, String)> = s
            .corpus
            .iter()
            .map(|b| (b.name.clone(), (b.image.clone(), sites[b.home].clone())))
            .collect();
        let mut mirrors: Vec<Mirror> = (0..FLEET_NODES).map(|_| Mirror::default()).collect();
        if spec.trace {
            // Feed each node's mirror the set-up misses that node served.
            for (node, req) in &s.warm_misses {
                let (image, home) = &bound[&req.binary_ref];
                let extended = req.mode == PredictionMode::Extended;
                let targets = std::slice::from_ref(&req.target_site);
                mirrors[*node].replay(
                    &quiet,
                    s.fleet.node_service(*node),
                    image,
                    home,
                    targets,
                    extended,
                );
            }
            for m in &mut mirrors {
                m.libraries = 0;
            }
        }
        let node_svcs: Vec<&PredictService> = (0..s.fleet.len())
            .map(|n| s.fleet.node_service(n))
            .collect();
        let before = report::cache_totals(&node_svcs);
        let evaluations_before = node_evaluations(&s.fleet);
        while run.keep_going() {
            // Reads are drawn and builds compiled outside the timed window.
            let op = op(seed, i, &names, sites, &s.updates);
            let build = match &op {
                ChurnOp::Update(idx) => {
                    // Rebuilds are plain dynamic executables: a static
                    // build is never cached (its verdicts are unknowable),
                    // which would turn every read of a popular binary into
                    // a miss.
                    let base = &s.corpus[*idx];
                    let site = home_site(node0, base);
                    Some(fresh_build(
                        site,
                        base,
                        seed,
                        "update",
                        i,
                        BinaryVariant::Normal,
                    ))
                }
                _ => None,
            };
            let traced = tracer.enabled() && i % 2 == 1;
            let t = if traced { &tracer } else { &quiet };
            let t0 = Instant::now();
            let root = t.span("op");
            let answer = match &op {
                ChurnOp::Read(req) => {
                    let _s = t.span("fleet.predict_replicated");
                    Answer::Read(s.fleet.predict_replicated(req))
                }
                ChurnOp::Reconfigure(site) => {
                    let _s = t.span("fleet.reconfigure_site");
                    Answer::Config(s.fleet.reconfigure_site(site).is_ok())
                }
                ChurnOp::Update(idx) => {
                    let b = build.as_ref().expect("update ops carry a build");
                    let _s = t.span_bytes("fleet.update_binary", b.image.len() as u64);
                    s.fleet
                        .update_binary(&names[*idx], b.image.clone(), &b.home);
                    Answer::Config(true)
                }
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
            let ok = match (&op, answer) {
                (ChurnOp::Read(req), Answer::Read(Ok(resp))) => {
                    tally.reads += 1;
                    tally.failovers += resp.failovers as u64;
                    tally.hedges += resp.hedged as u64;
                    tally.degraded_routes += resp.degraded_route as u64;
                    route_ns.push(ns.saturating_sub(resp.response.latency_ns));
                    if resp.response.from_result_cache {
                        hit_ns.push(resp.response.latency_ns);
                    } else {
                        tally.misses += 1;
                        miss_ns.push(resp.response.latency_ns);
                        // Every miss is replayed, so each node's mirror sees
                        // all of its node's misses; only traced ops record.
                        if tracer.enabled() {
                            let node = node_index(&resp);
                            let (image, home) = &bound[&req.binary_ref];
                            let _r = t.span("replay");
                            let replayed = mirrors[node].replay(
                                t,
                                s.fleet.node_service(node),
                                image,
                                home,
                                std::slice::from_ref(&req.target_site),
                                req.mode == PredictionMode::Extended,
                            );
                            if !same(&replayed[0], &resp.response.prediction) {
                                run.wrong += 1;
                            }
                        }
                    }
                    if chance(seed, "check", i, CHECK_SHARE) {
                        let (image, home) = &bound[&req.binary_ref];
                        if !same(&oracle(node0, image, home, req), &resp.response.prediction) {
                            run.wrong += 1;
                        }
                    }
                    true
                }
                (ChurnOp::Read(_), answer) => {
                    tally.reads += 1;
                    if let Answer::Read(Err(FleetError::Svc(SvcError::Overloaded { .. }))) = answer
                    {
                        tally.shed += 1;
                    }
                    false
                }
                (ChurnOp::Reconfigure(site), answer) => {
                    tally.reconfigures += 1;
                    config_ns.push(ns);
                    for m in &mirrors {
                        m.reconfigure(site);
                    }
                    matches!(answer, Answer::Config(true))
                }
                (ChurnOp::Update(idx), _) => {
                    tally.updates += 1;
                    config_ns.push(ns);
                    let b = build.expect("update ops carry a build");
                    bound.insert(names[*idx].clone(), (b.image, b.home));
                    true
                }
            };
            drop(root);
            i += 1;
            run.record(ns, ok);
            if run.checkpoint() {
                counters = tally.counters(&s.fleet, run.attempted);
            }
        }
        report::add_cache_delta(&mut cache_delta, before, report::cache_totals(&node_svcs));
        evaluations += node_evaluations(&s.fleet) - evaluations_before;
        libraries += mirrors.iter().map(|m| m.libraries).sum::<u64>();
        let snap = s.recorder.snapshot();
        for k in ["fleet.replication.applied", "fleet.replication.dropped"] {
            *racy.entry(k.to_string()).or_default() += snap.counters.get(k).copied().unwrap_or(0);
        }
    }
    let mut out = report::outcome(&run, counters);
    racy.insert(
        "fleet.read_miss_share_ppm".into(),
        tally.misses * 1_000_000 / tally.reads.max(1),
    );
    out.racy = racy;
    if spec.trace {
        let per_op = |x: u64| x as f64 / run.attempted.max(1) as f64;
        let ops = tracer.layer("op").calls.max(1);
        let mut m = report::layer_metrics(&tracer, &traced_ns, &untraced_ns);
        report::set_cache_metrics(&mut m, cache_delta, run.attempted);
        report::set(
            &mut m,
            "bdc.libraries_per_op",
            libraries as f64 / ops as f64,
        );
        report::set(&mut m, "svc.hit.ns_p50", hit_ns.percentile(0.50) as f64);
        report::set(&mut m, "svc.hit.ns_p99", hit_ns.percentile(0.99) as f64);
        report::set(
            &mut m,
            "svc.result_hit_ratio",
            hit_ns.count() as f64 / tally.reads.max(1) as f64,
        );
        report::set(&mut m, "svc.evaluations", per_op(evaluations));
        report::set(
            &mut m,
            "svc.miss.us_p50",
            miss_ns.percentile(0.50) as f64 / 1e3,
        );
        report::set(
            &mut m,
            "svc.miss.us_p99",
            miss_ns.percentile(0.99) as f64 / 1e3,
        );
        report::set(&mut m, "svc.shed", tally.shed as f64);
        // Reads neither answered from a cache nor evaluated joined an
        // evaluation already in flight.
        let coalesced = tally.misses - evaluations.min(tally.misses);
        report::set(&mut m, "svc.coalesced", coalesced as f64);
        report::set(
            &mut m,
            "fleet.route.ns_p50",
            route_ns.percentile(0.50) as f64,
        );
        report::set(&mut m, "fleet.config_op.us", config_ns.mean() / 1e3);
        report::set(&mut m, "fleet.node_evaluations", per_op(evaluations));
        report::set(&mut m, "fleet.failovers", tally.failovers as f64);
        report::set(&mut m, "fleet.hedges", tally.hedges as f64);
        report::set(
            &mut m,
            "fleet.degraded_routes",
            tally.degraded_routes as f64,
        );
        out.metrics = m;
        report::write_trace(&tracer, spec);
    } else {
        out.metrics = report::end_to_end(&mut run);
    }
    out
}
