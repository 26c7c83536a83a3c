//! `plan-fresh`: the miss path.
//!
//! One node. Each op is a user pushing a new build — content the service
//! has never seen — under one of a bounded pool of names
//! (`update_binary`), then doing what `feam plan --extended` does:
//! `plan::plan` over every site in extended mode, then
//! `annotate_with_ensemble`. The builds are compiled outside the timed
//! window from new build seeds; they link the libraries earlier builds
//! linked, as real rebuilds do. ELF parsing, content keying, BDC, TEC,
//! the agree checkers and plan fan-out do the work here; the result cache
//! does nothing.

use crate::inputs::{
    chance, fresh_build, home_site, mixed_variant, pick, CorpusBinary, FreshBuild, Testbed,
};
use crate::pin::{service_config, TESTBED_SEED};
use crate::replay::{self, same, Mirror};
use crate::tracer::Tracer;
use crate::{report, Outcome, Run, RunSpec, Samples, SEGMENTS};
use feam_core::predict::PredictionMode;
use feam_svc::plan::{plan, plan_sequential};
use feam_svc::{
    annotate_with_ensemble, Placement, PlanRequest, PredictService, RegisteredBinary,
    SiteSelection, SvcError,
};
use feam_workloads::sites::standard_sites;
use std::time::Instant;

/// Names users push builds under. Name `k` is always a rebuild of the
/// same corpus program; the programs are spread evenly over the corpus
/// (at a seeded offset), so every seed plans the same mix of program
/// sizes, languages and stacks.
const NAME_POOL: usize = 64;

/// Set-up pushes and plans one build under every pool name, so the
/// libraries each program links are described before the timed loop:
/// a timed op then pays for its new application bytes, not for being
/// the first build of its program.
const WARM_OPS: u64 = NAME_POOL as u64;

/// Build streams: set-up builds and timed builds.
const WARM: &str = "warm";
const TIMED: &str = "op";

/// Share of ops re-planned on the cache-disabled twin.
const CHECK_SHARE: f64 = 1.0 / 16.0;

/// Ops after which the work counters are snapshotted.
const CHECKPOINT: u64 = 64;

/// Spans of this many ops are exported to the JSONL trace.
const EXPORT_OPS: usize = 32;

/// The user's build pool: pool slot `k` is a rebuild of corpus binary
/// `base[k]` pushed under `name[k]`.
struct Pool {
    names: Vec<String>,
    base: Vec<usize>,
}

impl Pool {
    fn new(seed: u64, corpus_len: usize) -> Self {
        Pool {
            names: (0..NAME_POOL).map(|k| format!("user-{k:02}")).collect(),
            base: {
                let offset = pick(seed, "pool", 0, corpus_len);
                (0..NAME_POOL)
                    .map(|k| (offset + k * corpus_len / NAME_POOL) % corpus_len)
                    .collect()
            },
        }
    }

    /// The name and build of op `i` of build stream `stream`, compiled at
    /// the base binary's home site as `svc` serves it. Set-up builds go
    /// through the names in order; timed ones pick a seeded name.
    fn build(
        &self,
        corpus: &[CorpusBinary],
        svc: &PredictService,
        seed: u64,
        stream: &str,
        i: u64,
    ) -> (String, FreshBuild) {
        let k = match stream {
            WARM => i as usize % NAME_POOL,
            _ => pick(seed, "name", i, NAME_POOL),
        };
        let base = &corpus[self.base[k]];
        let variant = mixed_variant(seed, stream, i);
        let b = fresh_build(home_site(svc, base), base, seed, stream, i, variant);
        (self.names[k].clone(), b)
    }
}

/// Every fresh build a run of `seed` with `ops` timed ops pushes: set-up
/// builds first, then timed ones, with the name each is pushed under.
pub fn builds(
    corpus: &[CorpusBinary],
    svc: &PredictService,
    seed: u64,
    ops: u64,
) -> Vec<(String, FreshBuild)> {
    let pool = Pool::new(seed, corpus.len());
    (0..WARM_OPS)
        .map(|i| pool.build(corpus, svc, seed, WARM, i))
        .chain((0..ops).map(|i| pool.build(corpus, svc, seed, TIMED, i)))
        .collect()
}

fn request(name: &str) -> PlanRequest {
    PlanRequest {
        binary_ref: name.to_string(),
        sites: SiteSelection::All,
        mode: PredictionMode::Extended,
        k: None,
        deadline: None,
    }
}

/// One op: push the build, plan it everywhere, annotate the plan — with a
/// span around each public call (free when `t` is disabled).
fn push_and_plan(
    t: &Tracer,
    svc: &PredictService,
    name: &str,
    b: &FreshBuild,
) -> Result<Placement, SvcError> {
    let reg = {
        let _s = t.span_bytes("cache.key", b.image.len() as u64);
        RegisteredBinary::new(b.image.clone(), &b.home)
    };
    {
        let _s = t.span("svc.update_binary");
        svc.update_binary(name, reg);
    }
    let mut p = {
        let _s = t.span("plan");
        plan(svc, &request(name))?
    };
    let _s = t.span("agree.annotate");
    annotate_with_ensemble(svc, &mut p);
    Ok(p)
}

/// An op failed when the plan errored or any site came back errored.
fn ok(p: &Result<Placement, SvcError>) -> bool {
    matches!(p, Ok(p) if p.error_sites == 0)
}

struct Setup {
    corpus: Vec<CorpusBinary>,
    svc: PredictService,
    pool: Pool,
}

fn setup(seed: u64) -> Setup {
    let tb = Testbed::build();
    let site_names = tb.site_names();
    let mut svc = PredictService::with_sites(service_config(true), tb.sites);
    for b in &tb.corpus {
        svc.register_binary(
            &b.name,
            RegisteredBinary::new(b.image.clone(), &site_names[b.home]),
        )
        .expect("corpus names are unique");
    }
    svc.start();
    let pool = Pool::new(seed, tb.corpus.len());
    for i in 0..WARM_OPS {
        let (name, b) = pool.build(&tb.corpus, &svc, seed, WARM, i);
        push_and_plan(&Tracer::disabled(), &svc, &name, &b).expect("warm-up plans succeed");
    }
    Setup {
        corpus: tb.corpus,
        svc,
        pool,
    }
}

pub fn run(spec: &RunSpec) -> Outcome {
    let seed = spec.seed;
    let mut twin = PredictService::with_sites(service_config(false), standard_sites(TESTBED_SEED));
    twin.start();
    let tracer = if spec.trace {
        Tracer::new(EXPORT_OPS)
    } else {
        Tracer::disabled()
    };
    let quiet = Tracer::disabled();
    let mut run = Run::new(spec, CHECKPOINT);
    let mut counters = Default::default();
    let (mut traced_ns, mut untraced_ns) = (Samples::default(), Samples::default());
    let mut cache_delta = [(0, 0, 0); 3];
    let (mut pairs, mut pairs_hit, mut contested) = (0u64, 0u64, 0u64);
    let (mut evaluations, mut libraries) = (0u64, 0u64);
    let mut miss_us = Samples::default();
    let mut i = 0u64;
    for _ in 0..SEGMENTS {
        let s = run.setup(|| setup(seed));
        let sites = s.svc.site_names();
        // The mirror replays set-up and traced ops only: an untraced op
        // leaves nothing a later op reads, since every build is new and
        // set-up warmed each program's libraries and every site.
        let mut mirror = Mirror::default();
        if spec.trace {
            for w in 0..WARM_OPS {
                let (_, b) = s.pool.build(&s.corpus, &s.svc, seed, WARM, w);
                mirror.replay(&quiet, &s.svc, &b.image, &b.home, &sites, true);
            }
            mirror.libraries = 0;
        }
        let before = report::cache_totals(&[&s.svc]);
        let evaluations_before = s.svc.evaluations();
        while run.keep_going() {
            let (name, b) = s.pool.build(&s.corpus, &s.svc, seed, TIMED, i);
            let traced = tracer.enabled() && i % 2 == 1;
            let t = if traced { &tracer } else { &quiet };
            let t0 = Instant::now();
            let op = t.span("op");
            let result = push_and_plan(t, &s.svc, &name, &b);
            let ns = t0.elapsed().as_nanos() as u64;
            if let (true, Ok(p)) = (traced, &result) {
                let _r = tracer.span("replay");
                let mut preds = mirror.replay(&tracer, &s.svc, &b.image, &b.home, &sites, true);
                for (site, pred) in sites.iter().zip(preds.iter_mut()) {
                    let target = s.svc.site(site).expect("served site");
                    replay::ensemble(&tracer, target, &b.image, pred);
                }
                if !replay_matches(p, &sites, &preds) {
                    run.wrong += 1;
                }
            }
            drop(op);
            if tracer.enabled() {
                if traced {
                    &mut traced_ns
                } else {
                    &mut untraced_ns
                }
                .push(ns);
            }
            run.record(ns, ok(&result));
            if let Ok(p) = &result {
                pairs += p.candidates as u64;
                for sp in &p.sites {
                    if sp.from_result_cache {
                        pairs_hit += 1;
                    } else {
                        miss_us.push(sp.latency_us);
                    }
                    contested += sp.contested as u64;
                }
                if chance(seed, "check", i, CHECK_SHARE) && !twin_agrees(&twin, &name, &b, p) {
                    run.wrong += 1;
                }
            }
            i += 1;
            if run.checkpoint() {
                counters = report::service_counters(&s.svc, run.attempted);
                counters.insert("plan.pairs".into(), pairs);
                counters.insert("plan.pairs_from_result_cache".into(), pairs_hit);
                counters.insert("agree.contested".into(), contested);
            }
        }
        report::add_cache_delta(&mut cache_delta, before, report::cache_totals(&[&s.svc]));
        evaluations += s.svc.evaluations() - evaluations_before;
        libraries += mirror.libraries;
    }
    let mut out = report::outcome(&run, counters);
    if spec.trace {
        let ops = tracer.layer("op").calls;
        let mut m = report::layer_metrics(&tracer, &traced_ns, &untraced_ns);
        let per_op = |x: u64| x as f64 / run.attempted.max(1) as f64;
        report::set_cache_metrics(&mut m, cache_delta, run.attempted);
        report::set(
            &mut m,
            "bdc.libraries_per_op",
            libraries as f64 / ops.max(1) as f64,
        );
        report::set(&mut m, "agree.contested", per_op(contested));
        report::set(
            &mut m,
            "svc.result_hit_ratio",
            pairs_hit as f64 / pairs.max(1) as f64,
        );
        report::set(&mut m, "svc.evaluations", per_op(evaluations));
        report::set(&mut m, "svc.miss.us_p50", miss_us.percentile(0.50) as f64);
        report::set(&mut m, "svc.miss.us_p99", miss_us.percentile(0.99) as f64);
        // Pairs neither answered from the cache nor evaluated joined an
        // evaluation already in flight.
        let coalesced = pairs - pairs_hit - evaluations.min(pairs - pairs_hit);
        report::set(&mut m, "svc.coalesced", coalesced as f64);
        report::set(&mut m, "plan.pairs", per_op(pairs));
        report::set(&mut m, "plan.pairs_coalesced", per_op(coalesced));
        out.metrics = m;
        report::write_trace(&tracer, spec);
    } else {
        out.metrics = report::end_to_end(&mut run);
    }
    out
}

/// Do the replayed predictions (ensemble dissent attached) equal the
/// placement's, site for site, byte for byte?
fn replay_matches(
    p: &Placement,
    sites: &[String],
    preds: &[feam_core::predict::Prediction],
) -> bool {
    sites.iter().zip(preds).all(|(site, pred)| {
        p.sites
            .iter()
            .find(|sp| &sp.site == site)
            .and_then(|sp| sp.prediction.as_ref())
            .is_some_and(|got| same(got, pred))
    })
}

/// Re-plan the op on the cache-disabled twin, one blocking prediction at
/// a time, and compare rankings.
fn twin_agrees(twin: &PredictService, name: &str, b: &FreshBuild, p: &Placement) -> bool {
    twin.update_binary(name, RegisteredBinary::new(b.image.clone(), &b.home));
    let Ok(mut q) = plan_sequential(twin, &request(name)) else {
        return false;
    };
    annotate_with_ensemble(twin, &mut q);
    q.fingerprint() == p.fingerprint()
}
