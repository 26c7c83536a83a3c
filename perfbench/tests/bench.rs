//! The benchmark's own checks: inputs are a pure function of the seed,
//! fresh builds are new content, and the deterministic work counters
//! repeat across runs of one seed whatever the ambient environment says.

use feam_core::cache::BdcKey;
use feam_perfbench::inputs::{fresh_build, home_site, names, read_stream, Testbed};
use feam_perfbench::pin::service_config;
use feam_perfbench::{churn, plan, Workload};
use feam_svc::PredictService;
use std::collections::HashSet;
use std::process::Command;
use std::sync::Mutex;

/// Each test holds a testbed or a benchmark process of a gigabyte or
/// more; run them one at a time.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// The testbed's corpus plus a (never started) service owning its sites.
fn testbed() -> (Vec<feam_perfbench::inputs::CorpusBinary>, PredictService) {
    let tb = Testbed::build();
    let svc = PredictService::with_sites(service_config(true), tb.sites);
    (tb.corpus, svc)
}

#[test]
fn inputs_are_a_pure_function_of_the_seed() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let (corpus, svc) = testbed();
    let again = Testbed::build();
    assert_eq!(names(&corpus), names(&again.corpus));
    assert!(corpus
        .iter()
        .zip(&again.corpus)
        .all(|(a, b)| a.image == b.image));
    drop(again);

    let bins = names(&corpus);
    let sites = svc.site_names();
    let stream = |seed| -> Vec<String> {
        read_stream(seed, &bins, &sites, 512)
            .iter()
            .map(|r| format!("{}@{}:{:?}", r.binary_ref, r.target_site, r.mode))
            .collect()
    };
    assert_eq!(stream(7), stream(7));
    assert_ne!(stream(7), stream(8));

    let images = |seed| -> Vec<(String, std::sync::Arc<Vec<u8>>)> {
        plan::builds(&corpus, &svc, seed, 12)
            .into_iter()
            .map(|(name, b)| (name, b.image))
            .collect()
    };
    assert_eq!(images(7), images(7));
    assert_ne!(images(7), images(8));

    let schedule = |seed| -> Vec<String> {
        let updates = churn::update_targets(seed, &bins, &sites);
        (0..5000)
            .map(|i| format!("{:?}", churn::op(seed, i, &bins, &sites, &updates)))
            .collect()
    };
    assert_eq!(schedule(7), schedule(7));
    assert_ne!(schedule(7), schedule(8));
}

#[test]
fn fresh_builds_are_content_the_service_has_never_seen() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let (corpus, svc) = testbed();
    let mut seen: HashSet<BdcKey> = corpus.iter().map(|b| BdcKey::of(&b.image)).collect();
    assert_eq!(seen.len(), corpus.len(), "corpus images are distinct");
    let mut variants = HashSet::new();
    for seed in [1, 2] {
        for (name, b) in plan::builds(&corpus, &svc, seed, 96) {
            variants.insert(b.variant);
            assert!(
                seen.insert(BdcKey::of(&b.image)),
                "{name}: build repeats earlier content"
            );
        }
        for i in 0..24 {
            let base = &corpus[i * 11 % corpus.len()];
            let variant = feam_sim::compile::BinaryVariant::Normal;
            let b = fresh_build(
                home_site(&svc, base),
                base,
                seed,
                "update",
                i as u64,
                variant,
            );
            assert!(
                seen.insert(BdcKey::of(&b.image)),
                "update build {i} repeats content"
            );
        }
    }
    assert_eq!(
        variants.len(),
        3,
        "normal, stripped and static builds all occur"
    );
}

/// Run the benchmark binary and return its `# counters` line and its
/// final JSON line.
fn run_bench(workload: Workload, polluted: bool) -> (String, serde_json::Value) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_feam-perfbench"));
    cmd.args([
        "--workload",
        workload.name(),
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    for var in feam_perfbench::pin::AMBIENT_VARS {
        cmd.env_remove(var);
    }
    if polluted {
        cmd.env("FEAM_CACHE", "0")
            .env("FEAM_CHAOS_RATE", "0.2")
            .env("FEAM_CHAOS_SEED", "9");
    }
    let out = cmd.output().expect("benchmark runs");
    assert!(
        out.status.success(),
        "{}: {}",
        workload.name(),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let counters = stdout
        .lines()
        .find_map(|l| l.strip_prefix("# counters "))
        .expect("counters line")
        .to_string();
    let result =
        serde_json::from_str(stdout.lines().last().expect("result line")).expect("JSON result");
    (counters, result)
}

#[test]
fn counters_repeat_and_ignore_the_ambient_environment() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    for workload in Workload::ALL {
        let (clean, clean_result) = run_bench(workload, false);
        let (polluted, polluted_result) = run_bench(workload, true);
        for result in [&clean_result, &polluted_result] {
            assert_eq!(
                result["correct"].as_bool(),
                Some(true),
                "{}",
                workload.name()
            );
            assert_eq!(result["failed"].as_u64(), Some(0), "{}", workload.name());
        }
        assert!(
            clean.len() > 2,
            "{}: counters are reported",
            workload.name()
        );
        assert_eq!(clean, polluted, "{}: counters moved", workload.name());
    }
}
