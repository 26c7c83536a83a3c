//! `feam-eval` — regenerate the paper's tables from the simulated testbed.
//!
//! ```text
//! feam-eval [--seed N] [--table 1|2|3|4] [--figure 1|2|3|4]
//!           [--stats] [--ablation] [--chaos RATE] [--json PATH] [--all]
//! feam-eval --serve-bench [--quick] [--seed N] [--json PATH]
//!           [--max-p99-us N] [--min-hit-rate F]
//! feam-eval --plan-bench [--quick] [--seed N] [--json PATH]
//!           [--max-p99-us N] [--min-speedup F]
//! feam-eval --obs-bench [--quick] [--seed N] [--json PATH]
//!           [--max-overhead F]
//! feam-eval --fleet-bench [--quick] [--seed N] [--json PATH]
//!           [--min-availability F] [--max-p99-inflation R]
//! feam-eval --provenance-bench [--quick] [--seed N] [--json PATH]
//! feam-eval --agreement [--quick] [--seed N] [--json PATH]
//! feam-eval --conform [--universes N] [--seed S] [--quick]
//!           [--universe-seed X] [--json PATH]
//! ```
//!
//! With no selection flags, prints everything (`--all`).
//! `--serve-bench` runs the `feam-svc` serving benchmark instead of the
//! table machinery; the threshold flags turn it into a CI gate (non-zero
//! exit when cached p99 latency or the result-cache hit rate regress).
//! `--plan-bench` benchmarks the all-sites placement planner against its
//! sequential oracle; it always gates on ranking identity and stability,
//! and optionally on p99 latency and minimum speedup.
//! `--obs-bench` measures telemetry overhead on the cached serving path
//! (serving recorder vs null-sink vs disabled) and gates on the
//! cached-path p99 regression.

use feam_eval::{
    ablation, confusion, per_site, render_ablation, render_confusion, render_figure,
    render_per_site, render_stats, render_table1, render_table2, render_table3, render_table4,
    stats, table1, table3, table4, Experiment,
};

#[derive(Default)]
struct Args {
    seed: u64,
    seeds: u32,
    tables: Vec<u32>,
    figures: Vec<u32>,
    want_stats: bool,
    want_ablation: bool,
    want_recompile: bool,
    want_mode_ablation: bool,
    want_telemetry: bool,
    chaos: Option<f64>,
    json: Option<String>,
    all: bool,
    serve_bench: bool,
    plan_bench: bool,
    obs_bench: bool,
    fleet_bench: bool,
    provenance_bench: bool,
    agreement: bool,
    conform: bool,
    universes: usize,
    universe_seed: Option<u64>,
    quick: bool,
    max_p99_us: Option<u64>,
    max_uncached_p99_us: Option<u64>,
    min_hit_rate: Option<f64>,
    min_speedup: Option<f64>,
    max_overhead: f64,
    min_availability: Option<f64>,
    max_p99_inflation: Option<f64>,
}

fn parse_args() -> Args {
    let mut args = Args {
        seed: 42,
        seeds: 1,
        universes: 100,
        max_overhead: 0.05,
        ..Args::default()
    };
    let mut iter = std::env::args().skip(1);
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--seed" => args.seed = value(&mut iter, |_| true, "--seed needs a number"),
            "--table" => args
                .tables
                .push(value(&mut iter, |_| true, "--table needs 1..4")),
            "--figure" => args
                .figures
                .push(value(&mut iter, |_| true, "--figure needs 1..4")),
            "--seeds" => args.seeds = value(&mut iter, |_| true, "--seeds needs a count"),
            "--chaos" => {
                args.chaos = Some(value(
                    &mut iter,
                    unit,
                    "--chaos needs a fault rate in [0, 1]",
                ))
            }
            "--serve-bench" => args.serve_bench = true,
            "--plan-bench" => args.plan_bench = true,
            "--obs-bench" => args.obs_bench = true,
            "--fleet-bench" => args.fleet_bench = true,
            "--provenance-bench" => args.provenance_bench = true,
            "--agreement" => args.agreement = true,
            "--conform" => args.conform = true,
            "--universes" => {
                args.universes = value(&mut iter, |n| *n > 0, "--universes needs a positive count")
            }
            "--universe-seed" => {
                args.universe_seed = Some(
                    iter.next()
                        .and_then(|v| parse_seed(&v))
                        .unwrap_or_else(|| die("--universe-seed needs a (hex or decimal) seed")),
                );
            }
            "--quick" => args.quick = true,
            "--max-p99-us" => {
                args.max_p99_us = Some(value(
                    &mut iter,
                    |_| true,
                    "--max-p99-us needs microseconds",
                ))
            }
            "--max-uncached-p99-us" => {
                args.max_uncached_p99_us = Some(value(
                    &mut iter,
                    |_| true,
                    "--max-uncached-p99-us needs microseconds",
                ))
            }
            "--min-hit-rate" => {
                args.min_hit_rate = Some(value(
                    &mut iter,
                    unit,
                    "--min-hit-rate needs a fraction in [0, 1]",
                ))
            }
            "--min-speedup" => {
                args.min_speedup = Some(value(
                    &mut iter,
                    |r| *r >= 0.0,
                    "--min-speedup needs a ratio",
                ))
            }
            "--min-availability" => {
                args.min_availability = Some(value(
                    &mut iter,
                    unit,
                    "--min-availability needs a fraction in [0, 1]",
                ))
            }
            "--max-p99-inflation" => {
                args.max_p99_inflation = Some(value(
                    &mut iter,
                    |r| *r >= 1.0,
                    "--max-p99-inflation needs a ratio >= 1",
                ))
            }
            "--max-overhead" => {
                args.max_overhead = value(
                    &mut iter,
                    |r| *r >= 0.0,
                    "--max-overhead needs a non-negative fraction",
                )
            }
            "--stats" => args.want_stats = true,
            "--ablation" => args.want_ablation = true,
            "--recompile" => args.want_recompile = true,
            "--mode-ablation" => args.want_mode_ablation = true,
            "--telemetry" => args.want_telemetry = true,
            "--json" => {
                args.json = Some(iter.next().unwrap_or_else(|| die("--json needs a path")));
            }
            "--all" => args.all = true,
            "--help" | "-h" => {
                println!(
                    "feam-eval [--seed N] [--seeds K] [--table 1|2|3|4] [--figure 1|2|3|4] \
                     [--stats] [--ablation] [--recompile] [--telemetry] [--chaos RATE] \
                     [--json PATH] [--all]\n\
                     feam-eval --serve-bench [--quick] [--seed N] [--json PATH] \
                     [--max-p99-us N] [--max-uncached-p99-us N] [--min-hit-rate F]\n\
                     feam-eval --plan-bench [--quick] [--seed N] [--json PATH] \
                     [--max-p99-us N] [--min-speedup F]\n\
                     feam-eval --obs-bench [--quick] [--seed N] [--json PATH] \
                     [--max-overhead F]\n\
                     feam-eval --fleet-bench [--quick] [--seed N] [--json PATH] \
                     [--min-availability F] [--max-p99-inflation R]\n\
                     feam-eval --provenance-bench [--quick] [--seed N] [--json PATH]\n\
                     feam-eval --agreement [--quick] [--seed N] [--json PATH]\n\
                     feam-eval --conform [--universes N] [--seed S] [--quick] \
                     [--universe-seed X] [--json PATH]"
                );
                std::process::exit(0);
            }
            other => die(&format!("unknown argument {other}")),
        }
    }
    if args.tables.is_empty()
        && args.figures.is_empty()
        && !args.want_stats
        && !args.want_ablation
        && !args.want_recompile
        && !args.want_mode_ablation
        && !args.want_telemetry
        && !args.serve_bench
        && !args.plan_bench
        && !args.obs_bench
        && !args.fleet_bench
        && !args.provenance_bench
        && !args.agreement
        && !args.conform
        && args.chaos.is_none()
    {
        args.all = true;
    }
    args
}

/// The next argument parsed as a `T` that passes `ok`; exits with `msg`
/// otherwise.
fn value<T: std::str::FromStr>(
    iter: &mut impl Iterator<Item = String>,
    ok: impl Fn(&T) -> bool,
    msg: &str,
) -> T {
    iter.next()
        .and_then(|v| v.parse().ok())
        .filter(ok)
        .unwrap_or_else(|| die(msg))
}

/// A fraction in `[0, 1]`.
fn unit(r: &f64) -> bool {
    (0.0..=1.0).contains(r)
}

fn die(msg: &str) -> ! {
    eprintln!("feam-eval: {msg}");
    std::process::exit(2);
}

/// Parse a seed in decimal or `0x`-prefixed hex (the form the
/// conformance shrinker prints in its replay line).
fn parse_seed(v: &str) -> Option<u64> {
    match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => v.parse().ok(),
    }
}

/// `--conform`: run the differential conformance sweep (or replay one
/// universe with `--universe-seed`). Exits non-zero on any divergence,
/// with the minimized repro seed in the log. Exits the process.
fn conform_main(args: &Args) -> ! {
    let cfg = feam_conform::ConformConfig {
        universes: args.universes,
        seed: args.seed,
        quick: args.quick,
        ..feam_conform::ConformConfig::default()
    };
    let report = match args.universe_seed {
        Some(useed) => {
            eprintln!("conformance replay of universe 0x{useed:x} ...");
            feam_conform::driver::check_seed(useed, &cfg)
        }
        None => {
            eprintln!(
                "conformance sweep: {} universes from seed {} ({}) ...",
                cfg.universes,
                cfg.seed,
                if cfg.quick { "quick 2x2" } else { "3x3" }
            );
            feam_conform::run(&cfg)
        }
    };
    println!(
        "checked {} universes, {} (binary, site) pairs, {} pipeline runs: {}",
        report.universes,
        report.pairs,
        report.runs,
        if report.ok() {
            "zero divergences".to_string()
        } else {
            format!("{} DIVERGENCES", report.divergences.len())
        }
    );
    for d in &report.divergences {
        println!("  {}", d.render());
    }
    if let Some(shrunk) = &report.shrunk {
        print!("{}", shrunk.render());
    }
    if let Some(path) = &args.json {
        write_json(path, &report.to_json());
    }
    std::process::exit(if report.ok() { 0 } else { 1 });
}

/// Write a JSON report to `path` and say so on stderr.
fn write_json(path: &str, value: &serde_json::Value) {
    std::fs::write(
        path,
        serde_json::to_string_pretty(value).expect("serialize"),
    )
    .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
    eprintln!("wrote {path}");
}

/// The one report/gate path of every bench and study mode: announce the
/// run, run it, print `render`'s report, write `--json` if asked, print
/// each failed gate as a `FAIL:` line, and exit 1 if any failed. `gates`
/// returns one entry per gate, `Some(reason)` when it failed. Exits the
/// process.
fn run_bench<R: serde::Serialize>(
    args: &Args,
    title: &str,
    run: impl FnOnce(u64, bool) -> R,
    render: fn(&R) -> String,
    gates: impl FnOnce(&R) -> Vec<Option<String>>,
) -> ! {
    let mode = if args.quick { "quick" } else { "standard" };
    eprintln!("{title} (seed {}, {mode}) ...", args.seed);
    let report = run(args.seed, args.quick);
    print!("{}", render(&report));
    if let Some(path) = &args.json {
        write_json(path, &serde_json::to_value(&report).expect("serialize"));
    }
    let failures: Vec<String> = gates(&report).into_iter().flatten().collect();
    for failure in &failures {
        eprintln!("FAIL: {failure}");
    }
    std::process::exit(i32::from(!failures.is_empty()));
}

/// `--serve-bench`: gates on cached/uncached p99 and the result-cache hit
/// rate when asked, and always on cached-vs-uncached equivalence.
fn serve_bench_main(args: &Args) -> ! {
    run_bench(
        args,
        "serving benchmark",
        feam_eval::serve_bench,
        feam_eval::render_serve,
        |cmp| {
            let (cached, uncached) = (&cmp.cached, &cmp.uncached);
            let hit_rate = cached.result_cache_hits as f64 / cached.completed.max(1) as f64;
            vec![
                args.max_p99_us
                    .filter(|&max| cached.p99_us > max)
                    .map(|max| format!("cached p99 {}us exceeds threshold {max}us", cached.p99_us)),
                args.max_uncached_p99_us
                    .filter(|&max| uncached.p99_us > max)
                    .map(|max| {
                        format!(
                            "uncached p99 {}us exceeds threshold {max}us",
                            uncached.p99_us
                        )
                    }),
                args.min_hit_rate.filter(|&min| hit_rate < min).map(|min| {
                    format!("result-cache hit rate {hit_rate:.3} below threshold {min:.3}")
                }),
                (!cmp.equivalent).then(|| "cached and uncached predictions diverged".into()),
            ]
        },
    )
}

/// `--obs-bench`: measure telemetry overhead on the cached serving path
/// and gate on it.
fn obs_bench_main(args: &Args) -> ! {
    run_bench(
        args,
        "telemetry overhead benchmark",
        |seed, quick| feam_eval::obs_bench(seed, quick, args.max_overhead),
        feam_eval::render_obs_bench,
        |r| {
            vec![(!r.pass).then(|| {
                format!(
                    "serving-recorder cached-path p99 {}us exceeds budget \
                     (null-sink p99 {}us x {:.2} + {}us slack)",
                    r.full.hit_p99_us,
                    r.null_sink.hit_p99_us,
                    1.0 + r.max_overhead,
                    r.slack_us
                )
            })]
        },
    )
}

/// `--fleet-bench`: the sharded-fleet benchmark — scale-out curve plus
/// the mid-stream node-kill drill. Always gates on fleet-vs-oracle
/// equivalence; `--min-availability` and `--max-p99-inflation` add CI
/// thresholds on the brownout.
fn fleet_bench_main(args: &Args) -> ! {
    run_bench(
        args,
        "fleet benchmark",
        feam_eval::fleet_bench,
        feam_eval::render_fleet,
        |r| {
            let d = &r.kill_drill;
            vec![
                (!d.equivalent).then(|| {
                    format!(
                        "{} fleet answers diverged from the single-node oracle",
                        d.wrong_answers
                    )
                }),
                args.min_availability
                    .filter(|&min| d.availability < min)
                    .map(|min| {
                        format!(
                            "availability {:.4} below threshold {min:.4}",
                            d.availability
                        )
                    }),
                args.max_p99_inflation
                    .filter(|&max| d.p99_inflation_during > max)
                    .map(|max| {
                        format!(
                            "p99 inflated {:.2}x during the outage (threshold {max:.2}x)",
                            d.p99_inflation_during
                        )
                    }),
            ]
        },
    )
}

/// `--plan-bench`: the placement-planning benchmark. Always gates on
/// ranking identity to the sequential oracle and on rank stability;
/// `--max-p99-us` and `--min-speedup` add CI thresholds.
fn plan_bench_main(args: &Args) -> ! {
    run_bench(
        args,
        "placement planning benchmark",
        feam_eval::plan_bench,
        feam_eval::render_plan,
        |r| {
            vec![
                (!r.rank_matches_oracle)
                    .then(|| "parallel ranking diverged from the sequential oracle".into()),
                (!r.rank_stable)
                    .then(|| "repeated runs produced different rankings (same seed)".into()),
                args.max_p99_us
                    .filter(|&max| r.p99_us > max)
                    .map(|max| format!("per-plan p99 {}us exceeds threshold {max}us", r.p99_us)),
                args.min_speedup
                    .filter(|&min| r.speedup < min)
                    .map(|min| format!("speedup {:.2}x below threshold {min:.2}x", r.speedup)),
            ]
        },
    )
}

/// `--agreement`: the tool-agreement study. Gates on ensemble accuracy
/// (>= FEAM alone) and zero FEAM divergences.
fn agreement_main(args: &Args) -> ! {
    run_bench(
        args,
        "tool agreement study",
        feam_eval::agreement_study,
        feam_eval::render_agreement,
        |r| {
            vec![(!r.pass).then(|| {
                format!(
                    "ensemble accuracy {:.3} vs feam alone {:.3}, {} feam divergences",
                    r.ensemble_accuracy, r.feam_accuracy, r.feam_divergences
                )
            })]
        },
    )
}

/// `--provenance-bench`: grade the fallback evidence tier on the hostile
/// corpus. Gates on compiler-family accuracy and zero confidence
/// inversions.
fn provenance_bench_main(args: &Args) -> ! {
    run_bench(
        args,
        "provenance benchmark",
        feam_eval::provenance_bench,
        feam_eval::render_provenance,
        |r| {
            vec![(!r.pass).then(|| {
                format!(
                    "family accuracy {:.3} (floor {:.3}), {} claim-level and {} \
                     prediction-level confidence inversions",
                    r.family_accuracy,
                    r.min_family_accuracy,
                    r.claim_inversions,
                    r.prediction_inversions
                )
            })]
        },
    )
}

fn main() {
    let args = parse_args();
    if args.serve_bench {
        serve_bench_main(&args);
    }
    if args.provenance_bench {
        provenance_bench_main(&args);
    }
    if args.agreement {
        agreement_main(&args);
    }
    if args.plan_bench {
        plan_bench_main(&args);
    }
    if args.obs_bench {
        obs_bench_main(&args);
    }
    if args.fleet_bench {
        fleet_bench_main(&args);
    }
    if args.conform {
        conform_main(&args);
    }
    // Figures need no experiment run.
    for f in &args.figures {
        print!("{}", render_figure(*f));
        println!();
    }
    let needs_run = args.all
        || !args.tables.is_empty()
        || args.want_stats
        || args.want_ablation
        || args.want_recompile
        || args.want_mode_ablation
        || args.want_telemetry
        || args.chaos.is_some()
        || args.json.is_some();
    if !needs_run {
        return;
    }

    eprintln!(
        "building five-site testbed and corpus (seed {}) ...",
        args.seed
    );
    let t0 = std::time::Instant::now();
    let mut exp = Experiment::new(args.seed);
    if args.want_telemetry {
        // Shared across worker threads: counters and span stats aggregate
        // over the whole sweep (events are discarded, only metrics kept).
        exp.config.recorder = feam_obs::Recorder::with_sink(Box::new(feam_obs::NullSink));
    }
    let exp = exp;
    eprintln!(
        "corpus: {} NAS + {} SPEC binaries; running migration sweep on {} threads ...",
        exp.corpus.count(feam_workloads::Suite::Npb),
        exp.corpus.count(feam_workloads::Suite::SpecMpi2007),
        exp.threads
    );
    let results = exp.run();
    eprintln!(
        "sweep done in {:.1}s: {} migrations, {} excluded (no matching MPI)",
        t0.elapsed().as_secs_f64(),
        results.records.len(),
        results.excluded.len()
    );

    let show_table = |n: u32| args.all || args.tables.contains(&n);
    if show_table(1) {
        print!("{}", render_table1(&table1(&exp)));
        println!();
    }
    if show_table(2) {
        print!("{}", render_table2(&exp));
        println!();
    }
    if show_table(3) {
        print!("{}", render_table3(&table3(&results)));
        println!();
    }
    if show_table(4) {
        print!("{}", render_table4(&table4(&results)));
        println!();
    }
    if args.all || args.want_stats {
        print!("{}", render_stats(&stats(&results)));
        println!();
        print!("{}", render_per_site(&per_site(&results)));
        println!();
        let (b, e) = confusion(&results);
        print!("{}", render_confusion(&b, &e));
        println!();
    }
    if args.all || args.want_ablation {
        print!("{}", render_ablation(&ablation(&results)));
        println!();
    }
    if args.want_mode_ablation {
        // Not in --all: reruns the whole sweep three more times.
        print!(
            "{}",
            feam_eval::render_mode_ablation(&feam_eval::mode_ablation(args.seed))
        );
        println!();
    }
    if args.all {
        print!("{}", feam_eval::render_effort(&feam_eval::effort(&results)));
        println!();
    }
    if args.want_telemetry {
        let snapshot = exp.config.recorder.snapshot();
        print!(
            "{}",
            feam_eval::render_telemetry(&feam_eval::telemetry_summary(&results, &snapshot))
        );
        println!();
    }
    let chaos_sweep = args.chaos.map(|rate| {
        eprintln!("chaos sweep at rates up to {rate} (reruns the sweep per rate) ...");
        feam_eval::chaos_sweep(args.seed, rate)
    });
    if let Some(sweep) = &chaos_sweep {
        print!("{}", feam_eval::render_chaos(sweep));
        println!();
    }
    if args.all || args.want_recompile {
        print!(
            "{}",
            feam_eval::render_recompile(&feam_eval::recompile_comparison(&exp, &results))
        );
        println!();
    }
    if args.all {
        for f in 1..=4 {
            if !args.figures.contains(&f) {
                print!("{}", render_figure(f));
                println!();
            }
        }
    }
    if args.seeds > 1 {
        // Robustness sweep: the paper-shape claims must hold across seeds,
        // not just for the reference one.
        println!("ROBUSTNESS SWEEP over {} seeds", args.seeds);
        let mut rows = Vec::new();
        for k in 0..args.seeds {
            let seed = args.seed + k as u64;
            let e = Experiment::new(seed);
            let r = e.run();
            let t3 = table3(&r);
            let t4 = table4(&r);
            println!(
                "seed {seed}: basic {:.0}/{:.0} ext {:.0}/{:.0} before {:.0}/{:.0} after {:.0}/{:.0}",
                t3.basic_nas, t3.basic_spec, t3.extended_nas, t3.extended_spec,
                t4.before_nas, t4.before_spec, t4.after_nas, t4.after_spec,
            );
            rows.push((t3, t4));
        }
        let mean =
            |f: &dyn Fn(&(feam_eval::tables::TableThree, feam_eval::tables::TableFour)) -> f64| {
                rows.iter().map(f).sum::<f64>() / rows.len() as f64
            };
        println!(
            "mean: basic {:.1}/{:.1} ext {:.1}/{:.1} before {:.1}/{:.1} after {:.1}/{:.1}",
            mean(&|r| r.0.basic_nas),
            mean(&|r| r.0.basic_spec),
            mean(&|r| r.0.extended_nas),
            mean(&|r| r.0.extended_spec),
            mean(&|r| r.1.before_nas),
            mean(&|r| r.1.before_spec),
            mean(&|r| r.1.after_nas),
            mean(&|r| r.1.after_spec),
        );
    }

    if let Some(path) = &args.json {
        let mut payload = serde_json::json!({
            "seed": args.seed,
            "table1": table1(&exp),
            "table3": table3(&results),
            "table4": table4(&results),
            "stats": stats(&results),
            "per_site": per_site(&results),
            "confusion": { "basic": confusion(&results).0, "extended": confusion(&results).1 },
            "effort": feam_eval::effort(&results),
            "ablation": ablation(&results),
            "records": results.records,
            "excluded_count": results.excluded.len(),
        });
        if args.want_telemetry {
            let snapshot = exp.config.recorder.snapshot();
            if let serde_json::Value::Object(map) = &mut payload {
                map.insert(
                    "telemetry".to_string(),
                    serde_json::json!({
                        "summary": feam_eval::telemetry_summary(&results, &snapshot),
                        "snapshot": snapshot.to_json(),
                    }),
                );
            }
        }
        if let Some(sweep) = &chaos_sweep {
            if let serde_json::Value::Object(map) = &mut payload {
                map.insert(
                    "chaos".to_string(),
                    serde_json::to_value(sweep).expect("serialize chaos sweep"),
                );
            }
        }
        write_json(path, &payload);
    }
}
