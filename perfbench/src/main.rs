//! `feam-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the pinned configuration and the deterministic work counters as
//! `# `-prefixed lines, then, as the last line of standard output, one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics, or with `--trace 1` the per-layer ones). Exits 1
//! when any answer was wrong.

use feam_perfbench::{pin, run, RunSpec, Workload};

fn usage() -> ! {
    eprintln!(
        "usage: feam-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        Workload::ALL.map(|w| w.name()).join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> RunSpec {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in args.chunks(2) {
        let [flag, value] = pair else { usage() };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => usage(),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => RunSpec {
            workload,
            seed,
            seconds,
            trace,
        },
        _ => usage(),
    }
}

fn main() {
    // Before anything reads the ambient switches or spawns a thread.
    let overridden = pin::clear_ambient();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = pin::pin_to_one_cpu();
    let spec = parse_args();
    let out = run(&spec);
    let mut config = pin::describe(&overridden, nproc, cpu);
    if let serde_json::Value::Object(map) = &mut config {
        map.insert("workload".into(), spec.workload.name().into());
        map.insert("seed".into(), serde_json::json!(spec.seed));
        map.insert("seconds".into(), serde_json::json!(spec.seconds));
        map.insert("trace".into(), serde_json::json!(spec.trace));
    }
    println!("# config {config}");
    println!("# counters {}", serde_json::json!(out.counters));
    println!("# racy {}", serde_json::json!(out.racy));
    println!(
        "# samples per segment {:?} attempted {} failed {} wrong {}",
        out.samples, out.attempted, out.failed, out.wrong
    );
    let mut metrics = serde_json::Map::new();
    for m in &out.metrics {
        metrics.insert(
            m.name.clone(),
            serde_json::json!({"value": m.value, "unit": m.unit}),
        );
    }
    let correct = out.wrong == 0;
    println!(
        "{}",
        serde_json::json!({
            "correct": correct,
            "attempted": out.attempted,
            "failed": out.failed,
            "metrics": serde_json::Value::Object(metrics),
        })
    );
    if !correct {
        std::process::exit(1);
    }
}
