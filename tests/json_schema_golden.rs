//! Golden schema tests for the machine-readable JSON surfaces.
//!
//! Each surface is reduced to a *schema signature*: the sorted set of
//! `path: type` lines obtained by walking the JSON value (array elements
//! are unioned under `path[]`). Values are deliberately ignored — these
//! tests pin the shape consumers script against, not the content. When a
//! surface legitimately grows a field, re-bless with:
//!
//! ```text
//! FEAM_BLESS=1 cargo test --test json_schema_golden
//! ```

mod common;

use common::ProbeFile;
use serde_json::Value;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

fn walk(path: &str, v: &Value, out: &mut BTreeSet<String>) {
    match v {
        Value::Null => {
            out.insert(format!("{path}: null"));
        }
        Value::Bool(_) => {
            out.insert(format!("{path}: bool"));
        }
        Value::Number(_) => {
            out.insert(format!("{path}: number"));
        }
        Value::String(_) => {
            out.insert(format!("{path}: string"));
        }
        Value::Array(items) => {
            out.insert(format!("{path}: array"));
            for item in items {
                walk(&format!("{path}[]"), item, out);
            }
        }
        Value::Object(map) => {
            out.insert(format!("{path}: object"));
            for (k, item) in map.iter() {
                walk(&format!("{path}.{k}"), item, out);
            }
        }
    }
}

fn signature(v: &Value) -> String {
    let mut out = BTreeSet::new();
    walk("$", v, &mut out);
    let mut s: String = out.into_iter().collect::<Vec<_>>().join("\n");
    s.push('\n');
    s
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.schema"))
}

fn assert_matches_golden(name: &str, v: &Value) {
    let sig = signature(v);
    let path = golden_path(name);
    if std::env::var_os("FEAM_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &sig).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden schema {} ({e}); run with FEAM_BLESS=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        sig,
        golden,
        "JSON schema for {name} drifted from {}; if the change is intentional, \
         re-bless with FEAM_BLESS=1",
        path.display()
    );
}

/// A small deterministic MPI binary staged to a temp file for the CLI.
fn probe_elf() -> ProbeFile {
    use feam::sim::compile::{compile, ProgramSpec};
    use feam::sim::toolchain::Language;
    use feam::workloads::sites::{standard_sites, RANGER};

    let sites = standard_sites(42);
    let site = &sites[RANGER];
    let stack = site.stacks[1].clone();
    let bin = compile(
        site,
        Some(&stack),
        &ProgramSpec::new("bt", Language::Fortran),
        42,
    )
    .expect("probe compiles");
    ProbeFile::write("golden.elf", bin.image.as_slice()).unwrap()
}

fn cli_json(args: &[&str]) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_feam"))
        .args(args)
        .output()
        .expect("feam runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    serde_json::from_str(&stdout).unwrap_or_else(|e| {
        panic!(
            "feam {args:?} did not print JSON ({e}); stdout: {stdout}\nstderr: {}",
            String::from_utf8_lossy(&out.stderr)
        )
    })
}

#[test]
fn report_json_schema_is_stable() {
    use feam::core::phases::{run_source_phase, run_target_phase, PhaseConfig};
    use feam::core::report::report_json;
    use feam::sim::compile::{compile, ProgramSpec};
    use feam::sim::toolchain::Language;
    use feam::workloads::sites::{standard_sites, INDIA, RANGER};

    let cfg = PhaseConfig::default();
    let sites = standard_sites(42);
    let stack = sites[RANGER].stacks[1].clone();
    let bin = compile(
        &sites[RANGER],
        Some(&stack),
        &ProgramSpec::new("bt", Language::Fortran),
        42,
    )
    .expect("probe compiles");
    let bundle = run_source_phase(&sites[RANGER], &bin.image, &cfg).expect("source phase");
    let outcome = run_target_phase(&sites[INDIA], Some(&bin.image), Some(&bundle), &cfg);
    assert_matches_golden("report_json", &report_json(&outcome));
}

#[test]
fn feam_describe_json_schema_is_stable() {
    let elf = probe_elf();
    assert_matches_golden(
        "feam_describe",
        &cli_json(&["describe", "--json", elf.to_str().unwrap()]),
    );
}

/// The stripped twin of [`probe_elf`]: `.comment` gone, so `feam identify`
/// exercises the fallback provenance tier and its JSON surface carries
/// populated claims.
fn stripped_probe_elf() -> ProbeFile {
    use feam::sim::compile::{compile_variant, BinaryVariant, ProgramSpec};
    use feam::sim::toolchain::Language;
    use feam::workloads::sites::{standard_sites, RANGER};

    let sites = standard_sites(42);
    let site = &sites[RANGER];
    let stack = site.stacks[1].clone();
    let bin = compile_variant(
        site,
        Some(&stack),
        &ProgramSpec::new("bt", Language::Fortran),
        42,
        BinaryVariant::Stripped,
    )
    .expect("stripped probe compiles");
    ProbeFile::write("golden-stripped.elf", bin.image.as_slice()).unwrap()
}

#[test]
fn feam_identify_json_schema_is_stable() {
    let elf = stripped_probe_elf();
    let v = cli_json(&["identify", "--json", elf.to_str().unwrap()]);
    // The fallback tier must be populated on a stripped binary — an empty
    // provenance object would silently pin the wrong schema.
    assert!(
        v["provenance"]["compiler"]["family"].as_str().is_some(),
        "{v}"
    );
    assert_matches_golden("feam_identify", &v);
}

#[test]
fn feam_check_json_schema_is_stable() {
    let elf = probe_elf();
    assert_matches_golden(
        "feam_check",
        &cli_json(&["check", "--json", elf.to_str().unwrap()]),
    );
}

#[test]
fn feam_plan_json_schema_is_stable() {
    let elf = probe_elf();
    assert_matches_golden(
        "feam_plan",
        &cli_json(&["plan", "--json", elf.to_str().unwrap()]),
    );
}
