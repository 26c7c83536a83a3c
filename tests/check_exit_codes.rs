//! Exit-code policy of `feam check`, with and without `--sites`.
//!
//! The contract these tests pin: the exit status is the lint's alone.
//! Ensemble readiness verdicts — including contested ones, where the
//! checker members disagree — are advisory output and never fail the
//! check; lint findings of severity `Error` always do, `--sites` or not.

mod common;

use common::ProbeFile;
use std::process::Command;

/// Binary compiled glibc-hungry at Forge (glibc 2.12): clean lint, ready
/// at home, and *contested* at the older-glibc sites (the symbol-diff
/// checker and FEAM reject the missing GLIBC version nodes, the
/// ldd-closure checker — which never looks at versions — accepts).
fn contested_probe() -> ProbeFile {
    use feam::sim::compile::{compile, ProgramSpec};
    use feam::sim::toolchain::Language;
    use feam::workloads::sites::{standard_sites, FORGE};

    let sites = standard_sites(42);
    let site = &sites[FORGE];
    let stack = site
        .stacks
        .iter()
        .find(|s| s.stack.ident() == "openmpi-1.4-gnu-4.4.5")
        .expect("forge runs openmpi-1.4-gnu-4.4.5");
    let mut spec = ProgramSpec::new("cg", Language::C);
    spec.glibc_appetite = 1.0;
    let bin = compile(site, Some(stack), &spec, 42).expect("probe compiles");
    ProbeFile::write("exitcode.elf", bin.image.as_slice()).unwrap()
}

/// The same probe with its `.gnu.version` section header shrunk by one
/// entry: still parseable, but the versym/dynsym length mismatch is a
/// lint `Error`.
fn error_probe() -> ProbeFile {
    let clean = contested_probe();
    let mut bytes = std::fs::read(&clean).unwrap();
    let rd16 = |b: &[u8], o: usize| u16::from_le_bytes([b[o], b[o + 1]]);
    let rd64 = |b: &[u8], o: usize| {
        u64::from_le_bytes([
            b[o],
            b[o + 1],
            b[o + 2],
            b[o + 3],
            b[o + 4],
            b[o + 5],
            b[o + 6],
            b[o + 7],
        ])
    };
    assert_eq!(&bytes[..4], b"\x7fELF");
    assert_eq!(bytes[4], 2, "probe is ELF64");
    let shoff = rd64(&bytes, 0x28) as usize;
    let shentsize = rd16(&bytes, 0x3a) as usize;
    let shnum = rd16(&bytes, 0x3c) as usize;
    const SHT_GNU_VERSYM: u32 = 0x6fff_ffff;
    let mut corrupted = false;
    for i in 0..shnum {
        let e = shoff + i * shentsize;
        let sh_type = u32::from_le_bytes([bytes[e + 4], bytes[e + 5], bytes[e + 6], bytes[e + 7]]);
        if sh_type == SHT_GNU_VERSYM {
            // sh_size lives at +0x20 in an Elf64 section header.
            let size = rd64(&bytes, e + 0x20);
            assert!(size >= 4, "versym section has entries");
            bytes[e + 0x20..e + 0x28].copy_from_slice(&(size - 2).to_le_bytes());
            corrupted = true;
            break;
        }
    }
    assert!(corrupted, "probe carries a .gnu.version section");
    ProbeFile::write("exitcode-bad.elf", &bytes).unwrap()
}

fn run_check(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_feam"))
        .arg("check")
        .args(args)
        .output()
        .expect("feam runs");
    (
        out.status.code().expect("exit code"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn contested_but_ready_exits_zero() {
    let elf = contested_probe();
    let (code, stdout) = run_check(&["--sites", elf.to_str().unwrap()]);
    assert_eq!(
        code, 0,
        "advisory ensemble verdicts never fail the check:\n{stdout}"
    );
    assert!(
        stdout.contains("ensemble readiness"),
        "--sites prints the ensemble table:\n{stdout}"
    );
    // The probe is genuinely ready at its home site and genuinely
    // contested elsewhere — both advisory states ride on exit 0.
    assert!(
        stdout
            .lines()
            .any(|l| l.contains("forge") && l.contains("ready")),
        "ready at home:\n{stdout}"
    );
    assert!(
        stdout.contains("contested"),
        "members disagree at the older-glibc sites:\n{stdout}"
    );
}

#[test]
fn lint_errors_exit_nonzero_even_with_sites() {
    let elf = error_probe();
    let (code, stdout) = run_check(&["--sites", elf.to_str().unwrap()]);
    assert_eq!(code, 1, "Error findings always fail the check:\n{stdout}");
    assert!(
        stdout.contains("Error"),
        "the finding is printed:\n{stdout}"
    );

    // Same without --sites: the flag never changes the policy.
    let (code, _) = run_check(&[elf.to_str().unwrap()]);
    assert_eq!(code, 1);
}

#[test]
fn clean_binary_without_sites_still_exits_zero() {
    let elf = contested_probe();
    let (code, stdout) = run_check(&[elf.to_str().unwrap()]);
    assert_eq!(code, 0, "{stdout}");
    assert!(
        !stdout.contains("ensemble readiness"),
        "no --sites, no ensemble table:\n{stdout}"
    );
}
