//! Seeded inputs: the testbed and corpus, request streams and fresh
//! builds. Everything here is a pure function of its seed arguments;
//! the program under test only ever sees what these functions return.

use crate::pin::TESTBED_SEED;
use feam_sim::compile::{compile_variant, BinaryVariant, ProgramSpec};
use feam_sim::rng;
use feam_sim::site::Site;
use feam_svc::bench::stream_request;
use feam_svc::{BenchParams, PredictRequest, PredictService};
use feam_workloads::sites::standard_sites;
use feam_workloads::testset::TestSetBuilder;
use std::sync::Arc;

/// Zipf skew of every request stream.
pub const ZIPF_S: f64 = 1.1;

/// Share of reads asking for the extended prediction.
pub const EXTENDED_SHARE: f64 = 0.3;

/// Packaging of fresh builds, repeating with a seeded phase: in every 20
/// builds two are `Stripped` (section headers gone, so the provenance
/// fallback runs) and one is `Static` (no dynamic section: the fallback
/// runs and the source phase finds no libraries). A fixed pattern keeps
/// the shares exact in every run.
const VARIANT_CYCLE: [BinaryVariant; 20] = {
    let mut c = [BinaryVariant::Normal; 20];
    c[0] = BinaryVariant::Stripped;
    c[7] = BinaryVariant::Static;
    c[13] = BinaryVariant::Stripped;
    c
};

/// One binary of the §VI.A corpus.
#[derive(Debug, Clone)]
pub struct CorpusBinary {
    /// Registered name: corpus index, then the binary's identity, so
    /// sorted names keep corpus order (and Zipf rank).
    pub name: String,
    pub image: Arc<Vec<u8>>,
    /// Index of the site it was built at (its home).
    pub home: usize,
    /// Index into that site's stacks of the stack it was built with.
    pub stack: usize,
    /// The program it was compiled from, for rebuilds.
    pub program: ProgramSpec,
}

/// The five simulated sites and the corpus built across them. A site
/// model is large, so callers move `sites` into the service they build
/// and reach sites through it afterwards.
pub struct Testbed {
    pub sites: Vec<Site>,
    pub corpus: Vec<CorpusBinary>,
}

impl Testbed {
    /// The paper's testbed at [`TESTBED_SEED`].
    pub fn build() -> Self {
        let sites = standard_sites(TESTBED_SEED);
        let set = TestSetBuilder::new(TESTBED_SEED).build(&sites);
        let corpus = set
            .binaries()
            .iter()
            .enumerate()
            .map(|(i, item)| CorpusBinary {
                name: format!("{i:03}-{}", item.label()),
                image: item.image.clone(),
                home: item.compiled_at,
                stack: item.stack_index,
                program: item.benchmark.program_spec(),
            })
            .collect();
        Testbed { sites, corpus }
    }

    pub fn site_names(&self) -> Vec<String> {
        self.sites.iter().map(|s| s.name().to_string()).collect()
    }
}

/// Corpus names in Zipf-rank order (the order the stream ranks them).
pub fn names(corpus: &[CorpusBinary]) -> Vec<String> {
    corpus.iter().map(|b| b.name.clone()).collect()
}

/// The stream parameters every workload draws from: Zipf popularity
/// over the whole corpus, [`EXTENDED_SHARE`] extended reads.
pub fn stream_params(seed: u64) -> BenchParams {
    BenchParams {
        seed,
        requests: 0,
        uncached_requests: 0,
        binaries: usize::MAX,
        zipf_s: ZIPF_S,
        extended_share: EXTENDED_SHARE,
        wave: 1,
    }
}

/// The first `len` requests of the seeded Zipf stream over `names` and
/// `sites` (drawn with the serve bench's own generator).
pub fn read_stream(
    seed: u64,
    names: &[String],
    sites: &[String],
    len: usize,
) -> Vec<PredictRequest> {
    let params = stream_params(seed);
    (0..len)
        .map(|i| stream_request(&params, names, sites, i))
        .collect()
}

/// A new build of a corpus program: same site, stack and program, new
/// build seed — so new bytes that link the same libraries, as a real
/// rebuild does.
#[derive(Debug, Clone)]
pub struct FreshBuild {
    pub image: Arc<Vec<u8>>,
    /// Name of the home site.
    pub home: String,
    pub variant: BinaryVariant,
}

/// The packaging of build `i` of build stream `stream`: the
/// [`VARIANT_CYCLE`] at a seeded phase.
pub fn mixed_variant(seed: u64, stream: &str, i: u64) -> BinaryVariant {
    let phase = rng::hash_parts(seed, &["variant", stream]);
    VARIANT_CYCLE[((i + phase) % VARIANT_CYCLE.len() as u64) as usize]
}

/// Build number `i` of the build stream `stream` for corpus binary
/// `base`, compiled at `site` (its home) and packaged as `variant`.
/// Streams keep warm-up, timed and update builds apart.
pub fn fresh_build(
    site: &Site,
    base: &CorpusBinary,
    seed: u64,
    stream: &str,
    i: u64,
    variant: BinaryVariant,
) -> FreshBuild {
    let build_seed = rng::hash_parts(seed, &["build", stream, &i.to_string()]);
    let stack = &site.stacks[base.stack];
    let bin = compile_variant(site, Some(stack), &base.program, build_seed, variant)
        .expect("a corpus program rebuilds with the stack it was built with");
    FreshBuild {
        image: bin.image,
        home: site.name().to_string(),
        variant,
    }
}

/// The site `svc` serves as `base`'s home.
pub fn home_site<'s>(svc: &'s PredictService, base: &CorpusBinary) -> &'s Site {
    svc.site(&svc.site_names()[base.home])
        .expect("services serve the testbed's sites in testbed order")
}

/// Seeded index in `0..n` for draw `i` of `stream`.
pub fn pick(seed: u64, stream: &str, i: u64, n: usize) -> usize {
    (rng::hash_parts(seed, &[stream, &i.to_string()]) % n as u64) as usize
}

/// Seeded Bernoulli draw `i` of `stream`.
pub fn chance(seed: u64, stream: &str, i: u64, p: f64) -> bool {
    rng::chance(seed, &[stream, &i.to_string()], p)
}
