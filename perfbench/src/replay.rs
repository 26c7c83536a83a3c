//! The traced replay of a miss through the phase functions.
//!
//! The service's phases run on its worker thread, out of reach of spans
//! opened in the benchmark. So the traced run replays each miss on the
//! client thread through the same public functions the phases are made
//! of — `BinaryDescription::from_bytes_keyed`, `edc::discover`,
//! `bdc::collect_libraries_cached`, `tec::evaluate`, the agree checkers —
//! on a [`PhaseConfig`] equivalent to the service's and over a [`Mirror`]
//! of its caches, so the replay misses exactly where the service missed.
//! The replayed predictions must equal the service's answers byte for
//! byte; that is what shows the replay did the service's work.
//!
//! `elf.parse` and `provenance.analyze` spans are probes: they repeat,
//! beside the phases, the parse and fallback analysis that the describe
//! calls do inside, so those costs show on their own without counting
//! twice in any phase's self time.

use crate::pin::phase_config;
use crate::tracer::Tracer;
use feam_agree::{closure_check, dissent_of, feam_member, symbol_diff_check, SiteInventory};
use feam_core::bdc::{self, BinaryDescription, MpiIdentification};
use feam_core::bundle::{HelloWorldProbe, SourceBundle};
use feam_core::cache::{BdcKey, PhaseCaches};
use feam_core::edc::{self, EnvironmentDescription};
use feam_core::phases::PhaseConfig;
use feam_core::predict::Prediction;
use feam_core::retry::compile_with_retry;
use feam_core::tec;
use feam_elf::LazyElf;
use feam_sim::compile::ProgramSpec;
use feam_sim::faults::FaultPlan;
use feam_sim::site::{Session, Site};
use feam_sim::toolchain::Language;
use feam_svc::PredictService;
use std::collections::HashMap;
use std::sync::Arc;

/// Where the service's source phase stages the application.
const SOURCE_APP_PATH: &str = "/home/user/feam/source_app.bin";

/// One service's caches, mirrored: the replay's own description caches
/// and source-bundle memo, fed the same misses in the same order.
pub struct Mirror {
    caches: Arc<PhaseCaches>,
    cfg: PhaseConfig,
    /// Source bundles by content key, with the home-site epoch they were
    /// gathered under (the service memoizes per binding and epoch).
    bundles: HashMap<BdcKey, (u64, Option<Arc<SourceBundle>>)>,
    /// Library copies collected by the source phases replayed so far.
    pub libraries: u64,
}

impl Default for Mirror {
    fn default() -> Self {
        let caches = Arc::new(PhaseCaches::new(0));
        Mirror {
            cfg: phase_config(Some(caches.clone())),
            caches,
            bundles: HashMap::new(),
            libraries: 0,
        }
    }
}

impl Mirror {
    /// Mirror a `reconfigure_site`: bump the site's EDC epoch.
    pub fn reconfigure(&self, site: &str) {
        self.caches.edc.invalidate(site);
    }

    /// Replay the evaluation of `image` (home site `home`) at every site
    /// of `targets` on `svc`'s sites, in order; extended mode runs (or
    /// reuses) the source phase first. Returns one prediction per target.
    pub fn replay(
        &mut self,
        t: &Tracer,
        svc: &PredictService,
        image: &Arc<Vec<u8>>,
        home: &str,
        targets: &[String],
        extended: bool,
    ) -> Vec<Prediction> {
        let key = {
            let _s = t.span_bytes("cache.key", image.len() as u64);
            BdcKey::of(image)
        };
        parse_probe(t, image, true);
        let bundle = if extended {
            let epoch = self.caches.edc.epoch(home);
            match self.bundles.get(&key) {
                Some((e, b)) if *e == epoch => b.clone(),
                _ => {
                    let home_site = svc.site(home).expect("home site is served");
                    let b = self.source_phase(t, home_site, image, key).map(Arc::new);
                    if let Some(b) = &b {
                        self.libraries += b.libraries.len() as u64;
                        for lib in b.libraries.values() {
                            parse_probe(t, &lib.bytes, false);
                        }
                    }
                    self.bundles.insert(key, (epoch, b.clone()));
                    b
                }
            }
        } else {
            None
        };
        targets
            .iter()
            .map(|name| {
                let site = svc.site(name).expect("target site is served");
                self.target_phase(t, site, image, key, bundle.as_deref())
            })
            .collect()
    }

    /// The BDC step with the description cache in front of it.
    fn describe(
        &self,
        t: &Tracer,
        path: &str,
        image: &[u8],
        key: BdcKey,
    ) -> feam_core::Result<BinaryDescription> {
        if let Some(d) = self.caches.bdc_get(&key) {
            let mut d = (*d).clone();
            d.path = path.to_string();
            return Ok(d);
        }
        let d = {
            let _s = t.span_bytes("bdc.describe", image.len() as u64);
            BinaryDescription::from_bytes_keyed(path, image, key, None)?
        };
        self.caches.bdc_put(key, Arc::new(d.clone()));
        Ok(d)
    }

    /// The EDC step with the environment cache in front of it.
    fn discover(&self, t: &Tracer, sess: &mut Session<'_>) -> EnvironmentDescription {
        let site = sess.site.name().to_string();
        if let Some(env) = self.caches.edc_get(&site) {
            return (*env).clone();
        }
        let env = {
            let _s = t.span("edc.discover");
            edc::discover(sess)
        };
        if env.unobserved.is_empty() {
            self.caches.edc_put(&site, Arc::new(env.clone()));
        }
        env
    }

    /// The source phase at the binary's home site, step by step.
    fn source_phase(
        &self,
        t: &Tracer,
        gee: &Site,
        image: &Arc<Vec<u8>>,
        key: BdcKey,
    ) -> Option<SourceBundle> {
        let _s = t.span("phases.source");
        let cfg = &self.cfg;
        let mut sess = cfg.session(gee);
        sess.stage_file(SOURCE_APP_PATH, image.clone());
        let app = self.describe(t, SOURCE_APP_PATH, image, key).ok()?;
        let gee_env = self.discover(t, &mut sess);
        let MpiIdentification::Identified(imp) = app.mpi else {
            return None;
        };
        let family = feam_sim::exec::compiler_from_comments(&app.comments).map(|(f, _)| f);
        let candidates = gee_env.stacks_of(imp);
        let chosen = candidates
            .iter()
            .find(|c| family.map(|f| c.compiler == f.tag()).unwrap_or(true))
            .or_else(|| candidates.first())
            .copied()
            .cloned()?;
        let ist = edc::find_installed(gee, &chosen)?;
        sess.load_stack(ist);
        let libraries = {
            let _s = t.span("bdc.collect_libraries");
            bdc::collect_libraries_cached(&mut sess, SOURCE_APP_PATH, Some(&self.caches)).ok()?
        };
        let mut hello_worlds: Vec<HelloWorldProbe> = Vec::new();
        for lang in [Language::C, app_language(&app)] {
            sess.charge(12.0);
            if let Ok(hello) = compile_with_retry(
                &mut sess,
                Some(ist),
                &ProgramSpec::mpi_hello_world(lang),
                cfg.seed,
                &cfg.retry,
            ) {
                if hello_worlds.iter().all(|h| h.language != lang) {
                    hello_worlds.push(HelloWorldProbe {
                        language: lang,
                        stack_ident: ist.stack.ident(),
                        image: hello.image,
                    });
                }
            }
        }
        Some(SourceBundle {
            gee_site: gee.name().to_string(),
            app,
            gee_env,
            app_stack_ident: Some(ist.stack.ident()),
            libraries,
            hello_worlds,
        })
    }

    /// The target phase at `site`, step by step.
    fn target_phase(
        &self,
        t: &Tracer,
        site: &Site,
        image: &Arc<Vec<u8>>,
        key: BdcKey,
        bundle: Option<&SourceBundle>,
    ) -> Prediction {
        let _s = t.span("phases.target");
        let mut sess = self.cfg.session(site);
        let env = self.discover(t, &mut sess);
        sess.stage_file(tec::APP_PATH, Arc::new((**image).clone()));
        let desc = match self.describe(t, tec::APP_PATH, image, key) {
            Ok(d) => d,
            // The service falls back to the bundle's description; with
            // faults off a parsed image never takes this branch.
            Err(_) => bundle
                .expect("an unreadable image needs a bundle")
                .app
                .clone(),
        };
        let _e = t.span("tec.evaluate");
        tec::evaluate(site, &desc, Some(image), &env, bundle, &self.cfg).prediction
    }
}

/// Parse `image` on its own (`elf.parse`). For the application, whose
/// new bytes the describe step analyses, also run the provenance
/// fallback when that step would (`provenance.analyze`); library
/// descriptions come from the cache, so their fallback does not run.
fn parse_probe(t: &Tracer, image: &[u8], app: bool) {
    let parsed = {
        let _s = t.span_bytes("elf.parse", image.len() as u64);
        LazyElf::parse(image)
    };
    if let Ok(f) = parsed {
        if app && f.evidence().needs_fallback() {
            let _s = t.span("provenance.analyze");
            std::hint::black_box(feam_provenance::analyze(&f));
        }
    }
}

/// Replay `annotate_with_ensemble` for one site: collect the site's
/// library inventory, run the two static checkers and attach the dissent
/// record to `pred` exactly as the annotation does.
pub fn ensemble(t: &Tracer, site: &Site, image: &[u8], pred: &mut Prediction) {
    let inv = {
        let _s = t.span("agree.inventory");
        SiteInventory::collect(site, &Arc::new(FaultPlan::none()))
    };
    let members = {
        let _s = t.span("agree.checks");
        vec![
            feam_member(pred),
            symbol_diff_check(image, site, &inv),
            closure_check(image, site, &inv),
        ]
    };
    pred.dissent = Some(dissent_of(&members));
}

/// The language of the extra hello world the source phase bundles,
/// guessed from the application's runtime dependencies (the phase's own
/// rule).
fn app_language(app: &BinaryDescription) -> Language {
    if app.needed.iter().any(|n| {
        n.starts_with("libgfortran")
            || n.starts_with("libg2c")
            || n.starts_with("libifcore")
            || n.starts_with("libpgf90")
            || n.starts_with("libmpi_f77")
            || n.starts_with("libmpichf90")
    }) {
        Language::Fortran
    } else if app.needed.iter().any(|n| n.starts_with("libstdc++")) {
        Language::Cxx
    } else {
        Language::C
    }
}

/// Are two predictions equal field for field — everything their
/// serialized bytes are made of? The destructuring keeps this exhaustive
/// if `Prediction` grows a field.
pub fn same(a: &Prediction, b: &Prediction) -> bool {
    let Prediction {
        mode,
        verdicts,
        dissent,
    } = a;
    *mode == b.mode && *verdicts == b.verdicts && *dissent == b.dissent
}
