//! `scale-analyze`: each op parses one generated app, analyzes it, and
//! renders the report, the `nadroid analyze` path. The static pipeline
//! does all the work; provenance, serve and confirmation do none.

use crate::gen::App;
use crate::trace::Tracer;
use crate::{check, config, ms_since, Run, Stream};
use nadroid_core::{analyze, render_report, AnalysisConfig, Summary};
use nadroid_detector::{detect_with, distinct_pairs, warning_id, UafWarning};
use nadroid_filters::refute::Refuter;
use nadroid_filters::Filters;
use nadroid_hb::HbGraph;
use nadroid_ir::{parse_program, Program};
use nadroid_pointsto::{Escape, PointsTo};
use nadroid_threadify::ThreadModel;
use std::time::Instant;

/// The op class scale-analyze samples land in.
pub const CLASS: &str = "analyze";

/// The static pipeline composed from each layer's public functions
/// under one span per layer; returns the Table 1 summary and the
/// surviving ids, exactly as `analyze` would.
pub fn compose(p: &Program, cfg: &AnalysisConfig, tr: &mut Tracer) -> (Summary, Vec<String>) {
    nadroid_par::with_threads(cfg.threads, || {
        let threads = tr.leaf("threadify.build", || ThreadModel::build(p));
        let hb = tr.leaf("hb.build", || HbGraph::build(p, &threads));
        let pts = tr.leaf("pointsto.solve", || PointsTo::run(p, &threads, cfg.k));
        let esc = tr.leaf("pointsto.escape", || Escape::compute(p, &threads, &pts));
        let preprune = cfg.mhp_preprune.then_some(&hb);
        let warnings = tr.leaf("detector.detect", || {
            detect_with(p, &threads, &pts, &esc, cfg.detector, preprune)
        });
        let (sound, unsound) = tr.leaf("filters.pipeline", || {
            let filters = Filters::with_hb(p, &threads, &pts, &esc, &hb);
            let sound: Vec<UafWarning> = filters
                .pipeline(warnings.clone(), &cfg.sound_filters)
                .into_iter()
                .filter(|o| o.survives())
                .map(|o| o.warning)
                .collect();
            let unsound: Vec<UafWarning> = filters
                .pipeline(sound.clone(), &cfg.unsound_filters)
                .into_iter()
                .filter(|o| o.survives())
                .map(|o| o.warning)
                .collect();
            (sound, unsound)
        });
        let survivors: Vec<UafWarning> = tr.leaf("filters.refute", || {
            if !cfg.refutation {
                return unsound.clone();
            }
            let refuter = Refuter::new(p, &threads, &hb);
            unsound
                .iter()
                .filter(|w| refuter.refute(w).is_none())
                .cloned()
                .collect()
        });
        tr.count("detector.warnings", warnings.len() as f64);
        tr.count("filters.survivors", survivors.len() as f64);
        let after_unsound = distinct_pairs(&unsound);
        let after_refutation = distinct_pairs(&survivors);
        let summary = Summary {
            loc: p.loc(),
            ec: threads.entry_callback_count(),
            pc: threads.posted_callback_count(),
            threads: threads.thread_count(),
            potential: distinct_pairs(&warnings),
            after_sound: distinct_pairs(&sound),
            after_unsound,
            refuted: after_unsound - after_refutation,
            after_refutation,
        };
        let ids = survivors
            .iter()
            .map(|w| warning_id(p, &threads, w))
            .collect();
        (summary, ids)
    })
}

/// Parse under the `ir.parse` span, counting the bytes parsed.
///
/// # Errors
///
/// The parse error, as text.
pub fn parse_traced(dsl: &str, tr: &mut Tracer) -> Result<Program, String> {
    tr.count("ir.parse_bytes", dsl.len() as f64);
    tr.leaf("ir.parse", || parse_program(dsl))
        .map_err(|e| e.to_string())
}

fn op_untraced(app: &App, cfg: &AnalysisConfig, run: &mut Run) {
    let t = Instant::now();
    let report = parse_program(&app.dsl).map(|p| render_report(&analyze(&p, cfg), None));
    let ms = ms_since(t);
    match report {
        Ok(text) => {
            run.sample(CLASS, &app.name, ms);
            run.checked(&app.name, check::report(&app.truth, &text));
        }
        Err(e) => {
            run.failed += 1;
            run.checked(&app.name, Err(format!("parse failed: {e}")));
        }
    }
}

fn op_traced(app: &App, cfg: &AnalysisConfig, run: &mut Run) {
    let tr = run.trace.as_mut().expect("traced run");
    tr.begin_op();
    let t = Instant::now();
    let p = match parse_traced(&app.dsl, tr) {
        Ok(p) => p,
        Err(e) => {
            tr.end_op();
            run.failed += 1;
            run.checked(&app.name, Err(format!("parse failed: {e}")));
            return;
        }
    };
    let composed = compose(&p, cfg, tr);
    // `render_report` takes an `Analysis`, which only `analyze` builds;
    // the pipeline runs once more under `core.analyze` to get one.
    let analysis = tr.leaf("core.analyze", || analyze(&p, cfg));
    let report = tr.leaf("core.report", || render_report(&analysis, None));
    tr.end_op();
    let ms = ms_since(t);
    let ids: Vec<String> = analysis
        .survivors()
        .iter()
        .map(|w| warning_id(&p, analysis.threads(), w))
        .collect();
    run.sample(CLASS, &app.name, ms);
    run.checked(&app.name, check::report(&app.truth, &report));
    run.checked(&app.name, fidelity(&composed, &(analysis.summary(), ids)));
}

/// The traced composition must give what the untraced path gives.
///
/// # Errors
///
/// Says whether the summary or the surviving ids differ.
pub fn fidelity(
    composed: &(Summary, Vec<String>),
    untraced: &(Summary, Vec<String>),
) -> Result<(), String> {
    if composed.0 != untraced.0 {
        return Err(format!(
            "traced summary {:?} != untraced {:?}",
            composed.0, untraced.0
        ));
    }
    if composed.1 != untraced.1 {
        return Err("traced surviving ids differ from untraced ones".into());
    }
    Ok(())
}

/// The scale-analyze stream: one step per app, one round per
/// population.
pub struct Scale {
    apps: Vec<App>,
    next: usize,
    cfg: AnalysisConfig,
}

impl Scale {
    /// A stream over a population.
    #[must_use]
    pub fn new(apps: Vec<App>) -> Scale {
        Scale {
            apps,
            next: 0,
            cfg: config(),
        }
    }
}

impl Stream for Scale {
    fn step(&mut self, run: &mut Run) -> bool {
        let app = &self.apps[self.next];
        run.attempted += 1;
        if run.trace.is_some() {
            op_traced(app, &self.cfg, run);
        } else {
            op_untraced(app, &self.cfg, run);
        }
        self.next = (self.next + 1) % self.apps.len();
        self.next == 0
    }
}
