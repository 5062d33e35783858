//! `confirm-sample`: each op confirms one drawn survivor pair through
//! `confirm_by_id`, the `nadroid confirm <app> <id>` path: directed
//! search, bounded fallback, and for a witness minimization and replay.
//! The apps are parsed and analyzed during set-up.

use crate::gen::{cluster_of, pair_class, App, Candidate, PairClass};
use crate::trace::Tracer;
use crate::{check, config, ms_since, Run, Stream};
use nadroid_confirm::{confirm_by_id, ConfirmConfig, EvidenceGuide};
use nadroid_core::{analyze, Analysis, ConfirmVerdict};
use nadroid_detector::{warning_id, UafWarning};
use nadroid_dynamic::{
    encode_schedule, explore_guided, minimize_schedule, Exploration, Goal, World,
};
use nadroid_ir::{parse_program, Program};
use std::collections::BTreeSet;
use std::time::Instant;

/// Op class of pairs planted Harmful (a confirmed, minimized,
/// replay-checked verdict).
pub const WITNESS: &str = "witness";
/// Op class of pairs planted as false positives (budgets exhausted).
pub const EXHAUST: &str = "exhaust";

/// Parse every app's DSL text, or give the first parse error.
fn parse_all(apps: &[App]) -> Result<Vec<Program>, String> {
    apps.iter()
        .map(|a| parse_program(&a.dsl).map_err(|e| format!("{}: {e}", a.name)))
        .collect()
}

/// Analyze every program with the benchmark's configuration.
#[must_use]
fn analyze_all(programs: &[Program]) -> Vec<Analysis<'_>> {
    let cfg = config();
    programs.iter().map(|p| analyze(p, &cfg)).collect()
}

/// One candidate per distinct surviving (use, free) pair, classified
/// by the planted kind of its cluster.
#[must_use]
fn candidates(apps: &[App], analyses: &[Analysis<'_>]) -> Vec<Candidate> {
    let mut out = Vec::new();
    for (i, (app, a)) in apps.iter().zip(analyses).enumerate() {
        let p = a.program();
        let mut seen = BTreeSet::new();
        for w in a.survivors() {
            if !seen.insert(w.pair()) {
                continue;
            }
            let owner = p.class(p.outermost_class(p.field(w.field).owner())).name();
            if let Some(kind) = cluster_of(&app.planted, owner) {
                out.push(Candidate {
                    app: i,
                    id: warning_id(p, a.threads(), w),
                    kind,
                });
            }
        }
    }
    out
}

/// What a confirmation decided, in the fields the fidelity check
/// compares: verdict, states explored, witness schedule.
type Decision = (ConfirmVerdict, u64, Option<String>);

/// The warning with a given id.
fn warning<'a>(a: &'a Analysis<'_>, id: &str) -> Option<&'a UafWarning> {
    a.warnings()
        .iter()
        .find(|w| warning_id(a.program(), a.threads(), w) == id)
}

/// `confirm_warning` composed from the confirm and dynamic layers'
/// public functions, one span per layer step.
fn compose(a: &Analysis<'_>, w: &UafWarning, cfg: &ConfirmConfig, tr: &mut Tracer) -> Decision {
    let program = a.program();
    let threads = a.threads();
    let proof = tr.leaf("confirm.precheck", || {
        let unreachable = [w.use_thread, w.free_thread].iter().any(|&t| {
            threads
                .thread(t)
                .component()
                .is_some_and(|c| !program.component_reachable(program.outermost_class(c)))
        });
        unreachable || a.hb().must_hb(w.use_thread, w.free_thread)
    });
    if proof {
        return (ConfirmVerdict::Infeasible, 0, None);
    }
    let goal = Goal::Pair {
        use_instr: w.use_access.instr,
        free_instr: w.free_access.instr,
    };
    let directed = tr.leaf("confirm.directed", || {
        let guide = EvidenceGuide::from_warning(a, w, true);
        explore_guided(program, goal, cfg.directed, Some(&guide))
    });
    let (found, prior) = match directed {
        Exploration::Witness(found) => (found, 0),
        Exploration::Exhausted { states, .. } => {
            let fallback = tr.leaf("confirm.fallback", || {
                let guide = EvidenceGuide::from_warning(a, w, false);
                explore_guided(program, goal, cfg.fallback, Some(&guide))
            });
            let total = states as u64;
            match fallback {
                Exploration::Witness(found) => (found, total),
                Exploration::Exhausted { states, complete } => {
                    let verdict = if complete {
                        ConfirmVerdict::Infeasible
                    } else {
                        ConfirmVerdict::Unconfirmed
                    };
                    tr.count("confirm.states", (total + states as u64) as f64);
                    return (verdict, total + states as u64, None);
                }
            }
        }
    };
    let min = tr.leaf("dynamic.minimize", || {
        minimize_schedule(program, &found.schedule, &found.npe)
    });
    tr.count("dynamic.minimize_in", found.schedule.len() as f64);
    tr.count("dynamic.minimize_out", min.len() as f64);
    let mut world = tr.leaf("dynamic.world_new", || World::new(program));
    tr.leaf("dynamic.replay", || {
        for step in &min {
            if !world.step(step) {
                break;
            }
        }
    });
    let states = prior + found.states_explored as u64;
    tr.count("confirm.states", states as f64);
    if world.npe.as_ref() != Some(&found.npe) {
        // The program asserts this; a composition that disagrees
        // reports no schedule, so the fidelity check fails.
        return (ConfirmVerdict::Confirmed, states, None);
    }
    let schedule = tr.leaf("dynamic.encode", || encode_schedule(&min));
    (ConfirmVerdict::Confirmed, states, Some(schedule))
}

/// A drawn pair with what its op needs.
struct Pair {
    /// Index of the pair's app.
    app: usize,
    /// The representative warning.
    warning: UafWarning,
    /// Its stable id.
    id: String,
    /// Its planted class.
    class: PairClass,
}

/// The confirm-sample stream: one step per drawn pair, one round per
/// draw.
pub struct Confirm {
    analyses: Vec<Analysis<'static>>,
    pairs: Vec<Pair>,
    next: usize,
    cfg: ConfirmConfig,
}

impl Confirm {
    /// Parse and analyze `apps`, then resolve the pairs `pick` draws
    /// from their candidates. The programs live for the rest of the
    /// process, as the analyses borrow them.
    ///
    /// # Errors
    ///
    /// A parse error, or a draw the analyses cannot resolve.
    pub fn new(
        apps: &[App],
        pick: impl FnOnce(&[Candidate]) -> Result<Vec<Candidate>, String>,
    ) -> Result<Confirm, String> {
        let programs: &'static [Program] = Box::leak(parse_all(apps)?.into_boxed_slice());
        let analyses = analyze_all(programs);
        let draw = pick(&candidates(apps, &analyses))?;
        let pairs = draw
            .iter()
            .map(|c| {
                let a = &analyses[c.app];
                Ok(Pair {
                    app: c.app,
                    warning: warning(a, &c.id)
                        .ok_or_else(|| format!("no warning {}", c.id))?
                        .clone(),
                    id: c.id.clone(),
                    class: pair_class(c.kind)
                        .ok_or_else(|| format!("{:?} is not drawn", c.kind))?,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Confirm {
            analyses,
            pairs,
            next: 0,
            cfg: ConfirmConfig::default(),
        })
    }
}

impl Stream for Confirm {
    fn step(&mut self, run: &mut Run) -> bool {
        run.attempted += 1;
        let pair = &self.pairs[self.next];
        op(&self.analyses[pair.app], pair, &self.cfg, run);
        self.next = (self.next + 1) % self.pairs.len();
        self.next == 0
    }
}

fn op(analysis: &Analysis<'_>, pair: &Pair, cfg: &ConfirmConfig, run: &mut Run) {
    let class = match pair.class {
        PairClass::Witness => WITNESS,
        PairClass::Exhaust => EXHAUST,
    };
    let t = Instant::now();
    let (decision, composed) = match &mut run.trace {
        None => {
            let decision = confirm_by_id(analysis, &pair.id, cfg);
            run.sample(class, &pair.id, ms_since(t));
            (decision, None)
        }
        Some(tr) => {
            tr.begin_op();
            let found = tr.leaf("confirm.lookup", || warning(analysis, &pair.id));
            let composed = found.map(|w| compose(analysis, w, cfg, tr));
            tr.end_op();
            run.sample(class, &pair.id, ms_since(t));
            // The untraced path, outside the op, for the fidelity check.
            (confirm_by_id(analysis, &pair.id, cfg), Some(composed))
        }
    };
    let Some(wc) = decision else {
        run.failed += 1;
        run.checked(
            &pair.id,
            Err("confirm found no warning with that id".into()),
        );
        return;
    };
    let c = &wc.confirmation;
    run.checked(&pair.id, check::verdict(pair.class, c.verdict));
    if let Some(s) = &c.schedule {
        run.checked(
            &pair.id,
            check::witness(
                analysis.program(),
                s,
                pair.warning.use_access.instr,
                pair.warning.free_access.instr,
            ),
        );
    }
    if let Some(composed) = composed {
        let untraced = (c.verdict, c.states_explored, c.schedule.clone());
        if composed.as_ref() != Some(&untraced) {
            run.checked(
                &pair.id,
                Err(format!(
                    "traced confirmation {composed:?} != untraced {untraced:?}"
                )),
            );
        }
    }
}
