//! Tests of the benchmark itself: every check rejects a corrupted
//! output, the inputs are a pure function of (workload, seed), and the
//! traced composition agrees with the untraced path.

use nadroid_confirm::{confirm_by_id, ConfirmConfig};
use nadroid_core::{analyze, render_explain, render_report, ConfirmVerdict};
use nadroid_corpus::{AppSpec, PatternKind};
use nadroid_detector::warning_id;
use nadroid_dynamic::{decode_schedule, encode_schedule};
use nadroid_e2e_bench::confirm::Confirm;
use nadroid_e2e_bench::gen::{self, App, PairClass, Truth};
use nadroid_e2e_bench::scale::Scale;
use nadroid_e2e_bench::serve::Serve;
use nadroid_e2e_bench::trace::Tracer;
use nadroid_e2e_bench::{check, config, Run, Stream};
use nadroid_ir::parse_program;

/// A small app with two reported clusters, one refuted, one pruned.
fn small_app() -> App {
    gen::app_of(
        &AppSpec::new("Small", 7)
            .with(PatternKind::HarmfulEcPc, 1)
            .with(PatternKind::FpPath, 1)
            .with(PatternKind::RefuteDialogDismiss, 1)
            .with(PatternKind::Ig, 1),
    )
}

#[test]
fn report_check_rejects_a_dropped_warning() {
    let app = small_app();
    let p = parse_program(&app.dsl).unwrap();
    let report = render_report(&analyze(&p, &config()), None);
    assert_eq!(check::report(&app.truth, &report), Ok(()));
    // Drop the first ranked entry's line.
    let first = report.lines().position(|l| l.starts_with("  #")).unwrap();
    let dropped: String = report
        .lines()
        .enumerate()
        .filter(|(i, _)| *i != first)
        .map(|(_, l)| format!("{l}\n"))
        .collect();
    assert!(check::report(&app.truth, &dropped).is_err());
    // A report claiming one warning fewer.
    let miscounted = report.replace("-> 2 reported", "-> 1 reported");
    assert_ne!(miscounted, report);
    assert!(check::report(&app.truth, &miscounted).is_err());
}

#[test]
fn cold_reply_check_rejects_a_dropped_id_or_a_cache_hit() {
    let app = small_app();
    let p = parse_program(&app.dsl).unwrap();
    let a = analyze(&p, &config());
    let ids: Vec<String> = a
        .survivors()
        .iter()
        .map(|w| warning_id(&p, a.threads(), w))
        .collect();
    let s = a.summary();
    assert_eq!(check::cold_reply(&app.truth, false, &s, &ids), Ok(()));
    assert!(check::cold_reply(&app.truth, false, &s, &ids[1..]).is_err());
    assert!(check::cold_reply(&app.truth, true, &s, &ids).is_err());
    let mut dup = ids.clone();
    dup[1] = dup[0].clone();
    assert!(check::cold_reply(&app.truth, false, &s, &dup).is_err());
    let mut wrong = s;
    wrong.refuted = 0;
    assert!(check::cold_reply(&app.truth, false, &wrong, &ids).is_err());
}

#[test]
fn explain_check_rejects_the_wrong_id() {
    let app = small_app();
    let p = parse_program(&app.dsl).unwrap();
    let a = analyze(&p, &config());
    let ids: Vec<String> = a
        .survivors()
        .iter()
        .map(|w| warning_id(&p, a.threads(), w))
        .collect();
    let text = render_explain(&a, Some(&ids[0]));
    assert_eq!(check::explain_reply(&ids[0], true, &text), Ok(()));
    assert!(check::explain_reply(&ids[1], true, &text).is_err());
    assert!(check::explain_reply(&ids[0], false, &text).is_err());
    assert!(check::explain_reply(&ids[0], true, &render_explain(&a, None)).is_err());
}

#[test]
fn verdict_check_rejects_a_flipped_verdict() {
    assert_eq!(
        check::verdict(PairClass::Witness, ConfirmVerdict::Confirmed),
        Ok(())
    );
    assert_eq!(
        check::verdict(PairClass::Exhaust, ConfirmVerdict::Unconfirmed),
        Ok(())
    );
    assert!(check::verdict(PairClass::Witness, ConfirmVerdict::Unconfirmed).is_err());
    assert!(check::verdict(PairClass::Exhaust, ConfirmVerdict::Confirmed).is_err());
    assert!(check::verdict(PairClass::Exhaust, ConfirmVerdict::Infeasible).is_err());
}

#[test]
fn witness_check_rejects_a_schedule_missing_its_last_step() {
    let app = gen::app_of(&AppSpec::new("Wit", 3).with(PatternKind::HarmfulEcPc, 1));
    let p = parse_program(&app.dsl).unwrap();
    let a = analyze(&p, &config());
    let w = a.survivors()[0];
    let id = warning_id(&p, a.threads(), w);
    let c = confirm_by_id(&a, &id, &ConfirmConfig::default())
        .unwrap()
        .confirmation;
    let schedule = c.schedule.expect("a planted Harmful pair confirms");
    let (u, f) = (w.use_access.instr, w.free_access.instr);
    assert_eq!(check::witness(&p, &schedule, u, f), Ok(()));
    let mut steps = decode_schedule(&schedule).unwrap();
    steps.pop();
    assert!(check::witness(&p, &encode_schedule(&steps), u, f).is_err());
    // The right schedule held against another pair's use fails too.
    assert!(check::witness(&p, &schedule, f, u).is_err());
}

#[test]
fn truth_counts_follow_the_planted_kinds() {
    let t = Truth::of(&[
        PatternKind::HarmfulPcPc,
        PatternKind::FpMissingHb,
        PatternKind::RefuteTaskStack,
        PatternKind::Tt,
        PatternKind::MissedOpaque,
        PatternKind::Benign,
    ]);
    assert_eq!(t.detected, 4);
    assert_eq!(t.reported, 2);
    assert_eq!(t.refuted, 1);
    assert_eq!(t.after_unsound(), 3);
}

#[test]
fn inputs_are_a_pure_function_of_workload_and_seed() {
    assert_eq!(gen::scale_population(5, 40), gen::scale_population(5, 40));
    assert_ne!(gen::scale_population(5, 40), gen::scale_population(6, 40));
    assert_eq!(gen::serve_pass(5, 1), gen::serve_pass(5, 1));
    assert_ne!(gen::serve_pass(5, 1), gen::serve_pass(6, 1));
    let names = |apps: Vec<App>| apps.into_iter().map(|a| a.name).collect::<Vec<_>>();
    let (p0, p1) = (names(gen::serve_pass(5, 0)), names(gen::serve_pass(5, 1)));
    assert!(
        p0.iter().all(|n| !p1.contains(n)),
        "every pass is a cache miss"
    );
    let ids: Vec<String> = (0..9).map(|i| format!("w:{i}")).collect();
    assert_eq!(
        gen::explain_order(5, "A", &ids),
        gen::explain_order(5, "A", &ids)
    );
    let apps = gen::paper_apps();
    let candidates: Vec<gen::Candidate> = (0..6)
        .flat_map(|i| {
            [PatternKind::HarmfulPcPc, PatternKind::FpPath].map(|kind| gen::Candidate {
                app: i % 2 + 8 * (i / 3),
                id: format!("w:{i}"),
                kind,
            })
        })
        .collect();
    assert_eq!(
        gen::confirm_draw(5, &apps, &candidates),
        gen::confirm_draw(5, &apps, &candidates)
    );
}

#[test]
fn the_scale_stream_passes_its_checks_traced_and_untraced() {
    let apps = gen::scale_population(9, 30);
    for traced in [false, true] {
        let mut run = Run::new(traced);
        let mut s = Scale::new(apps.clone());
        while !s.step(&mut run) {}
        assert_eq!((run.attempted, run.failed), (30, 0));
        assert_eq!(run.wrong_count, 0, "{:?}", run.wrong);
    }
}

#[test]
fn the_serve_stream_passes_its_checks_traced_and_untraced() {
    for traced in [false, true] {
        let mut run = Run::new(traced);
        let pass = |p| {
            vec![gen::app_of(
                &AppSpec::new(format!("Srv{p}"), p)
                    .with(PatternKind::HarmfulPcPc, 2)
                    .with(PatternKind::FpPointsTo, 1)
                    .with(PatternKind::Ma, 1),
            )]
        };
        let mut s = Serve::new(1, Box::new(pass)).unwrap();
        assert!(s.step(&mut run) && s.step(&mut run), "one app per pass");
        s.finish(&mut run);
        assert_eq!((run.attempted, run.failed), (8, 0), "2 cold + 6 explains");
        assert_eq!(run.wrong_count, 0, "{:?}", run.wrong);
        if let Some(tr) = &run.trace {
            assert!(tr.counter("serve.cache_hits") >= 6.0);
        }
    }
}

#[test]
fn the_confirm_stream_passes_its_checks_traced_and_untraced() {
    let apps = vec![gen::app_of(
        &AppSpec::new("Conf", 2)
            .with(PatternKind::HarmfulEcPc, 1)
            .with(PatternKind::HarmfulCRt, 1)
            .with(PatternKind::Ig, 1),
    )];
    for traced in [false, true] {
        let mut run = Run::new(traced);
        let mut s = Confirm::new(&apps, |c| Ok(c.to_vec())).unwrap();
        while !s.step(&mut run) {}
        assert_eq!((run.attempted, run.failed), (2, 0));
        assert_eq!(run.wrong_count, 0, "{:?}", run.wrong);
    }
}

#[test]
fn self_times_subtract_children_and_expose_the_uncovered_share() {
    let mut tr = Tracer::new();
    tr.begin_op();
    tr.leaf("a", || {
        std::thread::sleep(std::time::Duration::from_millis(4))
    });
    tr.leaf("b", || {
        std::thread::sleep(std::time::Duration::from_millis(4))
    });
    std::thread::sleep(std::time::Duration::from_millis(4));
    tr.end_op();
    let own = tr.self_ms();
    assert!(own["a"] >= 4.0 && own["b"] >= 4.0 && own["op"] >= 4.0);
    // The op's self time is its duration less its children's, so the
    // three self times add up to the op's wall time.
    let share = tr.uncovered_share();
    let total = own["op"] + own["a"] + own["b"];
    assert!((share - own["op"] / total).abs() < 1e-9, "{share}");
    assert_eq!(tr.spans().len(), 3);
    assert_eq!(tr.spans()[1].parent, Some(0));
}
