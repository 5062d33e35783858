//! Output checks. Each compares a program output against the planted
//! truth or against a property the method must have, never against a
//! saved copy of earlier output. Every check returns the reason it
//! failed, so a failing run can say which op broke what.

use crate::gen::{PairClass, Truth};
use nadroid_core::{ConfirmVerdict, Summary};
use nadroid_dynamic::{decode_schedule, World};
use nadroid_ir::{InstrId, Program};

/// The analysis counts must match the planted clusters.
///
/// # Errors
///
/// Names the first count that differs.
pub fn summary(truth: &Truth, s: &Summary) -> Result<(), String> {
    let pairs = [
        ("potential", s.potential, truth.detected),
        ("after_unsound", s.after_unsound, truth.after_unsound()),
        ("refuted", s.refuted, truth.refuted),
        ("after_refutation", s.after_refutation, truth.reported),
    ];
    for (what, got, want) in pairs {
        if got != want {
            return Err(format!("{what} = {got}, planted truth says {want}"));
        }
    }
    Ok(())
}

/// The rendered report must state the planted counts in its header and
/// list exactly `reported` ranked warnings.
///
/// # Errors
///
/// Names the header field or the entry count that differs.
pub fn report(truth: &Truth, text: &str) -> Result<(), String> {
    let header = text
        .lines()
        .find(|l| l.contains("potential UAF pairs"))
        .ok_or("report has no counts line")?;
    let numbers: Vec<usize> = header
        .split_whitespace()
        .filter_map(|w| w.parse().ok())
        .collect();
    // `after_sound` has no planted truth (a pattern pruned by an
    // unsound filter may or may not pass the sound ones first), so the
    // second count is taken as reported.
    let want: Vec<usize> = if truth.refuted == 0 {
        vec![
            truth.detected,
            numbers.get(1).copied().unwrap_or(0),
            truth.reported,
        ]
    } else {
        vec![
            truth.detected,
            numbers.get(1).copied().unwrap_or(0),
            truth.after_unsound(),
            truth.refuted,
            truth.reported,
        ]
    };
    if numbers != want {
        return Err(format!(
            "report counts {numbers:?}, planted truth says {want:?}"
        ));
    }
    let entries = text
        .lines()
        .filter(|l| l.starts_with("  #") && l.contains('['))
        .count();
    if entries != truth.reported {
        return Err(format!(
            "report lists {entries} warnings, planted truth says {}",
            truth.reported
        ));
    }
    Ok(())
}

/// A cold `analyze` reply: computed fresh, with the planted counts and
/// exactly `reported` distinct surviving ids.
///
/// # Errors
///
/// Names what differs.
pub fn cold_reply(truth: &Truth, cached: bool, s: &Summary, ids: &[String]) -> Result<(), String> {
    if cached {
        return Err("first request for a fresh program was served from the cache".into());
    }
    summary(truth, s)?;
    let mut distinct: Vec<&String> = ids.iter().collect();
    distinct.sort();
    distinct.dedup();
    if ids.len() != truth.reported || distinct.len() != ids.len() {
        return Err(format!(
            "reply carries {} ids ({} distinct), planted truth says {}",
            ids.len(),
            distinct.len(),
            truth.reported
        ));
    }
    Ok(())
}

/// A warm single-id `explain` reply: served from the cache, about the
/// requested id only, showing its derivation, its filter audit, and
/// that it survived.
///
/// # Errors
///
/// Names the missing part.
pub fn explain_reply(id: &str, cached: bool, text: &str) -> Result<(), String> {
    if !cached {
        return Err(format!("explain of {id} after analyze was not a cache hit"));
    }
    let headers: Vec<&str> = text.lines().filter(|l| l.starts_with("warning ")).collect();
    if headers != [format!("warning {id}").as_str()] {
        return Err(format!("explain of {id} shows {headers:?}"));
    }
    for (part, what) in [
        ("\n  derivation:\n", "a derivation"),
        ("\n  filter audit:\n", "a filter audit"),
        ("\n  status: survived all filters\n", "the survived status"),
    ] {
        if !text.contains(part) {
            return Err(format!("explain of {id} lacks {what}"));
        }
    }
    if text.contains("(not recorded)") {
        return Err(format!("explain of {id} has no recorded derivation"));
    }
    Ok(())
}

/// A verdict must be Confirmed exactly for planted Harmful pairs, and
/// Unconfirmed (budget exhausted) for the drawn false positives.
///
/// # Errors
///
/// States the verdict and the planted class.
pub fn verdict(class: PairClass, v: ConfirmVerdict) -> Result<(), String> {
    let want = match class {
        PairClass::Witness => ConfirmVerdict::Confirmed,
        PairClass::Exhaust => ConfirmVerdict::Unconfirmed,
    };
    if v == want {
        Ok(())
    } else {
        Err(format!(
            "verdict {v} for a planted {class:?} pair, want {want}"
        ))
    }
}

/// A witness schedule, decoded and replayed in a fresh world, must
/// throw an NPE whose null was loaded by the pair's use and written by
/// the pair's free.
///
/// # Errors
///
/// Says whether decoding failed, no NPE was thrown, or the NPE was
/// another pair's.
pub fn witness(
    program: &Program,
    schedule: &str,
    use_instr: InstrId,
    free_instr: InstrId,
) -> Result<(), String> {
    let steps = decode_schedule(schedule)?;
    let mut world = World::new(program);
    for step in &steps {
        if !world.step(step) {
            break;
        }
    }
    match &world.npe {
        None => Err("witness replay threw no NPE".into()),
        Some(npe) if npe.loaded_from == Some(use_instr) && npe.freed_by == Some(free_instr) => {
            Ok(())
        }
        Some(npe) => Err(format!(
            "witness NPE loads from {:?} freed by {:?}, not the pair's own use and free",
            npe.loaded_from, npe.freed_by
        )),
    }
}
