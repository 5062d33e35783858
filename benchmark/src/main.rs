//! `nadroid-e2e-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for `--seconds`, checks every op's output, and
//! prints as its last stdout line one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics, or with
//! `--trace 1` the per-layer ones). See `README.md`.

use nadroid_corpus::PatternKind;
use nadroid_e2e_bench::confirm::{self, Confirm};
use nadroid_e2e_bench::gen::{self, App, Candidate};
use nadroid_e2e_bench::scale::{self, Scale};
use nadroid_e2e_bench::serve::{self, Serve};
use nadroid_e2e_bench::stats::{self, mean, percentile};
use nadroid_e2e_bench::{host, interleave, Run, Stream};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// End-to-end metrics and units, in output order.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("cold_p50_ms", "ms"),
    ("cold_mean_ms", "ms"),
    ("explain_p50_ms", "ms"),
    ("explain_p90_ms", "ms"),
    ("witness_mean_ms", "ms"),
    ("exhaust_mean_ms", "ms"),
];

/// Per-layer metrics and units, in output order.
const PER_LAYER: &[(&str, &str)] = &[
    ("ir.parse_ms", "ms"),
    ("ir.parse_mb_per_s", "MB/s"),
    ("threadify.build_ms", "ms"),
    ("hb.build_ms", "ms"),
    ("pointsto.solve_ms", "ms"),
    ("pointsto.escape_ms", "ms"),
    ("detector.detect_ms", "ms"),
    ("detector.warnings", "count"),
    ("filters.pipeline_ms", "ms"),
    ("filters.refute_ms", "ms"),
    ("filters.survival_ratio", "ratio"),
    ("core.report_ms", "ms"),
    ("core.provenance_ms", "ms"),
    ("core.provenance_json_ms", "ms"),
    ("core.provenance_json_bytes", "bytes"),
    ("core.explain_render_ms", "ms"),
    ("serve.server_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.response_bytes", "bytes"),
    ("serve.cache_bytes", "bytes"),
    ("serve.cache_evictions", "count"),
    ("serve.cache_hit_ratio", "ratio"),
    ("confirm.directed_ms", "ms"),
    ("confirm.fallback_ms", "ms"),
    ("confirm.states", "count"),
    ("confirm.states_per_s", "1/s"),
    ("dynamic.world_new_ms", "ms"),
    ("dynamic.minimize_ms", "ms"),
    ("dynamic.minimize_removed_ratio", "ratio"),
    ("dynamic.replay_ms", "ms"),
    ("host.cpu_s", "s"),
    ("host.runqueue_wait_s", "s"),
    ("host.calibration_ms", "ms"),
];

/// How many times set-up runs; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Seed of the side-stream inputs, which never change with `--seed`.
const SIDE_SEED: u64 = 0x5EED;
/// Apps of the scale side stream's population.
const SIDE_SCALE_APPS: usize = 1000;
/// Paper apps of the serve side stream's passes. Seven apps of
/// distinct cold cost put the median cold request inside one app's
/// block of samples, and their 37 surviving ids put the explain median
/// and 90th percentile inside the Mms and FireFox blocks, away from the
/// jumps between apps.
const SIDE_SERVE_APPS: &[&str] = &[
    "Dns66",
    "KissLauncher",
    "Aard",
    "InstaMaterial",
    "Mms",
    "Music",
    "FireFox",
];
/// Strata of the confirm side stream's draw (the first pair of each).
const SIDE_CONFIRM: &[(&str, PatternKind)] = &[
    ("Aard", PatternKind::HarmfulEcPc),
    ("Aard", PatternKind::HarmfulPcPc),
    ("ConnectBot", PatternKind::HarmfulEcPc),
    ("Dns66", PatternKind::FpPath),
    ("KissLauncher", PatternKind::FpPointsTo),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// What a workload hands back: its run, the median set-up time, the
/// peak RSS at the end of its measured interval, host CPU and wait
/// seconds over that interval, and the op classes that are its own.
struct Measured {
    run: Run,
    setup_s: f64,
    peak_rss_mb: f64,
    host: (f64, f64),
    own: &'static [&'static str],
}

/// Run `setup` [`SETUP_REPS`] times, keeping the last result and the
/// median time.
fn timed_setups<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        // The previous set-up is dropped (a daemon stops) before the
        // next one is timed.
        drop(last.take());
        let t = Instant::now();
        last = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), percentile(&times, 50.0)))
}

fn side_scale() -> Scale {
    Scale::new(gen::scale_population(SIDE_SEED, SIDE_SCALE_APPS))
}

fn side_serve() -> Result<Serve, String> {
    let pass = |p| -> Vec<App> {
        gen::serve_pass(SIDE_SEED, p)
            .into_iter()
            .filter(|a| {
                SIDE_SERVE_APPS
                    .iter()
                    .any(|n| a.name.starts_with(&format!("{n}_s")))
            })
            .collect()
    };
    Serve::new(SIDE_SEED, Box::new(pass))
}

fn side_confirm() -> Result<Confirm, String> {
    let apps: Vec<App> = gen::paper_apps()
        .into_iter()
        .filter(|a| SIDE_CONFIRM.iter().any(|(n, _)| a.name == *n))
        .collect();
    Confirm::new(&apps, |candidates| {
        SIDE_CONFIRM
            .iter()
            .map(|&(app, kind)| {
                candidates
                    .iter()
                    .find(|c| apps[c.app].name == app && c.kind == kind)
                    .cloned()
                    .ok_or_else(|| format!("side stratum {app}/{kind:?} is empty"))
            })
            .collect::<Result<Vec<Candidate>, String>>()
    })
}

/// Interleave the streams for `--seconds`, with host evidence and the
/// peak RSS taken over that interval.
fn measure(
    a: &Args,
    main: &mut dyn Stream,
    sides: &mut [&mut dyn Stream],
) -> (Run, f64, (f64, f64)) {
    let mut run = Run::new(a.trace);
    let before = host::schedstat_ns();
    interleave(main, sides, Duration::from_secs(a.seconds), &mut run);
    let after = host::schedstat_ns();
    (
        run,
        host::peak_rss_mb(),
        host::cpu_and_wait_s(before, after),
    )
}

fn scale_analyze(a: &Args) -> Result<Measured, String> {
    let ((mut main, mut serve, mut conf), setup_s) = timed_setups(|| {
        let main = Scale::new(gen::scale_population(a.seed, gen::SCALE_APPS));
        Ok((main, side_serve()?, side_confirm()?))
    })?;
    let (mut run, peak_rss_mb, host) = measure(a, &mut main, &mut [&mut serve, &mut conf]);
    serve.finish(&mut run);
    Ok(Measured {
        run,
        setup_s,
        peak_rss_mb,
        host,
        own: &[scale::CLASS],
    })
}

fn serve_explain(a: &Args) -> Result<Measured, String> {
    let seed = a.seed;
    let ((mut main, mut scale, mut conf), setup_s) = timed_setups(|| {
        let main = Serve::new(seed, Box::new(move |p| gen::serve_pass(seed, p)))?;
        Ok((main, side_scale(), side_confirm()?))
    })?;
    let (mut run, peak_rss_mb, host) = measure(a, &mut main, &mut [&mut scale, &mut conf]);
    main.finish(&mut run);
    Ok(Measured {
        run,
        setup_s,
        peak_rss_mb,
        host,
        own: &[serve::COLD, serve::EXPLAIN],
    })
}

fn confirm_sample(a: &Args) -> Result<Measured, String> {
    let ((mut main, mut scale, mut serve), setup_s) = timed_setups(|| {
        let apps = gen::paper_apps();
        let main = Confirm::new(&apps, |c| Ok(gen::confirm_draw(a.seed, &apps, c)))?;
        Ok((main, side_scale(), side_serve()?))
    })?;
    let (mut run, peak_rss_mb, host) = measure(a, &mut main, &mut [&mut scale, &mut serve]);
    serve.finish(&mut run);
    Ok(Measured {
        run,
        setup_s,
        peak_rss_mb,
        host,
        own: &[confirm::WITNESS, confirm::EXHAUST],
    })
}

/// The end-to-end values at the reference host speed: times divided by
/// the run's host slowdown, rates multiplied by it, memory as measured.
fn at_reference_speed(raw: &[f64], slowdown: f64) -> Vec<f64> {
    END_TO_END
        .iter()
        .zip(raw)
        .map(|(&(_, unit), v)| match unit {
            "ms" | "s" => v / slowdown,
            "1/s" => v * slowdown,
            _ => *v,
        })
        .collect()
}

/// The end-to-end values as measured, in [`END_TO_END`] order.
fn end_to_end(m: &Measured) -> Vec<f64> {
    let r = &m.run;
    let own_ms: Vec<f64> = m.own.iter().flat_map(|c| r.per_input(c)).collect();
    let ops_per_s = own_ms.len() as f64 / (own_ms.iter().sum::<f64>() / 1e3);
    vec![
        m.setup_s,
        ops_per_s,
        m.peak_rss_mb,
        percentile(&r.per_input(scale::CLASS), 50.0),
        percentile(&r.per_input(scale::CLASS), 99.0),
        percentile(&r.per_input(serve::COLD), 50.0),
        mean(&r.per_input(serve::COLD)),
        percentile(&r.per_input(serve::EXPLAIN), 50.0),
        percentile(&r.per_input(serve::EXPLAIN), 90.0),
        mean(&r.per_input(confirm::WITNESS)),
        mean(&r.per_input(confirm::EXHAUST)),
    ]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn per_layer(m: &Measured) -> Vec<f64> {
    let tr = m.run.trace.as_ref().expect("traced run");
    let own = tr.self_ms();
    let t = |name: &str| own.get(name).copied().unwrap_or(0.0);
    let c = |name: &str| tr.counter(name);
    let search_ms = t("confirm.directed") + t("confirm.fallback");
    vec![
        t("ir.parse"),
        ratio(c("ir.parse_bytes") / 1e6, t("ir.parse") / 1e3),
        t("threadify.build"),
        t("hb.build"),
        t("pointsto.solve"),
        t("pointsto.escape"),
        t("detector.detect"),
        c("detector.warnings"),
        t("filters.pipeline"),
        t("filters.refute"),
        ratio(c("filters.survivors"), c("detector.warnings")),
        t("core.report"),
        t("core.provenance"),
        t("core.provenance_json"),
        c("core.provenance_json_bytes"),
        t("core.explain_render"),
        c("serve.server_ms"),
        c("serve.overhead_ms"),
        c("serve.response_bytes"),
        c("serve.cache_bytes"),
        c("serve.cache_evictions"),
        ratio(
            c("serve.cache_hits"),
            c("serve.cache_hits") + c("serve.cache_misses"),
        ),
        t("confirm.directed"),
        t("confirm.fallback"),
        c("confirm.states"),
        ratio(c("confirm.states"), search_ms / 1e3),
        t("dynamic.world_new"),
        t("dynamic.minimize"),
        ratio(
            c("dynamic.minimize_in") - c("dynamic.minimize_out"),
            c("dynamic.minimize_in"),
        ),
        t("dynamic.replay"),
        m.host.0,
        m.host.1,
        stats::median(&m.run.calibration),
    ]
}

fn result_line(m: &Measured, table: &[(&str, &str)], values: &[f64]) -> String {
    let r = &m.run;
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        r.wrong_count == 0 && values.iter().all(|v| v.is_finite()),
        r.attempted,
        r.failed
    );
    for (i, ((name, unit), v)) in table.iter().zip(values).enumerate() {
        let v = if v.is_finite() { *v } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: nadroid-e2e-bench --workload <scale-analyze|serve-explain|confirm-sample> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let measured = match args.workload.as_str() {
        "scale-analyze" => scale_analyze(&args),
        "serve-explain" => serve_explain(&args),
        "confirm-sample" => confirm_sample(&args),
        other => Err(format!("unknown workload {other}")),
    };
    let m = match measured {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for w in &m.run.wrong {
        eprintln!("check failed: {w}");
    }
    if m.run.wrong_count > 0 {
        eprintln!("{} ops failed their checks", m.run.wrong_count);
    }
    println!(
        "host: cpu_s={:.4} runqueue_wait_s={:.4} (measured interval, this process)",
        m.host.0, m.host.1
    );
    let line = if let Some(tr) = &m.run.trace {
        println!("trace: uncovered_share={:.4}", tr.uncovered_share());
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/traces");
        let path = format!("{dir}/{}-seed{}.jsonl", args.workload, args.seed);
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tr.to_jsonl())) {
            Ok(()) => println!("trace: {} spans written to {path}", tr.spans().len()),
            Err(e) => eprintln!("trace: could not write {path}: {e}"),
        }
        result_line(&m, PER_LAYER, &per_layer(&m))
    } else {
        let raw = end_to_end(&m);
        let slowdown = m.run.host_slowdown();
        println!(
            "raw: host_slowdown={slowdown:.4} {}",
            result_line(&m, END_TO_END, &raw)
        );
        result_line(&m, END_TO_END, &at_reference_speed(&raw, slowdown))
    };
    println!("{line}");
    ExitCode::SUCCESS
}
