//! End-to-end and per-layer benchmark of nAdroid-rs.
//!
//! Three workloads, one per process (see `README.md` for why each
//! exists and what it should move):
//!
//! - `scale-analyze`: thousands of generated apps through
//!   `parse_program` → `analyze` → `render_report`;
//! - `serve-explain`: layout variants of the 27 paper apps sent to an
//!   in-process `nadroid-serve` daemon, a cold `analyze` then a warm
//!   `explain` per surviving id;
//! - `confirm-sample`: a stratified draw of survivor pairs of the paper
//!   apps through `confirm_by_id`.
//!
//! The untraced mode times those entry points with nothing recorded.
//! The traced mode does the same work by calling each layer's public
//! functions in turn under in-memory spans ([`trace::Tracer`]), checks
//! that the composition gives the same results as the untraced path,
//! and reports per-layer self times and counts.

pub mod check;
pub mod confirm;
pub mod gen;
pub mod host;
pub mod scale;
pub mod serve;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use trace::Tracer;

/// The analysis configuration every workload uses: the defaults with
/// one inner thread, set here rather than read from `NADROID_THREADS`.
#[must_use]
pub fn config() -> nadroid_core::AnalysisConfig {
    nadroid_core::AnalysisConfig {
        threads: 1,
        ..nadroid_core::AnalysisConfig::default()
    }
}

/// One workload's ops as an endless sequence of steps (an app, or a
/// pair) grouped into rounds (a population, a pass, a draw): every run
/// attempts whole rounds of the same ops.
pub trait Stream {
    /// Run the next step's ops into `run`; true when it ended a round.
    fn step(&mut self, run: &mut Run) -> bool;
}

/// Share of a run's time each side stream gets, relative to the main
/// stream's.
pub(crate) const SIDE_SHARE: f64 = 0.15;

/// How often [`interleave`] times the calibration kernel.
pub(crate) const CALIBRATION_EVERY: Duration = Duration::from_millis(100);

/// The calibration kernel's median time at the reference host speed,
/// near its time on the 2-core VM the benchmark was written on when
/// that host ran slow. End-to-end times are reported at this speed.
pub(crate) const CALIBRATION_REF_MS: f64 = 5.5;

/// A fixed CPU and memory kernel timed between ops to track the host's
/// speed: small allocations, string keys hashed into a map, pointer
/// chasing through a tree and a sort, the kinds of work the analysis
/// does. It shares no code with the program, so only the host moves its
/// time.
#[must_use]
pub fn calibration_ms() -> f64 {
    let t = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut groups: std::collections::HashMap<String, Vec<u64>> = std::collections::HashMap::new();
    let mut words: Vec<u64> = Vec::with_capacity(16_384);
    for _ in 0..16_384 {
        let w = next();
        groups.entry(format!("v{}", w % 2048)).or_default().push(w);
        words.push(w);
    }
    words.sort_unstable();
    let index: BTreeMap<u64, usize> = words.iter().step_by(4).copied().zip(0..).collect();
    let hits = words.iter().filter(|w| index.contains_key(w)).count();
    std::hint::black_box((hits, groups.len()));
    ms_since(t)
}

/// Run `main` in whole rounds for at least `d`, interleaving the side
/// streams: after every main step, each side stream runs whole rounds
/// while its time is below [`SIDE_SHARE`] of the main stream's.
/// Interleaving makes every stream sample the same stretch of host
/// time, so a host that runs faster or slower for a few seconds moves
/// all of them alike; running a side round in one piece means that only
/// its first op follows a main op, whose allocations it may inherit.
/// Every [`CALIBRATION_EVERY`], the calibration kernel is timed between
/// two main steps.
pub fn interleave(
    main: &mut dyn Stream,
    sides: &mut [&mut dyn Stream],
    d: Duration,
    run: &mut Run,
) {
    let deadline = Instant::now() + d;
    let mut main_ms = 0.0;
    let mut side_ms = vec![0.0; sides.len()];
    let mut calibrated: Option<Instant> = None;
    loop {
        if calibrated.is_none_or(|c| c.elapsed() >= CALIBRATION_EVERY) {
            run.calibration.push(calibration_ms());
            calibrated = Some(Instant::now());
        }
        let t = Instant::now();
        let ended = main.step(run);
        main_ms += ms_since(t);
        for (side, ms) in sides.iter_mut().zip(&mut side_ms) {
            while *ms < SIDE_SHARE * main_ms {
                let t = Instant::now();
                while !side.step(run) {}
                *ms += ms_since(t);
            }
        }
        if ended && Instant::now() >= deadline {
            return;
        }
    }
}

/// Everything one run measures: latency samples per op class, op and
/// failure counts, check failures, and (traced mode) the spans.
#[derive(Debug, Default)]
pub struct Run {
    /// Latency samples in milliseconds, by op class, each with the
    /// input it was measured on (an app or a pair).
    pub samples: BTreeMap<&'static str, Vec<(String, f64)>>,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops the program failed to complete (an error reply or result).
    pub failed: u64,
    /// Ops whose output failed a check (the first few, with reasons).
    pub wrong: Vec<String>,
    /// Count of failed checks.
    pub wrong_count: u64,
    /// Spans and layer counters, in traced mode.
    pub trace: Option<Tracer>,
    /// Calibration kernel times in milliseconds, taken between ops.
    pub calibration: Vec<f64>,
}

impl Run {
    /// A run; `traced` turns span recording on.
    #[must_use]
    pub fn new(traced: bool) -> Run {
        Run {
            trace: traced.then(Tracer::new),
            ..Run::default()
        }
    }

    /// Record one op's latency under its class and input.
    pub fn sample(&mut self, class: &'static str, input: &str, ms: f64) {
        self.samples
            .entry(class)
            .or_default()
            .push((input.to_owned(), ms));
    }

    /// Record the outcome of one op's check.
    pub fn checked(&mut self, what: &str, r: Result<(), String>) {
        if let Err(e) = r {
            self.wrong_count += 1;
            if self.wrong.len() < 8 {
                self.wrong.push(format!("{what}: {e}"));
            }
        }
    }

    /// How much slower this run's host was than the reference speed:
    /// the calibration kernel's median time over [`CALIBRATION_REF_MS`].
    #[must_use]
    pub fn host_slowdown(&self) -> f64 {
        stats::median(&self.calibration) / CALIBRATION_REF_MS
    }

    /// Samples of one class with each replaced by the median of its
    /// input's samples. A percentile over these is a percentile over
    /// inputs weighted by their op counts: the rank lands in the same
    /// input's block whatever one op's jitter, where raw samples of
    /// unlike inputs (the 27 paper apps) interleave near block edges;
    /// a mean over these ignores a lone op that a host hiccup slowed.
    #[must_use]
    pub fn per_input(&self, class: &str) -> Vec<f64> {
        let mut by_input: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for (input, ms) in self.samples.get(class).map_or(&[][..], Vec::as_slice) {
            by_input.entry(input).or_default().push(*ms);
        }
        by_input
            .values()
            .flat_map(|v| std::iter::repeat_n(stats::median(v), v.len()))
            .collect()
    }
}

/// Milliseconds since `t`.
#[must_use]
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}
