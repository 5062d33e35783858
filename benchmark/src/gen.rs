//! Workload inputs. Every function here is a pure function of its
//! arguments (the workload seed among them): the same seed yields
//! byte-identical DSL text, the same truth, and the same draw order.
//!
//! The truth of an app is computed from the planted pattern multiset
//! (`nadroid-corpus` certifies each pattern's expected outcome), never
//! from running the analysis.

use nadroid_corpus::suite::{spec_for, table1_rows};
use nadroid_corpus::{generate, AppSpec, Expectation, PatternKind};
use nadroid_ir::print_program;

/// A small deterministic generator (splitmix64): the benchmark's only
/// source of randomness, so inputs depend on the seed alone.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose (`stream`) of one seed.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
    }
}

/// What the analysis must report for an app, from its planted clusters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Truth {
    /// Planted clusters the detector finds (every kind but undetected
    /// and benign ones): the expected `potential`.
    pub detected: usize,
    /// Planted clusters expected to survive the §6 filters and be
    /// reported: Harmful plus FalsePositive kinds.
    pub reported: usize,
    /// Planted clusters the refuter must refute.
    pub refuted: usize,
}

impl Truth {
    /// The truth of a planted multiset.
    #[must_use]
    pub fn of(planted: &[PatternKind]) -> Truth {
        let mut t = Truth::default();
        for k in planted {
            if k.detected() {
                t.detected += 1;
            }
            match k.expectation() {
                Expectation::Harmful(_) | Expectation::FalsePositive(_) => t.reported += 1,
                Expectation::Refuted(_) => t.refuted += 1,
                _ => {}
            }
        }
        t
    }

    /// Expected `after_unsound`: reported plus refuted clusters (the
    /// refuter runs after the unsound filters).
    #[must_use]
    pub fn after_unsound(&self) -> usize {
        self.reported + self.refuted
    }
}

/// One generated app: its DSL text (what a user would hand the CLI or
/// the daemon) and its planted truth.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct App {
    /// The app name as it appears in the DSL.
    pub name: String,
    /// DSL source text.
    pub dsl: String,
    /// Planted clusters, in cluster-index order.
    pub planted: Vec<PatternKind>,
    /// Expected analysis counts.
    pub truth: Truth,
}

/// Generate an app from a spec and render it back to DSL text.
#[must_use]
pub fn app_of(spec: &AppSpec) -> App {
    let g = generate(spec);
    App {
        name: g.program.name().to_owned(),
        dsl: print_program(&g.program),
        truth: Truth::of(&g.planted),
        planted: g.planted,
    }
}

use PatternKind as K;

/// Cluster kinds of the scale population with their weights (per
/// mille). Mostly filter-pruned mass, as in the paper's Figure 5, with
/// every certified refutation pattern and both kept controls present.
const SCALE_MIX: &[(PatternKind, u32)] = &[
    (K::Ig, 250),
    (K::Mhb, 60),
    (K::Ia, 60),
    (K::MhbIg, 40),
    (K::MhbIa, 40),
    (K::Phb, 30),
    (K::Rhb, 15),
    (K::Chb, 15),
    (K::Ma, 60),
    (K::Ur, 60),
    (K::MaUr, 25),
    (K::Tt, 40),
    (K::ChbFalseNegative, 10),
    (K::HarmfulEcEc, 10),
    (K::HarmfulEcPc, 15),
    (K::HarmfulPcPc, 15),
    (K::HarmfulCRt, 10),
    (K::HarmfulCNt, 15),
    (K::HarmfulMultiLooper, 10),
    (K::FpPath, 15),
    (K::FpPointsTo, 10),
    (K::FpUnreachable, 5),
    (K::FpMissingHb, 10),
    (K::RefuteDialogDismiss, 12),
    (K::RefuteAlarmCancel, 12),
    (K::RefuteReceiverUnregister, 12),
    (K::RefuteBindUnbind, 12),
    (K::RefuteFragmentLifecycle, 12),
    (K::RefuteTaskStack, 12),
    (K::PredicateKeptSkipPath, 15),
    (K::PredicateKeptLateDisable, 15),
    (K::MissedOpaque, 10),
    (K::Benign, 18),
];

fn draw_kind(rng: &mut Rng) -> PatternKind {
    let total: u32 = SCALE_MIX.iter().map(|(_, w)| w).sum();
    let mut x = (rng.next_u64() % u64::from(total)) as u32;
    for &(k, w) in SCALE_MIX {
        if x < w {
            return k;
        }
        x -= w;
    }
    unreachable!("weights cover the draw")
}

/// Apps in one scale population.
pub const SCALE_APPS: usize = 2000;

/// Planted-cluster count of the app at position `i` of a population of
/// `n`: the size classes are stratified (their counts are exact, only
/// their positions and contents follow the seed) so that the tail
/// percentiles of different seeds land on the same size class.
fn scale_clusters(i: usize, n: usize, rng: &mut Rng) -> usize {
    let k9 = n / 200; // K-9-sized
    let mid = n / 50;
    let small = n / 12;
    if i < k9 {
        200 + rng.below(40)
    } else if i < k9 + mid {
        22 + rng.below(7)
    } else if i < k9 + mid + small {
        10 + rng.below(5)
    } else {
        2 + rng.below(4)
    }
}

/// The scale-analyze population: `n` apps, heavy-tailed in size (most
/// have 2-5 clusters, one in 200 is K-9-sized), in seeded order.
#[must_use]
pub fn scale_population(seed: u64, n: usize) -> Vec<App> {
    let mut rng = Rng::new(seed, 1);
    let mut apps: Vec<App> = (0..n)
        .map(|i| {
            let clusters = scale_clusters(i, n, &mut rng);
            let mut spec = AppSpec::new(format!("scale_s{seed}_{i}"), rng.next_u64());
            for _ in 0..clusters {
                spec = spec.with(draw_kind(&mut rng), 1);
            }
            app_of(&spec)
        })
        .collect();
    rng.shuffle(&mut apps);
    apps
}

/// Pass `pass` of serve-explain: a seeded layout variant of each of
/// the 27 paper apps under a name no earlier pass used (so its first
/// request is a true cache miss), in Table 1 order. The order is fixed
/// because a cold request's time depends on the one before it (the
/// allocator state a large app leaves behind); a seeded order would
/// make that a difference between seeds.
#[must_use]
pub fn serve_pass(seed: u64, pass: u64) -> Vec<App> {
    let mut rng = Rng::new(seed, 2 + (pass << 8));
    table1_rows()
        .iter()
        .map(|row| {
            let base = spec_for(row);
            let spec = AppSpec {
                name: format!("{}_s{seed}_p{pass}", base.name),
                seed: rng.next_u64(),
                counts: base.counts,
            };
            app_of(&spec)
        })
        .collect()
}

/// Seeded order in which an app's surviving ids are explained.
#[must_use]
pub fn explain_order(seed: u64, app: &str, ids: &[String]) -> Vec<String> {
    let h = app.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    });
    let mut rng = Rng::new(seed, 3 ^ h);
    let mut out = ids.to_vec();
    rng.shuffle(&mut out);
    out
}

/// The 27 paper apps with their fixed layouts (the confirm-sample
/// population).
#[must_use]
pub fn paper_apps() -> Vec<App> {
    table1_rows()
        .iter()
        .map(|row| app_of(&spec_for(row)))
        .collect()
}

/// The class a pair is expected to fall in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PairClass {
    /// Planted Harmful: must be confirmed with a witness.
    Witness,
    /// Planted false positive: the search must exhaust its budgets.
    Exhaust,
}

/// The class of a planted kind, or `None` for kinds the confirm draw
/// leaves out (pruned, refuted, or unreachable clusters: the latter are
/// decided by a reachability fast path without any search).
#[must_use]
pub fn pair_class(kind: PatternKind) -> Option<PairClass> {
    match kind.expectation() {
        Expectation::Harmful(_) => Some(PairClass::Witness),
        Expectation::FalsePositive(_) if kind != PatternKind::FpUnreachable => {
            Some(PairClass::Exhaust)
        }
        _ => None,
    }
}

/// A surviving (use, free) pair the confirm draw may pick.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Candidate {
    /// Index of the app in [`paper_apps`].
    pub app: usize,
    /// The representative warning's stable id.
    pub id: String,
    /// The planted kind of the pair's cluster.
    pub kind: PatternKind,
}

/// Apps whose false-positive pairs enter the draw. Exhausting the
/// budgets costs ~8k interpreter states whatever the pair, so its time
/// grows with app size: these three span 75 ms to 1.6 s per pair while
/// keeping a whole draw within a few seconds.
const EXHAUST_APPS: &[&str] = &["Dns66", "KissLauncher", "Music"];

/// The confirm-sample draw: one pair from every (app, kind) stratum of
/// the witness class and of the exhaust class (restricted to
/// [`EXHAUST_APPS`]), picked by the seed; the draw is then put in
/// seeded order. Stratifying keeps the per-class mix identical across
/// seeds, so the seed changes which pairs of a stratum are timed but
/// not what kind of work the draw holds.
#[must_use]
pub fn confirm_draw(seed: u64, apps: &[App], candidates: &[Candidate]) -> Vec<Candidate> {
    use std::collections::BTreeMap;
    let mut strata: BTreeMap<(usize, PatternKind), Vec<&Candidate>> = BTreeMap::new();
    for c in candidates {
        let keep = match pair_class(c.kind) {
            Some(PairClass::Witness) => true,
            Some(PairClass::Exhaust) => EXHAUST_APPS.contains(&apps[c.app].name.as_str()),
            None => false,
        };
        if keep {
            strata.entry((c.app, c.kind)).or_default().push(c);
        }
    }
    let mut rng = Rng::new(seed, 4);
    let mut draw: Vec<Candidate> = strata
        .values()
        .map(|members| members[rng.below(members.len())].clone())
        .collect();
    rng.shuffle(&mut draw);
    draw
}

/// The cluster a warning belongs to: generated clusters name their
/// classes `<Prefix><index>`, so the outermost class owning the racy
/// field carries the index into the planted list.
#[must_use]
pub fn cluster_of(planted: &[PatternKind], owner_class: &str) -> Option<PatternKind> {
    let index_at = owner_class.len()
        - owner_class
            .bytes()
            .rev()
            .take_while(u8::is_ascii_digit)
            .count();
    owner_class[index_at..]
        .parse::<usize>()
        .ok()
        .and_then(|i| planted.get(i).copied())
}
