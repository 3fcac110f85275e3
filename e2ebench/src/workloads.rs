//! Workload generators.  Every input is a `RunSpec` *text*, derived from
//! the workload seed alone; the program under test only ever sees that
//! text.
//!
//! Each workload keeps its composition (sizes, palettes, rules, kinds)
//! fixed and lets the seed choose only density seeds, seed fractions and
//! order.  That is what makes runs with different seeds comparable: the
//! same amount of work, on different configurations.

use std::collections::VecDeque;

/// The three torus kinds of the paper, by their spec-text names.
pub const KINDS: [&str; 3] = ["toroidal-mesh", "torus-cordalis", "torus-serpentinus"];

/// The benchmark's workloads.  Names are part of the benchmark's
/// interface: later changes refer to them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// A closed loop of small specs through a one-backend fleet.
    ServedSmall,
    /// Large specs one at a time through `Runner::execute`, in-process.
    BigGrid,
    /// Cache-cold sweeps of medium specs through a two-backend fleet.
    ServedSweep,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::ServedSmall,
        Workload::BigGrid,
        Workload::ServedSweep,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServedSmall => "served-small",
            Workload::BigGrid => "big-grid",
            Workload::ServedSweep => "served-sweep",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// SplitMix64: a tiny, fully specified generator, so a seed yields the
/// same inputs on every machine and toolchain.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one stream of one workload seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One generated job: the spec text the program receives.
#[derive(Clone, Debug, PartialEq)]
pub struct Job {
    /// The `RunSpec` text.
    pub text: String,
    /// Whether the text repeats an earlier job's text verbatim.
    pub repeat: bool,
}

/// Renders a density-seeded torus spec.
fn spec_text(
    kind: &str,
    size: usize,
    rule: &str,
    options: Option<&str>,
    palette: u16,
    fraction: f64,
    rng_seed: u64,
) -> String {
    let options = options.map_or(String::new(), |o| format!("options: {o}\n"));
    format!(
        "topology: {kind} {size}x{size}\nrule: {rule}\n{options}\
         seed: density color={palette} palette={palette} fraction={fraction} rng={rng_seed}\n"
    )
}

/// How many recent distinct specs a `served-small` repeat may pick
/// from.  Far below the service's default result-cache capacity (256),
/// so a repeat is always still cached when it arrives.
pub const REPEAT_WINDOW: usize = 64;

/// One in this many `served-small` requests repeats an earlier spec.
pub const REPEAT_EVERY: u64 = 5;

/// A `served-small` spec shape: size, kind, rule and palette.
type Shape = (usize, &'static str, String, u16);

/// Every `served-small` shape, weighted as uniform draws of size, kind
/// and rule family would weight them: 16², 32² and 64² tori of every
/// kind, with `smp` and `threshold(k,2)` for `k ∈ {2, 3, 5}` and
/// `prefer-black` (a two-colour rule, so `k = 2`) as often as each.
fn small_shapes() -> Vec<Shape> {
    let mut shapes = Vec::with_capacity(81);
    for size in [16, 32, 64] {
        for kind in KINDS {
            for k in [2u16, 3, 5] {
                shapes.push((size, kind, "smp".to_string(), k));
                shapes.push((size, kind, format!("threshold({k},2)"), k));
                shapes.push((size, kind, "prefer-black".to_string(), 2));
            }
        }
    }
    shapes
}

/// `served-small`: an endless stream of small specs in which each run of
/// [`REPEAT_EVERY`] requests holds one verbatim repeat of a recent spec,
/// at a position the seed picks.
///
/// Fresh specs are dealt from shuffled decks of [`small_shapes`], so any
/// stretch of the stream holds nearly the same mix of shapes whatever
/// the seed; the seed picks the order, the seed fractions and the
/// density seeds.
pub struct SmallStream {
    rng: Rng,
    seed: u64,
    deck: Vec<Shape>,
    sent: u64,
    repeat_slot: u64,
    fresh: u64,
    recent: VecDeque<String>,
}

impl SmallStream {
    /// The stream for one workload seed.
    pub fn new(seed: u64) -> SmallStream {
        SmallStream {
            rng: Rng::new(seed, 1),
            seed,
            deck: Vec::new(),
            sent: 0,
            repeat_slot: 0,
            fresh: 0,
            recent: VecDeque::with_capacity(REPEAT_WINDOW),
        }
    }

    fn fresh_text(&mut self) -> String {
        if self.deck.is_empty() {
            self.deck = small_shapes();
            self.rng.shuffle(&mut self.deck);
        }
        let (size, kind, rule, k) = self.deck.pop().expect("the deck was just refilled");
        let fraction = [0.2, 0.3, 0.4, 0.5][self.rng.below(4)];
        // The running count makes every fresh text distinct, so only
        // the deliberate repeats can hit the result cache.
        self.fresh += 1;
        let rng_seed = self.seed.wrapping_mul(1_000_003).wrapping_add(self.fresh);
        spec_text(kind, size, &rule, None, k, fraction, rng_seed)
    }
}

impl Iterator for SmallStream {
    type Item = Job;

    fn next(&mut self) -> Option<Job> {
        let position = self.sent % REPEAT_EVERY;
        if position == 0 {
            self.repeat_slot = self.rng.below(REPEAT_EVERY as usize) as u64;
        }
        self.sent += 1;
        if position == self.repeat_slot && !self.recent.is_empty() {
            let text = self.recent[self.rng.below(self.recent.len())].clone();
            return Some(Job { text, repeat: true });
        }
        let text = self.fresh_text();
        if self.recent.len() == REPEAT_WINDOW {
            self.recent.pop_front();
        }
        self.recent.push_back(text.clone());
        Some(Job {
            text,
            repeat: false,
        })
    }
}

/// `big-grid`: the pool of 27 large specs one pass runs, each once.
///
/// For every kind and `k ∈ {2, 3, 8}`: a 1024² `smp` spec, a 1024²
/// `threshold(k,2)` spec and one 2048² spec whose rule alternates.  Two
/// thirds of the jobs are 1024², so the median sits inside the 1024²
/// class and the 75th percentile inside the 2048² class, away from the
/// gap between them.
pub fn big_grid_pool(seed: u64) -> Vec<Job> {
    let mut rng = Rng::new(seed, 2);
    let mut jobs = Vec::with_capacity(27);
    for (kind_index, kind) in KINDS.into_iter().enumerate() {
        for (k_index, k) in [2u16, 3, 8].into_iter().enumerate() {
            let threshold = format!("threshold({k},2)");
            let big_rule = if (kind_index + k_index) % 2 == 0 {
                "smp"
            } else {
                threshold.as_str()
            };
            for (size, rule) in [(1024, "smp"), (1024, threshold.as_str()), (2048, big_rule)] {
                jobs.push(Job {
                    text: spec_text(
                        kind,
                        size,
                        rule,
                        Some("max-rounds=12 threads=auto"),
                        k,
                        0.3,
                        rng.next_u64() >> 11,
                    ),
                    repeat: false,
                });
            }
        }
    }
    jobs
}

/// `served-sweep`: one batch of 48 medium specs with `threads=1`.
///
/// The composition is fixed — 24 specs of 128², 18 of 256² and 6 of
/// 512², over every kind, `k ∈ {2, 3, 5, 8}`, both rule families and
/// seed fractions 0.2–0.4 — and each half of the batch holds the same
/// mix in the same order, so the fleet's contiguous half-and-half split
/// loads both backends alike.  The round cap sits below the round at
/// which these runs first settle, so every job steps the same number of
/// rounds and a batch is the same work whatever the seed.
pub fn sweep_batch(seed: u64) -> Vec<Job> {
    let mut rng = Rng::new(seed, 3);
    const SIZES: [usize; 8] = [128, 256, 128, 512, 128, 256, 128, 256];
    let mut jobs = Vec::with_capacity(48);
    for half in 0..2 {
        for slot in 0..24 {
            let phase = slot % SIZES.len();
            let size = SIZES[phase];
            let kind = KINDS[(half * 24 + slot) % 3];
            let k = [2u16, 3, 5, 8][phase % 4];
            let rule = if (slot / SIZES.len() + phase / 4).is_multiple_of(2) {
                "smp".to_string()
            } else {
                format!("threshold({k},2)")
            };
            let fraction = [0.2, 0.3, 0.4][slot % 3];
            jobs.push(Job {
                text: spec_text(
                    kind,
                    size,
                    &rule,
                    Some("max-rounds=5 threads=1"),
                    k,
                    fraction,
                    rng.next_u64() >> 11,
                ),
                repeat: false,
            });
        }
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctori_engine::RunSpec;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn generators_are_deterministic_for_a_fixed_seed() {
        let a: Vec<Job> = SmallStream::new(7).take(500).collect();
        let b: Vec<Job> = SmallStream::new(7).take(500).collect();
        assert_eq!(a, b);
        assert_eq!(big_grid_pool(7), big_grid_pool(7));
        assert_eq!(sweep_batch(7), sweep_batch(7));
        // Another seed gives other inputs.
        let c: Vec<Job> = SmallStream::new(8).take(500).collect();
        assert_ne!(a, c);
        assert_ne!(big_grid_pool(7), big_grid_pool(8));
        assert_ne!(sweep_batch(7), sweep_batch(8));
    }

    #[test]
    fn every_generated_text_parses() {
        let texts = SmallStream::new(3)
            .take(300)
            .chain(big_grid_pool(3))
            .chain(sweep_batch(3))
            .map(|job| job.text);
        for text in texts {
            RunSpec::from_text(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        }
    }

    #[test]
    fn small_stream_repeats_one_in_five_and_only_recent_specs() {
        for seed in 0..20 {
            let jobs: Vec<Job> = SmallStream::new(seed).take(500).collect();
            for (group, five) in jobs.chunks(REPEAT_EVERY as usize).enumerate() {
                let repeats = five.iter().filter(|j| j.repeat).count();
                // The first group may have nothing to repeat yet.
                assert!(repeats == 1 || (group == 0 && repeats == 0), "seed {seed}");
            }
        }
        let jobs: Vec<Job> = SmallStream::new(11).take(5000).collect();
        let mut distinct: Vec<&str> = Vec::new();
        for job in &jobs {
            if job.repeat {
                let age = distinct.iter().rev().position(|t| *t == job.text);
                assert!(age.is_some_and(|a| a < REPEAT_WINDOW), "stale repeat");
            } else {
                assert!(!distinct.contains(&job.text.as_str()), "fresh text seen");
                distinct.push(&job.text);
            }
        }
    }

    #[test]
    fn fixed_compositions_do_not_depend_on_the_seed() {
        let shape = |jobs: Vec<Job>| {
            let mut shapes: Vec<String> = jobs
                .iter()
                .map(|j| {
                    let spec = RunSpec::from_text(&j.text).expect("parses");
                    format!("{} {}", spec.topology.to_text(), spec.rule.name())
                })
                .collect();
            shapes.sort();
            shapes
        };
        assert_eq!(shape(big_grid_pool(1)), shape(big_grid_pool(2)));
        assert_eq!(shape(sweep_batch(1)), shape(sweep_batch(2)));
        // Each deck of small shapes holds every shape once.
        let deck = small_shapes().len();
        let fresh = |seed| {
            let jobs: Vec<Job> = SmallStream::new(seed)
                .filter(|j| !j.repeat)
                .take(deck)
                .collect();
            shape(jobs)
        };
        assert_eq!(fresh(1), fresh(2));
        assert_eq!(big_grid_pool(1).len(), 27);
        assert_eq!(sweep_batch(1).len(), 48);
    }
}
