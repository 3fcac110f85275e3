//! The synchronous simulator.
//!
//! The stepper is **incremental**: after the first full round, only the
//! vertices that could possibly change — last round's changed vertices and
//! their out-neighbours — are re-evaluated.  The configuration lives
//! behind the [`StateVec`] abstraction: a generic colour-per-vertex
//! backend for arbitrary rules, palettes and graphs, and the bit-plane
//! lane (see [`crate::planes`]), selected automatically when the rule
//! advertises a [`ctori_protocols::ColorCountRule`] counting form and at
//! most 16 colours are present on a 4-regular torus.

use crate::frontier::Worklist;
use crate::metrics::StepStats;
use crate::observe::StepView;
use crate::parallel::{band_ranges, run_bands};
use crate::planes::{splitmix64, PlaneLane};
use crate::state::{ColorCensus, StateVec};
use ctori_coloring::{Color, Coloring};
use ctori_protocols::LocalRule;
use ctori_topology::{Adjacency, NodeId, NodeSet, Topology, Torus};
use std::collections::HashMap;
use std::sync::OnceLock;

/// How a run terminated.
///
/// Marked `#[non_exhaustive]`: future scenario work (e.g. wall-clock
/// budgets in a service) may add termination causes, so downstream
/// `match`es must keep a wildcard arm.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum Termination {
    /// Every vertex holds the given colour (the paper's monochromatic
    /// configuration).  This is also a fixed point of every rule in the
    /// workspace.
    Monochromatic(Color),
    /// No vertex changed colour in the last round, but the configuration is
    /// not monochromatic.
    FixedPoint,
    /// The configuration repeated an earlier one: the system entered a
    /// limit cycle of the given period (period 1 would have been reported
    /// as a fixed point instead).
    Cycle {
        /// Length of the cycle.
        period: usize,
    },
    /// The round limit of the [`RunConfig`] was reached first.
    RoundLimit,
}

impl Termination {
    /// Whether the run ended in a monochromatic configuration of colour `k`.
    pub fn is_monochromatic_in(&self, k: Color) -> bool {
        matches!(self, Termination::Monochromatic(c) if *c == k)
    }
}

/// Configuration of a [`Simulator::run`] call.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Hard cap on the number of rounds.  The theorems' round counts are
    /// O(m·n), so the default (`4·|V| + 16`) is far above anything a
    /// converging configuration needs.
    pub max_rounds: usize,
    /// Detect limit cycles by hashing configurations.  A hash match alone
    /// is never trusted: the candidate round is re-simulated and the
    /// configurations compared for equality before a cycle is reported, so
    /// hash collisions cannot produce a false [`Termination::Cycle`].
    pub detect_cycles: bool,
    /// Record, for this colour, the round at which each vertex most
    /// recently adopted it (the matrices of Figures 5 and 6).
    pub track_times_for: Option<Color>,
    /// Verify monotonicity with respect to this colour: the set of
    /// `k`-coloured vertices must never lose a member (Definition 3).
    pub check_monotone_for: Option<Color>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            max_rounds: 0, // 0 = auto (4·|V| + 16), resolved in run()
            detect_cycles: true,
            track_times_for: None,
            check_monotone_for: None,
        }
    }
}

impl RunConfig {
    /// A config that tracks everything needed to verify a monotone dynamo
    /// of colour `k` and reproduce its recolouring-time matrix.
    pub fn for_dynamo(k: Color) -> Self {
        RunConfig {
            max_rounds: 0,
            detect_cycles: true,
            track_times_for: Some(k),
            check_monotone_for: Some(k),
        }
    }

    /// Sets an explicit round limit.
    pub fn with_max_rounds(mut self, max_rounds: usize) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Disables cycle detection (slightly faster for throughput benches).
    pub fn without_cycle_detection(mut self) -> Self {
        self.detect_cycles = false;
        self
    }
}

/// Result of a single synchronous round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StepReport {
    /// Number of vertices that changed colour this round.
    pub changed: usize,
    /// The round index that was just completed (1-based).
    pub round: usize,
}

/// Result of a [`Simulator::run`] call.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Why the run stopped.
    pub termination: Termination,
    /// Number of rounds executed.
    pub rounds: usize,
    /// For each vertex, the round at which it most recently adopted the
    /// tracked colour (0 for vertices that started with it); `None` for
    /// vertices that do not currently hold it.  Present only when
    /// [`RunConfig::track_times_for`] was set.
    pub recoloring_times: Option<Vec<Option<usize>>>,
    /// Whether the run was monotone in the checked colour.  Present only
    /// when [`RunConfig::check_monotone_for`] was set.
    pub monotone: Option<bool>,
    /// Number of vertices holding the tracked/checked colour at the end
    /// (equals the vertex count iff the run ended `Monochromatic` in it).
    pub final_target_count: Option<usize>,
}

impl RunReport {
    /// Whether the run converged to the `k`-monochromatic configuration.
    pub fn reached_monochromatic(&self, k: Color) -> bool {
        self.termination.is_monochromatic_in(k)
    }
}

/// Zobrist key of "vertex `v` holds colour `c`".  The state hash is the
/// XOR of the keys of all vertices, so a colour change updates it in O(1).
#[inline]
fn zkey(v: usize, c: Color) -> u64 {
    splitmix64(((v as u64) << 16) ^ u64::from(c.index()))
}

/// Evaluates the rule at one vertex against a frozen configuration.
///
/// On 4-regular topologies (all the paper's tori) the neighbour colours
/// are gathered into a stack array; on general graphs into the caller's
/// scratch buffer.  Nothing is allocated.
#[inline]
fn eval_one<R: LocalRule>(
    rule: &R,
    adjacency: &Adjacency,
    regular4: bool,
    colors: &[Color],
    scratch: &mut Vec<Color>,
    v: usize,
) -> Color {
    if regular4 {
        let nb = adjacency.neighbors_raw(v);
        let gathered = [
            colors[nb[0] as usize],
            colors[nb[1] as usize],
            colors[nb[2] as usize],
            colors[nb[3] as usize],
        ];
        rule.next_color(colors[v], &gathered)
    } else {
        scratch.clear();
        for &u in adjacency.neighbors_raw(v) {
            scratch.push(colors[u as usize]);
        }
        rule.next_color(colors[v], scratch)
    }
}

/// Where a simulator reads its vertices' neighbours: the torus it was
/// built from, if any, and the CSR, which a torus builds only on first
/// use (see [`Simulator`]).
struct Wiring {
    torus: Option<Torus>,
    csr: OnceLock<Adjacency>,
}

impl Wiring {
    /// The CSR adjacency, flattened from the torus on the first call.
    fn csr(&self) -> &Adjacency {
        self.csr.get_or_init(|| {
            let torus = self.torus.as_ref();
            Adjacency::from_torus(torus.expect("graph simulators fill the CSR at construction"))
        })
    }
}

/// An incremental two-lane synchronous simulator over a torus's wrap rule
/// or a graph's CSR.
///
/// The simulator stores the configuration behind a [`StateVec`]: a dense
/// colour vector for arbitrary rules and graphs, or the bit-plane lane
/// ([`crate::planes`]) when the rule advertises a
/// [`ctori_protocols::ColorCountRule`] and at most 16 colours are present
/// on one of the paper's tori.  A torus simulator ([`Simulator::new`])
/// keeps the [`Torus`] and flattens it into a
/// [`ctori_topology::Adjacency`] CSR only when something reads one — the
/// generic and full-sweep lanes, the replay that confirms a cycle, or
/// [`Simulator::adjacency`] — and then only once; the plane lane reads
/// the wrap rule itself, so a torus run on it never builds the CSR.  A
/// graph simulator ([`Simulator::from_topology`],
/// [`Simulator::from_adjacency`]) holds its CSR from the start.  Stepping is
/// **frontier-incremental**: after the first full round only last round's
/// changed vertices and their out-neighbours are re-evaluated, so a thin
/// spreading frontier costs O(frontier) per round instead of O(|V|).
/// Callers of [`Simulator::with_full_sweep`] get the exhaustive full sweep
/// instead, the reference the equivalence tests and benchmarks compare
/// against.  The hot loops are pure slice and bit indexing; the only
/// per-round allocations are the small per-band bookkeeping vectors of the
/// band scheduler ([`crate::parallel::run_bands`]).
///
/// Cycle detection in [`Simulator::run`] rests on an incremental state
/// hash that each lane owns: the generic lane XORs a per-vertex key per
/// change, the plane lane re-keys each changed plane word (see
/// [`crate::planes`]).  The run loop switches the active lane's hash on
/// only when [`RunConfig::detect_cycles`] is set, so a raw
/// [`Simulator::step`] loop pays nothing for it.  [`Simulator::new`]
/// takes over the initial colouring's cells without copying them.
pub struct Simulator<R> {
    wiring: Wiring,
    rule: R,
    rows: usize,
    cols: usize,
    state: StateVec,
    worklist: Worklist,
    round: usize,
    regular4: bool,
    full_sweep: bool,
    /// The generic lane's incremental Zobrist hash (per-vertex
    /// [`zkey`]s); `None` until a `run` with cycle detection switches it
    /// on, so raw stepping pays nothing for it.  The plane lane keeps its
    /// own hash.
    generic_hash: Option<u64>,
    degenerate_hash: bool,
    /// Intra-round band parallelism (see [`crate::parallel`]); forwarded
    /// to whichever lane is active.
    step_threads: usize,
    /// The generic lane's per-band `(vertex, old, new)` change buffers,
    /// reused across rounds; their band-order concatenation is the last
    /// round's change list.
    band_changes: Vec<Vec<(u32, Color, Color)>>,
    /// Cumulative per-round profile (rounds, band decisions, cells).
    stats: StepStats,
}

impl<R: LocalRule> Simulator<R> {
    /// Creates a simulator for a torus and an initial colouring, moving
    /// the colouring's cells into the state instead of copying them.
    ///
    /// # Panics
    ///
    /// Panics if the colouring's dimensions do not match the torus.
    pub fn new(torus: &Torus, rule: R, initial: Coloring) -> Self {
        assert_eq!(
            (initial.rows(), initial.cols()),
            (torus.rows(), torus.cols()),
            "colouring dimensions do not match the torus"
        );
        let wiring = Wiring {
            torus: Some(*torus),
            csr: OnceLock::new(),
        };
        let cells = initial.into_cells();
        let sim = Simulator::assemble(wiring, rule, torus.rows(), torus.cols(), cells);
        // Both backends count the unset sentinel like a colour, so this
        // costs no scan of the cells: the generic census holds it, and the
        // plane lane answers from its palette unless a cell is unset.
        assert!(
            sim.state.count_of(Color::UNSET) == 0,
            "initial colouring contains unset cells"
        );
        sim
    }

    /// Creates a simulator over an arbitrary topology with a flat state
    /// vector (used by the TSS substrate on general graphs).
    pub fn from_topology<T: Topology + ?Sized>(topology: &T, rule: R, initial: Vec<Color>) -> Self {
        assert_eq!(
            initial.len(),
            topology.node_count(),
            "state length does not match the topology"
        );
        let adjacency = Adjacency::build(topology);
        Simulator::from_adjacency(adjacency, rule, initial)
    }

    /// Creates a simulator over a prebuilt CSR adjacency, which it takes
    /// over.
    ///
    /// The state is treated as a flat vector: [`Simulator::coloring`] will
    /// report a `1 × n` grid, and the automatic lane choice is the generic
    /// one.  For grid-shaped reporting and the plane lane on a torus, use
    /// [`Simulator::new`] (which keeps the torus dimensions and builds no
    /// CSR for the plane lane).
    pub fn from_adjacency(adjacency: Adjacency, rule: R, initial: Vec<Color>) -> Self {
        assert_eq!(
            initial.len(),
            adjacency.node_count(),
            "state length does not match the topology"
        );
        let cols = initial.len();
        let wiring = Wiring {
            torus: None,
            csr: OnceLock::from(adjacency),
        };
        Simulator::assemble(wiring, rule, 1, cols, initial)
    }

    fn assemble(wiring: Wiring, rule: R, rows: usize, cols: usize, cells: Vec<Color>) -> Self {
        // A torus is 4-regular by definition; only a graph is checked.
        let regular4 = match wiring.torus {
            Some(_) => true,
            None => wiring.csr().uniform_degree() == Some(4),
        };
        let n = cells.len();
        let state = Self::choose_backend(&wiring, &rule, cells);
        let worklist = if state.is_planes() {
            // The plane lane schedules its own (word-granular) frontier.
            Worklist::new(0)
        } else {
            Worklist::new(n)
        };
        Simulator {
            wiring,
            rule,
            rows,
            cols,
            state,
            worklist,
            round: 0,
            regular4,
            full_sweep: false,
            generic_hash: None,
            degenerate_hash: false,
            step_threads: 1,
            band_changes: Vec::new(),
            stats: StepStats::default(),
        }
    }

    /// Selects the state backend: the bit-plane lane when the run is on a
    /// torus and [`Simulator::plane_lane`] compiles one, and the generic
    /// colour vector otherwise.
    fn choose_backend(wiring: &Wiring, rule: &R, cells: Vec<Color>) -> StateVec {
        if wiring.torus.is_some() {
            if let Some(lane) = Self::plane_lane(wiring, rule, &cells) {
                return StateVec::Planes {
                    lane: Box::new(lane),
                };
            }
        }
        StateVec::Generic {
            census: ColorCensus::of(&cells),
            colors: cells,
        }
    }

    /// Compiles `colors` and the rule's counting form into a plane lane
    /// over the torus's wrap rule, or over the CSR of a graph simulator;
    /// `None` when the rule has no counting form, or when
    /// [`PlaneLane::for_torus`] bails on the palette (more than 16
    /// colours) or on a form its kernel does not cover.
    fn plane_lane(wiring: &Wiring, rule: &R, colors: &[Color]) -> Option<PlaneLane> {
        let counting = rule.as_color_count_rule()?;
        match &wiring.torus {
            Some(torus) => PlaneLane::for_torus(torus, colors, &counting),
            None => PlaneLane::for_graph(wiring.csr(), colors, &counting),
        }
    }

    /// Disables the incremental frontier: every round re-evaluates every
    /// vertex (every word on the plane lane).  This is the reference of
    /// the lane-equivalence tests and the baseline of the frontier
    /// benchmarks; results are identical, only slower.
    pub fn with_full_sweep(mut self) -> Self {
        self.full_sweep = true;
        match &mut self.state {
            StateVec::Planes { lane } => lane.set_always_full(),
            StateVec::Generic { .. } => self.worklist.set_always_full(),
        }
        self
    }

    /// Forces the generic colour-vector backend even when the bit-plane
    /// lane is eligible (used by the equivalence tests and benchmarks).
    ///
    /// # Panics
    ///
    /// Panics if called after stepping has started.
    pub fn with_generic_lane(mut self) -> Self {
        assert_eq!(self.round, 0, "backend can only be changed before stepping");
        if self.state.is_planes() {
            let colors = self.state.snapshot();
            self.worklist = Worklist::new(colors.len());
            self.generic_hash = None;
            self.state = StateVec::Generic {
                census: ColorCensus::of(&colors),
                colors,
            };
            if self.full_sweep {
                self.worklist.set_always_full();
            }
        }
        self
    }

    /// Forces the bit-plane lane.  Unlike `lane=auto`, this also accepts
    /// general graphs, 4-regular or not (every word of a graph takes the
    /// lane's exact per-vertex path, over lists copied from the CSR); it
    /// still requires the rule to advertise a
    /// [`ctori_protocols::ColorCountRule`] the lane covers and at most 16
    /// colours, and leaves the current backend in place when the lane is
    /// ineligible.
    ///
    /// # Panics
    ///
    /// Panics if called after stepping has started.
    pub fn with_plane_lane(mut self) -> Self {
        assert_eq!(self.round, 0, "backend can only be changed before stepping");
        if self.state.is_planes() {
            return self;
        }
        let colors = self.state.snapshot();
        if let Some(mut lane) = Self::plane_lane(&self.wiring, &self.rule, &colors) {
            if self.full_sweep {
                lane.set_always_full();
            }
            lane.set_threads(self.step_threads);
            self.worklist = Worklist::new(0);
            self.state = StateVec::Planes {
                lane: Box::new(lane),
            };
        }
        self
    }

    /// Sets the intra-round band parallelism: every step partitions its
    /// work into up to `threads` row bands evaluated by scoped workers
    /// (see [`crate::parallel`]).  Values are clamped to at least 1.
    /// Results are bit-identical at every thread count, so this is a pure
    /// throughput knob; it may be changed at any point, including
    /// mid-run.
    pub fn set_step_threads(&mut self, threads: usize) {
        self.step_threads = threads.max(1);
        if let StateVec::Planes { lane } = &mut self.state {
            lane.set_threads(self.step_threads);
        }
    }

    /// Builder form of [`Simulator::set_step_threads`].
    pub fn with_step_threads(mut self, threads: usize) -> Self {
        self.set_step_threads(threads);
        self
    }

    /// The configured intra-round band parallelism.
    pub fn step_threads(&self) -> usize {
        self.step_threads
    }

    /// The cumulative step profile: rounds executed, dense vs sparse band
    /// decisions of the hybrid crossover, and vertices evaluated.
    pub fn step_stats(&self) -> StepStats {
        self.stats
    }

    /// Whether the bit-plane lane is driving this simulator.
    pub fn uses_plane_lane(&self) -> bool {
        self.state.is_planes()
    }

    /// The CSR adjacency the generic lane steps over.  A torus simulator
    /// flattens its torus into it on the first call (the plane lane never
    /// needs it); later calls return the same CSR.
    pub fn adjacency(&self) -> &Adjacency {
        self.wiring.csr()
    }

    /// The number of rounds executed so far.
    pub fn round(&self) -> usize {
        self.round
    }

    /// The rule driving the simulation.
    pub fn rule(&self) -> &R {
        &self.rule
    }

    /// The current colour of a vertex.
    pub fn color_of(&self, v: NodeId) -> Color {
        self.state.color_of(v.index())
    }

    /// The current state as one colour per vertex (materialised; for
    /// per-vertex queries prefer [`Simulator::color_of`]).
    pub fn snapshot(&self) -> Vec<Color> {
        self.state.snapshot()
    }

    /// The current state as a [`Coloring`] (grid-shaped).
    pub fn coloring(&self) -> Coloring {
        Coloring::from_cells(self.rows, self.cols, self.snapshot())
    }

    /// The set of vertices currently holding `k`.
    pub fn class_of(&self, k: Color) -> NodeSet {
        let n = self.state.len();
        let mut set = NodeSet::new(n);
        for v in 0..n {
            if self.state.color_of(v) == k {
                set.insert(NodeId::new(v));
            }
        }
        set
    }

    /// Number of vertices currently holding `k` (O(1) off the generic
    /// backend's incremental census; on the plane lane one pass over the
    /// packed plane words).
    pub fn count_of(&self, k: Color) -> usize {
        self.state.count_of(k)
    }

    /// Whether the current configuration is monochromatic, and in which
    /// colour (O(1); O(planes) on the plane lane, off its per-plane bit
    /// counts).
    pub fn monochromatic(&self) -> Option<Color> {
        self.state.monochromatic()
    }

    /// Calls `f(vertex, old, new)` for every vertex changed by the last
    /// [`Simulator::step`] call.
    fn for_each_last_change(&self, mut f: impl FnMut(usize, Color, Color)) {
        match &self.state {
            StateVec::Generic { .. } => {
                for &(v, old, new) in self.band_changes.iter().flatten() {
                    f(v as usize, old, new);
                }
            }
            StateVec::Planes { lane } => {
                for (v, old, new) in lane.flips() {
                    f(v as usize, old, new);
                }
            }
        }
    }

    /// Executes one synchronous round and returns how many vertices
    /// changed.
    ///
    /// The first call evaluates every vertex; afterwards only the frontier
    /// candidates (last round's changed vertices and their out-neighbours)
    /// are evaluated — unless [`Simulator::with_full_sweep`] is in force,
    /// or the hybrid crossover decides a near-full candidate set is
    /// cheaper to re-sweep densely.  Results are identical either way, and
    /// bit-identical at every [`Simulator::set_step_threads`] setting.
    pub fn step(&mut self) -> StepReport {
        let (changed, (dense_bands, sparse_bands, cells)) = match &mut self.state {
            StateVec::Planes { lane } => {
                let flips = lane.step();
                (flips, lane.last_step_profile())
            }
            StateVec::Generic { colors, census } => {
                let len = colors.len();
                let candidates = self.worklist.candidates();
                // The hybrid crossover (calibrated like the plane lane's):
                // once the candidate list covers ~5/8 of the vertices, a
                // linear dense sweep beats chasing the worklist.  Exact
                // because a vertex outside the worklist cannot change, so
                // the dense superset yields the identical change set.
                let dense = self.worklist.is_full_round() || candidates.len() * 8 >= len * 5;
                // Band evaluation against the frozen pre-round colours
                // (one inline band unless `step_threads > 1`): dense
                // rounds split the vertex range, sparse rounds chunk the
                // candidate list (the round-stamped dedup already ran when
                // the list was built, so chunks are disjoint).
                let ranges = if dense {
                    band_ranges(len, self.step_threads, 64)
                } else {
                    band_ranges(candidates.len(), self.step_threads, 1)
                };
                let bands = ranges.len() as u32;
                let profile = if dense {
                    (bands, 0, len as u64)
                } else {
                    (0, bands, candidates.len() as u64)
                };
                self.band_changes.resize_with(ranges.len(), Vec::new);
                let (rule, adjacency, regular4) = (&self.rule, self.wiring.csr(), self.regular4);
                let frozen: &[Color] = colors;
                run_bands(&ranges, &mut self.band_changes, |_band, start, end, out| {
                    out.clear();
                    // Per-band scratch: lazily allocated, and never
                    // touched on the 4-regular tori.
                    let mut scratch: Vec<Color> = Vec::new();
                    let mut eval = |v: usize| {
                        let own = frozen[v];
                        let new = eval_one(rule, adjacency, regular4, frozen, &mut scratch, v);
                        if new != own {
                            out.push((v as u32, own, new));
                        }
                    };
                    if dense {
                        for v in start..end {
                            eval(v);
                        }
                    } else {
                        for &v in &candidates[start..end] {
                            eval(v as usize);
                        }
                    }
                });
                // The band-order concatenation of the buffers is the
                // sequential change order.
                let changes = self.band_changes.iter().flatten();
                if let Some(hash) = &mut self.generic_hash {
                    for &(v, old, new) in changes.clone() {
                        *hash ^= zkey(v as usize, old) ^ zkey(v as usize, new);
                    }
                }
                // Apply after evaluating everything: synchronous semantics.
                for &(v, old, new) in changes.clone() {
                    colors[v as usize] = new;
                    census.remove(old);
                    census.add(new);
                }
                self.worklist.begin_next();
                if !self.worklist.always_full() {
                    for &(v, _, _) in changes.clone() {
                        self.worklist.mark(v);
                        for &u in adjacency.neighbors_raw(v as usize) {
                            self.worklist.mark(u);
                        }
                    }
                }
                self.worklist.finish_round();
                (changes.count(), profile)
            }
        };
        self.stats.record_round(dense_bands, sparse_bands, cells);
        self.round += 1;
        StepReport {
            changed,
            round: self.round,
        }
    }

    /// Switches the active lane's cycle hash on (a no-op when it already
    /// is); `snapshot` is the current configuration.
    fn enable_hash(&mut self, snapshot: &[Color]) {
        match &mut self.state {
            StateVec::Planes { lane } => lane.enable_hash(),
            StateVec::Generic { .. } => {
                if self.generic_hash.is_none() {
                    let seeded = snapshot
                        .iter()
                        .enumerate()
                        .fold(0u64, |h, (v, &c)| h ^ zkey(v, c));
                    self.generic_hash = Some(seeded);
                }
            }
        }
    }

    fn state_hash(&self) -> u64 {
        if self.degenerate_hash {
            return 0;
        }
        let hash = match &self.state {
            StateVec::Planes { lane } => lane.state_hash(),
            StateVec::Generic { .. } => self.generic_hash,
        };
        hash.expect("run_with switched the hash on")
    }

    /// Test hook: makes every configuration hash to the same value, so the
    /// collision-verification path of [`Simulator::run`] is exercised on
    /// every round.
    #[doc(hidden)]
    pub fn force_degenerate_hash(&mut self) {
        self.degenerate_hash = true;
    }

    /// Re-simulates `target_round - start_round` full-sweep rounds from
    /// `initial` and compares the result with the current configuration.
    /// Used to confirm that a state-hash match is a genuine repeat and not
    /// a 64-bit collision.
    fn replay_matches(&self, initial: &[Color], start_round: usize, target_round: usize) -> bool {
        let n = initial.len();
        let mut current = initial.to_vec();
        let mut next = current.clone();
        let adjacency = self.wiring.csr();
        let mut scratch = Vec::with_capacity(adjacency.max_degree());
        for _ in start_round..target_round {
            for (v, slot) in next.iter_mut().enumerate() {
                *slot = eval_one(
                    &self.rule,
                    adjacency,
                    self.regular4,
                    &current,
                    &mut scratch,
                    v,
                );
            }
            std::mem::swap(&mut current, &mut next);
        }
        (0..n).all(|v| current[v] == self.state.color_of(v))
    }

    /// A read-only [`StepView`] of the current configuration (round =
    /// rounds executed so far, change count 0 — views handed to run
    /// callbacks carry the real per-round change count).
    pub fn view(&self) -> StepView<'_> {
        StepView::new(&self.state, self.rows, self.cols, self.round, 0)
    }

    /// Runs until convergence (monochromatic or fixed point), a detected
    /// cycle, or the round limit.
    pub fn run(&mut self, config: &RunConfig) -> RunReport {
        self.run_with(config, |_| {})
    }

    /// [`Simulator::run`] with a per-round sink: `on_round` receives a
    /// [`StepView`] after every executed round (including the final idle
    /// or cycle-closing round).  This is the loop behind the observer API
    /// ([`crate::observe::Observer`]) and the trace recorder; `run`
    /// drives it with a no-op sink, so there is exactly one run loop in
    /// the engine.
    pub fn run_with<F: FnMut(&StepView<'_>)>(
        &mut self,
        config: &RunConfig,
        mut on_round: F,
    ) -> RunReport {
        let n = self.state.len();
        let max_rounds = if config.max_rounds == 0 {
            4 * n + 16
        } else {
            config.max_rounds
        };

        let mut times: Option<Vec<Option<usize>>> = config.track_times_for.map(|k| {
            (0..n)
                .map(|v| (self.state.color_of(v) == k).then_some(0))
                .collect()
        });
        let mut monotone = config.check_monotone_for.map(|_| true);

        let run_start_round = self.round;
        // Cycle candidates are verified by replaying from this snapshot,
        // so a hash collision can never be misreported as a cycle.
        let run_start_state: Option<Vec<Color>> = config.detect_cycles.then(|| self.snapshot());
        let mut seen: HashMap<u64, Vec<usize>> = HashMap::new();
        if let Some(snapshot) = &run_start_state {
            // Switch the lane's incremental hash on; step() keeps it
            // fresh from here.
            self.enable_hash(snapshot);
            seen.entry(self.state_hash()).or_default().push(self.round);
        }

        let termination = loop {
            if let Some(c) = self.state.monochromatic() {
                break Termination::Monochromatic(c);
            }
            if self.round >= max_rounds {
                break Termination::RoundLimit;
            }

            let report = self.step();
            let round = self.round;

            if let (Some(k), Some(times)) = (config.track_times_for, times.as_mut()) {
                self.for_each_last_change(|v, old, new| {
                    if new == k {
                        times[v] = Some(round);
                    } else if old == k {
                        times[v] = None;
                    }
                });
            }
            if let (Some(k), Some(mono)) = (config.check_monotone_for, monotone.as_mut()) {
                self.for_each_last_change(|_, old, new| {
                    if old == k && new != k {
                        *mono = false;
                    }
                });
            }

            {
                let view = StepView::new(&self.state, self.rows, self.cols, round, report.changed);
                on_round(&view);
            }

            if report.changed == 0 {
                break Termination::FixedPoint;
            }
            if config.detect_cycles {
                let h = self.state_hash();
                let initial = run_start_state.as_ref().expect("snapshot was taken");
                if let Some(previous) = seen.get(&h) {
                    let repeat = previous
                        .iter()
                        .find(|&&r0| self.replay_matches(initial, run_start_round, r0));
                    if let Some(&r0) = repeat {
                        break Termination::Cycle {
                            period: self.round - r0,
                        };
                    }
                }
                seen.entry(h).or_default().push(self.round);
            }
        };

        let final_target_count = config
            .track_times_for
            .or(config.check_monotone_for)
            .map(|k| self.count_of(k));

        RunReport {
            termination,
            rounds: self.round,
            recoloring_times: times,
            monotone,
            final_target_count,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctori_coloring::ColoringBuilder;
    use ctori_protocols::{ReverseSimpleMajority, SmpProtocol, ThresholdRule};
    use ctori_topology::{toroidal_mesh, torus_cordalis, Coord};

    fn k() -> Color {
        Color::new(2)
    }

    #[test]
    fn absorbed_patch_converges_monotonically() {
        // All colour 2 except a 2x2 patch of pairwise different colours:
        // every patch vertex sees at least two 2-coloured neighbours with
        // the other two different, so the patch is absorbed.
        let t = toroidal_mesh(5, 5);
        let coloring = ColoringBuilder::filled(&t, k())
            .cell(1, 1, Color::new(1))
            .cell(1, 2, Color::new(3))
            .cell(2, 1, Color::new(4))
            .cell(2, 2, Color::new(5))
            .build();
        let mut sim = Simulator::new(&t, SmpProtocol, coloring);
        assert!(
            sim.uses_plane_lane(),
            "five colours + SMP select the plane lane"
        );
        let report = sim.run(&RunConfig::for_dynamo(k()));
        assert_eq!(report.termination, Termination::Monochromatic(k()));
        assert_eq!(report.monotone, Some(true));
        assert_eq!(report.final_target_count, Some(25));
        assert!(report.reached_monochromatic(k()));
        // every vertex has a recolouring time
        let times = report.recoloring_times.unwrap();
        assert!(times.iter().all(|t| t.is_some()));
        // vertices that started with colour 2 have time 0
        assert_eq!(times[t.id(Coord::new(0, 3)).index()], Some(0));
        // the patch recoloured strictly later
        assert!(times[t.id(Coord::new(1, 1)).index()].unwrap() > 0);
    }

    #[test]
    fn two_two_ties_freeze_the_configuration_under_smp() {
        // Vertical stripes of period 2 on an even torus: every vertex sees
        // two neighbours of its own colour (above/below) and two of the
        // other colour (left/right) — a 2-2 tie, so the SMP protocol never
        // changes anything.
        let t = toroidal_mesh(4, 4);
        let coloring =
            ctori_coloring::patterns::column_stripes(&t, &[Color::new(1), Color::new(2)]);
        let mut sim = Simulator::new(&t, SmpProtocol, coloring.clone());
        assert!(
            sim.uses_plane_lane(),
            "two colours + SMP select the plane lane"
        );
        let report = sim.run(&RunConfig::default());
        assert_eq!(report.termination, Termination::FixedPoint);
        assert_eq!(
            report.rounds, 1,
            "fixed point is detected after one idle round"
        );
        assert_eq!(sim.coloring(), coloring);
    }

    #[test]
    fn stripes_converge_under_prefer_black_but_freeze_under_smp() {
        // The same 2-2 tie that freezes the SMP protocol makes the
        // prefer-black rule recolour every white vertex black — this is
        // exactly the behavioural difference the paper's introduction
        // emphasises.
        let t = toroidal_mesh(4, 4);
        let coloring = ctori_coloring::patterns::column_stripes(&t, &[Color::WHITE, Color::BLACK]);
        let mut pb = Simulator::new(&t, ReverseSimpleMajority::prefer_black(), coloring.clone());
        let report = pb.run(&RunConfig::default());
        assert_eq!(report.termination, Termination::Monochromatic(Color::BLACK));
        assert_eq!(report.rounds, 1);

        let mut smp = Simulator::new(&t, SmpProtocol, coloring);
        let report = smp.run(&RunConfig::default());
        assert_eq!(report.termination, Termination::FixedPoint);
    }

    #[test]
    fn cycle_detection_finds_period_two_blinker() {
        // On a checkerboard every vertex's four neighbours all hold the
        // opposite colour, so under SMP the whole configuration flips each
        // round: a limit cycle of period 2.
        let t = toroidal_mesh(4, 4);
        let coloring = ctori_coloring::patterns::checkerboard(&t, Color::new(1), Color::new(2));
        let mut sim = Simulator::new(&t, SmpProtocol, coloring);
        let report = sim.run(&RunConfig::default());
        assert_eq!(report.termination, Termination::Cycle { period: 2 });

        // With detection disabled the same run hits the round limit.
        let coloring = ctori_coloring::patterns::checkerboard(&t, Color::new(1), Color::new(2));
        let mut sim = Simulator::new(&t, SmpProtocol, coloring);
        let report = sim.run(
            &RunConfig::default()
                .without_cycle_detection()
                .with_max_rounds(10),
        );
        assert_eq!(report.termination, Termination::RoundLimit);
        assert_eq!(report.rounds, 10);
    }

    #[test]
    fn hash_collisions_are_not_reported_as_cycles() {
        // Regression for the PR-1 behaviour where any 64-bit hash match
        // was reported as a cycle without comparing states.  With the
        // degenerate hash every round "collides" with every earlier round,
        // so only the replay verification separates real repeats from
        // false ones: a converging run must still converge...
        let t = toroidal_mesh(5, 5);
        let coloring = ColoringBuilder::filled(&t, k())
            .cell(1, 1, Color::new(1))
            .cell(1, 2, Color::new(3))
            .cell(2, 1, Color::new(4))
            .cell(2, 2, Color::new(5))
            .build();
        let mut sim = Simulator::new(&t, SmpProtocol, coloring);
        sim.force_degenerate_hash();
        let report = sim.run(&RunConfig::default());
        assert_eq!(
            report.termination,
            Termination::Monochromatic(k()),
            "a colliding hash must not fake a cycle"
        );

        // ...and a genuine period-2 blinker must still be reported with
        // the right period (checkerboards only blink on even tori).
        let t = toroidal_mesh(4, 4);
        let coloring = ctori_coloring::patterns::checkerboard(&t, Color::new(1), Color::new(2));
        let mut sim = Simulator::new(&t, SmpProtocol, coloring);
        sim.force_degenerate_hash();
        let report = sim.run(&RunConfig::default());
        assert_eq!(report.termination, Termination::Cycle { period: 2 });

        // Multi-plane scatters on widths with fast, wrap and slow words:
        // every round replays from the run-start snapshot, on the plane
        // lane and on the generic one, and both must report what the
        // generic lane reports with its real hash.
        for t in [toroidal_mesh(5, 70), torus_cordalis(5, 70)] {
            for palette in [3u64, 8] {
                let mut x = 0x5EED ^ palette;
                let cells = (0..t.node_count())
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        Color::new(1 + (x % palette) as u16)
                    })
                    .collect();
                let coloring = Coloring::from_cells(t.rows(), t.cols(), cells);
                let config = RunConfig::for_dynamo(Color::new(1)).with_max_rounds(40);
                let mut reference =
                    Simulator::new(&t, SmpProtocol, coloring.clone()).with_generic_lane();
                let expected = reference.run(&config);
                for generic in [false, true] {
                    let mut sim = Simulator::new(&t, SmpProtocol, coloring.clone());
                    if generic {
                        sim = sim.with_generic_lane();
                    }
                    assert_eq!(sim.uses_plane_lane(), !generic);
                    sim.force_degenerate_hash();
                    let report = sim.run(&config);
                    let context = format!("{t}, palette {palette}, generic lane: {generic}");
                    assert_eq!(report.termination, expected.termination, "{context}");
                    assert_eq!(report.rounds, expected.rounds, "{context}");
                    assert_eq!(report.monotone, expected.monotone, "{context}");
                    assert_eq!(
                        report.recoloring_times, expected.recoloring_times,
                        "{context}"
                    );
                    assert_eq!(sim.snapshot(), reference.snapshot(), "{context}");
                }
            }
        }
    }

    #[test]
    fn plane_generic_and_full_sweep_steppers_agree() {
        // The three data paths — plane lane (with prefer-black's tie
        // mask), generic frontier, generic full sweep — must produce
        // identical trajectories round for round (the cross-backend
        // proptests widen this to random configurations).
        let t = torus_cordalis(6, 7);
        let coloring = ColoringBuilder::filled(&t, Color::WHITE)
            .cell(1, 1, Color::BLACK)
            .cell(1, 2, Color::BLACK)
            .cell(2, 1, Color::BLACK)
            .cell(4, 5, Color::BLACK)
            .build();
        let mut planes =
            Simulator::new(&t, ReverseSimpleMajority::prefer_black(), coloring.clone());
        let mut generic =
            Simulator::new(&t, ReverseSimpleMajority::prefer_black(), coloring.clone())
                .with_generic_lane();
        let mut sweep = Simulator::new(&t, ReverseSimpleMajority::prefer_black(), coloring)
            .with_generic_lane()
            .with_full_sweep();
        assert!(planes.uses_plane_lane());
        assert!(!generic.uses_plane_lane());
        for round in 0..12 {
            let a = planes.step();
            let b = generic.step();
            let c = sweep.step();
            assert_eq!(a, b, "planes vs generic diverge at round {round}");
            assert_eq!(b, c, "generic vs full sweep diverge at round {round}");
            assert_eq!(planes.snapshot(), generic.snapshot());
            assert_eq!(generic.snapshot(), sweep.snapshot());
        }
    }

    #[test]
    fn plane_lane_run_reports_match_generic() {
        let t = toroidal_mesh(8, 8);
        let seed = Color::new(2);
        let mut builder = ColoringBuilder::filled(&t, Color::new(1));
        for (r, c) in [(1, 1), (1, 2), (2, 1), (2, 2)] {
            builder = builder.cell(r, c, seed);
        }
        let coloring = builder.build();
        let rule = ThresholdRule::new(seed, 2);
        let mut planes = Simulator::new(&t, rule, coloring.clone());
        let mut generic = Simulator::new(&t, rule, coloring).with_generic_lane();
        assert!(planes.uses_plane_lane());
        let a = planes.run(&RunConfig::for_dynamo(seed));
        let b = generic.run(&RunConfig::for_dynamo(seed));
        assert_eq!(a.termination, b.termination);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.monotone, b.monotone);
        assert_eq!(a.recoloring_times, b.recoloring_times);
        assert_eq!(a.final_target_count, b.final_target_count);
    }

    /// All colour `k` except a 3x3 patch of pairwise distinct colours:
    /// absorbing, but the patch centre needs two rounds.
    fn slow_absorbing_config(t: &Torus) -> Coloring {
        let mut b = ColoringBuilder::filled(t, k());
        let mut next = 3u16;
        for r in 1..=3 {
            for c in 1..=3 {
                let color = if (r, c) == (2, 2) {
                    Color::new(1)
                } else {
                    Color::new(next)
                };
                next += 1;
                b = b.cell(r, c, color);
            }
        }
        b.build()
    }

    #[test]
    fn plane_lane_runs_build_no_csr_and_other_readers_build_it_once() {
        // A run with cycle detection to a fixed point (stripes freeze
        // under SMP), and one to the round limit on a mesh wide enough for
        // fast, wrap and slow words.
        let stripes = toroidal_mesh(4, 4);
        let wide = toroidal_mesh(8, 256);
        let cases = [
            (
                stripes,
                ctori_coloring::patterns::column_stripes(&stripes, &[Color::new(1), Color::new(2)]),
                RunConfig::default(),
                Termination::FixedPoint,
            ),
            (
                wide,
                slow_absorbing_config(&wide),
                RunConfig::default().with_max_rounds(1),
                Termination::RoundLimit,
            ),
        ];
        for (t, coloring, config, termination) in cases {
            let mut planes = Simulator::new(&t, SmpProtocol, coloring.clone());
            assert!(planes.uses_plane_lane());
            assert_eq!(planes.run(&config).termination, termination, "{t}");
            assert!(
                planes.wiring.csr.get().is_none(),
                "{t}: plane lane built a CSR"
            );

            let mut generic = Simulator::new(&t, SmpProtocol, coloring).with_generic_lane();
            assert!(generic.wiring.csr.get().is_none(), "{t}: built before use");
            assert_eq!(generic.run(&config).termination, termination, "{t}");
            let built: *const Adjacency = generic.wiring.csr.get().expect("generic lane read it");
            assert_eq!(*generic.adjacency(), Adjacency::from_torus(&t));
            assert!(std::ptr::eq(built, generic.adjacency()), "{t}: built twice");
            assert_eq!(planes.snapshot(), generic.snapshot(), "{t}");
        }

        // A cycle candidate on the plane lane is confirmed by a replay,
        // which reads the CSR.
        let t = toroidal_mesh(4, 4);
        let coloring = ctori_coloring::patterns::checkerboard(&t, Color::new(1), Color::new(2));
        let mut sim = Simulator::new(&t, SmpProtocol, coloring);
        assert_eq!(
            sim.run(&RunConfig::default()).termination,
            Termination::Cycle { period: 2 }
        );
        assert!(sim.wiring.csr.get().is_some());
    }

    #[test]
    fn round_limit_is_respected() {
        let t = torus_cordalis(7, 7);
        let coloring = slow_absorbing_config(&t);
        let mut sim = Simulator::new(&t, SmpProtocol, coloring.clone());
        let full = sim.run(&RunConfig::default());
        assert_eq!(full.termination, Termination::Monochromatic(k()));
        assert!(full.rounds >= 2, "patch centre needs at least two rounds");

        let mut sim = Simulator::new(&t, SmpProtocol, coloring);
        let report = sim.run(&RunConfig::default().with_max_rounds(1));
        assert_eq!(report.termination, Termination::RoundLimit);
        assert_eq!(report.rounds, 1);
    }

    #[test]
    fn monotonicity_violation_is_reported() {
        // Under prefer-black, black can *lose* vertices when surrounded by
        // white (3 white neighbours) — craft a lone black vertex.
        let t = toroidal_mesh(4, 4);
        let coloring = ColoringBuilder::filled(&t, Color::WHITE)
            .cell(1, 1, Color::BLACK)
            .build();
        let mut sim = Simulator::new(&t, ReverseSimpleMajority::prefer_black(), coloring);
        let cfg = RunConfig {
            check_monotone_for: Some(Color::BLACK),
            ..RunConfig::default()
        };
        let report = sim.run(&cfg);
        assert_eq!(report.monotone, Some(false));
        assert_eq!(report.termination, Termination::Monochromatic(Color::WHITE));
    }

    #[test]
    fn from_topology_runs_on_general_graphs() {
        use ctori_topology::Graph;
        // A path of 5 vertices, threshold 1, seeded at one end: activation
        // sweeps across the path one vertex per round.
        let mut g = Graph::with_nodes(5);
        for i in 0..4 {
            g.add_edge(NodeId::new(i), NodeId::new(i + 1));
        }
        let mut state = vec![Color::new(1); 5];
        state[0] = Color::new(2);
        let rule = ThresholdRule::new(Color::new(2), 1);
        let mut sim = Simulator::from_topology(&g, rule, state);
        assert!(
            !sim.uses_plane_lane(),
            "general graphs take the generic lane"
        );
        let report = sim.run(&RunConfig::default());
        assert_eq!(
            report.termination,
            Termination::Monochromatic(Color::new(2))
        );
        assert_eq!(report.rounds, 4);
    }

    #[test]
    fn step_counts_changes() {
        let t = toroidal_mesh(7, 7);
        let coloring = slow_absorbing_config(&t);
        let mut sim = Simulator::new(&t, SmpProtocol, coloring);
        let r1 = sim.step();
        assert!(r1.changed > 0);
        assert_eq!(r1.round, 1);
        assert_eq!(sim.round(), 1);
        assert_eq!(sim.rule().name(), "SMP-Protocol");
    }

    #[test]
    #[should_panic(expected = "dimensions do not match")]
    fn dimension_mismatch_is_rejected() {
        let t = toroidal_mesh(4, 4);
        let other = toroidal_mesh(5, 5);
        let coloring = Coloring::uniform(&other, Color::new(1));
        let _ = Simulator::new(&t, SmpProtocol, coloring);
    }

    /// A 6×6 mesh colouring cycling through colours `1..=colors`, checked
    /// to take the plane lane or not, with one cell then unset.
    fn one_unset_cell(colors: u16, plane_lane: bool) -> (Torus, Coloring) {
        let t = toroidal_mesh(6, 6);
        let cells = (0..36u16).map(|i| Color::new(1 + i % colors)).collect();
        let mut coloring = Coloring::from_cells(6, 6, cells);
        let sim = Simulator::new(&t, SmpProtocol, coloring.clone());
        assert_eq!(sim.uses_plane_lane(), plane_lane);
        coloring.set_at(2, 3, Color::UNSET);
        (t, coloring)
    }

    #[test]
    #[should_panic(expected = "initial colouring contains unset cells")]
    fn unset_cells_are_rejected_on_the_plane_lane() {
        let (t, coloring) = one_unset_cell(3, true);
        let _ = Simulator::new(&t, SmpProtocol, coloring);
    }

    #[test]
    #[should_panic(expected = "initial colouring contains unset cells")]
    fn unset_cells_are_rejected_on_the_generic_lane() {
        // More colours than the plane lane's 16 keep the run generic.
        let (t, coloring) = one_unset_cell(20, false);
        let _ = Simulator::new(&t, SmpProtocol, coloring);
    }

    #[test]
    fn state_accessors() {
        let t = toroidal_mesh(3, 3);
        let coloring = ColoringBuilder::filled(&t, Color::new(1))
            .cell(0, 0, k())
            .build();
        let sim = Simulator::new(&t, SmpProtocol, coloring);
        assert_eq!(sim.count_of(k()), 1);
        assert_eq!(sim.color_of(t.id(Coord::new(0, 0))), k());
        assert_eq!(sim.class_of(k()).count(), 1);
        assert_eq!(sim.snapshot().len(), 9);
        assert_eq!(sim.monochromatic(), None);
    }
}
