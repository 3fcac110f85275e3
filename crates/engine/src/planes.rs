//! The k-colour bit-plane lane.
//!
//! Any palette of up to 16 colours is stored by *bit-plane slicing*: the
//! palette is sorted and each colour mapped to a dense code `0..k`, and
//! the configuration is stored as `⌈log₂ k⌉` parallel `u64` bit arrays
//! ("planes", one for a one- or two-colour run) — bit `v` of plane `p` is
//! bit `p` of vertex `v`'s code.  Sixty-four vertices then share a word
//! in every plane, and a whole word's rule evaluation becomes a short
//! branch-free sequence of word ops:
//!
//! 1. **Gather** each of the four torus directions as one word per plane
//!    (a funnel shift over two adjacent words — no per-vertex indexing).
//! 2. **Decode** per-colour indicator words: `ind_c = ∧_p (nb_p` or
//!    `!nb_p)` depending on bit `p` of code `c`.
//! 3. **Count** the four direction indicators per colour with a half-adder
//!    tree into 64 parallel 3-bit counters, and apply the rule's
//!    comparators (`≥2`, `≥3`, `=4`, unique-plurality masks, and the
//!    2-2 tie mask of a tie colour) to get a per-colour *adopt* word.
//! 4. **Merge** the adopted codes back into the planes with two masks.
//!
//! The per-vertex cost is a few ALU ops instead of a rule dispatch plus a
//! colour multiset scan.  Which rules qualify is declared by the rules
//! themselves through [`ctori_protocols::LocalRule::as_color_count_rule`].
//!
//! # Frontier words and wrap handling
//!
//! Scheduling is *word-granular*: the dirty-tracking worklist (the same
//! round-stamped structure the per-vertex frontier uses) holds
//! word indices, and a word is re-evaluated when any of its 64 vertices or
//! their neighbours changed last round (dirty propagation is word-level
//! too, through a per-word neighbour-word table built at construction —
//! no per-flip CSR walks).  Words are classified once at construction:
//!
//! * **fast** — the word is full and every vertex `v` in it has the CSR
//!   neighbour pattern `[v-cols, v+cols, v-1, v+1]`, the interior pattern
//!   shared by all three [`ctori_topology::TorusKind`]s (on the chordal
//!   tori even the row-wrap columns match it, because their west/east
//!   wraps are literally `v∓1` in row-major order);
//! * **wrap** — as fast, except that some lanes are toroidal-mesh
//!   row-wrap columns, whose west neighbour is `v+cols-1` and east
//!   neighbour `v-cols+1`: the word goes through the same vector kernel
//!   with those lanes blended in, under a lane mask, from a second funnel
//!   gather one row further on (back) — on narrow meshes a word spans
//!   several rows and so several wrap columns;
//! * **slow** — everything else (the two vertical-wrap boundary rows, the
//!   partial tail word, non-torus structure): exact per-vertex CSR
//!   evaluation.
//!
//! Explicit wrap handling therefore costs two extra gathers on the O(rows)
//! wrap words and the scalar path only the words holding the O(cols)
//! boundary-row vertices, while the O(rows · cols) interior streams
//! through the vector kernel.
//!
//! # Cache-tiled traversal
//!
//! Full sweeps over large tori walk the words in L1-sized 2D tiles
//! (16 rows × 32 words ≈ 16 KiB of plane data for a 4-plane palette, plus
//! the two neighbouring rows each gather touches) instead of row-major
//! order, so a 4096² torus streams each cache line once per round instead
//! of thrashing between distant rows.  Evaluation is strictly
//! read-old/write-new (patches are applied after the whole round is
//! evaluated), so traversal order never affects results.

use crate::frontier::Worklist;
use crate::parallel::{band_ranges, run_bands};
use ctori_coloring::Color;
use ctori_protocols::{ColorCountForm, ColorCountRule};
use ctori_topology::Adjacency;

/// Planes needed for the largest supported palette (16 colours → 4 bits).
const MAX_PLANES: usize = 4;
/// Largest palette the lane accepts.
const MAX_PALETTE: usize = 1 << MAX_PLANES;
/// Tile height of the cache-tiled full sweep, in torus rows.
const TILE_ROWS: usize = 16;
/// Tile width of the cache-tiled full sweep, in 64-vertex words.
const TILE_WORD_COLS: usize = 32;

/// The rule, compiled to palette codes at construction.
#[derive(Clone, Copy, Debug)]
enum Decision {
    /// Adopt the unique strict plurality colour if it has at least
    /// `min_pair` holders; a tie at `min_pair` or more that includes code
    /// `tie` resolves to `tie` (`None`: ties keep, or the tie colour is
    /// not in the palette and so never ties).
    Plurality { min_pair: u32, tie: Option<u8> },
    /// Adopt the colour of code `code` at `threshold` holders; `None` if
    /// the activation colour is not in the palette (the lane is inert).
    Activation { code: Option<u8>, threshold: u32 },
}

/// How one 64-vertex word is evaluated (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum WordClass {
    /// Full word, interior CSR pattern in all four directions.
    Fast,
    /// Full word, interior pattern vertically; the lanes in `west`
    /// (`east`) are toroidal-mesh row-wrap columns whose west (east)
    /// neighbour is `v+cols-1` (`v-cols+1`) instead of `v∓1`.
    Wrap { west: u64, east: u64 },
    /// Anything else: exact per-vertex CSR evaluation.
    Slow,
}

/// One word's pending rewrite, evaluated against the pre-round planes.
///
/// Keeping the old plane words alongside the new makes the patch a full
/// record of the round's changes, so per-flip data (`(vertex, old, new)`
/// tuples for observers and hashing) can be derived lazily instead of
/// materialised inside the hot apply loop.
#[derive(Clone, Copy, Debug)]
struct Patch {
    word: u32,
    /// Lanes whose vertex changes code this round.
    changed: u64,
    /// The word's pre-round value in every plane.
    old: [u64; MAX_PLANES],
    /// The word's full new value in every plane.
    new: [u64; MAX_PLANES],
}

/// A band worker's running summary of the patches it produced, computed
/// while the patch words are still in registers so the sequential apply
/// phase has nothing left to count (see [`PlaneLane::step`]).
#[derive(Clone, Copy, Debug, Default)]
struct BandDelta {
    /// Vertices changed in this band.
    flips: usize,
    /// Signed per-code census movement (codes partition the changed
    /// bits, so indicator popcounts over old/new words are exact).
    census: [i64; MAX_PALETTE],
}

impl BandDelta {
    /// Folds one patch into the summary.
    #[inline]
    fn account(&mut self, patch: &Patch, plane_count: usize, k: usize) {
        self.flips += patch.changed.count_ones() as usize;
        for (code, slot) in self.census.iter_mut().enumerate().take(k) {
            let gained = indicator(&patch.new, plane_count, code) & patch.changed;
            let lost = indicator(&patch.old, plane_count, code) & patch.changed;
            *slot += i64::from(gained.count_ones()) - i64::from(lost.count_ones());
        }
    }
}

/// Reads the 64 bits starting at bit `base` of a packed bit array.
///
/// Callers guarantee `base + 63` is a valid bit index (fast-word
/// classification does: every gathered position is a CSR neighbour of an
/// in-range vertex), which bounds both word accesses.
#[inline(always)]
fn gather(plane: &[u64], base: usize) -> u64 {
    let q = base >> 6;
    let r = base & 63;
    if r == 0 {
        plane[q]
    } else {
        (plane[q] >> r) | (plane[q + 1] << (64 - r))
    }
}

/// The per-colour indicator of one gathered (or own) word set: lane `v` is
/// set iff vertex `v`'s code equals `code`.
#[inline(always)]
fn indicator(words: &[u64; MAX_PLANES], plane_count: usize, code: usize) -> u64 {
    let mut ind = !0u64;
    for (p, &plane) in words.iter().enumerate().take(plane_count) {
        ind &= if (code >> p) & 1 == 1 { plane } else { !plane };
    }
    ind
}

/// 64 parallel 3-bit counters over four indicator words: lane `v` of the
/// result `(hi, mid, low)` encodes `a + b + c + d` at that lane as
/// `4·hi + 2·mid + low` (a classic half-adder tree, exact for degree 4).
#[inline(always)]
fn count4(a: u64, b: u64, c: u64, d: u64) -> (u64, u64, u64) {
    let s0 = a ^ b;
    let c0 = a & b;
    let s1 = c ^ d;
    let c1 = c & d;
    let low = s0 ^ s1;
    let carry = s0 & s1;
    let mid = c0 ^ c1 ^ carry;
    let hi = (c0 & c1) | (carry & (c0 ^ c1));
    (hi, mid, low)
}

/// The multi-colour bit-plane frontier stepper.
///
/// Construction compiles a [`ColorCountRule`] and an initial configuration
/// of at most 16 distinct colours down to palette codes; stepping then
/// evaluates 64 vertices per word against the pre-round planes (see the
/// [module docs](crate::planes) for the kernel).  The adjacency is passed
/// to [`PlaneLane::step`] rather than owned, so one CSR can serve many
/// lanes.
#[derive(Clone, Debug)]
pub struct PlaneLane {
    /// `planes[p]` holds bit `p` of every vertex code; tail bits past
    /// `len` stay zero.
    planes: Vec<Vec<u64>>,
    plane_count: usize,
    len: usize,
    words: usize,
    cols: usize,
    /// Distinct colours of the initial configuration in ascending order;
    /// a vertex's code is its colour's position here.
    palette: Vec<Color>,
    /// Vertices currently holding each code (incremental census).
    census: Vec<usize>,
    /// Per-word evaluation class (vector kernel, patched vector kernel,
    /// or exact per-vertex fallback).
    class: Vec<WordClass>,
    /// Word-granular dirty propagation: `mark_words[mark_offsets[w]..
    /// mark_offsets[w + 1]]` are the *other* words holding a neighbour of
    /// some vertex of word `w`, so a changed word marks a handful of words
    /// instead of walking the CSR per flip.
    mark_offsets: Vec<u32>,
    mark_words: Vec<u32>,
    /// Tile geometry `(rows, words_per_row)` when the torus rows are
    /// word-aligned; `None` keeps full sweeps in linear word order.
    tile_geometry: Option<(usize, usize)>,
    decision: Decision,
    locked_code: Option<u8>,
    worklist: Worklist,
    /// Per-band double buffers of the last step's patches (band workers
    /// write their own vector; the concatenation in band order is the
    /// sequential patch stream).
    band_patches: Vec<Vec<Patch>>,
    /// Reused per-band candidate buckets for sparse rounds.
    band_cands: Vec<Vec<u32>>,
    /// Requested step-parallelism (row-band workers per round).
    threads: usize,
    /// The thread count `band_plan` was computed for; `0` forces a
    /// replan on the next step.
    planned_threads: usize,
    /// Contiguous word ranges, one per band, tile-row aligned.
    band_plan: Vec<(usize, usize)>,
    /// Bands that ran the full tiled sweep last step.
    last_dense_bands: u32,
    /// Bands that ran the worklist path last step.
    last_sparse_bands: u32,
    /// Vertices examined last step (64 per evaluated word).
    last_cells_evaluated: u64,
    /// Number of vertices changed by the last step.
    flipped: usize,
}

impl PlaneLane {
    /// Compiles a configuration and rule into a plane lane.
    ///
    /// `cols` is the torus row stride used to recognise interior words
    /// (pass the column count of the grid; any value is *safe* — words
    /// not matching the interior pattern just take the exact per-vertex
    /// path).  Returns `None` when the configuration has no vertices or
    /// more than 16 distinct colours, when the rule could introduce a
    /// colour outside the initial palette (an absent activation colour
    /// with a zero threshold), or when it resolves ties towards a colour
    /// with `min_pair < 2` (a singleton tie the degree-4 kernel does not
    /// model), in which cases the caller should stay on the generic
    /// backend.
    ///
    /// # Panics
    ///
    /// Panics if the adjacency and configuration lengths differ.
    pub fn from_colors(
        adjacency: &Adjacency,
        cols: usize,
        colors: &[Color],
        rule: &ColorCountRule,
    ) -> Option<PlaneLane> {
        let len = colors.len();
        assert_eq!(
            adjacency.node_count(),
            len,
            "adjacency does not match the configuration"
        );
        let mut palette: Vec<Color> = colors.to_vec();
        palette.sort_unstable();
        palette.dedup();
        if palette.is_empty() || palette.len() > MAX_PALETTE {
            return None;
        }
        let code_of_color = |c: Color| palette.binary_search(&c).ok().map(|i| i as u8);
        let decision = match rule.form() {
            ColorCountForm::Plurality { min_pair } => {
                if rule.tie_to().is_some() && min_pair < 2 {
                    return None;
                }
                Decision::Plurality {
                    min_pair,
                    tie: rule.tie_to().and_then(code_of_color),
                }
            }
            ColorCountForm::Activation { active, threshold } => {
                let code = code_of_color(active);
                if code.is_none() && threshold == 0 {
                    // Would recolour everything to a colour outside the
                    // palette in round one — not representable in codes.
                    return None;
                }
                Decision::Activation { code, threshold }
            }
            // Future plane-evaluable forms fall back to the generic lane.
            _ => return None,
        };
        // A locked colour nobody holds can never matter.
        let locked_code = rule.locked().and_then(code_of_color);

        let k = palette.len();
        let plane_count = if k <= 2 {
            1
        } else {
            (usize::BITS - (k - 1).leading_zeros()) as usize
        };
        let words = len.div_ceil(64);
        let mut planes = vec![vec![0u64; words]; plane_count];
        let mut census = vec![0usize; k];
        for (v, &c) in colors.iter().enumerate() {
            let code = code_of_color(c).expect("every colour is in the palette");
            census[code as usize] += 1;
            for (p, plane) in planes.iter_mut().enumerate() {
                if (code >> p) & 1 == 1 {
                    plane[v >> 6] |= 1u64 << (v & 63);
                }
            }
        }

        // Classify words against the shared interior CSR pattern
        // [v-cols, v+cols, v-1, v+1].  Computed in i64 so grid-edge
        // vertices (whose wrapped neighbours differ per torus kind) can
        // never match accidentally.  A full word whose only deviations are
        // toroidal-mesh row-wrap lanes still takes the vector kernel with
        // those lanes blended in; the matching vertical pattern guarantees
        // every gather it performs stays in bounds (base >= cols and
        // base + 64 <= len - cols).
        let mut class = vec![WordClass::Slow; words];
        if cols > 0 {
            let stride = cols as i64;
            'words: for (w, slot) in class.iter_mut().enumerate() {
                let start = w * 64;
                if start + 64 > len {
                    continue;
                }
                let (mut west, mut east) = (0u64, 0u64);
                for v in start..start + 64 {
                    let nbrs = adjacency.neighbors_raw(v);
                    let vi = v as i64;
                    if nbrs.len() != 4
                        || i64::from(nbrs[0]) != vi - stride
                        || i64::from(nbrs[1]) != vi + stride
                    {
                        continue 'words;
                    }
                    let lane = 1u64 << (v - start);
                    match i64::from(nbrs[2]) - vi {
                        -1 => {}
                        d if d == stride - 1 => west |= lane,
                        _ => continue 'words,
                    }
                    match i64::from(nbrs[3]) - vi {
                        1 => {}
                        d if d == 1 - stride => east |= lane,
                        _ => continue 'words,
                    }
                }
                *slot = if west | east == 0 {
                    WordClass::Fast
                } else {
                    WordClass::Wrap { west, east }
                };
            }
        }

        // The word-granular dirty table: which other words hold a
        // neighbour of some vertex of each word.
        let mut mark_offsets = vec![0u32; words + 1];
        let mut mark_words: Vec<u32> = Vec::new();
        let mut scratch: Vec<u32> = Vec::new();
        for w in 0..words {
            scratch.clear();
            let start = w * 64;
            for v in start..(start + 64).min(len) {
                for &u in adjacency.neighbors_raw(v) {
                    let uw = u >> 6;
                    if uw as usize != w && !scratch.contains(&uw) {
                        scratch.push(uw);
                    }
                }
            }
            mark_words.extend_from_slice(&scratch);
            mark_offsets[w + 1] = mark_words.len() as u32;
        }
        let tile_geometry = if cols >= 64 && cols.is_multiple_of(64) && len.is_multiple_of(cols) {
            Some((len / cols, cols / 64))
        } else {
            None
        };

        Some(PlaneLane {
            planes,
            plane_count,
            len,
            words,
            cols,
            palette,
            census,
            class,
            mark_offsets,
            mark_words,
            tile_geometry,
            decision,
            locked_code,
            worklist: Worklist::new(words),
            band_patches: Vec::new(),
            band_cands: Vec::new(),
            threads: 1,
            planned_threads: 0,
            band_plan: Vec::new(),
            last_dense_bands: 0,
            last_sparse_bands: 0,
            last_cells_evaluated: 0,
            flipped: 0,
        })
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the lane has no vertices.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The distinct colours of the initial configuration, ascending.  The
    /// palette is closed under the compiled rule, so it never changes.
    pub fn palette(&self) -> &[Color] {
        &self.palette
    }

    /// Number of bit planes in use (`⌈log₂ |palette|⌉`, at least 1).
    pub fn plane_count(&self) -> usize {
        self.plane_count
    }

    /// The current colour of vertex `v`.
    #[inline]
    pub fn color_at(&self, v: usize) -> Color {
        self.palette[self.code_of(v) as usize]
    }

    /// Number of vertices currently holding `k` (O(log palette)).
    pub fn count_of(&self, k: Color) -> usize {
        match self.palette.binary_search(&k) {
            Ok(code) => self.census[code],
            Err(_) => 0,
        }
    }

    /// The `(colour, count)` pairs of every colour currently present, in
    /// ascending colour order — O(palette), straight off the census.
    pub fn histogram(&self) -> Vec<(Color, usize)> {
        self.palette
            .iter()
            .zip(&self.census)
            .filter(|&(_, &n)| n > 0)
            .map(|(&c, &n)| (c, n))
            .collect()
    }

    /// The monochromatic colour, if every vertex holds the same one
    /// (O(palette)).
    pub fn monochromatic(&self) -> Option<Color> {
        if self.is_empty() {
            return None;
        }
        self.census
            .iter()
            .position(|&n| n == self.len)
            .map(|code| self.palette[code])
    }

    /// Materialises the configuration as one colour per vertex.
    pub fn snapshot(&self) -> Vec<Color> {
        (0..self.len).map(|v| self.color_at(v)).collect()
    }

    /// The `(vertex, old colour, new colour)` changes of the last
    /// [`PlaneLane::step`] call, derived lazily from the retained patches
    /// so the hot apply loop never materialises per-flip tuples.
    pub fn flips(&self) -> impl Iterator<Item = (u32, Color, Color)> + '_ {
        let pc = self.plane_count;
        self.band_patches.iter().flatten().flat_map(move |patch| {
            let base = patch.word as usize * 64;
            let mut mask = patch.changed;
            std::iter::from_fn(move || {
                if mask == 0 {
                    return None;
                }
                let bit = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                let (mut old, mut new) = (0u8, 0u8);
                for p in 0..pc {
                    old |= (((patch.old[p] >> bit) & 1) as u8) << p;
                    new |= (((patch.new[p] >> bit) & 1) as u8) << p;
                }
                Some((
                    (base + bit) as u32,
                    self.palette[old as usize],
                    self.palette[new as usize],
                ))
            })
        })
    }

    /// Number of vertices changed by the last [`PlaneLane::step`] call.
    pub fn flip_count(&self) -> usize {
        self.flipped
    }

    /// Pins every future round to a full sweep (the reference of the
    /// equivalence tests and the frontier benchmarks).
    pub fn set_always_full(&mut self) {
        self.worklist.set_always_full();
    }

    /// Sets the number of row-band workers [`PlaneLane::step`] uses.
    ///
    /// Values are clamped to at least 1; the number of bands actually
    /// spawned is further bounded by how many tile-row-aligned bands the
    /// grid supports.  Results are bit-identical for every thread count
    /// (evaluation reads only the frozen pre-round planes and writes
    /// band-local buffers), so this is a pure throughput knob.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// `(dense bands, sparse bands, cells evaluated)` of the last step —
    /// the hybrid crossover's per-round decision record.
    pub(crate) fn last_step_profile(&self) -> (u32, u32, u64) {
        (
            self.last_dense_bands,
            self.last_sparse_bands,
            self.last_cells_evaluated,
        )
    }

    /// Recomputes the band partition when the thread count changed.
    fn ensure_plan(&mut self) {
        if self.planned_threads == self.threads {
            return;
        }
        // Align band starts to whole tile rows so each band's full sweep
        // keeps the cache-tiled traversal intact.
        let align = match self.tile_geometry {
            Some((_, words_per_row)) => words_per_row * TILE_ROWS,
            None => 1,
        };
        self.band_plan = band_ranges(self.words, self.threads, align);
        let bands = self.band_plan.len();
        self.band_patches.resize_with(bands, Vec::new);
        self.band_cands.resize_with(bands, Vec::new);
        self.planned_threads = self.threads;
    }

    /// The current code of vertex `v` (its colour's palette position).
    #[inline]
    fn code_of(&self, v: usize) -> u8 {
        let (w, b) = (v >> 6, v & 63);
        let mut code = 0u8;
        for (p, plane) in self.planes.iter().enumerate() {
            code |= (((plane[w] >> b) & 1) as u8) << p;
        }
        code
    }

    /// Evaluates one word against the pre-round planes.
    fn eval_word(&self, adjacency: &Adjacency, w: u32) -> Option<Patch> {
        match self.class[w as usize] {
            WordClass::Fast => self.eval_vector(w, 0, 0),
            WordClass::Wrap { west, east } => self.eval_vector(w, west, east),
            WordClass::Slow => self.eval_slow(adjacency, w),
        }
    }

    /// The vectorised kernel: 64 vertices in one pass of word ops, valid
    /// because fast and wrap words are full and share the interior
    /// neighbour pattern (degree exactly 4) up to the `west`/`east`
    /// row-wrap lanes.
    fn eval_vector(&self, w: u32, west: u64, east: u64) -> Option<Patch> {
        let wi = w as usize;
        let base = wi * 64;
        let pc = self.plane_count;
        let k = self.palette.len();

        let mut own = [0u64; MAX_PLANES];
        for (p, plane) in self.planes.iter().enumerate() {
            own[p] = plane[wi];
        }
        // One gathered word set per direction.  Classification guarantees
        // base >= cols and base >= 1, and that every gathered bit index is
        // a valid vertex, so the funnel shifts stay in bounds.
        let bases = [base - self.cols, base + self.cols, base - 1, base + 1];
        let mut nb = [[0u64; MAX_PLANES]; 4];
        for (d, &b) in bases.iter().enumerate() {
            for (p, plane) in self.planes.iter().enumerate() {
                nb[d][p] = gather(plane, b);
            }
        }
        // Row-wrap lanes read one row further on (west) or back (east):
        // the same funnel gather shifted by `cols`, blended in under the
        // lane mask.
        for (d, mask, b) in [
            (2, west, base + self.cols - 1),
            (3, east, base + 1 - self.cols),
        ] {
            if mask != 0 {
                for (p, plane) in self.planes.iter().enumerate() {
                    nb[d][p] = (nb[d][p] & !mask) | (gather(plane, b) & mask);
                }
            }
        }

        let mut changed = 0u64;
        let mut adopted = [0u64; MAX_PLANES];
        let mut adopt_code = |code: usize, adopt: u64, changed: &mut u64| {
            let effective = adopt & !indicator(&own, pc, code);
            if effective != 0 {
                *changed |= effective;
                for (p, slot) in adopted.iter_mut().enumerate().take(pc) {
                    if (code >> p) & 1 == 1 {
                        *slot |= effective;
                    }
                }
            }
        };

        match self.decision {
            Decision::Plurality { min_pair, tie } if min_pair <= 2 => {
                // On degree 4 a unique plurality of one is impossible
                // (four singletons tie), so min_pair <= 2 all behave as 2:
                // adopt on counts 4, 3-1 and 2-1-1; keep on 2-2 ties
                // unless the tie colour is one of the pair.
                let mut ge2 = [0u64; MAX_PALETTE];
                let mut ge3 = [0u64; MAX_PALETTE];
                let mut any2 = 0u64;
                let mut dup2 = 0u64;
                for code in 0..k {
                    let (hi, mid, low) = count4(
                        indicator(&nb[0], pc, code),
                        indicator(&nb[1], pc, code),
                        indicator(&nb[2], pc, code),
                        indicator(&nb[3], pc, code),
                    );
                    let g2 = hi | mid;
                    ge2[code] = g2;
                    ge3[code] = hi | (mid & low);
                    dup2 |= any2 & g2;
                    any2 |= g2;
                }
                for code in 0..k {
                    // A pair is the unique plurality iff no *other* colour
                    // also reaches two: either two colours reached two
                    // (dup2) or some colour did and it is not this one.
                    let other_pair = dup2 | (any2 & !ge2[code]);
                    let mut adopt = ge3[code] | (ge2[code] & !ge3[code] & !other_pair);
                    if tie == Some(code as u8) {
                        // Two colours at two each is a 2-2 tie; the tie
                        // colour wins it when it is one of them.
                        adopt |= ge2[code] & dup2;
                    }
                    adopt_code(code, adopt, &mut changed);
                }
            }
            Decision::Plurality { min_pair, .. } => {
                // min_pair 3 or 4 of four neighbours is automatically a
                // unique plurality (no tie to resolve); 5+ can never fire
                // on degree 4.
                if (3..=4).contains(&min_pair) {
                    for code in 0..k {
                        let (hi, mid, low) = count4(
                            indicator(&nb[0], pc, code),
                            indicator(&nb[1], pc, code),
                            indicator(&nb[2], pc, code),
                            indicator(&nb[3], pc, code),
                        );
                        let adopt = if min_pair == 3 { hi | (mid & low) } else { hi };
                        adopt_code(code, adopt, &mut changed);
                    }
                }
            }
            Decision::Activation {
                code: Some(active),
                threshold,
            } => {
                let code = active as usize;
                let (hi, mid, low) = count4(
                    indicator(&nb[0], pc, code),
                    indicator(&nb[1], pc, code),
                    indicator(&nb[2], pc, code),
                    indicator(&nb[3], pc, code),
                );
                let reached = match threshold {
                    0 => !0u64,
                    1 => hi | mid | low,
                    2 => hi | mid,
                    3 => hi | (mid & low),
                    4 => hi,
                    _ => 0,
                };
                adopt_code(code, reached, &mut changed);
            }
            // Activation colour absent with a positive threshold: inert.
            Decision::Activation { code: None, .. } => {}
        }

        if let Some(locked) = self.locked_code {
            changed &= !indicator(&own, pc, locked as usize);
        }
        if changed == 0 {
            return None;
        }
        let mut new = [0u64; MAX_PLANES];
        for p in 0..pc {
            new[p] = (own[p] & !changed) | (adopted[p] & changed);
        }
        Some(Patch {
            word: w,
            changed,
            old: own,
            new,
        })
    }

    /// The exact per-vertex path for boundary words, the partial tail
    /// word and non-torus structure: counts neighbour codes straight off
    /// the CSR, at any degree.
    fn eval_slow(&self, adjacency: &Adjacency, w: u32) -> Option<Patch> {
        let wi = w as usize;
        let start = wi * 64;
        let end = (start + 64).min(self.len);
        let mut changed = 0u64;
        let mut old = [0u64; MAX_PLANES];
        for (p, plane) in self.planes.iter().enumerate() {
            old[p] = plane[wi];
        }
        let mut new = old;
        for v in start..end {
            let own = self.code_of(v);
            let mut counts = [0u32; MAX_PALETTE];
            for &u in adjacency.neighbors_raw(v) {
                counts[self.code_of(u as usize) as usize] += 1;
            }
            let next = self.decide_one(own, &counts);
            if next != own {
                let bit = 1u64 << (v - start);
                changed |= bit;
                for (p, slot) in new.iter_mut().enumerate().take(self.plane_count) {
                    if (next >> p) & 1 == 1 {
                        *slot |= bit;
                    } else {
                        *slot &= !bit;
                    }
                }
            }
        }
        (changed != 0).then_some(Patch {
            word: w,
            changed,
            old,
            new,
        })
    }

    /// The compiled rule on one vertex's per-code neighbour counts —
    /// the reference [`ColorCountRule::next_color`] in code space.
    fn decide_one(&self, own: u8, counts: &[u32; MAX_PALETTE]) -> u8 {
        if self.locked_code == Some(own) {
            return own;
        }
        match self.decision {
            Decision::Plurality { min_pair, tie } => {
                let mut best: Option<(u8, u32)> = None;
                let mut tied = false;
                for (code, &n) in counts.iter().enumerate().take(self.palette.len()) {
                    if n == 0 {
                        continue;
                    }
                    match best {
                        Some((_, b)) if n > b => {
                            best = Some((code as u8, n));
                            tied = false;
                        }
                        Some((_, b)) if n == b => tied = true,
                        None => best = Some((code as u8, n)),
                        _ => {}
                    }
                }
                match best {
                    Some((code, n)) if !tied && n >= min_pair => code,
                    Some((_, n)) if n >= min_pair => match tie {
                        Some(t) if counts[t as usize] == n => t,
                        _ => own,
                    },
                    _ => own,
                }
            }
            Decision::Activation {
                code: Some(active),
                threshold,
            } => {
                if own == active || counts[active as usize] < threshold {
                    own
                } else {
                    active
                }
            }
            Decision::Activation { code: None, .. } => own,
        }
    }

    /// The full tiled sweep over one band's word range, accumulating
    /// patches and their census/flip summary band-locally.
    ///
    /// Tiling applies when the range covers whole torus rows (band
    /// alignment guarantees it on tiled grids); otherwise the range
    /// streams in linear word order.
    fn eval_dense_range(
        &self,
        adjacency: &Adjacency,
        start_w: usize,
        end_w: usize,
        out: &mut Vec<Patch>,
        delta: &mut BandDelta,
    ) {
        let pc = self.plane_count;
        let k = self.palette.len();
        match self.tile_geometry {
            Some((_, words_per_row))
                if start_w.is_multiple_of(words_per_row) && end_w.is_multiple_of(words_per_row) =>
            {
                let row0 = start_w / words_per_row;
                let row1 = end_w / words_per_row;
                for tile_row in (row0..row1).step_by(TILE_ROWS) {
                    for tile_col in (0..words_per_row).step_by(TILE_WORD_COLS) {
                        for r in tile_row..(tile_row + TILE_ROWS).min(row1) {
                            for wc in tile_col..(tile_col + TILE_WORD_COLS).min(words_per_row) {
                                let w = (r * words_per_row + wc) as u32;
                                if let Some(p) = self.eval_word(adjacency, w) {
                                    delta.account(&p, pc, k);
                                    out.push(p);
                                }
                            }
                        }
                    }
                }
            }
            _ => {
                for w in start_w..end_w {
                    if let Some(p) = self.eval_word(adjacency, w as u32) {
                        delta.account(&p, pc, k);
                        out.push(p);
                    }
                }
            }
        }
    }

    /// The worklist path over one band's candidate bucket.
    fn eval_candidates(
        &self,
        adjacency: &Adjacency,
        cands: &[u32],
        out: &mut Vec<Patch>,
        delta: &mut BandDelta,
    ) {
        let pc = self.plane_count;
        let k = self.palette.len();
        for &w in cands {
            if let Some(p) = self.eval_word(adjacency, w) {
                delta.account(&p, pc, k);
                out.push(p);
            }
        }
    }

    /// Executes one synchronous round and returns the number of changed
    /// vertices.
    ///
    /// The first round after construction evaluates every word; later
    /// rounds evaluate only the dirty words (words holding last round's
    /// flips or their neighbours).  Evaluation is partitioned into
    /// tile-aligned row bands (one worker each, see [`crate::parallel`])
    /// and each band independently chooses dense or sparse execution: a
    /// band whose candidate bucket covers ≳62.5 % of its words re-runs
    /// the full tiled sweep instead of chasing the worklist, which is
    /// exact because a word absent from the worklist cannot change (its
    /// evaluation is a no-op), so the dense superset yields the identical
    /// patch set.  Changes are available through [`PlaneLane::flips`]
    /// until the next step.
    pub fn step(&mut self, adjacency: &Adjacency) -> usize {
        assert_eq!(
            adjacency.node_count(),
            self.len,
            "adjacency does not match the lane"
        );
        self.ensure_plan();
        self.flipped = 0;
        let full = self.worklist.is_full_round();
        let bands = self.band_plan.len();

        // Bucket the candidate words by owning band (bands are contiguous
        // and start at 0, so a binary search over starts places each).
        let mut band_cands = std::mem::take(&mut self.band_cands);
        for bucket in &mut band_cands {
            bucket.clear();
        }
        if !full {
            if bands == 1 {
                band_cands[0].extend_from_slice(self.worklist.candidates());
            } else {
                for &w in self.worklist.candidates() {
                    let band = self
                        .band_plan
                        .partition_point(|&(start, _)| start <= w as usize)
                        - 1;
                    band_cands[band].push(w);
                }
            }
        }

        // The hybrid dense/sparse crossover, per band: the worklist path
        // costs roughly a per-candidate dispatch that the tiled sweep
        // amortises away, so once a band's bucket passes ~5/8 of its
        // words the full sweep is cheaper (calibrated on the BENCH_6
        // scatter workloads, where near-full buckets made sparse k=8
        // rounds pay the 3-plane gather tax word by word).
        let dense: Vec<bool> = self
            .band_plan
            .iter()
            .enumerate()
            .map(|(b, &(start, end))| full || band_cands[b].len() * 8 >= (end - start) * 5)
            .collect();

        // Evaluate all bands against the frozen pre-round planes; each
        // worker owns one patch buffer and returns its census/flip
        // summary.  `run_bands` is the barrier that publishes the round.
        let mut band_patches = std::mem::take(&mut self.band_patches);
        for buffer in &mut band_patches {
            buffer.clear();
        }
        let lane = &*self;
        let deltas = run_bands(
            &lane.band_plan,
            &mut band_patches,
            |band, start, end, out| {
                let mut delta = BandDelta::default();
                if dense[band] {
                    lane.eval_dense_range(adjacency, start, end, out, &mut delta);
                } else {
                    lane.eval_candidates(adjacency, &band_cands[band], out, &mut delta);
                }
                delta
            },
        );

        // Merge phase: the workers already counted flips and census
        // movement, so the sequential section only writes the new plane
        // words and marks the worklist — order across bands is
        // irrelevant (each word has at most one patch).
        for delta in &deltas {
            self.flipped += delta.flips;
            for (slot, &moved) in self.census.iter_mut().zip(&delta.census) {
                *slot = (*slot as i64 + moved) as usize;
            }
        }
        for patch in band_patches.iter().flatten() {
            let wi = patch.word as usize;
            for (p, plane) in self.planes.iter_mut().enumerate() {
                plane[wi] = patch.new[p];
            }
        }

        self.last_dense_bands = 0;
        self.last_sparse_bands = 0;
        let mut words_evaluated = 0u64;
        for (b, &(start, end)) in self.band_plan.iter().enumerate() {
            if dense[b] {
                self.last_dense_bands += 1;
                words_evaluated += (end - start) as u64;
            } else {
                self.last_sparse_bands += 1;
                words_evaluated += band_cands[b].len() as u64;
            }
        }
        self.last_cells_evaluated = words_evaluated * 64;
        self.band_patches = band_patches;
        self.band_cands = band_cands;

        self.worklist.begin_next();
        if !self.worklist.always_full() {
            // Word-granular propagation: a changed word dirties itself and
            // the handful of words holding neighbours of its vertices
            // (a safe superset of the per-flip marks, with no CSR walk).
            for patch in self.band_patches.iter().flatten() {
                let w = patch.word;
                self.worklist.mark(w);
                let from = self.mark_offsets[w as usize] as usize;
                let to = self.mark_offsets[w as usize + 1] as usize;
                for &u in &self.mark_words[from..to] {
                    self.worklist.mark(u);
                }
            }
        }
        self.worklist.finish_round();
        self.flipped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctori_topology::{Torus, TorusKind};

    fn c(i: u16) -> Color {
        Color::new(i)
    }

    /// A deterministic pseudo-random colouring over `palette` colours.
    fn scatter_colors(n: usize, palette: u16, seed: u64) -> Vec<Color> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                // xorshift64
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                c(1 + (x % u64::from(palette)) as u16)
            })
            .collect()
    }

    /// Reference: one synchronous full-sweep round through the compiled
    /// rule's scalar evaluator.
    fn reference_round(
        adjacency: &Adjacency,
        rule: &ColorCountRule,
        colors: &[Color],
    ) -> Vec<Color> {
        (0..colors.len())
            .map(|v| {
                let counts: Vec<(Color, u32)> = {
                    let mut acc: Vec<(Color, u32)> = Vec::new();
                    for &u in adjacency.neighbors_raw(v) {
                        let cu = colors[u as usize];
                        match acc.iter_mut().find(|(cc, _)| *cc == cu) {
                            Some((_, n)) => *n += 1,
                            None => acc.push((cu, 1)),
                        }
                    }
                    acc
                };
                rule.next_color(colors[v], &counts)
            })
            .collect()
    }

    fn check_lane_matches_reference(
        kind: TorusKind,
        m: usize,
        n: usize,
        palette: u16,
        rule: ColorCountRule,
    ) {
        let torus = Torus::new(kind, m, n);
        let adjacency = Adjacency::from_torus(&torus);
        let mut colors = scatter_colors(m * n, palette, 0x5EED ^ (m * 31 + n) as u64);
        let mut lane =
            PlaneLane::from_colors(&adjacency, n, &colors, &rule).expect("palette fits the lane");
        for round in 0..12 {
            let expected = reference_round(&adjacency, &rule, &colors);
            let flips = lane.step(&adjacency);
            let changed = expected.iter().zip(&colors).filter(|(a, b)| a != b).count();
            assert_eq!(flips, changed, "flip count diverges at round {round}");
            assert_eq!(lane.snapshot(), expected, "state diverges at round {round}");
            colors = expected;
        }
    }

    #[test]
    fn plurality_matches_scalar_reference_on_all_kinds() {
        for kind in TorusKind::ALL {
            // 65 columns: every word contains a wrap column, so the whole
            // torus takes the exact per-vertex path.
            check_lane_matches_reference(kind, 8, 65, 5, ColorCountRule::plurality(2));
            // 256 columns: interior rows hold genuinely fast words, so the
            // vectorised kernel and the boundary path are checked against
            // each other through the shared reference.
            check_lane_matches_reference(kind, 8, 256, 5, ColorCountRule::plurality(2));
            check_lane_matches_reference(kind, 6, 9, 3, ColorCountRule::plurality(2));
            // Narrow tori: a word spans several rows, so interior words
            // hold several row-wrap lanes (at unaligned offsets for 20).
            check_lane_matches_reference(kind, 16, 16, 3, ColorCountRule::plurality(2));
            check_lane_matches_reference(kind, 16, 20, 4, ColorCountRule::plurality(2));
        }
    }

    #[test]
    fn tie_form_matches_scalar_reference() {
        // Prefer-black's counting form: 2-2 ties involving colour 2 adopt
        // it.  Width 65 puts every word on the slow path; width 256 adds
        // fast words and, on the toroidal mesh, wrap words.  Two colours
        // make every tie a black one, five colours mix in ties without it.
        let rule = ColorCountRule::plurality(2).with_tie_to(c(2));
        for kind in TorusKind::ALL {
            for palette in [2, 5] {
                check_lane_matches_reference(kind, 8, 65, palette, rule);
                check_lane_matches_reference(kind, 8, 256, palette, rule);
            }
        }
        // Narrow meshes put several row-wrap lanes in one vector word.
        check_lane_matches_reference(TorusKind::ToroidalMesh, 16, 16, 2, rule);
        // A singleton tie would need a 1-1-1-1 mask the kernel lacks.
        let torus = Torus::new(TorusKind::ToroidalMesh, 4, 4);
        let adjacency = Adjacency::from_torus(&torus);
        let colors = scatter_colors(16, 3, 5);
        let singleton = ColorCountRule::plurality(1).with_tie_to(c(2));
        assert!(PlaneLane::from_colors(&adjacency, 4, &colors, &singleton).is_none());
    }

    #[test]
    fn activation_matches_scalar_reference() {
        for kind in TorusKind::ALL {
            check_lane_matches_reference(kind, 7, 64, 4, ColorCountRule::activation(c(1), 2));
        }
    }

    #[test]
    fn locked_colors_freeze_their_holders() {
        check_lane_matches_reference(
            TorusKind::ToroidalMesh,
            6,
            66,
            4,
            ColorCountRule::plurality(2).with_locked(c(2)),
        );
    }

    #[test]
    fn higher_min_pair_forms_match() {
        for min_pair in [3, 4, 5] {
            check_lane_matches_reference(
                TorusKind::TorusCordalis,
                5,
                70,
                6,
                ColorCountRule::plurality(min_pair),
            );
        }
    }

    #[test]
    fn census_and_histogram_stay_consistent() {
        let torus = Torus::new(TorusKind::ToroidalMesh, 8, 64);
        let adjacency = Adjacency::from_torus(&torus);
        let colors = scatter_colors(8 * 64, 7, 99);
        let rule = ColorCountRule::plurality(2);
        let mut lane = PlaneLane::from_colors(&adjacency, 64, &colors, &rule).unwrap();
        for _ in 0..8 {
            lane.step(&adjacency);
            let snapshot = lane.snapshot();
            for &color in lane.palette() {
                let expected = snapshot.iter().filter(|&&x| x == color).count();
                assert_eq!(lane.count_of(color), expected);
            }
            let histogram = lane.histogram();
            assert!(histogram.windows(2).all(|w| w[0].0 < w[1].0));
            assert_eq!(histogram.iter().map(|&(_, n)| n).sum::<usize>(), lane.len());
        }
        assert_eq!(lane.count_of(c(200)), 0);
    }

    #[test]
    fn frontier_and_full_sweep_agree() {
        let torus = Torus::new(TorusKind::TorusSerpentinus, 9, 67);
        let adjacency = Adjacency::from_torus(&torus);
        let colors = scatter_colors(9 * 67, 4, 7);
        let rule = ColorCountRule::plurality(2);
        let mut frontier = PlaneLane::from_colors(&adjacency, 67, &colors, &rule).unwrap();
        let mut full = PlaneLane::from_colors(&adjacency, 67, &colors, &rule).unwrap();
        full.set_always_full();
        for round in 0..20 {
            let a = frontier.step(&adjacency);
            let b = full.step(&adjacency);
            assert_eq!(a, b, "flip counts diverge at round {round}");
            assert_eq!(
                frontier.snapshot(),
                full.snapshot(),
                "states diverge at round {round}"
            );
        }
    }

    #[test]
    fn band_parallel_stepping_is_bit_identical() {
        // 128 columns → 2 words per row, 12 rows: with threads=3 the
        // tile-row alignment still splits the grid, and the frontier
        // worklist shrinks over time so later rounds cross the hybrid
        // dense→sparse threshold per band.
        for kind in TorusKind::ALL {
            let torus = Torus::new(kind, 12, 128);
            let adjacency = Adjacency::from_torus(&torus);
            let colors = scatter_colors(12 * 128, 5, 0xBAD5EED);
            let rule = ColorCountRule::plurality(2);
            let mut seq = PlaneLane::from_colors(&adjacency, 128, &colors, &rule).unwrap();
            let mut par = PlaneLane::from_colors(&adjacency, 128, &colors, &rule).unwrap();
            par.set_threads(3);
            for round in 0..16 {
                let a = seq.step(&adjacency);
                let b = par.step(&adjacency);
                assert_eq!(a, b, "{kind:?}: flip counts diverge at round {round}");
                assert_eq!(
                    seq.snapshot(),
                    par.snapshot(),
                    "{kind:?}: states diverge at round {round}"
                );
                let mut sf: Vec<_> = seq.flips().collect();
                let mut pf: Vec<_> = par.flips().collect();
                sf.sort_unstable();
                pf.sort_unstable();
                assert_eq!(sf, pf, "{kind:?}: flip sets diverge at round {round}");
                assert_eq!(seq.histogram(), par.histogram());
            }
        }
    }

    #[test]
    fn hybrid_dense_rounds_match_the_sparse_path() {
        // A quiescing pattern: one active block in a monochrome sea.  The
        // first frontier rounds are near-full (dense crossover fires),
        // later rounds go sparse; an always-full lane pins the reference.
        let torus = Torus::new(TorusKind::ToroidalMesh, 16, 64);
        let adjacency = Adjacency::from_torus(&torus);
        let mut colors = vec![c(1); 16 * 64];
        for (i, slot) in colors.iter_mut().enumerate().take(6 * 64).skip(4 * 64) {
            if i % 3 == 0 {
                *slot = c(2);
            }
        }
        let rule = ColorCountRule::plurality(2);
        let mut hybrid = PlaneLane::from_colors(&adjacency, 64, &colors, &rule).unwrap();
        hybrid.set_threads(2);
        let mut full = PlaneLane::from_colors(&adjacency, 64, &colors, &rule).unwrap();
        full.set_always_full();
        let mut saw_dense = false;
        let mut saw_sparse = false;
        for round in 0..24 {
            let a = hybrid.step(&adjacency);
            let b = full.step(&adjacency);
            assert_eq!(a, b, "flip counts diverge at round {round}");
            assert_eq!(hybrid.snapshot(), full.snapshot());
            let (dense, sparse, cells) = hybrid.last_step_profile();
            assert_eq!((dense + sparse) as usize, hybrid.band_plan.len());
            assert!(cells <= (hybrid.words as u64) * 64);
            saw_dense |= dense > 0;
            saw_sparse |= sparse > 0;
        }
        assert!(saw_dense, "the dense crossover never fired");
        assert!(saw_sparse, "the sparse path never ran");
    }

    #[test]
    fn oversized_palettes_are_rejected() {
        let torus = Torus::new(TorusKind::ToroidalMesh, 5, 5);
        let adjacency = Adjacency::from_torus(&torus);
        let colors: Vec<Color> = (0..25).map(|v| c(1 + (v % 17) as u16)).collect();
        assert!(
            PlaneLane::from_colors(&adjacency, 5, &colors, &ColorCountRule::plurality(2)).is_none()
        );
    }

    #[test]
    fn absent_zero_threshold_activation_is_rejected() {
        let torus = Torus::new(TorusKind::ToroidalMesh, 4, 4);
        let adjacency = Adjacency::from_torus(&torus);
        let colors = vec![c(1); 16];
        // Active colour 9 is absent; threshold 0 would recolour everything
        // to it — outside the palette, so the lane must refuse.
        assert!(PlaneLane::from_colors(
            &adjacency,
            4,
            &colors,
            &ColorCountRule::activation(c(9), 0)
        )
        .is_none());
        // With a positive threshold the lane is simply inert.
        let mut lane =
            PlaneLane::from_colors(&adjacency, 4, &colors, &ColorCountRule::activation(c(9), 1))
                .unwrap();
        assert_eq!(lane.step(&adjacency), 0);
        assert_eq!(lane.monochromatic(), Some(c(1)));
    }

    #[test]
    fn interior_words_are_classified_on_all_kinds() {
        // On a 8x256 torus rows are four words wide and rows 1..=6 avoid
        // the vertical wrap.  On the toroidal mesh the row wrap breaks the
        // linear pattern at columns 0 and 255, so the two middle words of
        // each interior row are fast and the two edge words take the
        // vector kernel with one patched lane each; on the chordal tori
        // the wrap of (i, 0) is literally vertex v-1 (and of (i, n-1)
        // vertex v+1), so whole interior rows are fast with no patching.
        for (kind, expected_fast, expected_wrap) in [
            (TorusKind::ToroidalMesh, 6 * 2, 6 * 2),
            (TorusKind::TorusCordalis, 6 * 4, 0),
            (TorusKind::TorusSerpentinus, 6 * 4, 0),
        ] {
            let torus = Torus::new(kind, 8, 256);
            let adjacency = Adjacency::from_torus(&torus);
            let colors = scatter_colors(8 * 256, 3, 3);
            let lane =
                PlaneLane::from_colors(&adjacency, 256, &colors, &ColorCountRule::plurality(2))
                    .unwrap();
            let fast_words = lane.class.iter().filter(|&&c| c == WordClass::Fast).count();
            let wrap_words = lane
                .class
                .iter()
                .filter(|&&c| matches!(c, WordClass::Wrap { .. }))
                .count();
            assert_eq!(fast_words, expected_fast, "{kind:?}: fast-word census");
            assert_eq!(wrap_words, expected_wrap, "{kind:?}: wrap-word census");
            // Row 0 and the last row always touch a vertical wrap.
            assert_eq!(lane.class[0], WordClass::Slow);
            assert_eq!(lane.class[lane.words - 1], WordClass::Slow);
        }
    }

    #[test]
    fn mesh_wrap_words_patch_the_wrap_columns() {
        // First word of an interior toroidal-mesh row: lane 0 is column 0,
        // whose west neighbour wraps to (row, n-1); the last word's lane
        // 63 is column n-1, whose east neighbour wraps to (row, 0).
        let torus = Torus::new(TorusKind::ToroidalMesh, 4, 128);
        let adjacency = Adjacency::from_torus(&torus);
        let colors = scatter_colors(4 * 128, 3, 11);
        let lane = PlaneLane::from_colors(&adjacency, 128, &colors, &ColorCountRule::plurality(2))
            .unwrap();
        // Row 1 spans words 2 and 3.
        assert_eq!(lane.class[2], WordClass::Wrap { west: 1, east: 0 });
        assert_eq!(
            lane.class[3],
            WordClass::Wrap {
                west: 0,
                east: 1 << 63,
            }
        );
        // On a 16-wide mesh a word holds four rows, hence four wrap lanes
        // each way; only the words touching row 0 or row 15 stay slow.
        let torus = Torus::new(TorusKind::ToroidalMesh, 16, 16);
        let adjacency = Adjacency::from_torus(&torus);
        let colors = scatter_colors(16 * 16, 2, 11);
        let lane =
            PlaneLane::from_colors(&adjacency, 16, &colors, &ColorCountRule::plurality(2)).unwrap();
        let rows = WordClass::Wrap {
            west: 0x0001_0001_0001_0001,
            east: 0x8000_8000_8000_8000,
        };
        assert_eq!(lane.class, [WordClass::Slow, rows, rows, WordClass::Slow]);
    }
}
