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
//! 2. **Compare** neighbour pairs (plurality rules): six lane masks
//!    `e_ab = ¬∨_p (nb_a,p ⊕ nb_b,p)` say which of the four gathered codes
//!    agree.  On four neighbours they settle the counts — some code twice,
//!    a 2-2 tie, some code three or four times — whatever the palette
//!    size, and a per-plane mux over the gathered words (neighbour 0 if it
//!    is in a pair, else 1, else 2) names the winning code.  A tie colour
//!    wins a 2-2 tie when it holds one of the two pairs.
//! 3. **Count** one colour (activation rules): the active colour's
//!    indicator per direction, `ind_c = ∧_p (nb_p` or `!nb_p)` by bit `p`
//!    of code `c`, summed by a half-adder tree into 64 parallel 3-bit
//!    counters and compared with the threshold.
//! 4. **Merge** the decided codes into the planes under the changed mask.
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
//! no per-flip neighbour walks).  Words are classified once at
//! construction, from the torus's own wrap rule
//! ([`ctori_topology::Torus`]); no CSR is built:
//!
//! * **fast** — the word is full and none of its vertices lies in row 0
//!   or row `m-1`, so every vertex `v` in it has the neighbour pattern
//!   `[v-cols, v+cols, v-1, v+1]`, the interior pattern shared by all
//!   three [`ctori_topology::TorusKind`]s (on the chordal tori even the
//!   row-wrap columns match it, because their west/east wraps are
//!   literally `v∓1` in row-major order);
//! * **wrap** — as fast, except that some lanes are toroidal-mesh
//!   row-wrap columns, whose west neighbour is `v+cols-1` (column 0) and
//!   east neighbour `v-cols+1` (column `n-1`): the word goes through the
//!   same vector kernel with those lanes blended in, under a lane mask,
//!   from a second funnel gather one row further on (back) — on narrow
//!   meshes a word spans several rows and so several wrap columns;
//! * **slow** — everything else (the two vertical-wrap boundary rows, the
//!   partial tail word): exact per-vertex evaluation over neighbour lists
//!   the lane stores for these words' vertices alone, read off
//!   [`ctori_topology::Torus::neighbor_ids`].
//!
//! Explicit wrap handling therefore costs two extra gathers on the O(rows)
//! wrap words and the scalar path only the words holding the O(cols)
//! boundary-row vertices, while the O(rows · cols) interior streams
//! through the vector kernel.  A lane over a general graph
//! ([`PlaneLane::for_graph`]) has no torus rows: every word is slow, and
//! its lists are a copy of the graph's CSR.
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
//!
//! # Building the lane
//!
//! Construction is word-granular too, so a job's set-up stays small next
//! to its stepping:
//!
//! * the palette is read off a presence bitset over colour indices, one
//!   bit test per cell, giving up at the 17th colour;
//! * codes are packed eight cells per multiply: a table maps each colour
//!   to its code byte, and one carry-free multiply gathers bit `p` of
//!   eight code bytes into eight lanes of plane `p`, and each plane's
//!   set-bit count comes from one popcount per packed word;
//! * words are classified by arithmetic on the rows and mesh wrap
//!   columns they cover, and only slow words' vertices get stored
//!   neighbour lists;
//! * a fast or wrap word's dirty-mark list is derived from its gather
//!   bases and lane masks — the words its kernel reads *are* the words
//!   holding its neighbours — and only slow words walk their stored
//!   lists.
//!
//! [`PlaneLane::snapshot`] decodes a word at a time the other way round,
//! one table lookup spreading eight lanes of a plane into eight code
//! bytes.
//!
//! # Plane counts and the census
//!
//! The run loop asks "monochromatic yet?" after every round.  The lane
//! answers from the set-bit count of each plane: the configuration is
//! monochromatic exactly when every count is 0 or `len`, in the code
//! whose bits are the planes counting `len`.  Band workers carry each
//! plane's signed movement (`popcount(new) − popcount(old)` per changed
//! plane word), so the test costs O(planes) per round whatever the
//! palette.
//!
//! The per-colour census ([`PlaneLane::count_of`],
//! [`PlaneLane::histogram`]) is counted off the planes by each read: one
//! pass of indicator popcounts over the plane words, the lanes past `len`
//! masked off the partial tail word.  Steps keep no per-colour ledger, so
//! a run that nothing reads during its rounds never pays for one; a
//! colour outside the palette is answered by the palette search alone.
//!
//! # Cycle hash
//!
//! The lane keeps its own cycle-detection hash, a Zobrist hash over
//! (word, plane, contents): the XOR over every plane word of one
//! SplitMix64 mix of its contents, salted with its position.  The hash is
//! off until the simulator's run loop switches it on with cycle detection,
//! so a raw [`PlaneLane::step`] pays nothing.  Once on, a band worker
//! swaps the old term of each plane word its patch changes for the new
//! one (two mixes) and folds the difference into its band summary, so
//! hashing runs in the parallel band workers, not in the sequential apply
//! phase.  A hash match is only a candidate: the simulator confirms every
//! repeat by replay before reporting a cycle.

use crate::frontier::Worklist;
use crate::parallel::{band_ranges, run_bands};
use ctori_coloring::Color;
use ctori_protocols::{ColorCountForm, ColorCountRule};
use ctori_topology::{Adjacency, NodeId, Topology, Torus, TorusKind};
use std::ops::Range;

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
    /// Full word off the boundary rows: the interior neighbour pattern
    /// `[v-cols, v+cols, v-1, v+1]` in all four directions.
    Fast,
    /// Full word, interior pattern vertically; the lanes in `west`
    /// (`east`) are toroidal-mesh row-wrap columns whose west (east)
    /// neighbour is `v+cols-1` (`v-cols+1`) instead of `v∓1`.
    Wrap { west: u64, east: u64 },
    /// Anything else: exact per-vertex evaluation over the word's stored
    /// neighbour lists ([`SlowLists`]).
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
    /// Signed movement of each plane's set-bit count, O(planes) per
    /// changed word: all the per-round monochromatic test reads.
    ones: [i64; MAX_PLANES],
    /// XOR of the band's cycle-hash term changes (0 while the hash is
    /// off).
    hash: u64,
}

impl BandDelta {
    /// Folds one patch's flips and plane-count movement into the summary.
    #[inline]
    fn account(&mut self, patch: &Patch, plane_count: usize) {
        self.flips += patch.changed.count_ones() as usize;
        for (p, slot) in self.ones.iter_mut().enumerate().take(plane_count) {
            *slot += i64::from(patch.new[p].count_ones()) - i64::from(patch.old[p].count_ones());
        }
    }

    /// Folds the cycle-hash change of a band's patches into the summary:
    /// each changed plane word swaps its old term for its new one.
    fn rekey(&mut self, patches: &[Patch], plane_count: usize) {
        for patch in patches {
            let w = patch.word as usize;
            for p in 0..plane_count {
                let (old, new) = (patch.old[p], patch.new[p]);
                if old != new {
                    self.hash ^= zobrist_term(w, p, old) ^ zobrist_term(w, p, new);
                }
            }
        }
    }
}

/// SplitMix64's finaliser: the 64-bit mix behind both cycle hashes (the
/// plane lane's per-plane-word terms and the generic lane's per-vertex
/// keys).
#[inline]
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The Zobrist term of "plane `p` of word `w` holds `bits`": the
/// contents salted with an odd multiple of the (word, plane) position,
/// then mixed once.
#[inline]
fn zobrist_term(w: usize, p: usize, bits: u64) -> u64 {
    splitmix64(bits ^ ((w * MAX_PLANES + p) as u64).wrapping_mul(0xD1B5_4A32_D192_ED03))
}

/// Reads the 64 bits starting at bit `base` of a packed bit array.
///
/// Callers guarantee `base + 63` is a valid bit index (fast-word
/// classification does: every gathered position is a neighbour of an
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

/// `SPREAD[x]` holds bit `i` of the byte `x` in bit 0 of its byte `i`:
/// one lookup turns eight lanes of a plane word into eight code bits.
const SPREAD: [u64; 256] = {
    let mut table = [0u64; 256];
    let mut x = 0;
    while x < 256 {
        let mut i = 0;
        while i < 8 {
            table[x] |= (((x >> i) & 1) as u64) << (8 * i);
            i += 1;
        }
        x += 1;
    }
    table
};

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

/// The compiled plurality rule on one word of degree-4 vertices, as
/// `(changed, new)`: the lanes that change code and the word's new value
/// in every plane.  `nb` holds the gathered N/S/W/E words and `own` the
/// word itself, both in planes `0..plane_count`.
///
/// On four neighbours the rule depends only on which of the six
/// neighbour pairs share a code, so the palette size never enters: lane
/// masks `e_ab` of "neighbours `a` and `b` agree" give the counts
/// (some code twice, a 2-2 tie, some code three or four times), and a
/// per-plane mux over the gathered words names the winner.  A unique
/// plurality of one is impossible on degree 4 (four singletons tie), so
/// every `min_pair ≤ 2` behaves as 2.
#[inline(always)]
fn plurality_word(
    nb: &[[u64; MAX_PLANES]; 4],
    own: &[u64; MAX_PLANES],
    plane_count: usize,
    min_pair: u32,
    tie: Option<u8>,
    locked: Option<u8>,
) -> (u64, [u64; MAX_PLANES]) {
    let agree = |a: usize, b: usize| {
        let pairs = nb[a].iter().zip(&nb[b]).take(plane_count);
        !pairs.fold(0u64, |differ, (x, y)| differ | (x ^ y))
    };
    let (e01, e02, e03) = (agree(0, 1), agree(0, 2), agree(0, 3));
    let (e12, e13, e23) = (agree(1, 2), agree(1, 3), agree(2, 3));
    // Neighbour 0 is in a pair; else neighbour 1 is; else only 2 and 3
    // can be.
    let g0 = e01 | e02 | e03;
    let g1 = e12 | e13;
    let tie22 = (e01 & e23 & !e02) | (e02 & e13 & !e01) | (e03 & e12 & !e01);
    let adopt = match min_pair {
        0..=2 => (g0 | g1 | e23) & !tie22,
        3 => (e01 & e02) | (e01 & e03) | (e02 & e03) | (e12 & e13),
        4 => e01 & e02 & e03,
        _ => 0,
    };
    let mut target = [0u64; MAX_PLANES];
    for p in 0..plane_count {
        target[p] = (nb[0][p] & g0) | (nb[1][p] & !g0 & g1) | (nb[2][p] & !(g0 | g1));
    }
    let mut decided = adopt;
    if let (Some(t), 0..=2) = (tie, min_pair) {
        // The two pairs of a 2-2 tie are neighbour 0's code and, when 0
        // pairs with 1, neighbour 2's, else neighbour 1's.
        let t = usize::from(t);
        let holds = |d: usize| indicator(&nb[d], plane_count, t);
        let won = tie22 & (holds(0) | (holds(2) & e01) | (holds(1) & !e01));
        for (p, slot) in target.iter_mut().enumerate().take(plane_count) {
            *slot = (*slot & !won) | if (t >> p) & 1 == 1 { won } else { 0 };
        }
        decided |= won;
    }
    let mut differ = 0u64;
    for p in 0..plane_count {
        differ |= target[p] ^ own[p];
    }
    let mut changed = decided & differ;
    if let Some(locked) = locked {
        changed &= !indicator(own, plane_count, usize::from(locked));
    }
    let mut new = *own;
    for p in 0..plane_count {
        new[p] ^= (own[p] ^ target[p]) & changed;
    }
    (changed, new)
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

/// The distinct colours of a configuration in ascending order, read off
/// a presence bitset over colour indices; `None` for an empty
/// configuration or as soon as a 17th colour shows up.
fn palette_of(colors: &[Color]) -> Option<Vec<Color>> {
    let mut present = [0u64; (u16::MAX as usize + 1) / 64];
    let mut distinct = 0;
    for &c in colors {
        let index = usize::from(c.index());
        let (slot, bit) = (index >> 6, 1u64 << (index & 63));
        if present[slot] & bit == 0 {
            present[slot] |= bit;
            distinct += 1;
            if distinct > MAX_PALETTE {
                return None;
            }
        }
    }
    let mut palette = Vec::with_capacity(distinct);
    for (slot, &word) in present.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            // The raw constructor: an unset cell (index 0) is a palette
            // entry like any other here.
            palette.push(Color((slot * 64) as u16 + bits.trailing_zeros() as u16));
            bits &= bits - 1;
        }
    }
    (!palette.is_empty()).then_some(palette)
}

/// Packs every cell's palette code into the bit planes, 64 cells per
/// word, and counts each plane's set bits off the packed words.
fn pack_planes(
    colors: &[Color],
    palette: &[Color],
    plane_count: usize,
) -> (Vec<Vec<u64>>, [usize; MAX_PLANES]) {
    // The palette position of every colour index up to the largest one.
    let top = usize::from(palette.last().expect("non-empty palette").index());
    let mut code_of = vec![0u8; top + 1];
    for (code, c) in palette.iter().enumerate() {
        code_of[usize::from(c.index())] = code as u8;
    }
    let words = colors.len().div_ceil(64);
    let mut planes: Vec<Vec<u64>> = (0..plane_count)
        .map(|_| Vec::with_capacity(words))
        .collect();
    let mut ones = [0usize; MAX_PLANES];
    for chunk in colors.chunks(64) {
        // Lanes past a partial tail word keep code 0, whose bits are all
        // clear, so tail bits stay zero.
        let mut codes = [0u8; 64];
        for (code, &c) in codes.iter_mut().zip(chunk) {
            *code = code_of[usize::from(c.index())];
        }
        for (p, (plane, n)) in planes.iter_mut().zip(&mut ones).enumerate() {
            let mut bits = 0u64;
            for (g, group) in codes.chunks_exact(8).enumerate() {
                let bytes = u64::from_le_bytes(group.try_into().expect("eight codes"));
                // Bit `p` of each of the eight codes, one per byte,
                // gathered into the top byte by a carry-free multiply
                // (byte `i` lands on bit `56 + i`).
                let lanes = (bytes >> p) & 0x0101_0101_0101_0101;
                bits |= (lanes.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * g);
            }
            plane.push(bits);
            *n += bits.count_ones() as usize;
        }
    }
    (planes, ones)
}

/// The cells holding each code of `codes`, in one pass over the plane
/// words: one indicator popcount per code and word, with the lanes past
/// `len` masked off the partial tail word (their zero bits read as code
/// 0).
fn count_codes(planes: &[Vec<u64>], codes: Range<usize>, len: usize) -> Vec<usize> {
    let mut census = vec![0usize; codes.len()];
    for w in 0..len.div_ceil(64) {
        let mut word = [0u64; MAX_PLANES];
        for (bits, plane) in word.iter_mut().zip(planes) {
            *bits = plane[w];
        }
        let valid = u64::MAX >> (64 - (len - w * 64).min(64));
        for (code, n) in codes.clone().zip(&mut census) {
            *n += (indicator(&word, planes.len(), code) & valid).count_ones() as usize;
        }
    }
    census
}

/// Classifies every word of a torus from its wrap rule.
///
/// A full word is fast or wrap iff none of its vertices lies in row 0 or
/// row `m-1`: off those rows every vertex of all three kinds has the
/// interior pattern `[v-cols, v+cols, v-1, v+1]`, except that on the
/// toroidal mesh column 0 wraps west to `v+cols-1` and column `n-1` east
/// to `v-cols+1` (the chordal tori's row wraps are `v∓1`).  Keeping off
/// the boundary rows also keeps every gather the vector kernel performs
/// in bounds (base >= cols and base + 64 <= len - cols).  Every other
/// word, the partial tail word included, is slow.
fn classify_torus(torus: &Torus) -> Vec<WordClass> {
    let (rows, cols) = (torus.rows(), torus.cols());
    let words = (rows * cols).div_ceil(64);
    let wrap_lanes = match torus.kind() {
        TorusKind::ToroidalMesh => true,
        TorusKind::TorusCordalis | TorusKind::TorusSerpentinus => false,
        // A kind whose wraps this rule does not know takes the exact path.
        _ => return vec![WordClass::Slow; words],
    };
    // The lanes of the word starting at vertex `base` that hold column
    // `col`: every `cols`-th lane from the first one in that column.
    let column_lanes = |base: usize, col: usize| {
        let mut lanes = 0u64;
        let mut v = base + (col + cols - base % cols) % cols;
        while v < base + 64 {
            lanes |= 1 << (v - base);
            v += cols;
        }
        lanes
    };
    let interior_end = (rows - 1) * cols;
    (0..words)
        .map(|w| {
            let base = w * 64;
            if base < cols || base + 64 > interior_end {
                WordClass::Slow
            } else if wrap_lanes {
                let (west, east) = (column_lanes(base, 0), column_lanes(base, cols - 1));
                if west | east == 0 {
                    WordClass::Fast
                } else {
                    WordClass::Wrap { west, east }
                }
            } else {
                WordClass::Fast
            }
        })
        .collect()
}

/// The neighbour lists of the vertices in slow words, in CSR form: row
/// `64·s + i` lists the neighbours of lane `i` of the `s`-th slow word.
///
/// On a torus that is the O(cols) vertices of the two boundary rows and
/// the tail; fast and wrap words gather arithmetically and need none.
#[derive(Clone, Debug)]
struct SlowLists {
    /// The slow words, ascending (only the last can be a partial word, so
    /// the rows of every slow word start at a multiple of 64).
    words: Vec<u32>,
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl SlowLists {
    /// Stores the lists of every slow word's vertices, which
    /// `neighbors(v, out)` appends to `out`.
    fn collect(
        class: &[WordClass],
        len: usize,
        mut neighbors: impl FnMut(usize, &mut Vec<u32>),
    ) -> Self {
        let mut lists = SlowLists {
            words: Vec::new(),
            offsets: vec![0],
            targets: Vec::new(),
        };
        for (w, &kind) in class.iter().enumerate() {
            if kind == WordClass::Slow {
                lists.words.push(w as u32);
                for v in w * 64..(w * 64 + 64).min(len) {
                    neighbors(v, &mut lists.targets);
                    lists.offsets.push(lists.targets.len() as u32);
                }
            }
        }
        lists
    }

    /// The neighbour lists of slow word `w`'s vertices, lane by lane.
    fn of_word(&self, w: u32) -> impl Iterator<Item = &[u32]> {
        let s = self.words.binary_search(&w).expect("a slow word");
        let first = s * 64;
        let end = (first + 64).min(self.offsets.len() - 1);
        (first..end).map(|r| &self.targets[self.offsets[r] as usize..self.offsets[r + 1] as usize])
    }
}

/// The words a funnel [`gather`] at bit `base` reads on the lanes in
/// `lanes`: lanes below `64 - base % 64` come from word `base / 64`, the
/// rest from the word after it.
fn gathered_words(base: usize, lanes: u64) -> impl Iterator<Item = u32> {
    let word = (base >> 6) as u32;
    let from_first = u64::MAX >> (base & 63);
    [
        (lanes & from_first != 0).then_some(word),
        (lanes & !from_first != 0).then_some(word + 1),
    ]
    .into_iter()
    .flatten()
}

/// The word-granular dirty table `(offsets, words)`: `words[offsets[w]..
/// offsets[w + 1]]` are the *other* words holding a neighbour of some
/// vertex of word `w`.
///
/// A fast or wrap word's neighbours are exactly the bits its vector
/// kernel gathers, so its list comes from the gather bases and lane
/// masks alone; only slow words walk their stored lists.
fn dirty_table(cols: usize, class: &[WordClass], slow: &SlowLists) -> (Vec<u32>, Vec<u32>) {
    let mut offsets = Vec::with_capacity(class.len() + 1);
    offsets.push(0u32);
    let mut words: Vec<u32> = Vec::with_capacity(class.len() * 4);
    for (w, &kind) in class.iter().enumerate() {
        let first = words.len();
        let mut add = |u: u32| {
            if u as usize != w && !words[first..].contains(&u) {
                words.push(u);
            }
        };
        let base = w * 64;
        match kind {
            WordClass::Slow => {
                for &u in slow.of_word(w as u32).flatten() {
                    add(u >> 6);
                }
            }
            WordClass::Fast | WordClass::Wrap { .. } => {
                let (west, east) = match kind {
                    WordClass::Wrap { west, east } => (west, east),
                    _ => (0, 0),
                };
                // The bases `eval_vector` gathers from, each with the
                // lanes it keeps (classification puts base >= cols).
                for (start, lanes) in [
                    (base - cols, u64::MAX),
                    (base + cols, u64::MAX),
                    (base - 1, !west),
                    (base + 1, !east),
                    (base + cols - 1, west),
                    (base + 1 - cols, east),
                ] {
                    gathered_words(start, lanes).for_each(&mut add);
                }
            }
        }
        offsets.push(words.len() as u32);
    }
    (offsets, words)
}

/// The multi-colour bit-plane frontier stepper.
///
/// Construction compiles a [`ColorCountRule`] and an initial configuration
/// of at most 16 distinct colours down to palette codes; stepping then
/// evaluates 64 vertices per word against the pre-round planes (see the
/// [module docs](crate::planes) for the kernel).  The lane owns all the
/// structure it reads: its word classes, the neighbour lists of its slow
/// words and the word-level dirty table, so [`PlaneLane::step`] needs no
/// CSR.
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
    /// Set bits of each plane over the `len` valid lanes (kept
    /// incrementally): the monochromatic test reads only these.
    ones: [usize; MAX_PLANES],
    /// Per-word evaluation class (vector kernel, patched vector kernel,
    /// or exact per-vertex fallback).
    class: Vec<WordClass>,
    /// The neighbour lists the exact per-vertex path reads.
    slow: SlowLists,
    /// Word-granular dirty propagation: `mark_words[mark_offsets[w]..
    /// mark_offsets[w + 1]]` are the *other* words holding a neighbour of
    /// some vertex of word `w`, so a changed word marks a handful of words
    /// instead of walking neighbour lists per flip.
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
    /// The cycle hash, a Zobrist hash over (word, plane, contents);
    /// `None` until [`PlaneLane::enable_hash`], so raw stepping pays
    /// nothing for it.
    hash: Option<u64>,
}

impl PlaneLane {
    /// Compiles a configuration and rule into a plane lane over one of the
    /// paper's tori.
    ///
    /// Words are classified from the torus's wrap rule, and only the
    /// vertices of slow words (the two boundary rows and the partial tail
    /// word) get stored neighbour lists, read off
    /// [`Torus::neighbor_ids`]; no CSR is built.  Returns `None` when the
    /// configuration has more than 16 distinct colours, when the rule
    /// could introduce a colour outside the initial palette (an absent
    /// activation colour with a zero threshold), or when it resolves ties
    /// towards a colour with `min_pair < 2` (a singleton tie the degree-4
    /// kernel does not model), in which cases the caller should stay on
    /// the generic backend.
    ///
    /// # Panics
    ///
    /// Panics if the torus and configuration sizes differ.
    pub fn for_torus(torus: &Torus, colors: &[Color], rule: &ColorCountRule) -> Option<PlaneLane> {
        assert_eq!(
            torus.node_count(),
            colors.len(),
            "torus does not match the configuration"
        );
        PlaneLane::compile(colors, rule, torus.cols(), || {
            let class = classify_torus(torus);
            let slow = SlowLists::collect(&class, colors.len(), |v, out| {
                out.extend(torus.neighbor_ids(NodeId::new(v)).map(|u| u.index() as u32));
            });
            (class, slow)
        })
    }

    /// Compiles a configuration and rule into a plane lane over a general
    /// graph's CSR.
    ///
    /// A graph has no torus rows, so every word is slow: the lane copies
    /// the CSR's lists and evaluates every vertex exactly, at any degree.
    /// Returns `None` in the cases [`PlaneLane::for_torus`] does, and for
    /// an empty configuration.
    ///
    /// # Panics
    ///
    /// Panics if the adjacency and configuration lengths differ.
    pub fn for_graph(
        adjacency: &Adjacency,
        colors: &[Color],
        rule: &ColorCountRule,
    ) -> Option<PlaneLane> {
        let len = colors.len();
        assert_eq!(
            adjacency.node_count(),
            len,
            "adjacency does not match the configuration"
        );
        // The row stride is the whole graph, as for a 1 × len grid.
        PlaneLane::compile(colors, rule, len, || {
            let class = vec![WordClass::Slow; len.div_ceil(64)];
            let slow = SlowLists::collect(&class, len, |v, out| {
                out.extend_from_slice(adjacency.neighbors_raw(v));
            });
            (class, slow)
        })
    }

    /// Compiles the rule and packs the planes, then lays the words out
    /// with `layout` (their classes and slow-word lists) once the lane is
    /// known to be eligible.
    fn compile(
        colors: &[Color],
        rule: &ColorCountRule,
        cols: usize,
        layout: impl FnOnce() -> (Vec<WordClass>, SlowLists),
    ) -> Option<PlaneLane> {
        let len = colors.len();
        let palette = palette_of(colors)?;
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
        let (planes, ones) = pack_planes(colors, &palette, plane_count);
        let (class, slow) = layout();
        let (mark_offsets, mark_words) = dirty_table(cols, &class, &slow);
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
            ones,
            class,
            slow,
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
            hash: None,
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

    /// Number of vertices currently holding `k`, counted with one pass
    /// over the plane words (O(words × planes)).  A colour outside the
    /// palette is answered by the palette search alone (O(log palette)).
    pub fn count_of(&self, k: Color) -> usize {
        match self.palette.binary_search(&k) {
            Ok(code) => count_codes(&self.planes, code..code + 1, self.len)[0],
            Err(_) => 0,
        }
    }

    /// The `(colour, count)` pairs of every colour currently present, in
    /// ascending colour order, counted with one pass over the plane words
    /// (O(words × palette × planes)).
    pub fn histogram(&self) -> Vec<(Color, usize)> {
        self.palette
            .iter()
            .zip(count_codes(&self.planes, 0..self.palette.len(), self.len))
            .filter(|&(_, n)| n > 0)
            .map(|(&c, n)| (c, n))
            .collect()
    }

    /// The monochromatic colour, if every vertex holds the same one
    /// (O(planes), off the plane counts: every plane is all ones or all
    /// zeros, and the planes of ones spell the code).
    pub fn monochromatic(&self) -> Option<Color> {
        if self.is_empty() {
            return None;
        }
        let mut code = 0;
        for (p, &n) in self.ones.iter().enumerate().take(self.plane_count) {
            if n == self.len {
                code |= 1 << p;
            } else if n != 0 {
                return None;
            }
        }
        Some(self.palette[code])
    }

    /// Materialises the configuration as one colour per vertex, decoding
    /// a word of 64 vertices at a time.
    pub fn snapshot(&self) -> Vec<Color> {
        // Codes index a full-size table, so the lookup needs no bound.
        let mut colors = [self.palette[0]; MAX_PALETTE];
        colors[..self.palette.len()].copy_from_slice(&self.palette);
        let mut out = Vec::with_capacity(self.len);
        for w in 0..self.words {
            // Byte `b` of `codes[g]` is the code of lane `8g + b`.
            let mut codes = [0u64; 8];
            for (p, plane) in self.planes.iter().enumerate() {
                for (g, slot) in codes.iter_mut().enumerate() {
                    *slot |= SPREAD[((plane[w] >> (8 * g)) & 0xFF) as usize] << p;
                }
            }
            let lanes = (self.len - w * 64).min(64);
            let codes = codes.map(u64::to_le_bytes);
            out.extend(
                codes
                    .as_flattened()
                    .iter()
                    .take(lanes)
                    .map(|&code| colors[usize::from(code) & (MAX_PALETTE - 1)]),
            );
        }
        out
    }

    /// Switches the cycle hash on (a no-op when it already is): one
    /// [`zobrist_term`] per plane word now, then two per changed plane
    /// word in every later [`PlaneLane::step`].
    pub(crate) fn enable_hash(&mut self) {
        if self.hash.is_none() {
            let mut value = 0;
            for (p, plane) in self.planes.iter().enumerate() {
                for (w, &bits) in plane.iter().enumerate() {
                    value ^= zobrist_term(w, p, bits);
                }
            }
            self.hash = Some(value);
        }
    }

    /// The cycle hash of the current configuration, once
    /// [`PlaneLane::enable_hash`] switched it on.
    pub(crate) fn state_hash(&self) -> Option<u64> {
        self.hash
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
    fn eval_word(&self, w: u32) -> Option<Patch> {
        match self.class[w as usize] {
            WordClass::Fast => self.eval_vector(w, 0, 0),
            WordClass::Wrap { west, east } => self.eval_vector(w, west, east),
            WordClass::Slow => self.eval_slow(w),
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

        let (changed, new) = match self.decision {
            Decision::Plurality { min_pair, tie } => {
                plurality_word(&nb, &own, pc, min_pair, tie, self.locked_code)
            }
            Decision::Activation {
                code: Some(active),
                threshold,
            } => {
                let code = usize::from(active);
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
                let mut changed = reached & !indicator(&own, pc, code);
                if let Some(locked) = self.locked_code {
                    changed &= !indicator(&own, pc, usize::from(locked));
                }
                let mut new = own;
                for (p, slot) in new.iter_mut().enumerate().take(pc) {
                    if (code >> p) & 1 == 1 {
                        *slot |= changed;
                    } else {
                        *slot &= !changed;
                    }
                }
                (changed, new)
            }
            // Activation colour absent with a positive threshold: inert.
            Decision::Activation { code: None, .. } => return None,
        };
        if changed == 0 {
            return None;
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
    /// the word's stored lists, at any degree.
    fn eval_slow(&self, w: u32) -> Option<Patch> {
        let wi = w as usize;
        let start = wi * 64;
        let mut changed = 0u64;
        let mut old = [0u64; MAX_PLANES];
        for (p, plane) in self.planes.iter().enumerate() {
            old[p] = plane[wi];
        }
        let mut new = old;
        for (lane, neighbors) in self.slow.of_word(w).enumerate() {
            let v = start + lane;
            let own = self.code_of(v);
            let mut counts = [0u32; MAX_PALETTE];
            for &u in neighbors {
                counts[self.code_of(u as usize) as usize] += 1;
            }
            let next = self.decide_one(own, &counts);
            if next != own {
                let bit = 1u64 << lane;
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
    /// patches and their summary band-locally.
    ///
    /// Tiling applies when the range covers whole torus rows (band
    /// alignment guarantees it on tiled grids); otherwise the range
    /// streams in linear word order.
    fn eval_dense_range(
        &self,
        start_w: usize,
        end_w: usize,
        out: &mut Vec<Patch>,
        delta: &mut BandDelta,
    ) {
        let pc = self.plane_count;
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
                                if let Some(p) = self.eval_word(w) {
                                    delta.account(&p, pc);
                                    out.push(p);
                                }
                            }
                        }
                    }
                }
            }
            _ => {
                for w in start_w..end_w {
                    if let Some(p) = self.eval_word(w as u32) {
                        delta.account(&p, pc);
                        out.push(p);
                    }
                }
            }
        }
    }

    /// The worklist path over one band's candidate bucket.
    fn eval_candidates(&self, cands: &[u32], out: &mut Vec<Patch>, delta: &mut BandDelta) {
        let pc = self.plane_count;
        for &w in cands {
            if let Some(p) = self.eval_word(w) {
                delta.account(&p, pc);
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
    pub fn step(&mut self) -> usize {
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
        // worker owns one patch buffer and returns its flip/plane-count/
        // hash summary.  `run_bands` is the barrier that publishes the
        // round.
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
                    lane.eval_dense_range(start, end, out, &mut delta);
                } else {
                    lane.eval_candidates(&band_cands[band], out, &mut delta);
                }
                if lane.hash.is_some() {
                    delta.rekey(out, lane.plane_count);
                }
                delta
            },
        );

        // Merge phase: the workers already counted flips, plane-count
        // movement and hash changes, so the sequential section only writes
        // the new plane words and marks the worklist — order across bands
        // is irrelevant (each word has at most one patch).
        for delta in &deltas {
            self.flipped += delta.flips;
            for (n, &moved) in self.ones.iter_mut().zip(&delta.ones) {
                *n = (*n as i64 + moved) as usize;
            }
            if let Some(hash) = &mut self.hash {
                *hash ^= delta.hash;
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
            // (a safe superset of the per-flip marks, with no list walk).
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
    use ctori_topology::Graph;

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
        let mut lane = PlaneLane::for_torus(&torus, &colors, &rule).expect("palette fits the lane");
        for round in 0..12 {
            let expected = reference_round(&adjacency, &rule, &colors);
            let flips = lane.step();
            let changed = expected.iter().zip(&colors).filter(|(a, b)| a != b).count();
            assert_eq!(flips, changed, "flip count diverges at round {round}");
            assert_eq!(lane.snapshot(), expected, "state diverges at round {round}");
            colors = expected;
        }
    }

    /// A lane over colours `1..=palette` (so code = colour − 1) compiled
    /// with `rule`; `None` where compilation rejects the rule.
    fn lane_with(palette: u16, rule: ColorCountRule) -> Option<PlaneLane> {
        let torus = Torus::new(TorusKind::ToroidalMesh, 4, 4);
        let colors: Vec<Color> = (0..16).map(|v| c(1 + v % palette)).collect();
        PlaneLane::for_torus(&torus, &colors, &rule)
    }

    /// Packs up to 64 `(own, [N, S, W, E])` code tuples into the lanes of
    /// one word, runs [`plurality_word`] on it and checks every lane
    /// against [`PlaneLane::decide_one`].
    fn check_plurality_lanes(lane: &PlaneLane, tuples: &[(u8, [u8; 4])]) {
        let Decision::Plurality { min_pair, tie } = lane.decision else {
            panic!("not a plurality lane");
        };
        let pc = lane.plane_count;
        let mut own = [0u64; MAX_PLANES];
        let mut nb = [[0u64; MAX_PLANES]; 4];
        for (i, &(o, codes)) in tuples.iter().enumerate() {
            for p in 0..pc {
                own[p] |= u64::from((o >> p) & 1) << i;
                for (d, &code) in codes.iter().enumerate() {
                    nb[d][p] |= u64::from((code >> p) & 1) << i;
                }
            }
        }
        let (changed, new) = plurality_word(&nb, &own, pc, min_pair, tie, lane.locked_code);
        for (i, &(o, codes)) in tuples.iter().enumerate() {
            let mut counts = [0u32; MAX_PALETTE];
            for &code in &codes {
                counts[usize::from(code)] += 1;
            }
            let expected = lane.decide_one(o, &counts);
            let got = (0..pc).fold(0u8, |code, p| code | (((new[p] >> i) & 1) as u8) << p);
            let context = format!(
                "own {o}, neighbours {codes:?}, min_pair {min_pair}, tie {tie:?}, locked {:?}",
                lane.locked_code
            );
            assert_eq!(got, expected, "{context}");
            assert_eq!((changed >> i) & 1 == 1, expected != o, "{context}");
        }
    }

    #[test]
    fn plurality_word_matches_decide_one_on_every_tuple() {
        // Every (own, N, S, W, E) tuple of palettes 2–5 (one to three
        // planes), under every min_pair 0–5, tie code and locked code.
        for palette in 2u8..=5 {
            let k = usize::from(palette);
            let tuples: Vec<(u8, [u8; 4])> = (0..k.pow(5))
                .map(|mut x| {
                    let mut digit = || {
                        let d = (x % k) as u8;
                        x /= k;
                        d
                    };
                    (digit(), [digit(), digit(), digit(), digit()])
                })
                .collect();
            let codes = || std::iter::once(None).chain((0..palette).map(Some));
            for min_pair in 0..=5 {
                for tie in codes() {
                    for locked in codes() {
                        let mut rule = ColorCountRule::plurality(min_pair);
                        if let Some(t) = tie {
                            rule = rule.with_tie_to(c(1 + u16::from(t)));
                        }
                        if let Some(l) = locked {
                            rule = rule.with_locked(c(1 + u16::from(l)));
                        }
                        let Some(lane) = lane_with(u16::from(palette), rule) else {
                            assert!(tie.is_some() && min_pair < 2, "{rule:?} rejected");
                            continue;
                        };
                        assert_eq!(lane.plane_count, (k - 1).ilog2() as usize + 1);
                        for chunk in tuples.chunks(64) {
                            check_plurality_lanes(&lane, chunk);
                        }
                    }
                }
            }
        }
        // Palette 16 (four planes): a seeded sample of 64 Ki tuples, each
        // word under its own rule.  Neighbours often copy an earlier one,
        // so pairs, triples and 2-2 ties all occur.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |bound: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % bound
        };
        for _ in 0..1024 {
            let min_pair = next(6) as u32;
            let mut rule = ColorCountRule::plurality(min_pair);
            if min_pair >= 2 && next(4) != 0 {
                rule = rule.with_tie_to(c(1 + next(16) as u16));
            }
            if next(2) == 0 {
                rule = rule.with_locked(c(1 + next(16) as u16));
            }
            let lane = lane_with(16, rule).expect("the rule compiles");
            let tuples: Vec<(u8, [u8; 4])> = (0..64)
                .map(|_| {
                    let mut codes = [0u8; 4];
                    for d in 0..4 {
                        codes[d] = if d > 0 && next(2) == 0 {
                            codes[next(d as u64) as usize]
                        } else {
                            next(16) as u8
                        };
                    }
                    (next(16) as u8, codes)
                })
                .collect();
            check_plurality_lanes(&lane, &tuples);
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
            // Three and four planes through the vector kernel.
            for palette in [8, 16] {
                check_lane_matches_reference(kind, 8, 256, palette, ColorCountRule::plurality(2));
                check_lane_matches_reference(kind, 16, 20, palette, ColorCountRule::plurality(2));
            }
        }
    }

    #[test]
    fn tie_form_matches_scalar_reference() {
        // Prefer-black's counting form: 2-2 ties involving colour 2 adopt
        // it.  Width 65 puts every word on the slow path; width 256 adds
        // fast words and, on the toroidal mesh, wrap words.  Two colours
        // make every tie a black one; more colours mix in ties without it.
        let rule = ColorCountRule::plurality(2).with_tie_to(c(2));
        for kind in TorusKind::ALL {
            for palette in [2, 5, 8, 16] {
                check_lane_matches_reference(kind, 8, 65, palette, rule);
                check_lane_matches_reference(kind, 8, 256, palette, rule);
            }
        }
        // Narrow meshes put several row-wrap lanes in one vector word.
        check_lane_matches_reference(TorusKind::ToroidalMesh, 16, 16, 2, rule);
        // A singleton tie would need a 1-1-1-1 mask the kernel lacks.
        let torus = Torus::new(TorusKind::ToroidalMesh, 4, 4);
        let colors = scatter_colors(16, 3, 5);
        let singleton = ColorCountRule::plurality(1).with_tie_to(c(2));
        assert!(PlaneLane::for_torus(&torus, &colors, &singleton).is_none());
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
        // A tie colour must stay inert here: a 2-2 tie is below min_pair.
        for min_pair in [3, 4, 5] {
            for rule in [
                ColorCountRule::plurality(min_pair),
                ColorCountRule::plurality(min_pair).with_tie_to(c(2)),
            ] {
                check_lane_matches_reference(TorusKind::TorusCordalis, 5, 70, 6, rule);
            }
        }
    }

    #[test]
    fn census_and_histogram_stay_consistent() {
        // `monochromatic()` reads the plane counts kept by the steps;
        // `count_of` and `histogram()` count off the planes.  Every round
        // all three must match the snapshot.  5×70 ends in a partial word
        // and splits into two bands at two threads; the activation rule
        // turns the torus monochromatic in its top colour in round 1.
        let absent = c(200);
        for (m, n) in [(8, 64), (5, 70)] {
            let torus = Torus::new(TorusKind::ToroidalMesh, m, n);
            for palette in [1, 2, 3, 5, 8, 16] {
                let colors = scatter_colors(m * n, palette, 99 + u64::from(palette));
                for rule in [
                    ColorCountRule::plurality(2),
                    ColorCountRule::activation(c(palette), 0),
                ] {
                    for threads in [1, 2] {
                        let mut lane = PlaneLane::for_torus(&torus, &colors, &rule).unwrap();
                        lane.set_threads(threads);
                        let context =
                            format!("{m}x{n}, palette {palette}, {rule:?}, threads {threads}");
                        for round in 0..=8 {
                            if round > 0 {
                                lane.step();
                            }
                            let snapshot = lane.snapshot();
                            let mono = snapshot
                                .iter()
                                .all(|&x| x == snapshot[0])
                                .then_some(snapshot[0]);
                            assert_eq!(lane.monochromatic(), mono, "{context}: round {round}");
                            assert_eq!(lane.count_of(absent), 0, "{context}: round {round}");
                            let mut expected = std::collections::BTreeMap::new();
                            for &x in &snapshot {
                                *expected.entry(x).or_insert(0usize) += 1;
                            }
                            let expected: Vec<(Color, usize)> = expected.into_iter().collect();
                            for &color in lane.palette() {
                                let n = expected.iter().find(|&&(x, _)| x == color);
                                assert_eq!(
                                    lane.count_of(color),
                                    n.map_or(0, |&(_, n)| n),
                                    "{context}: round {round}, colour {color:?}"
                                );
                            }
                            assert_eq!(lane.histogram(), expected, "{context}: round {round}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn frontier_and_full_sweep_agree() {
        let torus = Torus::new(TorusKind::TorusSerpentinus, 9, 67);
        let colors = scatter_colors(9 * 67, 4, 7);
        let rule = ColorCountRule::plurality(2);
        let mut frontier = PlaneLane::for_torus(&torus, &colors, &rule).unwrap();
        let mut full = PlaneLane::for_torus(&torus, &colors, &rule).unwrap();
        full.set_always_full();
        for round in 0..20 {
            let a = frontier.step();
            let b = full.step();
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
            let colors = scatter_colors(12 * 128, 5, 0xBAD5EED);
            let rule = ColorCountRule::plurality(2);
            let mut seq = PlaneLane::for_torus(&torus, &colors, &rule).unwrap();
            let mut par = PlaneLane::for_torus(&torus, &colors, &rule).unwrap();
            par.set_threads(3);
            for round in 0..16 {
                let a = seq.step();
                let b = par.step();
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
        let mut colors = vec![c(1); 16 * 64];
        for (i, slot) in colors.iter_mut().enumerate().take(6 * 64).skip(4 * 64) {
            if i % 3 == 0 {
                *slot = c(2);
            }
        }
        let rule = ColorCountRule::plurality(2);
        let mut hybrid = PlaneLane::for_torus(&torus, &colors, &rule).unwrap();
        hybrid.set_threads(2);
        let mut full = PlaneLane::for_torus(&torus, &colors, &rule).unwrap();
        full.set_always_full();
        let mut saw_dense = false;
        let mut saw_sparse = false;
        for round in 0..24 {
            let a = hybrid.step();
            let b = full.step();
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
        let colors: Vec<Color> = (0..25).map(|v| c(1 + (v % 17) as u16)).collect();
        assert!(PlaneLane::for_torus(&torus, &colors, &ColorCountRule::plurality(2)).is_none());
    }

    #[test]
    fn absent_zero_threshold_activation_is_rejected() {
        let torus = Torus::new(TorusKind::ToroidalMesh, 4, 4);
        let colors = vec![c(1); 16];
        // Active colour 9 is absent; threshold 0 would recolour everything
        // to it — outside the palette, so the lane must refuse.
        assert!(
            PlaneLane::for_torus(&torus, &colors, &ColorCountRule::activation(c(9), 0)).is_none()
        );
        // With a positive threshold the lane is simply inert.
        let mut lane =
            PlaneLane::for_torus(&torus, &colors, &ColorCountRule::activation(c(9), 1)).unwrap();
        assert_eq!(lane.step(), 0);
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
            let colors = scatter_colors(8 * 256, 3, 3);
            let lane =
                PlaneLane::for_torus(&torus, &colors, &ColorCountRule::plurality(2)).unwrap();
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
        let colors = scatter_colors(4 * 128, 3, 11);
        let lane = PlaneLane::for_torus(&torus, &colors, &ColorCountRule::plurality(2)).unwrap();
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
        let colors = scatter_colors(16 * 16, 2, 11);
        let lane = PlaneLane::for_torus(&torus, &colors, &ColorCountRule::plurality(2)).unwrap();
        let rows = WordClass::Wrap {
            west: 0x0001_0001_0001_0001,
            east: 0x8000_8000_8000_8000,
        };
        assert_eq!(lane.class, [WordClass::Slow, rows, rows, WordClass::Slow]);
    }

    /// The reference classification: every word checked against the
    /// shared interior pattern `[v-cols, v+cols, v-1, v+1]` by walking the
    /// CSR, in i64 so grid-edge vertices can never match accidentally.  A
    /// full word whose only deviations are toroidal-mesh row-wrap lanes is
    /// a wrap word.
    fn classify_words(adjacency: &Adjacency, cols: usize) -> Vec<WordClass> {
        let len = adjacency.node_count();
        let mut class = vec![WordClass::Slow; len.div_ceil(64)];
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
        class
    }

    /// The tori the arithmetic layout is checked on: two- and three-row
    /// tori, and widths below, at and past one, two and three words.
    fn layout_grid() -> impl Iterator<Item = Torus> {
        TorusKind::ALL.into_iter().flat_map(|kind| {
            [2, 3, 4, 5, 7, 17, 33].into_iter().flat_map(move |m| {
                [2, 3, 5, 31, 32, 33, 63, 64, 65, 127, 128, 130, 200]
                    .into_iter()
                    .map(move |n| Torus::new(kind, m, n))
            })
        })
    }

    #[test]
    fn arithmetic_classification_matches_the_csr_walk() {
        let mut census = (0, 0, 0);
        for torus in layout_grid() {
            let class = classify_torus(&torus);
            let walked = classify_words(&Adjacency::from_torus(&torus), torus.cols());
            assert_eq!(class, walked, "{torus}");
            for kind in class {
                match kind {
                    WordClass::Fast => census.0 += 1,
                    WordClass::Wrap { .. } => census.1 += 1,
                    WordClass::Slow => census.2 += 1,
                }
            }
        }
        assert!(
            census.0 > 0 && census.1 > 0 && census.2 > 0,
            "every word class is covered: {census:?}"
        );
    }

    #[test]
    fn slow_words_store_the_csr_rows_of_their_vertices() {
        for torus in layout_grid() {
            let adjacency = Adjacency::from_torus(&torus);
            let colors = scatter_colors(torus.node_count(), 3, torus.cols() as u64);
            let lane =
                PlaneLane::for_torus(&torus, &colors, &ColorCountRule::plurality(2)).unwrap();
            let slow: Vec<u32> = (0..lane.words as u32)
                .filter(|&w| lane.class[w as usize] == WordClass::Slow)
                .collect();
            assert_eq!(lane.slow.words, slow, "{torus}: slow words");
            let mut rows = 0;
            for &w in &slow {
                let first = w as usize * 64;
                let csr: Vec<&[u32]> = (first..(first + 64).min(lane.len))
                    .map(|v| adjacency.neighbors_raw(v))
                    .collect();
                let stored: Vec<&[u32]> = lane.slow.of_word(w).collect();
                assert_eq!(stored, csr, "{torus}: word {w}");
                rows += csr.len();
            }
            assert_eq!(lane.slow.offsets.len(), rows + 1, "{torus}: stored rows");
        }
    }

    #[test]
    fn graph_lanes_are_all_slow_and_match_the_reference() {
        // A cycle with chords from every third vertex: degrees 2 to 4.
        let n = 150;
        let mut graph = Graph::with_nodes(n);
        for v in 0..n {
            graph.add_edge(NodeId::new(v), NodeId::new((v + 1) % n));
            let chord = (v * 7 + 11) % n;
            if v % 3 == 0 && chord != v {
                graph.add_edge(NodeId::new(v), NodeId::new(chord));
            }
        }
        let adjacency = Adjacency::build(&graph);
        assert_eq!(adjacency.uniform_degree(), None);
        let colors = scatter_colors(n, 3, 5);
        for rule in [
            ColorCountRule::plurality(2),
            ColorCountRule::activation(c(1), 2),
        ] {
            let mut lane = PlaneLane::for_graph(&adjacency, &colors, &rule).unwrap();
            assert!(lane.class.iter().all(|&k| k == WordClass::Slow));
            let mut expected = colors.clone();
            for round in 0..8 {
                expected = reference_round(&adjacency, &rule, &expected);
                lane.step();
                assert_eq!(lane.snapshot(), expected, "{rule:?}: round {round}");
            }
        }
        // A torus CSR taken as a graph: its interior words match the
        // pattern at stride n, never at the graph's stride.
        let torus = Torus::new(TorusKind::ToroidalMesh, 8, 256);
        let colors = scatter_colors(8 * 256, 3, 3);
        let rule = ColorCountRule::plurality(2);
        let lane = PlaneLane::for_graph(&Adjacency::from_torus(&torus), &colors, &rule).unwrap();
        assert!(lane.class.iter().all(|&k| k == WordClass::Slow));
    }

    /// Asserts that every word's dirty-mark list holds exactly the other
    /// words a CSR walk over its vertices' neighbours finds, and returns
    /// the `(fast, wrap, slow)` word census.
    fn check_dirty_lists(adjacency: &Adjacency, lane: &PlaneLane) -> (usize, usize, usize) {
        let len = adjacency.node_count();
        let mut census = (0, 0, 0);
        for w in 0..lane.words {
            let mut walked: Vec<u32> = (w * 64..(w * 64 + 64).min(len))
                .flat_map(|v| adjacency.neighbors_raw(v).iter().map(|&u| u >> 6))
                .filter(|&u| u as usize != w)
                .collect();
            walked.sort_unstable();
            walked.dedup();
            let from = lane.mark_offsets[w] as usize;
            let to = lane.mark_offsets[w + 1] as usize;
            let mut listed = lane.mark_words[from..to].to_vec();
            listed.sort_unstable();
            assert!(
                listed.windows(2).all(|p| p[0] != p[1]),
                "word {w} lists a word twice"
            );
            assert_eq!(listed, walked, "word {w} ({:?})", lane.class[w]);
            match lane.class[w] {
                WordClass::Fast => census.0 += 1,
                WordClass::Wrap { .. } => census.1 += 1,
                WordClass::Slow => census.2 += 1,
            }
        }
        census
    }

    #[test]
    fn word_derived_dirty_lists_match_the_csr_walk() {
        let rule = ColorCountRule::plurality(2);
        let mut totals = (0, 0, 0);
        let mut check = |kind: TorusKind, m: usize, n: usize| {
            let torus = Torus::new(kind, m, n);
            let adjacency = Adjacency::from_torus(&torus);
            let colors = scatter_colors(m * n, 3, (m * 131 + n) as u64);
            let lane = PlaneLane::for_torus(&torus, &colors, &rule).unwrap();
            let (fast, wrap, slow) = check_dirty_lists(&adjacency, &lane);
            totals = (totals.0 + fast, totals.1 + wrap, totals.2 + slow);
        };
        for kind in TorusKind::ALL {
            for n in 60..=70 {
                check(kind, 9, n);
            }
            check(kind, 6, 256);
        }
        check(TorusKind::ToroidalMesh, 16, 16);
        check(TorusKind::ToroidalMesh, 32, 32);
        assert!(
            totals.0 > 0 && totals.1 > 0 && totals.2 > 0,
            "every word class is covered: {totals:?}"
        );

        // A lane over a graph CSR, as `Simulator::with_plane_lane` builds
        // it over a flat state: the row stride is the whole graph, so
        // every word is slow and walks lists copied from the CSR.
        let torus = Torus::new(TorusKind::TorusCordalis, 5, 67);
        let adjacency = Adjacency::from_torus(&torus);
        let colors = scatter_colors(5 * 67, 4, 21);
        let lane = PlaneLane::for_graph(&adjacency, &colors, &rule).unwrap();
        let (fast, wrap, slow) = check_dirty_lists(&adjacency, &lane);
        assert_eq!((fast, wrap, slow), (0, 0, lane.words));
    }

    #[test]
    fn plane_hash_tracks_the_configuration() {
        // The incremental hash equals a hash rebuilt afresh after
        // every round, at one and three band workers, and it is a
        // function of the configuration: a period-2 blinker returns to
        // its first value.
        let torus = Torus::new(TorusKind::ToroidalMesh, 12, 128);
        let colors = scatter_colors(12 * 128, 5, 77);
        let rule = ColorCountRule::plurality(2);
        for threads in [1, 3] {
            let mut lane = PlaneLane::for_torus(&torus, &colors, &rule).unwrap();
            lane.set_threads(threads);
            assert_eq!(lane.state_hash(), None, "off until switched on");
            lane.step();
            lane.enable_hash();
            for round in 0..10 {
                lane.step();
                let mut fresh = lane.clone();
                fresh.hash = None;
                fresh.enable_hash();
                assert_eq!(lane.state_hash(), fresh.state_hash(), "round {round}");
            }
        }
        let checkerboard: Vec<Color> = (0..12 * 128)
            .map(|v| c(1 + ((v / 128 + v % 128) % 2) as u16))
            .collect();
        let mut lane = PlaneLane::for_torus(&torus, &checkerboard, &rule).unwrap();
        lane.enable_hash();
        let start = lane.state_hash();
        assert_eq!(lane.step(), 12 * 128);
        assert_ne!(lane.state_hash(), start);
        lane.step();
        assert_eq!(lane.state_hash(), start);
    }

    #[test]
    fn snapshot_decodes_every_palette_size() {
        for palette in [1, 2, 3, 5, 16] {
            let torus = Torus::new(TorusKind::TorusSerpentinus, 7, 61);
            let colors = scatter_colors(7 * 61, palette, u64::from(palette));
            let lane =
                PlaneLane::for_torus(&torus, &colors, &ColorCountRule::plurality(2)).unwrap();
            assert_eq!(lane.snapshot(), colors, "palette {palette}");
            let expected: Vec<Color> = (0..colors.len()).map(|v| lane.color_at(v)).collect();
            assert_eq!(lane.snapshot(), expected);
        }
        // The unset sentinel is a colour index like any other to the lane.
        let torus = Torus::new(TorusKind::ToroidalMesh, 4, 4);
        let mut colors = scatter_colors(16, 2, 9);
        colors[5] = Color::UNSET;
        let lane = PlaneLane::for_torus(&torus, &colors, &ColorCountRule::plurality(2)).unwrap();
        assert_eq!(lane.palette()[0], Color::UNSET);
        assert_eq!(lane.snapshot(), colors);
    }
}
