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
//! 4. **Write back** the word's new value, changed or not, into the back
//!    planes (see the double buffer below).
//!
//! The per-vertex cost is a few ALU ops instead of a rule dispatch plus a
//! colour multiset scan.  Which rules qualify is declared by the rules
//! themselves through [`ctori_protocols::LocalRule::as_color_count_rule`].
//!
//! # Double buffer
//!
//! Rounds are synchronous: every vertex reads its neighbours' pre-round
//! codes and all of them recolour at once.  The lane keeps two sets of
//! planes.  A round evaluates each scheduled word against the *front*
//! planes, writes the word's full new value into the *back* planes
//! whether or not it changed, and then swaps the two sets.
//!
//! **Invariant: after the swap, the back buffer holds the previous
//! round's complete state.**  It holds because every word that changed
//! last round is a candidate this round (a changed word marks itself).
//! Before round `t + 1` the front holds state `S_t` and the back
//! `S_{t−1}`.  A word the round skips did not change in round `t` (it
//! would be a candidate) and cannot change in round `t + 1` (only
//! candidates can), so its back copy, from `S_{t−1}`, already equals
//! `S_{t+1}`; every other word is written.  After the swap the front holds
//! `S_{t+1}` and the back `S_t`.  Dense rounds, sparse rounds, the
//! always-full reference and slow words all write every word they
//! evaluate, and the back buffer starts as a copy of the front.
//!
//! A round records nothing else per word but what changed: it keeps
//! `(word, changed lanes)` pairs, and [`PlaneLane::flips`] derives
//! `(vertex, old, new)` from them, reading old codes from the back planes
//! and new ones from the front.  The flip count, the per-plane bit counts
//! and the cycle hash are updated in the pass that evaluates the word,
//! while its old and new values are still in registers.
//!
//! The step is specialised by plane count: it dispatches once per round
//! on `plane_count` (1–4) and on the compiled rule to a monomorphised
//! sweep, so every word op runs over fixed-size `[u64; PC]` arrays with
//! unrolled loops and the per-word loop holds no rule match.
//!
//! # Frontier words and wrap handling
//!
//! Scheduling is *word-granular*: a bitmap with one bit per word holds the
//! round's candidates, and a word is re-evaluated when any of its 64
//! vertices or their neighbours changed last round (dirty propagation is
//! word-level too, through a per-word neighbour-word table built at
//! construction — no per-flip neighbour walks).  A round counts its
//! candidates off the bitmap and runs the full tiled sweep once they
//! cover 5/8 of the words, else it walks the set bits in ascending word
//! order.  When the changed words alone already reach that share, the
//! round makes no marks: the candidates always include the changed
//! words, so the next round runs dense anyway, and every word is marked
//! at once.
//!
//! Words are classified once at construction, from the torus's own wrap
//! rule ([`ctori_topology::Torus`]); no CSR is built:
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
//! of thrashing between distant rows.  Evaluation reads only the front
//! planes and writes only the back planes, so traversal order never
//! affects results.
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
//! whose bits are the planes counting `len`.  The sweep moves each count
//! by the lanes a changed word sets minus those it clears in that plane,
//! so the test costs O(planes) per round whatever the palette.  Popcount
//! is a software routine on the baseline x86-64 target, so a changed word
//! pays one for its flips and two per plane, and a one-plane word reuses
//! its flip count (every changed lane differs in the only plane); words
//! that do not change pay none.
//!
//! The per-colour census is counted off the planes by each read.
//! [`PlaneLane::count_of`] takes one indicator popcount per word, with the
//! lanes past `len` masked off the partial tail word.
//! [`PlaneLane::histogram`] popcounts the AND of every set of two or more
//! planes (one per word at two planes, four at three, eleven at four) and
//! recovers each code's count by inclusion–exclusion, with the plane
//! counts for single planes and `len` for the empty set; tail bits are
//! zero in every plane, so the ANDs need no mask.  Steps keep no
//! per-colour ledger, so a run that nothing reads during its rounds never
//! pays for one; a colour outside the palette is answered by the palette
//! search alone.
//!
//! # Cycle hash
//!
//! The lane keeps its own cycle-detection hash, a Zobrist hash over
//! (word, plane, contents): the XOR over every plane word of one
//! SplitMix64 mix of its contents, salted with its position.  The hash is
//! off until the simulator's run loop switches it on with cycle detection,
//! so a raw [`PlaneLane::step`] pays nothing for it.  Once on, the sweep
//! swaps the old term of each plane word a changed word rewrites for the
//! new one (two mixes) and folds the difference into the round's sum
//! while both values are at hand.  A
//! hash match is only a candidate: the simulator confirms every repeat by
//! replay before reporting a cycle.

use ctori_coloring::Color;
use ctori_protocols::{ColorCountForm, ColorCountRule};
use ctori_topology::{Adjacency, NodeId, Topology, Torus, TorusKind};

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
    /// Full word, interior pattern vertically, with toroidal-mesh
    /// row-wrap lanes: `west` (`east`) is the word's first column-0
    /// (column-`n-1`) lane, 64 for none, and [`wrap_lanes`] spreads it to
    /// every such lane.  Their west (east) neighbour is `v+cols-1`
    /// (`v-cols+1`) instead of `v∓1`.
    Wrap { west: u8, east: u8 },
    /// Anything else: exact per-vertex evaluation over the word's stored
    /// neighbour lists ([`SlowLists`]).
    Slow,
}

/// The compiled rule as a word update.  The step is monomorphised over
/// it (and over the plane count), so the per-word loop holds no
/// [`Decision`] match.
trait WordRule {
    /// The word's new value in every plane, from the gathered N/S/W/E
    /// neighbour words `nb` and its own value `own`.
    fn next<const PC: usize>(&self, nb: &[[u64; PC]; 4], own: &[u64; PC]) -> [u64; PC];
}

/// [`Decision::Plurality`] with the locked code.
#[derive(Clone, Copy)]
struct PluralityWord {
    min_pair: u32,
    tie: Option<u8>,
    locked: Option<u8>,
}

impl WordRule for PluralityWord {
    #[inline(always)]
    fn next<const PC: usize>(&self, nb: &[[u64; PC]; 4], own: &[u64; PC]) -> [u64; PC] {
        plurality_word(nb, own, self.min_pair, self.tie, self.locked).1
    }
}

/// [`Decision::Activation`] of a palette colour, with the locked code.
#[derive(Clone, Copy)]
struct ActivationWord {
    code: usize,
    threshold: u32,
    locked: Option<u8>,
}

impl WordRule for ActivationWord {
    #[inline(always)]
    fn next<const PC: usize>(&self, nb: &[[u64; PC]; 4], own: &[u64; PC]) -> [u64; PC] {
        let code = self.code;
        let (hi, mid, low) = count4(
            indicator(&nb[0], code),
            indicator(&nb[1], code),
            indicator(&nb[2], code),
            indicator(&nb[3], code),
        );
        let reached = match self.threshold {
            0 => !0u64,
            1 => hi | mid | low,
            2 => hi | mid,
            3 => hi | (mid & low),
            4 => hi,
            _ => 0,
        };
        let mut changed = reached & !indicator(own, code);
        if let Some(locked) = self.locked {
            changed &= !indicator(own, usize::from(locked));
        }
        let mut new = *own;
        for (p, slot) in new.iter_mut().enumerate() {
            if (code >> p) & 1 == 1 {
                *slot |= changed;
            } else {
                *slot &= !changed;
            }
        }
        new
    }
}

/// An activation rule whose colour is outside the palette: no word ever
/// changes.
#[derive(Clone, Copy)]
struct Inert;

impl WordRule for Inert {
    #[inline(always)]
    fn next<const PC: usize>(&self, _nb: &[[u64; PC]; 4], own: &[u64; PC]) -> [u64; PC] {
        *own
    }
}

/// A round's account of what its changed words moved, kept by the sweep
/// while each word's old and new values are still in registers and
/// folded into the lane after it.
#[derive(Clone, Copy, Debug, Default)]
struct RoundSum {
    /// Vertices changed.
    flips: usize,
    /// Signed movement of each plane's set-bit count.
    ones: [i64; MAX_PLANES],
    /// XOR of the round's cycle-hash term changes (0 while the hash is
    /// off).
    hash: u64,
}

impl RoundSum {
    /// Accounts word `w`, whose lanes `changed` go from `own` to `new`;
    /// `hashing` swaps the cycle-hash terms of its rewritten plane words.
    #[inline(always)]
    fn record<const PC: usize>(
        &mut self,
        w: usize,
        changed: u64,
        (own, new): (&[u64; PC], &[u64; PC]),
        hashing: bool,
    ) {
        let flips = changed.count_ones();
        self.flips += flips as usize;
        for (p, ((moved, &before), &after)) in self.ones.iter_mut().zip(own).zip(new).enumerate() {
            // A plane's count moves by the lanes it sets minus the lanes
            // it clears, 2·set − differ; at one plane every changed lane
            // differs, so the flip count saves a popcount.
            let set = (after & !before).count_ones();
            let differ = if PC == 1 {
                flips
            } else {
                (after ^ before).count_ones()
            };
            *moved += 2 * i64::from(set) - i64::from(differ);
            if hashing && before != after {
                self.hash ^= zobrist_term(w, p, before) ^ zobrist_term(w, p, after);
            }
        }
    }
}

/// A round's output: every back plane, and the words it changed with
/// their changed lanes.
struct RoundOut<'a, const PC: usize> {
    back: [&'a mut [u64]; PC],
    changed: &'a mut Vec<(u32, u64)>,
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
fn indicator<const PC: usize>(words: &[u64; PC], code: usize) -> u64 {
    let mut ind = !0u64;
    for (p, &plane) in words.iter().enumerate() {
        ind &= if (code >> p) & 1 == 1 { plane } else { !plane };
    }
    ind
}

/// The compiled plurality rule on one word of degree-4 vertices, as
/// `(changed, new)`: the lanes that change code and the word's new value
/// in every plane.  `nb` holds the gathered N/S/W/E words and `own` the
/// word itself.
///
/// On four neighbours the rule depends only on which of the six
/// neighbour pairs share a code, so the palette size never enters: lane
/// masks `e_ab` of "neighbours `a` and `b` agree" give the counts
/// (some code twice, a 2-2 tie, some code three or four times), and a
/// per-plane mux over the gathered words names the winner.  A unique
/// plurality of one is impossible on degree 4 (four singletons tie), so
/// every `min_pair ≤ 2` behaves as 2.
#[inline(always)]
fn plurality_word<const PC: usize>(
    nb: &[[u64; PC]; 4],
    own: &[u64; PC],
    min_pair: u32,
    tie: Option<u8>,
    locked: Option<u8>,
) -> (u64, [u64; PC]) {
    let agree = |a: usize, b: usize| {
        let pairs = nb[a].iter().zip(&nb[b]);
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
    let mut target = [0u64; PC];
    for (p, slot) in target.iter_mut().enumerate() {
        *slot = (nb[0][p] & g0) | (nb[1][p] & !g0 & g1) | (nb[2][p] & !(g0 | g1));
    }
    let mut decided = adopt;
    if let (Some(t), 0..=2) = (tie, min_pair) {
        // The two pairs of a 2-2 tie are neighbour 0's code and, when 0
        // pairs with 1, neighbour 2's, else neighbour 1's.
        let t = usize::from(t);
        let holds = |d: usize| indicator(&nb[d], t);
        let won = tie22 & (holds(0) | (holds(2) & e01) | (holds(1) & !e01));
        for (p, slot) in target.iter_mut().enumerate() {
            *slot = (*slot & !won) | if (t >> p) & 1 == 1 { won } else { 0 };
        }
        decided |= won;
    }
    let differ = target.iter().zip(own).fold(0u64, |d, (t, o)| d | (t ^ o));
    let mut changed = decided & differ;
    if let Some(locked) = locked {
        changed &= !indicator(own, usize::from(locked));
    }
    let mut new = *own;
    for (slot, t) in new.iter_mut().zip(&target) {
        *slot ^= (*slot ^ t) & changed;
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
    let mesh = match torus.kind() {
        TorusKind::ToroidalMesh => true,
        TorusKind::TorusCordalis | TorusKind::TorusSerpentinus => false,
        // A kind whose wraps this rule does not know takes the exact path.
        _ => return vec![WordClass::Slow; words],
    };
    // The first lane of the word starting at vertex `base` that holds
    // column `col` (64: none).
    let first_lane = |base: usize, col: usize| ((col + cols - base % cols) % cols).min(64) as u8;
    let interior_end = (rows - 1) * cols;
    (0..words)
        .map(|w| {
            let base = w * 64;
            if base < cols || base + 64 > interior_end {
                WordClass::Slow
            } else if mesh {
                let (west, east) = (first_lane(base, 0), first_lane(base, cols - 1));
                if (west, east) == (64, 64) {
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

/// The lanes of a word that hold one torus column, from the first of
/// them (64: none) on every `cols`-th lane.
#[inline]
fn wrap_lanes(first: u8, cols: usize) -> u64 {
    let mut lanes = 0u64;
    let mut lane = usize::from(first);
    while lane < 64 {
        lanes |= 1 << lane;
        lane += cols;
    }
    lanes
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
                    WordClass::Wrap { west, east } => {
                        (wrap_lanes(west, cols), wrap_lanes(east, cols))
                    }
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
/// evaluates 64 vertices per word against the front planes and writes the
/// back planes (see the [module docs](crate::planes) for the kernel and
/// the double buffer).  The lane owns all the structure it reads: its
/// word classes, the neighbour lists of its slow words and the word-level
/// dirty table, so [`PlaneLane::step`] needs no CSR.
#[derive(Clone, Debug)]
pub struct PlaneLane {
    /// The current configuration: `front[p]` holds bit `p` of every
    /// vertex code; tail bits past `len` stay zero.
    front: Vec<Vec<u64>>,
    /// The previous round's configuration, in the same layout; a round
    /// writes its words' new values here and then swaps it to the front.
    back: Vec<Vec<u64>>,
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
    /// The next round's candidate words, one bit per word (every word
    /// before the first round).
    dirty: Vec<u64>,
    /// Pins every round to a full sweep: no marks are made, and the
    /// bitmap stays full.
    always_full: bool,
    /// The words the last step changed, in the order it visited them,
    /// with their changed lanes.
    changed: Vec<(u32, u64)>,
    /// Whether the last step ran the full tiled sweep.
    last_dense: bool,
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
        let (front, ones) = pack_planes(colors, &palette, plane_count);
        let (class, slow) = layout();
        let (mark_offsets, mark_words) = dirty_table(cols, &class, &slow);
        let tile_geometry = if cols >= 64 && cols.is_multiple_of(64) && len.is_multiple_of(cols) {
            Some((len / cols, cols / 64))
        } else {
            None
        };
        let mut dirty = vec![0u64; words.div_ceil(64)];
        mark_all(&mut dirty, words);

        Some(PlaneLane {
            back: front.clone(),
            front,
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
            dirty,
            always_full: false,
            changed: Vec::new(),
            last_dense: false,
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

    /// Number of vertices currently holding `k`, counted with one
    /// indicator popcount per word (O(words × planes)).  A colour outside
    /// the palette is answered by the palette search alone
    /// (O(log palette)).
    pub fn count_of(&self, k: Color) -> usize {
        let Ok(code) = self.palette.binary_search(&k) else {
            return 0;
        };
        (0..self.words)
            .map(|w| {
                // The lanes past `len` read as code 0: mask them off.
                let valid = u64::MAX >> (64 - (self.len - w * 64).min(64));
                let ind = self
                    .front
                    .iter()
                    .enumerate()
                    .fold(valid, |ind, (p, plane)| {
                        ind & if (code >> p) & 1 == 1 {
                            plane[w]
                        } else {
                            !plane[w]
                        }
                    });
                ind.count_ones() as usize
            })
            .sum()
    }

    /// The `(colour, count)` pairs of every colour currently present, in
    /// ascending colour order.
    ///
    /// One pass over the plane words popcounts the AND of every set of
    /// two or more planes (1, 4 and 11 popcounts per word at two, three
    /// and four planes); the plane counts give the single planes and
    /// `len` the empty set, and inclusion–exclusion turns "every bit of
    /// `s` set" counts into exact per-code counts.
    pub fn histogram(&self) -> Vec<(Color, usize)> {
        let subsets = 1usize << self.plane_count;
        // `with[s]`: cells whose code has every bit of `s` set.
        let mut with = [0i64; MAX_PALETTE];
        with[0] = self.len as i64;
        for (p, &n) in self.ones.iter().enumerate().take(self.plane_count) {
            with[1 << p] = n as i64;
        }
        let mut and = [0u64; MAX_PALETTE];
        for w in 0..self.words {
            for s in 1..subsets {
                let low = s & s.wrapping_neg();
                if s == low {
                    and[s] = self.front[low.trailing_zeros() as usize][w];
                } else {
                    and[s] = and[s ^ low] & and[low];
                    with[s] += i64::from(and[s].count_ones());
                }
            }
        }
        // Möbius inversion over supersets: `with[s]` becomes the cells
        // whose code is exactly `s`.
        for p in 0..self.plane_count {
            for s in 0..subsets {
                if s & (1 << p) == 0 {
                    with[s] -= with[s | 1 << p];
                }
            }
        }
        self.palette
            .iter()
            .zip(with)
            .filter(|&(_, n)| n > 0)
            .map(|(&c, n)| (c, n as usize))
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
            for (p, plane) in self.front.iter().enumerate() {
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
            for (p, plane) in self.front.iter().enumerate() {
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
    /// [`PlaneLane::step`] call, derived lazily from its changed words:
    /// old codes from the back planes (the previous round) and new ones
    /// from the front.  Valid until the next step.
    pub fn flips(&self) -> impl Iterator<Item = (u32, Color, Color)> + '_ {
        self.changed.iter().flat_map(move |&(w, changed)| {
            let w = w as usize;
            let mut mask = changed;
            std::iter::from_fn(move || {
                if mask == 0 {
                    return None;
                }
                let bit = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                let (mut old, mut new) = (0usize, 0usize);
                for (p, (before, after)) in self.back.iter().zip(&self.front).enumerate() {
                    old |= (((before[w] >> bit) & 1) as usize) << p;
                    new |= (((after[w] >> bit) & 1) as usize) << p;
                }
                Some(((w * 64 + bit) as u32, self.palette[old], self.palette[new]))
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
        self.always_full = true;
        mark_all(&mut self.dirty, self.words);
    }

    /// `(dense, cells evaluated)` of the last step — the hybrid
    /// crossover's per-round decision record.
    pub(crate) fn last_step_profile(&self) -> (bool, u64) {
        (self.last_dense, self.last_cells_evaluated)
    }

    /// The current code of vertex `v` (its colour's palette position).
    #[inline]
    fn code_of(&self, v: usize) -> u8 {
        let (w, b) = (v >> 6, v & 63);
        let mut code = 0u8;
        for (p, plane) in self.front.iter().enumerate() {
            code |= (((plane[w] >> b) & 1) as u8) << p;
        }
        code
    }

    /// The vectorised kernel: word `w`'s new value, valid because fast
    /// and wrap words are full and share the interior neighbour pattern
    /// (degree exactly 4) up to the `west`/`east` row-wrap lanes.
    #[inline(always)]
    fn eval_vector<const PC: usize, R: WordRule>(
        &self,
        front: &[&[u64]; PC],
        rule: &R,
        own: &[u64; PC],
        w: usize,
        west: u64,
        east: u64,
    ) -> [u64; PC] {
        let base = w * 64;
        // One gathered word set per direction.  Classification guarantees
        // base >= cols and base >= 1, and that every gathered bit index is
        // a valid vertex, so the funnel shifts stay in bounds.
        let bases = [base - self.cols, base + self.cols, base - 1, base + 1];
        let mut nb = [[0u64; PC]; 4];
        for (words, &b) in nb.iter_mut().zip(&bases) {
            for (slot, plane) in words.iter_mut().zip(front) {
                *slot = gather(plane, b);
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
                for (slot, plane) in nb[d].iter_mut().zip(front) {
                    *slot = (*slot & !mask) | (gather(plane, b) & mask);
                }
            }
        }
        rule.next(&nb, own)
    }

    /// The exact per-vertex path for boundary words, the partial tail
    /// word and non-torus structure: word `w`'s new value, counted from
    /// neighbour codes straight off the word's stored lists, at any
    /// degree.
    fn eval_slow<const PC: usize>(&self, own: &[u64; PC], w: usize) -> [u64; PC] {
        let start = w * 64;
        let mut new = *own;
        for (lane, neighbors) in self.slow.of_word(w as u32).enumerate() {
            let code = self.code_of(start + lane);
            let mut counts = [0u32; MAX_PALETTE];
            for &u in neighbors {
                counts[self.code_of(u as usize) as usize] += 1;
            }
            let next = self.decide_one(code, &counts);
            if next != code {
                let bit = 1u64 << lane;
                for (p, slot) in new.iter_mut().enumerate() {
                    if (next >> p) & 1 == 1 {
                        *slot |= bit;
                    } else {
                        *slot &= !bit;
                    }
                }
            }
        }
        new
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

    /// Evaluates word `w` against the front planes, writes its new value
    /// into the back planes, and records and accounts it if it changed.
    #[inline(always)]
    fn visit<const PC: usize, R: WordRule>(
        &self,
        front: &[&[u64]; PC],
        rule: &R,
        w: usize,
        out: &mut RoundOut<'_, PC>,
        sum: &mut RoundSum,
    ) {
        let own: [u64; PC] = std::array::from_fn(|p| front[p][w]);
        let new = match self.class[w] {
            WordClass::Fast => self.eval_vector(front, rule, &own, w, 0, 0),
            WordClass::Wrap { west, east } => {
                let (west, east) = (wrap_lanes(west, self.cols), wrap_lanes(east, self.cols));
                self.eval_vector(front, rule, &own, w, west, east)
            }
            WordClass::Slow => self.eval_slow(&own, w),
        };
        let mut changed = 0u64;
        for ((plane, &after), &before) in out.back.iter_mut().zip(&new).zip(&own) {
            plane[w] = after;
            changed |= after ^ before;
        }
        if changed != 0 {
            out.changed.push((w as u32, changed));
            sum.record(w, changed, (&own, &new), self.hash.is_some());
        }
    }

    /// The full sweep over every word, in cache tiles when the torus rows
    /// are word-aligned and in linear word order otherwise.
    fn sweep_dense<const PC: usize, R: WordRule>(
        &self,
        front: &[&[u64]; PC],
        rule: &R,
        out: &mut RoundOut<'_, PC>,
        sum: &mut RoundSum,
    ) {
        match self.tile_geometry {
            Some((rows, words_per_row)) => {
                for tile_row in (0..rows).step_by(TILE_ROWS) {
                    for tile_col in (0..words_per_row).step_by(TILE_WORD_COLS) {
                        for r in tile_row..(tile_row + TILE_ROWS).min(rows) {
                            for wc in tile_col..(tile_col + TILE_WORD_COLS).min(words_per_row) {
                                self.visit(front, rule, r * words_per_row + wc, out, sum);
                            }
                        }
                    }
                }
            }
            None => {
                for w in 0..self.words {
                    self.visit(front, rule, w, out, sum);
                }
            }
        }
    }

    /// The worklist path: the candidate words, read off the dirty bitmap
    /// in ascending order.
    fn sweep_sparse<const PC: usize, R: WordRule>(
        &self,
        front: &[&[u64]; PC],
        rule: &R,
        out: &mut RoundOut<'_, PC>,
        sum: &mut RoundSum,
    ) {
        for (i, &marked) in self.dirty.iter().enumerate() {
            let mut bits = marked;
            while bits != 0 {
                let w = i * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.visit(front, rule, w, out, sum);
            }
        }
    }

    /// Executes one synchronous round and returns the number of changed
    /// vertices.
    ///
    /// The first round after construction evaluates every word; later
    /// rounds evaluate only the dirty words (words holding last round's
    /// flips or their neighbours).  Each round chooses dense or sparse
    /// execution: once the candidates cover ≳62.5 % of the words it
    /// re-runs the full tiled sweep instead of chasing the worklist, which
    /// is exact because a word absent from the worklist cannot change (its
    /// evaluation is a no-op), so the dense superset yields the identical
    /// change set.  Changes are available through [`PlaneLane::flips`]
    /// until the next step.
    pub fn step(&mut self) -> usize {
        match self.plane_count {
            1 => self.step_planes::<1>(),
            2 => self.step_planes::<2>(),
            3 => self.step_planes::<3>(),
            _ => self.step_planes::<4>(),
        }
    }

    /// [`PlaneLane::step`] at `PC` planes: picks the compiled rule's word
    /// update once for the whole round.
    fn step_planes<const PC: usize>(&mut self) -> usize {
        let locked = self.locked_code;
        match self.decision {
            Decision::Plurality { min_pair, tie } => self.round::<PC, _>(PluralityWord {
                min_pair,
                tie,
                locked,
            }),
            Decision::Activation {
                code: Some(code),
                threshold,
            } => self.round::<PC, _>(ActivationWord {
                code: usize::from(code),
                threshold,
                locked,
            }),
            // Activation colour absent with a positive threshold: inert.
            Decision::Activation { code: None, .. } => self.round::<PC, _>(Inert),
        }
    }

    /// One round at `PC` planes under `rule`: the scheduled words are
    /// evaluated against the front planes into the back planes, then the
    /// sets swap and next round's candidates are marked.
    fn round<const PC: usize, R: WordRule>(&mut self, rule: R) -> usize {
        // The hybrid dense/sparse crossover: the worklist path costs
        // roughly a per-candidate dispatch that the tiled sweep amortises
        // away, so once the candidates pass ~5/8 of the words the full
        // sweep is cheaper (calibrated on the BENCH_6 scatter workloads,
        // where near-full buckets made sparse k=8 rounds pay the 3-plane
        // gather tax word by word).
        let candidates: usize = self
            .dirty
            .iter()
            .map(|bits| bits.count_ones() as usize)
            .sum();
        let dense = candidates * 8 >= self.words * 5;
        let mut back = std::mem::take(&mut self.back);
        let mut changed = std::mem::take(&mut self.changed);
        changed.clear();
        let mut sum = RoundSum::default();
        {
            let mut planes = back.iter_mut();
            let mut out = RoundOut {
                back: std::array::from_fn(|_| planes.next().expect("a back plane").as_mut_slice()),
                changed: &mut changed,
            };
            let front: [&[u64]; PC] = std::array::from_fn(|p| self.front[p].as_slice());
            if dense {
                self.sweep_dense(&front, &rule, &mut out, &mut sum);
            } else {
                self.sweep_sparse(&front, &rule, &mut out, &mut sum);
            }
        }
        self.back = back;
        std::mem::swap(&mut self.front, &mut self.back);

        self.flipped = sum.flips;
        for (n, &moved) in self.ones.iter_mut().zip(&sum.ones) {
            *n = (*n as i64 + moved) as usize;
        }
        if let Some(hash) = &mut self.hash {
            *hash ^= sum.hash;
        }
        let words_evaluated = if dense { self.words } else { candidates };
        self.last_dense = dense;
        self.last_cells_evaluated = words_evaluated as u64 * 64;

        if !self.always_full {
            self.mark_next(&changed);
        }
        self.changed = changed;
        self.flipped
    }

    /// Marks next round's candidates: every changed word and the words
    /// holding its vertices' neighbours (a safe superset of the per-flip
    /// marks, with no list walk).
    ///
    /// When the changed words alone reach the dense crossover, next round
    /// runs dense whatever else is marked, so every word is marked at
    /// once instead.
    fn mark_next(&mut self, changed: &[(u32, u64)]) {
        if changed.len() * 8 >= self.words * 5 {
            mark_all(&mut self.dirty, self.words);
            return;
        }
        self.dirty.fill(0);
        for &(w, _) in changed {
            let w = w as usize;
            let from = self.mark_offsets[w] as usize;
            let to = self.mark_offsets[w + 1] as usize;
            let words = std::iter::once(w as u32).chain(self.mark_words[from..to].iter().copied());
            for u in words {
                self.dirty[u as usize >> 6] |= 1 << (u & 63);
            }
        }
    }
}

/// Sets bits `0..n` of a word bitmap and clears the rest: every word a
/// candidate.
fn mark_all(bitmap: &mut [u64], n: usize) {
    bitmap.fill(u64::MAX);
    if let (Some(last), tail @ 1..) = (bitmap.last_mut(), n % 64) {
        *last = u64::MAX >> (64 - tail);
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
            let changed = reference_flips(&colors, &expected);
            assert_eq!(flips, changed.len(), "flip count diverges at round {round}");
            assert_eq!(lane.snapshot(), expected, "state diverges at round {round}");
            assert_eq!(
                sorted_flips(&lane),
                changed,
                "flips diverge at round {round}"
            );
            colors = expected;
        }
    }

    /// The `(vertex, old, new)` changes from `before` to `after`, in
    /// vertex order.
    fn reference_flips(before: &[Color], after: &[Color]) -> Vec<(u32, Color, Color)> {
        before
            .iter()
            .zip(after)
            .enumerate()
            .filter(|(_, (old, new))| old != new)
            .map(|(v, (&old, &new))| (v as u32, old, new))
            .collect()
    }

    /// The lane's last-step [`PlaneLane::flips`], in vertex order.
    fn sorted_flips(lane: &PlaneLane) -> Vec<(u32, Color, Color)> {
        let mut flips: Vec<_> = lane.flips().collect();
        flips.sort_unstable();
        flips
    }

    #[test]
    fn sparse_rounds_keep_the_back_buffer_current() {
        // A checkerboard strip two rows high, across the whole width of
        // a toroidal mesh, flips every round (period 2), while a lone
        // colour-3 vertex and a colour-3 plus far from it die in rounds 1
        // and 2 and leave their words unchanged from then on.  Every
        // round after the first is sparse, so each round writes back only
        // its candidates, until the full sweep is switched on mid-run.
        let (m, n) = (24, 256);
        let torus = Torus::new(TorusKind::ToroidalMesh, m, n);
        let adjacency = Adjacency::from_torus(&torus);
        let mut start = vec![c(1); m * n];
        for r in 2..4 {
            for col in (r % 2..n).step_by(2) {
                start[r * n + col] = c(2);
            }
        }
        start[12 * n + 70] = c(3);
        for v in [
            16 * n + 200,
            15 * n + 200,
            17 * n + 200,
            16 * n + 199,
            16 * n + 201,
        ] {
            start[v] = c(3);
        }
        let rule = ColorCountRule::plurality(2);
        let mut lane = PlaneLane::for_torus(&torus, &start, &rule).unwrap();
        let mut colors = start;
        for round in 0..12 {
            if round == 8 {
                lane.set_always_full();
            }
            let expected = reference_round(&adjacency, &rule, &colors);
            lane.step();
            assert_eq!(lane.snapshot(), expected, "round {round}");
            let changed = reference_flips(&colors, &expected);
            assert_eq!(sorted_flips(&lane), changed, "round {round}");
            if round >= 2 {
                assert_eq!(changed.len(), 2 * n, "round {round}: only the strip flips");
            }
            let (dense, _) = lane.last_step_profile();
            assert_eq!(dense, matches!(round, 0 | 8..), "round {round}: dense");
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
    /// one word, runs [`plurality_word`] on it at the lane's plane count
    /// and checks every lane against [`PlaneLane::decide_one`].
    fn check_plurality_lanes(lane: &PlaneLane, tuples: &[(u8, [u8; 4])]) {
        match lane.plane_count {
            1 => check_plurality_lanes_at::<1>(lane, tuples),
            2 => check_plurality_lanes_at::<2>(lane, tuples),
            3 => check_plurality_lanes_at::<3>(lane, tuples),
            _ => check_plurality_lanes_at::<4>(lane, tuples),
        }
    }

    fn check_plurality_lanes_at<const PC: usize>(lane: &PlaneLane, tuples: &[(u8, [u8; 4])]) {
        let Decision::Plurality { min_pair, tie } = lane.decision else {
            panic!("not a plurality lane");
        };
        assert_eq!(lane.plane_count, PC);
        let mut own = [0u64; PC];
        let mut nb = [[0u64; PC]; 4];
        for (i, &(o, codes)) in tuples.iter().enumerate() {
            for p in 0..PC {
                own[p] |= u64::from((o >> p) & 1) << i;
                for (d, &code) in codes.iter().enumerate() {
                    nb[d][p] |= u64::from((code >> p) & 1) << i;
                }
            }
        }
        let (changed, new) = plurality_word(&nb, &own, min_pair, tie, lane.locked_code);
        for (i, &(o, codes)) in tuples.iter().enumerate() {
            let mut counts = [0u32; MAX_PALETTE];
            for &code in &codes {
                counts[usize::from(code)] += 1;
            }
            let expected = lane.decide_one(o, &counts);
            let got = (0..PC).fold(0u8, |code, p| code | (((new[p] >> i) & 1) as u8) << p);
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
        // all three must match the snapshot.  5×70 ends in a partial word;
        // the activation rule turns the torus monochromatic in its top
        // colour in round 1.
        let absent = c(200);
        for (m, n) in [(8, 64), (5, 70)] {
            let torus = Torus::new(TorusKind::ToroidalMesh, m, n);
            for palette in [1, 2, 3, 5, 8, 16] {
                let colors = scatter_colors(m * n, palette, 99 + u64::from(palette));
                for rule in [
                    ColorCountRule::plurality(2),
                    ColorCountRule::activation(c(palette), 0),
                ] {
                    let mut lane = PlaneLane::for_torus(&torus, &colors, &rule).unwrap();
                    let context = format!("{m}x{n}, palette {palette}, {rule:?}");
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
        let mut full = PlaneLane::for_torus(&torus, &colors, &rule).unwrap();
        full.set_always_full();
        let mut saw_dense = false;
        let mut saw_sparse = false;
        for round in 0..24 {
            let a = hybrid.step();
            let b = full.step();
            assert_eq!(a, b, "flip counts diverge at round {round}");
            assert_eq!(hybrid.snapshot(), full.snapshot());
            let (dense, cells) = hybrid.last_step_profile();
            assert!(cells <= (hybrid.words as u64) * 64);
            saw_dense |= dense;
            saw_sparse |= !dense;
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
        assert_eq!(lane.class[2], WordClass::Wrap { west: 0, east: 64 });
        assert_eq!(lane.class[3], WordClass::Wrap { west: 64, east: 63 });
        assert_eq!((wrap_lanes(0, 128), wrap_lanes(64, 128)), (1, 0));
        assert_eq!(wrap_lanes(63, 128), 1 << 63);
        // On a 16-wide mesh a word holds four rows, hence four wrap lanes
        // each way; only the words touching row 0 or row 15 stay slow.
        let torus = Torus::new(TorusKind::ToroidalMesh, 16, 16);
        let colors = scatter_colors(16 * 16, 2, 11);
        let lane = PlaneLane::for_torus(&torus, &colors, &ColorCountRule::plurality(2)).unwrap();
        let rows = WordClass::Wrap { west: 0, east: 15 };
        assert_eq!(lane.class, [WordClass::Slow, rows, rows, WordClass::Slow]);
        assert_eq!(wrap_lanes(0, 16), 0x0001_0001_0001_0001);
        assert_eq!(wrap_lanes(15, 16), 0x8000_8000_8000_8000);
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
                // The walked lanes are what the first ones spread to.
                let first = |lanes: u64| lanes.trailing_zeros() as u8;
                let (west_first, east_first) = (first(west), first(east));
                let spread = (wrap_lanes(west_first, cols), wrap_lanes(east_first, cols));
                assert_eq!(spread, (west, east), "word {w}: wrap lanes");
                WordClass::Wrap {
                    west: west_first,
                    east: east_first,
                }
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
        // every round, and it is a function of the configuration: a
        // period-2 blinker returns to its first value.
        let torus = Torus::new(TorusKind::ToroidalMesh, 12, 128);
        let colors = scatter_colors(12 * 128, 5, 77);
        let rule = ColorCountRule::plurality(2);
        let mut lane = PlaneLane::for_torus(&torus, &colors, &rule).unwrap();
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
