//! The incremental frontier scheduler.
//!
//! Every rule in the workspace is local: a vertex can only change colour
//! in round `t + 1` if it or one of its neighbours changed in round `t`.
//! The simulator exploits this by evaluating, after the first full round,
//! **only the candidate set** — last round's changed vertices and their
//! out-neighbours — instead of all `|V|` vertices.  On the paper's
//! workloads (small seed sets spreading through a large torus) the
//! candidate set is a thin moving frontier, so the per-round cost drops
//! from `O(|V|)` to `O(|frontier| · Δ)`.
//!
//! `Worklist` is the generic backend's round-stamped candidate dedup
//! (vertex indices); the bit-plane lane marks candidate words in a bitmap
//! of its own (see [`crate::planes`]).  Deduplication uses a `Vec<u32>`
//! of round tags instead of a hash set:
//! marking an index is one array compare-and-write, and clearing between
//! rounds is a single counter increment.

/// A round-stamped worklist of candidate vertices.
///
/// `mark` is idempotent within a round: a vertex is pushed at most once
/// because its stamp records the round tag of its last insertion.  The
/// first round after construction is always a **full sweep** (every vertex
/// is a candidate — nothing has been evaluated yet); callers may also pin
/// the worklist to full sweeps permanently with [`Worklist::set_always_full`],
/// the full-sweep reference mode of the equivalence tests and the frontier
/// benchmarks.
#[derive(Clone, Debug)]
pub(crate) struct Worklist {
    current: Vec<u32>,
    next: Vec<u32>,
    stamp: Vec<u32>,
    tag: u32,
    full_pending: bool,
    always_full: bool,
}

impl Worklist {
    pub(crate) fn new(node_count: usize) -> Self {
        Worklist {
            current: Vec::new(),
            next: Vec::new(),
            stamp: vec![0; node_count],
            tag: 0,
            full_pending: true,
            always_full: false,
        }
    }

    /// Pins every future round to a full sweep.
    pub(crate) fn set_always_full(&mut self) {
        self.always_full = true;
    }

    pub(crate) fn always_full(&self) -> bool {
        self.always_full
    }

    /// Whether the round about to be evaluated must visit every vertex.
    pub(crate) fn is_full_round(&self) -> bool {
        self.always_full || self.full_pending
    }

    /// The candidate vertices of the round about to be evaluated (only
    /// meaningful when [`Worklist::is_full_round`] is `false`).
    pub(crate) fn candidates(&self) -> &[u32] {
        &self.current
    }

    /// Opens the collection of next round's candidates.
    pub(crate) fn begin_next(&mut self) {
        self.next.clear();
        // The tag increments once per round; on the (astronomically
        // unlikely) wrap the stamps are reset so no stale tag can collide.
        self.tag = self.tag.wrapping_add(1);
        if self.tag == 0 {
            self.stamp.fill(0);
            self.tag = 1;
        }
    }

    /// Adds `v` to next round's candidates (no-op if already added this
    /// round).
    #[inline]
    pub(crate) fn mark(&mut self, v: u32) {
        let stamp = &mut self.stamp[v as usize];
        if *stamp != self.tag {
            *stamp = self.tag;
            self.next.push(v);
        }
    }

    /// Closes the round: next round's candidates become current.
    pub(crate) fn finish_round(&mut self) {
        std::mem::swap(&mut self.current, &mut self.next);
        self.full_pending = false;
    }
}
