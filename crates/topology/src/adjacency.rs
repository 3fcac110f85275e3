//! The shared compressed-sparse-row (CSR) adjacency kernel.
//!
//! The loops that walk neighbour lists — the simulator's generic lane,
//! the linear-threshold diffusion, the connectivity sweeps — touch each
//! vertex's neighbourhood once per round.  Asking the [`Topology`] trait
//! for a fresh `Vec<NodeId>` per visit would allocate per vertex per round,
//! so all of them flatten the adjacency **once** into this structure and
//! the inner loops become pure slice indexing.  The simulator's bit-plane
//! lane gathers a torus's neighbours arithmetically from its wrap rule,
//! so a torus run on it builds no CSR at all.
//!
//! [`Adjacency`] is built either generically from any [`Topology`] (via the
//! non-allocating [`Topology::for_each_neighbor`] walk) or arithmetically
//! from a [`Torus`] with the O(1) neighbour computation specialised per
//! [`TorusKind`] — no intermediate allocation in either case beyond the two
//! CSR arrays themselves.

use crate::node::NodeId;
use crate::topology::Topology;
use crate::torus::{Torus, TorusKind};

/// Flattened adjacency lists of a topology in CSR form.
///
/// `targets[offsets[v]..offsets[v+1]]` are the neighbour indices of vertex
/// `v`.  Indices are `u32` (half the footprint of `usize` on 64-bit
/// machines), which matters when millions of simulations stream over the
/// structure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Adjacency {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl Adjacency {
    /// Builds the CSR adjacency of any topology through the trait's
    /// non-allocating neighbour walk.
    pub fn build<T: Topology + ?Sized>(topology: &T) -> Self {
        let n = topology.node_count();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::new();
        offsets.push(0u32);
        for v in 0..n {
            topology.for_each_neighbor(NodeId::new(v), &mut |u| {
                targets.push(u.index() as u32);
            });
            offsets.push(targets.len() as u32);
        }
        Adjacency { offsets, targets }
    }

    /// Builds the CSR adjacency of a torus arithmetically.
    ///
    /// Every vertex has exactly four neighbours, so the offsets are always
    /// `4v` and the targets are filled row by row: the wrapped rows above
    /// and below are resolved once per row and the wrapped columns by a
    /// compare per vertex, with no `%` per neighbour.  The wrap rule is
    /// specialised per [`TorusKind`] and the kind dispatch hoisted out of
    /// the per-vertex loop, each kind's fill loop monomorphised on its own.
    pub fn from_torus(torus: &Torus) -> Self {
        let (m, n) = (torus.rows(), torus.cols());
        let count = m * n;
        let offsets = (0..=count).map(|v| (4 * v) as u32).collect();
        let mut targets = Vec::with_capacity(4 * count);
        // [north, south, west, east] per vertex, matching Torus::neighbor_coords.
        match torus.kind() {
            TorusKind::ToroidalMesh => {
                fill_torus(m, n, &mut targets, |c| [c.north, c.south, c.west, c.east])
            }
            TorusKind::TorusCordalis => {
                fill_torus(m, n, &mut targets, |c| [c.north, c.south, c.prev, c.next])
            }
            TorusKind::TorusSerpentinus => fill_torus(m, n, &mut targets, |c| {
                [
                    // (0, j) looks up to (m-1, j+1); (m-1, j) down to (0, j-1).
                    if c.row == 0 {
                        c.north - c.col + c.east_col
                    } else {
                        c.north
                    },
                    if c.row == m - 1 { c.west_col } else { c.south },
                    c.prev,
                    c.next,
                ]
            }),
        }
        Adjacency { offsets, targets }
    }

    /// Number of vertices.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The neighbour indices of vertex `v` as a slice of raw indices.
    #[inline]
    pub fn neighbors_raw(&self, v: usize) -> &[u32] {
        let start = self.offsets[v] as usize;
        let end = self.offsets[v + 1] as usize;
        &self.targets[start..end]
    }

    /// Degree of vertex `v`.
    #[inline]
    pub fn degree_of(&self, v: usize) -> usize {
        (self.offsets[v + 1] - self.offsets[v]) as usize
    }

    /// The maximum degree over all vertices.
    pub fn max_degree(&self) -> usize {
        (0..self.node_count())
            .map(|v| self.degree_of(v))
            .max()
            .unwrap_or(0)
    }

    /// `Some(d)` if every vertex has degree exactly `d` (e.g. 4 on the
    /// paper's tori), letting hot loops pick fixed-arity fast paths.
    pub fn uniform_degree(&self) -> Option<usize> {
        let n = self.node_count();
        if n == 0 {
            return None;
        }
        let d = self.degree_of(0);
        (1..n).all(|v| self.degree_of(v) == d).then_some(d)
    }

    /// Total number of directed neighbour entries (`2·|E|` for graphs
    /// without repeated neighbours).
    #[inline]
    pub fn entry_count(&self) -> usize {
        self.targets.len()
    }
}

/// One vertex as [`fill_torus`] visits it: its position and the
/// row-major indices a torus kind picks its four neighbours from.
struct TorusCell {
    row: usize,
    col: usize,
    /// `(row, col+1 mod n)`'s column.
    east_col: usize,
    /// `(row, col-1 mod n)`'s column.
    west_col: usize,
    /// Toroidal-mesh neighbours: `(row∓1 mod m, col)`, `(row, col∓1 mod n)`.
    north: usize,
    south: usize,
    west: usize,
    east: usize,
    /// The row-major predecessor and successor, wrapping at the ends of
    /// the grid (the chordal tori's west and east neighbours).
    prev: usize,
    next: usize,
}

/// Specialised CSR fill: monomorphised per call site in
/// [`Adjacency::from_torus`], so each kind's wrap arithmetic inlines into
/// its own row-major loop without any per-vertex dispatch or division.
#[inline(always)]
fn fill_torus(
    m: usize,
    n: usize,
    targets: &mut Vec<u32>,
    neighbors: impl Fn(&TorusCell) -> [usize; 4],
) {
    let count = m * n;
    for row in 0..m {
        let here = row * n;
        let above = if row == 0 { count - n } else { here - n };
        let below = if row == m - 1 { 0 } else { here + n };
        for col in 0..n {
            let v = here + col;
            let west_col = if col == 0 { n - 1 } else { col - 1 };
            let east_col = if col == n - 1 { 0 } else { col + 1 };
            let cell = TorusCell {
                row,
                col,
                east_col,
                west_col,
                north: above + col,
                south: below + col,
                west: here + west_col,
                east: here + east_col,
                prev: if v == 0 { count - 1 } else { v - 1 },
                next: if v == count - 1 { 0 } else { v + 1 },
            };
            targets.extend(neighbors(&cell).map(|u| u as u32));
        }
    }
}

impl Topology for Adjacency {
    fn node_count(&self) -> usize {
        Adjacency::node_count(self)
    }

    fn for_each_neighbor(&self, v: NodeId, f: &mut dyn FnMut(NodeId)) {
        for &u in self.neighbors_raw(v.index()) {
            f(NodeId::new(u as usize));
        }
    }

    fn degree(&self, v: NodeId) -> usize {
        self.degree_of(v.index())
    }
}

impl From<&Torus> for Adjacency {
    fn from(torus: &Torus) -> Self {
        Adjacency::from_torus(torus)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::{toroidal_mesh, torus_serpentinus};

    #[test]
    fn csr_matches_torus_neighbors() {
        let t = toroidal_mesh(4, 5);
        let adj = Adjacency::build(&t);
        assert_eq!(adj.node_count(), 20);
        assert_eq!(adj.max_degree(), 4);
        for v in 0..t.node_count() {
            let mut a: Vec<u32> = adj.neighbors_raw(v).to_vec();
            let mut b: Vec<u32> = t
                .neighbor_ids(NodeId::new(v))
                .iter()
                .map(|u| u.index() as u32)
                .collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "adjacency mismatch at vertex {v}");
            assert_eq!(adj.degree_of(v), 4);
        }
    }

    #[test]
    fn arithmetic_build_matches_generic_build() {
        for kind in TorusKind::ALL {
            for (m, n) in [(2, 2), (2, 5), (3, 3), (4, 5), (7, 3), (5, 64)] {
                let t = Torus::new(kind, m, n);
                assert_eq!(
                    Adjacency::from_torus(&t),
                    Adjacency::build(&t),
                    "{kind} {m}x{n}"
                );
            }
        }
    }

    #[test]
    fn csr_handles_irregular_graphs() {
        let mut g = Graph::with_nodes(4);
        g.add_edge(NodeId::new(0), NodeId::new(1));
        g.add_edge(NodeId::new(1), NodeId::new(2));
        g.add_edge(NodeId::new(1), NodeId::new(3));
        let adj = Adjacency::build(&g);
        assert_eq!(adj.degree_of(0), 1);
        assert_eq!(adj.degree_of(1), 3);
        assert_eq!(adj.degree_of(2), 1);
        assert_eq!(adj.max_degree(), 3);
        assert_eq!(adj.neighbors_raw(0), &[1]);
        assert_eq!(adj.entry_count(), 6);
    }

    #[test]
    fn csr_on_serpentinus() {
        let t = torus_serpentinus(3, 3);
        let adj = Adjacency::from_torus(&t);
        assert_eq!(adj.node_count(), 9);
        for v in 0..9 {
            assert_eq!(adj.degree_of(v), 4);
        }
    }

    #[test]
    fn csr_is_itself_a_topology() {
        let t = toroidal_mesh(4, 4);
        let adj = Adjacency::from_torus(&t);
        assert_eq!(Topology::node_count(&adj), 16);
        assert_eq!(Topology::degree(&adj, NodeId::new(3)), 4);
        assert_eq!(adj.edge_count_total(), 2 * 16);
        let mut nbrs = Vec::new();
        adj.neighbors_into(NodeId::new(0), &mut nbrs);
        assert_eq!(nbrs.len(), 4);
        // Rebuilding the CSR from its own Topology impl is the identity.
        assert_eq!(Adjacency::build(&adj), adj);
    }
}
