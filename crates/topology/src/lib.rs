//! # ctori-topology
//!
//! Interaction topologies for the *Dynamic Monopolies in Colored Tori*
//! reproduction (Brunetti, Lodi & Quattrociocchi, IPPS 2011).
//!
//! The paper studies three 4-regular topologies built on an `m × n` grid of
//! vertices (Section II.A of the paper):
//!
//! * the **toroidal mesh** — the standard 2-dimensional torus: rows and
//!   columns both wrap around on themselves;
//! * the **torus cordalis** — like the toroidal mesh, except that the last
//!   vertex `v[i][n-1]` of each row is connected to the first vertex
//!   `v[(i+1) mod m][0]` of the *next* row, so the rows chain into a single
//!   horizontal cycle of length `m·n`;
//! * the **torus serpentinus** — like the torus cordalis, and additionally
//!   the last vertex `v[m-1][j]` of each column is connected to the first
//!   vertex `v[0][(j-1) mod n]` of the *previous* column, so the columns
//!   also chain into a single vertical cycle.
//!
//! The crate provides:
//!
//! * [`Coord`] / [`NodeId`] — grid coordinates and dense vertex identifiers;
//! * [`Torus`] and [`TorusKind`] — the three torus topologies with O(1)
//!   arithmetic neighbourhood computation (nothing is stored per vertex);
//! * the [`Topology`] trait — the minimal interface the simulation engine
//!   needs (vertex count + non-allocating neighbourhood enumeration);
//! * [`Adjacency`] — the CSR kernel the loops that walk neighbour lists
//!   (the simulator's generic lane, diffusion, connectivity) flatten a
//!   topology into; the simulator's bit-plane lane reads a [`Torus`]'s
//!   wrap rule instead and needs none;
//! * [`Graph`] — a general adjacency-list graph used by the target-set
//!   selection substrate and by conversions from tori;
//! * [`generators`] — random graph models (Barabási–Albert, Erdős–Rényi,
//!   ring lattices, small worlds) shared by the TSS substrate and the
//!   engine's declarative topology specifications;
//! * [`NodeSet`] — a compact bit set over vertices;
//! * [`Rectangle`] and [`bounding_rectangle`] — the "smallest rectangle
//!   containing F" notion (`R_F`, `m_F × n_F`) used by Lemma 1 and
//!   Theorem 1 of the paper;
//! * connectivity helpers ([`connected_components`], [`is_forest`],
//!   [`induced_components`]) used to detect blocks, non-blocks and the
//!   forest hypothesis of Theorems 2, 4 and 6.
//!
//! # Example
//!
//! ```
//! use ctori_topology::{Torus, TorusKind, Topology, Coord};
//!
//! let t = Torus::new(TorusKind::ToroidalMesh, 4, 5);
//! assert_eq!(t.node_count(), 20);
//! // Every vertex of every torus in the paper has exactly four neighbours.
//! let v = t.id(Coord::new(0, 0));
//! assert_eq!(t.degree(v), 4);
//!
//! // Loops that walk neighbour lists flatten it once into the CSR kernel.
//! use ctori_topology::Adjacency;
//! let adj = Adjacency::from_torus(&t);
//! assert_eq!(adj.neighbors_raw(v.index()).len(), 4);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

pub mod adjacency;
pub mod connectivity;
pub mod coord;
pub mod generators;
pub mod graph;
pub mod node;
pub mod nodeset;
pub mod rectangle;
pub mod topology;
pub mod torus;

pub use adjacency::Adjacency;
pub use connectivity::{connected_components, induced_components, is_forest, ComponentLabels};
pub use coord::Coord;
pub use graph::Graph;
pub use node::NodeId;
pub use nodeset::NodeSet;
pub use rectangle::{bounding_rectangle, Rectangle};
pub use topology::Topology;
pub use torus::{Torus, TorusKind};

/// Convenience constructor for a toroidal mesh (the most common topology in
/// the paper's examples).
pub fn toroidal_mesh(m: usize, n: usize) -> Torus {
    Torus::new(TorusKind::ToroidalMesh, m, n)
}

/// Convenience constructor for a torus cordalis.
pub fn torus_cordalis(m: usize, n: usize) -> Torus {
    Torus::new(TorusKind::TorusCordalis, m, n)
}

/// Convenience constructor for a torus serpentinus.
pub fn torus_serpentinus(m: usize, n: usize) -> Torus {
    Torus::new(TorusKind::TorusSerpentinus, m, n)
}

#[cfg(test)]
mod lib_tests {
    use super::*;

    #[test]
    fn convenience_constructors_match_kinds() {
        assert_eq!(toroidal_mesh(3, 4).kind(), TorusKind::ToroidalMesh);
        assert_eq!(torus_cordalis(3, 4).kind(), TorusKind::TorusCordalis);
        assert_eq!(torus_serpentinus(3, 4).kind(), TorusKind::TorusSerpentinus);
    }
}
