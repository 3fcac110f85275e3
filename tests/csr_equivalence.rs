//! Cross-layer equivalence properties for the shared CSR kernel.
//!
//! Graph simulation — the engine's generic lane and the TSS diffusion —
//! runs on one `ctori_topology::Adjacency` CSR, and a torus simulator
//! flattens its torus into one whenever something other than the
//! bit-plane lane reads neighbour lists.  These properties pin the
//! contract together across crate boundaries:
//!
//! * `engine::Simulator` running `ThresholdRule` and `tss::diffusion::spread`
//!   must produce identical activation sets *and* identical per-vertex
//!   activation rounds on the same random graph;
//! * the arithmetically specialised CSR of each `TorusKind` must match both
//!   the generic trait-walk CSR and the trait's own neighbour enumeration.

use colored_tori::engine::{RunConfig, Simulator};
use colored_tori::prelude::*;
use colored_tori::topology::{Adjacency, Graph};
use colored_tori::tss::diffusion::{spread, uniform_thresholds};
use colored_tori::tss::generators::{barabasi_albert, ring_lattice};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

fn torus_kind() -> impl Strategy<Value = TorusKind> {
    prop_oneof![
        Just(TorusKind::ToroidalMesh),
        Just(TorusKind::TorusCordalis),
        Just(TorusKind::TorusSerpentinus),
    ]
}

/// A random graph drawn from one of the TSS generator families.
fn random_graph(family: u8, nodes: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    match family % 3 {
        0 => barabasi_albert(nodes.max(8), 3, &mut rng),
        1 => ring_lattice(nodes.max(8), 2),
        _ => {
            // A sparse random graph plus a spanning path so no vertex is
            // isolated from the seeds by construction.
            let nodes = nodes.max(8);
            let mut g = Graph::with_nodes(nodes);
            for v in 1..nodes {
                g.add_edge(NodeId::new(v - 1), NodeId::new(v));
            }
            for _ in 0..nodes {
                let u = rng.gen_range(0..nodes);
                let v = rng.gen_range(0..nodes);
                if u != v {
                    g.add_edge(NodeId::new(u), NodeId::new(v));
                }
            }
            g
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The engine's monomorphised `ThresholdRule` stepper and the TSS
    /// frontier diffusion are the same process on the same CSR: identical
    /// activation sets and identical activation rounds.
    #[test]
    fn simulator_and_spread_agree(
        family in 0u8..3,
        nodes in 8usize..60,
        seed in any::<u64>(),
        threshold in 1usize..4,
        seed_count in 1usize..6,
    ) {
        let graph = random_graph(family, nodes, seed);
        let n = graph.node_count();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD1FF);
        let seeds: Vec<NodeId> = (0..seed_count.min(n))
            .map(|_| NodeId::new(rng.gen_range(0..n)))
            .collect();

        // TSS path: linear-threshold frontier diffusion over the CSR.
        let thresholds = uniform_thresholds(&graph, threshold);
        let diffusion = spread(&graph, &thresholds, &seeds);

        // Engine path: the same process as a synchronous local rule.
        let (active, inactive) = (Color::new(2), Color::new(1));
        let mut state = vec![inactive; n];
        for &s in &seeds {
            state[s.index()] = active;
        }
        let rule = colored_tori::protocols::ThresholdRule::new(active, threshold);
        let mut sim = Simulator::from_topology(&graph, rule, state);
        let config = RunConfig {
            track_times_for: Some(active),
            ..RunConfig::default()
        };
        let report = sim.run(&config);

        let sim_active: Vec<usize> = (0..n)
            .filter(|&v| sim.color_of(NodeId::new(v)) == active)
            .collect();
        let spread_active: Vec<usize> = (0..n)
            .filter(|&v| diffusion.activation_round[v].is_some())
            .collect();
        prop_assert_eq!(&sim_active, &spread_active, "activation sets differ");
        prop_assert_eq!(diffusion.activated_count, sim_active.len());

        let times = report.recoloring_times.expect("tracking was enabled");
        for (v, &t) in times.iter().enumerate() {
            prop_assert_eq!(
                t, diffusion.activation_round[v],
                "activation round differs at vertex {}", v
            );
        }
    }

    /// The per-kind arithmetic CSR build, the generic trait-walk CSR build
    /// and the trait's own neighbour enumeration agree on every torus.
    #[test]
    fn csr_matches_trait_adjacency_on_all_torus_kinds(
        kind in torus_kind(),
        m in 2usize..=10,
        n in 2usize..=10,
    ) {
        let torus = Torus::new(kind, m, n);
        let arithmetic = Adjacency::from_torus(&torus);
        let generic = Adjacency::build(&torus);
        prop_assert_eq!(&arithmetic, &generic, "specialised and generic CSR differ");

        let mut scratch = Vec::with_capacity(4);
        for v in 0..torus.node_count() {
            torus.neighbors_into(NodeId::new(v), &mut scratch);
            let via_trait: Vec<u32> = scratch.iter().map(|u| u.index() as u32).collect();
            prop_assert_eq!(
                arithmetic.neighbors_raw(v), &via_trait[..],
                "CSR row differs from trait walk at vertex {} on {}", v, torus
            );
            prop_assert_eq!(arithmetic.degree_of(v), 4);
        }
        prop_assert_eq!(arithmetic.entry_count(), 4 * torus.node_count());
    }

    /// `Topology::degree` and `edge_count_total` (derived from the
    /// non-allocating walk) agree with the CSR's stored offsets.
    #[test]
    fn degree_defaults_agree_with_csr(kind in torus_kind(), m in 2usize..=8, n in 2usize..=8) {
        let torus = Torus::new(kind, m, n);
        let csr = Adjacency::from_torus(&torus);
        for v in 0..torus.node_count() {
            prop_assert_eq!(torus.degree(NodeId::new(v)), csr.degree_of(v));
        }
        prop_assert_eq!(torus.edge_count_total(), csr.entry_count() / 2);
        prop_assert_eq!(csr.edge_count_total(), csr.entry_count() / 2);
    }
}
