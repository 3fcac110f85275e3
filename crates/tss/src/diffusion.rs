//! Diffusion processes on general graphs.
//!
//! Two processes are provided:
//!
//! * the **linear-threshold activation** process of the TSS literature
//!   (Granovetter \[17\], Kempe–Kleinberg–Tardos \[20\]): a vertex activates
//!   once the number of its active neighbours reaches its threshold and
//!   never deactivates;
//! * the **SMP-Protocol on a general graph**, the paper's future-work
//!   question: vertices carry colours and adopt the colour of a unique
//!   plurality of at least two neighbours.

use ctori_coloring::{Color, Coloring};
use ctori_engine::{EngineOptions, RuleSpec, RunSpec, Runner, SeedSpec, Termination, TopologySpec};
use ctori_protocols::{AnyRule, SmpProtocol};
use ctori_topology::{Adjacency, Graph, NodeId, Topology};

/// Per-vertex activation thresholds.
pub type Thresholds = Vec<usize>;

/// Thresholds equal to the simple majority of each vertex's degree
/// (`⌈d/2⌉`), the rule the paper's tori use.
pub fn simple_majority_thresholds(graph: &Graph) -> Thresholds {
    (0..graph.node_count())
        .map(|v| graph.degree(NodeId::new(v)).div_ceil(2).max(1))
        .collect()
}

/// Thresholds equal to the strong majority of each vertex's degree
/// (`⌈(d+1)/2⌉`).
pub fn strong_majority_thresholds(graph: &Graph) -> Thresholds {
    (0..graph.node_count())
        .map(|v| (graph.degree(NodeId::new(v)) + 1).div_ceil(2).max(1))
        .collect()
}

/// Uniform thresholds.
pub fn uniform_thresholds(graph: &Graph, threshold: usize) -> Thresholds {
    vec![threshold.max(1); graph.node_count()]
}

/// Result of a linear-threshold spread.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpreadResult {
    /// Number of vertices active at the end of the process.
    pub activated_count: usize,
    /// Rounds until the process stopped changing.
    pub rounds: usize,
    /// Whether every vertex ended up active (the seed was a *perfect*
    /// target set).
    pub complete: bool,
    /// Per-vertex activation round (`None` = never activated, `Some(0)` =
    /// seed).
    pub activation_round: Vec<Option<usize>>,
}

/// Runs the linear-threshold process from the given seed set until no
/// vertex changes.
///
/// Convenience wrapper over [`spread_on`] that flattens the graph into the
/// shared CSR kernel first; callers running many spreads on one graph
/// should build the [`Adjacency`] once and call [`spread_on`] directly.
pub fn spread(graph: &Graph, thresholds: &Thresholds, seeds: &[NodeId]) -> SpreadResult {
    spread_on(&Adjacency::build(graph), thresholds, seeds)
}

/// Runs the linear-threshold process on a prebuilt CSR adjacency.
///
/// Counter-based: every vertex counts its active neighbours, and each
/// activation increments its neighbours' counters once.  Counters only
/// grow, so a vertex reaches its threshold exactly once — at that moment
/// it is queued for the next round — and the whole spread costs
/// O(|V| + |E|).  The activation rounds are identical to the synchronous
/// re-scan semantics; vertices with a zero threshold need no active
/// neighbour at all and self-activate in round 1.
pub fn spread_on(adjacency: &Adjacency, thresholds: &Thresholds, seeds: &[NodeId]) -> SpreadResult {
    let n = adjacency.node_count();
    assert_eq!(thresholds.len(), n, "one threshold per vertex");
    let mut activation_round = vec![None; n];
    let mut newly: Vec<usize> = Vec::new();
    for &s in seeds {
        if activation_round[s.index()].is_none() {
            activation_round[s.index()] = Some(0);
            newly.push(s.index());
        }
    }
    let mut ready: Vec<usize> = (0..n)
        .filter(|&v| thresholds[v] == 0 && activation_round[v].is_none())
        .collect();
    let mut active_neighbors = vec![0usize; n];
    let mut activated_count = newly.len();
    let mut rounds = 0usize;
    loop {
        for &v in &newly {
            for &u in adjacency.neighbors_raw(v) {
                let u = u as usize;
                active_neighbors[u] += 1;
                if active_neighbors[u] == thresholds[u] && activation_round[u].is_none() {
                    ready.push(u);
                }
            }
        }
        if ready.is_empty() {
            break;
        }
        rounds += 1;
        for &v in &ready {
            activation_round[v] = Some(rounds);
        }
        activated_count += ready.len();
        std::mem::swap(&mut newly, &mut ready);
        ready.clear();
    }

    SpreadResult {
        activated_count,
        rounds,
        complete: activated_count == n,
        activation_round,
    }
}

/// Whether the seed set is a *perfect target set* (activates everything).
pub fn is_perfect_target_set(graph: &Graph, thresholds: &Thresholds, seeds: &[NodeId]) -> bool {
    spread(graph, thresholds, seeds).complete
}

/// Runs the SMP-Protocol on a general graph from a two-colour initial
/// state: vertices in `seeds` start with colour `k`, everything else with
/// colour assigned round-robin from `other_colors` (pairwise-different
/// colours around a vertex make the protocol behave like threshold-2
/// growth, mirroring the torus constructions).
///
/// Returns `(final k-count, rounds, reached k-monochromatic)`.
///
/// The graph is snapshotted into the spec's edge list and rebuilt by the
/// runner (specs are plain data) — an `O(|E|)` cost per call that is
/// negligible next to the simulation itself; callers needing to amortise
/// it across very many runs should drive a `Simulator` directly.
pub fn smp_on_graph(
    graph: &Graph,
    seeds: &[NodeId],
    k: Color,
    other_colors: &[Color],
) -> (usize, usize, bool) {
    assert!(!other_colors.is_empty(), "need at least one non-k colour");
    let n = graph.node_count();
    let mut state = vec![Color::UNSET; n];
    for &s in seeds {
        state[s.index()] = k;
    }
    let mut idx = 0usize;
    for cell in state.iter_mut() {
        if cell.is_unset() {
            *cell = other_colors[idx % other_colors.len()];
            idx += 1;
        }
    }
    let spec = RunSpec::new(
        TopologySpec::from_graph(graph),
        RuleSpec::from_rule(SmpProtocol),
        SeedSpec::Explicit(Coloring::from_cells(1, n, state)),
    )
    .with_options(EngineOptions::default().with_max_rounds(4 * n + 16));
    let outcome = Runner::new().execute(&spec);
    let reached = outcome.reached_monochromatic(k);
    (outcome.final_count(k), outcome.rounds, reached)
}

/// Runs an arbitrary registry rule on a general graph from an explicit
/// initial colour vector; convenience wrapper used by the experiments.
/// Executes through the declarative [`Runner`] path.
pub fn run_rule_on_graph(
    graph: &Graph,
    rule: impl Into<AnyRule>,
    initial: Vec<Color>,
    max_rounds: usize,
) -> (Vec<Color>, usize, Termination) {
    let n = graph.node_count();
    let spec = RunSpec::new(
        TopologySpec::from_graph(graph),
        RuleSpec::from_rule(rule),
        SeedSpec::Explicit(Coloring::from_cells(1, n, initial)),
    )
    .with_options(EngineOptions::default().with_max_rounds(max_rounds));
    let outcome = Runner::new().execute(&spec);
    (
        outcome.final_coloring.into_cells(),
        outcome.rounds,
        outcome.termination,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{barabasi_albert, ring_lattice};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The synchronous re-scan reference implementation the frontier-based
    /// [`spread_on`] must agree with, round for round.
    fn spread_reference(graph: &Graph, thresholds: &Thresholds, seeds: &[NodeId]) -> SpreadResult {
        let n = graph.node_count();
        let mut active = vec![false; n];
        let mut activation_round = vec![None; n];
        for &s in seeds {
            active[s.index()] = true;
            activation_round[s.index()] = Some(0);
        }
        let mut round = 0usize;
        loop {
            round += 1;
            let mut newly: Vec<usize> = Vec::new();
            for v in 0..n {
                if active[v] {
                    continue;
                }
                let active_nbrs = graph
                    .neighbors_slice(NodeId::new(v))
                    .iter()
                    .filter(|u| active[u.index()])
                    .count();
                if active_nbrs >= thresholds[v] {
                    newly.push(v);
                }
            }
            if newly.is_empty() {
                round -= 1;
                break;
            }
            for v in newly {
                active[v] = true;
                activation_round[v] = Some(round);
            }
        }
        let activated_count = active.iter().filter(|&&a| a).count();
        SpreadResult {
            activated_count,
            rounds: round,
            complete: activated_count == n,
            activation_round,
        }
    }

    #[test]
    fn frontier_spread_matches_rescan_reference() {
        let mut rng = StdRng::seed_from_u64(17);
        for (nodes, m_edges) in [(40usize, 2usize), (120, 3), (250, 4)] {
            let g = barabasi_albert(nodes, m_edges, &mut rng);
            for thresholds in [
                simple_majority_thresholds(&g),
                strong_majority_thresholds(&g),
                uniform_thresholds(&g, 2),
            ] {
                let seeds = crate::selection::highest_degree_seeds(&g, nodes / 8);
                assert_eq!(
                    spread(&g, &thresholds, &seeds),
                    spread_reference(&g, &thresholds, &seeds),
                    "mismatch on {nodes}-vertex graph"
                );
            }
        }
    }

    #[test]
    fn zero_thresholds_self_activate_in_round_one() {
        let g = ring_lattice(6, 1);
        let thresholds = vec![0usize; 6];
        let result = spread(&g, &thresholds, &[]);
        assert!(result.complete);
        assert_eq!(result.rounds, 1);
        assert!(result.activation_round.iter().all(|&r| r == Some(1)));
    }

    #[test]
    fn spread_on_reuses_a_prebuilt_adjacency() {
        let g = ring_lattice(12, 2);
        let adjacency = Adjacency::build(&g);
        let thresholds = simple_majority_thresholds(&g);
        let seeds = [NodeId::new(0), NodeId::new(1)];
        assert_eq!(
            spread_on(&adjacency, &thresholds, &seeds),
            spread(&g, &thresholds, &seeds)
        );
    }

    fn ids(v: &[usize]) -> Vec<NodeId> {
        v.iter().copied().map(NodeId::new).collect()
    }

    #[test]
    fn spread_on_a_path_with_threshold_one() {
        let mut g = Graph::with_nodes(5);
        for i in 0..4 {
            g.add_edge(NodeId::new(i), NodeId::new(i + 1));
        }
        let thresholds = uniform_thresholds(&g, 1);
        let result = spread(&g, &thresholds, &ids(&[0]));
        assert!(result.complete);
        assert_eq!(result.activated_count, 5);
        assert_eq!(result.rounds, 4);
        assert_eq!(result.activation_round[4], Some(4));
        assert_eq!(result.activation_round[0], Some(0));
        assert!(is_perfect_target_set(&g, &thresholds, &ids(&[0])));
    }

    #[test]
    fn spread_stops_when_threshold_is_not_met() {
        let g = ring_lattice(12, 2); // degree 4
        let thresholds = simple_majority_thresholds(&g); // threshold 2
                                                         // A single seed can never activate anyone (its neighbours see one
                                                         // active vertex but need two).
        let result = spread(&g, &thresholds, &ids(&[0]));
        assert_eq!(result.activated_count, 1);
        assert_eq!(result.rounds, 0);
        assert!(!result.complete);
        // Two adjacent seeds activate their common neighbours and sweep the
        // ring.
        let result = spread(&g, &thresholds, &ids(&[0, 1]));
        assert!(result.complete, "two adjacent seeds sweep a degree-4 ring");
    }

    #[test]
    fn strong_thresholds_are_harder_than_simple() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = barabasi_albert(150, 3, &mut rng);
        let seeds = crate::selection::highest_degree_seeds(&g, 15);
        let simple = spread(&g, &simple_majority_thresholds(&g), &seeds);
        let strong = spread(&g, &strong_majority_thresholds(&g), &seeds);
        assert!(simple.activated_count >= strong.activated_count);
    }

    #[test]
    fn empty_seed_activates_nothing() {
        let g = ring_lattice(10, 1);
        let result = spread(&g, &uniform_thresholds(&g, 1), &[]);
        assert_eq!(result.activated_count, 0);
        assert!(!result.complete);
        assert!(result.activation_round.iter().all(|r| r.is_none()));
    }

    #[test]
    fn smp_on_graph_spreads_from_a_dense_seed() {
        // On a degree-4 ring, two adjacent k vertices give each neighbour
        // two k-coloured neighbours, and with pairwise-distinct other
        // colours the plurality rule fires just like threshold-2 growth.
        let g = ring_lattice(12, 2);
        let others: Vec<Color> = (2..14).map(Color::new).collect();
        let (count, rounds, reached) = smp_on_graph(&g, &ids(&[0, 1]), Color::new(1), &others);
        assert!(reached, "the ring should become k-monochromatic");
        assert_eq!(count, 12);
        assert!(rounds >= 1);
    }

    #[test]
    fn run_rule_on_graph_reports_termination() {
        let g = ring_lattice(8, 1);
        let initial = vec![Color::new(1); 8];
        let (state, rounds, termination) = run_rule_on_graph(&g, SmpProtocol, initial, 100);
        assert_eq!(rounds, 0);
        assert!(matches!(termination, Termination::Monochromatic(_)));
        assert!(state.iter().all(|&c| c == Color::new(1)));
    }

    #[test]
    #[should_panic(expected = "one threshold per vertex")]
    fn threshold_length_is_checked() {
        let g = ring_lattice(8, 1);
        let _ = spread(&g, &vec![1; 3], &[]);
    }
}
