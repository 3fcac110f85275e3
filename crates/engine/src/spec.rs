//! Declarative run specifications.
//!
//! A [`RunSpec`] is a **plain-data description of a complete scenario**:
//! which topology to build ([`TopologySpec`]), which local rule to apply
//! ([`RuleSpec`], resolved by name through the
//! [`ctori_protocols::registry`]), how to colour the initial configuration
//! ([`SeedSpec`]), and which engine policies to use ([`EngineOptions`]).
//! Nothing in a spec borrows a topology or a simulator — specs can be
//! stored, compared, cloned across threads, rendered to text with
//! [`RunSpec::to_text`] and parsed back with [`RunSpec::from_text`], which
//! is what makes them schedulable by the batch layer
//! ([`crate::runner::Runner::sweep`]) and servable over the wire by the
//! `ctori-service` front-end, whose result cache is addressed by
//! [`RunSpec::canonical_key`].
//!
//! The text form is line-oriented (`key: value`), human-diffable, and uses
//! the same glyph grids as [`ctori_coloring::textio`] for explicit
//! configurations — deliberately not a serialization framework, matching
//! the repository's offline vendoring policy.
//!
//! ```
//! use ctori_engine::{RunSpec, RuleSpec, SeedSpec, TopologySpec};
//! use ctori_coloring::Color;
//!
//! let spec = RunSpec::new(
//!     TopologySpec::toroidal_mesh(6, 6),
//!     RuleSpec::parse("smp").unwrap(),
//!     SeedSpec::checkerboard(Color::new(1), Color::new(2)),
//! );
//! let text = spec.to_text();
//! assert_eq!(RunSpec::from_text(&text).unwrap(), spec);
//! ```

use ctori_coloring::{textio, Color, Coloring, Palette};
use ctori_protocols::registry;
use ctori_protocols::{AnyRule, RuleParseError};
use ctori_topology::{generators, Graph, NodeId, Torus, TorusKind};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::simulator::RunConfig;

/// Errors produced when parsing a [`RunSpec`] (or one of its components)
/// from text.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum SpecParseError {
    /// A required `key: value` line was missing.
    MissingField(&'static str),
    /// A line was not of the `key: value` form, or used an unknown key.
    UnexpectedLine {
        /// 1-based line number in the input.
        line: usize,
        /// The offending text.
        text: String,
    },
    /// The `topology:` value was malformed.
    BadTopology {
        /// What was wrong with it.
        detail: String,
    },
    /// The `seed:` value was malformed.
    BadSeed {
        /// What was wrong with it.
        detail: String,
    },
    /// The `options:` value was malformed.
    BadOptions {
        /// What was wrong with it.
        detail: String,
    },
    /// The `rule:` value did not resolve through the registry.
    BadRule(RuleParseError),
    /// An explicit seed grid failed to parse.
    BadColoring(textio::ParseError),
}

impl std::fmt::Display for SpecParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecParseError::MissingField(key) => write!(f, "missing `{key}:` line"),
            SpecParseError::UnexpectedLine { line, text } => {
                write!(f, "line {line}: expected `key: value`, got {text:?}")
            }
            SpecParseError::BadTopology { detail } => write!(f, "bad topology: {detail}"),
            SpecParseError::BadSeed { detail } => write!(f, "bad seed: {detail}"),
            SpecParseError::BadOptions { detail } => write!(f, "bad options: {detail}"),
            SpecParseError::BadRule(e) => write!(f, "bad rule: {e}"),
            SpecParseError::BadColoring(e) => write!(f, "bad explicit seed grid: {e}"),
        }
    }
}

impl std::error::Error for SpecParseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SpecParseError::BadRule(e) => Some(e),
            SpecParseError::BadColoring(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RuleParseError> for SpecParseError {
    fn from(e: RuleParseError) -> Self {
        SpecParseError::BadRule(e)
    }
}

impl From<textio::ParseError> for SpecParseError {
    fn from(e: textio::ParseError) -> Self {
        SpecParseError::BadColoring(e)
    }
}

fn bad_topology(detail: impl Into<String>) -> SpecParseError {
    SpecParseError::BadTopology {
        detail: detail.into(),
    }
}

fn bad_seed(detail: impl Into<String>) -> SpecParseError {
    SpecParseError::BadSeed {
        detail: detail.into(),
    }
}

fn bad_options(detail: impl Into<String>) -> SpecParseError {
    SpecParseError::BadOptions {
        detail: detail.into(),
    }
}

/// Parses `key=value` out of a token, checking the key.
fn keyed<'a>(token: &'a str, key: &str, err: &'static str) -> Result<&'a str, SpecParseError> {
    let make = |detail: String| match err {
        "topology" => bad_topology(detail),
        "seed" => bad_seed(detail),
        _ => bad_options(detail),
    };
    match token.split_once('=') {
        Some((k, v)) if k == key => Ok(v),
        _ => Err(make(format!("expected `{key}=...`, got {token:?}"))),
    }
}

fn parse_color(raw: &str, section: &'static str) -> Result<Color, SpecParseError> {
    let make = |detail: String| match section {
        "seed" => bad_seed(detail),
        _ => bad_options(detail),
    };
    let index: u16 = raw
        .parse()
        .map_err(|_| make(format!("{raw:?} is not a colour index")))?;
    if index == 0 {
        return Err(make("colour indices are 1-based".into()));
    }
    // A seed colour reaches the outcome's glyph grid, which must parse
    // back; option colours only name a colour to track.
    if section == "seed" && index > textio::MAX_GLYPH_COLOR {
        return Err(make(format!(
            "colour {index} has no glyph: grids name colours 1-9a-z, at most {}",
            textio::MAX_GLYPH_COLOR
        )));
    }
    Ok(Color::new(index))
}

// ---------------------------------------------------------------------------
// TopologySpec
// ---------------------------------------------------------------------------

/// A plain-data description of an interaction topology.
///
/// Unifies the paper's three torus kinds with the general-graph substrate
/// of `ctori-tss`: random-model variants name the generators of
/// [`ctori_topology::generators`] plus the RNG seed that makes them
/// reproducible, and [`TopologySpec::Graph`] carries an explicit edge list.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum TopologySpec {
    /// An `m × n` torus of one of the paper's three kinds.
    Torus {
        /// Which wrap-around variant.
        kind: TorusKind,
        /// Number of rows `m`.
        rows: usize,
        /// Number of columns `n`.
        cols: usize,
    },
    /// An explicit general graph (dense vertex ids, undirected edge list).
    Graph {
        /// Number of vertices.
        nodes: usize,
        /// Undirected edges as `(u, v)` index pairs.
        edges: Vec<(u32, u32)>,
    },
    /// A ring lattice: `nodes` vertices on a cycle, each connected to its
    /// nearest `neighbors_per_side` vertices on each side.
    RingLattice {
        /// Number of vertices.
        nodes: usize,
        /// Neighbours on each side (degree = 2 × this).
        neighbors_per_side: usize,
    },
    /// A Barabási–Albert preferential-attachment graph.
    BarabasiAlbert {
        /// Number of vertices.
        nodes: usize,
        /// Edges attached per new vertex.
        edges_per_vertex: usize,
        /// RNG seed making the graph reproducible.
        rng_seed: u64,
    },
    /// An Erdős–Rényi `G(n, p)` graph.
    ErdosRenyi {
        /// Number of vertices.
        nodes: usize,
        /// Independent edge probability.
        edge_probability: f64,
        /// RNG seed making the graph reproducible.
        rng_seed: u64,
    },
}

/// A topology materialised from a [`TopologySpec`].
#[derive(Clone, Debug)]
#[non_exhaustive]
pub enum BuiltTopology {
    /// A torus (grid-shaped reporting: `rows × cols`).
    Torus(Torus),
    /// A general graph (flat reporting: `1 × n`).
    Graph(Graph),
}

impl BuiltTopology {
    /// Number of vertices.
    pub fn node_count(&self) -> usize {
        match self {
            BuiltTopology::Torus(t) => t.rows() * t.cols(),
            BuiltTopology::Graph(g) => ctori_topology::Topology::node_count(g),
        }
    }

    /// The grid shape configurations are reported in (`1 × n` for graphs).
    pub fn grid_dims(&self) -> (usize, usize) {
        match self {
            BuiltTopology::Torus(t) => (t.rows(), t.cols()),
            BuiltTopology::Graph(g) => (1, ctori_topology::Topology::node_count(g)),
        }
    }
}

impl TopologySpec {
    /// An `m × n` toroidal mesh.
    pub fn toroidal_mesh(rows: usize, cols: usize) -> Self {
        TopologySpec::Torus {
            kind: TorusKind::ToroidalMesh,
            rows,
            cols,
        }
    }

    /// An `m × n` torus cordalis.
    pub fn torus_cordalis(rows: usize, cols: usize) -> Self {
        TopologySpec::Torus {
            kind: TorusKind::TorusCordalis,
            rows,
            cols,
        }
    }

    /// An `m × n` torus serpentinus.
    pub fn torus_serpentinus(rows: usize, cols: usize) -> Self {
        TopologySpec::Torus {
            kind: TorusKind::TorusSerpentinus,
            rows,
            cols,
        }
    }

    /// An `m × n` torus of the given kind.
    pub fn torus(kind: TorusKind, rows: usize, cols: usize) -> Self {
        TopologySpec::Torus { kind, rows, cols }
    }

    /// Snapshot of an existing general graph as an explicit edge list.
    pub fn from_graph(graph: &Graph) -> Self {
        TopologySpec::Graph {
            nodes: ctori_topology::Topology::node_count(graph),
            edges: graph
                .edges()
                .map(|(u, v)| (u.index() as u32, v.index() as u32))
                .collect(),
        }
    }

    /// Number of vertices the built topology will have.
    pub fn node_count(&self) -> usize {
        match self {
            TopologySpec::Torus { rows, cols, .. } => rows * cols,
            TopologySpec::Graph { nodes, .. }
            | TopologySpec::RingLattice { nodes, .. }
            | TopologySpec::BarabasiAlbert { nodes, .. }
            | TopologySpec::ErdosRenyi { nodes, .. } => *nodes,
        }
    }

    /// The grid shape configurations are reported in (`1 × n` for graphs).
    pub fn grid_dims(&self) -> (usize, usize) {
        match self {
            TopologySpec::Torus { rows, cols, .. } => (*rows, *cols),
            _ => (1, self.node_count()),
        }
    }

    /// Materialises the topology.
    ///
    /// # Panics
    ///
    /// Panics when the parameters are structurally invalid (torus smaller
    /// than 2×2, edge endpoint out of range, generator preconditions) —
    /// the same contracts as the underlying constructors.
    pub fn build(&self) -> BuiltTopology {
        match self {
            TopologySpec::Torus { kind, rows, cols } => {
                BuiltTopology::Torus(Torus::new(*kind, *rows, *cols))
            }
            TopologySpec::Graph { nodes, edges } => {
                let mut g = Graph::with_nodes(*nodes);
                for &(u, v) in edges {
                    g.add_edge(NodeId::new(u as usize), NodeId::new(v as usize));
                }
                BuiltTopology::Graph(g)
            }
            TopologySpec::RingLattice {
                nodes,
                neighbors_per_side,
            } => BuiltTopology::Graph(generators::ring_lattice(*nodes, *neighbors_per_side)),
            TopologySpec::BarabasiAlbert {
                nodes,
                edges_per_vertex,
                rng_seed,
            } => {
                let mut rng = StdRng::seed_from_u64(*rng_seed);
                BuiltTopology::Graph(generators::barabasi_albert(
                    *nodes,
                    *edges_per_vertex,
                    &mut rng,
                ))
            }
            TopologySpec::ErdosRenyi {
                nodes,
                edge_probability,
                rng_seed,
            } => {
                let mut rng = StdRng::seed_from_u64(*rng_seed);
                BuiltTopology::Graph(generators::erdos_renyi(*nodes, *edge_probability, &mut rng))
            }
        }
    }

    /// Renders the single-line text form, e.g. `toroidal-mesh 9x9`.
    pub fn to_text(&self) -> String {
        match self {
            TopologySpec::Torus { kind, rows, cols } => {
                let name = match kind {
                    TorusKind::ToroidalMesh => "toroidal-mesh",
                    TorusKind::TorusCordalis => "torus-cordalis",
                    TorusKind::TorusSerpentinus => "torus-serpentinus",
                    other => panic!("no text form for torus kind {other:?}"),
                };
                format!("{name} {rows}x{cols}")
            }
            TopologySpec::Graph { nodes, edges } => {
                let mut out = format!("graph {nodes}");
                for (u, v) in edges {
                    out.push_str(&format!(" {u}-{v}"));
                }
                out
            }
            TopologySpec::RingLattice {
                nodes,
                neighbors_per_side,
            } => format!("ring-lattice {nodes} {neighbors_per_side}"),
            TopologySpec::BarabasiAlbert {
                nodes,
                edges_per_vertex,
                rng_seed,
            } => format!("barabasi-albert {nodes} {edges_per_vertex} rng={rng_seed}"),
            TopologySpec::ErdosRenyi {
                nodes,
                edge_probability,
                rng_seed,
            } => format!("erdos-renyi {nodes} {edge_probability} rng={rng_seed}"),
        }
    }

    /// Parses the single-line text form produced by
    /// [`TopologySpec::to_text`].
    pub fn parse(text: &str) -> Result<Self, SpecParseError> {
        let tokens: Vec<&str> = text.split_whitespace().collect();
        let usize_at = |i: usize, what: &str| -> Result<usize, SpecParseError> {
            tokens
                .get(i)
                .ok_or_else(|| bad_topology(format!("missing {what}")))?
                .parse()
                .map_err(|_| bad_topology(format!("{:?} is not a valid {what}", tokens[i])))
        };
        match tokens.first() {
            Some(&name @ ("toroidal-mesh" | "torus-cordalis" | "torus-serpentinus")) => {
                let kind = match name {
                    "toroidal-mesh" => TorusKind::ToroidalMesh,
                    "torus-cordalis" => TorusKind::TorusCordalis,
                    _ => TorusKind::TorusSerpentinus,
                };
                let dims = tokens
                    .get(1)
                    .ok_or_else(|| bad_topology("missing RxC dimensions"))?;
                let (r, c) = dims
                    .split_once('x')
                    .ok_or_else(|| bad_topology(format!("{dims:?} is not of the form RxC")))?;
                let rows = r
                    .parse()
                    .map_err(|_| bad_topology(format!("{r:?} is not a row count")))?;
                let cols = c
                    .parse()
                    .map_err(|_| bad_topology(format!("{c:?} is not a column count")))?;
                Ok(TopologySpec::Torus { kind, rows, cols })
            }
            Some(&"graph") => {
                let nodes = usize_at(1, "vertex count")?;
                let mut edges = Vec::with_capacity(tokens.len().saturating_sub(2));
                for token in &tokens[2..] {
                    let (u, v) = token
                        .split_once('-')
                        .ok_or_else(|| bad_topology(format!("{token:?} is not an edge u-v")))?;
                    let parse_endpoint = |raw: &str| -> Result<u32, SpecParseError> {
                        raw.parse()
                            .map_err(|_| bad_topology(format!("{raw:?} is not a vertex id")))
                    };
                    edges.push((parse_endpoint(u)?, parse_endpoint(v)?));
                }
                Ok(TopologySpec::Graph { nodes, edges })
            }
            Some(&"ring-lattice") => Ok(TopologySpec::RingLattice {
                nodes: usize_at(1, "vertex count")?,
                neighbors_per_side: usize_at(2, "neighbours-per-side")?,
            }),
            Some(&"barabasi-albert") => Ok(TopologySpec::BarabasiAlbert {
                nodes: usize_at(1, "vertex count")?,
                edges_per_vertex: usize_at(2, "edges-per-vertex")?,
                rng_seed: parse_rng_seed(tokens.get(3), "topology")?,
            }),
            Some(&"erdos-renyi") => {
                let probability: f64 = tokens
                    .get(2)
                    .ok_or_else(|| bad_topology("missing edge probability"))?
                    .parse()
                    .map_err(|_| bad_topology("edge probability is not a number"))?;
                if !(0.0..=1.0).contains(&probability) {
                    return Err(bad_topology("edge probability must be within [0, 1]"));
                }
                Ok(TopologySpec::ErdosRenyi {
                    nodes: usize_at(1, "vertex count")?,
                    edge_probability: probability,
                    rng_seed: parse_rng_seed(tokens.get(3), "topology")?,
                })
            }
            Some(other) => Err(bad_topology(format!("unknown topology {other:?}"))),
            None => Err(bad_topology("empty topology")),
        }
    }
}

fn parse_rng_seed(token: Option<&&str>, section: &'static str) -> Result<u64, SpecParseError> {
    let token = token.ok_or_else(|| match section {
        "seed" => bad_seed("missing rng=SEED"),
        _ => bad_topology("missing rng=SEED"),
    })?;
    let raw = keyed(token, "rng", section)?;
    raw.parse().map_err(|_| match section {
        "seed" => bad_seed(format!("{raw:?} is not an RNG seed")),
        _ => bad_topology(format!("{raw:?} is not an RNG seed")),
    })
}

// ---------------------------------------------------------------------------
// RuleSpec
// ---------------------------------------------------------------------------

/// A plain-data description of the local rule a scenario runs.
///
/// Internally stores the resolved [`AnyRule`]; the canonical **name** (the
/// string [`ctori_protocols::registry::parse`] accepts) is derived on
/// demand, so resolving a validated spec can never fail.
#[derive(Clone, Debug, PartialEq)]
pub struct RuleSpec {
    rule: AnyRule,
}

impl RuleSpec {
    /// Resolves a registry rule string (e.g. `"smp"`, `"threshold(2,2)"`).
    pub fn parse(text: &str) -> Result<Self, SpecParseError> {
        Ok(RuleSpec {
            rule: registry::parse(text)?,
        })
    }

    /// Wraps a concrete rule value.
    pub fn from_rule(rule: impl Into<AnyRule>) -> Self {
        RuleSpec { rule: rule.into() }
    }

    /// The canonical registry name (round-trips through
    /// [`RuleSpec::parse`]).
    pub fn name(&self) -> String {
        registry::canonical_name(&self.rule)
    }

    /// The resolved rule.
    pub fn resolve(&self) -> AnyRule {
        self.rule.clone()
    }
}

impl From<AnyRule> for RuleSpec {
    fn from(rule: AnyRule) -> Self {
        RuleSpec { rule }
    }
}

/// `text.lines()` with each line's index and the text after its line
/// ending, so a parser can hand everything below a header line (a glyph
/// grid) to its decoder as one slice.
pub(crate) fn lines_with_rest(text: &str) -> impl Iterator<Item = (usize, &str, &str)> {
    let mut end = 0;
    text.split_inclusive('\n')
        .enumerate()
        .map(move |(idx, raw)| {
            end += raw.len();
            // The line endings `str::lines` strips: `\n`, or `\r\n`.
            let line = raw
                .strip_suffix('\n')
                .map_or(raw, |l| l.strip_suffix('\r').unwrap_or(l));
            (idx, line, &text[end..])
        })
}

// ---------------------------------------------------------------------------
// SeedSpec
// ---------------------------------------------------------------------------

/// A plain-data description of the initial configuration.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum SeedSpec {
    /// A complete explicit configuration (text form: the
    /// [`ctori_coloring::textio`] glyph grid).
    Explicit(Coloring),
    /// An explicit seed-vertex list: the listed vertices get `color`,
    /// every other vertex gets `background`.
    Nodes {
        /// The seed colour.
        color: Color,
        /// The colour of every unlisted vertex.
        background: Color,
        /// Dense vertex indices of the seed set.
        nodes: Vec<u32>,
    },
    /// A deterministic whole-grid pattern.
    Pattern(PatternSpec),
    /// A random configuration: `round(fraction · n)` vertices get `color`,
    /// the rest are uniform over the other `palette` colours, driven by a
    /// reproducible RNG seed.
    ///
    /// The order of the draws from `StdRng::seed_from_u64(rng_seed)` is
    /// the reproducibility contract that stored specs and cached outcomes
    /// rely on.  The stream is a Fisher–Yates shuffle of the vertex list
    /// `0..n` (swap targets `gen_range(0..=i)` for `i = n−1` down to 1),
    /// then one `choose` among the other colours for each rank from
    /// `round(fraction · n)` up, in rank order; rank `r` colours the
    /// `r`-th vertex of the shuffled list, and lower ranks get `color`.
    /// [`SeedSpec::materialize`] replays that stream without a
    /// permutation array; any faster sampler must keep every cell.
    Density {
        /// The seed colour.
        color: Color,
        /// Palette size (colours `1..=palette`; must contain `color`).
        palette: u16,
        /// Fraction of vertices seeded with `color`, in `[0, 1]`.
        fraction: f64,
        /// RNG seed making the configuration reproducible.
        rng_seed: u64,
    },
}

/// The deterministic patterns a [`SeedSpec::Pattern`] can name (the same
/// constructions as [`ctori_coloring::patterns`], described as data).
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum PatternSpec {
    /// Every vertex the same colour.
    Uniform(Color),
    /// Checkerboard of two colours (by `(row + col)` parity).
    Checkerboard(Color, Color),
    /// Row `i` gets `colors[i mod colors.len()]`.
    RowStripes(Vec<Color>),
    /// Column `j` gets `colors[j mod colors.len()]`.
    ColumnStripes(Vec<Color>),
}

impl SeedSpec {
    /// Convenience constructor for a uniform configuration.
    pub fn uniform(color: Color) -> Self {
        SeedSpec::Pattern(PatternSpec::Uniform(color))
    }

    /// Convenience constructor for a checkerboard.
    pub fn checkerboard(even: Color, odd: Color) -> Self {
        SeedSpec::Pattern(PatternSpec::Checkerboard(even, odd))
    }

    /// Convenience constructor for an explicit seed-vertex list.
    pub fn nodes(color: Color, background: Color, nodes: impl IntoIterator<Item = usize>) -> Self {
        SeedSpec::Nodes {
            color,
            background,
            nodes: nodes.into_iter().map(|v| v as u32).collect(),
        }
    }

    /// Materialises the configuration on an `rows × cols` grid.
    ///
    /// # Panics
    ///
    /// Panics when the spec cannot colour that grid: explicit dimensions
    /// that do not match, a seed-vertex index out of range, a fraction
    /// outside `[0, 1]`, a density palette too small to colour the
    /// non-seed remainder, or a density seed on more than `u32::MAX`
    /// vertices.
    pub fn materialize(&self, rows: usize, cols: usize) -> Coloring {
        let total = rows * cols;
        match self {
            SeedSpec::Explicit(coloring) => {
                assert_eq!(
                    (coloring.rows(), coloring.cols()),
                    (rows, cols),
                    "explicit seed dimensions do not match the topology"
                );
                coloring.clone()
            }
            SeedSpec::Nodes {
                color,
                background,
                nodes,
            } => {
                let mut cells = vec![*background; total];
                for &v in nodes {
                    assert!(
                        (v as usize) < total,
                        "seed vertex {v} out of range for {total} vertices"
                    );
                    cells[v as usize] = *color;
                }
                Coloring::from_cells(rows, cols, cells)
            }
            SeedSpec::Pattern(pattern) => pattern.materialize(rows, cols),
            SeedSpec::Density {
                color,
                palette,
                fraction,
                rng_seed,
            } => {
                assert!(
                    (0.0..=1.0).contains(fraction),
                    "seed fraction must be within [0, 1]"
                );
                let seed_count = (total as f64 * fraction).round() as usize;
                let others: Vec<Color> = Palette::new(*palette).colors_except(*color).collect();
                assert!(
                    !others.is_empty() || seed_count == total,
                    "density seeds need a palette with at least one non-seed colour"
                );
                let vertices = u32::try_from(total).expect("grids index vertices with u32");
                let mut rng = StdRng::seed_from_u64(*rng_seed);
                // The stream's shuffle swaps i with j_i for i = N−1 down
                // to 1, so the shuffled list is π = τ_{N−1}∘…∘τ_1 and rank
                // r colours vertex π(r): the cells are c∘π⁻¹ =
                // c∘τ_1∘…∘τ_{N−1}, the rank-order colours c swapped for i
                // ascending.  A swap below `seed_count` exchanges two seed
                // colours, so its target is drawn and dropped.
                let low = seed_count.max(1);
                let mut targets = vec![0u32; total.saturating_sub(low)];
                for (target, i) in targets.iter_mut().zip(low as u32..vertices).rev() {
                    *target = rng.gen_range(0..=i);
                }
                let mut cells = vec![*color; seed_count];
                cells.reserve_exact(total - seed_count);
                if let [only] = others[..] {
                    // Every non-seed rank gets the one other colour, so
                    // nothing after the stored targets is ever read: the
                    // dropped targets and the picks are not drawn at all.
                    cells.resize(total, only);
                } else if seed_count < total {
                    for i in (1..low as u32).rev() {
                        rng.gen_range(0..=i);
                    }
                    cells.extend(
                        (seed_count..total).map(|_| *others.choose(&mut rng).expect("non-empty")),
                    );
                }
                for (i, &j) in (low..total).zip(&targets) {
                    cells.swap(i, j as usize);
                }
                Coloring::from_cells(rows, cols, cells)
            }
        }
    }

    /// Renders the `seed:` value.  [`SeedSpec::Explicit`] renders as the
    /// word `explicit` followed by the glyph grid on subsequent lines (and
    /// must therefore be the last field of a [`RunSpec`] text form).
    pub fn to_text(&self) -> String {
        match self {
            SeedSpec::Explicit(coloring) => {
                format!("explicit\n{}", textio::to_text(coloring))
            }
            SeedSpec::Nodes {
                color,
                background,
                nodes,
            } => {
                let mut out = format!(
                    "nodes color={} background={} at",
                    color.index(),
                    background.index()
                );
                for v in nodes {
                    out.push_str(&format!(" {v}"));
                }
                out
            }
            SeedSpec::Pattern(p) => p.to_text(),
            SeedSpec::Density {
                color,
                palette,
                fraction,
                rng_seed,
            } => format!(
                "density color={} palette={palette} fraction={fraction} rng={rng_seed}",
                color.index()
            ),
        }
    }

    /// Parses the `seed:` value; `grid` holds the lines following a
    /// `seed: explicit` header.
    fn parse(value: &str, grid: &str) -> Result<Self, SpecParseError> {
        let tokens: Vec<&str> = value.split_whitespace().collect();
        match tokens.first() {
            Some(&"explicit") => Ok(SeedSpec::Explicit(textio::from_text(grid)?)),
            Some(&"nodes") => {
                let color = parse_color(
                    keyed(tokens.get(1).copied().unwrap_or(""), "color", "seed")?,
                    "seed",
                )?;
                let background = parse_color(
                    keyed(tokens.get(2).copied().unwrap_or(""), "background", "seed")?,
                    "seed",
                )?;
                if tokens.get(3) != Some(&"at") {
                    return Err(bad_seed("expected `at` before the vertex list"));
                }
                let mut nodes = Vec::with_capacity(tokens.len().saturating_sub(4));
                for raw in &tokens[4..] {
                    nodes.push(
                        raw.parse()
                            .map_err(|_| bad_seed(format!("{raw:?} is not a vertex id")))?,
                    );
                }
                Ok(SeedSpec::Nodes {
                    color,
                    background,
                    nodes,
                })
            }
            Some(&"density") => {
                let color = parse_color(
                    keyed(tokens.get(1).copied().unwrap_or(""), "color", "seed")?,
                    "seed",
                )?;
                let palette: u16 = keyed(tokens.get(2).copied().unwrap_or(""), "palette", "seed")?
                    .parse()
                    .map_err(|_| bad_seed("palette size is not a number"))?;
                let fraction: f64 =
                    keyed(tokens.get(3).copied().unwrap_or(""), "fraction", "seed")?
                        .parse()
                        .map_err(|_| bad_seed("fraction is not a number"))?;
                if !(0.0..=1.0).contains(&fraction) {
                    return Err(bad_seed("fraction must be within [0, 1]"));
                }
                if palette == 0 {
                    return Err(bad_seed("palette must have at least one colour"));
                }
                if palette > textio::MAX_GLYPH_COLOR {
                    return Err(bad_seed(format!(
                        "palette {palette} has colours without a glyph: grids name colours \
                         1-9a-z, at most {}",
                        textio::MAX_GLYPH_COLOR
                    )));
                }
                let rng_seed = parse_rng_seed(tokens.get(4), "seed")?;
                Ok(SeedSpec::Density {
                    color,
                    palette,
                    fraction,
                    rng_seed,
                })
            }
            Some(_) => Ok(SeedSpec::Pattern(PatternSpec::parse(&tokens)?)),
            None => Err(bad_seed("empty seed")),
        }
    }
}

impl PatternSpec {
    fn materialize(&self, rows: usize, cols: usize) -> Coloring {
        let at = |f: &dyn Fn(usize, usize) -> Color| {
            let mut cells = Vec::with_capacity(rows * cols);
            for r in 0..rows {
                for c in 0..cols {
                    cells.push(f(r, c));
                }
            }
            Coloring::from_cells(rows, cols, cells)
        };
        match self {
            PatternSpec::Uniform(k) => at(&|_, _| *k),
            PatternSpec::Checkerboard(even, odd) => at(&|r, c| {
                if (r + c) % 2 == 0 {
                    *even
                } else {
                    *odd
                }
            }),
            PatternSpec::RowStripes(colors) => {
                assert!(!colors.is_empty(), "need at least one stripe colour");
                at(&|r, _| colors[r % colors.len()])
            }
            PatternSpec::ColumnStripes(colors) => {
                assert!(!colors.is_empty(), "need at least one stripe colour");
                at(&|_, c| colors[c % colors.len()])
            }
        }
    }

    fn to_text(&self) -> String {
        let with_colors = |name: &str, colors: &[Color]| {
            let mut out = name.to_string();
            for c in colors {
                out.push_str(&format!(" {}", c.index()));
            }
            out
        };
        match self {
            PatternSpec::Uniform(k) => format!("uniform {}", k.index()),
            PatternSpec::Checkerboard(a, b) => format!("checkerboard {} {}", a.index(), b.index()),
            PatternSpec::RowStripes(colors) => with_colors("row-stripes", colors),
            PatternSpec::ColumnStripes(colors) => with_colors("column-stripes", colors),
        }
    }

    fn parse(tokens: &[&str]) -> Result<Self, SpecParseError> {
        let colors = |from: usize| -> Result<Vec<Color>, SpecParseError> {
            if tokens.len() <= from {
                return Err(bad_seed("need at least one stripe colour"));
            }
            tokens[from..]
                .iter()
                .map(|raw| parse_color(raw, "seed"))
                .collect()
        };
        match tokens.first() {
            Some(&"uniform") => {
                let cs = colors(1)?;
                if cs.len() != 1 {
                    return Err(bad_seed("uniform takes exactly one colour"));
                }
                Ok(PatternSpec::Uniform(cs[0]))
            }
            Some(&"checkerboard") => {
                let cs = colors(1)?;
                if cs.len() != 2 {
                    return Err(bad_seed("checkerboard takes exactly two colours"));
                }
                Ok(PatternSpec::Checkerboard(cs[0], cs[1]))
            }
            Some(&"row-stripes") => Ok(PatternSpec::RowStripes(colors(1)?)),
            Some(&"column-stripes") => Ok(PatternSpec::ColumnStripes(colors(1)?)),
            Some(other) => Err(bad_seed(format!("unknown seed form {other:?}"))),
            None => Err(bad_seed("empty seed")),
        }
    }
}

// ---------------------------------------------------------------------------
// EngineOptions
// ---------------------------------------------------------------------------

/// Which simulation lane drives a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum LaneSpec {
    /// Let the engine choose: the bit-plane lane when eligible (a
    /// degree-4 torus of at least two rows, at most 16 colours and a rule
    /// with a [`ctori_protocols::ColorCountRule`] form), the generic
    /// frontier otherwise.
    Auto,
    /// Force the generic colour-vector frontier (used by lane-equivalence
    /// experiments and benchmarks).
    GenericFrontier,
    /// Force the exhaustive full sweep on the generic backend (the
    /// reference stepper of the lane-equivalence tests and baselines).
    FullSweep,
    /// Force the bit-plane lane (word-parallel popcount kernel over
    /// `⌈log₂ k⌉` planes), also on tori the automatic choice skips.
    /// Falls back to the current backend when the run is ineligible (more
    /// than 16 colours, or a rule without a
    /// [`ctori_protocols::ColorCountRule`] form the lane covers).
    Planes,
}

/// Engine **policy** for a run — everything that used to be spread between
/// `Simulator` builder toggles and [`RunConfig`]: lane forcing, cycle
/// detection, the round limit, and the per-colour tracking switches.
///
/// `Simulator` keeps only mechanism; a spec carries the policy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EngineOptions {
    /// Which simulation lane to use.
    pub lane: LaneSpec,
    /// Whether to detect limit cycles (verified, never trusting a bare
    /// hash match).
    pub detect_cycles: bool,
    /// Hard cap on the number of rounds; `0` means automatic
    /// (`4·|V| + 16`).
    pub max_rounds: usize,
    /// Thread budget for this scenario (`0` = automatic:
    /// [`crate::sweep::default_threads`]).  Precedence, outermost first:
    ///
    /// 1. A batch sweep ([`crate::runner::Runner::sweep`]) spends the
    ///    budget on whole runs and steps each run sequentially — outer
    ///    parallelism wins.
    /// 2. A single [`crate::runner::Runner::execute`] spends an explicit
    ///    `threads=N` *inside* the run as band-parallel stepping
    ///    ([`crate::parallel`]), clamped to the runner's own budget;
    ///    `auto` steps on one thread at every size, because a fresh pair
    ///    of band workers per round lost to one thread on the benchmark's
    ///    1024² and 2048² grids.
    /// 3. The worker pool ([`crate::exec::LocalExecutor`] and the
    ///    simulation service) charges a job stepping with `T` threads as
    ///    `T` pool slots (clamped to idle capacity) and resolves `auto`
    ///    *pool-aware* — to `1`, because the pool is already saturated
    ///    with whole jobs.
    ///
    /// Stepping is bit-identical at every thread count, so this knob
    /// never affects an outcome and is excluded from
    /// [`RunSpec::canonical_key`].
    pub threads: usize,
    /// Sampling stride of the execution API's progress events: every
    /// `progress_every`-th round is published as a
    /// [`crate::exec::RunEvent::Progress`] while the run is in flight
    /// (`0` = automatic: every round).  Pure observability — it cannot
    /// affect an outcome — so it is excluded from
    /// [`RunSpec::canonical_key`] like [`EngineOptions::threads`].
    pub progress_every: usize,
    /// Record per-vertex adoption times of this colour.
    pub track_times_for: Option<Color>,
    /// Verify monotonicity with respect to this colour.
    pub check_monotone_for: Option<Color>,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            lane: LaneSpec::Auto,
            detect_cycles: true,
            max_rounds: 0,
            threads: 0,
            progress_every: 0,
            track_times_for: None,
            check_monotone_for: None,
        }
    }
}

impl EngineOptions {
    /// Options that track everything needed to verify a monotone dynamo of
    /// colour `k` (the [`RunConfig::for_dynamo`] policy).
    pub fn for_dynamo(k: Color) -> Self {
        EngineOptions {
            track_times_for: Some(k),
            check_monotone_for: Some(k),
            ..EngineOptions::default()
        }
    }

    /// Sets an explicit round limit.
    pub fn with_max_rounds(mut self, max_rounds: usize) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Disables cycle detection.
    pub fn without_cycle_detection(mut self) -> Self {
        self.detect_cycles = false;
        self
    }

    /// Forces a specific simulation lane.
    pub fn with_lane(mut self, lane: LaneSpec) -> Self {
        self.lane = lane;
        self
    }

    /// Sets an explicit worker-thread budget (`0` = automatic).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the progress-event sampling stride (`0` = automatic: every
    /// round).
    pub fn with_progress_every(mut self, progress_every: usize) -> Self {
        self.progress_every = progress_every;
        self
    }

    /// The worker-thread budget with the automatic default resolved.
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            crate::sweep::default_threads()
        } else {
            self.threads
        }
    }

    /// The progress sampling stride with the automatic default resolved
    /// (automatic = every round).
    pub fn progress_stride(&self) -> usize {
        self.progress_every.max(1)
    }

    /// The [`RunConfig`] equivalent of these options (everything except
    /// the lane, which the runner applies while building the simulator).
    pub fn run_config(&self) -> RunConfig {
        RunConfig {
            max_rounds: self.max_rounds,
            detect_cycles: self.detect_cycles,
            track_times_for: self.track_times_for,
            check_monotone_for: self.check_monotone_for,
        }
    }

    /// Renders the `options:` value.
    pub fn to_text(&self) -> String {
        let lane = match self.lane {
            LaneSpec::Auto => "auto",
            LaneSpec::GenericFrontier => "generic",
            LaneSpec::FullSweep => "full-sweep",
            LaneSpec::Planes => "planes",
        };
        let opt = |c: Option<Color>| match c {
            Some(c) => c.index().to_string(),
            None => "-".into(),
        };
        let max_rounds = if self.max_rounds == 0 {
            "auto".to_string()
        } else {
            self.max_rounds.to_string()
        };
        let threads = if self.threads == 0 {
            "auto".to_string()
        } else {
            self.threads.to_string()
        };
        let progress = if self.progress_every == 0 {
            "auto".to_string()
        } else {
            self.progress_every.to_string()
        };
        format!(
            "lane={lane} cycles={} max-rounds={max_rounds} threads={threads} progress={progress} \
             track={} monotone={}",
            if self.detect_cycles { "on" } else { "off" },
            opt(self.track_times_for),
            opt(self.check_monotone_for),
        )
    }

    /// Parses the `options:` value (any subset of the keys; missing keys
    /// keep their defaults).
    pub fn parse(text: &str) -> Result<Self, SpecParseError> {
        let mut options = EngineOptions::default();
        let mut literal_zero_threads = false;
        for token in text.split_whitespace() {
            let (key, value) = token
                .split_once('=')
                .ok_or_else(|| bad_options(format!("expected key=value, got {token:?}")))?;
            match key {
                "lane" => {
                    options.lane = match value {
                        "auto" => LaneSpec::Auto,
                        "generic" => LaneSpec::GenericFrontier,
                        "full-sweep" => LaneSpec::FullSweep,
                        "planes" => LaneSpec::Planes,
                        other => return Err(bad_options(format!("unknown lane {other:?}"))),
                    }
                }
                "cycles" => {
                    options.detect_cycles = match value {
                        "on" => true,
                        "off" => false,
                        other => {
                            return Err(bad_options(format!(
                                "cycles must be on/off, got {other:?}"
                            )))
                        }
                    }
                }
                "max-rounds" => {
                    options.max_rounds = if value == "auto" {
                        0
                    } else {
                        value
                            .parse()
                            .map_err(|_| bad_options(format!("{value:?} is not a round limit")))?
                    }
                }
                "threads" => {
                    options.threads = if value == "auto" {
                        0
                    } else {
                        let n: usize = value
                            .parse()
                            .map_err(|_| bad_options(format!("{value:?} is not a thread count")))?;
                        literal_zero_threads = n == 0;
                        n
                    }
                }
                "progress" => {
                    options.progress_every = if value == "auto" {
                        0
                    } else {
                        value.parse().map_err(|_| {
                            bad_options(format!("{value:?} is not a progress stride"))
                        })?
                    }
                }
                "track" => {
                    options.track_times_for = if value == "-" {
                        None
                    } else {
                        Some(parse_color(value, "options")?)
                    }
                }
                "monotone" => {
                    options.check_monotone_for = if value == "-" {
                        None
                    } else {
                        Some(parse_color(value, "options")?)
                    }
                }
                other => return Err(bad_options(format!("unknown option {other:?}"))),
            }
        }
        // A literal `threads=0` is almost always a typo for `threads=auto`;
        // with the band-parallel plane lane forced it would silently pin
        // the run the author asked to parallelise to one worker, so the
        // combination is rejected rather than reinterpreted.
        if literal_zero_threads && options.lane == LaneSpec::Planes {
            return Err(bad_options(
                "threads=0 with lane=planes: write threads=auto for the default, or threads=N",
            ));
        }
        Ok(options)
    }
}

// ---------------------------------------------------------------------------
// SpecKey
// ---------------------------------------------------------------------------

/// A content-address for a [`RunSpec`]: the 128-bit FNV-1a digest of the
/// spec's canonical text form ([`RunSpec::to_text`]).
///
/// The digest is computed with a fixed, dependency-free algorithm, so the
/// same spec hashes to the same key **across processes and machines** —
/// which is what lets a result cache memoize outcomes for identical specs
/// submitted by different clients.  Specs with equal canonical texts
/// always share a key, and an *accidental* collision between distinct
/// specs is vanishingly unlikely with a 128-bit digest.  FNV-1a is not
/// collision-resistant, though: a determined client could construct two
/// distinct specs with the same key.  The key is a content-address for
/// trusted inputs, not a cryptographic commitment — consumers that cache
/// under it (the ctori-service result cache) assume trusted clients, as
/// in the loopback-only deployments the service targets.
///
/// Renders as 32 lowercase hex digits and parses back with
/// [`str::parse`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpecKey(u128);

impl SpecKey {
    const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
    const FNV_PRIME: u128 = 0x0000000001000000000000000000013b;

    /// FNV-1a digest of a byte string.
    fn digest(bytes: &[u8]) -> SpecKey {
        let mut hash = Self::FNV_OFFSET;
        for &b in bytes {
            hash ^= u128::from(b);
            hash = hash.wrapping_mul(Self::FNV_PRIME);
        }
        SpecKey(hash)
    }

    /// The raw 128-bit digest.
    pub fn as_u128(self) -> u128 {
        self.0
    }
}

impl std::fmt::Display for SpecKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl std::str::FromStr for SpecKey {
    type Err = SpecParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.len() != 32 {
            return Err(bad_options(format!(
                "a spec key is 32 hex digits, got {} characters",
                s.len()
            )));
        }
        // Strict canonical form only — from_str_radix alone would also
        // accept a leading '+' or uppercase digits, breaking the
        // parse-then-display identity the docs promise.
        if !s.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
            return Err(bad_options(format!(
                "{s:?} is not a lowercase hex spec key"
            )));
        }
        u128::from_str_radix(s, 16)
            .map(SpecKey)
            .map_err(|_| bad_options(format!("{s:?} is not a hex spec key")))
    }
}

// ---------------------------------------------------------------------------
// RunSpec
// ---------------------------------------------------------------------------

/// A complete, serialisable scenario description: topology + rule + seed +
/// engine options.  See the [module docs](self) for the text format.
#[derive(Clone, Debug, PartialEq)]
pub struct RunSpec {
    /// The interaction topology.
    pub topology: TopologySpec,
    /// The local rule, by registry name.
    pub rule: RuleSpec,
    /// The initial configuration.
    pub seed: SeedSpec,
    /// Engine policy (lane, cycles, limits, tracking).
    pub options: EngineOptions,
}

impl RunSpec {
    /// Builds a spec with default [`EngineOptions`].
    pub fn new(topology: TopologySpec, rule: impl Into<RuleSpec>, seed: SeedSpec) -> Self {
        RunSpec {
            topology,
            rule: rule.into(),
            seed,
            options: EngineOptions::default(),
        }
    }

    /// Replaces the engine options.
    pub fn with_options(mut self, options: EngineOptions) -> Self {
        self.options = options;
        self
    }

    /// Replaces the options with the dynamo-verification policy for `k`.
    pub fn for_dynamo(self, k: Color) -> Self {
        self.with_options(EngineOptions::for_dynamo(k))
    }

    /// Renders the spec as text.  The output parses back with
    /// [`RunSpec::from_text`] to an identical spec.
    pub fn to_text(&self) -> String {
        self.text_with_options(self.options)
    }

    /// The single text renderer behind both [`RunSpec::to_text`] and
    /// [`RunSpec::canonical_key`], so the digest input can never drift
    /// from the wire form when `RunSpec` grows a field.
    fn text_with_options(&self, options: EngineOptions) -> String {
        format!(
            "topology: {}\nrule: {}\noptions: {}\nseed: {}\n",
            self.topology.to_text(),
            self.rule.name(),
            options.to_text(),
            self.seed.to_text().trim_end(),
        )
    }

    /// The spec's content-address: the [`SpecKey`] digest of the canonical
    /// text form, with outcome-irrelevant policy normalised away.
    ///
    /// Because [`RunSpec::to_text`] renders every field canonically (rules
    /// by registry name, options fully spelled out), the key is invariant
    /// under a text round-trip: `from_text(to_text(s))` has the same key
    /// as `s`.  The service layer's result cache is addressed by this key,
    /// so identical scenarios submitted by different clients share one
    /// memoized outcome.
    ///
    /// [`EngineOptions::threads`] and [`EngineOptions::progress_every`]
    /// are the two options that cannot influence a run's outcome (one
    /// sizes *batch* execution — a single run is always sequential — and
    /// the other only samples observability events), so they are excluded
    /// from the digest: specs differing only in those knobs share a cache
    /// slot.  Every other option is part of the address — even `lane`
    /// reaches the outcome through
    /// [`crate::RunOutcome::used_plane_lane`].
    pub fn canonical_key(&self) -> SpecKey {
        // Shares to_text()'s renderer (only the small options struct is
        // copied to normalise the outcome-irrelevant knobs), so the
        // digest input tracks the wire form automatically if RunSpec
        // grows a field.
        let mut options = self.options;
        options.threads = 0;
        options.progress_every = 0;
        SpecKey::digest(self.text_with_options(options).as_bytes())
    }

    /// Parses a spec from the text form produced by [`RunSpec::to_text`].
    ///
    /// Lines are `key: value` in any order; blank lines are skipped; a
    /// `seed: explicit` line consumes every *following* line as the glyph
    /// grid of the configuration (so an explicit seed must come last —
    /// which is where [`RunSpec::to_text`] puts it).  The parsed spec is
    /// structurally [validated](RunSpec::validate), so a successfully
    /// parsed text cannot panic in [`crate::runner::Runner::execute`] for
    /// shape reasons.
    pub fn from_text(text: &str) -> Result<Self, SpecParseError> {
        let mut topology = None;
        let mut rule = None;
        let mut seed = None;
        let mut options = None;

        for (idx, line, rest) in lines_with_rest(text) {
            if line.trim().is_empty() {
                continue;
            }
            let (key, value) =
                line.split_once(':')
                    .ok_or_else(|| SpecParseError::UnexpectedLine {
                        line: idx + 1,
                        text: line.to_string(),
                    })?;
            let value = value.trim();
            match key.trim() {
                "topology" => topology = Some(TopologySpec::parse(value)?),
                "rule" => rule = Some(RuleSpec::parse(value)?),
                "options" => options = Some(EngineOptions::parse(value)?),
                "seed" => {
                    // Only an explicit seed owns the remaining lines (its
                    // glyph grid); for every other form keep parsing
                    // `key: value` lines normally.
                    if value.split_whitespace().next() == Some("explicit") {
                        seed = Some(SeedSpec::parse(value, rest)?);
                        break;
                    } else {
                        seed = Some(SeedSpec::parse(value, "")?);
                    }
                }
                _ => {
                    return Err(SpecParseError::UnexpectedLine {
                        line: idx + 1,
                        text: line.to_string(),
                    })
                }
            }
        }

        let spec = RunSpec {
            topology: topology.ok_or(SpecParseError::MissingField("topology"))?,
            rule: rule.ok_or(SpecParseError::MissingField("rule"))?,
            seed: seed.ok_or(SpecParseError::MissingField("seed"))?,
            options: options.unwrap_or_default(),
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Checks the structural constraints the builders would otherwise
    /// assert at execution time: torus dimensions at least 2×2, graph edge
    /// endpoints in range, seed-vertex indices in range, and explicit
    /// configurations matching the topology's grid shape.
    ///
    /// [`RunSpec::from_text`] calls this automatically, so text from an
    /// untrusted source is rejected with a [`SpecParseError`] instead of
    /// panicking later in the runner.
    pub fn validate(&self) -> Result<(), SpecParseError> {
        match &self.topology {
            TopologySpec::Torus { rows, cols, .. } => {
                if *rows < 2 || *cols < 2 {
                    return Err(bad_topology(format!(
                        "tori must be at least 2x2, got {rows}x{cols}"
                    )));
                }
            }
            TopologySpec::Graph { nodes, edges } => {
                for &(u, v) in edges {
                    if u as usize >= *nodes || v as usize >= *nodes {
                        return Err(bad_topology(format!(
                            "edge {u}-{v} out of range for {nodes} vertices"
                        )));
                    }
                    if u == v {
                        return Err(bad_topology(format!("self-loop {u}-{v}")));
                    }
                }
            }
            TopologySpec::RingLattice {
                nodes,
                neighbors_per_side,
            } => {
                if *neighbors_per_side == 0 || *nodes <= 2 * neighbors_per_side {
                    return Err(bad_topology(format!(
                        "ring lattice of {nodes} vertices cannot have {neighbors_per_side} \
                         neighbours per side"
                    )));
                }
            }
            TopologySpec::BarabasiAlbert {
                nodes,
                edges_per_vertex,
                ..
            } => {
                if *edges_per_vertex == 0 || *nodes <= *edges_per_vertex {
                    return Err(bad_topology(format!(
                        "Barabasi-Albert needs nodes > edges_per_vertex >= 1, got {nodes} and \
                         {edges_per_vertex}"
                    )));
                }
            }
            TopologySpec::ErdosRenyi {
                edge_probability, ..
            } => {
                if !(0.0..=1.0).contains(edge_probability) {
                    return Err(bad_topology("edge probability must be within [0, 1]"));
                }
            }
        }
        let total = self.topology.node_count();
        match &self.seed {
            SeedSpec::Nodes { nodes, .. } => {
                if let Some(&v) = nodes.iter().find(|&&v| v as usize >= total) {
                    return Err(bad_seed(format!(
                        "seed vertex {v} out of range for {total} vertices"
                    )));
                }
            }
            SeedSpec::Explicit(coloring)
                if (coloring.rows(), coloring.cols()) != self.topology.grid_dims() =>
            {
                let (rows, cols) = self.topology.grid_dims();
                return Err(bad_seed(format!(
                    "explicit seed is {}x{} but the topology reports {rows}x{cols}",
                    coloring.rows(),
                    coloring.cols(),
                )));
            }
            _ => {}
        }
        Ok(())
    }

    /// Materialises the initial configuration for this spec's topology.
    pub fn initial_coloring(&self) -> Coloring {
        let (rows, cols) = self.topology.grid_dims();
        self.seed.materialize(rows, cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctori_topology::Topology;

    fn c(i: u16) -> Color {
        Color::new(i)
    }

    #[test]
    fn torus_topology_round_trips() {
        for spec in [
            TopologySpec::toroidal_mesh(5, 7),
            TopologySpec::torus_cordalis(4, 4),
            TopologySpec::torus_serpentinus(6, 3),
        ] {
            let text = spec.to_text();
            assert_eq!(TopologySpec::parse(&text).unwrap(), spec, "{text}");
            assert_eq!(spec.node_count(), spec.build().node_count());
        }
    }

    #[test]
    fn graph_topologies_round_trip_and_build() {
        let ring = TopologySpec::RingLattice {
            nodes: 10,
            neighbors_per_side: 2,
        };
        let ba = TopologySpec::BarabasiAlbert {
            nodes: 50,
            edges_per_vertex: 2,
            rng_seed: 9,
        };
        let er = TopologySpec::ErdosRenyi {
            nodes: 30,
            edge_probability: 0.125,
            rng_seed: 3,
        };
        for spec in [ring, ba, er] {
            let text = spec.to_text();
            assert_eq!(TopologySpec::parse(&text).unwrap(), spec, "{text}");
            match spec.build() {
                BuiltTopology::Graph(g) => assert_eq!(g.node_count(), spec.node_count()),
                other => panic!("expected a graph, got {other:?}"),
            }
        }
    }

    #[test]
    fn generator_topologies_are_reproducible() {
        let spec = TopologySpec::BarabasiAlbert {
            nodes: 60,
            edges_per_vertex: 3,
            rng_seed: 11,
        };
        let (a, b) = (spec.build(), spec.build());
        match (a, b) {
            (BuiltTopology::Graph(a), BuiltTopology::Graph(b)) => assert_eq!(a, b),
            _ => panic!("expected graphs"),
        }
    }

    #[test]
    fn explicit_graph_round_trips_through_from_graph() {
        let g = generators::ring_lattice(8, 1);
        let spec = TopologySpec::from_graph(&g);
        let text = spec.to_text();
        let parsed = TopologySpec::parse(&text).unwrap();
        match parsed.build() {
            BuiltTopology::Graph(rebuilt) => {
                // Adjacency-list insertion order may differ; the edge *set*
                // and vertex count must survive the round trip.
                assert_eq!(rebuilt.node_count(), g.node_count());
                let edge_set = |g: &Graph| {
                    let mut edges: Vec<_> = g.edges().collect();
                    edges.sort();
                    edges
                };
                assert_eq!(edge_set(&rebuilt), edge_set(&g));
            }
            other => panic!("expected a graph, got {other:?}"),
        }
    }

    #[test]
    fn seed_specs_round_trip() {
        let specs = [
            SeedSpec::uniform(c(3)),
            SeedSpec::checkerboard(c(1), c(2)),
            SeedSpec::Pattern(PatternSpec::RowStripes(vec![c(1), c(2), c(3)])),
            SeedSpec::Pattern(PatternSpec::ColumnStripes(vec![c(2), c(4)])),
            SeedSpec::nodes(c(1), c(2), [0usize, 3, 7]),
            SeedSpec::Density {
                color: c(1),
                palette: 4,
                fraction: 0.25,
                rng_seed: 42,
            },
        ];
        for seed in specs {
            let value = seed.to_text();
            let parsed = SeedSpec::parse(&value, "").unwrap_or_else(|e| panic!("{value}: {e}"));
            assert_eq!(parsed, seed, "{value}");
        }
    }

    #[test]
    fn seed_colours_without_a_glyph_are_rejected() {
        for value in [
            "density color=1 palette=36 fraction=0.3 rng=1",
            "density color=36 palette=4 fraction=0.3 rng=1",
            "nodes color=36 background=1 at 0",
            "nodes color=1 background=40 at 0",
            "uniform 36",
            "checkerboard 1 36",
            "row-stripes 1 2 300",
            "column-stripes 36",
        ] {
            match SeedSpec::parse(value, "") {
                Err(SpecParseError::BadSeed { detail }) => {
                    assert!(detail.contains("1-9a-z"), "{value}: {detail}")
                }
                other => panic!("{value}: expected a glyph-limit error, got {other:?}"),
            }
        }
        // Colour 35 (`z`) is the last with a glyph.
        for value in [
            "density color=35 palette=35 fraction=0.3 rng=1",
            "nodes color=35 background=1 at 0",
            "checkerboard 1 35",
        ] {
            assert!(SeedSpec::parse(value, "").is_ok(), "{value}");
        }
        // Option colours only name what to track; they keep no limit.
        let options = EngineOptions::parse("track=40").unwrap();
        assert_eq!(options.track_times_for, Some(c(40)));
    }

    #[test]
    fn seed_materialisation_matches_pattern_semantics() {
        let board = SeedSpec::checkerboard(c(1), c(2)).materialize(4, 4);
        assert_eq!(board.at(0, 0), c(1));
        assert_eq!(board.at(0, 1), c(2));
        let stripes =
            SeedSpec::Pattern(PatternSpec::ColumnStripes(vec![c(1), c(2)])).materialize(3, 4);
        assert_eq!(stripes.at(2, 2), c(1));
        let nodes = SeedSpec::nodes(c(5), c(1), [5usize]).materialize(2, 4);
        assert_eq!(nodes.at(1, 1), c(5));
        assert_eq!(nodes.count(c(5)), 1);
    }

    #[test]
    fn density_seed_is_reproducible_and_exact() {
        let seed = SeedSpec::Density {
            color: c(1),
            palette: 4,
            fraction: 0.5,
            rng_seed: 7,
        };
        let a = seed.materialize(6, 6);
        let b = seed.materialize(6, 6);
        assert_eq!(a, b, "same rng seed, same configuration");
        assert_eq!(a.count(c(1)), 18);
        assert!(!a.has_unset_cells());
    }

    #[test]
    fn lines_with_rest_splits_like_str_lines() {
        for text in [
            "",
            "\n",
            "a",
            "a\nb\n",
            "a\r\nb\r\n\r\n",
            "a\rb\r",
            "a\n\n\rc",
            "x\r\r\ny",
        ] {
            let lines: Vec<&str> = lines_with_rest(text).map(|(_, line, _)| line).collect();
            assert_eq!(lines, text.lines().collect::<Vec<_>>(), "{text:?}");
            for (idx, line, rest) in lines_with_rest(text) {
                let below: Vec<&str> = text.lines().skip(idx + 1).collect();
                assert_eq!(
                    rest.lines().collect::<Vec<_>>(),
                    below,
                    "{text:?} after {line:?}"
                );
            }
        }
    }

    #[test]
    fn density_seeds_match_the_usize_shuffle() {
        // The draw order written out directly: shuffle a `usize`
        // permutation of the vertices, then scatter the rank-order
        // colours through it.
        fn usize_reference(
            total: usize,
            color: Color,
            palette: u16,
            fraction: f64,
            rng_seed: u64,
        ) -> Vec<Color> {
            let seed_count = (total as f64 * fraction).round() as usize;
            let others: Vec<Color> = Palette::new(palette).colors_except(color).collect();
            let mut rng = StdRng::seed_from_u64(rng_seed);
            let mut positions: Vec<usize> = (0..total).collect();
            positions.shuffle(&mut rng);
            let mut cells = vec![Color::UNSET; total];
            for (idx, pos) in positions.into_iter().enumerate() {
                cells[pos] = if idx < seed_count {
                    color
                } else {
                    *others.choose(&mut rng).expect("non-empty")
                };
            }
            cells
        }
        let shapes = [
            (1, 7),
            (2, 2),
            (5, 7),
            (16, 16),
            (3, 1000),
            (64, 65),
            (127, 129),
            (128, 128),
        ];
        for (rows, cols) in shapes {
            // One seeded vertex: the lowest swap that touches a non-seed
            // colour is the first one.
            let one_seed = 1.0 / (rows * cols) as f64;
            for rng_seed in [0, 1, 7, 0xDEAD_BEEF, u64::MAX] {
                for (palette, fraction) in [
                    (2, 0.3),
                    (3, 0.0),
                    (8, 0.5),
                    (16, 1.0),
                    (5, one_seed),
                    (3, 0.999),
                    // Colours past `u8`: no shortcut may narrow them.
                    (300, 0.3),
                ] {
                    let color = c(palette);
                    let seed = SeedSpec::Density {
                        color,
                        palette,
                        fraction,
                        rng_seed,
                    };
                    assert_eq!(
                        seed.materialize(rows, cols).cells(),
                        usize_reference(rows * cols, color, palette, fraction, rng_seed),
                        "{rows}x{cols} palette {palette} fraction {fraction} rng {rng_seed}"
                    );
                }
            }
        }
    }

    /// FNV-1a (64-bit) over the cells' colour indices, little-endian.
    fn cells_digest(coloring: &Coloring) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325_u64;
        for cell in coloring.cells() {
            for byte in cell.index().to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        hash
    }

    /// Materialises `(rows, cols, color, palette, fraction, rng_seed)` and
    /// checks its digest against `expected`.
    fn assert_density_digest(
        (rows, cols, color, palette, fraction, rng_seed): (usize, usize, u16, u16, f64, u64),
        expected: u64,
    ) {
        let seed = SeedSpec::Density {
            color: c(color),
            palette,
            fraction,
            rng_seed,
        };
        let digest = cells_digest(&seed.materialize(rows, cols));
        assert_eq!(
            digest, expected,
            "{rows}x{cols} color {color} palette {palette} fraction {fraction} rng {rng_seed}: \
             {digest:#018x}"
        );
    }

    /// Density seeds are part of every stored spec's meaning: these
    /// digests were recorded from the permutation-array sampler, so any
    /// rewrite of `materialize` must reproduce its cells exactly.
    #[test]
    fn density_seed_digests_are_pinned() {
        for (case, expected) in [
            ((1024, 1024, 3, 3, 0.3, 7), 0x615018b14cb0f364),
            ((333, 517, 5, 16, 0.5, u64::MAX), 0xcf24d19e42de92eb),
            // Fraction 0 with two other colours: every cell is a draw.
            ((64, 4096, 2, 3, 0.0, 0), 0xc8d4ed8231a91327),
        ] {
            assert_density_digest(case, expected);
        }
    }

    /// The 2048² case of [`density_seed_digests_are_pinned`]; too slow
    /// for a debug build, so it runs with `cargo test --release`.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "2048² seeding; runs in release builds")]
    fn density_seed_digest_2048_is_pinned() {
        assert_density_digest((2048, 2048, 8, 8, 0.3, 12345), 0x6b9750da1c6099f0);
    }

    #[test]
    fn run_spec_text_round_trips() {
        let spec = RunSpec::new(
            TopologySpec::toroidal_mesh(5, 5),
            RuleSpec::parse("smp").unwrap(),
            SeedSpec::nodes(c(1), c(2), [0usize, 6, 12]),
        )
        .for_dynamo(c(1));
        let text = spec.to_text();
        assert_eq!(RunSpec::from_text(&text).unwrap(), spec, "\n{text}");
    }

    #[test]
    fn explicit_seed_round_trips_as_glyph_grid() {
        let coloring = Coloring::from_rows(&[vec![c(1), c(2), c(1), c(2), c(3), c(2)]]);
        let spec = RunSpec::new(
            TopologySpec::Graph {
                nodes: 6,
                edges: vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)],
            },
            RuleSpec::parse("threshold(2,1)").unwrap(),
            SeedSpec::Explicit(coloring),
        );
        let text = spec.to_text();
        assert!(text.contains("seed: explicit"));
        assert_eq!(RunSpec::from_text(&text).unwrap(), spec, "\n{text}");
    }

    #[test]
    fn canonical_key_addresses_spec_content() {
        let spec = RunSpec::new(
            TopologySpec::toroidal_mesh(5, 5),
            RuleSpec::parse("smp").unwrap(),
            SeedSpec::checkerboard(c(1), c(2)),
        );
        let key = spec.canonical_key();
        // Stable across clones and text round-trips …
        assert_eq!(spec.clone().canonical_key(), key);
        let reparsed = RunSpec::from_text(&spec.to_text()).unwrap();
        assert_eq!(reparsed.canonical_key(), key);
        // … and sensitive to every field.
        let other_seed = spec.clone().with_options(EngineOptions::default());
        assert_eq!(other_seed.canonical_key(), key, "options were defaults");
        let bigger = RunSpec::new(
            TopologySpec::toroidal_mesh(5, 6),
            RuleSpec::parse("smp").unwrap(),
            SeedSpec::checkerboard(c(1), c(2)),
        );
        assert_ne!(bigger.canonical_key(), key);
        let tracked = spec.clone().for_dynamo(c(1));
        assert_ne!(tracked.canonical_key(), key);
        // The thread budget cannot affect an outcome, so it must not
        // split the cache address.
        let threaded = spec
            .clone()
            .with_options(EngineOptions::default().with_threads(8));
        assert_eq!(threaded.canonical_key(), key);
        // Same for the progress sampling stride (pure observability).
        let sampled = spec
            .clone()
            .with_options(EngineOptions::default().with_progress_every(16));
        assert_eq!(sampled.canonical_key(), key);
        // But lane forcing can (it reaches RunOutcome::used_plane_lane).
        let forced = spec
            .clone()
            .with_options(EngineOptions::default().with_lane(LaneSpec::FullSweep));
        assert_ne!(forced.canonical_key(), key);
    }

    #[test]
    fn spec_key_round_trips_through_hex() {
        let spec = RunSpec::new(
            TopologySpec::torus_cordalis(4, 4),
            RuleSpec::parse("strong-majority").unwrap(),
            SeedSpec::uniform(c(1)),
        );
        let key = spec.canonical_key();
        let hex = key.to_string();
        assert_eq!(hex.len(), 32, "{hex}");
        assert_eq!(hex.parse::<SpecKey>().unwrap(), key);
        assert!("nope".parse::<SpecKey>().is_err());
        assert!("zz".repeat(16).parse::<SpecKey>().is_err());
        // Only the canonical lowercase form parses: a leading '+' or
        // uppercase digits would break parse-then-display identity.
        assert!(format!("+{}", &hex[1..]).parse::<SpecKey>().is_err());
        assert!(hex.to_uppercase().parse::<SpecKey>().is_err());
    }

    #[test]
    fn thread_budget_round_trips_and_resolves() {
        let options = EngineOptions::default().with_threads(3);
        let text = options.to_text();
        assert!(text.contains("threads=3"), "{text}");
        assert_eq!(EngineOptions::parse(&text).unwrap(), options);
        assert_eq!(options.effective_threads(), 3);
        let auto = EngineOptions::default();
        assert!(auto.to_text().contains("threads=auto"));
        assert_eq!(auto.effective_threads(), crate::sweep::default_threads());
        assert!(EngineOptions::parse("threads=lots").is_err());
    }

    #[test]
    fn zero_threads_with_forced_plane_lane_is_rejected() {
        // Order of the keys must not matter: the check runs after parsing.
        for text in ["lane=planes threads=0", "threads=0 lane=planes"] {
            let err = EngineOptions::parse(text).unwrap_err();
            assert!(
                matches!(err, SpecParseError::BadOptions { .. }),
                "{text}: {err:?}"
            );
        }
        // `threads=0` without the plane lane keeps its legacy auto meaning,
        // and `threads=auto` with the plane lane is the supported spelling.
        assert_eq!(EngineOptions::parse("threads=0").unwrap().threads, 0);
        let ok = EngineOptions::parse("lane=planes threads=auto").unwrap();
        assert_eq!((ok.lane, ok.threads), (LaneSpec::Planes, 0));
    }

    #[test]
    fn progress_stride_round_trips_and_resolves() {
        let options = EngineOptions::default().with_progress_every(8);
        let text = options.to_text();
        assert!(text.contains("progress=8"), "{text}");
        assert_eq!(EngineOptions::parse(&text).unwrap(), options);
        assert_eq!(options.progress_stride(), 8);
        let auto = EngineOptions::default();
        assert!(auto.to_text().contains("progress=auto"));
        assert_eq!(auto.progress_stride(), 1, "auto samples every round");
        assert!(EngineOptions::parse("progress=often").is_err());
    }

    #[test]
    fn options_round_trip_and_defaults() {
        let options = EngineOptions::for_dynamo(c(2))
            .with_max_rounds(99)
            .without_cycle_detection()
            .with_lane(LaneSpec::FullSweep);
        let text = options.to_text();
        assert_eq!(EngineOptions::parse(&text).unwrap(), options, "{text}");
        assert_eq!(
            EngineOptions::parse("").unwrap(),
            EngineOptions::default(),
            "missing keys keep defaults"
        );
        let config = options.run_config();
        assert_eq!(config.max_rounds, 99);
        assert!(!config.detect_cycles);
        assert_eq!(config.track_times_for, Some(c(2)));
    }

    #[test]
    fn every_lane_spec_round_trips() {
        for lane in [
            LaneSpec::Auto,
            LaneSpec::GenericFrontier,
            LaneSpec::FullSweep,
            LaneSpec::Planes,
        ] {
            let options = EngineOptions::default().with_lane(lane);
            let text = options.to_text();
            assert_eq!(EngineOptions::parse(&text).unwrap().lane, lane, "{text}");
        }
        let planes = EngineOptions::parse("lane=planes").unwrap();
        assert_eq!(planes.lane, LaneSpec::Planes);
        assert!(planes.to_text().contains("lane=planes"));
    }

    #[test]
    fn fields_after_a_non_explicit_seed_are_still_parsed() {
        let text =
            "topology: toroidal-mesh 4x4\nrule: smp\nseed: uniform 1\noptions: lane=full-sweep\n";
        let spec = RunSpec::from_text(text).unwrap();
        assert_eq!(
            spec.options.lane,
            LaneSpec::FullSweep,
            "an options line after the seed line must not be dropped"
        );
    }

    #[test]
    fn structurally_invalid_text_is_rejected_not_deferred_to_a_panic() {
        let cases = [
            // Torus below the paper's 2x2 minimum.
            "topology: toroidal-mesh 1x1\nrule: smp\nseed: uniform 1\n",
            // Graph edge endpoint out of range.
            "topology: graph 2 0-5\nrule: smp\nseed: uniform 1\n",
            // Self-loop.
            "topology: graph 3 1-1\nrule: smp\nseed: uniform 1\n",
            // Seed vertex out of range for a 3x3 torus.
            "topology: toroidal-mesh 3x3\nrule: smp\nseed: nodes color=1 background=2 at 99\n",
            // Ring lattice too small for its degree.
            "topology: ring-lattice 4 2\nrule: smp\nseed: uniform 1\n",
            // Barabasi-Albert with nodes <= edges_per_vertex.
            "topology: barabasi-albert 3 3 rng=0\nrule: smp\nseed: uniform 1\n",
        ];
        for text in cases {
            assert!(
                RunSpec::from_text(text).is_err(),
                "expected a SpecParseError for:\n{text}"
            );
        }
        // An explicit grid that does not match the topology shape.
        let mismatched = "topology: toroidal-mesh 3x3\nrule: smp\nseed: explicit\n1 1\n1 1\n";
        assert!(matches!(
            RunSpec::from_text(mismatched),
            Err(SpecParseError::BadSeed { .. })
        ));
    }

    #[test]
    fn unexpected_line_reports_the_whole_line() {
        let err = RunSpec::from_text("sede: uniform 1\n").unwrap_err();
        match err {
            SpecParseError::UnexpectedLine { line, text } => {
                assert_eq!(line, 1);
                assert_eq!(text, "sede: uniform 1");
            }
            other => panic!("expected UnexpectedLine, got {other:?}"),
        }
    }

    #[test]
    fn parse_errors_are_descriptive() {
        assert!(matches!(
            RunSpec::from_text("rule: smp\nseed: uniform 1\n"),
            Err(SpecParseError::MissingField("topology"))
        ));
        assert!(matches!(
            RunSpec::from_text("nonsense"),
            Err(SpecParseError::UnexpectedLine { line: 1, .. })
        ));
        assert!(matches!(
            TopologySpec::parse("klein-bottle 3x3"),
            Err(SpecParseError::BadTopology { .. })
        ));
        assert!(matches!(
            TopologySpec::parse("toroidal-mesh 3by3"),
            Err(SpecParseError::BadTopology { .. })
        ));
        assert!(matches!(
            SeedSpec::parse("checkerboard 1", ""),
            Err(SpecParseError::BadSeed { .. })
        ));
        assert!(matches!(
            SeedSpec::parse("density color=1 palette=4 fraction=1.5 rng=0", ""),
            Err(SpecParseError::BadSeed { .. })
        ));
        assert!(matches!(
            EngineOptions::parse("lane=warp"),
            Err(SpecParseError::BadOptions { .. })
        ));
        assert!(matches!(
            RuleSpec::parse("nope"),
            Err(SpecParseError::BadRule(_))
        ));
        let rendered = format!("{}", SpecParseError::BadTopology { detail: "x".into() });
        assert!(rendered.contains("bad topology"));
    }

    #[test]
    fn rule_spec_wraps_and_names() {
        use ctori_protocols::SmpProtocol;
        let spec = RuleSpec::from_rule(SmpProtocol);
        assert_eq!(spec.name(), "smp");
        assert_eq!(spec, RuleSpec::parse("smp").unwrap());
        let any: RuleSpec = AnyRule::reverse_strong().into();
        assert_eq!(any.name(), "strong-majority");
    }
}
