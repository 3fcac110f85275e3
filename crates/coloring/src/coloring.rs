//! The colouring `r : V → C` of a torus.

use crate::color::{Color, Palette};
use ctori_topology::{Coord, NodeId, Torus};

/// A colouring of an `m × n` grid, stored row-major.
///
/// This is the state the simulation engine evolves.  It is deliberately a
/// plain flat vector: the SMP protocol's hot loop reads four neighbours and
/// writes one cell per vertex per round, and everything else (blocks,
/// dynamos, hypotheses) is derived from it.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Coloring {
    rows: usize,
    cols: usize,
    cells: Vec<Color>,
}

impl Coloring {
    /// Creates a colouring with every vertex set to `color`.
    pub fn uniform(torus: &Torus, color: Color) -> Self {
        Coloring {
            rows: torus.rows(),
            cols: torus.cols(),
            cells: vec![color; torus.rows() * torus.cols()],
        }
    }

    /// Creates a colouring of an `m × n` grid with every vertex set to
    /// `color`, without needing a torus value.
    pub fn uniform_dims(rows: usize, cols: usize, color: Color) -> Self {
        Coloring {
            rows,
            cols,
            cells: vec![color; rows * cols],
        }
    }

    /// Creates a colouring from an explicit row-major cell vector.
    ///
    /// # Panics
    ///
    /// Panics if `cells.len() != rows * cols`.
    pub fn from_cells(rows: usize, cols: usize, cells: Vec<Color>) -> Self {
        assert_eq!(
            cells.len(),
            rows * cols,
            "cell vector has wrong length for a {rows}x{cols} grid"
        );
        Coloring { rows, cols, cells }
    }

    /// Creates a colouring from a nested row description.
    ///
    /// # Panics
    ///
    /// Panics if the rows are ragged.
    pub fn from_rows(rows: &[Vec<Color>]) -> Self {
        let m = rows.len();
        let n = rows.first().map(Vec::len).unwrap_or(0);
        assert!(rows.iter().all(|r| r.len() == n), "ragged row lengths");
        Coloring {
            rows: m,
            cols: n,
            cells: rows.iter().flatten().copied().collect(),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of cells.
    #[inline]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the grid has no cells (never true for the paper's tori).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The colour of a vertex by dense identifier.
    #[inline]
    pub fn get(&self, v: NodeId) -> Color {
        self.cells[v.index()]
    }

    /// Sets the colour of a vertex by dense identifier.
    #[inline]
    pub fn set(&mut self, v: NodeId, color: Color) {
        self.cells[v.index()] = color;
    }

    /// The colour of a vertex by coordinate.
    #[inline]
    pub fn get_coord(&self, torus: &Torus, c: Coord) -> Color {
        self.get(torus.id(c))
    }

    /// Sets the colour of a vertex by coordinate.
    #[inline]
    pub fn set_coord(&mut self, torus: &Torus, c: Coord, color: Color) {
        self.set(torus.id(c), color);
    }

    /// The colour at `(row, col)` without needing a torus value.
    #[inline]
    pub fn at(&self, row: usize, col: usize) -> Color {
        self.cells[row * self.cols + col]
    }

    /// Sets the colour at `(row, col)` without needing a torus value.
    #[inline]
    pub fn set_at(&mut self, row: usize, col: usize, color: Color) {
        self.cells[row * self.cols + col] = color;
    }

    /// Read-only access to the flat cell vector.
    #[inline]
    pub fn cells(&self) -> &[Color] {
        &self.cells
    }

    /// Mutable access to the flat cell vector (used by the engine's
    /// double-buffered update).
    #[inline]
    pub fn cells_mut(&mut self) -> &mut [Color] {
        &mut self.cells
    }

    /// Consumes the colouring and returns its flat row-major cell vector,
    /// so a simulator can take over the cells without copying them.
    #[inline]
    pub fn into_cells(self) -> Vec<Color> {
        self.cells
    }

    /// Number of vertices with the given colour (the paper's `|V^k|`).
    pub fn count(&self, color: Color) -> usize {
        self.cells.iter().filter(|&&c| c == color).count()
    }

    /// Per-colour histogram over the given palette.
    pub fn histogram(&self, palette: &Palette) -> Vec<(Color, usize)> {
        palette.colors().map(|c| (c, self.count(c))).collect()
    }

    /// Whether every vertex has the given colour (the paper's
    /// "k-monochromatic configuration").
    pub fn is_monochromatic_in(&self, color: Color) -> bool {
        self.cells.iter().all(|&c| c == color)
    }

    /// If the configuration is monochromatic, returns its colour.
    pub fn monochromatic(&self) -> Option<Color> {
        let first = *self.cells.first()?;
        if self.cells.iter().all(|&c| c == first) {
            Some(first)
        } else {
            None
        }
    }

    /// The set of distinct colours present.
    pub fn distinct_colors(&self) -> Vec<Color> {
        let mut seen: Vec<Color> = Vec::new();
        for &c in &self.cells {
            if !seen.contains(&c) {
                seen.push(c);
            }
        }
        seen.sort_unstable();
        seen
    }

    /// Whether any cell still carries the [`Color::UNSET`] sentinel.
    pub fn has_unset_cells(&self) -> bool {
        self.cells.iter().any(|c| c.is_unset())
    }

    /// Applies a colour permutation / relabelling to every cell.
    ///
    /// Used by the φ transformation of Proposition 1 (collapsing all non-k
    /// colours to "white") and by the colour-permutation-invariance
    /// property tests.
    pub fn map_colors(&self, f: impl Fn(Color) -> Color) -> Coloring {
        Coloring {
            rows: self.rows,
            cols: self.cols,
            cells: self.cells.iter().map(|&c| f(c)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctori_topology::toroidal_mesh;

    #[test]
    fn uniform_and_counts() {
        let t = toroidal_mesh(3, 4);
        let c = Coloring::uniform(&t, Color::new(2));
        assert_eq!(c.rows(), 3);
        assert_eq!(c.cols(), 4);
        assert_eq!(c.len(), 12);
        assert!(!c.is_empty());
        assert_eq!(c.count(Color::new(2)), 12);
        assert_eq!(c.count(Color::new(1)), 0);
        assert!(c.is_monochromatic_in(Color::new(2)));
        assert_eq!(c.monochromatic(), Some(Color::new(2)));
    }

    #[test]
    fn set_get_roundtrip() {
        let t = toroidal_mesh(3, 3);
        let mut c = Coloring::uniform(&t, Color::new(1));
        c.set_coord(&t, Coord::new(1, 2), Color::new(3));
        assert_eq!(c.get_coord(&t, Coord::new(1, 2)), Color::new(3));
        assert_eq!(c.at(1, 2), Color::new(3));
        c.set_at(2, 0, Color::new(2));
        assert_eq!(c.get(t.id(Coord::new(2, 0))), Color::new(2));
        assert_eq!(c.monochromatic(), None);
        assert_eq!(
            c.distinct_colors(),
            vec![Color::new(1), Color::new(2), Color::new(3)]
        );
    }

    #[test]
    fn histogram_matches_counts() {
        let t = toroidal_mesh(2, 2);
        let mut c = Coloring::uniform(&t, Color::new(1));
        c.set_at(0, 0, Color::new(2));
        let p = Palette::new(3);
        let h = c.histogram(&p);
        assert_eq!(
            h,
            vec![(Color::new(1), 3), (Color::new(2), 1), (Color::new(3), 0)]
        );
    }

    #[test]
    fn from_rows_and_cells() {
        let rows = vec![
            vec![Color::new(1), Color::new(2)],
            vec![Color::new(3), Color::new(4)],
        ];
        let c = Coloring::from_rows(&rows);
        assert_eq!(c.at(0, 1), Color::new(2));
        assert_eq!(c.at(1, 0), Color::new(3));
        let c2 = Coloring::from_cells(2, 2, c.cells().to_vec());
        assert_eq!(c, c2);
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn from_cells_checks_length() {
        let _ = Coloring::from_cells(2, 2, vec![Color::new(1); 3]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn from_rows_checks_raggedness() {
        let _ = Coloring::from_rows(&[vec![Color::new(1)], vec![Color::new(1), Color::new(2)]]);
    }

    #[test]
    fn map_colors_applies_pointwise() {
        let t = toroidal_mesh(2, 3);
        let mut c = Coloring::uniform(&t, Color::new(1));
        c.set_at(0, 0, Color::new(3));
        let swapped = c.map_colors(|col| {
            if col == Color::new(3) {
                Color::new(1)
            } else {
                Color::new(3)
            }
        });
        assert_eq!(swapped.at(0, 0), Color::new(1));
        assert_eq!(swapped.at(1, 2), Color::new(3));
        assert_eq!(swapped.count(Color::new(3)), 5);
    }

    #[test]
    fn unset_detection() {
        let mut c = Coloring::uniform_dims(2, 2, Color::UNSET);
        assert!(c.has_unset_cells());
        for i in 0..2 {
            for j in 0..2 {
                c.set_at(i, j, Color::new(1));
            }
        }
        assert!(!c.has_unset_cells());
    }
}
