//! ASCII rendering of colourings and time matrices.
//!
//! The paper presents its examples as small grids of labelled cells
//! (Figures 1–4) and as matrices of "time-steps remaining to assume colour
//! k" (Figures 5 and 6).  These renderers produce the same artefacts as
//! text, so the experiment binary and the examples can print
//! paper-comparable figures.

use crate::color::Color;
use crate::coloring::Coloring;
use crate::textio::MAX_GLYPH_COLOR;

/// [`Color::glyph`] as a byte for colour indices `0..=MAX_GLYPH_COLOR + 1`;
/// every larger index shares the last entry's `#`.
const GLYPH_BYTES: [u8; MAX_GLYPH_COLOR as usize + 2] = {
    let mut table = [0; MAX_GLYPH_COLOR as usize + 2];
    let mut index = 0;
    while index < table.len() {
        table[index] = Color(index as u16).glyph() as u8;
        index += 1;
    }
    table
};

/// Renders a colouring as a grid of single-character colour glyphs.
///
/// Colour 1 renders as `1`, …; the unset sentinel renders as `.`.
pub fn render_coloring(coloring: &Coloring) -> String {
    let mut out = String::new();
    render_coloring_into(coloring, &mut out);
    out
}

/// Appends the [`render_coloring`] grid to `out`, written straight into
/// its buffer: a glyph byte per cell, `' '` between cells and `'\n'`
/// after each row.
pub fn render_coloring_into(coloring: &Coloring, out: &mut String) {
    let (rows, cols) = (coloring.rows(), coloring.cols());
    if cols == 0 {
        out.extend(std::iter::repeat_n('\n', rows));
        return;
    }
    let mut bytes = std::mem::take(out).into_bytes();
    let start = bytes.len();
    // Each cell is its glyph and a space; a row's last space becomes its
    // line break.
    bytes.resize(start + rows * cols * 2, b' ');
    let lines = bytes[start..].chunks_exact_mut(2 * cols);
    for (cells, line) in coloring.cells().chunks_exact(cols).zip(lines) {
        for (cell, pair) in cells.iter().zip(line.chunks_exact_mut(2)) {
            pair[0] = GLYPH_BYTES[usize::from(cell.index().min(MAX_GLYPH_COLOR + 1))];
        }
        line[2 * cols - 1] = b'\n';
    }
    *out = String::from_utf8(bytes).expect("glyph grids are ASCII");
}

/// Renders a colouring highlighting one colour: cells of `highlight` render
/// as `B` (the paper's black nodes), every other cell as `.`.
///
/// This is the format of Figures 1 and 3 of the paper, which only show
/// where the black vertices are.
pub fn render_highlight(coloring: &Coloring, highlight: Color) -> String {
    let mut out = String::with_capacity(coloring.len() * 2 + coloring.rows());
    for row in 0..coloring.rows() {
        for col in 0..coloring.cols() {
            if col > 0 {
                out.push(' ');
            }
            out.push(if coloring.at(row, col) == highlight {
                'B'
            } else {
                '.'
            });
        }
        out.push('\n');
    }
    out
}

/// Renders a matrix of per-vertex integers (e.g. recolouring times), the
/// format of Figures 5 and 6.  `None` entries (vertices that never
/// recoloured) render as `-`.
pub fn render_time_matrix(rows: usize, cols: usize, times: &[Option<usize>]) -> String {
    assert_eq!(times.len(), rows * cols, "time matrix has wrong length");
    let width = times
        .iter()
        .filter_map(|t| *t)
        .map(|t| t.to_string().len())
        .max()
        .unwrap_or(1);
    let mut out = String::new();
    for row in 0..rows {
        for col in 0..cols {
            if col > 0 {
                out.push(' ');
            }
            match times[row * cols + col] {
                Some(t) => out.push_str(&format!("{t:>width$}")),
                None => out.push_str(&format!("{:>width$}", "-")),
            }
        }
        out.push('\n');
    }
    out
}

/// Renders a side-by-side comparison of two colourings (e.g. before /
/// after), separated by a gutter.
pub fn render_side_by_side(left: &Coloring, right: &Coloring, gutter: &str) -> String {
    let left_s = render_coloring(left);
    let right_s = render_coloring(right);
    let mut out = String::new();
    let empty_left = " ".repeat(left.cols() * 2 - 1);
    let mut l = left_s.lines();
    let mut r = right_s.lines();
    loop {
        match (l.next(), r.next()) {
            (None, None) => break,
            (a, b) => {
                out.push_str(a.unwrap_or(&empty_left));
                out.push_str(gutter);
                out.push_str(b.unwrap_or(""));
                out.push('\n');
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctori_topology::toroidal_mesh;

    #[test]
    fn render_small_grid() {
        let t = toroidal_mesh(2, 3);
        let mut c = Coloring::uniform(&t, Color::new(1));
        c.set_at(0, 1, Color::new(2));
        let s = render_coloring(&c);
        assert_eq!(s, "1 2 1\n1 1 1\n");
    }

    /// The `char`-push renderer [`render_coloring_into`] replaced: the
    /// reference its output must match byte for byte.
    fn render_coloring_reference(coloring: &Coloring) -> String {
        let mut out = String::with_capacity(coloring.len() * 2 + coloring.rows());
        for row in 0..coloring.rows() {
            for col in 0..coloring.cols() {
                if col > 0 {
                    out.push(' ');
                }
                out.push(coloring.at(row, col).glyph());
            }
            out.push('\n');
        }
        out
    }

    #[test]
    fn byte_renderer_matches_the_char_reference() {
        let shapes = [(1, 1), (1, 40), (41, 1), (64, 65), (513, 7), (3, 0), (0, 0)];
        for (rows, cols) in shapes {
            for offset in [0, 17] {
                // Colours 0..=40 cycle through every glyph class: `.`,
                // digits, letters and `#`.
                let cells = (0..rows * cols)
                    .map(|i| Color(((i + offset) % 41) as u16))
                    .collect();
                let coloring = Coloring::from_cells(rows, cols, cells);
                let expected = render_coloring_reference(&coloring);
                assert_eq!(render_coloring(&coloring), expected, "{rows}x{cols}");
                let mut appended = String::from("final:\n");
                render_coloring_into(&coloring, &mut appended);
                assert_eq!(appended, format!("final:\n{expected}"), "{rows}x{cols}");
            }
        }
    }

    #[test]
    fn render_highlight_marks_only_one_color() {
        let t = toroidal_mesh(2, 2);
        let mut c = Coloring::uniform(&t, Color::new(1));
        c.set_at(1, 1, Color::new(2));
        let s = render_highlight(&c, Color::new(2));
        assert_eq!(s, ". .\n. B\n");
    }

    #[test]
    fn render_times_with_missing_entries() {
        let times = vec![Some(0), Some(10), None, Some(3)];
        let s = render_time_matrix(2, 2, &times);
        assert_eq!(s, " 0 10\n -  3\n");
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn time_matrix_length_checked() {
        let _ = render_time_matrix(2, 2, &[Some(1)]);
    }

    #[test]
    fn side_by_side_has_gutter() {
        let t = toroidal_mesh(2, 2);
        let a = Coloring::uniform(&t, Color::new(1));
        let b = Coloring::uniform(&t, Color::new(2));
        let s = render_side_by_side(&a, &b, "  |  ");
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], "1 1  |  2 2");
    }
}
