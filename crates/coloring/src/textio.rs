//! Plain-text (de)serialization of colourings.
//!
//! Configurations are stored as the same glyph grid produced by
//! [`crate::render::render_coloring`], so a saved experiment artefact can be
//! pasted straight back into a test.  We intentionally avoid pulling a
//! serialization format crate: the grids are tiny and the format is
//! human-diffable.

use crate::color::Color;
use crate::coloring::Coloring;

/// Errors produced when parsing a colouring from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The input contained no rows.
    Empty,
    /// Two rows had different lengths.
    RaggedRows {
        /// Length of the first row.
        expected: usize,
        /// Index of the offending row.
        row: usize,
        /// Its length.
        got: usize,
    },
    /// A glyph was not a valid colour character.
    BadGlyph {
        /// The offending character.
        glyph: char,
        /// Row of the offending character.
        row: usize,
        /// Column of the offending character.
        col: usize,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Empty => write!(f, "empty colouring text"),
            ParseError::RaggedRows { expected, row, got } => write!(
                f,
                "row {row} has {got} cells but the first row has {expected}"
            ),
            ParseError::BadGlyph { glyph, row, col } => {
                write!(
                    f,
                    "invalid colour glyph {glyph:?} at row {row}, column {col}"
                )
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// The largest colour index with a glyph of its own (`z`).  Larger
/// colours render as `#`, which does not parse back.
pub const MAX_GLYPH_COLOR: u16 = 35;

const fn glyph_to_color(ch: char) -> Option<Color> {
    match ch {
        '.' => Some(Color::UNSET),
        '0'..='9' => {
            let v = ch as u16 - '0' as u16;
            if v == 0 {
                None
            } else {
                Some(Color(v))
            }
        }
        'a'..='z' => Some(Color(10 + (ch as u16 - 'a' as u16))),
        _ => None,
    }
}

/// Serializes a colouring to the glyph-grid text format.
pub fn to_text(coloring: &Coloring) -> String {
    crate::render::render_coloring(coloring)
}

/// Byte classes of [`GLYPHS`] that are not colour indices.
const SEPARATOR: u16 = u16::MAX;
const NOT_A_GLYPH: u16 = u16::MAX - 1;

/// What every ASCII byte means in a grid line: a colour index, a
/// separator, or neither.  Separators are the ASCII characters
/// `char::is_whitespace` accepts — `u8::is_ascii_whitespace` plus the
/// vertical tab — so a line splits exactly as `split_whitespace` splits
/// it.
const GLYPHS: [u16; 128] = {
    let mut table = [NOT_A_GLYPH; 128];
    let mut b = 0;
    while b < 128 {
        let ch = b as u8 as char;
        table[b] = if ch.is_ascii_whitespace() || b == 0x0B {
            SEPARATOR
        } else {
            match glyph_to_color(ch) {
                Some(c) => c.0,
                None => NOT_A_GLYPH,
            }
        };
        b += 1;
    }
    table
};

/// The colour index of glyph byte `b`, and whether `b` is a glyph at all,
/// by arithmetic: `'1'..='9'` are 1–9, `'a'..='z'` 10–35 and `'.'` is 0
/// (unset).
#[inline(always)]
fn glyph_index(b: u8) -> (u16, bool) {
    let digit = b.wrapping_sub(b'1');
    let letter = b.wrapping_sub(b'a');
    let (is_digit, is_letter) = (digit < 9, letter < 26);
    let index = ((u16::from(digit) + 1) & u16::from(is_digit).wrapping_neg())
        | ((u16::from(letter) + 10) & u16::from(is_letter).wrapping_neg());
    (index, is_digit | is_letter | (b == b'.'))
}

/// Decodes a canonical grid line — exactly `2·cols − 1` bytes, a glyph at
/// every even offset and `' '` at every odd one, as the renderer writes
/// it — onto `cells`, with validity checked once for the whole line.
/// Returns `false` and leaves `cells` as it was for any other line.
fn decode_canonical(line: &[u8], cols: usize, cells: &mut Vec<Color>) -> bool {
    if line.len() + 1 != 2 * cols {
        return false;
    }
    let before = cells.len();
    cells.resize(before + cols, Color::UNSET);
    let row = &mut cells[before..];
    // Every cell but the last is a (glyph, separator) pair.
    let (pairs, last) = line.split_at(line.len() - 1);
    let mut valid = true;
    for (cell, pair) in row.iter_mut().zip(pairs.chunks_exact(2)) {
        let (index, glyph) = glyph_index(pair[0]);
        *cell = Color(index);
        valid &= glyph & (pair[1] == b' ');
    }
    let (index, glyph) = glyph_index(last[0]);
    row[cols - 1] = Color(index);
    let valid = valid && glyph;
    if !valid {
        cells.truncate(before);
    }
    valid
}

/// Parses a colouring from the glyph-grid text format.
///
/// Whitespace between glyphs is ignored; blank lines are skipped.  Cells
/// are decoded straight into one row-major vector: after the first row,
/// a line in the renderer's canonical form takes a branch-free decode of
/// the whole line, and any other line goes byte by byte.  A bad glyph
/// anywhere is reported before ragged rows.
pub fn from_text(text: &str) -> Result<Coloring, ParseError> {
    let mut cells = Vec::with_capacity(text.len() / 2);
    let (mut rows, mut cols) = (0, 0);
    let mut ragged = None;
    for (row_idx, line) in text.lines().enumerate() {
        if rows > 0 && decode_canonical(line.as_bytes(), cols, &mut cells) {
            rows += 1;
            continue;
        }
        let before = cells.len();
        for (i, &b) in line.as_bytes().iter().enumerate() {
            let glyph = match GLYPHS.get(usize::from(b)) {
                Some(&SEPARATOR) => continue,
                Some(&NOT_A_GLYPH) => char::from(b),
                Some(&index) => {
                    cells.push(Color(index));
                    continue;
                }
                // A non-ASCII character is never a glyph: Unicode
                // whitespace separates, anything else is bad.  Only its
                // first byte starts a `str` at `i`.
                None => match line.get(i..).and_then(|rest| rest.chars().next()) {
                    Some(ch) if !ch.is_whitespace() => ch,
                    _ => continue,
                },
            };
            return Err(ParseError::BadGlyph {
                glyph,
                row: row_idx,
                col: cells.len() - before,
            });
        }
        let width = cells.len() - before;
        if width == 0 {
            // Blank: nothing but whitespace.
            continue;
        }
        if rows == 0 {
            cols = width;
        } else if width != cols && ragged.is_none() {
            ragged = Some(ParseError::RaggedRows {
                expected: cols,
                row: rows,
                got: width,
            });
        }
        rows += 1;
    }
    if rows == 0 {
        return Err(ParseError::Empty);
    }
    match ragged {
        Some(e) => Err(e),
        None => Ok(Coloring::from_cells(rows, cols, cells)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctori_topology::toroidal_mesh;
    use proptest::prelude::*;

    /// The row-by-row `char` decoder [`from_text`] replaced: the
    /// reference its results and errors must match exactly.
    fn from_text_reference(text: &str) -> Result<Coloring, ParseError> {
        let mut rows: Vec<Vec<Color>> = Vec::new();
        for (row_idx, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let mut row = Vec::new();
            for (col_idx, ch) in line
                .split_whitespace()
                .flat_map(|tok| tok.chars())
                .enumerate()
            {
                match glyph_to_color(ch) {
                    Some(c) => row.push(c),
                    None => {
                        return Err(ParseError::BadGlyph {
                            glyph: ch,
                            row: row_idx,
                            col: col_idx,
                        })
                    }
                }
            }
            rows.push(row);
        }
        if rows.is_empty() {
            return Err(ParseError::Empty);
        }
        let expected = rows[0].len();
        for (i, row) in rows.iter().enumerate() {
            if row.len() != expected {
                return Err(ParseError::RaggedRows {
                    expected,
                    row: i,
                    got: row.len(),
                });
            }
        }
        Ok(Coloring::from_rows(&rows))
    }

    /// Characters the decoders may disagree on: glyphs and non-glyphs,
    /// ASCII whitespace with and without the vertical tab, the
    /// information separators (not whitespace), CR, and non-ASCII
    /// whitespace and letters.
    const ALPHABET: [char; 30] = [
        '1', '2', '3', '9', 'a', 'k', 'z', '.', ' ', ' ', ' ', '\n', '\n', '\t', '\r', '\x0B',
        '\x0C', '\x1C', '\x1F', '0', 'A', '!', '\u{85}', '\u{A0}', '\u{2003}', '\u{2028}',
        '\u{3000}', 'é', '字', '\0',
    ];

    fn text_from(picks: &[usize]) -> String {
        picks
            .iter()
            .map(|&i| ALPHABET[i % ALPHABET.len()])
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// Arbitrary strings over the tricky alphabet decode to the same
        /// colouring or the same error, variant, row and column included.
        #[test]
        fn byte_decoder_matches_the_reference_on_arbitrary_text(
            picks in prop::collection::vec(0usize..ALPHABET.len(), 0..60),
        ) {
            let text = text_from(&picks);
            prop_assert_eq!(from_text(&text), from_text_reference(&text), "{:?}", text);
        }

        /// Near-valid grids: equal-width rows with mixed separators,
        /// blank lines and CRLF endings, optionally one row cut short and
        /// one cell replaced by an arbitrary character — so the success
        /// path, ragged rows and bad glyphs after them are all compared.
        #[test]
        fn byte_decoder_matches_the_reference_on_grids(
            rows in 1usize..6,
            cols in 1usize..6,
            cells in prop::collection::vec(0usize..8, 36),
            seps in prop::collection::vec(0usize..ALPHABET.len(), 36),
            cut in 0usize..12,
            corrupt in 0usize..80,
            junk in 0usize..ALPHABET.len(),
        ) {
            let mut text = String::new();
            for r in 0..rows {
                let width = if r == cut { cols - 1 } else { cols };
                for c in 0..width {
                    let i = r * cols + c;
                    if i == corrupt {
                        text.push(ALPHABET[junk]);
                    } else {
                        text.push(ALPHABET[cells[i]]);
                    }
                    let sep = ALPHABET[seps[i]];
                    text.push(if sep.is_whitespace() && sep != '\n' { sep } else { ' ' });
                }
                text.push_str(if r % 2 == 0 { "\n" } else { "\r\n" });
                if r == cut / 2 {
                    text.push_str(" \t\n");
                }
            }
            prop_assert_eq!(from_text(&text), from_text_reference(&text), "{:?}", text);
        }

        /// Canonical grids, as the renderer writes them, with one
        /// character replaced by an arbitrary one: the glyph or the
        /// separator of a cell before the last, or the last cell's glyph,
        /// in any row (the first row always takes the byte loop, later
        /// rows the canonical fast path).
        #[test]
        fn canonical_lines_match_the_reference_when_corrupted(
            rows in 1usize..5,
            cols in 1usize..40,
            cells in prop::collection::vec(0usize..8, 160),
            row in 0usize..5,
            class in 0usize..3,
            col in 0usize..40,
            junk in 0usize..ALPHABET.len(),
        ) {
            let mut lines: Vec<Vec<char>> = (0..rows)
                .map(|r| {
                    let mut line: Vec<char> = (0..cols)
                        .flat_map(|c| [ALPHABET[cells[r * cols + c]], ' '])
                        .collect();
                    line.pop();
                    line
                })
                .collect();
            // Offsets `2c` and `2c + 1` are cell `c`'s glyph and
            // separator; the last cell has no separator.
            let at = match class {
                0 if cols > 1 => 2 * (col % (cols - 1)),
                1 if cols > 1 => 2 * (col % (cols - 1)) + 1,
                _ => 2 * (cols - 1),
            };
            lines[row % rows][at] = ALPHABET[junk];
            let text: String = lines
                .iter()
                .map(|line| line.iter().collect::<String>() + "\n")
                .collect();
            prop_assert_eq!(from_text(&text), from_text_reference(&text), "{:?}", text);
        }
    }

    #[test]
    fn canonical_lines_report_the_reference_errors() {
        // Later rows take the canonical fast path; a bad glyph in a pair,
        // a bad separator and a bad last cell fall back to the byte loop.
        for (text, row, col, glyph) in [
            ("1 2 3\n1 X 3\n", 1, 1, 'X'),
            ("1 2 3\n1 2 3\n0 2 3\n", 2, 0, '0'),
            ("1 2 3\n1 2 A\n", 1, 2, 'A'),
            ("1 2 3\n1!2 3\n", 1, 1, '!'),
        ] {
            let expected = Err(ParseError::BadGlyph { glyph, row, col });
            assert_eq!(from_text(text), expected, "{text:?}");
            assert_eq!(from_text_reference(text), expected, "{text:?}");
        }
        // A non-canonical separator still separates.
        let tabbed = from_text("1 2 3\n1\t. z\n").unwrap();
        assert_eq!(tabbed.at(1, 1), Color::UNSET);
        assert_eq!(tabbed.at(1, 2), Color::new(MAX_GLYPH_COLOR));
        assert_eq!(
            from_text("1 2 3\n12 3\n"),
            from_text_reference("1 2 3\n12 3\n")
        );
    }

    #[test]
    fn bad_glyphs_win_over_earlier_ragged_rows() {
        let text = "1 2\n1\n1 X\n";
        assert_eq!(
            from_text(text),
            Err(ParseError::BadGlyph {
                glyph: 'X',
                row: 2,
                col: 1
            })
        );
        assert_eq!(from_text(text), from_text_reference(text));
        // The vertical tab separates glyphs like any other whitespace.
        assert_eq!(from_text("1\x0B2\n").unwrap().cols(), 2);
    }

    #[test]
    fn roundtrip() {
        let t = toroidal_mesh(3, 4);
        let mut c = Coloring::uniform(&t, Color::new(1));
        c.set_at(0, 0, Color::new(2));
        c.set_at(2, 3, Color::new(12)); // glyph 'c'
        let text = to_text(&c);
        let parsed = from_text(&text).unwrap();
        assert_eq!(parsed, c);
    }

    #[test]
    fn parses_paper_style_figure() {
        let text = "\
            2 2 2 2\n\
            2 1 3 1\n\
            2 1 4 1\n";
        let c = from_text(text).unwrap();
        assert_eq!(c.rows(), 3);
        assert_eq!(c.cols(), 4);
        assert_eq!(c.at(0, 0), Color::new(2));
        assert_eq!(c.at(2, 2), Color::new(4));
    }

    #[test]
    fn blank_lines_are_skipped() {
        let text = "1 1\n\n2 2\n";
        let c = from_text(text).unwrap();
        assert_eq!(c.rows(), 2);
    }

    #[test]
    fn errors_are_reported() {
        assert_eq!(from_text(""), Err(ParseError::Empty));
        assert!(matches!(
            from_text("1 1\n1\n"),
            Err(ParseError::RaggedRows { .. })
        ));
        assert!(matches!(
            from_text("1 X\n"),
            Err(ParseError::BadGlyph { glyph: 'X', .. })
        ));
        // glyph '0' is not a valid colour
        assert!(matches!(
            from_text("0 1\n"),
            Err(ParseError::BadGlyph { glyph: '0', .. })
        ));
    }

    #[test]
    fn error_display_messages() {
        let e = ParseError::RaggedRows {
            expected: 3,
            row: 2,
            got: 1,
        };
        assert!(e.to_string().contains("row 2"));
        let e = ParseError::BadGlyph {
            glyph: '!',
            row: 0,
            col: 1,
        };
        assert!(e.to_string().contains("'!'"));
    }

    #[test]
    fn max_glyph_colour_is_the_last_that_parses_back() {
        let last = Coloring::from_cells(1, 1, vec![Color::new(MAX_GLYPH_COLOR)]);
        assert_eq!(to_text(&last), "z\n");
        assert_eq!(from_text(&to_text(&last)).unwrap(), last);
        let past = Coloring::from_cells(1, 1, vec![Color::new(MAX_GLYPH_COLOR + 1)]);
        assert!(matches!(
            from_text(&to_text(&past)),
            Err(ParseError::BadGlyph { glyph: '#', .. })
        ));
    }

    #[test]
    fn unset_cells_roundtrip() {
        let text = "1 .\n. 2\n";
        let c = from_text(text).unwrap();
        assert!(c.has_unset_cells());
        assert_eq!(to_text(&c), "1 .\n. 2\n");
    }
}
