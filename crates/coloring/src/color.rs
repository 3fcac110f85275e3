//! Colours and palettes.
//!
//! The paper's colour set is `C = {1, …, k}`.  We keep colours 1-based to
//! match the paper's notation (colour `1` is "white" and colour `2` is
//! "black" in the bi-coloured setting of Proposition 1), backed by a `u16`
//! so a colouring of a large torus stays compact.

/// A colour from the finite set `C = {1, …, k}`.
///
/// The value 0 is reserved as "uncoloured" sentinel used only inside
/// builders; a fully-built [`crate::Coloring`] never contains it.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Color(pub u16);

impl Color {
    /// The "uncoloured" sentinel used by builders.
    pub const UNSET: Color = Color(0);

    /// Colour 1 — the paper's "white" in the bi-coloured setting.
    pub const WHITE: Color = Color(1);

    /// Colour 2 — the paper's "black" in the bi-coloured setting.
    pub const BLACK: Color = Color(2);

    /// Creates a colour with the given 1-based index.
    ///
    /// # Panics
    ///
    /// Panics if `index == 0`; use [`Color::UNSET`] for the sentinel.
    #[inline]
    pub fn new(index: u16) -> Self {
        assert!(
            index > 0,
            "colour indices are 1-based; 0 is the unset sentinel"
        );
        Color(index)
    }

    /// The raw 1-based index.
    #[inline]
    pub fn index(self) -> u16 {
        self.0
    }

    /// Whether this is the unset sentinel.
    #[inline]
    pub fn is_unset(self) -> bool {
        self.0 == 0
    }

    /// A single-character label for rendering: `1..=9` then `a..=z`, `#`
    /// beyond that, `.` for unset.
    pub const fn glyph(self) -> char {
        match self.0 {
            0 => '.',
            1..=9 => (b'0' + self.0 as u8) as char,
            10..=35 => (b'a' + (self.0 - 10) as u8) as char,
            _ => '#',
        }
    }
}

impl std::fmt::Display for Color {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_unset() {
            f.write_str("unset")
        } else {
            write!(f, "c{}", self.0)
        }
    }
}

/// The finite colour set `C = {1, …, k}`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Palette {
    size: u16,
}

impl Palette {
    /// Creates the palette `{1, …, size}`.
    ///
    /// # Panics
    ///
    /// Panics if `size == 0` — the paper always has at least one colour.
    pub fn new(size: u16) -> Self {
        assert!(size >= 1, "a palette needs at least one colour");
        Palette { size }
    }

    /// The bi-coloured palette `{white, black}` of the baseline rules.
    pub fn bicolor() -> Self {
        Palette::new(2)
    }

    /// Number of colours `|C|`.
    #[inline]
    pub fn size(&self) -> u16 {
        self.size
    }

    /// Whether the palette contains the colour.
    #[inline]
    pub fn contains(&self, c: Color) -> bool {
        c.0 >= 1 && c.0 <= self.size
    }

    /// Iterates over all colours `1..=size`.
    pub fn colors(&self) -> impl Iterator<Item = Color> + '_ {
        (1..=self.size).map(Color)
    }

    /// Iterates over all colours except `excluded` (the paper's
    /// `C \ {k}`).
    pub fn colors_except(&self, excluded: Color) -> impl Iterator<Item = Color> + '_ {
        self.colors().filter(move |&c| c != excluded)
    }

    /// The first colour of the palette different from every colour in
    /// `used`, if any.
    pub fn first_unused(&self, used: &[Color]) -> Option<Color> {
        self.colors().find(|c| !used.contains(c))
    }
}

impl std::fmt::Display for Palette {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "C = {{1, …, {}}}", self.size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn colors_are_one_based() {
        let c = Color::new(3);
        assert_eq!(c.index(), 3);
        assert!(!c.is_unset());
        assert!(Color::UNSET.is_unset());
        assert_eq!(Color::WHITE, Color::new(1));
        assert_eq!(Color::BLACK, Color::new(2));
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn zero_color_panics() {
        let _ = Color::new(0);
    }

    #[test]
    fn glyphs() {
        assert_eq!(Color::UNSET.glyph(), '.');
        assert_eq!(Color::new(1).glyph(), '1');
        assert_eq!(Color::new(9).glyph(), '9');
        assert_eq!(Color::new(10).glyph(), 'a');
        assert_eq!(Color::new(35).glyph(), 'z');
        assert_eq!(Color::new(36).glyph(), '#');
    }

    #[test]
    fn palette_membership_and_iteration() {
        let p = Palette::new(4);
        assert_eq!(p.size(), 4);
        assert!(p.contains(Color::new(1)));
        assert!(p.contains(Color::new(4)));
        assert!(!p.contains(Color::new(5)));
        assert!(!p.contains(Color::UNSET));
        let all: Vec<u16> = p.colors().map(Color::index).collect();
        assert_eq!(all, vec![1, 2, 3, 4]);
        let rest: Vec<u16> = p.colors_except(Color::new(2)).map(Color::index).collect();
        assert_eq!(rest, vec![1, 3, 4]);
    }

    #[test]
    fn first_unused_color() {
        let p = Palette::new(3);
        assert_eq!(p.first_unused(&[]), Some(Color::new(1)));
        assert_eq!(
            p.first_unused(&[Color::new(1), Color::new(2)]),
            Some(Color::new(3))
        );
        assert_eq!(
            p.first_unused(&[Color::new(1), Color::new(2), Color::new(3)]),
            None
        );
    }

    #[test]
    #[should_panic(expected = "at least one colour")]
    fn empty_palette_panics() {
        let _ = Palette::new(0);
    }

    #[test]
    fn display() {
        assert_eq!(Color::new(5).to_string(), "c5");
        assert_eq!(Color::UNSET.to_string(), "unset");
        assert_eq!(Palette::new(3).to_string(), "C = {1, …, 3}");
    }
}
