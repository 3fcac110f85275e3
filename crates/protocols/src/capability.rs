//! Rule capabilities: static structure the engine can exploit.
//!
//! Every rule in this crate is a pure function of a vertex's own colour and
//! its neighbours' colours, but several of them have much more structure
//! than the generic [`crate::LocalRule::next_color`] signature exposes:
//! they depend on the neighbourhood only through per-colour neighbour
//! counts.  [`ColorCountRule`] is the declarative description of that
//! counting form; rules advertise it through
//! [`crate::LocalRule::as_color_count_rule`] and the engine compiles it
//! against the concrete palette **once** at simulator construction, so the
//! bit-plane lane's hot loop never touches the rule object.

use ctori_coloring::Color;

/// The counting core of a rule over an **arbitrary** palette.
///
/// Marked `#[non_exhaustive]`: future protocols may add plane-evaluable
/// forms (weighted counts, per-colour thresholds), so downstream `match`es
/// must keep a wildcard arm.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ColorCountForm {
    /// Adopt the colour held by a **unique strict plurality** of at least
    /// `min_pair` neighbours; keep the current colour on ties or when no
    /// colour reaches `min_pair` (the SMP-Protocol with `min_pair = 2`).
    /// [`ColorCountRule::with_tie_to`] resolves ties towards one colour
    /// instead.
    Plurality {
        /// Minimum multiplicity the winning colour must reach.
        min_pair: u32,
    },
    /// Monotone activation: a non-`active` vertex adopts `active` once at
    /// least `threshold` neighbours hold it; `active` is never dropped.
    Activation {
        /// The spreading colour.
        active: Color,
        /// How many `active` neighbours trigger adoption.
        threshold: u32,
    },
}

/// Declarative description of a rule as a pure function of **per-colour
/// neighbour counts**, valid on any palette.
///
/// This is the form the engine's **bit-plane lane** evaluates with
/// per-plane popcounts: a rule returning one of these from
/// [`crate::LocalRule::as_color_count_rule`] promises that its
/// [`next_color`](crate::LocalRule::next_color) depends on the
/// neighbourhood only through the multiset of neighbour colours, exactly
/// as [`ColorCountRule::next_color`] computes it — for every palette and
/// every degree.  The engine verifies nothing; the property tests in
/// `tests/stepper_equivalence.rs` pin the equivalence for every rule in
/// the workspace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ColorCountRule {
    form: ColorCountForm,
    /// A colour whose holders never change again (the irreversible
    /// wrapper's target).
    locked: Option<Color>,
    /// The colour a plurality tie resolves to when it is among the tied
    /// colours (the Prefer-Black tie-break of \[15\]).
    tie_to: Option<Color>,
}

impl ColorCountRule {
    /// A unique-plurality rule requiring at least `min_pair`
    /// equal-coloured neighbours (the SMP-Protocol with `min_pair = 2`).
    pub fn plurality(min_pair: u32) -> Self {
        ColorCountRule {
            form: ColorCountForm::Plurality { min_pair },
            locked: None,
            tie_to: None,
        }
    }

    /// Monotone activation at `threshold` active neighbours (the linear
    /// threshold rule on any palette: every non-`active` colour is
    /// inactive).
    pub fn activation(active: Color, threshold: u32) -> Self {
        ColorCountRule {
            form: ColorCountForm::Activation { active, threshold },
            locked: None,
            tie_to: None,
        }
    }

    /// Locks `color`: a vertex holding it never changes again (the
    /// irreversible wrapper).
    pub fn with_locked(mut self, color: Color) -> Self {
        self.locked = Some(color);
        self
    }

    /// Resolves plurality ties towards `color`: when two or more colours
    /// tie for the plurality at `min_pair` or more neighbours and `color`
    /// is one of them, the vertex adopts `color` (the Prefer-Black
    /// tie-break of \[15\]).  Activation forms have no ties and ignore it.
    pub fn with_tie_to(mut self, color: Color) -> Self {
        if let ColorCountForm::Plurality { .. } = self.form {
            self.tie_to = Some(color);
        }
        self
    }

    /// The counting form the engine compiles into plane operations.
    pub fn form(&self) -> ColorCountForm {
        self.form
    }

    /// The locked colour, if any.
    pub fn locked(&self) -> Option<Color> {
        self.locked
    }

    /// The colour plurality ties resolve to, if any.
    pub fn tie_to(&self) -> Option<Color> {
        self.tie_to
    }

    /// Reference evaluation against per-colour neighbour counts.
    ///
    /// `counts` holds one `(colour, multiplicity)` entry per distinct
    /// neighbour colour (order irrelevant; zero entries allowed).  This is
    /// the semantics the bit-plane kernel must reproduce; the engine's
    /// scalar fallback calls it directly.
    pub fn next_color(&self, own: Color, counts: &[(Color, u32)]) -> Color {
        if self.locked == Some(own) {
            return own;
        }
        match self.form {
            ColorCountForm::Plurality { min_pair } => {
                let mut leader: Option<(Color, u32)> = None;
                let mut tied = false;
                for &(c, n) in counts {
                    if n == 0 {
                        continue;
                    }
                    match leader {
                        Some((_, best)) if n > best => {
                            leader = Some((c, n));
                            tied = false;
                        }
                        Some((_, best)) if n == best => tied = true,
                        None => leader = Some((c, n)),
                        _ => {}
                    }
                }
                match leader {
                    Some((c, n)) if !tied && n >= min_pair => c,
                    // A tie at `min_pair` or more resolves to the tie
                    // colour when it is one of the leaders.
                    Some((_, n)) if n >= min_pair => match self.tie_to {
                        Some(t) if counts.iter().any(|&(c, m)| c == t && m == n) => t,
                        _ => own,
                    },
                    _ => own,
                }
            }
            ColorCountForm::Activation { active, threshold } => {
                if own == active {
                    return own;
                }
                let active_neighbors = counts
                    .iter()
                    .find(|&&(c, _)| c == active)
                    .map(|&(_, n)| n)
                    .unwrap_or(0);
                if active_neighbors >= threshold {
                    active
                } else {
                    own
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(i: u16) -> Color {
        Color::new(i)
    }

    #[test]
    fn color_count_plurality_matches_the_smp_patterns() {
        let rule = ColorCountRule::plurality(2);
        // 4-0, 3-1, 2-1-1: unique plurality of >= 2 adopts.
        assert_eq!(rule.next_color(c(1), &[(c(5), 4)]), c(5));
        assert_eq!(rule.next_color(c(1), &[(c(3), 3), (c(2), 1)]), c(3));
        assert_eq!(
            rule.next_color(c(1), &[(c(4), 2), (c(2), 1), (c(3), 1)]),
            c(4)
        );
        // 2-2 and 1-1-1-1: ties keep the current colour.
        assert_eq!(rule.next_color(c(1), &[(c(2), 2), (c(3), 2)]), c(1));
        assert_eq!(
            rule.next_color(c(9), &[(c(1), 1), (c(2), 1), (c(3), 1), (c(4), 1)]),
            c(9)
        );
        // Zero-count entries are ignored, empty neighbourhoods keep.
        assert_eq!(rule.next_color(c(1), &[(c(2), 0)]), c(1));
        assert_eq!(rule.next_color(c(1), &[]), c(1));
        assert_eq!(rule.form(), ColorCountForm::Plurality { min_pair: 2 });
        assert_eq!(rule.locked(), None);
        assert_eq!(rule.tie_to(), None);
    }

    #[test]
    fn tie_to_resolves_degree_four_ties_involving_its_colour() {
        let black = Color::BLACK;
        let white = Color::WHITE;
        let rule = ColorCountRule::plurality(2).with_tie_to(black);
        assert_eq!(rule.tie_to(), Some(black));
        // 2-2 with black: black, whatever the vertex holds.
        assert_eq!(rule.next_color(white, &[(black, 2), (white, 2)]), black);
        assert_eq!(rule.next_color(c(5), &[(white, 2), (black, 2)]), black);
        // 2-2 without black: keep the current colour.
        assert_eq!(rule.next_color(white, &[(c(3), 2), (c(4), 2)]), white);
        // 3-1: the unique plurality wins, even against black.
        assert_eq!(rule.next_color(black, &[(white, 3), (black, 1)]), white);
        assert_eq!(rule.next_color(white, &[(black, 3), (white, 1)]), black);
        // 1-1-1-1 never reaches min_pair, so a singleton tie stays put.
        assert_eq!(
            rule.next_color(c(9), &[(black, 1), (white, 1), (c(3), 1), (c(4), 1)]),
            c(9)
        );
    }

    #[test]
    fn tie_to_resolves_ties_at_any_degree() {
        let black = Color::BLACK;
        let rule = ColorCountRule::plurality(2).with_tie_to(black);
        // Degree 6, 3-3: black when black is one of the two.
        assert_eq!(rule.next_color(c(1), &[(black, 3), (c(1), 3)]), black);
        assert_eq!(rule.next_color(c(1), &[(c(3), 3), (c(1), 3)]), c(1));
        // Degree 6, 2-2-2: black when black is among the leaders...
        assert_eq!(
            rule.next_color(c(1), &[(c(3), 2), (black, 2), (c(1), 2)]),
            black
        );
        assert_eq!(
            rule.next_color(c(1), &[(c(3), 2), (c(4), 2), (c(1), 2)]),
            c(1)
        );
        // ...but not when it trails them (3-2-1).
        assert_eq!(
            rule.next_color(c(1), &[(c(3), 3), (black, 2), (c(1), 1)]),
            c(3)
        );
        // A tie below min_pair stays a non-decision.
        let strict = ColorCountRule::plurality(4).with_tie_to(black);
        assert_eq!(strict.next_color(c(1), &[(black, 3), (c(3), 3)]), c(1));
        // Activation forms have no ties to resolve.
        let activation = ColorCountRule::activation(c(2), 2).with_tie_to(black);
        assert_eq!(activation.tie_to(), None);
    }

    #[test]
    fn color_count_activation_counts_only_the_active_color() {
        let rule = ColorCountRule::activation(c(2), 2);
        assert_eq!(rule.next_color(c(1), &[(c(2), 2), (c(3), 2)]), c(2));
        assert_eq!(rule.next_color(c(1), &[(c(2), 1), (c(3), 3)]), c(1));
        // Active vertices never change, regardless of the neighbourhood.
        assert_eq!(rule.next_color(c(2), &[(c(3), 4)]), c(2));
        // No active colour in sight: nothing moves.
        assert_eq!(rule.next_color(c(1), &[(c(3), 4)]), c(1));
    }

    #[test]
    fn color_count_locking_freezes_holders() {
        let rule = ColorCountRule::plurality(2).with_locked(c(7));
        assert_eq!(rule.locked(), Some(c(7)));
        // A locked holder keeps its colour against a unanimous vote.
        assert_eq!(rule.next_color(c(7), &[(c(3), 4)]), c(7));
        // Other vertices follow the plurality as usual (including into
        // the locked colour).
        assert_eq!(rule.next_color(c(1), &[(c(7), 3), (c(2), 1)]), c(7));
    }
}
