//! Name-based rule registry.
//!
//! Scenario descriptions (`RunSpec` in `ctori-engine`, and eventually a
//! service endpoint) select rules **by string**, so that a complete run is
//! plain data with a text form.  This module is the single place where
//! those strings are defined: [`parse`] resolves a rule name (plus optional
//! parenthesised parameters) to an [`AnyRule`], and [`canonical_name`]
//! renders any [`AnyRule`] back to the exact string [`parse`] accepts, so
//! the two functions round-trip.
//!
//! Recognised forms:
//!
//! | string | rule |
//! |--------|------|
//! | `smp` | [`SmpProtocol`] |
//! | `prefer-black` | [`ReverseSimpleMajority::prefer_black`] |
//! | `prefer-current` | [`ReverseSimpleMajority::prefer_current`] |
//! | `strong-majority` | [`ReverseStrongMajority`] |
//! | `irreversible-smp(K)` | [`Irreversible`]`<`[`SmpProtocol`]`>` locking colour `K` |
//! | `threshold(K,T)` | [`ThresholdRule`] activating colour `K` at threshold `T` |
//!
//! Colour parameters are the 1-based colour indices of
//! [`ctori_coloring::Color`].
//!
//! Every registered rule advertises its counting form
//! ([`crate::rule::LocalRule::as_color_count_rule`]) through the
//! [`AnyRule`] forwarders, so a scenario selected *by name* qualifies
//! for the engine's bit-plane lane exactly like one built from the
//! concrete rule type — lane auto-selection never depends on how the
//! rule was constructed.

use crate::irreversible::Irreversible;
use crate::majority::{ReverseSimpleMajority, ReverseStrongMajority, TieBreak};
use crate::rule::AnyRule;
use crate::smp::SmpProtocol;
use crate::threshold::ThresholdRule;
use ctori_coloring::Color;

/// Why a rule string failed to resolve.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum RuleParseError {
    /// The rule name is not in the registry.
    UnknownRule {
        /// The name that failed to resolve.
        name: String,
    },
    /// The rule name was recognised but its parameter list was malformed.
    BadParameters {
        /// The rule whose parameters were malformed.
        rule: &'static str,
        /// What was wrong with them.
        detail: String,
    },
}

impl std::fmt::Display for RuleParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuleParseError::UnknownRule { name } => {
                write!(f, "unknown rule {name:?}; known rules: ")?;
                for (i, known) in KNOWN_RULES.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    f.write_str(known)?;
                }
                Ok(())
            }
            RuleParseError::BadParameters { rule, detail } => {
                write!(f, "bad parameters for rule {rule}: {detail}")
            }
        }
    }
}

impl std::error::Error for RuleParseError {}

/// The rule forms [`parse`] accepts, for help texts and error messages.
pub const KNOWN_RULES: [&str; 6] = [
    "smp",
    "prefer-black",
    "prefer-current",
    "strong-majority",
    "irreversible-smp(K)",
    "threshold(K,T)",
];

/// Splits `name(a,b,c)` into `("name", ["a", "b", "c"])`; a bare `name`
/// yields an empty parameter list.
fn split_params(text: &str) -> (&str, Vec<&str>) {
    match text.find('(') {
        Some(open) if text.ends_with(')') => {
            let name = text[..open].trim();
            let inner = &text[open + 1..text.len() - 1];
            let params = inner.split(',').map(str::trim).collect();
            (name, params)
        }
        _ => (text.trim(), Vec::new()),
    }
}

fn color_param(rule: &'static str, raw: &str) -> Result<Color, RuleParseError> {
    let index: u16 = raw.parse().map_err(|_| RuleParseError::BadParameters {
        rule,
        detail: format!("{raw:?} is not a colour index"),
    })?;
    if index == 0 {
        return Err(RuleParseError::BadParameters {
            rule,
            detail: "colour indices are 1-based; 0 is the unset sentinel".into(),
        });
    }
    Ok(Color::new(index))
}

fn arity(rule: &'static str, params: &[&str], expected: usize) -> Result<(), RuleParseError> {
    if params.len() == expected {
        Ok(())
    } else {
        Err(RuleParseError::BadParameters {
            rule,
            detail: format!("expected {expected} parameter(s), got {}", params.len()),
        })
    }
}

/// Resolves a rule string to an [`AnyRule`].
pub fn parse(text: &str) -> Result<AnyRule, RuleParseError> {
    let (name, params) = split_params(text.trim());
    match name {
        "smp" => {
            arity("smp", &params, 0)?;
            Ok(AnyRule::Smp(SmpProtocol))
        }
        "prefer-black" => {
            arity("prefer-black", &params, 0)?;
            Ok(AnyRule::ReverseSimple(ReverseSimpleMajority::prefer_black()))
        }
        "prefer-current" => {
            arity("prefer-current", &params, 0)?;
            Ok(AnyRule::ReverseSimple(
                ReverseSimpleMajority::prefer_current(),
            ))
        }
        "strong-majority" => {
            arity("strong-majority", &params, 0)?;
            Ok(AnyRule::ReverseStrong(ReverseStrongMajority))
        }
        "irreversible-smp" => {
            arity("irreversible-smp", &params, 1)?;
            let target = color_param("irreversible-smp", params[0])?;
            Ok(AnyRule::IrreversibleSmp(Irreversible::new(
                SmpProtocol,
                target,
            )))
        }
        "threshold" => {
            arity("threshold", &params, 2)?;
            let active = color_param("threshold", params[0])?;
            let threshold: usize =
                params[1]
                    .parse()
                    .map_err(|_| RuleParseError::BadParameters {
                        rule: "threshold",
                        detail: format!("{:?} is not a threshold", params[1]),
                    })?;
            if threshold == 0 {
                return Err(RuleParseError::BadParameters {
                    rule: "threshold",
                    detail: "a zero threshold would activate everything at once".into(),
                });
            }
            Ok(AnyRule::Threshold(ThresholdRule::new(active, threshold)))
        }
        other => Err(RuleParseError::UnknownRule { name: other.into() }),
    }
}

/// Renders a rule as the exact string [`parse`] resolves back to it.
pub fn canonical_name(rule: &AnyRule) -> String {
    match rule {
        AnyRule::Smp(_) => "smp".into(),
        AnyRule::ReverseSimple(r) => match r.tie_break() {
            TieBreak::PreferBlack => "prefer-black".into(),
            TieBreak::PreferCurrent => "prefer-current".into(),
        },
        AnyRule::ReverseStrong(_) => "strong-majority".into(),
        AnyRule::IrreversibleSmp(r) => format!("irreversible-smp({})", r.target().index()),
        AnyRule::Threshold(r) => {
            format!("threshold({},{})", r.active_color().index(), r.threshold())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::LocalRule;

    #[test]
    fn every_known_form_parses_and_round_trips() {
        let examples = [
            "smp",
            "prefer-black",
            "prefer-current",
            "strong-majority",
            "irreversible-smp(3)",
            "threshold(2,2)",
        ];
        for text in examples {
            let rule = parse(text).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(canonical_name(&rule), text, "canonical form drifted");
            assert_eq!(parse(&canonical_name(&rule)), Ok(rule));
        }
    }

    #[test]
    fn parsed_rules_behave_like_their_constructors() {
        let c = |i| Color::new(i);
        let smp = parse("smp").unwrap();
        assert_eq!(smp.next_color(c(1), &[c(3), c(3), c(2), c(4)]), c(3));
        let threshold = parse("threshold(5,3)").unwrap();
        assert!(threshold.is_monotone_for(c(5)));
        let irr = parse("irreversible-smp(2)").unwrap();
        assert_eq!(irr.next_color(c(2), &[c(3), c(3), c(3), c(3)]), c(2));
    }

    /// Counting-form capability is what routes a *name-selected* scenario
    /// onto the bit-plane lane, so a regression here silently drops parsed
    /// `RunSpec`s back to the generic stepper.  Prefer-black is pinned to
    /// its black tie-break, the one form that depends on which colour is
    /// black rather than on counts alone.
    #[test]
    fn registered_rules_advertise_their_counting_form() {
        use crate::capability::ColorCountRule;
        let expected = [
            ("smp", ColorCountRule::plurality(2)),
            (
                "prefer-black",
                ColorCountRule::plurality(2).with_tie_to(Color::BLACK),
            ),
            ("prefer-current", ColorCountRule::plurality(2)),
            ("strong-majority", ColorCountRule::plurality(3)),
            (
                "irreversible-smp(3)",
                ColorCountRule::plurality(2).with_locked(Color::new(3)),
            ),
            (
                "threshold(2,2)",
                ColorCountRule::activation(Color::new(2), 2),
            ),
        ];
        for (text, form) in expected {
            let rule = parse(text).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(rule.as_color_count_rule(), Some(form), "{text}");
        }
    }

    #[test]
    fn whitespace_is_tolerated() {
        assert_eq!(parse("  smp  "), parse("smp"));
        assert_eq!(parse("threshold( 2 , 4 )"), parse("threshold(2,4)"));
    }

    #[test]
    fn errors_are_specific() {
        assert!(matches!(
            parse("majority"),
            Err(RuleParseError::UnknownRule { .. })
        ));
        assert!(matches!(
            parse("threshold(2)"),
            Err(RuleParseError::BadParameters { .. })
        ));
        assert!(matches!(
            parse("threshold(0,2)"),
            Err(RuleParseError::BadParameters { .. })
        ));
        assert!(matches!(
            parse("threshold(2,0)"),
            Err(RuleParseError::BadParameters { .. })
        ));
        assert!(matches!(
            parse("irreversible-smp(x)"),
            Err(RuleParseError::BadParameters { .. })
        ));
        assert!(parse("smp(1)").is_err());
        let message = parse("nope").unwrap_err().to_string();
        assert!(message.contains("smp"), "error lists known rules");
    }
}
