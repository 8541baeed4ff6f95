//! Typed name-lookup errors with near-miss suggestions.
//!
//! The simulators expose name-keyed query APIs (`set_input("enbale", 1)`)
//! that designers drive interactively from testbenches; a raw panic with
//! no hint is hostile there. [`LookupError`] carries the kind of thing
//! that was looked up, the name that missed, and — when a candidate is
//! close in edit distance — a "did you mean" suggestion. The switch
//! simulator's `try_*` entry points return it; the word- and gate-level
//! simulators and the shadow co-simulator panic with it ([`missing`]),
//! so even the panic path names the nearest candidate.

use std::error::Error;
use std::fmt;

/// A failed lookup of a named entity (input, output, register, CAM,
/// clock, net...).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LookupError {
    /// What kind of thing was being looked up ("input", "net", ...).
    pub kind: &'static str,
    /// The name that was not found.
    pub name: String,
    /// The closest existing name, when one is plausibly a typo away.
    pub suggestion: Option<String>,
}

impl LookupError {
    /// Builds an error, scanning `candidates` for a near miss.
    pub fn new<'a>(
        kind: &'static str,
        name: &str,
        candidates: impl IntoIterator<Item = &'a str>,
    ) -> LookupError {
        LookupError {
            kind,
            name: name.to_string(),
            suggestion: nearest(name, candidates),
        }
    }
}

impl fmt::Display for LookupError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "no {} named `{}`", self.kind, self.name)?;
        if let Some(s) = &self.suggestion {
            write!(f, "; did you mean `{s}`?")?;
        }
        Ok(())
    }
}

impl Error for LookupError {}

/// Panics with the [`LookupError`] for a name that missed.
pub fn missing<'a>(
    kind: &'static str,
    name: &str,
    candidates: impl IntoIterator<Item = &'a str>,
) -> ! {
    panic!("{}", LookupError::new(kind, name, candidates))
}

/// Levenshtein edit distance (insertions, deletions, substitutions).
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() {
        return b.len();
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// The candidate closest to `name`, if close enough to plausibly be a
/// typo: within an edit budget of one third of the query length
/// (minimum 1, so single-character names still get suggestions). Ties
/// break toward the earliest candidate, keeping the suggestion stable.
pub fn nearest<'a>(name: &str, candidates: impl IntoIterator<Item = &'a str>) -> Option<String> {
    let budget = (name.chars().count() / 3).max(1);
    let mut best: Option<(usize, &str)> = None;
    for c in candidates {
        let d = edit_distance(name, c);
        if d <= budget && best.is_none_or(|(bd, _)| d < bd) {
            best = Some((d, c));
        }
    }
    best.map(|(_, c)| c.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("", ""), 0);
        assert_eq!(edit_distance("abc", "abc"), 0);
        assert_eq!(edit_distance("abc", ""), 3);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
        assert_eq!(edit_distance("clk", "ck"), 1);
    }

    #[test]
    fn nearest_suggests_within_budget() {
        let names = ["reset", "enable", "carry_in"];
        assert_eq!(nearest("enbale", names), Some("enable".into()));
        assert_eq!(nearest("carry_on", names), Some("carry_in".into()));
        // Too far from everything: no suggestion.
        assert_eq!(nearest("zzz", names), None);
    }

    #[test]
    fn nearest_tie_breaks_to_first() {
        assert_eq!(nearest("ab", ["ax", "ay"]), Some("ax".into()));
    }

    #[test]
    fn display_with_and_without_suggestion() {
        let e = LookupError::new("input", "enbale", ["enable"]);
        assert_eq!(
            e.to_string(),
            "no input named `enbale`; did you mean `enable`?"
        );
        let e = LookupError::new("input", "q", []);
        assert_eq!(e.to_string(), "no input named `q`");
    }
}
