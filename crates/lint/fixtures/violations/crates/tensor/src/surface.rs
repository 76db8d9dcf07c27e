//! Surface fixture: each `pub` value item below is checked against the
//! names every other file uses.

/// Flagged: only this file's own tests call it.
pub fn only_self_tested(x: f64) -> f64 {
    x.abs()
}

/// Flagged: other files name it only in a comment or prose.
pub const ONLY_IN_COMMENTS: usize = 3;

/// Not flagged: another crate's `src` calls it.
pub fn used_from_other_crate() -> u32 {
    1
}

/// Not flagged: a `tests/` file calls it.
pub fn used_from_tests() -> Estimate {
    Estimate(2)
}

/// Not flagged: a Rust block of `docs/SCENARIOS.md` calls it.
pub fn used_from_scenarios() -> u32 {
    3
}

/// Not flagged: a type reaches its callers as a return type, unnamed.
pub struct Estimate(pub u32);

/// Not flagged: `pub(crate)` is not public surface.
pub(crate) fn crate_private() -> u32 {
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_test() {
        assert_eq!(only_self_tested(-1.0), 1.0);
    }
}
