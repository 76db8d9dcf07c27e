//! Surface fixture: a use from another crate's `src`. `ONLY_IN_COMMENTS`
//! is named here only in this comment, and `only_self_tested` only in a
//! string literal.

fn call_across() -> u32 {
    let _ = "only_self_tested";
    dpbyz_tensor::surface::used_from_other_crate()
}
