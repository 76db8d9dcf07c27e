//! `dpbyz-lint` — the workspace invariant analyzer.
//!
//! The compiler cannot see the three properties this repo's correctness
//! rests on:
//!
//! 1. **determinism** — every engine must replay bit-identically from a
//!    seed (golden digests); a single `Instant::now()` or `HashMap`
//!    iteration in the round path silently breaks it;
//! 2. **zero-copy** — the per-round hot path must not allocate at steady
//!    state (pinned dynamically by the counting allocator; enforced
//!    statically here inside `lint:begin(zero-copy)` regions);
//! 3. **panic-freedom** — bytes a remote peer controls must surface
//!    typed errors (`MessageError`), never a panic, in
//!    `crates/net`'s protocol/coordinator/worker files.
//!
//! Plus **registry hygiene**: component id literals must be registered
//! exactly once, and every id `docs/SCENARIOS.md` documents must exist;
//! and **surface hygiene**: every `pub fn`/`pub const`/`pub static` in
//! `crates/*/src` is named by some other file of the workspace.
//!
//! The analyzer is a hand-rolled tokenizer plus token-pattern rules (the
//! build is offline, so `syn` is unavailable) — see [`rules`] for the
//! registry and [`source`] for the `// lint:` directive grammar. Run it
//! as `cargo run --release -p dpbyz-lint -- --check`; violations need an
//! inline `// lint:allow(<rule>, reason = "..")` with a non-empty reason.

pub mod engine;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod source;

pub use engine::{analyze_workspace, find_workspace_root, Analysis};

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (see [`rules::ALL_RULES`]).
    pub rule: String,
    /// Path relative to the workspace root, forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// Human-readable explanation.
    pub message: String,
}
