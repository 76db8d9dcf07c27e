//! The rule registry: what each invariant rule means, where it applies,
//! and the token-level checkers that enforce it.
//!
//! Rules are scoped two ways:
//!
//! * **by path** — the deterministic core (`RoundStateMachine`, the GAR
//!   crate, the trainer/metrics digest paths, the tensor kernels) and the
//!   hostile-input surface (`crates/net`'s protocol/coordinator/worker)
//!   are fixed path sets;
//! * **by region** — the zero-copy rule only fires between
//!   `// lint:begin(zero-copy)` and `// lint:end(zero-copy)` markers,
//!   which the hot paths (GAR `aggregate_into` bodies, the server round
//!   loop, the wire codecs) carry in-source;
//! * **across files** — the registry rules and [`RULE_UNREFERENCED`]
//!   reconcile what each file declares with what the others use.
//!
//! Every rule is waivable in place with
//! `// lint:allow(<rule>, reason = "..")` except [`RULE_MARKER`], which
//! reports directive mistakes (a waiver that cannot be trusted must not
//! be able to waive itself).

use crate::lexer::{TokKind, Token};
use crate::source::SourceFile;
use crate::Finding;
use std::collections::BTreeSet;

/// Determinism: no wall-clock reads (`Instant::now`, `SystemTime`) in the
/// pure state machine / aggregation scope.
pub const RULE_WALL_CLOCK: &str = "determinism-wall-clock";
/// Determinism: no ambient randomness (`thread_rng`, `OsRng`,
/// `from_entropy`, `RandomState`) — every RNG stream must be seeded.
pub const RULE_AMBIENT_RNG: &str = "determinism-ambient-rng";
/// Determinism: no `HashMap`/`HashSet` — their iteration order is
/// unspecified, which silently breaks golden digests.
pub const RULE_UNORDERED_MAP: &str = "determinism-unordered-map";
/// Zero-copy: no allocating calls inside `lint:begin(zero-copy)` regions.
pub const RULE_ZERO_COPY: &str = "zero-copy-alloc";
/// Panic-freedom: no `unwrap`/`expect` in non-test library code.
pub const RULE_UNWRAP: &str = "panic-unwrap";
/// Panic-freedom: no `panic!`-family macros on the hostile-input surface.
pub const RULE_EXPLICIT_PANIC: &str = "panic-explicit";
/// Panic-freedom: no unchecked indexing/slicing on the hostile-input
/// surface — wire bytes must be accessed through `get`/typed decoders.
pub const RULE_INDEXING: &str = "panic-indexing";
/// Registry hygiene: a component id string registered at two sites.
pub const RULE_DUPLICATE_ID: &str = "registry-duplicate-id";
/// Registry hygiene: an id documented in `docs/SCENARIOS.md` that no
/// crate registers.
pub const RULE_DOC_ID: &str = "registry-doc-id";
/// Surface hygiene: a `pub fn`, `pub const` or `pub static` in
/// `crates/*/src` whose name no other file uses.
pub const RULE_UNREFERENCED: &str = "surface-unreferenced";
/// Directive hygiene: malformed waivers, unknown rules/regions,
/// unbalanced markers. Never waivable.
pub const RULE_MARKER: &str = "lint-marker";

/// Every rule id, in reporting order.
pub const ALL_RULES: &[&str] = &[
    RULE_WALL_CLOCK,
    RULE_AMBIENT_RNG,
    RULE_UNORDERED_MAP,
    RULE_ZERO_COPY,
    RULE_UNWRAP,
    RULE_EXPLICIT_PANIC,
    RULE_INDEXING,
    RULE_DUPLICATE_ID,
    RULE_DOC_ID,
    RULE_UNREFERENCED,
    RULE_MARKER,
];

/// Region names the `lint:begin`/`lint:end` markers may open.
pub const ALL_REGIONS: &[&str] = &["zero-copy"];

/// One-line human description per rule (for `--list-rules` and docs).
pub fn rule_summary(rule: &str) -> &'static str {
    match rule {
        RULE_WALL_CLOCK => "no wall-clock reads in deterministic modules",
        RULE_AMBIENT_RNG => "no ambient (unseeded) randomness in deterministic modules",
        RULE_UNORDERED_MAP => "no HashMap/HashSet in digest-bearing modules",
        RULE_ZERO_COPY => "no allocating calls inside lint:begin(zero-copy) regions",
        RULE_UNWRAP => "no unwrap/expect in non-test library code",
        RULE_EXPLICIT_PANIC => "no panic!-family macros on the hostile-input surface",
        RULE_INDEXING => "no unchecked indexing/slicing on the hostile-input surface",
        RULE_DUPLICATE_ID => "component id string registered at more than one site",
        RULE_DOC_ID => "id documented in docs/SCENARIOS.md but registered nowhere",
        RULE_UNREFERENCED => "pub fn/const/static that no other file names",
        RULE_MARKER => "malformed lint directive (never waivable)",
        _ => "unknown rule",
    }
}

/// Path scope of the determinism rules: the pure round state machine,
/// the transport-generic drive loop, the coordinator session handler
/// both transports share, the seeded chaos simulator, the wire codec (its windowed `GradGuard` decides staleness admission —
/// any wall-clock or ambient-RNG leak there would break replay), every
/// GAR, the trainer round loop, the metrics/digest layer, and the
/// tensor kernels under all of them.
const DETERMINISM_SCOPE: &[&str] = &[
    "crates/net/src/machine.rs",
    "crates/net/src/protocol.rs",
    "crates/net/src/session.rs",
    "crates/net/src/sim.rs",
    "crates/net/src/transport.rs",
    "crates/gars/src/",
    "crates/server/src/trainer.rs",
    "crates/server/src/metrics.rs",
    "crates/tensor/src/",
];

/// Path scope of the hostile-input panic rules: the files that parse
/// bytes a remote peer controls — the codec, the one session handler
/// (for both transports), and the two socket endpoints.
const HOSTILE_INPUT_SCOPE: &[&str] = &[
    "crates/net/src/protocol.rs",
    "crates/net/src/session.rs",
    "crates/net/src/coordinator.rs",
    "crates/net/src/worker.rs",
];

/// Path scope of the workspace-wide unwrap sweep: all library sources.
/// `src/bin/` entry points are exempt (a CLI may exit on bad argv), as
/// are benches/tests/examples (not walked at all).
const UNWRAP_SCOPE: &[&str] = &["crates/"];
const UNWRAP_EXEMPT: &[&str] = &["/src/bin/"];

fn in_scope(rel_path: &str, scope: &[&str]) -> bool {
    scope.iter().any(|p| rel_path.starts_with(p))
}

/// Does `rule` apply to this file at all? (Cheap pre-filter; the zero-copy
/// rule additionally requires a region.)
pub fn rule_applies(rule: &str, rel_path: &str) -> bool {
    match rule {
        RULE_WALL_CLOCK | RULE_AMBIENT_RNG | RULE_UNORDERED_MAP => {
            in_scope(rel_path, DETERMINISM_SCOPE)
        }
        RULE_ZERO_COPY => true,
        RULE_UNWRAP => {
            in_scope(rel_path, UNWRAP_SCOPE) && !UNWRAP_EXEMPT.iter().any(|e| rel_path.contains(e))
        }
        RULE_EXPLICIT_PANIC | RULE_INDEXING => in_scope(rel_path, HOSTILE_INPUT_SCOPE),
        _ => true,
    }
}

/// A component-id registration site, collected per file and reconciled
/// across the workspace by the engine.
#[derive(Debug, Clone)]
pub struct Registration {
    /// The id string literal.
    pub id: String,
    /// File of the call site.
    pub file: String,
    /// Line of the id literal.
    pub line: usize,
    /// Column of the id literal.
    pub col: usize,
}

/// Functions whose first string-literal argument is a component id being
/// *registered* (not merely referenced).
const REGISTER_FNS: &[&str] = &[
    "register",
    "seed",
    "register_gar",
    "register_attack",
    "register_mechanism",
    "register_mechanism_with",
    "register_scenario_pack_with",
];

/// Runs every per-file rule over `file`, appending findings and
/// registration sites.
pub fn check_file(file: &SourceFile, findings: &mut Vec<Finding>, regs: &mut Vec<Registration>) {
    // Indices of non-comment, non-test tokens — the live code stream.
    let code: Vec<usize> = (0..file.tokens.len())
        .filter(|&i| !file.tokens[i].is_comment() && !file.in_test[i])
        .collect();
    let tok = |k: usize| -> Option<&Token> { code.get(k).map(|&i| &file.tokens[i]) };
    let path = file.rel_path.as_str();

    let determinism = in_scope(path, DETERMINISM_SCOPE);
    let hostile = in_scope(path, HOSTILE_INPUT_SCOPE);
    let unwrap_scope = rule_applies(RULE_UNWRAP, path);

    let mut push = |rule: &str, t: &Token, message: String| {
        findings.push(Finding {
            rule: rule.to_string(),
            file: path.to_string(),
            line: t.line,
            col: t.col,
            message,
        });
    };

    for k in 0..code.len() {
        let Some(t) = tok(k) else { break };
        let prev = k.checked_sub(1).and_then(&tok);
        let next = tok(k + 1);

        if determinism {
            check_determinism(t, k, &tok, &mut push);
        }

        // Zero-copy: any file, but only inside a marked region.
        if t.kind == TokKind::Ident && file.in_region("zero-copy", t.line) {
            check_zero_copy(t, prev, next, &mut push);
        }

        // panic-unwrap: `.unwrap()` / `.expect(` method calls.
        if unwrap_scope
            && t.kind == TokKind::Ident
            && matches!(
                t.text.as_str(),
                "unwrap" | "expect" | "unwrap_err" | "expect_err"
            )
            && prev.is_some_and(|p| p.is_punct('.'))
            && next.is_some_and(|n| n.is_punct('('))
        {
            push(
                RULE_UNWRAP,
                t,
                format!(
                    "`.{}()` in non-test library code — convert to a typed error \
                     or waive with a reason",
                    t.text
                ),
            );
        }

        if hostile {
            check_hostile_input(t, prev, next, &mut push);
        }

        // Registration sites: `register*("id", ..)` with a literal id.
        if t.kind == TokKind::Ident
            && REGISTER_FNS.contains(&t.text.as_str())
            && prev.is_none_or(|p| !p.is_ident("fn"))
            && next.is_some_and(|n| n.is_punct('('))
        {
            // Plain `.register`/`.seed` must be method calls to count.
            let method_ok = !matches!(t.text.as_str(), "register" | "seed")
                || prev.is_some_and(|p| p.is_punct('.'));
            if method_ok {
                if let Some(arg) = tok(k + 2).filter(|a| a.kind == TokKind::Str) {
                    regs.push(Registration {
                        id: arg.text.clone(),
                        file: path.to_string(),
                        line: arg.line,
                        col: arg.col,
                    });
                }
            }
        }
    }
}

fn check_determinism<'a>(
    t: &Token,
    k: usize,
    tok: &impl Fn(usize) -> Option<&'a Token>,
    push: &mut impl FnMut(&str, &Token, String),
) {
    if t.kind != TokKind::Ident {
        return;
    }
    match t.text.as_str() {
        "Instant" => {
            // `Instant::now` specifically: holding an Instant a caller
            // passed in is fine, minting one is not.
            let is_now = tok(k + 1).is_some_and(|a| a.is_punct(':'))
                && tok(k + 2).is_some_and(|b| b.is_punct(':'))
                && tok(k + 3).is_some_and(|c| c.is_ident("now"));
            if is_now {
                push(
                    RULE_WALL_CLOCK,
                    t,
                    "`Instant::now()` in a deterministic module — take time as a \
                     parameter (virtual `now_ms`) instead"
                        .to_string(),
                );
            }
        }
        "SystemTime" => push(
            RULE_WALL_CLOCK,
            t,
            "`SystemTime` in a deterministic module — wall-clock time breaks \
             bit-identical replay"
                .to_string(),
        ),
        "thread_rng" | "OsRng" | "from_entropy" | "RandomState" => push(
            RULE_AMBIENT_RNG,
            t,
            format!(
                "`{}` in a deterministic module — every RNG stream must derive \
                 from the run seed",
                t.text
            ),
        ),
        "HashMap" | "HashSet" => push(
            RULE_UNORDERED_MAP,
            t,
            format!(
                "`{}` in a digest-bearing module — iteration order is \
                 unspecified; use BTreeMap/BTreeSet or an indexed Vec",
                t.text
            ),
        ),
        _ => {}
    }
}

/// Allocating calls banned inside zero-copy regions.
fn check_zero_copy(
    t: &Token,
    prev: Option<&Token>,
    next: Option<&Token>,
    push: &mut impl FnMut(&str, &Token, String),
) {
    let after_dot = prev.is_some_and(|p| p.is_punct('.'));
    let called = next.is_some_and(|n| n.is_punct('(') || n.is_punct(':'));
    match t.text.as_str() {
        // Allocating method calls.
        "clone" | "to_vec" | "to_owned" | "to_string" | "collect" if after_dot && called => {
            push(
                RULE_ZERO_COPY,
                t,
                format!("`.{}()` allocates inside a zero-copy region", t.text),
            );
        }
        // Allocating constructors: `Vec::new`, `Box::new`, `String::from`,
        // `Vec::with_capacity`, ...
        "Vec" | "Box" | "String" | "BytesMut" => {
            let path_call = next.is_some_and(|n| n.is_punct(':'));
            if path_call {
                push(
                    RULE_ZERO_COPY,
                    t,
                    format!(
                        "`{}::…` constructor inside a zero-copy region — lease \
                         from scratch/pool buffers instead",
                        t.text
                    ),
                );
            }
        }
        // Allocating macros.
        "vec" | "format" if next.is_some_and(|n| n.is_punct('!')) => {
            push(
                RULE_ZERO_COPY,
                t,
                format!("`{}!` allocates inside a zero-copy region", t.text),
            );
        }
        _ => {}
    }
}

/// Keywords that may legitimately precede a `[` that is NOT an index
/// expression (slice patterns, array types/literals, `for x in [..]`).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "let", "in", "if", "else", "match", "return", "mut", "ref", "const", "static", "as", "break",
    "continue", "move", "dyn", "impl", "for", "while", "loop", "where", "unsafe", "use", "crate",
    "box", "yield", "async", "await", "fn", "type", "enum", "struct", "trait", "mod", "pub",
];

fn check_hostile_input(
    t: &Token,
    prev: Option<&Token>,
    next: Option<&Token>,
    push: &mut impl FnMut(&str, &Token, String),
) {
    // panic!-family macros.
    if t.kind == TokKind::Ident
        && matches!(
            t.text.as_str(),
            "panic"
                | "unreachable"
                | "todo"
                | "unimplemented"
                | "assert"
                | "assert_eq"
                | "assert_ne"
        )
        && next.is_some_and(|n| n.is_punct('!'))
    {
        push(
            RULE_EXPLICIT_PANIC,
            t,
            format!(
                "`{}!` on the hostile-input surface — a malformed frame must \
                 surface a typed error, not a panic",
                t.text
            ),
        );
    }
    // Unchecked indexing: `expr[..]` where expr ends in an identifier,
    // a call, or another index.
    if t.is_punct('[') {
        let indexes = prev.is_some_and(|p| {
            (p.kind == TokKind::Ident && !NON_INDEX_KEYWORDS.contains(&p.text.as_str()))
                || p.is_punct(')')
                || p.is_punct(']')
        });
        if indexes {
            push(
                RULE_INDEXING,
                t,
                "unchecked indexing/slicing on the hostile-input surface — use \
                 `get(..)`/typed decoders so short frames surface `MessageError::ShortRead`"
                    .to_string(),
            );
        }
    }
}

/// Reconciles registration sites: every id registered at more than one
/// site yields a finding at each site after the first (ordered by file
/// then line).
pub fn check_duplicate_ids(mut regs: Vec<Registration>, findings: &mut Vec<Finding>) {
    regs.sort_by(|a, b| {
        a.id.cmp(&b.id)
            .then_with(|| a.file.cmp(&b.file))
            .then_with(|| a.line.cmp(&b.line))
    });
    let mut i = 0;
    while i < regs.len() {
        let mut j = i + 1;
        while j < regs.len() && regs[j].id == regs[i].id {
            findings.push(Finding {
                rule: RULE_DUPLICATE_ID.to_string(),
                file: regs[j].file.clone(),
                line: regs[j].line,
                col: regs[j].col,
                message: format!(
                    "component id \"{}\" already registered at {}:{} — duplicate \
                     registration panics or shadows at runtime",
                    regs[j].id, regs[i].file, regs[i].line
                ),
            });
            j += 1;
        }
        i = j;
    }
}

/// Checks `docs/SCENARIOS.md`: every id in a catalog table's first column
/// (`| \`id\` | …`) or an `### \`id\`` heading must be registered by some
/// crate. A line may carry `lint:allow(registry-doc-id, reason = "..")`
/// (HTML-comment form) to document an intentionally unregistered id.
pub fn check_doc_ids(
    doc_rel_path: &str,
    doc_text: &str,
    regs: &[Registration],
    findings: &mut Vec<Finding>,
) {
    let registered: BTreeSet<&str> = regs.iter().map(|r| r.id.as_str()).collect();
    let mut waive_next = false;
    for (idx, raw) in doc_text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        let waived_here = raw.contains("lint:allow(registry-doc-id") || waive_next;
        waive_next = raw.contains("lint:allow(registry-doc-id");
        let id = if let Some(rest) = line.strip_prefix("| `") {
            rest.split('`').next()
        } else if let Some(rest) = line.strip_prefix("### `") {
            rest.split('`').next()
        } else {
            None
        };
        let Some(id) = id else { continue };
        let plausible = !id.is_empty()
            && id
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-');
        if plausible && !registered.contains(id) && !waived_here {
            findings.push(Finding {
                rule: RULE_DOC_ID.to_string(),
                file: doc_rel_path.to_string(),
                line: line_no,
                col: 1,
                message: format!(
                    "id `{id}` is documented here but no crate registers it — \
                     stale docs or a missing registration"
                ),
            });
        }
    }
}

/// A `pub fn`, `pub const` or `pub static` item outside test code,
/// collected per audited file and checked against every other file's
/// names by the engine.
#[derive(Debug, Clone)]
pub struct SurfaceItem {
    /// The item's name.
    pub name: String,
    /// `fn`, `const` or `static`.
    pub kind: &'static str,
    /// File of the declaration.
    pub file: String,
    /// Line of the name.
    pub line: usize,
    /// Column of the name.
    pub col: usize,
}

/// Collects the bare-`pub` value items of `file` (`pub(crate)` and
/// narrower are private to the crate, so they are not surface).
pub fn collect_surface(file: &SourceFile, items: &mut Vec<SurfaceItem>) {
    let code: Vec<&Token> = file
        .tokens
        .iter()
        .zip(&file.in_test)
        .filter(|(t, &test)| !t.is_comment() && !test)
        .map(|(t, _)| t)
        .collect();
    for (k, t) in code.iter().enumerate() {
        if !t.is_ident("pub") || code.get(k + 1).is_some_and(|n| n.is_punct('(')) {
            continue;
        }
        // Skip the qualifiers a `pub fn` may carry: `const`, `async`,
        // `unsafe`, `extern "C"`.
        let mut j = k + 1;
        while code.get(j).is_some_and(|q| {
            q.kind == TokKind::Str
                || q.is_ident("async")
                || q.is_ident("unsafe")
                || q.is_ident("extern")
                || (q.is_ident("const") && code.get(j + 1).is_some_and(|n| n.is_ident("fn")))
        }) {
            j += 1;
        }
        let kind = match code.get(j) {
            Some(q) if q.is_ident("fn") => "fn",
            Some(q) if q.is_ident("const") => "const",
            Some(q) if q.is_ident("static") => "static",
            _ => continue,
        };
        if kind == "static" && code.get(j + 1).is_some_and(|n| n.is_ident("mut")) {
            j += 1;
        }
        if let Some(name) = code.get(j + 1).filter(|n| n.kind == TokKind::Ident) {
            items.push(SurfaceItem {
                name: name.text.clone(),
                kind,
                file: file.rel_path.clone(),
                line: name.line,
                col: name.col,
            });
        }
    }
}

/// The names `tokens` uses: identifiers in code, not in comments or
/// string literals, and not the names a `fn`, `const` or `static`
/// declares.
pub fn used_names(tokens: &[Token]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    let mut prev: Option<&Token> = None;
    for t in tokens.iter().filter(|t| !t.is_comment()) {
        let declared =
            prev.is_some_and(|p| p.is_ident("fn") || p.is_ident("const") || p.is_ident("static"));
        if t.kind == TokKind::Ident && !declared {
            names.insert(t.text.clone());
        }
        prev = Some(t);
    }
    names
}

/// The Rust code blocks of a markdown file (rustdoc compiles them as
/// doctests): fences with no language or a Rust one (`rust`, `no_run`,
/// `ignore`, `should_panic`, `compile_fail`), joined line by line.
pub fn markdown_rust_code(text: &str) -> String {
    let mut code = String::new();
    let mut in_rust = None;
    for line in text.lines() {
        let Some(info) = line.trim_start().strip_prefix("```") else {
            if in_rust == Some(true) {
                code.push_str(line);
                code.push('\n');
            }
            continue;
        };
        in_rust = match in_rust {
            Some(_) => None,
            None => Some(info.split(',').all(|tag| {
                matches!(
                    tag.trim(),
                    "" | "rust" | "no_run" | "ignore" | "should_panic" | "compile_fail"
                )
            })),
        };
    }
    code
}

/// Reports every surface item whose name no other file uses. `uses`
/// holds each searched file with the names it uses.
pub fn check_unreferenced(
    items: &[SurfaceItem],
    uses: &[(String, BTreeSet<String>)],
    findings: &mut Vec<Finding>,
) {
    for item in items {
        let used = uses
            .iter()
            .any(|(file, names)| *file != item.file && names.contains(&item.name));
        if !used {
            findings.push(Finding {
                rule: RULE_UNREFERENCED.to_string(),
                file: item.file.clone(),
                line: item.line,
                col: item.col,
                message: format!(
                    "`pub {} {}` is named by no other file — delete it, or narrow \
                     it to the file or crate that uses it",
                    item.kind, item.name
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn surface(src: &str) -> Vec<(String, &'static str)> {
        let file = SourceFile::parse("crates/x/src/lib.rs", src, ALL_RULES, ALL_REGIONS);
        let mut items = Vec::new();
        collect_surface(&file, &mut items);
        items.into_iter().map(|i| (i.name, i.kind)).collect()
    }

    #[test]
    fn surface_items_are_bare_pub_values_outside_tests() {
        let src = "pub const fn a() {}\npub unsafe extern \"C\" fn b() {}\n\
                   pub static mut C: u8 = 0;\npub const D: u8 = 0;\n\
                   pub(crate) fn e() {}\npub struct F;\npub use g::h;\n\
                   #[cfg(test)]\npub fn i() {}\n";
        let found = surface(src);
        let expected = [("a", "fn"), ("b", "fn"), ("C", "static"), ("D", "const")];
        let expected: Vec<(String, &str)> =
            expected.iter().map(|&(n, k)| (n.to_string(), k)).collect();
        assert_eq!(found, expected);
    }

    #[test]
    fn declared_names_comments_and_strings_are_not_uses() {
        let names = used_names(&crate::lexer::lex(
            "fn a() { b(\"c\"); } // d\nconst E: u8 = F;",
        ));
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        // Keywords lex as identifiers; no item can be named by one.
        assert_eq!(names, ["F", "b", "const", "fn", "u8"]);
    }

    #[test]
    fn only_rust_fences_of_markdown_are_code() {
        let md = "a()\n```rust,no_run\nb();\n```\n```text\nc()\n```\n```\nd();\n```\n";
        assert_eq!(markdown_rust_code(md), "b();\nd();\n");
    }
}
