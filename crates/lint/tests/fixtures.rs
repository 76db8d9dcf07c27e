//! End-to-end analyzer tests over the fixture mini-workspaces in
//! `crates/lint/fixtures/` (analyzed as text, never compiled), plus the
//! gate that the real workspace itself lints clean.

use dpbyz_lint::{analyze_workspace, rules, Analysis};
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> Analysis {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    analyze_workspace(&root).expect("fixture root is readable")
}

/// Asserts exactly one finding of `rule` in `file`, at `line` — detection
/// with the right span, not just "fired somewhere".
fn assert_at(a: &Analysis, rule: &str, file: &str, line: usize) {
    let hits: Vec<_> = a
        .findings
        .iter()
        .filter(|f| f.rule == rule && f.file == file)
        .collect();
    assert!(
        hits.iter().any(|f| f.line == line),
        "expected {rule} at {file}:{line}, got {hits:#?}"
    );
}

#[test]
fn wall_clock_reads_are_detected() {
    let a = fixture("violations");
    let file = "crates/net/src/machine.rs";
    assert_at(&a, rules::RULE_WALL_CLOCK, file, 4); // Instant::now()
    assert_at(&a, rules::RULE_WALL_CLOCK, file, 8); // SystemTime
}

#[test]
fn ambient_rng_is_detected() {
    let a = fixture("violations");
    assert_at(&a, rules::RULE_AMBIENT_RNG, "crates/net/src/machine.rs", 13);
}

#[test]
fn unordered_maps_are_detected() {
    let a = fixture("violations");
    assert_at(
        &a,
        rules::RULE_UNORDERED_MAP,
        "crates/net/src/machine.rs",
        18,
    );
}

#[test]
fn zero_copy_allocation_is_detected_only_inside_the_region() {
    let a = fixture("violations");
    let file = "crates/gars/src/hot.rs";
    assert_at(&a, rules::RULE_ZERO_COPY, file, 7); // .clone()
    assert_at(&a, rules::RULE_ZERO_COPY, file, 8); // Vec::new()
                                                   // The identical allocating call on line 5 sits OUTSIDE the region.
    assert!(
        !a.findings
            .iter()
            .any(|f| f.rule == rules::RULE_ZERO_COPY && f.file == file && f.line == 5),
        "zero-copy rule must not fire outside lint:begin/lint:end"
    );
}

/// The pre-fix coordinator decode: `payload[0..8].try_into().expect(..)`
/// on peer-controlled bytes. Both the unchecked slice and the expect must
/// be flagged — this is the exact pattern the real coordinator.rs fixed.
#[test]
fn prefix_coordinator_hostile_decode_is_detected() {
    let a = fixture("violations");
    let file = "crates/net/src/coordinator.rs";
    assert_at(&a, rules::RULE_INDEXING, file, 6); // payload[0..8]
    assert_at(&a, rules::RULE_UNWRAP, file, 6); // .expect("8 bytes")
    assert_at(&a, rules::RULE_INDEXING, file, 7); // payload[8..12]
    assert_at(&a, rules::RULE_UNWRAP, file, 7); // .expect("4 bytes")
    assert_at(&a, rules::RULE_EXPLICIT_PANIC, file, 9); // panic!(..)
}

#[test]
fn duplicate_registrations_are_detected_at_the_second_site() {
    let a = fixture("violations");
    assert_at(&a, rules::RULE_DUPLICATE_ID, "crates/core/src/beta.rs", 4);
    // The first site is the anchor, not a finding.
    assert!(
        !a.findings
            .iter()
            .any(|f| f.rule == rules::RULE_DUPLICATE_ID && f.file == "crates/core/src/alpha.rs"),
        "first registration site must not be reported"
    );
}

#[test]
fn documented_but_unregistered_ids_are_detected() {
    let a = fixture("violations");
    assert_at(&a, rules::RULE_DOC_ID, "docs/SCENARIOS.md", 7); // ghost-gar
                                                               // `median-fixture` IS registered: no finding for its row.
    assert!(
        !a.findings
            .iter()
            .any(|f| f.rule == rules::RULE_DOC_ID && f.line == 6),
        "registered ids must not be reported as stale"
    );
}

#[test]
fn reasoned_waivers_suppress_and_are_counted() {
    let a = fixture("waived");
    assert!(
        a.is_clean(),
        "every violation is waived with a reason, yet: {:#?}",
        a.findings
    );
    // SystemTime + unwrap + to_vec-in-region are statically waived; the
    // doc id is waived in markdown (not counted by the .rs waiver path).
    assert_eq!(a.waived, 3, "each source waiver suppresses exactly once");
}

#[test]
fn waiver_without_reason_is_rejected_and_suppresses_nothing() {
    let a = fixture("badwaiver");
    let file = "crates/core/src/lib.rs";
    assert_at(&a, rules::RULE_MARKER, file, 4); // reasonless allow
    assert_at(&a, rules::RULE_UNWRAP, file, 6); // ..which suppressed nothing
}

#[test]
fn marker_findings_cannot_be_waived() {
    let a = fixture("badwaiver");
    // Line 10's bogus directive is targeted by a well-formed
    // lint:allow(lint-marker, ..) — it must survive anyway.
    assert_at(&a, rules::RULE_MARKER, "crates/core/src/lib.rs", 10);
}

/// The determinism rule set must cover the intra-round parallel
/// aggregation files by path prefix — a new file under the GAR or kernel
/// trees is in scope automatically, never by enumeration.
#[test]
fn determinism_rules_cover_the_parallel_aggregation_files() {
    for file in [
        "crates/gars/src/compute.rs",
        "crates/gars/src/scratch.rs",
        "crates/tensor/src/kernels.rs",
    ] {
        for rule in [
            rules::RULE_WALL_CLOCK,
            rules::RULE_AMBIENT_RNG,
            rules::RULE_UNORDERED_MAP,
        ] {
            assert!(rules::rule_applies(rule, file), "{rule} must cover {file}");
        }
        assert!(
            rules::rule_applies(rules::RULE_ZERO_COPY, file),
            "zero-copy regions must be honoured in {file}"
        );
    }
}

/// The chaos transport layer is determinism-scoped too: the seeded
/// simulator, the transport-generic drive loop, and the session handler
/// both transports share must never read wall clocks, ambient RNG, or
/// iteration-unordered maps — same seed, same byte-level event order is
/// the whole contract. Their hot loops also honour zero-copy regions.
/// The session handler parses every peer-supplied handshake and report,
/// so it is hostile-input-scoped as well — one parser, covered for both
/// transports.
#[test]
fn determinism_rules_cover_the_chaos_transport_files() {
    for rule in [rules::RULE_EXPLICIT_PANIC, rules::RULE_INDEXING] {
        assert!(
            rules::rule_applies(rule, "crates/net/src/session.rs"),
            "{rule} must cover the session handler"
        );
    }
    for file in [
        "crates/net/src/sim.rs",
        "crates/net/src/transport.rs",
        "crates/net/src/session.rs",
    ] {
        for rule in [
            rules::RULE_WALL_CLOCK,
            rules::RULE_AMBIENT_RNG,
            rules::RULE_UNORDERED_MAP,
        ] {
            assert!(rules::rule_applies(rule, file), "{rule} must cover {file}");
        }
        assert!(
            rules::rule_applies(rules::RULE_ZERO_COPY, file),
            "zero-copy regions must be honoured in {file}"
        );
    }
}

/// The bounded-staleness surface: the wire codec now carries admission
/// state (`GradGuard`'s window) that the replay contract depends on, so
/// `protocol.rs` sits in *both* scopes — determinism (no wall clock,
/// no ambient RNG, no unordered maps deciding admission) and hostile
/// input (it still parses peer-controlled bytes). The GAR scratch every
/// rule aggregates through is covered by the `crates/gars/src/` prefix,
/// never by enumeration.
#[test]
fn determinism_rules_cover_the_staleness_admission_files() {
    for rule in [
        rules::RULE_WALL_CLOCK,
        rules::RULE_AMBIENT_RNG,
        rules::RULE_UNORDERED_MAP,
    ] {
        assert!(
            rules::rule_applies(rule, "crates/net/src/protocol.rs"),
            "{rule} must cover the wire codec's admission guard"
        );
        assert!(
            rules::rule_applies(rule, "crates/gars/src/scratch.rs"),
            "{rule} must cover the GAR scratch"
        );
    }
    for rule in [rules::RULE_EXPLICIT_PANIC, rules::RULE_INDEXING] {
        assert!(
            rules::rule_applies(rule, "crates/net/src/protocol.rs"),
            "{rule}: the codec keeps parsing hostile bytes"
        );
    }
    assert!(
        rules::rule_applies(rules::RULE_ZERO_COPY, "crates/gars/src/scratch.rs"),
        "zero-copy regions must be honoured in the GAR scratch"
    );
}

/// The acceptance gate: the actual workspace lints clean. Every remaining
/// unwrap/expect in library code carries a reasoned waiver and the wire
/// surface is panic-free.
#[test]
fn real_workspace_is_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    assert!(
        Path::new(&root).join("Cargo.toml").is_file(),
        "expected workspace root at {root:?}"
    );
    let a = analyze_workspace(&root).expect("workspace is readable");
    assert!(
        a.is_clean(),
        "the workspace must lint clean; found: {:#?}",
        a.findings
    );
    assert!(a.files_scanned > 50, "scan looks truncated: {a:?}");
    assert!(a.waived > 0, "the waiver registry should be non-empty");
}
