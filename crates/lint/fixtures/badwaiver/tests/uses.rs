//! Uses of the fixture's public items.

#[test]
fn uses() {
    let _ = (boom, probe);
}
