//! Uses of the fixture's public items, so the waiver count stays exact.

#[test]
fn uses() {
    let _ = (boot_time, first, aggregate_into);
}
