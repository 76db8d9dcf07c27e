//! Uses of the fixture's public items from a `tests/` file, so the only
//! `surface-unreferenced` findings are the ones `surface.rs` seeds.

#[test]
fn uses() {
    let _ = dpbyz_tensor::surface::used_from_tests().0;
    let _ = (wall_clock_ms, boot_time, ambient_draw, tally, decode_grad);
    let _ = (aggregate_into, install, install_again);
}
