//! Explicitly vectorized scalar kernels — the innermost loops of the
//! whole workspace.
//!
//! Every gradient-touching hot path (SGD updates, DP noising, the
//! Krum-family's O(n²·d) pairwise distances, the coordinate-statistics
//! GARs) bottoms out in one of the loops below. The `_into` refactor made
//! those loops *auto*-vectorization-friendly; this module makes the
//! vectorization **explicit and machine-independent**: every kernel is
//! written as a 4-lane strided loop with fixed blocking, so the compiler
//! reliably emits SIMD for the lane bodies while the summation order —
//! and therefore the result, bit for bit — is identical on every machine
//! and at every optimization level.
//!
//! Two families, with different equivalence contracts:
//!
//! * **Reduction kernels** ([`dot`], [`sum`], [`sum_squares`],
//!   [`squared_distance`], [`pairwise_squared_distances`]) accumulate
//!   into `LANES` independent partial sums combined pairwise at the end.
//!   This *reorders* the summation relative to the historical sequential
//!   fold, so results differ from [`reference`](mod@reference) in the last bits (the
//!   proptest suite below pins the relative error to ≤ 1e-12, and for
//!   inputs shorter than one block the two are bit-identical because the
//!   lane loop never runs). The reordering is fixed and data-independent:
//!   run-to-run, machine-to-machine, and pool-size determinism stay
//!   absolute.
//! * **Elementwise kernels** ([`axpy`], [`scale`], [`sub`], [`hadamard`],
//!   [`fill`], [`copy`]) compute each output element from the same
//!   expression as the scalar loop — unrolling changes no dependency
//!   chain, so they are **provably bit-identical** to their references
//!   (asserted exactly in the tests).
//!
//! The scalar implementations are retained in [`reference`](mod@reference) — they are
//! the ground truth of the equivalence suite and the baseline of the
//! `kernels` criterion bench group.

/// Lane count of every blocked loop. Fixed (not CPU-detected) so the
/// summation order is part of the reproducibility contract.
pub const LANES: usize = 4;

/// Reduction lengths below this take the sequential scalar path. At small
/// `d` the blocked loop's lane setup costs more than it saves — a
/// scalar-vs-vectorized micro-baseline had `squared_distance` at `d = 10`
/// *slower* vectorized than scalar (14.1 vs 10.9) — and
/// inputs this short barely vectorize anyway. Applied to [`dot`],
/// [`sum_squares`], and [`squared_distance`]; [`sum`] deliberately keeps
/// the blocked path at every length because its dominant callers are the
/// cohort-length coordinate statistics (`n ≲ 16` values per column) whose
/// blocked summation order is pinned by the golden history digests.
const SCALAR_CUTOFF: usize = 16;

/// Coordinate tile width of [`pairwise_squared_distances_tiled`]: a
/// multiple of [`LANES`] sized so one tile of every row in a typical
/// cohort (n ≈ 11 workers, 8·`TILE` bytes per row) stays cache-resident
/// while all O(n²) pairs consume it.
const TILE: usize = 512;

/// Scalar reference implementations: the historical sequential loops,
/// kept as the ground truth for the equivalence suite and the
/// scalar-vs-vectorized benchmarks. Do not route hot paths through these.
pub mod reference {
    /// Sequential-fold dot product.
    pub fn dot(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
    }

    /// Sequential-fold sum.
    pub fn sum(xs: &[f64]) -> f64 {
        xs.iter().sum()
    }

    /// Sequential-fold sum of squares.
    pub fn sum_squares(xs: &[f64]) -> f64 {
        xs.iter().map(|x| x * x).sum()
    }

    /// Sequential-fold squared Euclidean distance.
    pub fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b.iter()).map(|(x, y)| (x - y) * (x - y)).sum()
    }

    /// Per-pair scalar distance-matrix fill (the pre-kernel hot path):
    /// one sequential-fold distance per (a, b) pair into the flat
    /// symmetric `m × m` matrix.
    pub fn pairwise_squared_distances<R: AsRef<[f64]>>(
        rows: &[R],
        members: &[usize],
        out: &mut Vec<f64>,
    ) {
        let m = members.len();
        out.clear();
        out.resize(m * m, 0.0);
        for a in 0..m {
            for b in (a + 1)..m {
                let d = squared_distance(rows[members[a]].as_ref(), rows[members[b]].as_ref());
                out[a * m + b] = d;
                out[b * m + a] = d;
            }
        }
    }
}

/// Combines the four lane accumulators pairwise: `(l0 + l1) + (l2 + l3)`.
/// The fixed tree shape is part of the determinism contract.
#[inline(always)]
fn combine(acc: [f64; LANES]) -> f64 {
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// 4-lane blocked dot product `Σ aᵢ·bᵢ`.
///
/// # Panics
///
/// Panics if the slices' lengths differ.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    if a.len() < SCALAR_CUTOFF {
        return reference::dot(a, b);
    }
    let mut acc = [-0.0; LANES];
    let blocks = a.len() / LANES * LANES;
    for (ab, bb) in a[..blocks]
        .chunks_exact(LANES)
        .zip(b[..blocks].chunks_exact(LANES))
    {
        acc[0] += ab[0] * bb[0];
        acc[1] += ab[1] * bb[1];
        acc[2] += ab[2] * bb[2];
        acc[3] += ab[3] * bb[3];
    }
    let mut total = combine(acc);
    for (x, y) in a[blocks..].iter().zip(&b[blocks..]) {
        total += x * y;
    }
    total
}

/// 4-lane blocked sum `Σ xᵢ`.
#[inline]
pub fn sum(xs: &[f64]) -> f64 {
    let mut acc = [-0.0; LANES];
    let chunks = xs.chunks_exact(LANES);
    let rem = chunks.remainder();
    for block in chunks {
        acc[0] += block[0];
        acc[1] += block[1];
        acc[2] += block[2];
        acc[3] += block[3];
    }
    let mut total = combine(acc);
    for &x in rem {
        total += x;
    }
    total
}

/// 4-lane blocked sum of squares `Σ xᵢ²`.
#[inline]
pub fn sum_squares(xs: &[f64]) -> f64 {
    if xs.len() < SCALAR_CUTOFF {
        return reference::sum_squares(xs);
    }
    let mut acc = [-0.0; LANES];
    let chunks = xs.chunks_exact(LANES);
    let rem = chunks.remainder();
    for block in chunks {
        acc[0] += block[0] * block[0];
        acc[1] += block[1] * block[1];
        acc[2] += block[2] * block[2];
        acc[3] += block[3] * block[3];
    }
    let mut total = combine(acc);
    for &x in rem {
        total += x * x;
    }
    total
}

/// 4-lane blocked squared Euclidean distance `Σ (aᵢ − bᵢ)²`.
///
/// # Panics
///
/// Panics if the slices' lengths differ.
#[inline]
pub fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "squared_distance: length mismatch");
    if a.len() < SCALAR_CUTOFF {
        return reference::squared_distance(a, b);
    }
    let mut acc = [-0.0; LANES];
    let blocks = a.len() / LANES * LANES;
    for (ab, bb) in a[..blocks]
        .chunks_exact(LANES)
        .zip(b[..blocks].chunks_exact(LANES))
    {
        let d0 = ab[0] - bb[0];
        let d1 = ab[1] - bb[1];
        let d2 = ab[2] - bb[2];
        let d3 = ab[3] - bb[3];
        acc[0] += d0 * d0;
        acc[1] += d1 * d1;
        acc[2] += d2 * d2;
        acc[3] += d3 * d3;
    }
    let mut total = combine(acc);
    for (x, y) in a[blocks..].iter().zip(&b[blocks..]) {
        let d = x - y;
        total += d * d;
    }
    total
}

/// Batched all-pairs fill of the flat symmetric `m × m` squared-distance
/// matrix over `rows[members[·]]` — the Krum-family / MDA hot path. Each
/// pair is computed once with the blocked [`squared_distance`] kernel and
/// mirrored; `out` is cleared and resized in place (no allocation once
/// its capacity has warmed to `m²`).
///
/// # Panics
///
/// Panics if a member index is out of bounds or row lengths differ.
pub fn pairwise_squared_distances<R: AsRef<[f64]>>(
    rows: &[R],
    members: &[usize],
    out: &mut Vec<f64>,
) {
    let m = members.len();
    out.clear();
    out.resize(m * m, 0.0);
    for a in 0..m {
        let row_a = rows[members[a]].as_ref();
        for b in (a + 1)..m {
            let d = squared_distance(row_a, rows[members[b]].as_ref());
            out[a * m + b] = d;
            out[b * m + a] = d;
        }
    }
}

/// Cache-tiled variant of [`pairwise_squared_distances`] for large `d`:
/// the coordinate range is processed in `TILE`-wide (512) blocks, and within
/// each block every pair advances its own persistent `LANES` lane
/// accumulators — so the `m` rows stream through cache **once per tile**
/// (all O(m²) pairs consume a tile while it is resident) instead of once
/// per pair. For every pair the lane accumulators see exactly the same
/// block sequence in exactly the same order as the untiled
/// [`squared_distance`] kernel, so the result is **bit-identical** to the
/// untiled fill at every `d` (pinned by tests below); only the memory
/// traffic changes. Inputs with `m < 2` or `d` below the scalar cutoff
/// delegate to the untiled kernel (which itself dispatches to the scalar
/// path there).
///
/// `acc` is the caller-provided per-pair lane-accumulator buffer — reused
/// across rounds so the tiled fill stays allocation-free at steady state,
/// like `out`.
///
/// # Panics
///
/// Panics if a member index is out of bounds or row lengths differ.
pub fn pairwise_squared_distances_tiled<R: AsRef<[f64]>>(
    rows: &[R],
    members: &[usize],
    out: &mut Vec<f64>,
    acc: &mut Vec<[f64; LANES]>,
) {
    pairwise_tiled_with(rows, members, out, acc, TILE)
}

/// [`pairwise_squared_distances_tiled`] with an explicit tile width —
/// private so the tile size stays an internal tuning knob, but directly
/// exercised by the boundary tests below.
fn pairwise_tiled_with<R: AsRef<[f64]>>(
    rows: &[R],
    members: &[usize],
    out: &mut Vec<f64>,
    acc: &mut Vec<[f64; LANES]>,
    tile: usize,
) {
    debug_assert!(
        tile >= LANES && tile.is_multiple_of(LANES),
        "tile must block lanes"
    );
    let m = members.len();
    let dim = if m == 0 {
        0
    } else {
        rows[members[0]].as_ref().len()
    };
    if m < 2 || dim < SCALAR_CUTOFF {
        return pairwise_squared_distances(rows, members, out);
    }
    // lint:begin(zero-copy)
    out.clear();
    out.resize(m * m, 0.0);
    let pairs = m * (m - 1) / 2;
    acc.clear();
    acc.resize(pairs, [-0.0; LANES]);
    let blocks = dim / LANES * LANES;
    let mut start = 0;
    while start < blocks {
        let end = (start + tile).min(blocks);
        let mut p = 0;
        for a in 0..m {
            let row_a = &rows[members[a]].as_ref()[start..end];
            for b in (a + 1)..m {
                let row_b = &rows[members[b]].as_ref()[start..end];
                let lanes = &mut acc[p];
                for (ab, bb) in row_a.chunks_exact(LANES).zip(row_b.chunks_exact(LANES)) {
                    let d0 = ab[0] - bb[0];
                    let d1 = ab[1] - bb[1];
                    let d2 = ab[2] - bb[2];
                    let d3 = ab[3] - bb[3];
                    lanes[0] += d0 * d0;
                    lanes[1] += d1 * d1;
                    lanes[2] += d2 * d2;
                    lanes[3] += d3 * d3;
                }
                p += 1;
            }
        }
        start = end;
    }
    // Combine + sequential tail, per pair — identical to the epilogue of
    // the untiled kernel.
    let mut p = 0;
    for a in 0..m {
        let row_a = rows[members[a]].as_ref();
        for b in (a + 1)..m {
            let row_b = rows[members[b]].as_ref();
            let mut total = combine(acc[p]);
            for (x, y) in row_a[blocks..].iter().zip(&row_b[blocks..]) {
                let d = x - y;
                total += d * d;
            }
            out[a * m + b] = total;
            out[b * m + a] = total;
            p += 1;
        }
    }
    // lint:end(zero-copy)
}

/// Lane-unrolled `out[i] += alpha * x[i]` (elementwise: bit-identical to
/// the scalar loop).
///
/// # Panics
///
/// Panics if the slices' lengths differ.
#[inline]
pub fn axpy(out: &mut [f64], alpha: f64, x: &[f64]) {
    assert_eq!(out.len(), x.len(), "axpy: length mismatch");
    let n = out.len();
    let blocks = n / LANES * LANES;
    let (out_head, out_rem) = out.split_at_mut(blocks);
    for (ob, xb) in out_head.chunks_exact_mut(LANES).zip(x.chunks_exact(LANES)) {
        ob[0] += alpha * xb[0];
        ob[1] += alpha * xb[1];
        ob[2] += alpha * xb[2];
        ob[3] += alpha * xb[3];
    }
    for (o, v) in out_rem.iter_mut().zip(&x[blocks..]) {
        *o += alpha * v;
    }
}

/// Lane-unrolled in-place scaling `xs[i] *= alpha` (elementwise:
/// bit-identical to the scalar loop).
#[inline]
pub fn scale(xs: &mut [f64], alpha: f64) {
    let n = xs.len();
    let blocks = n / LANES * LANES;
    let (head, rem) = xs.split_at_mut(blocks);
    for block in head.chunks_exact_mut(LANES) {
        block[0] *= alpha;
        block[1] *= alpha;
        block[2] *= alpha;
        block[3] *= alpha;
    }
    for x in rem {
        *x *= alpha;
    }
}

/// Lane-unrolled `out[i] = a[i] − b[i]` (elementwise: bit-identical to
/// the scalar loop — and to `a[i] + (−1.0)·b[i]`, since IEEE negation is
/// exact).
///
/// # Panics
///
/// Panics if the slices' lengths differ.
#[inline]
pub fn sub(a: &[f64], b: &[f64], out: &mut [f64]) {
    assert_eq!(a.len(), b.len(), "sub: length mismatch");
    assert_eq!(a.len(), out.len(), "sub: output length mismatch");
    let n = out.len();
    let blocks = n / LANES * LANES;
    let (out_head, out_rem) = out.split_at_mut(blocks);
    for ((ob, ab), bb) in out_head
        .chunks_exact_mut(LANES)
        .zip(a.chunks_exact(LANES))
        .zip(b.chunks_exact(LANES))
    {
        ob[0] = ab[0] - bb[0];
        ob[1] = ab[1] - bb[1];
        ob[2] = ab[2] - bb[2];
        ob[3] = ab[3] - bb[3];
    }
    for ((o, x), y) in out_rem.iter_mut().zip(&a[blocks..]).zip(&b[blocks..]) {
        *o = x - y;
    }
}

/// Lane-unrolled Hadamard product `out[i] = a[i]·b[i]` (elementwise:
/// bit-identical to the scalar loop).
///
/// # Panics
///
/// Panics if the slices' lengths differ.
#[inline]
pub fn hadamard(a: &[f64], b: &[f64], out: &mut [f64]) {
    assert_eq!(a.len(), b.len(), "hadamard: length mismatch");
    assert_eq!(a.len(), out.len(), "hadamard: output length mismatch");
    let n = out.len();
    let blocks = n / LANES * LANES;
    let (out_head, out_rem) = out.split_at_mut(blocks);
    for ((ob, ab), bb) in out_head
        .chunks_exact_mut(LANES)
        .zip(a.chunks_exact(LANES))
        .zip(b.chunks_exact(LANES))
    {
        ob[0] = ab[0] * bb[0];
        ob[1] = ab[1] * bb[1];
        ob[2] = ab[2] * bb[2];
        ob[3] = ab[3] * bb[3];
    }
    for ((o, x), y) in out_rem.iter_mut().zip(&a[blocks..]).zip(&b[blocks..]) {
        *o = x * y;
    }
}

/// Fills the slice with `value` (delegates to the libc-grade
/// `slice::fill`; listed here so the kernel layer is the single audit
/// point for every elementwise hot loop).
#[inline]
pub fn fill(xs: &mut [f64], value: f64) {
    xs.fill(value);
}

/// Overwrites `dst` with `src`, reusing `dst`'s allocation when its
/// capacity suffices (a pure `memcpy` at steady state).
#[inline]
pub fn copy(src: &[f64], dst: &mut Vec<f64>) {
    dst.clear();
    dst.extend_from_slice(src);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rel_err(a: f64, b: f64) -> f64 {
        let scale = a.abs().max(b.abs()).max(1e-300);
        (a - b).abs() / scale
    }

    #[test]
    fn short_inputs_are_bit_identical_to_reference() {
        // Below one block the lane loop never runs (so even an undispatched
        // blocked kernel degenerates to the sequential fold), and from
        // there up to SCALAR_CUTOFF the dispatched kernels take the scalar
        // path outright: either way, bit-identical to the reference.
        for len in 0..SCALAR_CUTOFF {
            let xs: Vec<f64> = (0..len).map(|i| 0.1 + i as f64).collect();
            let ys: Vec<f64> = (0..len).map(|i| -1.5 * i as f64).collect();
            assert_eq!(
                sum_squares(&xs).to_bits(),
                reference::sum_squares(&xs).to_bits()
            );
            assert_eq!(dot(&xs, &ys).to_bits(), reference::dot(&xs, &ys).to_bits());
            assert_eq!(
                squared_distance(&xs, &ys).to_bits(),
                reference::squared_distance(&xs, &ys).to_bits()
            );
        }
        // `sum` is identical only below one block — beyond that it keeps
        // the blocked path (see the next test).
        for len in 0..LANES {
            let xs: Vec<f64> = (0..len).map(|i| 0.1 + i as f64).collect();
            assert_eq!(sum(&xs).to_bits(), reference::sum(&xs).to_bits());
        }
    }

    #[test]
    fn sum_keeps_the_blocked_path_below_the_cutoff() {
        // `sum` is excluded from the small-length scalar dispatch: its
        // blocked summation order at cohort lengths (n ≲ 16) is pinned by
        // the golden history digests. Assert the exact blocked order for a
        // length between LANES and SCALAR_CUTOFF.
        let xs: Vec<f64> = (0..9).map(|i| 0.1 + 1e15 * i as f64).collect();
        let mut acc = [-0.0f64; LANES];
        for block in xs.chunks_exact(LANES) {
            for (lane, &x) in acc.iter_mut().zip(block) {
                *lane += x;
            }
        }
        let mut expected = combine(acc);
        for &x in xs.chunks_exact(LANES).remainder() {
            expected += x;
        }
        assert_eq!(sum(&xs).to_bits(), expected.to_bits());
    }

    #[test]
    fn tiled_pairwise_is_bit_identical_to_untiled() {
        // Dims straddling the lane, cutoff, and tile boundaries; every
        // entry must match the untiled fill bit for bit.
        let mut rng = crate::Prng::seed_from_u64(11);
        for &dim in &[0usize, 1, 3, 15, 16, 17, 63, 64, 65, 511, 512, 513, 1030] {
            let rows: Vec<Vec<f64>> = (0..7)
                .map(|_| rng.normal_vector(dim.max(1), 1.0).into_vec()[..dim].to_vec())
                .collect();
            let members = [5usize, 0, 3, 6, 1];
            let mut untiled = Vec::new();
            pairwise_squared_distances(&rows, &members, &mut untiled);
            let mut tiled = vec![7.0; 3]; // dirty, wrong size
            let mut acc = Vec::new();
            pairwise_squared_distances_tiled(&rows, &members, &mut tiled, &mut acc);
            assert_eq!(tiled.len(), untiled.len(), "dim {dim}");
            for (i, (a, b)) in tiled.iter().zip(&untiled).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "dim {dim}, entry {i}");
            }
            // The tile width must be bit-invisible too.
            for &tile in &[LANES, 8, 64] {
                let mut narrow = Vec::new();
                pairwise_tiled_with(&rows, &members, &mut narrow, &mut acc, tile);
                for (a, b) in narrow.iter().zip(&untiled) {
                    assert_eq!(a.to_bits(), b.to_bits(), "dim {dim}, tile {tile}");
                }
            }
        }
    }

    #[test]
    fn pairwise_matrix_matches_reference_layout() {
        let rows: Vec<Vec<f64>> = (0..5).map(|i| vec![i as f64; 7]).collect();
        let members = [4usize, 0, 2];
        let mut fast = vec![9.0; 2]; // dirty, wrong size
        let mut slow = Vec::new();
        pairwise_squared_distances(&rows, &members, &mut fast);
        reference::pairwise_squared_distances(&rows, &members, &mut slow);
        assert_eq!(fast.len(), 9);
        for (a, b) in fast.iter().zip(&slow) {
            assert!(rel_err(*a, *b) <= 1e-12);
        }
        // Symmetric with a zero diagonal.
        for i in 0..3 {
            assert_eq!(fast[i * 3 + i], 0.0);
            for j in 0..3 {
                assert_eq!(fast[i * 3 + j].to_bits(), fast[j * 3 + i].to_bits());
            }
        }
    }

    proptest! {
        #[test]
        fn prop_reductions_within_1e12_of_reference(
            xs in proptest::collection::vec(-1e3..1e3f64, 0..300),
            ys_seed in 0u64..1000,
        ) {
            let ys: Vec<f64> = xs
                .iter()
                .enumerate()
                .map(|(i, x)| x * 0.5 + (i as f64 + ys_seed as f64) * 1e-3)
                .collect();
            prop_assert!(rel_err(sum(&xs), reference::sum(&xs)) <= 1e-12);
            prop_assert!(rel_err(sum_squares(&xs), reference::sum_squares(&xs)) <= 1e-12);
            prop_assert!(rel_err(dot(&xs, &ys), reference::dot(&xs, &ys)) <= 1e-12);
            prop_assert!(
                rel_err(squared_distance(&xs, &ys), reference::squared_distance(&xs, &ys))
                    <= 1e-12
            );
        }

        #[test]
        fn prop_elementwise_bit_identical_to_scalar(
            xs in proptest::collection::vec(-1e3..1e3f64, 0..200),
            alpha in -10.0..10.0f64,
        ) {
            let ys: Vec<f64> = xs.iter().map(|x| x * 1.7 - 0.3).collect();
            // axpy.
            let mut fast = ys.clone();
            axpy(&mut fast, alpha, &xs);
            let mut slow = ys.clone();
            for (o, x) in slow.iter_mut().zip(&xs) { *o += alpha * x; }
            prop_assert!(fast.iter().zip(&slow).all(|(a, b)| a.to_bits() == b.to_bits()));
            // scale.
            let mut fast = xs.clone();
            scale(&mut fast, alpha);
            let mut slow = xs.clone();
            for x in &mut slow { *x *= alpha; }
            prop_assert!(fast.iter().zip(&slow).all(|(a, b)| a.to_bits() == b.to_bits()));
            // sub.
            let mut fast = vec![0.0; xs.len()];
            sub(&xs, &ys, &mut fast);
            let slow: Vec<f64> = xs.iter().zip(&ys).map(|(a, b)| a - b).collect();
            prop_assert!(fast.iter().zip(&slow).all(|(a, b)| a.to_bits() == b.to_bits()));
            // hadamard.
            let mut fast = vec![0.0; xs.len()];
            hadamard(&xs, &ys, &mut fast);
            let slow: Vec<f64> = xs.iter().zip(&ys).map(|(a, b)| a * b).collect();
            prop_assert!(fast.iter().zip(&slow).all(|(a, b)| a.to_bits() == b.to_bits()));
            // fill + copy.
            let mut buf = xs.clone();
            fill(&mut buf, alpha);
            prop_assert!(buf.iter().all(|x| x.to_bits() == alpha.to_bits()));
            let mut dst = vec![1.0; 3];
            copy(&xs, &mut dst);
            prop_assert_eq!(&dst, &xs);
        }

        #[test]
        fn prop_tiled_pairwise_bit_identical(
            seed in 0u64..300,
            n in 2usize..8,
            dim in 1usize..260,
            tile_pow in 0u32..6,
        ) {
            let tile = LANES << tile_pow;
            let mut rng = crate::Prng::seed_from_u64(seed);
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|_| rng.normal_vector(dim, 1.0).into_vec())
                .collect();
            let members: Vec<usize> = (0..n).collect();
            let mut untiled = Vec::new();
            let mut tiled = Vec::new();
            let mut acc = Vec::new();
            pairwise_squared_distances(&rows, &members, &mut untiled);
            pairwise_tiled_with(&rows, &members, &mut tiled, &mut acc, tile);
            for (a, b) in tiled.iter().zip(&untiled) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }

        #[test]
        fn prop_pairwise_matrix_within_1e12(
            seed in 0u64..500,
            n in 2usize..8,
            dim in 1usize..40,
        ) {
            let mut rng = crate::Prng::seed_from_u64(seed);
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|_| rng.normal_vector(dim, 1.0).into_vec())
                .collect();
            let members: Vec<usize> = (0..n).collect();
            let mut fast = Vec::new();
            let mut slow = Vec::new();
            pairwise_squared_distances(&rows, &members, &mut fast);
            reference::pairwise_squared_distances(&rows, &members, &mut slow);
            for (a, b) in fast.iter().zip(&slow) {
                prop_assert!(rel_err(*a, *b) <= 1e-12, "{a} vs {b}");
            }
        }
    }
}
