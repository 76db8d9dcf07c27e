//! Intra-round data-parallel execution of per-item GAR work — the
//! [`ComputePool`] and its deterministic sharding driver.
//!
//! Every data-parallel piece of a GAR in this crate has the same shape:
//! `items` independent outputs (coordinates for the column-statistics
//! family), each a pure function of `rows` packed input values. [`run_sharded`] evaluates that shape either
//! inline (pool size 1 — exactly the historical serial loop, no threads
//! ever spawned) or sharded over the pool's persistent worker threads.
//!
//! **Determinism.** Both paths evaluate every item with the *single*
//! shared [`eval_item`] routine, and each item's packed inputs are
//! byte-identical however the item range is sharded — so the parallel
//! result is bit-identical to serial at any pool size, by construction
//! rather than by tolerance. Shard boundaries are a fixed function of
//! `(items, pool size)` alone, never of timing; they could not change the
//! bits even if they drifted, but fixed boundaries keep the schedule
//! reproducible too.
//!
//! **Allocation-freedom.** The crate forbids `unsafe`, so persistent
//! threads cannot borrow the round's gradients; instead each shard's
//! inputs are packed into an owned [`ShardTask`] leased to a thread of a
//! [`LeasePool`]. This pool belongs to the GAR: a
//! [`GarScratch`](crate::GarScratch) owns it and `agg_threads` sizes it.
//! The training engine's worker pool is a second `LeasePool`, owned by
//! the run's scratch. After the first parallel round every buffer (task
//! values, outputs, per-thread sort scratch) has warmed to the
//! topology's shape and steady-state rounds allocate nothing, pinned by
//! `tests/tests/alloc_steady_state.rs`.

use dpbyz_tensor::{stats, Lease, LeasePool};
use std::fmt;
use std::ops::Range;

/// Upper bound on the items packed into one shard task. Caps the packed
/// transpose buffer at `8·rows·MAX_TASK_ITEMS` bytes per in-flight task
/// (≈ 360 KiB at n = 11) so huge `d` streams through the pool in
/// cache-sized waves instead of materializing an O(n·d) transpose.
const MAX_TASK_ITEMS: usize = 4096;

/// One per-item statistic over `rows` packed values. Adding a variant
/// here parallelizes a new GAR family with no new thread plumbing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum ShardOp {
    /// Coordinate median ([`CoordinateMedian`](crate::CoordinateMedian)).
    #[default]
    Median,
    /// `trim`-trimmed mean ([`TrimmedMean`](crate::TrimmedMean)).
    TrimmedMean {
        /// Values dropped at each end.
        trim: usize,
    },
    /// Mean of the `keep` values closest to the median
    /// ([`Meamed`](crate::Meamed); [`Bulyan`](crate::Bulyan) stage 2).
    MeanAroundMedian {
        /// Values kept around the centre.
        keep: usize,
    },
    /// Mean of the `keep` values closest to the `trim`-trimmed mean
    /// ([`Phocas`](crate::Phocas)).
    MeanAroundTrimmedMean {
        /// Values dropped at each end for the centre estimate.
        trim: usize,
        /// Values kept around the centre.
        keep: usize,
    },
}

/// Evaluates `op` over one item's packed values — the **single**
/// implementation both the serial and the sharded path run, which is what
/// makes pool-size bit-identity structural. Each arm performs exactly the
/// statistics calls the pre-parallel GAR bodies performed.
pub(crate) fn eval_item(op: ShardOp, values: &[f64], sort_buf: &mut Vec<f64>) -> f64 {
    match op {
        ShardOp::Median => stats::median_with(values, sort_buf).expect("non-empty column"), // lint:allow(panic-unwrap, reason = "callers validate a non-empty cohort before sharding")
        ShardOp::TrimmedMean { trim } => {
            stats::trimmed_mean_with(values, trim, sort_buf).expect("2f < n") // lint:allow(panic-unwrap, reason = "2f < n is enforced by the caller's tolerance check")
        }
        ShardOp::MeanAroundMedian { keep } => {
            let med = stats::median_with(values, sort_buf).expect("non-empty column"); // lint:allow(panic-unwrap, reason = "callers validate a non-empty cohort before sharding")
                                                                                       // lint:allow(panic-unwrap, reason = "keep <= n by construction from the caller's tolerance check")
            stats::mean_around_with(values, med, keep, sort_buf).expect("keep <= n")
        }
        ShardOp::MeanAroundTrimmedMean { trim, keep } => {
            let tm = stats::trimmed_mean_with(values, trim, sort_buf).expect("2f < n"); // lint:allow(panic-unwrap, reason = "2f < n is enforced by the caller's tolerance check")
                                                                                        // lint:allow(panic-unwrap, reason = "keep <= n by construction from the caller's tolerance check")
            stats::mean_around_with(values, tm, keep, sort_buf).expect("keep <= n")
        }
    }
}

/// One shard's owned work packet: `items` consecutive items starting at
/// `base`, each `rows` values, packed column-major into `values`. The
/// packet is leased to a pool thread and reclaimed with `out` filled; it
/// stays with its thread, so its buffers are recycled across rounds.
#[derive(Debug, Default)]
pub(crate) struct ShardTask {
    op: ShardOp,
    base: usize,
    rows: usize,
    items: usize,
    values: Vec<f64>,
    out: Vec<f64>,
    sort_buf: Vec<f64>,
}

/// Evaluates every item of the task into its `out` buffer.
impl Lease for ShardTask {
    fn run(&mut self) {
        // lint:begin(zero-copy)
        self.out.clear();
        for i in 0..self.items {
            let values = &self.values[i * self.rows..(i + 1) * self.rows];
            self.out
                .push(eval_item(self.op, values, &mut self.sort_buf));
        }
        // lint:end(zero-copy)
    }
}

/// A persistent pool of aggregation worker threads.
///
/// Size 1 (the default) is the serial path: no thread is ever spawned and
/// [`run_sharded`] degenerates to the historical inline loop. At size
/// `s > 1` the pool lazily spawns `s − 1` workers on the first parallel
/// call; the calling thread always computes one shard itself, so `s` is
/// the total compute parallelism.
pub(crate) struct ComputePool {
    size: usize,
    /// One thread and one recycled task packet per worker slot.
    lanes: LeasePool<ShardTask>,
}

impl Default for ComputePool {
    fn default() -> Self {
        ComputePool {
            size: 1,
            lanes: LeasePool::default(),
        }
    }
}

impl fmt::Debug for ComputePool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ComputePool")
            .field("size", &self.size)
            .field("spawned", &self.lanes.len())
            .finish()
    }
}

impl ComputePool {
    /// Sets the total parallelism (clamped to ≥ 1). Shrinking reclaims
    /// surplus worker threads immediately; growing spawns lazily on the
    /// next parallel call.
    pub(crate) fn set_size(&mut self, size: usize) {
        self.size = size.max(1);
        self.lanes.resize(self.lanes.len().min(self.size - 1));
    }

    /// The configured total parallelism (≥ 1).
    pub(crate) fn size(&self) -> usize {
        self.size
    }

    /// Spawns the worker threads `set_size` asked for (a no-op once warm).
    fn ensure_threads(&mut self) {
        self.lanes.resize(self.size - 1);
    }
}

/// Evaluates `out[j] = eval_item(op, packed values of item j)` for every
/// `j in 0..items`, sharding the item range over `pool`.
///
/// `pack(range, values)` must clear `values` and append exactly
/// `range.len() · rows` values — item `range.start`'s `rows` values
/// first, then the next item's, and so on. Packing is invoked with
/// deterministic, fixed-boundary ranges: a function of `(items, pool
/// size)` only.
///
/// The result is bit-identical at every pool size: each item is evaluated
/// by the same [`eval_item`] routine over the same packed values
/// regardless of which thread runs it. At pool size 1 this is exactly the
/// historical serial loop (pack one column, evaluate, store) with no
/// thread, channel, or extra buffer touched.
#[allow(clippy::too_many_arguments)] // flat borrow list: every buffer comes from one GarScratch
pub(crate) fn run_sharded(
    pool: &mut ComputePool,
    col: &mut Vec<f64>,
    sort_buf: &mut Vec<f64>,
    op: ShardOp,
    items: usize,
    rows: usize,
    pack: &dyn Fn(Range<usize>, &mut Vec<f64>),
    out: &mut [f64],
) {
    debug_assert_eq!(out.len(), items, "output slice must cover every item");
    // lint:begin(zero-copy)
    if pool.size() <= 1 {
        for (j, slot) in out.iter_mut().enumerate() {
            pack(j..j + 1, col);
            *slot = eval_item(op, col, sort_buf);
        }
        return;
    }
    let size = pool.size();
    pool.ensure_threads();
    let chunk = items.div_ceil(size).clamp(1, MAX_TASK_ITEMS);
    let mut start = 0;
    while start < items {
        // One wave: hand a task to each worker thread, compute the last
        // shard inline on this thread, then collect in send order. Result
        // placement depends only on each task's `base`, so completion
        // order is invisible.
        let mut sent = 0;
        while sent + 1 < size && start < items {
            let end = (start + chunk).min(items);
            let task = pool.lanes.packet_mut(sent);
            task.op = op;
            task.base = start;
            task.rows = rows;
            task.items = end - start;
            pack(start..end, &mut task.values);
            pool.lanes.lease(sent);
            sent += 1;
            start = end;
        }
        if start < items {
            let end = (start + chunk).min(items);
            pack(start..end, col);
            for (i, j) in (start..end).enumerate() {
                out[j] = eval_item(op, &col[i * rows..(i + 1) * rows], sort_buf);
            }
            start = end;
        }
        for lane in 0..sent {
            let task = pool.lanes.reclaim(lane);
            out[task.base..task.base + task.items].copy_from_slice(&task.out);
        }
    }
    // lint:end(zero-copy)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Items 0..items, each item j packing rows values j, j+1, …
    fn ramp_pack(rows: usize) -> impl Fn(Range<usize>, &mut Vec<f64>) {
        move |range: Range<usize>, values: &mut Vec<f64>| {
            values.clear();
            for j in range {
                for r in 0..rows {
                    values.push((j + r) as f64 * 0.25 - 1.0);
                }
            }
        }
    }

    fn run_at(size: usize, op: ShardOp, items: usize, rows: usize) -> Vec<f64> {
        let mut pool = ComputePool::default();
        pool.set_size(size);
        let mut col = Vec::new();
        let mut sort_buf = Vec::new();
        let mut out = vec![f64::NAN; items];
        run_sharded(
            &mut pool,
            &mut col,
            &mut sort_buf,
            op,
            items,
            rows,
            &ramp_pack(rows),
            &mut out,
        );
        out
    }

    #[test]
    fn sharded_matches_serial_bitwise_for_every_op() {
        let ops = [
            ShardOp::Median,
            ShardOp::TrimmedMean { trim: 2 },
            ShardOp::MeanAroundMedian { keep: 5 },
            ShardOp::MeanAroundTrimmedMean { trim: 2, keep: 5 },
        ];
        for op in ops {
            let serial = run_at(1, op, 257, 9);
            for size in [2, 3, 8, 64] {
                let parallel = run_at(size, op, 257, 9);
                for (a, b) in serial.iter().zip(&parallel) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{op:?} at pool size {size}");
                }
            }
        }
    }

    #[test]
    fn pool_larger_than_items_and_empty_items() {
        let serial = run_at(1, ShardOp::Median, 3, 5);
        let wide = run_at(16, ShardOp::Median, 3, 5);
        assert_eq!(serial, wide);
        assert!(run_at(4, ShardOp::Median, 0, 5).is_empty());
    }

    #[test]
    fn size_one_spawns_no_threads_and_resizing_reclaims_them() {
        let mut pool = ComputePool::default();
        assert_eq!(pool.size(), 1);
        assert!(pool.lanes.is_empty());
        pool.set_size(4);
        pool.ensure_threads();
        assert_eq!(pool.lanes.len(), 3);
        pool.set_size(2);
        assert_eq!(pool.lanes.len(), 1);
        pool.set_size(0); // clamped
        assert_eq!(pool.size(), 1);
        assert!(pool.lanes.is_empty());
    }

    #[test]
    fn task_packets_are_recycled_across_calls() {
        let mut pool = ComputePool::default();
        pool.set_size(3);
        let mut col = Vec::new();
        let mut sort_buf = Vec::new();
        let mut out = vec![0.0; 40];
        for _ in 0..3 {
            run_sharded(
                &mut pool,
                &mut col,
                &mut sort_buf,
                ShardOp::Median,
                40,
                7,
                &ramp_pack(7),
                &mut out,
            );
        }
        // Every slot's buffers warmed to the shard shape and stayed.
        for lane in 0..pool.lanes.len() {
            let slot = pool.lanes.packet_mut(lane);
            assert!(slot.values.capacity() > 0);
            assert!(slot.out.capacity() > 0);
        }
    }
}
