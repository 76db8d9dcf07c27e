//! Allocation bound for the zero-copy round engine: after warm-up, a
//! training round performs **zero** heap allocations for the `average`,
//! `krum`, and `median` cells with the Gaussian mechanism, and for the
//! paper's §5.1 cell (MDA + Gaussian + ALIE + worker momentum) — on
//! **both** paths of the in-process engine and over the simulated
//! network — and for Theorem 1's mean-estimation cell at d = 1000, whose
//! workers synthesize fresh rows every step. The `evaluating_` cases run
//! the paper cell with a test set classified every few rounds, in process
//! and over the simulated network; a second run over the same test set
//! on the same scratch evaluates from the panels the first run laid out,
//! so even its first evaluation allocates nothing. The `threaded_` cases run at
//! a batch size large enough that the engine leases each worker to its
//! own pool thread, so they cover the thread hop too: leasing each
//! worker's packet, reclaiming it, and swapping its output into the
//! server's output slots all stay allocation-free once warm. Every case
//! checks which path it took. Over TCP the bound is a small constant per
//! round instead.
//!
//! A counting global allocator snapshots the cumulative allocation count
//! at every step (via a passive observer); the per-round deltas over the
//! back half of the run must all be zero. Any clone-per-round regression
//! in the worker loop, the wire codec, the server's round processing, the
//! VN diagnostics, or the GAR scratch path fails this test immediately.
//!
//! The allocator count is process-global, so the cases run one at a time
//! (see [`SERIAL`]): under the parallel test runner, another case's
//! warm-up would otherwise land in this case's counting window.

use dpbyz::attacks::{Attack, LittleIsEnough};
use dpbyz::data::sampler::{BatchSource, DatasetSource, SamplingMode};
use dpbyz::data::synthetic::{self, MeanEstimation, MeanEstimationSource};
use dpbyz::data::{Batch, Dataset};
use dpbyz::dp::{GaussianMechanism, Mechanism};
use dpbyz::gars::{Average, CoordinateMedian, Gar, Krum, Mda};
use dpbyz::models::{LogisticRegression, LossKind, Model, QuadraticMean};
use dpbyz::server::{FnObserver, MomentumMode, Trainer, TrainingConfig};
use dpbyz::tensor::Prng;
use dpbyz::RunScratch;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// Counts every allocation event (alloc, alloc_zeroed, realloc) while
/// delegating to the system allocator.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

fn allocation_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

const STEPS: u32 = 40;

/// Held by every case from its warm-up through its last counted round and
/// its assertion, so no other case allocates inside its counting window.
static SERIAL: Mutex<()> = Mutex::new(());

/// Takes [`SERIAL`], then waits until the allocation count has stood still
/// for [`QUIET`]: the test runner's own bookkeeping for the case that just
/// released the lock (reporting its result, starting the next case's
/// thread) allocates too, and must be over before this case starts.
fn serial() -> MutexGuard<'static, ()> {
    // A failed case poisons the lock; the next case still runs alone.
    let guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let before = allocation_count();
        std::thread::sleep(QUIET);
        if allocation_count() == before || Instant::now() > deadline {
            return guard;
        }
    }
}

const QUIET: Duration = Duration::from_millis(10);

/// The topology a cell trains on.
#[derive(Clone, Copy)]
enum Cell {
    /// Five honest workers, no attack, server-side momentum.
    Honest,
    /// The paper's §5.1 cell: n = 11 with f = 5 ALIE workers, and
    /// momentum 0.99 applied by each honest worker.
    Paper,
    /// Theorem 1's workload: five honest workers estimating the mean of
    /// `N(x̄, I/d)` at d = 1000 with the quadratic loss, each sampling
    /// fresh rows into its recycled batch.
    MeanEstimation,
    /// The paper cell, classifying a held-out test set every
    /// [`EVAL_EVERY`] rounds as the paper's runs do.
    Evaluating,
}

/// The evaluation period of [`Cell::Evaluating`]: several evaluating
/// rounds fall in the counted back half of the run.
const EVAL_EVERY: u32 = 5;

/// Per-worker batch size of a cell. The engine leases its workers to
/// threads once `batch_size × dim` reaches its cutoff: these sit well
/// below it (inline) or well above it (leased) for both models.
fn batch_size(cell: Cell, leased: bool) -> usize {
    match (cell, leased) {
        (Cell::MeanEstimation, false) => 5,
        (Cell::MeanEstimation, true) => 50,
        (_, false) => 10,
        (_, true) => 500,
    }
}

/// A batch source that counts the batches drawn off the thread that
/// built it: nonzero exactly when the engine leased its workers.
struct CountingOffThread {
    inner: Box<dyn BatchSource>,
    home: ThreadId,
    off_thread: Arc<AtomicU64>,
}

impl BatchSource for CountingOffThread {
    fn num_features(&self) -> usize {
        self.inner.num_features()
    }

    fn next_batch_into(&mut self, batch_size: usize, rng: &mut Prng, out: &mut Batch) {
        if std::thread::current().id() != self.home {
            self.off_thread.fetch_add(1, Ordering::Relaxed);
        }
        self.inner.next_batch_into(batch_size, rng, out);
    }
}

/// What a counting run leaves behind: the cumulative allocation count at
/// the end of every step, and how many batches were drawn off the
/// driving thread.
struct Record {
    snapshots: Arc<Mutex<Vec<u64>>>,
    off_thread: Arc<AtomicU64>,
}

impl Record {
    fn counts(self) -> Vec<u64> {
        Arc::try_unwrap(self.snapshots)
            .unwrap()
            .into_inner()
            .unwrap()
    }
}

/// A trainer for `cell` whose observer records the cumulative allocation
/// count at the end of every step, plus the shared record. The record is
/// pre-reserved so the observer itself never allocates on the hot path.
/// [`Cell::Evaluating`] classifies `test`, or a fresh test set if `None`.
fn counting_trainer(
    gar: Arc<dyn Gar>,
    cell: Cell,
    leased: bool,
    agg_threads: usize,
    test: Option<Arc<Dataset>>,
) -> (Trainer, Record) {
    let (n, f) = match cell {
        Cell::Honest | Cell::MeanEstimation => (5, 0),
        Cell::Paper | Cell::Evaluating => (11, 5),
    };
    let paper = matches!(cell, Cell::Paper | Cell::Evaluating);
    let mut rng = Prng::seed_from_u64(11);
    let (model, sources): (Arc<dyn Model>, Vec<Box<dyn BatchSource>>) = match cell {
        Cell::MeanEstimation => {
            let dim = 1000;
            let dist = MeanEstimation::random_instance(&mut rng, dim, 1.0);
            let sources = (0..n)
                .map(|_| Box::new(MeanEstimationSource(dist.clone())) as Box<dyn BatchSource>)
                .collect();
            (Arc::new(QuadraticMean::new(dim)), sources)
        }
        Cell::Honest | Cell::Paper | Cell::Evaluating => {
            let ds = Arc::new(synthetic::phishing_like(&mut rng, 400));
            let sources = (0..n)
                .map(|_| {
                    Box::new(DatasetSource::new(
                        ds.clone(),
                        SamplingMode::WithReplacement,
                    )) as Box<dyn BatchSource>
                })
                .collect();
            (
                Arc::new(LogisticRegression::new(68, LossKind::SigmoidMse)),
                sources,
            )
        }
    };
    let off_thread = Arc::new(AtomicU64::new(0));
    let home = std::thread::current().id();
    let sources = sources
        .into_iter()
        .map(|inner| {
            Box::new(CountingOffThread {
                inner,
                home,
                off_thread: off_thread.clone(),
            }) as Box<dyn BatchSource>
        })
        .collect();
    let (eval_every, test) = match cell {
        Cell::Evaluating => (
            EVAL_EVERY,
            Some(test.unwrap_or_else(|| Arc::new(synthetic::phishing_like(&mut rng, 300)))),
        ),
        _ => (0, None),
    };
    let mut config = TrainingConfig {
        n_workers: n,
        n_byzantine: f,
        batch_size: batch_size(cell, leased),
        steps: STEPS,
        eval_every,
        agg_threads,
        ..TrainingConfig::default()
    };
    if paper {
        config.momentum = 0.99;
        config.momentum_mode = MomentumMode::Worker;
    }
    let snapshots: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::with_capacity(STEPS as usize)));
    let sink = snapshots.clone();
    let mut trainer = Trainer::new(config.validate().unwrap(), model, sources, test)
        .gar(gar)
        .mechanism(Arc::new(GaussianMechanism::with_sigma(0.01).unwrap()) as Arc<dyn Mechanism>)
        .observer(Box::new(FnObserver::new(move |_m| {
            sink.lock().unwrap().push(allocation_count());
        })));
    if paper {
        trainer = trainer.attack(Arc::new(LittleIsEnough::new(1.5)) as Arc<dyn Attack>);
    }
    (
        trainer,
        Record {
            snapshots,
            off_thread,
        },
    )
}

/// Runs one honest cell on the sequential engine and returns the
/// cumulative allocation count observed at the end of every step.
fn per_step_allocation_counts(gar: Arc<dyn Gar>) -> Vec<u64> {
    per_step_allocation_counts_on(gar, Cell::Honest, false, 1)
}

/// [`per_step_allocation_counts`] with cell, shape and intra-round
/// aggregation parallelism: `leased` picks a batch size at which the
/// engine runs its worker packets on pool threads (lease → pool thread →
/// reclaim) under the counting allocator, and checks that it did;
/// `agg_threads > 1` shards the GAR's coordinate/candidate loops over the
/// compute pool, whose task packets must also recycle allocation-free
/// once warm (worker threads land in round 1).
fn per_step_allocation_counts_on(
    gar: Arc<dyn Gar>,
    cell: Cell,
    leased: bool,
    agg_threads: usize,
) -> Vec<u64> {
    let (trainer, record) = counting_trainer(gar, cell, leased, agg_threads, None);
    trainer.run(1).unwrap();
    let off_thread = record.off_thread.load(Ordering::Relaxed);
    // The run executes alone (`serial`), so it leases whenever the
    // machine has a second core.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let leased = leased && cores > 1;
    assert_eq!(
        off_thread > 0,
        leased,
        "expected the {} path, {off_thread} batches drawn off the driving thread",
        if leased { "leased" } else { "inline" }
    );
    record.counts()
}

fn assert_steady_state_allocation_free(name: &str, counts: &[u64]) {
    assert_eq!(counts.len(), STEPS as usize);
    // Warm-up (first rounds) may allocate: buffers grow to the topology's
    // sizes. From mid-run on, every per-round delta must be exactly zero.
    let tail = &counts[counts.len() / 2..];
    for (i, pair) in tail.windows(2).enumerate() {
        assert_eq!(
            pair[1] - pair[0],
            0,
            "{name}: round {} allocated {} time(s) at steady state \
             (full counts: {counts:?})",
            counts.len() / 2 + i + 1,
            pair[1] - pair[0],
        );
    }
}

#[test]
fn average_cell_is_allocation_free_at_steady_state() {
    let _serial = serial();
    let counts = per_step_allocation_counts(Arc::new(Average::new()));
    assert_steady_state_allocation_free("average/gaussian", &counts);
}

#[test]
fn krum_cell_is_allocation_free_at_steady_state() {
    let _serial = serial();
    let counts = per_step_allocation_counts(Arc::new(Krum::new()));
    assert_steady_state_allocation_free("krum/gaussian", &counts);
}

#[test]
fn median_cell_is_allocation_free_at_steady_state() {
    let _serial = serial();
    let counts = per_step_allocation_counts(Arc::new(CoordinateMedian::new()));
    assert_steady_state_allocation_free("median/gaussian", &counts);
}

// The leased path reaches the same zero-allocations-per-round steady
// state as the inline one: each worker's packet (broadcast-parameter
// copy, output vectors) stays with its pool thread, and the output swap
// hands the server's recycled vectors back to the packet every round.

#[test]
fn threaded_average_cell_is_allocation_free_at_steady_state() {
    let _serial = serial();
    let counts = per_step_allocation_counts_on(Arc::new(Average::new()), Cell::Honest, true, 1);
    assert_steady_state_allocation_free("leased/average/gaussian", &counts);
}

#[test]
fn threaded_krum_cell_is_allocation_free_at_steady_state() {
    let _serial = serial();
    let counts = per_step_allocation_counts_on(Arc::new(Krum::new()), Cell::Honest, true, 1);
    assert_steady_state_allocation_free("leased/krum/gaussian", &counts);
}

#[test]
fn threaded_median_cell_is_allocation_free_at_steady_state() {
    let _serial = serial();
    let counts =
        per_step_allocation_counts_on(Arc::new(CoordinateMedian::new()), Cell::Honest, true, 1);
    assert_steady_state_allocation_free("leased/median/gaussian", &counts);
}

// The paper's §5.1 cell — the one the benchmark runs — stays
// allocation-free too: MDA's exact subset search works on the GAR
// scratch, ALIE forges into recycled slots, and the worker-side momentum
// buffers are updated in place.

#[test]
fn paper_mda_alie_cell_is_allocation_free_at_steady_state() {
    let _serial = serial();
    let counts = per_step_allocation_counts_on(Arc::new(Mda::new()), Cell::Paper, false, 1);
    assert_steady_state_allocation_free("mda/gaussian/alie/worker-momentum", &counts);
}

#[test]
fn threaded_paper_mda_alie_cell_is_allocation_free_at_steady_state() {
    let _serial = serial();
    let counts = per_step_allocation_counts_on(Arc::new(Mda::new()), Cell::Paper, true, 1);
    assert_steady_state_allocation_free("leased/mda/gaussian/alie/worker-momentum", &counts);
}

// The intra-round parallel aggregation path (`agg_threads > 1`) reaches
// the same zero-allocations-per-round steady state: the pool's task
// packets (column transposes, per-shard outputs, sort scratch) round-trip
// through the worker channels and are recycled, so after the round-1
// warm-up the parallel shard bodies allocate nothing.

#[test]
fn parallel_median_cell_is_allocation_free_at_steady_state() {
    let _serial = serial();
    let counts =
        per_step_allocation_counts_on(Arc::new(CoordinateMedian::new()), Cell::Honest, false, 4);
    assert_steady_state_allocation_free("median/gaussian/agg_threads=4", &counts);
}

#[test]
fn parallel_krum_cell_is_allocation_free_at_steady_state() {
    let _serial = serial();
    let counts = per_step_allocation_counts_on(Arc::new(Krum::new()), Cell::Honest, false, 4);
    assert_steady_state_allocation_free("krum/gaussian/agg_threads=4", &counts);
}

#[test]
fn threaded_parallel_median_cell_is_allocation_free_at_steady_state() {
    let _serial = serial();
    let counts =
        per_step_allocation_counts_on(Arc::new(CoordinateMedian::new()), Cell::Honest, true, 4);
    assert_steady_state_allocation_free("leased/median/gaussian/agg_threads=4", &counts);
}

// Mean estimation synthesizes its rows instead of selecting them: each
// worker's batch owns its dataset and is rewritten in place, and the
// quadratic loss reads every row in place.

#[test]
fn mean_estimation_median_cell_is_allocation_free_at_steady_state() {
    let _serial = serial();
    let counts = per_step_allocation_counts_on(
        Arc::new(CoordinateMedian::new()),
        Cell::MeanEstimation,
        false,
        1,
    );
    assert_steady_state_allocation_free("mean-estimation/d=1000/median/gaussian", &counts);
}

// Evaluation classifies the test set in place, 8 rows at a time, so an
// evaluating round allocates nothing either.

#[test]
fn evaluating_paper_cell_is_allocation_free_at_steady_state() {
    let _serial = serial();
    let counts = per_step_allocation_counts_on(Arc::new(Mda::new()), Cell::Evaluating, false, 1);
    assert_steady_state_allocation_free("mda/gaussian/alie/worker-momentum/eval", &counts);
}

// A test set lays out its evaluation panels once, on its first
// evaluation, and keeps them: a second run over the same test set on the
// same scratch builds none, so its first evaluating round allocates
// nothing, as every later one does in both runs.

#[test]
fn evaluating_runs_over_one_test_set_lay_out_its_panels_once() {
    let _serial = serial();
    let test = Arc::new(synthetic::phishing_like(&mut Prng::seed_from_u64(12), 300));
    let mut scratch = RunScratch::new();
    let runs: Vec<Vec<u64>> = (0..2)
        .map(|_| {
            let (trainer, record) = counting_trainer(
                Arc::new(Mda::new()),
                Cell::Evaluating,
                false,
                1,
                Some(test.clone()),
            );
            trainer.run_with_scratch(1, &mut scratch).unwrap();
            record.counts()
        })
        .collect();
    for (run, counts) in runs.iter().enumerate() {
        assert_steady_state_allocation_free(&format!("run {run}/mda/eval"), counts);
    }
    // The allocations of the round that evaluates first, at step
    // EVAL_EVERY, stored at index EVAL_EVERY - 1.
    let first_eval = |counts: &[u64]| {
        let t = EVAL_EVERY as usize;
        counts[t - 1] - counts[t - 2]
    };
    assert_eq!(
        first_eval(&runs[0]),
        1,
        "the first run's first evaluation lays the panels out in one allocation (counts: {:?})",
        runs[0]
    );
    assert_eq!(
        first_eval(&runs[1]),
        0,
        "the second run's first evaluation allocated (counts: {:?})",
        runs[1]
    );
}

// ---- the sim deployment -------------------------------------------------

/// [`per_step_allocation_counts`] over the in-memory chaos transport:
/// `SimNet` carries every round as real wire frames through its delivery
/// queue, and its simulated workers run the same worker sessions TCP
/// does, all on this thread.
fn per_step_allocation_counts_sim(gar: Arc<dyn Gar>, cell: Cell, chaos: Option<u64>) -> Vec<u64> {
    use dpbyz::net::{drive, Deployment, FaultPlan, SimNet};

    let (trainer, record) = counting_trainer(gar, cell, false, 1, None);
    let mut scratch = RunScratch::new();
    let (core, workers) = trainer.into_distributed_parts(1, &mut scratch);
    let n = workers.len();
    let plan = chaos.map_or_else(|| FaultPlan::clean(n), |seed| FaultPlan::from_seed(seed, n));
    // The default 32-frame replay ring is still filling in the measured
    // window: its buffers are sized once, by the first STEP.
    let deployment = Deployment::default();
    let attack_armed = matches!(cell, Cell::Paper | Cell::Evaluating);
    let machine = deployment
        .resolve("sim", core.config(), attack_armed)
        .unwrap();
    let staleness = core.config().staleness_window;
    let mut net = SimNet::new(workers, &plan, 1, 2, deployment.resume_window, staleness);
    drive(&mut net, core, machine, 1, &mut scratch).unwrap();
    record.counts()
}

// The wire frames, their tags, the delivery queue and the worker
// sessions recycle their buffers, so a simulated deployment reaches the
// in-process engines' zero — on clean links and under the benchmark's
// chaos plan (delays, drops as retransmissions, duplicates, partitions).

#[test]
fn sim_average_cell_is_allocation_free_at_steady_state() {
    let _serial = serial();
    let counts = per_step_allocation_counts_sim(Arc::new(Average::new()), Cell::Honest, None);
    assert_steady_state_allocation_free("sim/average/gaussian", &counts);
}

#[test]
fn sim_evaluating_paper_cell_under_chaos_is_allocation_free_at_steady_state() {
    let _serial = serial();
    let counts = per_step_allocation_counts_sim(Arc::new(Mda::new()), Cell::Evaluating, Some(11));
    assert_steady_state_allocation_free("sim/mda/gaussian/alie/chaos-11/eval", &counts);
}

#[test]
fn sim_paper_mda_alie_cell_under_chaos_is_allocation_free_at_steady_state() {
    let _serial = serial();
    let counts = per_step_allocation_counts_sim(Arc::new(Mda::new()), Cell::Paper, Some(11));
    assert_steady_state_allocation_free("sim/mda/gaussian/alie/chaos-11", &counts);
}

// ---- the TCP deployment -------------------------------------------------

/// [`per_step_allocation_counts`] over the real socket transport: a
/// [`TcpCoordinator`] round-trips every step through localhost TCP with
/// one worker-session thread per honest worker. The counting allocator
/// is process-global, so the snapshots include the worker sessions too.
fn per_step_allocation_counts_tcp(gar: Arc<dyn Gar>) -> Vec<u64> {
    use dpbyz::net::{run_worker, Deployment, TcpCoordinator};

    let n = 5;
    let (trainer, record) = counting_trainer(gar, Cell::Honest, false, 1, None);

    let mut scratch = RunScratch::new();
    let (core, workers) = trainer.into_distributed_parts(1, &mut scratch);
    // An 8-frame replay ring fills within the measured window, so its
    // steady state recycles: at the default 32 it would still be growing.
    let deployment = Deployment {
        min_workers: Some(n),
        quorum: Some(n),
        resume_window: 8,
        ..Deployment::default()
    };
    let machine = deployment.resolve("tcp", core.config(), false).unwrap();
    let coordinator = TcpCoordinator::bind("127.0.0.1:0").unwrap();
    let addr = coordinator.local_addr().unwrap();
    let handles: Vec<_> = workers
        .into_iter()
        .map(|w| std::thread::spawn(move || run_worker(addr, w, 1, false)))
        .collect();
    coordinator
        .run(core, machine, deployment.resume_window, 1, &mut scratch)
        .unwrap();
    for handle in handles {
        handle.join().unwrap().unwrap();
    }
    record.counts()
}

/// The socket engine keeps per-round allocations bounded once warm: both
/// endpoints recycle their frame buffers (`FrameReader` compacts in
/// place, senders reuse one `BytesMut`), so the only tolerated residue is
/// incidental — not proportional to rounds, dimension, or workers. The
/// kernel's socket buffers live outside the global allocator and are
/// invisible here.
const TCP_STEADY_STATE_ALLOCS_PER_ROUND: u64 = 8;

fn assert_steady_state_allocation_bounded(name: &str, counts: &[u64]) {
    assert_eq!(counts.len(), STEPS as usize);
    let tail = &counts[counts.len() / 2..];
    for (i, pair) in tail.windows(2).enumerate() {
        assert!(
            pair[1] - pair[0] <= TCP_STEADY_STATE_ALLOCS_PER_ROUND,
            "{name}: round {} allocated {} time(s) at steady state, \
             above the {TCP_STEADY_STATE_ALLOCS_PER_ROUND}-allocation bound \
             (full counts: {counts:?})",
            counts.len() / 2 + i + 1,
            pair[1] - pair[0],
        );
    }
}

#[test]
fn tcp_average_cell_keeps_rounds_allocation_bounded() {
    let _serial = serial();
    let counts = per_step_allocation_counts_tcp(Arc::new(Average::new()));
    assert_steady_state_allocation_bounded("tcp/average/gaussian", &counts);
}

#[test]
fn tcp_median_cell_keeps_rounds_allocation_bounded() {
    let _serial = serial();
    let counts = per_step_allocation_counts_tcp(Arc::new(CoordinateMedian::new()));
    assert_steady_state_allocation_bounded("tcp/median/gaussian", &counts);
}
