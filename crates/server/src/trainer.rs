//! The in-process training engine and the shared server-side round logic.

use crate::config::{AttackVisibility, MomentumMode, TrainingConfig};
use crate::metrics::{ChurnStats, RunHistory};
use crate::observer::{RunObserver, StepMetrics};
use crate::worker::{HonestWorker, WorkerOutput};
use dpbyz_attacks::{Attack, AttackContext};
use dpbyz_data::sampler::BatchSource;
use dpbyz_data::Dataset;
use dpbyz_dp::{Mechanism, NoNoise};
use dpbyz_gars::{vn, Average, Gar, GarError, GarScratch};
use dpbyz_models::{metrics::accuracy, Model};
use dpbyz_tensor::{Lease, LeasePool, Prng, Vector};
use std::hint;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, LockResult, Mutex, MutexGuard, OnceLock, PoisonError, RwLock, TryLockError};
use std::thread;

/// Smallest per-worker round work, `batch_size × dim`, at which
/// [`Trainer::run_with_scratch`] lets pool threads claim honest workers
/// beside the driving thread. Below it the hand-off costs about what the
/// second core saves, so the workers run inline. Measured on a 2-vCPU
/// Xeon, one helper against none, as the ratio of the median µs per
/// round of 7 alternating 2 000-step runs each (leased / inline), with
/// MDA, Gaussian noise and the fall-of-empires attack:
///
/// | logistic, d = 69  | b·d = 345 | 690  | 1 035 | 1 380 | 3 450 | 10 350 |
/// |-------------------|-----------|------|-------|-------|-------|--------|
/// | 2 honest (n = 3)  | 1.25      | 0.98 | 0.86  | 0.91  | 0.71  | 0.68   |
/// | 3 honest (n = 5)  | 1.00      | 1.00 | 0.96  | 0.92  | 0.85  | 0.75   |
/// | 6 honest (n = 11) | 0.97      | 0.98 | 0.95  | 0.95  | 0.93  | 0.76   |
///
/// Mean estimation at b = 1 with 2, 3 and 6 honest workers: 1.04, 0.82
/// and 0.72 at d = 250; 0.92, 0.76 and 0.70 at d = 1 000. The cutoff
/// sits where no measured cell loses.
const LEASE_MIN_WORK: usize = 1_000;

/// How many pool threads claim honest workers beside the driving thread
/// in a round: none unless each worker does at least [`LEASE_MIN_WORK`],
/// one fewer than the workers at most, and no more than the cores the
/// `busy` threads that hold a live [`RunScratch`] (this run's included)
/// leave free. A parallel sweep keeps one scratch per pool thread and
/// one thread per core, so its jobs stay inline: helpers there would
/// only take cores from other jobs. Every count gives bit-identical
/// histories, so this is a speed choice.
fn helpers(n_honest: usize, batch_size: usize, dim: usize, busy: usize, cores: usize) -> usize {
    if batch_size.saturating_mul(dim) < LEASE_MIN_WORK {
        return 0;
    }
    cores.saturating_sub(busy).min(n_honest.saturating_sub(1))
}

/// [`RunScratch`]es alive now, on any thread. Each stands for a thread
/// that runs in-process jobs: a lone run makes one for its duration, and
/// a sweep-pool thread keeps one for its life, so the count also covers
/// the time a sweep thread spends building its next job.
static LIVE_SCRATCHES: AtomicUsize = AtomicUsize::new(0);

/// Holds one count in [`LIVE_SCRATCHES`] for as long as its scratch lives.
struct Counted;

impl Default for Counted {
    fn default() -> Self {
        LIVE_SCRATCHES.fetch_add(1, Ordering::Relaxed);
        Counted
    }
}

impl Drop for Counted {
    fn drop(&mut self) {
        LIVE_SCRATCHES.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The cores this process may use, read once.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// Reads of a [`SharedRound`]'s cursor that a lent thread with no job
/// due makes before its claim loop returns, when jobs fall due one at a
/// time. The same window as the pool mailbox's spin
/// (`dpbyz_tensor::LeasePool`): about 40 µs on the 2-vCPU Xeon that was
/// tuned on, longer than the gap between two reports falling due in a
/// paper-scale sim round. A thread that a run keeps feeding stays in its
/// loop, and one that runs dry gives its core back soon after.
const CLAIM_SPIN: u32 = 2_500;

/// One job of a [`SharedRound`]: what the thread that claims it computes
/// while it holds the job's slot locked.
pub trait RoundJob: Send + 'static {
    /// What every job of a round reads: the trainer's workers read the
    /// round's parameters and batch size; a job that holds its own input
    /// reads `()`.
    type Input: Send + Sync + 'static;

    /// Computes the job. In a round whose jobs fall due one at a time
    /// ([`SharedRound::publish`]) it computes whatever its slot has due,
    /// and nothing if that was computed already.
    fn run(&mut self, input: &Self::Input);
}

/// Jobs that several threads work on at once: the driving thread and
/// every pool thread that [`WorkerPool::lend`] hands the round to claim
/// the next due job from one cursor. Which thread computes a job does not
/// matter: a job's result depends only on its own slot and the round's
/// input.
///
/// The in-process trainer makes every honest worker due when it opens a
/// round and claims until none is left. An external engine opens one
/// generation for a whole run, [`publishes`](SharedRound::publish) a slot
/// whenever its job falls due, lets lent threads start it at once, and
/// only when it must read a slot's result [`locks`](SharedRound::lock)
/// it and runs what is still due there itself. A slot's job runs while
/// the slot is locked, so the lock waits out a job another thread is
/// running.
pub struct SharedRound<J: RoundJob> {
    /// `generation << 32 | jobs claimed`, the count wrapping. A claim
    /// names the generation it was made for, so it can never take a job
    /// of a later one. The Release stores of [`SharedRound::open`] pair
    /// with the Acquire loads of a claim: a claimant that sees a
    /// generation sees the jobs due in it.
    cursor: AtomicU64,
    /// Jobs due so far in the open generation, wrapping like the count
    /// in `cursor`.
    due: AtomicU32,
    /// Whether jobs fall due one at a time ([`SharedRound::publish`]):
    /// a lent thread then waits [`CLAIM_SPIN`] reads for the next one
    /// before its claim loop returns.
    streaming: bool,
    /// The slot of due job `k` is `order[k % order.len()]`. The length is
    /// the slot count rounded up to a power of two, so the job numbers
    /// stay in ring order across their wrap. A claim of a streaming round
    /// only names a slot to visit: its job may have run already, and a
    /// job published `order.len()` later may have overwritten the entry,
    /// sending the claimant to that job's slot instead. Either way the
    /// claimant runs what is due there, and the driving thread runs
    /// anything still due when it locks the slot.
    order: Box<[AtomicU32]>,
    /// What every job reads: written by the driving thread while no
    /// thread is lent, read by every claimant.
    input: RwLock<J::Input>,
    /// Each job, locked by the one thread running it. A panicking job
    /// poisons its lock; [`SharedRound::lock`] reports that, and the
    /// pool re-raises the panic when the thread is recalled.
    slots: Box<[Mutex<J>]>,
}

/// Whether jobs are due and unclaimed when `due` jobs fell due and
/// `claimed` were claimed: both counts wrap, and claims never pass the
/// due count, so the gap is below `2^31`.
fn unclaimed(due: u32, claimed: u32) -> bool {
    (1..1 << 31).contains(&due.wrapping_sub(claimed))
}

impl<J: RoundJob> SharedRound<J> {
    /// A round over `jobs`, each made due by [`SharedRound::publish`],
    /// all reading `input`. No generation is open: nothing can be claimed
    /// before [`SharedRound::open`].
    pub fn new(jobs: Vec<J>, input: J::Input) -> Self {
        Self::with(jobs, input, true)
    }

    fn with(jobs: Vec<J>, input: J::Input, streaming: bool) -> Self {
        SharedRound {
            cursor: AtomicU64::new(0),
            due: AtomicU32::new(0),
            streaming,
            order: (0..jobs.len().next_power_of_two() as u32)
                .map(AtomicU32::new)
                .collect(),
            input: RwLock::new(input),
            slots: jobs.into_iter().map(Mutex::new).collect(),
        }
    }

    /// Opens generation `generation` with no job due. A claim made for
    /// another generation finds nothing from now on. Only the driving
    /// thread opens a generation, with no thread lent.
    pub fn open(&self, generation: u32) {
        self.open_with(generation, 0);
    }

    fn open_with(&self, generation: u32, due: u32) {
        self.due.store(due, Ordering::Release);
        self.cursor
            .store(u64::from(generation) << 32, Ordering::Release);
    }

    /// Ends the open generation: claims made for it find nothing from now
    /// on, and a lent thread waiting for its next job returns.
    pub fn close(&self) {
        self.cursor.fetch_add(1 << 32, Ordering::AcqRel);
    }

    /// Makes slot `slot`'s job due in the open generation, after any
    /// published before it. Only the driving thread publishes.
    pub fn publish(&self, slot: usize) {
        let job = self.due.load(Ordering::Relaxed);
        self.order[job as usize % self.order.len()].store(slot as u32, Ordering::Relaxed);
        self.due.store(job.wrapping_add(1), Ordering::Release);
    }

    /// Claims the next due job of generation `generation` and returns its
    /// slot: `None` once every due job is claimed, or if another
    /// generation is open (the cursor is then left as it is).
    fn claim(&self, generation: u32) -> Option<usize> {
        let due = self.due.load(Ordering::Acquire);
        let cursor = self
            .cursor
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |cursor| {
                let claimed = cursor as u32;
                let open = cursor >> 32 == u64::from(generation);
                (open && unclaimed(due, claimed))
                    .then_some(cursor & !u64::from(u32::MAX) | u64::from(claimed.wrapping_add(1)))
            })
            .ok()?;
        let entry = &self.order[cursor as u32 as usize % self.order.len()];
        Some(entry.load(Ordering::Relaxed) as usize)
    }

    /// A claim loop: claims and runs the due jobs of generation
    /// `generation` in the order they fell due, until none is left. In a
    /// round whose jobs fall due one at a time a lent thread then waits
    /// `CLAIM_SPIN` reads for the next; the loop returns once none fell
    /// due in that window or the generation closed.
    fn work(&self, generation: u32) {
        loop {
            while let Some(i) = self.claim(generation) {
                self.run(i);
            }
            if !self.streaming || !self.wait_for_job(generation) {
                return;
            }
        }
    }

    /// Runs the job in slot `slot`, which this thread claimed. In a round
    /// whose jobs fall due one at a time, a slot another thread holds is
    /// left to it: that thread either runs what is due there or makes a
    /// new job due, and whoever reads the slot runs anything still due.
    fn run(&self, slot: usize) {
        let input = self.input.read().unwrap_or_else(PoisonError::into_inner);
        let slot = &self.slots[slot];
        let mut job = match slot.try_lock() {
            Ok(job) => job,
            Err(TryLockError::WouldBlock) if self.streaming => return,
            Err(_) => slot.lock().unwrap_or_else(PoisonError::into_inner),
        };
        job.run(&input);
    }

    /// Whether a job of `generation` falls due within [`CLAIM_SPIN`]
    /// reads of the cursor.
    fn wait_for_job(&self, generation: u32) -> bool {
        for _ in 0..CLAIM_SPIN {
            let cursor = self.cursor.load(Ordering::Acquire);
            if cursor >> 32 != u64::from(generation) {
                return false;
            }
            if unclaimed(self.due.load(Ordering::Acquire), cursor as u32) {
                return true;
            }
            hint::spin_loop();
        }
        false
    }

    /// Locks slot `slot` for the driving thread. While another thread
    /// runs a job in it, this thread claims and runs the next due job of
    /// generation `generation` rather than wait; with none due it spins
    /// `CLAIM_SPIN` attempts, then blocks.
    ///
    /// # Errors
    ///
    /// The poisoned lock, if a job panicked while holding it.
    pub fn lock(&self, generation: u32, slot: usize) -> LockResult<MutexGuard<'_, J>> {
        let slot = &self.slots[slot];
        let mut spins = 0;
        loop {
            match slot.try_lock() {
                Ok(guard) => return Ok(guard),
                Err(TryLockError::Poisoned(poisoned)) => return Err(poisoned),
                Err(TryLockError::WouldBlock) => {}
            }
            if let Some(i) = self.claim(generation) {
                self.run(i);
            } else if spins < CLAIM_SPIN {
                spins += 1;
                hint::spin_loop();
            } else {
                return slot.lock();
            }
        }
    }
}

/// One honest worker of the in-process trainer with the output slot it
/// fills.
struct WorkerSlot {
    worker: HonestWorker,
    out: WorkerOutput,
}

impl RoundJob for WorkerSlot {
    /// The round's broadcast parameters and batch size.
    type Input = (Vector, usize);

    fn run(&mut self, (params, batch_size): &(Vector, usize)) {
        self.worker.compute_into(params, *batch_size, &mut self.out);
    }
}

impl SharedRound<WorkerSlot> {
    /// One run's honest workers as a trainer round.
    fn workers(workers: Vec<HonestWorker>, dim: usize) -> Self {
        let slots = workers.into_iter().map(|worker| WorkerSlot {
            worker,
            out: WorkerOutput::default(),
        });
        Self::with(slots.collect(), (Vector::zeros(dim), 0), false)
    }

    /// Opens round `generation`: publishes its parameters and batch size,
    /// moves the output buffers into the slots, and makes every worker
    /// due. Only the driving thread calls this, with no thread lent.
    fn open_round(
        &self,
        generation: u32,
        params: &Vector,
        batch_size: usize,
        outputs: &mut [WorkerOutput],
    ) {
        let mut input = self.input.write().unwrap_or_else(PoisonError::into_inner);
        input.0.copy_from(params);
        input.1 = batch_size;
        drop(input);
        self.swap_outputs(outputs);
        self.open_with(generation, self.slots.len() as u32);
    }

    /// Moves the computed outputs back out of the slots, once every
    /// claimant of the round is done.
    fn close_round(&self, outputs: &mut [WorkerOutput]) {
        self.swap_outputs(outputs);
    }

    fn swap_outputs(&self, outputs: &mut [WorkerOutput]) {
        for (slot, out) in self.slots.iter().zip(outputs) {
            let mut slot = slot.lock().unwrap_or_else(PoisonError::into_inner);
            std::mem::swap(&mut slot.out, out);
        }
    }
}

/// A lent thread's view of a [`SharedRound`], whatever its job type.
trait Claims: Send + Sync {
    fn work(&self, generation: u32);
}

impl<J: RoundJob> Claims for SharedRound<J> {
    fn work(&self, generation: u32) {
        SharedRound::work(self, generation);
    }
}

/// A pool thread's part in a [`SharedRound`]: the round, shared with the
/// driving thread, and the generation its claims are for. Lent by
/// [`WorkerPool::lend`] and taken back by [`WorkerPool::recall`].
#[derive(Default)]
pub(crate) struct WorkerLease {
    round: Option<Arc<dyn Claims>>,
    generation: u32,
}

impl Lease for WorkerLease {
    fn run(&mut self) {
        if let Some(round) = &self.round {
            round.work(self.generation);
        }
    }
}

/// The persistent pool threads of a [`RunScratch`]
/// ([`RunScratch::worker_pool`]), which an engine lends to a
/// [`SharedRound`] to claim jobs beside its driving thread. Threads are
/// spawned on the first lend that needs them and kept for later runs.
#[derive(Default)]
pub struct WorkerPool {
    threads: LeasePool<WorkerLease>,
    /// Threads lent now: `0..lent`.
    lent: usize,
}

impl WorkerPool {
    /// How many pool threads may claim jobs beside the driving thread in
    /// a run of `n_honest` workers that each do `batch_size × dim` work
    /// per round: the rule [`Trainer::run_with_scratch`] applies to its
    /// rounds (a measured work cutoff, one fewer than the workers, and no
    /// more than the cores that the threads holding a live [`RunScratch`]
    /// leave free).
    pub fn helpers(n_honest: usize, batch_size: usize, dim: usize) -> usize {
        let busy = LIVE_SCRATCHES.load(Ordering::Relaxed);
        helpers(n_honest, batch_size, dim, busy, cores())
    }

    /// Number of threads in the pool.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.threads.len()
    }

    /// Lends `helpers` threads to generation `generation` of `round`,
    /// spawning any the pool lacks: each runs the round's claim loop at
    /// once. Take them back with [`WorkerPool::recall`].
    pub fn lend<J: RoundJob>(
        &mut self,
        round: &Arc<SharedRound<J>>,
        generation: u32,
        helpers: usize,
    ) {
        let threads = &mut self.threads;
        threads.resize(threads.len().max(helpers));
        for i in 0..helpers {
            let packet = threads.packet_mut(i);
            packet.round = Some(Arc::clone(round) as Arc<dyn Claims>);
            packet.generation = generation;
            threads.lease(i);
        }
        self.lent = helpers;
    }

    /// Lends again every lent thread whose claim loop returned because
    /// no job fell due for a while. Call after publishing a job.
    ///
    /// # Panics
    ///
    /// Panics if a job panicked on one of them.
    pub fn relend(&mut self) {
        for i in 0..self.lent {
            if self.threads.returned(i) {
                self.threads.recall(i);
                self.threads.lease(i);
            }
        }
    }

    /// Takes every lent thread back: at once if it has not started its
    /// claim loop, otherwise once the loop returns (close the round's
    /// generation first, so that it does).
    ///
    /// # Panics
    ///
    /// Panics if a job panicked on one of them (the thread survives and
    /// takes the next lend).
    pub fn recall(&mut self) {
        for i in 0..std::mem::take(&mut self.lent) {
            self.threads.recall(i).round = None;
        }
    }
}

/// Per-round buffers the server keeps alive for the entire run — the heart
/// of the zero-copy hot path. Every round refills these in place instead
/// of re-allocating the vector set: at steady state `process_round`
/// performs no heap allocation.
#[derive(Default)]
pub(crate) struct RoundBuffers {
    /// The final submission set the GAR aggregates: honest submissions in
    /// worker-id order, then `n_byzantine` copies of the forged vector.
    submissions: Vec<Vector>,
    /// Honest pre-noise gradients (VN diagnostics), in worker-id order.
    pre_noise: Vec<Vector>,
    /// The round's forged Byzantine vector (reused across rounds).
    forged: Vector,
    /// Mean scratch shared by the VN estimators and `grad_norm`.
    mean: Vector,
    /// The aggregated gradient.
    aggregated: Vector,
    /// Scratch handed to `Gar::aggregate_into` every round.
    gar_scratch: GarScratch,
    /// Model dimension, for provisioning fresh slots.
    dim: usize,
}

impl RoundBuffers {
    /// Adjusts the slot counts to this round's shape. The shape is fixed
    /// for the life of a run (worker count and attack are set at build),
    /// so this grows once on the first round and is a no-op afterwards.
    fn ensure_slots(&mut self, n_honest: usize, n_byzantine: usize) {
        let dim = self.dim;
        self.submissions
            .resize_with(n_honest + n_byzantine, || Vector::zeros(dim));
        self.pre_noise.resize_with(n_honest, || Vector::zeros(dim));
    }
}

/// Server-side state and round logic shared by every engine — the
/// in-process engine and the distributed transports all drive this same
/// object, which is what guarantees they produce identical histories.
///
/// External engines obtain one via [`Trainer::into_distributed_parts`]
/// and drive the round loop themselves: broadcast
/// [`ServerCore::params`], collect one [`WorkerOutput`] per honest
/// worker in worker-id order, call [`ServerCore::process_round`], and
/// after the last step reclaim buffers
/// ([`ServerCore::reclaim_scratch`]) and seal the run with
/// [`ServerCore::finish`].
pub struct ServerCore {
    config: TrainingConfig,
    model: Arc<dyn Model>,
    gar: Arc<dyn Gar>,
    attack: Option<Arc<dyn Attack>>,
    test: Option<Arc<Dataset>>,
    params: Vector,
    velocity: Vector,
    /// Bias-corrected EMA state of the aggregated gradient (§7 extension).
    ema: Vector,
    attack_rng: Prng,
    fault_rng: Prng,
    buffers: RoundBuffers,
    /// Per-honest-worker staleness ages for the *next* round, set by
    /// bounded-staleness engines via [`ServerCore::set_submission_age`].
    /// Empty on strict synchronous runs (the hot path does nothing).
    ages: Vec<u32>,
    /// Churn accounting attached by a distributed engine before `finish`.
    churn: ChurnStats,
    train_loss: Vec<f64>,
    test_accuracy: Vec<(u32, f64)>,
    vn_submitted: Vec<f64>,
    vn_clean: Vec<f64>,
    grad_norm: Vec<f64>,
    observer: Option<Box<dyn RunObserver>>,
}

/// Reusable cross-run scratch: every long-lived buffer an engine keeps
/// for the duration of one run, extracted so *consecutive* runs —
/// e.g. the (cell × seed) jobs a sweep-executor pool worker processes
/// back to back, or the seeds of a serial `run_seeds` loop — recycle one
/// working set instead of rebuilding it per job.
///
/// Holds the server's round buffers (submission set, forged/mean/
/// aggregated vectors, GAR scratch), the per-worker output slots, and the
/// persistent pool of helper threads that claim workers beside the
/// driving thread (spawned only by runs large enough to use them). A live
/// scratch counts as one thread busy with in-process runs: rounds take
/// helpers only from the cores that the live scratches leave free.
/// Buffer shapes adapt in place when the next run has a different
/// topology or dimension; reuse is **bit-invisible** — a run with a
/// dirty scratch produces exactly the history a fresh one does (every
/// buffer is overwritten before it is read).
#[derive(Default)]
pub struct RunScratch {
    pub(crate) round: RoundBuffers,
    pub(crate) outputs: Vec<WorkerOutput>,
    /// Helper threads that outlive the run; empty until a round leases.
    pub(crate) pool: WorkerPool,
    /// Counts this scratch as a busy thread for [`helpers`].
    _counted: Counted,
}

impl RunScratch {
    /// An empty scratch; buffers grow to the first run's shape and are
    /// recycled afterwards.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes the per-worker output slots out of the scratch (restored
    /// with [`RunScratch::restore_outputs`]) — how an external engine
    /// recycles the output set across runs, exactly as the in-process
    /// engine does internally.
    pub fn take_outputs(&mut self) -> Vec<WorkerOutput> {
        std::mem::take(&mut self.outputs)
    }

    /// Returns output slots taken by [`RunScratch::take_outputs`] so the
    /// next run reuses their allocations.
    pub fn restore_outputs(&mut self, outputs: Vec<WorkerOutput>) {
        self.outputs = outputs;
    }

    /// The scratch's pool threads, for an external engine to lend to its
    /// own [`SharedRound`] for one run, as [`Trainer::run_with_scratch`]
    /// lends them to its rounds.
    pub fn worker_pool(&mut self) -> &mut WorkerPool {
        &mut self.pool
    }
}

impl ServerCore {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        config: TrainingConfig,
        model: Arc<dyn Model>,
        gar: Arc<dyn Gar>,
        attack: Option<Arc<dyn Attack>>,
        test: Option<Arc<Dataset>>,
        params: Vector,
        attack_rng: Prng,
        fault_rng: Prng,
        mut buffers: RoundBuffers,
    ) -> Self {
        let dim = params.dim();
        buffers.dim = dim;
        // Every engine builds its core here, so this single call plumbs
        // the intra-round aggregation parallelism everywhere. 1 (the
        // default) is the serial path; any count is bit-identical to it.
        buffers.gar_scratch.set_parallelism(config.agg_threads);
        let steps = config.steps as usize;
        // Pre-reserve the eval curve too (0 when evaluation is disabled),
        // so steady-state rounds never grow a metrics vector.
        let evals = config
            .steps
            .checked_div(config.eval_every)
            .map_or(0, |e| e as usize + 1);
        ServerCore {
            config,
            model,
            gar,
            attack,
            test,
            params,
            velocity: Vector::zeros(dim),
            ema: Vector::zeros(dim),
            attack_rng,
            fault_rng,
            buffers,
            ages: Vec::new(),
            churn: ChurnStats::default(),
            train_loss: Vec::with_capacity(steps),
            test_accuracy: Vec::with_capacity(evals),
            vn_submitted: Vec::with_capacity(steps),
            vn_clean: Vec::with_capacity(steps),
            grad_norm: Vec::with_capacity(steps),
            observer: None,
        }
    }

    /// Attaches a streaming observer (observation is read-only: it cannot
    /// perturb the RNG streams or the update, so histories stay
    /// bit-identical with or without one).
    pub(crate) fn set_observer(&mut self, observer: Option<Box<dyn RunObserver>>) {
        self.observer = observer;
    }

    /// The current model parameters — what an engine broadcasts to its
    /// workers at the start of each round.
    pub fn params(&self) -> &Vector {
        &self.params
    }

    /// The training configuration this core was built with — engines read
    /// the step count and batch schedule from here.
    pub fn config(&self) -> &TrainingConfig {
        &self.config
    }

    /// Marks honest worker `worker`'s submission for the *next*
    /// [`ServerCore::process_round`] call as `age` rounds late: the core
    /// scales it by `staleness_damping^age` before the VN diagnostics,
    /// the attacker's view, or the GAR observe it. Ages reset after
    /// every round, so engines that never admit late gradients (or run
    /// with `staleness_window = 0`) pay nothing and stay digest-pinned.
    pub fn set_submission_age(&mut self, worker: usize, age: u32) {
        if self.ages.len() <= worker {
            self.ages.resize(worker + 1, 0);
        }
        self.ages[worker] = age;
    }

    /// Attaches churn accounting assembled by a distributed engine; it is
    /// sealed into [`RunHistory::churn`] by [`ServerCore::finish`]. The
    /// in-process engines never call this — their histories carry the
    /// default (all-zero) stats.
    pub fn record_churn(&mut self, churn: ChurnStats) {
        self.churn = churn;
    }

    /// Returns the core's round buffers to a [`RunScratch`] so the next
    /// run reuses their allocations. Call after the last round, before
    /// [`ServerCore::finish`] consumes the core.
    pub fn reclaim_scratch(&mut self, scratch: &mut RunScratch) {
        scratch.round = std::mem::take(&mut self.buffers);
    }

    /// Consumes one synchronous round of honest outputs (in worker-id
    /// order), forges the Byzantine submissions, aggregates, and updates
    /// the model.
    ///
    /// The outputs hand their vectors over **by move**: each output's
    /// `pre_noise`/`submitted` buffers are swapped into the server's
    /// long-lived `RoundBuffers`, and the previous round's buffers are
    /// swapped back out for the worker to refill — no per-round clone of
    /// the vector set, and at steady state no heap allocation at all.
    ///
    /// # Errors
    ///
    /// Propagates [`GarError`] when the configured rule cannot tolerate
    /// `n_byzantine` among the submissions.
    pub fn process_round(&mut self, t: u32, outputs: &mut [WorkerOutput]) -> Result<(), GarError> {
        // lint:begin(zero-copy)
        let n_honest = outputs.len();
        // The paper's training-loss metric: average loss over the batches
        // the honest workers sampled this step, at the pre-update model.
        let loss = outputs.iter().map(|o| o.batch_loss).sum::<f64>() / n_honest as f64;
        self.train_loss.push(loss);

        // Byzantine submissions: every colluder sends the same forged
        // vector (the attack model of §5.1). Colluders are the workers
        // that do not compute honestly: none unless an attack is armed.
        let active_byzantine =
            self.config.n_workers - self.config.honest_workers(self.attack.is_some());
        self.buffers.ensure_slots(n_honest, active_byzantine);
        for (i, output) in outputs.iter_mut().enumerate() {
            std::mem::swap(&mut self.buffers.pre_noise[i], &mut output.pre_noise);
            std::mem::swap(&mut self.buffers.submissions[i], &mut output.submitted);
        }

        // Bounded-staleness damping: a gradient admitted `j` rounds late
        // (flagged via `set_submission_age`) is scaled by `λ^j` before the
        // VN diagnostics, the attacker's view, or the GAR see it. `ages`
        // stays empty on strict synchronous runs, so at `k = 0` this block
        // performs zero float operations and trajectories stay bit-stable.
        if !self.ages.is_empty() {
            let lambda = self.config.staleness_damping;
            for (i, &age) in self.ages.iter().take(n_honest).enumerate() {
                if age > 0 && lambda < 1.0 {
                    self.buffers.submissions[i].scale(lambda.powi(age.min(i32::MAX as u32) as i32));
                }
            }
            self.ages.clear();
        }

        // VN ratios (Eq. 2 / Eq. 8). Both use the *pre-noise* mean norm as
        // the `‖E[G]‖` estimate: the DP noise is zero-mean, and the norm
        // of the noisy sample mean would be dominated by residual noise
        // (≈ √(d·s²/n)) rather than the signal, badly biasing the ratio.
        let grad_norm = match Vector::mean_into(&self.buffers.pre_noise, &mut self.buffers.mean) {
            Ok(()) => self.buffers.mean.l2_norm(),
            Err(_) => f64::NAN,
        };
        fn ratio_vs_clean_norm(vectors: &[Vector], grad_norm: f64, mean: &mut Vector) -> f64 {
            match vn::estimate_with(vectors, mean) {
                Ok(e) if grad_norm > 0.0 => e.variance.sqrt() / grad_norm,
                // Zero mean gradient: the condition is unmeetable at a
                // critical point (Eq. 2 requires ‖∇Q‖ > 0).
                Ok(_) => f64::INFINITY,
                // Fewer than 2 honest workers: statistic unavailable.
                Err(_) => f64::NAN,
            }
        }
        let vn_clean =
            ratio_vs_clean_norm(&self.buffers.pre_noise, grad_norm, &mut self.buffers.mean);
        self.vn_clean.push(vn_clean);
        self.grad_norm.push(grad_norm);

        if let Some(attack) = &self.attack {
            if active_byzantine > 0 {
                let (honest, byzantine) = self.buffers.submissions.split_at_mut(n_honest);
                let mut ctx = AttackContext::new(honest, t as usize);
                if self.config.attack_visibility == AttackVisibility::PreNoise {
                    ctx.pre_noise_gradients = Some(&self.buffers.pre_noise);
                }
                attack.forge_into(&ctx, &mut self.attack_rng, &mut self.buffers.forged);
                for slot in byzantine {
                    slot.copy_from(&self.buffers.forged);
                }
            }
        }

        // Fault injection (§2.1): a dropped honest submission is replaced
        // by the zero vector at the server. Byzantine colluders are assumed
        // to always deliver. Randomness is drawn only when faults are
        // enabled, in worker-id order, so fault-free runs are byte-stable.
        if self.config.drop_rate > 0.0 {
            for submission in self.buffers.submissions.iter_mut().take(n_honest) {
                if self.fault_rng.bernoulli(self.config.drop_rate) {
                    submission.fill(0.0);
                }
            }
        }

        // The submitted VN ratio is measured over the *final* submission
        // set — after DP noise, Byzantine forgeries, and fault-injection
        // drops — i.e. over exactly the vectors the GAR aggregates. (It
        // was previously computed before forgeries/drops, which made the
        // "submitted" series blind to everything the attack added.)
        let vn_submitted =
            ratio_vs_clean_norm(&self.buffers.submissions, grad_norm, &mut self.buffers.mean);
        self.vn_submitted.push(vn_submitted);

        self.gar.aggregate_into(
            &self.buffers.submissions,
            self.config.n_byzantine,
            &mut self.buffers.gar_scratch,
            &mut self.buffers.aggregated,
        )?;

        // §7 extension: bias-corrected exponential averaging of the
        // aggregated gradient reduces the effective noise variance by
        // ≈ (1−β)/(1+β) at the cost of gradient staleness.
        if let Some(beta) = self.config.gradient_ema {
            self.ema.scale(beta);
            self.ema.axpy(1.0 - beta, &self.buffers.aggregated);
            let correction = 1.0 - beta.powi(t as i32);
            self.buffers.aggregated.copy_from(&self.ema);
            self.buffers.aggregated.scale(1.0 / correction);
        }

        // Update (Eq. 9), with momentum where configured.
        let lr = self.config.lr.at(t);
        match self.config.momentum_mode {
            MomentumMode::Server => {
                self.velocity.scale(self.config.momentum);
                self.velocity.axpy(1.0, &self.buffers.aggregated);
                self.params.axpy(-lr, &self.velocity);
            }
            MomentumMode::Worker => self.params.axpy(-lr, &self.buffers.aggregated),
        }

        // Evaluation fires on the period *and* unconditionally at the
        // final step, so curves always end with the finished model even
        // when `steps` is not a multiple of `eval_every`.
        let mut eval_accuracy = None;
        if self.config.eval_every > 0
            && (t.is_multiple_of(self.config.eval_every) || t == self.config.steps)
        {
            if let Some(test) = &self.test {
                let acc = accuracy(self.model.as_ref(), &self.params, test);
                self.test_accuracy.push((t, acc));
                eval_accuracy = Some(acc);
            }
        }

        if let Some(observer) = &mut self.observer {
            observer.on_step(&StepMetrics {
                step: t,
                train_loss: loss,
                vn_clean,
                vn_submitted,
                grad_norm,
                test_accuracy: eval_accuracy,
                params: &self.params,
            });
        }
        Ok(())
        // lint:end(zero-copy)
    }

    /// Seals the run: consumes the core and assembles the [`RunHistory`]
    /// (notifying the observer's `on_finish`).
    pub fn finish(self, seed: u64) -> RunHistory {
        let ServerCore {
            mut observer,
            train_loss,
            test_accuracy,
            vn_submitted,
            vn_clean,
            grad_norm,
            params,
            churn,
            ..
        } = self;
        let history = RunHistory {
            seed,
            train_loss,
            test_accuracy,
            vn_submitted,
            vn_clean,
            grad_norm,
            final_params: params,
            churn,
        };
        if let Some(observer) = observer.as_mut() {
            observer.on_finish(&history);
        }
        history
    }
}

/// Derives the per-run RNG streams from the seed, returning
/// `(init_rng, worker_rngs, attack_rng, fault_rng)`. Shared by every
/// engine — in-process and distributed alike; the derivation order is
/// part of the reproducibility contract (a worker process must seed its
/// RNG from the same stream index its in-process twin would).
pub fn derive_streams(seed: u64, n_workers: usize) -> (Prng, Vec<Prng>, Prng, Prng) {
    let mut root = Prng::seed_from_u64(seed);
    let init_rng = root.derive(0);
    let worker_rngs: Vec<Prng> = (0..n_workers).map(|i| root.derive(1 + i as u64)).collect();
    let attack_rng = root.derive(1_000_000);
    let fault_rng = root.derive(2_000_000);
    (init_rng, worker_rngs, attack_rng, fault_rng)
}

/// The in-process training engine.
///
/// Construct with [`Trainer::new`], configure with the fluent setters, and
/// call [`Trainer::run`]. The trainer is consumed by `run` because batch
/// sources are stateful; build a fresh trainer per seed (see
/// `dpbyz-core`'s pipeline, which automates exactly that).
pub struct Trainer {
    pub(crate) config: TrainingConfig,
    pub(crate) model: Arc<dyn Model>,
    pub(crate) sources: Vec<Box<dyn BatchSource>>,
    pub(crate) test: Option<Arc<Dataset>>,
    pub(crate) gar: Arc<dyn Gar>,
    pub(crate) mechanism: Arc<dyn Mechanism>,
    pub(crate) attack: Option<Arc<dyn Attack>>,
    pub(crate) observer: Option<Box<dyn RunObserver>>,
}

impl Trainer {
    /// Creates a trainer with no DP noise, averaging aggregation, and no
    /// attack — override with the setters.
    ///
    /// `sources` supplies one batch stream per worker; Byzantine workers'
    /// sources are unused while an attack is active but must still be
    /// provided (they are consumed when the same config runs unattacked).
    ///
    /// # Panics
    ///
    /// Panics if `sources.len() != config.n_workers` or a source's feature
    /// count is inconsistent with the model (checked lazily by the model).
    pub fn new(
        config: TrainingConfig,
        model: Arc<dyn Model>,
        sources: Vec<Box<dyn BatchSource>>,
        test: Option<Arc<Dataset>>,
    ) -> Self {
        assert_eq!(
            sources.len(),
            config.n_workers,
            "need one batch source per worker"
        );
        Trainer {
            config,
            model,
            sources,
            test,
            gar: Arc::new(Average::new()),
            mechanism: Arc::new(NoNoise),
            attack: None,
            observer: None,
        }
    }

    /// Sets the aggregation rule.
    pub fn gar(mut self, gar: Arc<dyn Gar>) -> Self {
        self.gar = gar;
        self
    }

    /// Sets the workers' local DP mechanism.
    pub fn mechanism(mut self, mechanism: Arc<dyn Mechanism>) -> Self {
        self.mechanism = mechanism;
        self
    }

    /// Arms a Byzantine attack (the `config.n_byzantine` workers collude).
    pub fn attack(mut self, attack: Arc<dyn Attack>) -> Self {
        self.attack = Some(attack);
        self
    }

    /// Attaches a streaming [`RunObserver`] receiving per-step metrics.
    /// Observation is passive — it never touches the RNG streams — so the
    /// produced [`RunHistory`] is bit-identical with or without one.
    pub fn observer(mut self, observer: Box<dyn RunObserver>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Runs the full training, consuming the trainer.
    ///
    /// # Errors
    ///
    /// Propagates [`GarError`] when the configured rule cannot tolerate
    /// `config.n_byzantine` among `config.n_workers` (a configuration
    /// mistake surfaced on the first step).
    pub fn run(self, seed: u64) -> Result<RunHistory, GarError> {
        self.run_with_scratch(seed, &mut RunScratch::new())
    }

    /// Runs the full training, recycling the buffers in `scratch` —
    /// the cross-run hot path for callers that execute many runs back to
    /// back (the sweep executor's pool workers, serial seed loops). The
    /// history is bit-identical to [`Trainer::run`]'s regardless of what
    /// a previous run left in the scratch.
    ///
    /// Each round, the run's shape and the live scratches of other
    /// threads decide where the honest workers compute: all on this
    /// thread, or, when each does enough work and cores are free of other
    /// runs, shared between this thread and the scratch's persistent
    /// threads. Consecutive runs on one scratch reuse those threads. The
    /// history is the same either way.
    ///
    /// # Errors
    ///
    /// As [`Trainer::run`].
    ///
    /// # Panics
    ///
    /// Panics if a worker's computation panics on its thread.
    pub fn run_with_scratch(
        self,
        seed: u64,
        scratch: &mut RunScratch,
    ) -> Result<RunHistory, GarError> {
        let n_honest = self.config.honest_workers(self.attack.is_some());
        let (batch_size, dim) = (self.config.batch_size, self.model.dim());
        self.run_rounds(seed, scratch, || {
            let busy = LIVE_SCRATCHES.load(Ordering::Relaxed);
            helpers(n_honest, batch_size, dim, busy, cores())
        })
    }

    /// The in-process round loop. Each round it opens one
    /// [`SharedRound`] generation over the honest workers, lends it to as
    /// many pool threads as `helpers()` says (none: every worker runs
    /// inline), and claims workers itself until none is left. It then
    /// closes the generation and recalls the threads: one still computing
    /// a claimed worker is waited for, and a packet still unpicked is
    /// taken back unrun, so the driving thread never waits for a thread
    /// that has claimed nothing. The arithmetic and RNG streams are the
    /// same at every helper count, so a run may change it between rounds.
    /// Tests force a count through here.
    pub(crate) fn run_rounds(
        self,
        seed: u64,
        scratch: &mut RunScratch,
        helpers: impl Fn() -> usize,
    ) -> Result<RunHistory, GarError> {
        let (mut core, workers) = self.into_distributed_parts(seed, scratch);
        let n_honest = workers.len();
        let round = Arc::new(SharedRound::workers(workers, core.params().dim()));
        // Output buffers come from the scratch, so consecutive runs reuse them.
        let mut outputs = std::mem::take(&mut scratch.outputs);
        outputs.resize_with(n_honest, WorkerOutput::default);
        let pool = &mut scratch.pool;
        let result = (1..=core.config().steps).try_for_each(|t| {
            round.open_round(t, core.params(), core.config().batch_at(t), &mut outputs);
            pool.lend(&round, t, helpers());
            round.work(t);
            round.close();
            pool.recall();
            round.close_round(&mut outputs);
            core.process_round(t, &mut outputs)
        });
        scratch.outputs = outputs;
        core.reclaim_scratch(scratch);
        result.map(|()| core.finish(seed))
    }

    /// Dismantles the trainer into the server-side [`ServerCore`] and the
    /// honest workers — the constructor external engines (the TCP
    /// coordinator) drive. RNG-stream derivation, worker construction
    /// order, and parameter initialization are exactly
    /// [`Trainer::run_with_scratch`]'s, so an engine that feeds
    /// [`ServerCore::process_round`] each round's outputs in worker-id
    /// order reproduces the in-process histories bit for bit.
    ///
    /// The returned workers are honest only: with an attack armed, the
    /// `n_byzantine` colluders have no worker-side computation — the core
    /// forges their submissions server-side, as the in-process engine
    /// does.
    pub fn into_distributed_parts(
        self,
        seed: u64,
        scratch: &mut RunScratch,
    ) -> (ServerCore, Vec<HonestWorker>) {
        let config = self.config;
        let (mut init_rng, worker_rngs, attack_rng, fault_rng) =
            derive_streams(seed, config.n_workers);

        let n_honest = config.honest_workers(self.attack.is_some());
        let worker_momentum = match config.momentum_mode {
            MomentumMode::Worker => config.momentum,
            MomentumMode::Server => 0.0,
        };

        let workers: Vec<HonestWorker> = self
            .sources
            .into_iter()
            .zip(worker_rngs)
            .take(n_honest)
            .enumerate()
            .map(|(i, (source, rng))| {
                HonestWorker::new(
                    i as u32,
                    self.model.clone(),
                    source,
                    self.mechanism.clone(),
                    config.clip,
                    worker_momentum,
                    rng,
                )
            })
            .collect();

        let params = self.model.init_params(&mut init_rng);
        let mut core = ServerCore::new(
            config.clone(),
            self.model,
            self.gar,
            self.attack,
            self.test,
            params,
            attack_rng,
            fault_rng,
            std::mem::take(&mut scratch.round),
        );
        core.set_observer(self.observer);
        (core, workers)
    }

    /// Builds the single honest worker a standalone worker *process*
    /// hosts: worker `index`'s engine with exactly the RNG stream, clip,
    /// and momentum its in-process twin would get under this seed.
    /// Returns `None` when `index` is not an honest worker slot (at or
    /// beyond `n_honest`).
    pub fn into_worker(self, seed: u64, index: usize) -> Option<HonestWorker> {
        let mut scratch = RunScratch::new();
        let (_core, mut workers) = self.into_distributed_parts(seed, &mut scratch);
        if index < workers.len() {
            Some(workers.swap_remove(index))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BatchGrowth, TrainingConfig};
    use dpbyz_attacks::{FallOfEmpires, LittleIsEnough};
    use dpbyz_data::sampler::{DatasetSource, SamplingMode};
    use dpbyz_data::synthetic;
    use dpbyz_dp::GaussianMechanism;
    use dpbyz_gars::Mda;
    use dpbyz_models::{LogisticRegression, LossKind};

    fn make_trainer(n: usize, f: usize, steps: u32, seed_data: u64) -> (Trainer, Arc<Dataset>) {
        let mut rng = Prng::seed_from_u64(seed_data);
        let ds = Arc::new(synthetic::phishing_like(&mut rng, 600));
        let (train, test) = ds.split(0.8, &mut rng).unwrap();
        let train = Arc::new(train);
        let test = Arc::new(test);
        let model = Arc::new(LogisticRegression::new(68, LossKind::SigmoidMse));
        let config = TrainingConfig {
            n_workers: n,
            n_byzantine: f,
            batch_size: 20,
            steps,
            eval_every: 10,
            ..TrainingConfig::default()
        }
        .validate()
        .unwrap();
        let sources: Vec<Box<dyn BatchSource>> = (0..n)
            .map(|_| {
                Box::new(DatasetSource::new(
                    train.clone(),
                    SamplingMode::WithReplacement,
                )) as Box<dyn BatchSource>
            })
            .collect();
        (
            Trainer::new(config, model, sources, Some(test.clone())),
            test,
        )
    }

    #[test]
    fn honest_training_reduces_loss() {
        let (trainer, _) = make_trainer(5, 0, 120, 1);
        let h = trainer.run(1).unwrap();
        assert_eq!(h.train_loss.len(), 120);
        assert!(
            h.tail_loss(10) < h.train_loss[0] * 0.8,
            "loss {} -> {}",
            h.train_loss[0],
            h.tail_loss(10)
        );
        assert_eq!(h.test_accuracy.len(), 12);
        assert!(h.final_accuracy().unwrap() > 0.7);
    }

    #[test]
    fn identical_seeds_identical_histories() {
        let (t1, _) = make_trainer(5, 0, 30, 2);
        let (t2, _) = make_trainer(5, 0, 30, 2);
        assert_eq!(t1.run(7).unwrap(), t2.run(7).unwrap());
    }

    #[test]
    fn different_seeds_differ() {
        let (t1, _) = make_trainer(5, 0, 30, 2);
        let (t2, _) = make_trainer(5, 0, 30, 2);
        assert_ne!(t1.run(7).unwrap(), t2.run(8).unwrap());
    }

    #[test]
    fn mda_survives_alie_without_noise() {
        let (trainer, _) = make_trainer(11, 5, 150, 3);
        let attacked = trainer
            .gar(Arc::new(Mda::new()))
            .attack(Arc::new(LittleIsEnough::default()))
            .run(1)
            .unwrap();
        // MDA at b=20 without DP keeps training under ALIE.
        assert!(
            attacked.tail_loss(10) < attacked.train_loss[0],
            "{} -> {}",
            attacked.train_loss[0],
            attacked.tail_loss(10)
        );
    }

    #[test]
    fn aggregation_error_surfaces() {
        // Average cannot declare f > 0.
        let (trainer, _) = make_trainer(5, 1, 10, 4);
        let res = trainer.attack(Arc::new(LittleIsEnough::default())).run(1);
        assert!(matches!(res, Err(GarError::TooManyByzantine { .. })));
    }

    #[test]
    fn vn_metrics_recorded() {
        let (trainer, _) = make_trainer(5, 0, 20, 5);
        let h = trainer.run(1).unwrap();
        assert_eq!(h.vn_clean.len(), 20);
        assert_eq!(h.vn_submitted.len(), 20);
        // Without noise, attack, or drops, the two coincide.
        for (a, b) in h.vn_clean.iter().zip(&h.vn_submitted) {
            assert!((a - b).abs() < 1e-12 || (a.is_nan() && b.is_nan()));
        }
        assert_eq!(h.grad_norm.len(), 20);
    }

    #[test]
    fn vn_submitted_reflects_byzantine_forgeries() {
        // Regression: `vn_submitted` used to be computed *before* the
        // Byzantine forgeries were appended, so under a noise-free attack
        // it was bit-identical to `vn_clean` — the "submitted" series
        // never saw what the GAR actually aggregated. With FoE forging
        // vectors far from the honest cloud, the two must now differ at
        // every step.
        let (trainer, _) = make_trainer(11, 5, 15, 3);
        let h = trainer
            .gar(Arc::new(Mda::new()))
            .attack(Arc::new(dpbyz_attacks::FallOfEmpires::default()))
            .run(1)
            .unwrap();
        for (t, (clean, submitted)) in h.vn_clean.iter().zip(&h.vn_submitted).enumerate() {
            assert!(
                (clean - submitted).abs() > 1e-9,
                "step {}: vn_clean {clean} == vn_submitted {submitted} despite 5 forgeries",
                t + 1
            );
        }
    }

    #[test]
    fn vn_submitted_reflects_fault_injection_drops() {
        // Zeroed (dropped) submissions are part of what the GAR sees, so
        // the submitted series must diverge from the clean one.
        let config = TrainingConfig {
            n_workers: 5,
            n_byzantine: 0,
            batch_size: 20,
            steps: 40,
            drop_rate: 0.4,
            eval_every: 0,
            ..TrainingConfig::default()
        }
        .validate()
        .unwrap();
        let h = make_trainer_with(config, 9).run(1).unwrap();
        let diverged = h
            .vn_clean
            .iter()
            .zip(&h.vn_submitted)
            .any(|(c, s)| (c - s).abs() > 1e-9);
        assert!(diverged, "40% drops never moved the submitted VN ratio");
    }

    #[test]
    fn final_step_always_evaluated() {
        // Regression: with steps = 7 and eval_every = 3 the old schedule
        // evaluated at t = 3, 6 only, so the final model never appeared in
        // the accuracy curve.
        let config = TrainingConfig {
            n_workers: 3,
            n_byzantine: 0,
            batch_size: 10,
            steps: 7,
            eval_every: 3,
            ..TrainingConfig::default()
        }
        .validate()
        .unwrap();
        let h = make_trainer_with(config, 4).run(1).unwrap();
        let steps: Vec<u32> = h.test_accuracy.iter().map(|&(t, _)| t).collect();
        assert_eq!(steps, vec![3, 6, 7]);

        // When steps is a multiple of the period there is no duplicate.
        let config = TrainingConfig {
            n_workers: 3,
            n_byzantine: 0,
            batch_size: 10,
            steps: 6,
            eval_every: 3,
            ..TrainingConfig::default()
        }
        .validate()
        .unwrap();
        let h = make_trainer_with(config, 4).run(1).unwrap();
        let steps: Vec<u32> = h.test_accuracy.iter().map(|&(t, _)| t).collect();
        assert_eq!(steps, vec![3, 6]);

        // eval_every = 0 still disables evaluation entirely.
        let config = TrainingConfig {
            n_workers: 3,
            n_byzantine: 0,
            batch_size: 10,
            steps: 7,
            eval_every: 0,
            ..TrainingConfig::default()
        }
        .validate()
        .unwrap();
        let h = make_trainer_with(config, 4).run(1).unwrap();
        assert!(h.test_accuracy.is_empty());
    }

    fn make_trainer_with(config: TrainingConfig, seed_data: u64) -> Trainer {
        let mut rng = Prng::seed_from_u64(seed_data);
        let ds = Arc::new(synthetic::phishing_like(&mut rng, 600));
        let (train, test) = ds.split(0.8, &mut rng).unwrap();
        let train = Arc::new(train);
        let model = Arc::new(LogisticRegression::new(68, LossKind::SigmoidMse));
        let sources: Vec<Box<dyn BatchSource>> = (0..config.n_workers)
            .map(|_| {
                Box::new(DatasetSource::new(
                    train.clone(),
                    SamplingMode::WithReplacement,
                )) as Box<dyn BatchSource>
            })
            .collect();
        Trainer::new(config, model, sources, Some(Arc::new(test)))
    }

    #[test]
    fn drop_rate_still_trains_and_is_deterministic() {
        let config = TrainingConfig {
            n_workers: 5,
            n_byzantine: 0,
            batch_size: 20,
            steps: 80,
            drop_rate: 0.3,
            eval_every: 0,
            ..TrainingConfig::default()
        }
        .validate()
        .unwrap();
        let h1 = make_trainer_with(config.clone(), 9).run(1).unwrap();
        let h2 = make_trainer_with(config, 9).run(1).unwrap();
        assert_eq!(h1, h2);
        assert!(
            h1.tail_loss(10) < h1.train_loss[0],
            "training failed under 30% drops: {} -> {}",
            h1.train_loss[0],
            h1.tail_loss(10)
        );
    }

    #[test]
    fn drop_rate_changes_trajectory() {
        let mk = |rate: f64| {
            let config = TrainingConfig {
                n_workers: 5,
                n_byzantine: 0,
                batch_size: 20,
                steps: 20,
                drop_rate: rate,
                eval_every: 0,
                ..TrainingConfig::default()
            }
            .validate()
            .unwrap();
            make_trainer_with(config, 9).run(1).unwrap()
        };
        assert_ne!(mk(0.0), mk(0.5));
    }

    #[test]
    fn gradient_ema_smooths_updates() {
        let mk = |ema: Option<f64>| {
            let config = TrainingConfig {
                n_workers: 5,
                n_byzantine: 0,
                batch_size: 20,
                steps: 30,
                momentum: 0.0,
                eval_every: 0,
                gradient_ema: ema,
                ..TrainingConfig::default()
            }
            .validate()
            .unwrap();
            make_trainer_with(config, 9).run(1).unwrap()
        };
        let plain = mk(None);
        let smoothed = mk(Some(0.9));
        assert_ne!(plain, smoothed);
        // EMA must not break convergence.
        assert!(smoothed.tail_loss(5) < smoothed.train_loss[0]);
    }

    #[test]
    fn batch_growth_runs_and_improves_late_variance() {
        let config = TrainingConfig {
            n_workers: 5,
            n_byzantine: 0,
            batch_size: 5,
            steps: 60,
            batch_growth: Some(BatchGrowth {
                factor: 1.1,
                max: 200,
            }),
            eval_every: 0,
            ..TrainingConfig::default()
        }
        .validate()
        .unwrap();
        let grown = make_trainer_with(config.clone(), 9).run(1).unwrap();
        assert!(grown.tail_loss(5) < grown.train_loss[0]);

        // Growth must actually change the trajectory relative to the
        // constant-batch control (the σ_G ∝ 1/√b effect itself is verified
        // at a fixed parameter point in `worker` tests — trajectories
        // confound it with convergence state).
        let constant = TrainingConfig {
            n_workers: 5,
            n_byzantine: 0,
            batch_size: 5,
            steps: 60,
            eval_every: 0,
            ..TrainingConfig::default()
        }
        .validate()
        .unwrap();
        let flat = make_trainer_with(constant, 9).run(1).unwrap();
        assert_ne!(grown, flat);
        // Determinism is preserved under growth.
        let again = make_trainer_with(config, 9).run(1).unwrap();
        assert_eq!(grown, again);
    }

    #[test]
    fn late_submission_age_damps_the_marked_round_only() {
        let config = TrainingConfig {
            n_workers: 3,
            n_byzantine: 0,
            batch_size: 10,
            steps: 4,
            eval_every: 0,
            staleness_window: 2,
            staleness_damping: 0.5,
            ..TrainingConfig::default()
        }
        .validate()
        .unwrap();
        // Hand-driven engine so we can flag a late submission mid-run.
        let run = |late_age: u32| {
            let mut scratch = RunScratch::new();
            let (mut core, mut workers) =
                make_trainer_with(config.clone(), 4).into_distributed_parts(1, &mut scratch);
            let mut outputs: Vec<WorkerOutput> = Vec::new();
            outputs.resize_with(workers.len(), WorkerOutput::default);
            let mut params = Vector::zeros(0);
            for t in 1..=core.config().steps {
                params.copy_from(core.params());
                let batch = core.config().batch_at(t);
                for (w, out) in workers.iter_mut().zip(outputs.iter_mut()) {
                    w.compute_into(&params, batch, out);
                }
                if t == 2 {
                    core.set_submission_age(0, late_age);
                }
                core.process_round(t, &mut outputs).unwrap();
            }
            core.finish(1)
        };
        // Age 0 is a no-op: bit-identical to never flagging anything.
        assert_eq!(run(0), run(0));
        let fresh = run(0);
        let damped = run(1);
        assert_ne!(fresh, damped, "λ^1 damping must perturb the trajectory");
        // Ages reset after the round they apply to: the first round (before
        // the flag) is untouched, so the loss streams agree at t = 1 and
        // diverge only after the damped aggregation lands in the params.
        assert_eq!(
            fresh.train_loss[0].to_bits(),
            damped.train_loss[0].to_bits()
        );
        assert_eq!(
            fresh.train_loss[1].to_bits(),
            damped.train_loss[1].to_bits(),
            "loss at t = 2 is measured pre-update and must not move"
        );
        assert_ne!(
            fresh.train_loss[2].to_bits(),
            damped.train_loss[2].to_bits()
        );
    }

    /// Runs `trainer` with `helpers` pool threads claiming workers
    /// beside the driving thread in every round (0: all inline).
    fn run_path(trainer: Trainer, seed: u64, helpers: usize) -> RunHistory {
        trainer
            .run_rounds(seed, &mut RunScratch::new(), || helpers)
            .unwrap()
    }

    /// The paper's attacked MDA cell at b = 20 with DP noise.
    fn attacked(trainer: Trainer) -> Trainer {
        trainer
            .gar(Arc::new(Mda::new()))
            .mechanism(Arc::new(GaussianMechanism::with_sigma(0.01).unwrap()))
            .attack(Arc::new(FallOfEmpires::default()))
    }

    #[test]
    fn selection_leases_the_paper_shape_on_a_free_core_and_stays_inline_without_one() {
        // One run on a 2-core machine. §5.1: 6 honest workers of b = 50
        // at d = 69 share the round with one helper.
        assert_eq!(helpers(6, 50, 69, 1, 2), 1);
        // perfbench's stress cell: 6 honest workers of b = 1 at d = 10⁵.
        assert_eq!(helpers(6, 1, 100_000, 1, 2), 1);
        // A tiny round stays inline.
        assert_eq!(helpers(6, 10, 69, 1, 2), 0);
        // One honest worker never leases, whatever its work.
        assert_eq!(helpers(1, 1, 100_000, 1, 2), 0);
        assert_eq!(helpers(2, 1, LEASE_MIN_WORK, 1, 2), 1);
        assert_eq!(helpers(2, 1, LEASE_MIN_WORK - 1, 1, 2), 0);
        assert_eq!(helpers(2, usize::MAX, usize::MAX, 1, 2), 1);
        // One helper per core the live runs leave free, and one fewer
        // than the workers.
        assert_eq!(helpers(6, 50, 69, 1, 4), 3);
        assert_eq!(helpers(3, 50, 69, 1, 8), 2);
        // A parallel sweep on 2 cores keeps 2 scratches live: the paper
        // shape stays inline, and leases again once a core is left. A
        // single core never leases.
        assert_eq!(helpers(6, 50, 69, 2, 2), 0);
        assert_eq!(helpers(6, 50, 69, 7, 8), 1);
        assert_eq!(helpers(6, 50, 69, 1, 1), 0);
    }

    #[test]
    fn concurrent_runs_stay_inline_while_every_core_is_busy() {
        // One run per core at a leasing shape (2 workers of b·d = 10 350),
        // as a parallel sweep runs them: every scratch is live before any
        // run starts and until every run is done, so no round may lease.
        let n = cores();
        let barrier = Arc::new(std::sync::Barrier::new(n));
        let config = TrainingConfig {
            n_workers: 2,
            n_byzantine: 0,
            batch_size: 150,
            steps: 3,
            ..TrainingConfig::default()
        }
        .validate()
        .unwrap();
        let runs: Vec<_> = (0..n)
            .map(|_| {
                let (barrier, config) = (barrier.clone(), config.clone());
                thread::spawn(move || {
                    let mut scratch = RunScratch::new();
                    barrier.wait();
                    let trainer = make_trainer_with(config, 11);
                    trainer.run_with_scratch(1, &mut scratch).unwrap();
                    barrier.wait();
                    scratch.pool.len()
                })
            })
            .collect();
        for run in runs {
            assert_eq!(run.join().unwrap(), 0, "a run leased with no core free");
        }
    }

    #[test]
    fn leased_matches_inline_honest() {
        let (a, _) = make_trainer(4, 0, 25, 11);
        let inline = run_path(a, 3, 0);
        for helpers in [1, 3] {
            let (b, _) = make_trainer(4, 0, 25, 11);
            assert_eq!(inline, run_path(b, 3, helpers), "{helpers} helpers");
        }
    }

    #[test]
    fn leased_matches_inline_at_the_paper_shape() {
        // §5.1's shape, b = 50 at d = 69, with 6 honest workers (n = 11,
        // f = 5, attacked) and with 2 (n = 2, honest).
        for (n, f) in [(11, 5), (2, 0)] {
            let config = TrainingConfig {
                n_workers: n,
                n_byzantine: f,
                batch_size: 50,
                steps: 20,
                eval_every: 10,
                ..TrainingConfig::default()
            }
            .validate()
            .unwrap();
            let trainer = || {
                let trainer = make_trainer_with(config.clone(), 11);
                if f > 0 {
                    attacked(trainer)
                } else {
                    trainer
                }
            };
            let inline = run_path(trainer(), 7, 0);
            for helpers in [1, 3] {
                let leased = run_path(trainer(), 7, helpers);
                assert_eq!(inline, leased, "n = {n}, f = {f}, {helpers} helpers");
            }
        }
    }

    #[test]
    fn leased_matches_inline_under_attack_noise_and_every_extension() {
        // DP + attack + drops + EMA + batch growth: every RNG stream and
        // every server-side extension in one cell, several seeds.
        let config = TrainingConfig {
            n_workers: 11,
            n_byzantine: 5,
            batch_size: 20,
            steps: 15,
            drop_rate: 0.25,
            gradient_ema: Some(0.9),
            batch_growth: Some(BatchGrowth {
                factor: 1.05,
                max: 100,
            }),
            eval_every: 5,
            ..TrainingConfig::default()
        }
        .validate()
        .unwrap();
        let trainer = || attacked(make_trainer_with(config.clone(), 11));
        for seed in [5, 13] {
            let inline = run_path(trainer(), seed, 0);
            assert_eq!(inline, run_path(trainer(), seed, 1), "seed {seed}");
            // A run may also change its helper count between rounds.
            let round = std::cell::Cell::new(0usize);
            let mixed = trainer().run_rounds(seed, &mut RunScratch::new(), || {
                round.set(round.get() + 1);
                round.get() % 3
            });
            assert_eq!(inline, mixed.unwrap(), "seed {seed}, mixed paths");
        }
    }

    #[test]
    fn leased_path_surfaces_aggregation_errors() {
        let (trainer, _) = make_trainer(5, 1, 10, 4);
        let res = trainer
            .attack(Arc::new(FallOfEmpires::default()))
            .run_rounds(1, &mut RunScratch::new(), || 1);
        assert!(matches!(res, Err(GarError::TooManyByzantine { .. })));
    }

    /// The honest workers of a 3-worker run, in a round of their own.
    fn shared_round() -> (SharedRound<WorkerSlot>, Vector) {
        let config = TrainingConfig {
            n_workers: 3,
            n_byzantine: 0,
            batch_size: 10,
            steps: 2,
            ..TrainingConfig::default()
        }
        .validate()
        .unwrap();
        let (core, workers) =
            make_trainer_with(config, 4).into_distributed_parts(1, &mut RunScratch::new());
        let params = core.params().clone();
        (SharedRound::workers(workers, params.dim()), params)
    }

    #[test]
    fn a_claim_for_one_round_cannot_take_a_worker_of_the_next() {
        let (round, params) = shared_round();
        let mut outputs = vec![WorkerOutput::default(); 3];
        round.open_round(1, &params, 10, &mut outputs);
        assert_eq!(round.claim(1), Some(0));
        round.close_round(&mut outputs);
        round.open_round(2, &params, 10, &mut outputs);
        // A claimant still holding round 1 finds nothing, and leaves
        // round 2's cursor where it was.
        assert_eq!(round.claim(1), None);
        assert_eq!(round.claim(2), Some(0));
        round.work(1);
        assert_eq!(round.claim(2), Some(1));
        assert_eq!(round.claim(2), Some(2));
        assert_eq!(round.claim(2), None);
    }

    #[test]
    fn the_driver_computes_every_worker_a_helper_does_not_claim() {
        // A helper whose packet names an earlier round claims nothing,
        // however soon it runs: the driving thread computes the whole
        // round, exactly as inline.
        let (round, params) = shared_round();
        let (inline, _) = shared_round();
        let round = Arc::new(round);
        let mut pool = WorkerPool::default();
        let (mut leased_out, mut inline_out) = (
            vec![WorkerOutput::default(); 3],
            vec![WorkerOutput::default(); 3],
        );
        for t in 1..=2 {
            round.open_round(t, &params, 10, &mut leased_out);
            pool.lend(&round, t - 1, 1);
            round.work(t);
            round.close();
            pool.recall();
            round.close_round(&mut leased_out);
            inline.open_round(t, &params, 10, &mut inline_out);
            inline.work(t);
            inline.close_round(&mut inline_out);
            assert_eq!(leased_out, inline_out, "round {t}");
        }
        assert_eq!(Arc::strong_count(&round), 1, "a packet kept the round");
    }

    /// A job that counts the runs that found it due.
    #[derive(Default)]
    struct Tally {
        due: bool,
        runs: u32,
    }

    impl RoundJob for Tally {
        type Input = ();

        fn run(&mut self, (): &()) {
            self.runs += u32::from(std::mem::take(&mut self.due));
        }
    }

    #[test]
    fn published_jobs_are_claimed_in_the_order_they_fell_due_and_run_only_what_is_still_due() {
        let round = SharedRound::new((0..3).map(|_| Tally::default()).collect(), ());
        let publish = |slot: usize| {
            round.lock(7, slot).unwrap().due = true;
            round.publish(slot);
        };
        let runs = || -> Vec<u32> { (0..3).map(|i| round.lock(7, i).unwrap().runs).collect() };
        round.open(7);
        assert_eq!(round.claim(7), None, "nothing is due yet");
        [2, 0, 1].into_iter().for_each(publish);
        assert_eq!(round.claim(7), Some(2));
        assert_eq!(round.claim(7), Some(0));
        // The driving thread runs slot 1 itself before its claim, and
        // publishes it again: the first claim of slot 1 runs the new job,
        // the second finds nothing due.
        round.lock(7, 1).unwrap().run(&());
        publish(1);
        round.work(7);
        assert_eq!(runs(), [0, 2, 0]);
        // A claim for another generation, or after the close, takes
        // nothing.
        assert_eq!(round.claim(6), None);
        round.close();
        assert_eq!(round.claim(7), None);
        // The counts wrap: a generation whose counts are about to wrap
        // claims across the wrap in order.
        round.open(8);
        round.due.store(u32::MAX, Ordering::Relaxed);
        round
            .cursor
            .store(8 << 32 | u64::from(u32::MAX), Ordering::Relaxed);
        round.publish(1);
        round.publish(2);
        assert_eq!(
            (round.claim(8), round.claim(8), round.claim(8)),
            (Some(1), Some(2), None)
        );
        // Five jobs unclaimed in a ring of four: the fifth's entry
        // overwrites the first's, whose claim visits the fifth's slot.
        round.open(9);
        [0, 1, 2, 0, 1]
            .into_iter()
            .for_each(|slot| round.publish(slot));
        let claims: Vec<_> = std::iter::from_fn(|| round.claim(9)).collect();
        assert_eq!(claims, [1, 1, 2, 0, 1]);
    }

    /// A batch source that panics when called off the thread that built
    /// it, and on that thread first waits until such a panic happened: a
    /// round of two workers with one helper then panics on the helper,
    /// whichever worker it claims.
    struct PanicsOffThread {
        inner: DatasetSource,
        home: thread::ThreadId,
        panicked: Arc<std::sync::atomic::AtomicBool>,
    }

    impl BatchSource for PanicsOffThread {
        fn num_features(&self) -> usize {
            self.inner.num_features()
        }

        fn next_batch_into(
            &mut self,
            batch_size: usize,
            rng: &mut Prng,
            out: &mut dpbyz_data::Batch,
        ) {
            if thread::current().id() != self.home {
                self.panicked.store(true, Ordering::SeqCst);
                panic!("a worker failed on a pool thread");
            }
            while !self.panicked.load(Ordering::SeqCst) {
                thread::yield_now();
            }
            self.inner.next_batch_into(batch_size, rng, out);
        }
    }

    #[test]
    fn a_worker_panicking_on_a_pool_thread_reaches_the_driver_and_the_pool_takes_the_next_run() {
        let config = TrainingConfig {
            n_workers: 2,
            n_byzantine: 0,
            batch_size: 10,
            steps: 3,
            ..TrainingConfig::default()
        }
        .validate()
        .unwrap();
        let mut rng = Prng::seed_from_u64(4);
        let train = Arc::new(synthetic::phishing_like(&mut rng, 200));
        let panicked = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let sources: Vec<Box<dyn BatchSource>> = (0..2)
            .map(|_| {
                Box::new(PanicsOffThread {
                    inner: DatasetSource::new(train.clone(), SamplingMode::WithReplacement),
                    home: thread::current().id(),
                    panicked: panicked.clone(),
                }) as Box<dyn BatchSource>
            })
            .collect();
        let model = Arc::new(LogisticRegression::new(68, LossKind::SigmoidMse));
        let failing = Trainer::new(config.clone(), model, sources, None);
        let mut scratch = RunScratch::new();
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            failing.run_rounds(1, &mut scratch, || 1)
        }));
        let message = run.err().and_then(|e| e.downcast_ref::<String>().cloned());
        assert_eq!(
            message.as_deref(),
            Some("a job leased to pool thread 0 panicked")
        );
        // The same scratch and pool thread run the next run's rounds.
        let next = make_trainer_with(config.clone(), 4).run_rounds(1, &mut scratch, || 1);
        assert_eq!(next.unwrap(), run_path(make_trainer_with(config, 4), 1, 0));
    }

    #[test]
    fn pool_threads_persist_across_runs() {
        // Two consecutive leased runs on one scratch must not respawn
        // threads: the pool's size is the high-water mark of helper
        // counts, and histories stay bit-identical to fresh-pool runs.
        let mut scratch = RunScratch::new();
        let (a, _) = make_trainer(4, 0, 10, 11);
        let first = a.run_rounds(3, &mut scratch, || 3).unwrap();
        assert_eq!(scratch.pool.len(), 3);
        let spawned: Vec<_> = scratch.pool.threads.threads().map(|t| t.id()).collect();
        let (b, _) = make_trainer(4, 0, 10, 11);
        let second = b.run_rounds(3, &mut scratch, || 3).unwrap();
        assert_eq!(first, second);
        let reused: Vec<_> = scratch.pool.threads.threads().map(|t| t.id()).collect();
        assert_eq!(spawned, reused, "threads were respawned between runs");
    }

    #[test]
    fn dirty_scratch_reuse_is_bit_invisible_across_topologies() {
        // One scratch reused across a 4-worker honest run, an 11-worker
        // attacked run, and back, with changing helper counts — the
        // sweep-executor usage pattern. Every history must equal its
        // fresh-scratch inline counterpart exactly.
        let honest = || make_trainer(4, 0, 12, 11).0;
        let armed = || attacked(make_trainer(11, 5, 8, 11).0);
        let fresh_a = run_path(honest(), 3, 0);
        let fresh_b = run_path(armed(), 4, 0);
        let mut scratch = RunScratch::new();
        for (a_helpers, b_helpers) in [(2, 0), (0, 3), (1, 1)] {
            let a = honest().run_rounds(3, &mut scratch, || a_helpers).unwrap();
            assert_eq!(a, fresh_a, "honest, {a_helpers} helpers");
            let b = armed().run_rounds(4, &mut scratch, || b_helpers).unwrap();
            assert_eq!(b, fresh_b, "attacked, {b_helpers} helpers");
        }
    }

    #[test]
    #[should_panic(expected = "one batch source per worker")]
    fn source_count_checked() {
        let (trainer, test) = make_trainer(5, 0, 10, 6);
        let _ = Trainer::new(
            trainer.config.clone(),
            trainer.model.clone(),
            Vec::new(),
            Some(test),
        );
    }
}
