//! `SimNet` — the seeded in-memory chaos transport, and the
//! [`SimBackend`] that runs training over it.
//!
//! The simulator plays the reference adversary of the self-stabilizing
//! communication literature (Dolev–Dubois–Potop-Butucaru–Tixeuil):
//! unreliable, non-FIFO links that drop, duplicate, reorder, delay, and
//! partition frames — plus worker crash-and-rejoin schedules. Everything
//! derives from a `u64` seed through the workspace [`Prng`]: the same
//! seed produces the same byte-level event order and therefore the same
//! [`RunHistory::digest`](dpbyz_server::RunHistory::digest), which is
//! what lets CI *pin* chaos runs instead of hoping on real sockets.
//!
//! Fidelity over mocking: frames on simulated links are the real wire
//! bytes, and both ends run the code TCP runs. Every delivered frame is
//! opened by [`open_frame`], as a TCP reader opens it; every inbound one
//! then goes to the coordinator's session handler (`session.rs`: join gate,
//! token-checked rejoin with ring replay, gradient admission), and every
//! simulated worker runs the two halves of a
//! [`WorkerSession`](crate::WorkerSession) around a real
//! [`HonestWorker`], so its RNG stream and momentum are bit-identical to
//! its in-process and TCP twins. This transport only moves bytes through
//! its chaos queue and fires the crash and join schedules. Its links
//! reorder, so each worker session buffers up to `resume_window` steps
//! ahead of its cursor: a worker further behind than that could not be
//! replayed anyway.
//!
//! Losses are modeled as *delayed retransmissions* (TCP's own model —
//! a "dropped" segment is retried, not gone), so a crash-free fault plan
//! is **invisible to the result**: every report still lands inside the
//! (virtual) deadlines and the digest matches the sequential engine's.
//! Crashes are the visible faults: a crashed worker misses broadcasts
//! until its rejoin schedule fires, at which point the `REJOIN`
//! handshake replays the missed steps and its rounds-in-absence are
//! zeroed — bit-identical to a run where it merely straggled those
//! rounds.
//!
//! Time is virtual: the clock advances only through
//! [`Transport::idle`], jumping to the next queued delivery or the next
//! machine deadline. No wall clock, no sleeps, no sockets — a chaos run
//! executes in microseconds.
//!
//! Reports are computed on the run's worker pool when [`drive`] lends it
//! a thread ([`Transport::lend_pool`]). A delivered `STEP` still advances
//! the worker's cursor at once, and its report's link times and queue
//! `seq` (primary copy, then any duplicate) are drawn at the same virtual
//! time and in the same order as when the report is computed inline;
//! only the frame's bytes are left pending. The report is published to
//! one shared round ([`SharedRound`]), where a pool thread claims it as
//! soon as it is free. A report's bytes are written into every queued
//! copy before one of its copies is delivered, before its worker's
//! session handles another frame or says hello, and before `drive`
//! returns; the driving thread computes the report itself at that point
//! if no pool thread has claimed it, and waits out one still computing
//! it. So a worker has at most one report pending, the chaos draws and
//! the delivery order are those of an inline run, and every frame
//! carries the bytes an inline run would send. A run whose driving
//! thread finds `UNHELPED_LIMIT` reports in a row still uncomputed (no
//! pool thread got a core) stops lending and computes the rest inline.

use crate::backend::Deployment;
use crate::machine::{Event, Phase};
use crate::protocol::{grad_frame_len, open_frame, session_token};
use crate::session::{Broadcast, Report, Session, Verdict, WorkerProtocol, WorkerUplink};
use crate::transport::{drive, Transport};
use crate::worker::WorkerError;
use dpbyz_core::pipeline::{Experiment, PipelineError};
use dpbyz_server::{
    HonestWorker, RunHistory, RunObserver, RunScratch, SharedRound, WorkerOutput, WorkerPool,
};
use dpbyz_tensor::{Prng, Vector};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::io;
use std::sync::{Arc, MutexGuard};

/// Extra one-way latency charged per simulated "drop": the frame is not
/// lost, it is redelivered later — TCP's retransmission model, which is
/// what keeps crash-free chaos invisible to the digest.
const RETRANSMIT_PENALTY_MS: u64 = 3;

/// Redelivery attempts a frame can lose before the link gives up
/// dropping it (keeps worst-case delay bounded well under the default
/// 10 s deadlines).
const MAX_RETRANSMITS: u32 = 16;

/// Fault model of one directed link.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkPlan {
    /// Base one-way latency, ms.
    pub delay_ms: u64,
    /// Uniform extra latency in `0..=jitter_ms` per copy — the reorder
    /// source.
    pub jitter_ms: u64,
    /// Probability a delivery attempt is "dropped" (redelivered after a
    /// fixed retransmit penalty plus the base latency).
    pub drop: f64,
    /// Probability a second copy of the frame is delivered.
    pub dup: f64,
    /// Partition windows `[start_ms, end_ms)`: a delivery landing inside
    /// one is held until the window closes.
    pub partitions: Vec<(u64, u64)>,
}

impl LinkPlan {
    /// A perfect link: 1 ms latency, no faults.
    pub fn clean() -> Self {
        LinkPlan {
            delay_ms: 1,
            jitter_ms: 0,
            drop: 0.0,
            dup: 0.0,
            partitions: Vec::new(),
        }
    }
}

/// A worker crash-and-rejoin schedule, phrased in protocol terms (not
/// milliseconds) so tests stay robust to timing details: the worker dies
/// right after submitting `after_step`'s report and comes back — sending
/// `REJOIN` — when the coordinator broadcasts `rejoin_on_step`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    /// Which worker crashes.
    pub worker: u32,
    /// Last step it computes (and reports) before dying.
    pub after_step: u32,
    /// The broadcast that triggers its rejoin handshake.
    pub rejoin_on_step: u32,
}

/// A fresh mid-run join schedule: the worker never sends `JOIN` during
/// the join phase; instead it sends `JOIN_FRESH` when the coordinator
/// broadcasts `on_step` (`0` = when warmup starts). The coordinator
/// replays its resume-ring tail — the current model snapshot — and the
/// worker starts computing at the in-flight step, skipping warmup.
/// Runs using late joins need `min_workers`/`quorum` at most
/// `n - late_joiners`, since the join phase closes without them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LateJoinPlan {
    /// Which worker joins late.
    pub worker: u32,
    /// The broadcast that triggers its `JOIN_FRESH` (`0` = warmup).
    pub on_step: u32,
}

/// An explicit straggler schedule: worker `worker`'s reports for steps
/// `from_step..=to_step` are held an extra `extra_ms` on the wire —
/// the knob the reconnect-equivalence suite uses to express "those
/// rounds arrived too late" without a crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GradDelay {
    /// The straggling worker.
    pub worker: u32,
    /// First delayed step (inclusive).
    pub from_step: u32,
    /// Last delayed step (inclusive).
    pub to_step: u32,
    /// Extra latency, ms.
    pub extra_ms: u64,
}

/// The complete fault schedule of one simulated run: per-link chaos
/// (both directions, per worker) plus explicit crash and straggler
/// schedules.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// RNG seed the per-link draw streams derive from.
    pub seed: u64,
    /// Coordinator → worker link plans, indexed by worker.
    pub to_worker: Vec<LinkPlan>,
    /// Worker → coordinator link plans, indexed by worker.
    pub to_coord: Vec<LinkPlan>,
    /// Crash-and-rejoin schedules.
    pub crashes: Vec<CrashPlan>,
    /// Fresh mid-run join schedules.
    pub late_joins: Vec<LateJoinPlan>,
    /// Explicit straggler delays.
    pub grad_delays: Vec<GradDelay>,
    /// Whether the coordinator notices a crash (an [`Event::Detached`],
    /// as a TCP reset would surface). `false` models a silent half-open
    /// loss: the coordinator keeps waiting for the full deadline —
    /// byte-identical timing to a straggler run, which is what the
    /// equivalence suite wants.
    pub detect_crash: bool,
}

impl FaultPlan {
    /// Fault-free plan for `n` workers: clean 1 ms links, no churn.
    pub fn clean(n: usize) -> Self {
        FaultPlan {
            seed: 0,
            to_worker: vec![LinkPlan::clean(); n],
            to_coord: vec![LinkPlan::clean(); n],
            crashes: Vec::new(),
            late_joins: Vec::new(),
            grad_delays: Vec::new(),
            detect_crash: false,
        }
    }

    /// Derives a crash-free chaos plan for `n` workers purely from
    /// `seed`: per-link delay, jitter, drop and duplication rates, and
    /// an optional partition window — all bounded far below the default
    /// deadlines, so the plan perturbs *timing and byte order* without
    /// ever costing a round its report. Crashes are never derived (they
    /// change the result by design); add them with
    /// [`FaultPlan::with_crash`].
    pub fn from_seed(seed: u64, n: usize) -> Self {
        let mut rng = Prng::seed_from_u64(seed);
        let link = |rng: &mut Prng| {
            let delay_ms = 1 + rng.index(8) as u64;
            let jitter_ms = rng.index(11) as u64;
            let drop = rng.uniform_range(0.0, 0.35);
            let dup = rng.uniform_range(0.0, 0.35);
            let partitions = if rng.bernoulli(0.3) {
                let start = 5 + rng.index(36) as u64;
                let len = 5 + rng.index(26) as u64;
                vec![(start, start + len)]
            } else {
                Vec::new()
            };
            LinkPlan {
                delay_ms,
                jitter_ms,
                drop,
                dup,
                partitions,
            }
        };
        let to_worker = (0..n).map(|_| link(&mut rng)).collect();
        let to_coord = (0..n).map(|_| link(&mut rng)).collect();
        FaultPlan {
            seed,
            to_worker,
            to_coord,
            crashes: Vec::new(),
            late_joins: Vec::new(),
            grad_delays: Vec::new(),
            detect_crash: false,
        }
    }

    /// Adds a crash-and-rejoin schedule.
    pub fn with_crash(mut self, worker: u32, after_step: u32, rejoin_on_step: u32) -> Self {
        self.crashes.push(CrashPlan {
            worker,
            after_step,
            rejoin_on_step,
        });
        self
    }

    /// Adds a fresh mid-run join schedule (see [`LateJoinPlan`]).
    pub fn with_late_join(mut self, worker: u32, on_step: u32) -> Self {
        self.late_joins.push(LateJoinPlan { worker, on_step });
        self
    }

    /// Adds an explicit straggler delay.
    pub fn with_grad_delay(
        mut self,
        worker: u32,
        from_step: u32,
        to_step: u32,
        extra_ms: u64,
    ) -> Self {
        self.grad_delays.push(GradDelay {
            worker,
            from_step,
            to_step,
            extra_ms,
        });
        self
    }

    /// Sets whether crashes surface as [`Event::Detached`].
    pub fn with_detection(mut self, detect: bool) -> Self {
        self.detect_crash = detect;
        self
    }
}

/// A directed link: its plan plus its private draw stream. The draw
/// order per send is fixed — jitter, drop loop, duplication, dup jitter
/// — so a plan's byte-level schedule is a pure function of its seed.
struct ChaosLink {
    plan: LinkPlan,
    rng: Prng,
}

impl ChaosLink {
    /// Delivery times for one frame sent now (+`extra_ms`): the primary
    /// copy and, with probability `dup`, a second one.
    fn times(&mut self, now: u64, extra_ms: u64) -> (u64, Option<u64>) {
        let mut delay =
            self.plan.delay_ms + self.rng.index(self.plan.jitter_ms as usize + 1) as u64;
        let mut tries = 0;
        while tries < MAX_RETRANSMITS && self.rng.bernoulli(self.plan.drop) {
            delay += self.plan.delay_ms + RETRANSMIT_PENALTY_MS;
            tries += 1;
        }
        let dup = if self.rng.bernoulli(self.plan.dup) {
            let extra = 1 + self.rng.index(self.plan.jitter_ms as usize + 1) as u64;
            Some(self.hold(now + extra_ms + delay + extra))
        } else {
            None
        };
        (self.hold(now + extra_ms + delay), dup)
    }

    /// Applies partition windows: a delivery landing inside one is held
    /// until the window closes (cascading through later windows).
    fn hold(&self, mut at: u64) -> u64 {
        for &(start, end) in &self.plan.partitions {
            if at >= start && at < end {
                at = end;
            }
        }
        at
    }
}

/// One queued wire event. A frame is named by its buffer in
/// [`Wire::frames`].
#[derive(Debug)]
enum Delivery {
    /// A frame travelling worker → coordinator.
    ToCoord { from: u32, frame: usize },
    /// A frame travelling coordinator → worker.
    ToWorker { to: u32, frame: usize },
    /// The coordinator's side of a detected crash (the TCP reset
    /// analogue). Only scheduled when the plan detects crashes.
    Detach { worker: u32 },
}

/// A [`Delivery`] on the queue, ordered by its key `(at, seq)` —
/// delivery time, then send order — reversed, so the max-heap
/// [`BinaryHeap`] pops the earliest first. `seq` is unique, so the order
/// is total and a pure function of the send schedule.
#[derive(Debug)]
struct Queued {
    at: u64,
    seq: u64,
    delivery: Delivery,
}

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}

impl Eq for Queued {}

impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Queued {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Frames per worker the queue and the spare pool are sized for up
/// front; both grow only past that high-water mark. The crash-free
/// chaos plan `FaultPlan::from_seed(11, 6)` peaks at 2 queued frames per
/// worker; a rejoin replay can briefly queue up to `resume_window`.
const FRAMES_PER_WORKER: usize = 4;

/// The simulated network: the virtual clock, the deterministic delivery
/// queue (earliest delivery time first, then send order), one chaos link
/// per worker and direction, and the frame buffers every queued frame is
/// copied into. Each buffer is sized for the run's largest frame, leased
/// on send and returned on delivery, so a warm wire allocates nothing.
/// A queued delivery names its buffer by index, so a report queued before
/// its bytes exist can be written in place later.
struct Wire {
    now: u64,
    seq: u64,
    queue: BinaryHeap<Queued>,
    /// Every frame buffer, queued or free.
    frames: Vec<Vec<u8>>,
    /// Indices of the buffers no delivery holds.
    free: Vec<usize>,
    /// Capacity of every frame buffer: a `GRAD` at the run's dimension.
    frame_cap: usize,
    to_worker: Vec<ChaosLink>,
    to_coord: Vec<ChaosLink>,
}

impl Wire {
    /// A wire at `t = 0` whose queue and buffers are sized for
    /// [`FRAMES_PER_WORKER`] frames of `frame_cap` bytes per worker.
    fn new(to_worker: Vec<ChaosLink>, to_coord: Vec<ChaosLink>, frame_cap: usize) -> Self {
        let slots = FRAMES_PER_WORKER * to_worker.len();
        Wire {
            now: 0,
            seq: 0,
            queue: BinaryHeap::with_capacity(slots),
            frames: (0..slots).map(|_| Vec::with_capacity(frame_cap)).collect(),
            free: (0..slots).collect(),
            frame_cap,
            to_worker,
            to_coord,
        }
    }

    /// Sends a frame from worker `from`, `extra_ms` from now, and returns
    /// the buffers of its primary copy and any duplicate. An empty `frame`
    /// queues empty buffers for [`Wire::write`] to fill before they are
    /// delivered.
    fn send_to_coord(&mut self, from: u32, extra_ms: u64, frame: &[u8]) -> Copies {
        let times = self.to_coord[from as usize].times(self.now, extra_ms);
        self.schedule(times, frame, |frame| Delivery::ToCoord { from, frame })
    }

    /// Sends a frame to worker `to`.
    fn send_to_worker(&mut self, to: u32, frame: &[u8]) {
        let times = self.to_worker[to as usize].times(self.now, 0);
        self.schedule(times, frame, |frame| Delivery::ToWorker { to, frame });
    }

    /// Queues the primary copy and any duplicate a link drew.
    fn schedule(
        &mut self,
        (at, dup_at): (u64, Option<u64>),
        frame: &[u8],
        build: impl Fn(usize) -> Delivery,
    ) -> Copies {
        let copy = self.lease(frame);
        self.push(at, build(copy));
        let dup = dup_at.map(|at| {
            let copy = self.lease(frame);
            self.push(at, build(copy));
            copy
        });
        Copies(copy, dup)
    }

    fn push(&mut self, at: u64, delivery: Delivery) {
        let seq = self.seq;
        self.queue.push(Queued { at, seq, delivery });
        self.seq += 1;
    }

    /// A free buffer holding a copy of `frame`.
    fn lease(&mut self, frame: &[u8]) -> usize {
        let i = self.free.pop().unwrap_or_else(|| {
            self.frames.push(Vec::with_capacity(self.frame_cap));
            self.frames.len() - 1
        });
        self.frames[i].extend_from_slice(frame);
        i
    }

    /// Writes `frame` into every buffer of `copies`.
    fn write(&mut self, Copies(copy, dup): Copies, frame: &[u8]) {
        for i in std::iter::once(copy).chain(dup) {
            self.frames[i].extend_from_slice(frame);
        }
    }

    /// Takes a delivered frame out of buffer `i`, to be handed back with
    /// [`Wire::recycle`].
    fn take(&mut self, i: usize) -> Vec<u8> {
        std::mem::take(&mut self.frames[i])
    }

    /// Returns a delivered frame's buffer, emptied, to the free list.
    fn recycle(&mut self, i: usize, mut frame: Vec<u8>) {
        frame.clear();
        self.frames[i] = frame;
        self.free.push(i);
    }

    /// Delivery time of the earliest queued event.
    fn next_at(&self) -> Option<u64> {
        self.queue.peek().map(|q| q.at)
    }

    /// Pops the earliest queued event if it is due by now.
    fn pop_due(&mut self) -> Option<Delivery> {
        if self.next_at()? > self.now {
            return None;
        }
        self.queue.pop().map(|q| q.delivery)
    }
}

/// The buffers of one sent frame's queued copies: the primary, and the
/// duplicate if the link drew one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Copies(usize, Option<usize>);

impl Copies {
    /// Whether buffer `frame` is one of the copies.
    fn holds(self, frame: usize) -> bool {
        self.0 == frame || self.1 == Some(frame)
    }
}

/// The generation a lent [`SharedRound`] of reports opens: one per run.
const GENERATION: u32 = 1;

/// Reports in a row that the driving thread finds still uncomputed when
/// it reads them, after which a run stops handing reports to its pool
/// threads and computes each one when its step falls due, as with no
/// pool lent. That many reports span about ten paper-scale rounds in
/// which no pool thread got to run, as when other processes keep the
/// machine's cores busy; a lent thread that spins for jobs it rarely
/// gets to then only takes CPU time from the driving thread. Measured
/// with blocks of 1 000-step `paper-sim-chaos` runs on a shared 2-vCPU
/// Xeon: beside one busy-looping process, runs that kept lending ran
/// 12.1k steps/s and inline runs 17.5k; with this limit every such run
/// stopped lending and ran about as fast as inline ones (11.8k against
/// 12.5k in a later, busier spell). Without the busy loop 2 of 20 runs
/// stopped, and 6 of 20 at a limit of 32.
const UNHELPED_LIMIT: u32 = 64;

/// A simulated worker: the protocol half of the session a TCP worker
/// runs (its report half sits in [`SimNet::reports`]), plus its pending
/// report and its crash and join schedule.
struct SimWorker {
    protocol: WorkerProtocol,
    /// The queued copies of the report whose bytes are not written yet
    /// (a step that fell due while a pool was lent); at most one.
    pending: Option<Copies>,
    /// `false` between a crash and its rejoin: deliveries are discarded
    /// (they were on the dead wire) and nothing is sent.
    alive: bool,
    crash_after: Option<u32>,
    rejoin_on: Option<u32>,
    /// `Some(step)` until this worker's `JOIN_FRESH` fires (on the
    /// broadcast of `step`, or warmup for `0`).
    join_fresh_on: Option<u32>,
}

/// A simulated worker's uplink: frames go onto its chaos link. A report
/// is charged the compute time plus any straggler delay of its step, and
/// the one the crash plan names is the last frame the link carries. While
/// the run hands reports to its pool threads (`defer`), a report's link
/// draws and queue slots are taken when its step falls due and its bytes
/// are left pending; otherwise it is computed and copied at once.
struct SimUplink<'a> {
    wire: &'a mut Wire,
    id: u32,
    compute_ms: u64,
    delays: &'a [GradDelay],
    crash_after: Option<u32>,
    pending: &'a mut Option<Copies>,
    defer: bool,
    /// [`SimNet`]'s count of reports in a row settled uncomputed.
    unhelped: &'a mut u32,
}

impl WorkerUplink for SimUplink<'_> {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        self.wire.send_to_coord(self.id, 0, frame);
        Ok(())
    }

    fn report_due(&mut self, report: &mut Report, step: u32) -> io::Result<()> {
        let late = self
            .delays
            .iter()
            .filter(|d| d.worker == self.id && (d.from_step..=d.to_step).contains(&step));
        let extra = self.compute_ms + late.map(|d| d.extra_ms).sum::<u64>();
        if self.defer {
            *self.pending = Some(self.wire.send_to_coord(self.id, extra, &[]));
        } else {
            report.compute();
            self.wire.send_to_coord(self.id, extra, report.frame());
        }
        if self.crash_after == Some(step) {
            return Err(io::ErrorKind::ConnectionReset.into());
        }
        Ok(())
    }

    /// Writes the pending report into its queued copies, computing it
    /// here unless a pool thread already has (one still computing it
    /// held `report`'s lock until it was done).
    fn settle(&mut self, report: &mut Report) {
        if let Some(copies) = self.pending.take() {
            *self.unhelped = if report.due.is_some() {
                *self.unhelped + 1
            } else {
                0
            };
            report.compute();
            self.wire.write(copies, report.frame());
        }
    }
}

/// Locks worker `idx`'s report. A poisoned lock means its job panicked
/// on a pool thread: recalling the pool re-raises that panic here.
fn lock_report<'a>(
    reports: &'a SharedRound<Report>,
    idx: usize,
    pool: &mut Option<WorkerPool>,
) -> MutexGuard<'a, Report> {
    match reports.lock(GENERATION, idx) {
        Ok(report) => report,
        Err(_) => {
            reports.close();
            if let Some(pool) = pool {
                pool.recall();
            }
            panic!("worker {idx}'s report panicked while it was computed")
        }
    }
}

/// The in-memory chaos [`Transport`]: a virtual clock, a deterministic
/// delivery queue, and the simulated workers. Every coordinator-side
/// decision is the shared session handler's, exactly as over TCP. See
/// the module docs for the model.
pub struct SimNet {
    wire: Wire,
    workers: Vec<SimWorker>,
    /// Each worker's report half, in worker order: the jobs a lent pool
    /// and the driving thread claim.
    reports: Arc<SharedRound<Report>>,
    /// The run's worker pool while [`drive`] lends it.
    pool: Option<WorkerPool>,
    /// Whether a report whose step falls due is handed to the pool
    /// threads: from [`Transport::lend_pool`] until the run stops lending.
    lending: bool,
    /// Reports in a row the driving thread computed when it read them.
    unhelped: u32,
    detect_crash: bool,
    grad_delays: Vec<GradDelay>,
    compute_ms: u64,
    session: Session,
    /// Every frame delivered to the coordinator, with its sender, in
    /// delivery order.
    #[cfg(test)]
    to_coord_log: Vec<(u32, Vec<u8>)>,
}

impl SimNet {
    /// Builds the simulator: one link pair and one simulated worker per
    /// honest worker, fault schedules from `plan`, every worker's `JOIN`
    /// queued at `t = 0`. `run_seed` is the training seed (session
    /// tokens derive from it); the chaos draws derive from `plan.seed`
    /// alone.
    ///
    /// # Panics
    ///
    /// Panics if `plan` was built for a different worker count — a
    /// driver bug, not a run-time condition.
    pub fn new(
        workers: Vec<HonestWorker>,
        plan: &FaultPlan,
        run_seed: u64,
        compute_ms: u64,
        resume_window: usize,
        staleness_window: u32,
    ) -> Self {
        let n = workers.len();
        assert_eq!(plan.to_worker.len(), n, "plan/worker count mismatch");
        assert_eq!(plan.to_coord.len(), n, "plan/worker count mismatch");
        let mut chaos_rng = Prng::seed_from_u64(plan.seed);
        let mut links = |plans: &[LinkPlan], stream: u64| -> Vec<ChaosLink> {
            plans
                .iter()
                .enumerate()
                .map(|(i, p)| ChaosLink {
                    plan: p.clone(),
                    rng: chaos_rng.derive(stream.wrapping_mul(1000) + i as u64),
                })
                .collect()
        };
        // Every worker trains the run's one model.
        let dim = workers.first().map_or(0, HonestWorker::dim);
        let frame_cap = grad_frame_len(dim);
        let wire = Wire::new(
            links(&plan.to_worker, 1),
            links(&plan.to_coord, 2),
            frame_cap,
        );
        let reorder = u32::try_from(resume_window).unwrap_or(u32::MAX);
        let sim_workers = workers
            .iter()
            .map(|hw| {
                let id = hw.id();
                let crash = plan.crashes.iter().find(|c| c.worker == id);
                let late = plan.late_joins.iter().find(|j| j.worker == id);
                let token = session_token(run_seed, id);
                SimWorker {
                    protocol: WorkerProtocol::new(id, token, late.is_some(), reorder),
                    pending: None,
                    alive: true,
                    crash_after: crash.map(|c| c.after_step),
                    rejoin_on: crash.map(|c| c.rejoin_on_step),
                    join_fresh_on: late.map(|j| j.on_step),
                }
            })
            .collect();
        let reports = workers.into_iter().map(Report::new).collect();
        let mut net = SimNet {
            wire,
            workers: sim_workers,
            reports: Arc::new(SharedRound::new(reports, ())),
            pool: None,
            lending: false,
            unhelped: 0,
            detect_crash: plan.detect_crash,
            grad_delays: plan.grad_delays.clone(),
            compute_ms,
            session: Session::new(n, run_seed, resume_window, staleness_window, dim),
            #[cfg(test)]
            to_coord_log: Vec::new(),
        };
        // Late joiners sit out the join phase entirely; their JOIN_FRESH
        // fires on the scheduled broadcast instead.
        for idx in 0..n {
            if net.workers[idx].join_fresh_on.is_none() {
                net.hello(idx);
            }
        }
        net
    }

    /// Broadcasts through the session to every attached worker, each
    /// copy through that worker's own chaos link, then fires the
    /// handshakes scheduled on this broadcast.
    fn broadcast(&mut self, msg: Broadcast<'_>) {
        let wire = &mut self.wire;
        self.session
            .broadcast(msg, |to, frame| wire.send_to_worker(to, frame));
        let slot = match msg {
            Broadcast::Warmup => 0,
            Broadcast::Step { step, .. } => step,
            Broadcast::Done | Broadcast::Abort(_) => return,
        };
        for idx in 0..self.workers.len() {
            if self.workers[idx].join_fresh_on == Some(slot) {
                self.workers[idx].join_fresh_on = None;
                self.hello(idx);
            }
        }
        // Rejoin schedules fire on step broadcasts: a dead worker whose
        // trigger step just went out revives and starts its handshake.
        for idx in 0..self.workers.len() {
            let w = &mut self.workers[idx];
            if slot > 0 && !w.alive && w.rejoin_on == Some(slot) {
                w.alive = true;
                w.rejoin_on = None;
                self.hello(idx);
            }
        }
    }

    /// Worker `idx` opens its link: its session's handshake goes up the
    /// wire. Only a fresh report can fire the crash plan, so it never
    /// fails.
    fn hello(&mut self, idx: usize) {
        let _ = self.uplink(idx, |protocol, report, up| protocol.hello(report, up));
    }

    /// Opens one delivered frame and hands it to worker `idx`'s session.
    /// A refused frame, and any session error but the crash, is a
    /// violation: a simulated link has no connection to close, so the
    /// frame is simply dropped.
    fn worker_deliver(&mut self, idx: usize, frame: &[u8]) {
        if !self.workers[idx].alive {
            return; // the wire it was on is dead
        }
        let Ok((kind, payload)) = open_frame(frame) else {
            return;
        };
        let sent = self.uplink(idx, |protocol, report, up| {
            protocol.handle(report, kind, payload, up)
        });
        if let Err(WorkerError::Io(_)) = sent {
            self.workers[idx].alive = false;
            if self.detect_crash {
                // The reset travels the wire like any frame, minus
                // chaos draws (a reset is not retransmitted).
                let at = self.wire.now + self.wire.to_coord[idx].plan.delay_ms;
                self.wire.push(at, Delivery::Detach { worker: idx as u32 });
            }
        }
    }

    /// Runs `act` on worker `idx`'s session halves with its uplink, once
    /// its last report is settled. A report that `act` leaves pending is
    /// published to the shared round for the lent pool threads.
    fn uplink<R>(
        &mut self,
        idx: usize,
        act: impl FnOnce(&mut WorkerProtocol, &mut Report, &mut SimUplink<'_>) -> R,
    ) -> R {
        let mut report = lock_report(&self.reports, idx, &mut self.pool);
        let w = &mut self.workers[idx];
        let mut up = SimUplink {
            wire: &mut self.wire,
            id: idx as u32,
            compute_ms: self.compute_ms,
            delays: &self.grad_delays,
            crash_after: w.crash_after,
            pending: &mut w.pending,
            defer: self.lending,
            unhelped: &mut self.unhelped,
        };
        up.settle(&mut report);
        let result = act(&mut w.protocol, &mut report, &mut up);
        drop(report);
        if w.pending.is_some() {
            self.reports.publish(idx);
            if let Some(pool) = &mut self.pool {
                pool.relend();
            }
        }
        result
    }

    /// Writes worker `idx`'s pending report into its queued copies
    /// ([`SimUplink::settle`]).
    fn settle(&mut self, idx: usize) {
        if self.workers[idx].pending.is_some() {
            self.uplink(idx, |_, _, _| ());
        }
    }

    /// Stops handing reports to the pool threads for the rest of the
    /// run: writes every pending report and closes the shared round, so
    /// a lent thread's claim loop returns. The threads stay lent until
    /// [`Transport::reclaim_pool`].
    fn stop_lending(&mut self) {
        for idx in 0..self.workers.len() {
            self.settle(idx);
        }
        self.reports.close();
        self.lending = false;
    }
}

impl Transport for SimNet {
    fn now_ms(&mut self) -> u64 {
        self.wire.now
    }

    fn poll(
        &mut self,
        phase: Phase,
        outputs: &mut [WorkerOutput],
        events: &mut Vec<Event>,
    ) -> io::Result<bool> {
        self.session.admit_ahead(phase, outputs, events);
        let mut progressed = false;
        while let Some(delivery) = self.wire.pop_due() {
            progressed = true;
            match delivery {
                Delivery::ToCoord { from, frame } => {
                    let idx = from as usize;
                    if self.workers[idx].pending.is_some_and(|p| p.holds(frame)) {
                        self.settle(idx);
                        if self.unhelped >= UNHELPED_LIMIT {
                            self.stop_lending();
                        }
                    }
                    let bytes = self.wire.take(frame);
                    #[cfg(test)]
                    self.to_coord_log.push((from, bytes.clone()));
                    if let Ok((kind, payload)) = open_frame(&bytes) {
                        // A violation has no connection to close here:
                        // the frame is simply dropped, as is a refused
                        // one.
                        let verdict =
                            self.session
                                .handle(Some(from), kind, payload, phase, outputs, events);
                        if let Verdict::Attach(_, Some(replay)) = verdict {
                            // The replay crosses the faulty link; the
                            // worker's reorder buffer restores order.
                            for frame in replay {
                                self.wire.send_to_worker(from, frame);
                            }
                        }
                    }
                    self.wire.recycle(frame, bytes);
                }
                Delivery::ToWorker { to, frame } => {
                    let bytes = self.wire.take(frame);
                    self.worker_deliver(to as usize, &bytes);
                    self.wire.recycle(frame, bytes);
                }
                Delivery::Detach { worker } => self.session.detach(worker, events),
            }
        }
        Ok(progressed)
    }

    /// Takes the pool for the run if it has a thread to spare: from now
    /// on a report whose step falls due is published to the shared round
    /// of reports, and `helpers` pool threads compute reports as they
    /// fall due, beside the driving thread. With none to spare, every
    /// report is computed the moment its step falls due.
    fn lend_pool(&mut self, pool: &mut WorkerPool, helpers: usize) {
        if helpers == 0 {
            return;
        }
        let mut lent = std::mem::take(pool);
        self.reports.open(GENERATION);
        lent.lend(&self.reports, GENERATION, helpers);
        self.pool = Some(lent);
        self.lending = true;
        self.unhelped = 0;
    }

    /// Writes every pending report, then takes the threads back and
    /// returns the pool.
    fn reclaim_pool(&mut self, pool: &mut WorkerPool) {
        if self.pool.is_none() {
            return;
        }
        self.stop_lending();
        if let Some(mut lent) = self.pool.take() {
            lent.recall();
            *pool = lent;
        }
    }

    fn start_warmup(&mut self) {
        self.broadcast(Broadcast::Warmup);
    }

    fn broadcast_step(&mut self, step: u32, batch: u32, params: &Vector) {
        self.broadcast(Broadcast::Step {
            step,
            batch,
            params,
        });
    }

    fn finish(&mut self) {
        self.broadcast(Broadcast::Done);
    }

    fn abort(&mut self, reason: &str) {
        self.broadcast(Broadcast::Abort(reason));
    }

    fn idle(&mut self, next_deadline_ms: Option<u64>) {
        let now = self.wire.now;
        let target = match (self.wire.next_at(), next_deadline_ms) {
            (Some(event), Some(deadline)) => event.min(deadline),
            (Some(event), None) => event,
            (None, Some(deadline)) => deadline,
            // Done/Aborted with a drained queue: `drive` exits before
            // idling again, but never let the clock stall regardless.
            (None, None) => now + 1,
        };
        self.wire.now = if target > now { target } else { now + 1 };
    }
}

/// The sim deployment backend: the full round protocol over
/// [`SimNet`]. Its [`Deployment`]'s deadlines are in *virtual* ms.
#[derive(Debug, Clone, Copy)]
pub struct SimBackend {
    /// Join gate, quorum, phase deadlines and replay window.
    pub deployment: Deployment,
    /// Fault-plan seed ([`FaultPlan::from_seed`]); `None` runs on clean
    /// links.
    pub chaos: Option<u64>,
    /// Virtual cost of one gradient computation, ms.
    pub compute_ms: u64,
}

impl Default for SimBackend {
    /// The default deployment on clean links, 2 ms per gradient.
    fn default() -> Self {
        SimBackend {
            deployment: Deployment::default(),
            chaos: None,
            compute_ms: 2,
        }
    }
}

impl SimBackend {
    /// Runs one experiment over [`SimNet`], on the links
    /// [`chaos`](Self::chaos) derives. A crash-free plan is invisible to
    /// the result: the history equals [`Experiment::run`]'s bit for bit.
    /// `observer` streams per-step metrics; `scratch` recycles the
    /// server's buffers across runs.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Spec`] for a deployment
    /// [`Deployment::resolve`] refuses or an aborted run;
    /// [`PipelineError::Gar`] when aggregation fails; component errors as
    /// [`Experiment::build_trainer`].
    pub fn run(
        &self,
        exp: &Experiment,
        seed: u64,
        observer: Option<Box<dyn RunObserver>>,
        scratch: &mut RunScratch,
    ) -> Result<RunHistory, PipelineError> {
        let n_honest = exp.config.honest_workers(exp.attack.is_some());
        let plan = match self.chaos {
            Some(chaos_seed) => FaultPlan::from_seed(chaos_seed, n_honest),
            None => FaultPlan::clean(n_honest),
        };
        self.run_with_plan(exp, seed, &plan, observer, scratch)
    }

    /// Runs one experiment over an explicit [`FaultPlan`] — the entry
    /// point the chaos and reconnect suites use for plans a `chaos` seed
    /// cannot express (crash and straggler schedules); `chaos` is
    /// ignored.
    ///
    /// # Errors
    ///
    /// As [`SimBackend::run`], and [`PipelineError::Spec`] when `plan`
    /// does not cover exactly the run's honest workers.
    pub fn run_with_plan(
        &self,
        exp: &Experiment,
        seed: u64,
        plan: &FaultPlan,
        observer: Option<Box<dyn RunObserver>>,
        scratch: &mut RunScratch,
    ) -> Result<RunHistory, PipelineError> {
        let n_honest = exp.config.honest_workers(exp.attack.is_some());
        if plan.to_worker.len() != n_honest {
            return Err(PipelineError::Spec(format!(
                "sim backend: fault plan covers {} workers, run has {n_honest}",
                plan.to_worker.len()
            )));
        }
        let d = &self.deployment;
        d.run(
            "sim backend",
            exp,
            seed,
            observer,
            scratch,
            |core, workers, cfg, scratch| {
                let mut net = SimNet::new(
                    workers,
                    plan,
                    seed,
                    self.compute_ms,
                    d.resume_window,
                    cfg.staleness_window,
                );
                drive(&mut net, core, cfg, seed, scratch)
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::KIND_GRAD;
    use crate::transport::drive_with;
    use dpbyz_core::registry::register_mechanism;
    use dpbyz_dp::Mechanism;
    use dpbyz_server::ChurnStats;

    /// Counts the events polls decode, as a benchmark's timing transport
    /// does, and hands the pool on to the simulator; stops its lending
    /// at poll `stop_at`, if given.
    struct Counted<'a> {
        net: &'a mut SimNet,
        events: u64,
        polls: u64,
        stop_at: Option<u64>,
    }

    impl Transport for Counted<'_> {
        fn now_ms(&mut self) -> u64 {
            self.net.now_ms()
        }
        fn poll(
            &mut self,
            phase: Phase,
            outputs: &mut [WorkerOutput],
            events: &mut Vec<Event>,
        ) -> io::Result<bool> {
            self.polls += 1;
            if self.stop_at == Some(self.polls) && self.net.lending {
                self.net.stop_lending();
            }
            let before = events.len();
            let moved = self.net.poll(phase, outputs, events);
            self.events += (events.len() - before) as u64;
            moved
        }
        fn start_warmup(&mut self) {
            self.net.start_warmup();
        }
        fn broadcast_step(&mut self, step: u32, batch: u32, params: &Vector) {
            self.net.broadcast_step(step, batch, params);
        }
        fn finish(&mut self) {
            self.net.finish();
        }
        fn abort(&mut self, reason: &str) {
            self.net.abort(reason);
        }
        fn idle(&mut self, next_deadline_ms: Option<u64>) {
            self.net.idle(next_deadline_ms);
        }
        fn lend_pool(&mut self, pool: &mut WorkerPool, helpers: usize) {
            self.net.lend_pool(pool, helpers);
        }
        fn reclaim_pool(&mut self, pool: &mut WorkerPool) {
            self.net.reclaim_pool(pool);
        }
    }

    /// What a sim run leaves that must not depend on how many pool
    /// threads computed its reports, down to every frame's bytes.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        history: Result<RunHistory, String>,
        churn: Option<ChurnStats>,
        events: u64,
        clock: u64,
        to_coord: Vec<(u32, Vec<u8>)>,
    }

    /// Runs `exp` over `plan` with `helpers` pool threads forced.
    fn run_at(
        helpers: usize,
        backend: &SimBackend,
        exp: &Experiment,
        plan: &FaultPlan,
        scratch: &mut RunScratch,
    ) -> Outcome {
        run_stopping_at(None, helpers, backend, exp, plan, scratch)
    }

    /// [`run_at`], stopping the run's lending at poll `stop_at`.
    fn run_stopping_at(
        stop_at: Option<u64>,
        helpers: usize,
        backend: &SimBackend,
        exp: &Experiment,
        plan: &FaultPlan,
        scratch: &mut RunScratch,
    ) -> Outcome {
        let seed = 23;
        let (mut events, mut clock, mut to_coord) = (0, 0, Vec::new());
        let d = &backend.deployment;
        let history = d.run(
            "sim",
            exp,
            seed,
            None,
            scratch,
            |core, workers, cfg, scratch| {
                let mut net = SimNet::new(
                    workers,
                    plan,
                    seed,
                    backend.compute_ms,
                    d.resume_window,
                    cfg.staleness_window,
                );
                let mut counted = Counted {
                    net: &mut net,
                    events: 0,
                    polls: 0,
                    stop_at,
                };
                let history = drive_with(&mut counted, core, cfg, seed, scratch, helpers);
                events = counted.events;
                clock = net.wire.now;
                to_coord = std::mem::take(&mut net.to_coord_log);
                history
            },
        );
        Outcome {
            churn: history.as_ref().ok().map(|h| h.churn.clone()),
            history: history.map_err(|e| e.to_string()),
            events,
            clock,
            to_coord,
        }
    }

    /// Every run at 1 and 3 helpers, twice each on one scratch, leaves
    /// exactly what the inline run (0 helpers) leaves.
    fn assert_helper_counts_agree(
        label: &str,
        backend: &SimBackend,
        exp: &Experiment,
        plan: &FaultPlan,
    ) {
        let mut scratch = RunScratch::new();
        let inline = run_at(0, backend, exp, plan, &mut scratch);
        assert!(inline.history.is_ok(), "{label}: {:?}", inline.history);
        for helpers in [1, 3, 1, 3] {
            let leased = run_at(helpers, backend, exp, plan, &mut scratch);
            assert_eq!(leased, inline, "{label}: {helpers} helpers");
        }
    }

    fn paper_like(steps: u32, staleness_window: u32) -> Experiment {
        let mut exp = Experiment::builder()
            .batch_size(10)
            .epsilon(0.2)
            .attack("alie")
            .steps(steps)
            .dataset_size(300)
            .build()
            .unwrap();
        exp.config.staleness_window = staleness_window;
        exp
    }

    /// A sim whose join gate and quorum tolerate one absent honest worker.
    fn one_short(n_honest: usize) -> SimBackend {
        SimBackend {
            deployment: Deployment {
                min_workers: Some(n_honest - 1),
                quorum: Some(n_honest - 1),
                ..Deployment::default()
            },
            ..SimBackend::default()
        }
    }

    #[test]
    fn reports_computed_on_pool_threads_leave_the_inline_run_at_every_helper_count() {
        let exp = paper_like(12, 0);
        let n = exp.config.honest_workers(true);
        let w = (n - 1) as u32;
        for chaos in 0..8 {
            let plan = FaultPlan::from_seed(chaos, n);
            assert_helper_counts_agree(
                &format!("chaos {chaos}"),
                &SimBackend::default(),
                &exp,
                &plan,
            );
        }
        let short = one_short(n);
        for detect in [false, true] {
            // The crash fires on the report of step 2, which is still
            // pending when the worker dies and when it rejoins.
            let plan = FaultPlan::from_seed(3, n)
                .with_crash(w, 2, 5)
                .with_detection(detect);
            assert_helper_counts_agree(&format!("crash, detect {detect}"), &short, &exp, &plan);
        }
        let plan = FaultPlan::from_seed(4, n).with_late_join(w, 3);
        assert_helper_counts_agree("late join", &short, &exp, &plan);
        let plan = FaultPlan::from_seed(5, n).with_grad_delay(w, 3, 6, 20_000);
        assert_helper_counts_agree("grad delay", &short, &exp, &plan);
        let stale = paper_like(12, 2);
        let plan = FaultPlan::from_seed(6, n).with_grad_delay(w, 2, 8, 9);
        assert_helper_counts_agree("staleness window 2", &short, &stale, &plan);
        // A worker whose STEPs overtake each other: its reorder buffer
        // drains two steps in one `handle` call.
        let mut plan = FaultPlan::from_seed(7, n);
        plan.to_worker[w as usize] = LinkPlan {
            delay_ms: 1,
            jitter_ms: 40,
            drop: 0.2,
            dup: 0.3,
            partitions: Vec::new(),
        };
        assert_helper_counts_agree("reordered steps", &short, &exp, &plan);
    }

    #[test]
    fn a_run_that_stops_lending_midway_leaves_the_inline_run() {
        let exp = paper_like(12, 0);
        let n = exp.config.honest_workers(true);
        let backend = one_short(n);
        let plans = [
            FaultPlan::from_seed(11, n),
            FaultPlan::from_seed(3, n)
                .with_crash((n - 1) as u32, 2, 5)
                .with_detection(true),
        ];
        let mut scratch = RunScratch::new();
        for plan in &plans {
            let inline = run_at(0, &backend, &exp, plan, &mut scratch);
            for stop_at in [1, 5, 20, 60] {
                let stopped = run_stopping_at(Some(stop_at), 1, &backend, &exp, plan, &mut scratch);
                assert_eq!(stopped, inline, "stopped at poll {stop_at}");
            }
        }
    }

    #[test]
    fn a_pending_reports_duplicate_and_rejoin_resend_carry_its_primary_bytes() {
        let exp = paper_like(8, 0);
        let n = exp.config.honest_workers(true);
        let w = (n - 1) as u32;
        // Every frame worker w sends is duplicated, and it dies right
        // after its report of step 3, which it resends after REJOIN.
        let mut plan = FaultPlan::from_seed(2, n).with_crash(w, 3, 5);
        plan.to_coord[w as usize].dup = 1.0;
        let backend = one_short(n);
        let mut scratch = RunScratch::new();
        let inline = run_at(0, &backend, &exp, &plan, &mut scratch);
        let leased = run_at(1, &backend, &exp, &plan, &mut scratch);
        assert_eq!(leased, inline);
        let mut copies = std::collections::BTreeMap::<u32, Vec<&[u8]>>::new();
        for (from, frame) in &leased.to_coord {
            if let (true, Ok((KIND_GRAD, payload))) = (*from == w, open_frame(frame)) {
                let step = u32::from_le_bytes(payload[4..8].try_into().unwrap());
                copies.entry(step).or_default().push(frame);
            }
        }
        // Back after REJOIN, it computes the replayed step 4 and on.
        assert_eq!(
            copies.keys().copied().collect::<Vec<_>>(),
            [1, 2, 3, 4, 5, 6, 7, 8]
        );
        for (step, frames) in &copies {
            assert!(frames.len() >= 2, "step {step}: {} copies", frames.len());
            assert!(
                frames.iter().all(|f| f == &frames[0]),
                "step {step}: a copy differs from the primary"
            );
        }
        // Primary and duplicate, then the resend and its duplicate.
        assert_eq!(copies[&3].len(), 4, "the crash step's report is resent");
    }

    /// A mechanism that panics when a pool thread runs it, and on the
    /// thread that built it first waits until that happened (for a
    /// bounded number of yields), so a run with a helper panics on the
    /// helper whichever report it claims.
    struct PanicsOffThread {
        home: std::thread::ThreadId,
    }

    static PANICKED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

    impl Mechanism for PanicsOffThread {
        fn perturb_in_place(&self, _: &mut Vector, _: &mut Prng) {
            use std::sync::atomic::Ordering::SeqCst;
            if std::thread::current().id() != self.home {
                PANICKED.store(true, SeqCst);
                panic!("a report failed on a pool thread");
            }
            for _ in 0..1_000_000 {
                if PANICKED.load(SeqCst) {
                    return;
                }
                std::thread::yield_now();
            }
        }
        fn per_coordinate_std(&self) -> f64 {
            0.0
        }
        fn total_noise_variance(&self, _: usize) -> f64 {
            0.0
        }
        fn name(&self) -> &'static str {
            "panics-off-thread"
        }
    }

    #[test]
    fn a_report_panicking_on_a_pool_thread_reaches_the_driver_and_the_scratch_takes_the_next_run() {
        let id = "sim-test-panics-off-thread";
        register_mechanism(id, |_| {
            let home = std::thread::current().id();
            Ok(Arc::new(PanicsOffThread { home }) as Arc<dyn Mechanism>)
        })
        .unwrap();
        let failing = Experiment::builder()
            .batch_size(10)
            .mechanism(id)
            .steps(6)
            .dataset_size(300)
            .build()
            .unwrap();
        let n = failing.config.honest_workers(false);
        let (backend, plan) = (SimBackend::default(), FaultPlan::from_seed(1, n));
        let mut scratch = RunScratch::new();
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_at(1, &backend, &failing, &plan, &mut scratch)
        }));
        let message = run.err().and_then(|e| e.downcast_ref::<String>().cloned());
        assert_eq!(
            message.as_deref(),
            Some("a job leased to pool thread 0 panicked")
        );
        // The same scratch runs the next run, leased as inline.
        let exp = paper_like(6, 0);
        let plan = FaultPlan::from_seed(1, exp.config.honest_workers(true));
        let leased = run_at(1, &backend, &exp, &plan, &mut scratch);
        assert_eq!(leased, run_at(0, &backend, &exp, &plan, &mut scratch));
    }

    #[test]
    fn fault_plans_are_pure_functions_of_the_seed() {
        let a = FaultPlan::from_seed(7, 4);
        let b = FaultPlan::from_seed(7, 4);
        assert_eq!(a, b, "same seed, same plan");
        let c = FaultPlan::from_seed(8, 4);
        assert_ne!(a, c, "different seed, different plan");
        assert!(a.crashes.is_empty(), "derived plans never crash workers");
    }

    #[test]
    fn tcp_and_sim_specs_resolve_to_one_deployment() {
        // n = 11, f = 2 under attack: 9 honest workers connect.
        let config = dpbyz_server::TrainingConfig {
            n_workers: 11,
            n_byzantine: 2,
            steps: 5,
            ..dpbyz_server::TrainingConfig::default()
        }
        .validate()
        .unwrap();
        let (tcp, sim) = (crate::TcpBackend::default().0, SimBackend::default());
        let machine = tcp.resolve("test", &config, true).unwrap();
        assert_eq!(sim.deployment.resolve("test", &config, true), Ok(machine));
        assert_eq!(sim.deployment.resume_window, tcp.resume_window);

        // The documented defaults: every honest worker joins and
        // reports, 10 s deadlines, a 32-frame replay window; the sim runs
        // clean links at 2 virtual ms per gradient.
        let deadlines = (
            machine.join_deadline_ms,
            machine.warmup_deadline_ms,
            machine.step_deadline_ms,
        );
        assert_eq!(
            (machine.n_workers, machine.min_workers, machine.quorum),
            (9, 9, 9)
        );
        assert_eq!(deadlines, (10_000, 10_000, 10_000));
        assert_eq!(tcp.resume_window, 32);
        assert_eq!((sim.chaos, sim.compute_ms), (None, 2));
    }

    #[test]
    fn derived_chaos_stays_far_below_the_deadlines() {
        for seed in 0..32 {
            let plan = FaultPlan::from_seed(seed, 6);
            for link in plan.to_worker.iter().chain(plan.to_coord.iter()) {
                // Worst case: max jitter + every retransmission + the
                // longest partition hold.
                let worst = link.delay_ms
                    + link.jitter_ms
                    + u64::from(MAX_RETRANSMITS) * (link.delay_ms + RETRANSMIT_PENALTY_MS)
                    + link
                        .partitions
                        .iter()
                        .map(|&(s, e)| e - s)
                        .max()
                        .unwrap_or(0);
                assert!(
                    worst < 1_000,
                    "seed {seed}: worst-case one-way delay {worst} ms \
                     endangers the 10 s default deadline"
                );
            }
        }
    }

    #[test]
    fn chaos_links_draw_deterministic_schedules() {
        let plan = FaultPlan::from_seed(3, 2);
        let mk = || {
            let mut rng = Prng::seed_from_u64(plan.seed);
            ChaosLink {
                plan: plan.to_coord[0].clone(),
                rng: rng.derive(2000),
            }
        };
        let (mut a, mut b) = (mk(), mk());
        for send in 0..100u64 {
            assert_eq!(
                a.times(send * 3, 0),
                b.times(send * 3, 0),
                "send {send} diverged"
            );
        }
    }

    #[test]
    fn the_queue_delivers_by_time_then_send_order_and_recycles_frames() {
        let plan = FaultPlan::clean(1);
        let link = || ChaosLink {
            plan: plan.to_coord[0].clone(),
            rng: Prng::seed_from_u64(0),
        };
        let mut wire = Wire::new(vec![link()], vec![link()], 16);
        // (at, first frame byte), pushed in send order 0..6.
        let sends = [(5, 0u8), (3, 1), (5, 2), (1, 3), (3, 4), (9, 5)];
        for &(at, byte) in &sends {
            let frame = wire.lease(&[byte; 8]);
            wire.push(at, Delivery::ToWorker { to: 0, frame });
        }
        wire.now = 5;
        let mut delivered = Vec::new();
        while let Some(Delivery::ToWorker { frame, .. }) = wire.pop_due() {
            let bytes = wire.take(frame);
            delivered.push(bytes[0]);
            wire.recycle(frame, bytes);
        }
        assert_eq!(delivered, [3, 1, 4, 0, 2], "time first, ties in send order");
        assert_eq!(wire.next_at(), Some(9), "the later frame waits");
        // Four buffers sized up front, two grown for the six sends; the
        // five delivered are free again, emptied and still sized.
        assert_eq!(wire.frames.len(), 6);
        assert_eq!(wire.free.len(), 5);
        assert!(wire
            .free
            .iter()
            .all(|&i| wire.frames[i].is_empty() && wire.frames[i].capacity() >= 16));
    }

    #[test]
    fn partition_windows_hold_deliveries_until_they_close() {
        let link = ChaosLink {
            plan: LinkPlan {
                delay_ms: 1,
                jitter_ms: 0,
                drop: 0.0,
                dup: 0.0,
                partitions: vec![(10, 20), (20, 25)],
            },
            rng: Prng::seed_from_u64(0),
        };
        assert_eq!(link.hold(5), 5, "before the window");
        assert_eq!(link.hold(10), 25, "held, cascading through both windows");
        assert_eq!(link.hold(19), 25);
        assert_eq!(link.hold(26), 26, "after the windows");
    }
}
