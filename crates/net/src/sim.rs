//! `SimNet` — the seeded in-memory chaos transport, and the `"sim"`
//! backend that runs training over it.
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
//! bytes, and both ends run the code TCP runs. Every inbound frame goes
//! to the coordinator's session handler (`session.rs`: join gate,
//! token-checked rejoin with ring replay, gradient admission), and every
//! simulated worker is a [`WorkerSession`] hosting a real
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

use crate::backend::Deployment;
use crate::machine::{Event, Phase};
use crate::protocol::{grad_frame_len, session_token};
use crate::session::{Broadcast, Session, Verdict, WorkerSession};
use crate::transport::{drive, Transport};
use crate::worker::WorkerError;
use dpbyz_core::pipeline::{Experiment, PipelineError};
use dpbyz_core::{ComponentSpec, EngineBackend, RegistryError};
use dpbyz_server::{HonestWorker, RunHistory, RunObserver, RunScratch, WorkerOutput};
use dpbyz_tensor::{Prng, Vector};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::io;

/// Extra one-way latency charged per simulated "drop": the frame is not
/// lost, it is redelivered later — TCP's retransmission model, which is
/// what keeps crash-free chaos invisible to the digest.
pub const RETRANSMIT_PENALTY_MS: u64 = 3;

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
    /// Probability a delivery attempt is "dropped" (redelivered
    /// [`RETRANSMIT_PENALTY_MS`] + base later).
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

/// One queued wire event.
#[derive(Debug)]
enum Delivery {
    /// A frame travelling worker → coordinator.
    ToCoord { from: u32, frame: Vec<u8> },
    /// A frame travelling coordinator → worker.
    ToWorker { to: u32, frame: Vec<u8> },
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
/// per worker and direction, and the spare frame buffers every queued
/// frame is copied into — each sized for the run's largest frame, leased
/// on send and returned on delivery, so a warm wire allocates nothing.
struct Wire {
    now: u64,
    seq: u64,
    queue: BinaryHeap<Queued>,
    spare: Vec<Vec<u8>>,
    /// Capacity of every frame buffer: a `GRAD` at the run's dimension.
    frame_cap: usize,
    to_worker: Vec<ChaosLink>,
    to_coord: Vec<ChaosLink>,
}

impl Wire {
    /// A wire at `t = 0` whose queue and spare pool are sized for
    /// [`FRAMES_PER_WORKER`] frames of `frame_cap` bytes per worker.
    fn new(to_worker: Vec<ChaosLink>, to_coord: Vec<ChaosLink>, frame_cap: usize) -> Self {
        let slots = FRAMES_PER_WORKER * to_worker.len();
        Wire {
            now: 0,
            seq: 0,
            queue: BinaryHeap::with_capacity(slots),
            spare: (0..slots).map(|_| Vec::with_capacity(frame_cap)).collect(),
            frame_cap,
            to_worker,
            to_coord,
        }
    }

    /// Sends a frame from worker `from`, `extra_ms` from now.
    fn send_to_coord(&mut self, from: u32, extra_ms: u64, frame: &[u8]) {
        let times = self.to_coord[from as usize].times(self.now, extra_ms);
        self.schedule(times, frame, |frame| Delivery::ToCoord { from, frame });
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
        build: impl Fn(Vec<u8>) -> Delivery,
    ) {
        let copy = self.lease(frame);
        self.push(at, build(copy));
        if let Some(at) = dup_at {
            let copy = self.lease(frame);
            self.push(at, build(copy));
        }
    }

    fn push(&mut self, at: u64, delivery: Delivery) {
        let seq = self.seq;
        self.queue.push(Queued { at, seq, delivery });
        self.seq += 1;
    }

    /// A spare buffer holding a copy of `frame`.
    fn lease(&mut self, frame: &[u8]) -> Vec<u8> {
        let mut buf = self
            .spare
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(self.frame_cap));
        buf.extend_from_slice(frame);
        buf
    }

    /// Takes a delivered frame's buffer back.
    fn recycle(&mut self, mut frame: Vec<u8>) {
        frame.clear();
        self.spare.push(frame);
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

/// A simulated worker's `send`: the frame, and the step if it is a report
/// computed just now.
type Uplink<'a> = &'a mut dyn FnMut(&[u8], Option<u32>) -> io::Result<()>;

/// A simulated worker: the same [`WorkerSession`] a TCP worker runs,
/// plus its crash and join schedule.
struct SimWorker {
    session: WorkerSession,
    /// `false` between a crash and its rejoin: deliveries are discarded
    /// (they were on the dead wire) and nothing is sent.
    alive: bool,
    crash_after: Option<u32>,
    rejoin_on: Option<u32>,
    /// `Some(step)` until this worker's `JOIN_FRESH` fires (on the
    /// broadcast of `step`, or warmup for `0`).
    join_fresh_on: Option<u32>,
}

/// The in-memory chaos [`Transport`]: a virtual clock, a deterministic
/// delivery queue, and the simulated workers. Every coordinator-side
/// decision is the shared session handler's, exactly as over TCP. See
/// the module docs for the model.
pub struct SimNet {
    wire: Wire,
    workers: Vec<SimWorker>,
    detect_crash: bool,
    grad_delays: Vec<GradDelay>,
    compute_ms: u64,
    session: Session,
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
        let workers = workers
            .into_iter()
            .map(|hw| {
                let id = hw.id();
                let crash = plan.crashes.iter().find(|c| c.worker == id);
                let late = plan.late_joins.iter().find(|j| j.worker == id);
                let token = session_token(run_seed, id);
                SimWorker {
                    session: WorkerSession::new(hw, token, late.is_some(), reorder),
                    alive: true,
                    crash_after: crash.map(|c| c.after_step),
                    rejoin_on: crash.map(|c| c.rejoin_on_step),
                    join_fresh_on: late.map(|j| j.on_step),
                }
            })
            .collect();
        let mut net = SimNet {
            wire,
            workers,
            detect_crash: plan.detect_crash,
            grad_delays: plan.grad_delays.clone(),
            compute_ms,
            session: Session::new(n, run_seed, resume_window, staleness_window, dim),
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
        let _ = self.uplink(idx, |session, send| session.hello(send));
    }

    /// Hands one delivered frame to worker `idx`'s session. Any error but
    /// the crash is a violation: a simulated link has no connection to
    /// close, so the frame is simply dropped.
    fn worker_deliver(&mut self, idx: usize, frame: &[u8]) {
        let (Some(&kind), Some(payload)) = (frame.get(4), frame.get(5..)) else {
            return;
        };
        if !self.workers[idx].alive {
            return; // the wire it was on is dead
        }
        let sent = self.uplink(idx, |session, send| session.handle(kind, payload, send));
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

    /// Runs `act` on worker `idx`'s session with its uplink as `send`. A
    /// fresh report is charged the compute time plus any straggler delay,
    /// and the one the crash plan names is the last frame the link
    /// carries.
    fn uplink<R>(
        &mut self,
        idx: usize,
        act: impl FnOnce(&mut WorkerSession, Uplink<'_>) -> R,
    ) -> R {
        let (wire, w, id) = (&mut self.wire, &mut self.workers[idx], idx as u32);
        let (compute_ms, delays, crash_after) = (self.compute_ms, &self.grad_delays, w.crash_after);
        act(&mut w.session, &mut |frame, computed| {
            let extra = computed.map_or(0, |step| {
                let late = delays
                    .iter()
                    .filter(|d| d.worker == id && (d.from_step..=d.to_step).contains(&step));
                compute_ms + late.map(|d| d.extra_ms).sum::<u64>()
            });
            wire.send_to_coord(id, extra, frame);
            if computed.is_some() && computed == crash_after {
                return Err(io::ErrorKind::ConnectionReset.into());
            }
            Ok(())
        })
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
                    if let (Some(&kind), Some(payload)) = (frame.get(4), frame.get(5..)) {
                        // A violation has no connection to close here:
                        // the frame is simply dropped.
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
                    self.wire.recycle(frame);
                }
                Delivery::ToWorker { to, frame } => {
                    self.worker_deliver(to as usize, &frame);
                    self.wire.recycle(frame);
                }
                Delivery::Detach { worker } => self.session.detach(worker, events),
            }
        }
        Ok(progressed)
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

/// The `"sim"` deployment backend: the full round protocol over
/// [`SimNet`]. Its spec takes every [`Deployment`] key (listed in
/// [`crate::backend`]; deadlines are in *virtual* ms) plus:
///
/// * `chaos` — fault-plan seed ([`FaultPlan::from_seed`]); absent means
///   clean links;
/// * `compute_ms` — virtual cost of one gradient computation (default
///   2).
pub struct SimBackend {
    deployment: Deployment,
    chaos: Option<u64>,
    compute_ms: u64,
}

impl SimBackend {
    /// Reads the backend's knobs from a spec (see the type docs).
    ///
    /// # Errors
    ///
    /// As [`Deployment::from_spec`].
    pub fn from_spec(spec: &ComponentSpec) -> Result<Self, RegistryError> {
        Ok(SimBackend {
            deployment: Deployment::from_spec(spec, &["chaos", "compute_ms"])?,
            chaos: spec.u64_if_present("chaos")?,
            compute_ms: spec.u64_or_reject("compute_ms", 2)?,
        })
    }

    /// Runs one experiment over an explicit [`FaultPlan`] — the entry
    /// point the chaos and reconnect suites use for plans that spec
    /// parameters cannot express (crash and straggler schedules).
    ///
    /// # Errors
    ///
    /// As [`EngineBackend::run`].
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

impl EngineBackend for SimBackend {
    fn name(&self) -> &str {
        "sim"
    }

    fn run(
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
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn wrong_typed_knobs_are_rejected() {
        // `chaos: 1.5` must not quietly run on clean links, nor a
        // misspelt `qourum` with the default quorum.
        for (key, spec) in [
            ("chaos", ComponentSpec::new("sim").with("chaos", 1.5)),
            ("quorum", ComponentSpec::new("sim").with("quorum", "3")),
            ("qourum", ComponentSpec::new("sim").with("qourum", 3u64)),
        ] {
            match SimBackend::from_spec(&spec) {
                Err(RegistryError::Build { message, .. }) => {
                    assert!(message.contains(key), "{message}")
                }
                _ => panic!("`{key}` of the wrong type was accepted"),
            }
        }
    }

    #[test]
    fn tcp_and_sim_specs_resolve_to_one_deployment() {
        // n = 11, f = 2 under attack: 9 honest workers connect.
        let config = dpbyz_server::TrainingConfig::builder()
            .workers(11, 2)
            .steps(5)
            .build()
            .unwrap();
        let resolved = |d: Deployment| {
            let m = d.resolve("test", &config, true).unwrap();
            let deadlines = (m.join_deadline_ms, m.warmup_deadline_ms, m.step_deadline_ms);
            (
                m.n_workers,
                m.min_workers,
                m.quorum,
                deadlines,
                d.resume_window,
            )
        };
        let shared = |id: &str| {
            ComponentSpec::new(id)
                .with("min_workers", 6u64)
                .with("quorum", 5u64)
                .with("join_timeout_ms", 100u64)
                .with("warmup_timeout_ms", 200u64)
                .with("step_timeout_ms", 300u64)
                .with("resume_window", 4u64)
        };
        let tcp = Deployment::from_spec(&shared("tcp"), &[]).unwrap();
        let sim =
            SimBackend::from_spec(&shared("sim").with("chaos", 7u64).with("compute_ms", 5u64))
                .unwrap()
                .deployment;
        assert_eq!(
            tcp.resolve("test", &config, true),
            sim.resolve("test", &config, true)
        );
        assert_eq!(resolved(tcp), (9, 6, 5, (100, 200, 300), 4));
        assert_eq!(resolved(sim), resolved(tcp));

        // The documented defaults: every honest worker joins and
        // reports, 10 s deadlines, a 32-frame replay window.
        let tcp = Deployment::from_spec(&ComponentSpec::new("tcp"), &[]).unwrap();
        let sim = SimBackend::from_spec(&ComponentSpec::new("sim"))
            .unwrap()
            .deployment;
        let defaults = (9, 9, 9, (10_000, 10_000, 10_000), 32);
        assert_eq!(resolved(tcp), defaults);
        assert_eq!(resolved(sim), defaults);
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
            delivered.push(frame[0]);
            wire.recycle(frame);
        }
        assert_eq!(delivered, [3, 1, 4, 0, 2], "time first, ties in send order");
        assert_eq!(wire.next_at(), Some(9), "the later frame waits");
        assert_eq!(wire.spare.len(), 5);
        assert!(wire
            .spare
            .iter()
            .all(|b| b.is_empty() && b.capacity() >= 16));
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
