//! The transport abstraction the coordinator drives — real sockets or
//! the in-memory chaos simulator, same loop.
//!
//! [`drive`] is the coordinator's entire control flow, extracted from
//! the TCP plumbing: poll the transport for decoded [`Event`]s, feed
//! them (and virtual time) to the [`RoundStateMachine`], and execute the
//! [`Action`]s it emits against the shared [`ServerCore`] — exactly as
//! the in-process engines drive it, which is what makes every backend's
//! [`RunHistory`] bit-identical per seed. A [`Transport`] owns *how*
//! bytes move (sockets, or [`SimNet`](crate::sim::SimNet)'s seeded fault
//! plan) and attributes them to links; what a frame *means* — joins,
//! rejoins, admission, the events it yields — is decided by the one
//! session handler (`session.rs`) every transport shares.
//!
//! [`ResumeRing`] is the replay half of the `Rejoin` handshake: the last
//! `W` broadcast frames (warmup + steps), recycled buffer-for-buffer so
//! steady-state rounds stay allocation-free. A reconnecting worker tells
//! the coordinator the first slot it has not computed; the ring replays
//! everything from there so the worker's RNG and momentum state catch up
//! *exactly* as if it had merely straggled — the lever behind the
//! reconnect-vs-straggler bit-identity the regression suite pins.

use crate::machine::{Action, Event, MachineConfig, Phase, RoundStateMachine};
use bytes::{BufMut, BytesMut};
use dpbyz_gars::GarError;
use dpbyz_server::{RunHistory, RunScratch, ServerCore, WorkerOutput, WorkerPool};
use dpbyz_tensor::Vector;
use std::collections::VecDeque;
use std::fmt;
use std::io;

/// Why a coordinated run failed.
#[derive(Debug)]
pub enum CoordinatorError {
    /// Listener/socket failure.
    Io(io::Error),
    /// The aggregation rule rejected the topology mid-run.
    Gar(GarError),
    /// The state machine aborted (below `min_workers`, below quorum);
    /// reason attached.
    Aborted(String),
}

impl fmt::Display for CoordinatorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoordinatorError::Io(e) => write!(f, "transport: {e}"),
            CoordinatorError::Gar(e) => write!(f, "aggregation: {e}"),
            CoordinatorError::Aborted(reason) => write!(f, "run aborted: {reason}"),
        }
    }
}

impl std::error::Error for CoordinatorError {}

impl From<io::Error> for CoordinatorError {
    fn from(e: io::Error) -> Self {
        CoordinatorError::Io(e)
    }
}

/// The step currently in flight, as the receive path needs it for
/// dedup/reorder admission: the broadcast step during `Train`/`Aggregate`
/// and `0` (nothing broadcast yet) otherwise.
pub fn current_step(phase: Phase) -> u32 {
    match phase {
        Phase::Train { step } | Phase::Aggregate { step } => step,
        _ => 0,
    }
}

/// How the coordinator's [`drive`] loop talks to the wire (or the
/// simulator). Implementations own connections and hand every frame to
/// the shared session handler (`session.rs`); the loop owns the state
/// machine and the server core.
pub trait Transport {
    /// Current virtual time in ms — wall-clock since start for sockets,
    /// the simulated clock for [`SimNet`](crate::sim::SimNet).
    fn now_ms(&mut self) -> u64;

    /// Moves pending bytes: accepts connections, reads frames, decodes
    /// gradient reports **straight into `outputs`** (only
    /// fresh-for-`phase` frames — the session's
    /// [`GradGuard`](crate::protocol::GradGuard) keeps duplicated or
    /// reordered frames from clobbering a slot), and appends the decoded
    /// [`Event`]s. Returns whether anything moved.
    ///
    /// # Errors
    ///
    /// Fatal transport failures only (a lost *worker* is an
    /// [`Event::Detached`], not an error).
    fn poll(
        &mut self,
        phase: Phase,
        outputs: &mut [WorkerOutput],
        events: &mut Vec<Event>,
    ) -> io::Result<bool>;

    /// Broadcasts `WARMUP` to every attached worker.
    fn start_warmup(&mut self);

    /// Broadcasts the `STEP` frame for `step` to every attached worker.
    fn broadcast_step(&mut self, step: u32, batch: u32, params: &Vector);

    /// Broadcasts `DONE`.
    fn finish(&mut self);

    /// Broadcasts `ABORT` with a reason.
    fn abort(&mut self, reason: &str);

    /// Nothing moved this iteration: park until more bytes can exist.
    /// `next_deadline_ms` is the latest wake-up that cannot delay a
    /// deadline decision (the simulator jumps its clock there; sockets
    /// nap a few hundred µs).
    fn idle(&mut self, next_deadline_ms: Option<u64>);

    /// Takes the run's worker pool for [`drive`]'s round loop, with
    /// `helpers` of its threads free to compute beside the driving
    /// thread. [`drive`] calls it once, before the first poll, and hands
    /// the pool back through [`Transport::reclaim_pool`]. The default
    /// leaves the pool where it is and computes nothing off the driving
    /// thread.
    fn lend_pool(&mut self, _pool: &mut WorkerPool, _helpers: usize) {}

    /// Ends [`Transport::lend_pool`]'s loan once [`drive`]'s loop has
    /// ended, on every exit path: a transport that took the pool finishes
    /// all the work it gave the pool's threads, takes them back and puts
    /// the pool in `pool`. The default does nothing.
    fn reclaim_pool(&mut self, _pool: &mut WorkerPool) {}
}

/// Runs one training run over any [`Transport`]: walks the
/// [`RoundStateMachine`] through
/// `WaitingForWorkers → Warmup → (Train → Aggregate)* → Done` and seals
/// the [`RunHistory`].
///
/// `core` comes from
/// [`Trainer::into_distributed_parts`](dpbyz_server::Trainer::into_distributed_parts);
/// buffers recycle through `scratch` exactly as the in-process engines
/// do, on **every** exit path. The scratch's worker pool is lent to the
/// transport for the run ([`Transport::lend_pool`]) with as many helper
/// threads as [`WorkerPool::helpers`] allows the run's shape.
///
/// # Errors
///
/// See [`CoordinatorError`].
pub fn drive<T: Transport>(
    transport: &mut T,
    core: ServerCore,
    cfg: MachineConfig,
    seed: u64,
    scratch: &mut RunScratch,
) -> Result<RunHistory, CoordinatorError> {
    let batch_size = core.config().batch_size;
    let helpers = WorkerPool::helpers(cfg.n_workers, batch_size, core.params().dim());
    drive_with(transport, core, cfg, seed, scratch, helpers)
}

/// [`drive`] with `helpers` pool threads lent to the transport, whatever
/// the run's shape and the free cores. Tests force a count through here.
pub(crate) fn drive_with<T: Transport>(
    transport: &mut T,
    mut core: ServerCore,
    cfg: MachineConfig,
    seed: u64,
    scratch: &mut RunScratch,
    helpers: usize,
) -> Result<RunHistory, CoordinatorError> {
    let mut machine = RoundStateMachine::new(cfg, transport.now_ms());
    let mut outputs = scratch.take_outputs();
    outputs.resize_with(cfg.n_workers, Default::default);
    let mut actions: Vec<Action> = Vec::with_capacity(4);
    let mut events: Vec<Event> = Vec::with_capacity(8);
    let dim = core.params().dim();

    transport.lend_pool(scratch.worker_pool(), helpers);
    let result = 'run: loop {
        let now = transport.now_ms();
        let polled = match transport.poll(machine.phase(), &mut outputs, &mut events) {
            Ok(moved) => moved,
            Err(e) => break 'run Err(CoordinatorError::Io(e)),
        };
        let mut progressed = polled || !events.is_empty();
        for event in events.drain(..) {
            machine.on_event(event, now, &mut actions);
        }
        machine.tick(now, &mut actions);

        // Process actions by index: `on_aggregated` appends while we
        // walk (Action is Copy, so no borrow of the Vec is held).
        let mut finished = false;
        let mut a = 0;
        while let Some(&action) = actions.get(a) {
            match action {
                Action::StartWarmup => transport.start_warmup(),
                Action::BroadcastStep(t) => {
                    let batch = core.config().batch_at(t) as u32;
                    transport.broadcast_step(t, batch, core.params());
                }
                Action::Aggregate(t) => {
                    // Absent submissions — stragglers this round, or
                    // workers that never joined a short-handed run —
                    // become zero vectors at the server, reusing the
                    // fault-injection semantics of §2.1.
                    for (id, out) in outputs.iter_mut().enumerate() {
                        let absent = !machine.is_joined(id as u32)
                            || machine.dropped().contains(&(id as u32));
                        if absent {
                            out.submitted.resize(dim, 0.0);
                            out.submitted.fill(0.0);
                            out.pre_noise.resize(dim, 0.0);
                            out.pre_noise.fill(0.0);
                            out.batch_loss = 0.0;
                        }
                    }
                    // Frames admitted from an earlier step carry their
                    // age into the server so λ^age damping happens
                    // before the GAR sees them. Ages reset every round,
                    // so a strict run (window 0) never reaches this.
                    for (id, &age) in machine.ages().iter().enumerate() {
                        if age > 0 {
                            core.set_submission_age(id, age);
                        }
                    }
                    if let Err(e) = core.process_round(t, &mut outputs) {
                        transport.abort(&e.to_string());
                        break 'run Err(CoordinatorError::Gar(e));
                    }
                    machine.on_aggregated(now, &mut actions);
                }
                Action::Finish => {
                    transport.finish();
                    finished = true;
                }
                Action::Abort => {
                    let reason = machine
                        .abort_reason()
                        .unwrap_or("state machine aborted")
                        .to_string();
                    transport.abort(&reason);
                    break 'run Err(CoordinatorError::Aborted(reason));
                }
            }
            progressed = true;
            a += 1;
        }
        actions.clear();

        if finished {
            break 'run Ok(());
        }
        if !progressed {
            transport.idle(machine.next_deadline_ms());
        }
    };

    transport.reclaim_pool(scratch.worker_pool());
    scratch.restore_outputs(outputs);
    core.reclaim_scratch(scratch);
    result.map(|()| {
        // Churn accounting rides along in the history but is excluded
        // from its equality/digest: pins compare trajectories, not
        // delivery schedules.
        core.record_churn(machine.churn);
        core.finish(seed)
    })
}

/// The last `W` broadcast wire frames, keyed by *slot*: `0` is the
/// `WARMUP` frame, `t ≥ 1` the `STEP` frame for step `t`. Backs the
/// `Rejoin` replay — a reconnecting worker names the first slot it has
/// not computed and receives every stored frame from there, byte-for-byte
/// what the original broadcast carried.
///
/// The first frame larger than any before it (the first `STEP`) sizes
/// all `W` buffers for itself at once, and buffers recycle once the ring
/// is full (the evicted frame's storage takes the new frame), so no
/// round after the first allocates — not even while the ring fills.
#[derive(Debug)]
pub struct ResumeRing {
    cap: usize,
    frames: VecDeque<(u32, BytesMut)>,
    /// Buffers sized for the ring but not yet holding a frame.
    spare: Vec<BytesMut>,
    /// Capacity of every buffer: the largest frame pushed so far.
    frame_cap: usize,
}

impl ResumeRing {
    /// A ring holding at most `cap` frames (`cap ≥ 1` enforced by
    /// clamping).
    pub fn new(cap: usize) -> Self {
        ResumeRing {
            cap: cap.max(1),
            frames: VecDeque::with_capacity(cap.max(1)),
            spare: Vec::with_capacity(cap.max(1)),
            frame_cap: 0,
        }
    }

    /// Records the wire frame broadcast for `slot`, evicting (and
    /// recycling) the oldest once full. Slots must be pushed in
    /// ascending order — the broadcast schedule guarantees this.
    pub fn push(&mut self, slot: u32, frame: &[u8]) {
        if frame.len() > self.frame_cap {
            self.frame_cap = frame.len();
            let missing = self.cap - self.frames.len() - self.spare.len();
            self.spare.extend((0..missing).map(|_| BytesMut::default()));
            let held = self.frames.iter_mut().map(|(_, buf)| buf);
            for buf in self.spare.iter_mut().chain(held) {
                buf.reserve(self.frame_cap - buf.len());
            }
        }
        let mut buf = if self.frames.len() == self.cap {
            self.frames.pop_front().map(|(_, buf)| buf)
        } else {
            self.spare.pop()
        }
        .unwrap_or_default();
        buf.clear();
        buf.put_slice(frame);
        self.frames.push_back((slot, buf));
    }

    /// The stored frames for every slot `≥ from`, oldest first — what a
    /// rejoining worker must be replayed. `None` when the ring cannot
    /// serve the request: slot `from` was already evicted (the worker
    /// fell too far behind to resume), or `from` claims a slot that was
    /// never broadcast (a confused or hostile peer).
    pub fn replay_from(&self, from: u32) -> Option<Replay<'_>> {
        if let (Some(&(first, _)), Some(&(last, _))) = (self.frames.front(), self.frames.back()) {
            if from < first || from > last.saturating_add(1) {
                return None;
            }
        } else if from > 0 {
            return None; // nothing ever broadcast: only `from == 0` resumes
        }
        // Slots ascend, so the frames to replay are a suffix.
        let start = self.frames.partition_point(|&(slot, _)| slot < from);
        Some(Replay(self.frames.range(start..)))
    }
}

/// The frames [`ResumeRing::replay_from`] serves, oldest first.
#[derive(Debug)]
pub struct Replay<'a>(std::collections::vec_deque::Iter<'a, (u32, BytesMut)>);

impl<'a> Iterator for Replay<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        self.0.next().map(|(_, buf)| -> &[u8] { buf })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn replayed(ring: &ResumeRing, from: u32) -> Option<Vec<Vec<u8>>> {
        ring.replay_from(from)
            .map(|frames| frames.map(<[u8]>::to_vec).collect())
    }

    #[test]
    fn replay_serves_suffixes_and_rejects_evicted_slots() {
        let mut ring = ResumeRing::new(3);
        assert_eq!(replayed(&ring, 0), Some(vec![]), "empty ring, from 0");
        assert_eq!(replayed(&ring, 1), None, "slot 1 was never broadcast");
        for slot in 0..5u32 {
            ring.push(slot, &[slot as u8; 4]);
        }
        // Capacity 3: slots 0 and 1 evicted, 2..=4 held.
        assert_eq!(replayed(&ring, 1), None, "evicted: too far behind");
        assert_eq!(
            replayed(&ring, 2),
            Some(vec![vec![2; 4], vec![3; 4], vec![4; 4]])
        );
        assert_eq!(replayed(&ring, 4), Some(vec![vec![4; 4]]));
        // "Caught up" is a valid resume: nothing to replay.
        assert_eq!(replayed(&ring, 5), Some(vec![]));
        // A slot beyond anything broadcast is a hostile claim.
        assert_eq!(replayed(&ring, 6), None);
    }

    #[test]
    fn full_ring_recycles_buffer_storage() {
        let mut ring = ResumeRing::new(2);
        ring.push(0, &[0; 16]);
        ring.push(1, &[1; 16]);
        let recycled: Vec<*const u8> = ring.frames.iter().map(|(_, b)| b.as_ptr()).collect();
        // Same-size frames from here on reuse the evicted allocations.
        for slot in 2..10u32 {
            ring.push(slot, &[slot as u8; 16]);
            let ptr = ring.frames.back().map(|(_, b)| b.as_ptr()).unwrap();
            assert!(
                recycled.contains(&ptr),
                "slot {slot} allocated fresh storage"
            );
        }
    }

    #[test]
    fn a_larger_frame_sizes_every_buffer_at_once() {
        // A WARMUP-sized frame, then STEP-sized ones: the first STEP sizes
        // all four buffers, so filling the ring reuses them.
        let mut ring = ResumeRing::new(4);
        ring.push(0, &[0; 5]);
        ring.push(1, &[1; 64]);
        let sized: Vec<*const u8> = ring
            .spare
            .iter()
            .chain(ring.frames.iter().map(|(_, b)| b))
            .map(|b| b.as_ptr())
            .collect();
        for slot in 2..12u32 {
            ring.push(slot, &[slot as u8; 64]);
            let ptr = ring.frames.back().map(|(_, b)| b.as_ptr()).unwrap();
            assert!(sized.contains(&ptr), "slot {slot} allocated fresh storage");
        }
        assert_eq!(replayed(&ring, 11), Some(vec![vec![11; 64]]));
    }
}
