//! Both halves of the session protocol, written once for every
//! transport: the coordinator's [`Session`] and the worker's
//! [`WorkerSession`].
//!
//! Both are sans-IO: they never touch a socket or a queue. A transport
//! hands the coordinator's [`Session`] each inbound frame as
//! `(link, kind, payload)` and acts on the returned [`Verdict`] — attach
//! the link (writing any replayed frames down it first), close it, or
//! carry on. Every decision about who may speak lives here:
//!
//! * the **join gate** — `JOIN` (or `JOIN_FRESH`, its twin while the gate
//!   is open) attaches a free slot only during the join phase;
//! * **fresh mid-run joins** — `JOIN_FRESH` from a never-joined slot is
//!   answered with the [`ResumeRing`] tail from the in-flight step (the
//!   `STEP` frames carry the parameters, so the tail is the model
//!   snapshot);
//! * **rejoins** — `REJOIN` from a slot that joined before, with the
//!   right [`session_token`], is answered with every missed broadcast so
//!   the worker's state catches up exactly as if it had straggled;
//! * **gradient admission** — each `GRAD` passes the [`GradGuard`] before
//!   it touches an output slot, and a frame one broadcast ahead of the
//!   round waits in a per-worker buffer (latest wins) until its step
//!   arrives.
//!
//! A *link* is how the transport attributes a frame: `None` for a
//! connection that has not yet completed a handshake (a fresh TCP
//! socket), `Some(id)` for one that speaks for slot `id` (an attached TCP
//! socket, or a simulated worker's wire). A bound link speaks only for
//! its own slot, and a handshake it repeats while attached (a
//! duplicated frame, a re-send) is harmless — except `REJOIN`, which is
//! always answered with a fresh replay.
//!
//! The worker's half owns the worker's slot cursor and answers each
//! coordinator frame through a `send` callback: `WARMUP` with `READY`,
//! each `STEP` the cursor reaches with one `GRAD`, in step order. Stale
//! copies of computed steps are ignored. `STEP`s up to `reorder` steps
//! ahead of the cursor wait in a bounded reorder buffer, and anything
//! further ahead is a violation. TCP is FIFO and passes `reorder = 0`;
//! the simulator's links reorder and it passes its resume window, since
//! a worker further behind than that could not be replayed anyway.
//!
//! [`session_token`]: crate::protocol::session_token

use crate::machine::{Event, Phase};
use crate::protocol::{
    begin_frame, decode_grad, decode_vec_frame, encode_grad, encode_vec_frame, end_frame,
    peek_grad, read_array, session_token, Admission, GradGuard, MessageError, KIND_ABORT,
    KIND_DONE, KIND_GRAD, KIND_JOIN, KIND_JOIN_FRESH, KIND_READY, KIND_REJOIN, KIND_STEP,
    KIND_WARMUP,
};
use crate::transport::{current_step, Replay, ResumeRing};
use crate::worker::WorkerError;
use bytes::{BufMut, BytesMut};
use dpbyz_server::{HonestWorker, WorkerOutput};
use dpbyz_tensor::Vector;
use std::io;

/// What the transport must do with the link a frame arrived on.
pub(crate) enum Verdict<'a> {
    /// Nothing: the frame was consumed (or was harmless debris).
    Continue,
    /// The link now speaks for slot `id`. Write the replayed frames, if
    /// any, down it in order; if that fails, close the link and report
    /// [`Session::detach`].
    Attach(u32, Option<Replay<'a>>),
    /// A protocol violation: close the link. (A simulated link has no
    /// connection to close; the frame is simply discarded.)
    Violation,
}

/// A coordinator broadcast.
#[derive(Clone, Copy)]
pub(crate) enum Broadcast<'a> {
    /// `WARMUP`.
    Warmup,
    /// The `STEP` frame for `step`.
    Step {
        /// The step.
        step: u32,
        /// Its batch size.
        batch: u32,
        /// The parameters to compute against.
        params: &'a Vector,
    },
    /// `DONE`.
    Done,
    /// `ABORT` with a reason.
    Abort(&'a str),
}

/// A parsed handshake payload.
enum Hello {
    Join(u32),
    JoinFresh(u32),
    Rejoin { id: u32, token: u64, next_slot: u32 },
}

impl Hello {
    /// Parses a handshake: `[id: u32]` for `JOIN`/`JOIN_FRESH`,
    /// `[id: u32][token: u64][next_slot: u32]` for `REJOIN`. Any other
    /// length is malformed.
    fn parse(kind: u8, payload: &[u8]) -> Option<Hello> {
        let word = |at| read_array(payload, at).ok().map(u32::from_le_bytes);
        match (kind, payload.len()) {
            (KIND_JOIN, 4) => word(0).map(Hello::Join),
            (KIND_JOIN_FRESH, 4) => word(0).map(Hello::JoinFresh),
            (KIND_REJOIN, 16) => Some(Hello::Rejoin {
                id: word(0)?,
                token: read_array(payload, 4).ok().map(u64::from_le_bytes)?,
                next_slot: word(12)?,
            }),
            _ => None,
        }
    }

    fn id(&self) -> u32 {
        match *self {
            Hello::Join(id) | Hello::JoinFresh(id) | Hello::Rejoin { id, .. } => id,
        }
    }
}

/// The coordinator-side session state of one run. See the module docs.
pub(crate) struct Session {
    run_seed: u64,
    /// The run's model dimension: every reported vector must have it.
    dim: usize,
    /// Slots with a live link.
    attached: Vec<bool>,
    /// Slots that joined at least once — the set `REJOIN` may resume.
    ever_joined: Vec<bool>,
    guard: GradGuard,
    ring: ResumeRing,
    /// One buffered ahead-of-round `GRAD` payload per worker (empty =
    /// none), recycled across uses.
    ahead: Vec<BytesMut>,
    frame: BytesMut,
    step_msg: BytesMut,
}

impl Session {
    /// A session for `n_workers` slots under training seed `run_seed`
    /// (session tokens derive from it), retaining `resume_window`
    /// broadcasts for replay, admitting reports up to `staleness_window`
    /// rounds late, and only of finite vectors of dimension `dim`.
    pub(crate) fn new(
        n_workers: usize,
        run_seed: u64,
        resume_window: usize,
        staleness_window: u32,
        dim: usize,
    ) -> Self {
        Session {
            run_seed,
            dim,
            attached: vec![false; n_workers],
            ever_joined: vec![false; n_workers],
            guard: GradGuard::with_window(n_workers, staleness_window),
            ring: ResumeRing::new(resume_window),
            ahead: (0..n_workers).map(|_| BytesMut::default()).collect(),
            frame: BytesMut::with_capacity(4096),
            step_msg: BytesMut::with_capacity(4096),
        }
    }

    /// Handles one inbound frame from `link` while the machine is in
    /// `phase`: pushes the resulting [`Event`]s, decodes a fresh `GRAD`
    /// straight into its slot of `outputs`, and tells the transport what
    /// to do with the link.
    pub(crate) fn handle(
        &mut self,
        link: Option<u32>,
        kind: u8,
        payload: &[u8],
        phase: Phase,
        outputs: &mut [WorkerOutput],
        events: &mut Vec<Event>,
    ) -> Verdict<'_> {
        if matches!(kind, KIND_JOIN | KIND_JOIN_FRESH | KIND_REJOIN) {
            return self.handshake(link, kind, payload, phase, events);
        }
        // Anything else needs a completed handshake first.
        let Some(id) = link else {
            return Verdict::Violation;
        };
        if !self.attached.get(id as usize).copied().unwrap_or(false) {
            // Debris from a link the session no longer listens to.
            return Verdict::Continue;
        }
        match kind {
            KIND_READY => {
                events.push(Event::Ready(id));
                Verdict::Continue
            }
            KIND_GRAD => match self.admit_grad(id, payload, current_step(phase), outputs, events) {
                Some(()) => Verdict::Continue,
                None => Verdict::Violation,
            },
            _ => Verdict::Violation,
        }
    }

    fn handshake(
        &mut self,
        link: Option<u32>,
        kind: u8,
        payload: &[u8],
        phase: Phase,
        events: &mut Vec<Event>,
    ) -> Verdict<'_> {
        let Some(hello) = Hello::parse(kind, payload) else {
            return Verdict::Violation;
        };
        let id = hello.id();
        let (Some(&attached), Some(&known)) = (
            self.attached.get(id as usize),
            self.ever_joined.get(id as usize),
        ) else {
            return Verdict::Violation; // no such slot
        };
        if link.is_some_and(|bound| bound != id) {
            return Verdict::Violation; // a bound link speaks for its own slot only
        }
        let (event, replay_from) = match hello {
            Hello::Rejoin {
                token, next_slot, ..
            } => {
                if !known || token != session_token(self.run_seed, id) {
                    return Verdict::Violation; // unknown slot or bad token
                }
                (Event::Reattached(id), Some(next_slot))
            }
            // A duplicated or re-sent join on the link already holding
            // the slot.
            _ if attached && link == Some(id) => return Verdict::Continue,
            _ if phase == Phase::WaitingForWorkers && !attached => (Event::Joined(id), None),
            // Mid-run only a never-joined slot may attach fresh; its
            // replay starts at the in-flight step (the WARMUP frame
            // during warmup).
            Hello::JoinFresh(_) if !known => {
                let start = match phase {
                    Phase::Warmup => 0,
                    _ => current_step(phase),
                };
                (Event::JoinedFresh(id), Some(start))
            }
            // A slot already taken, or a JOIN after the gate closed (a
            // worker that lost its link resumes via REJOIN).
            _ => return Verdict::Violation,
        };
        let replay = match replay_from.map(|slot| self.ring.replay_from(slot)) {
            Some(None) => return Verdict::Violation, // evicted, or never broadcast
            replay => replay.flatten(),
        };
        if let (Some(attached), Some(known)) = (
            self.attached.get_mut(id as usize),
            self.ever_joined.get_mut(id as usize),
        ) {
            *attached = true;
            *known = true;
        }
        events.push(event);
        Verdict::Attach(id, replay)
    }

    /// Classifies a `GRAD` from attached slot `id` and decodes it when
    /// fresh. `None` when the frame is malformed or names another worker.
    fn admit_grad(
        &mut self,
        id: u32,
        payload: &[u8],
        current: u32,
        outputs: &mut [WorkerOutput],
        events: &mut Vec<Event>,
    ) -> Option<()> {
        // lint:begin(zero-copy)
        // Every report of every round passes here: peeked, admitted, and
        // decoded straight into the recycled output slot.
        let (wid, step) = peek_grad(payload).ok()?;
        if wid != id {
            return None;
        }
        match self.guard.admit(id, step, current) {
            Admission::Fresh => {
                let out = outputs.get_mut(id as usize)?;
                let step = decode_grad(payload, id, self.dim, out).ok()?;
                events.push(Event::Gradient { id, step });
            }
            Admission::Stale => events.push(Event::StaleGradient(id)),
            Admission::Duplicate => {}
            Admission::Future => {
                let buf = self.ahead.get_mut(id as usize)?;
                buf.clear();
                buf.put_slice(payload);
            }
        }
        // lint:end(zero-copy)
        Some(())
    }

    /// Admits every buffered ahead-of-round `GRAD` whose step the round
    /// has reached. Call at the start of each poll. A buffered frame that
    /// then fails to decode is discarded: its link already carried later
    /// frames, and the missing report costs only its own round.
    pub(crate) fn admit_ahead(
        &mut self,
        phase: Phase,
        outputs: &mut [WorkerOutput],
        events: &mut Vec<Event>,
    ) {
        let current = current_step(phase);
        for id in 0..self.ahead.len() {
            let Some(slot) = self.ahead.get_mut(id) else {
                break;
            };
            if !peek_grad(slot).is_ok_and(|(_, step)| step <= current) {
                continue; // empty, or still ahead
            }
            let mut buf = std::mem::take(slot);
            let _ = self.admit_grad(id as u32, &buf, current, outputs, events);
            buf.clear();
            if let Some(slot) = self.ahead.get_mut(id) {
                *slot = buf;
            }
        }
    }

    /// Builds `msg`'s frame, records `WARMUP`/`STEP` frames in the resume
    /// ring, and hands the frame to `send` once per attached slot, in
    /// slot order.
    pub(crate) fn broadcast(&mut self, msg: Broadcast<'_>, mut send: impl FnMut(u32, &[u8])) {
        let ring_slot = match msg {
            Broadcast::Warmup => {
                begin_frame(&mut self.frame, KIND_WARMUP);
                Some(0)
            }
            Broadcast::Step {
                step,
                batch,
                params,
            } => {
                encode_vec_frame(step, batch, params, &mut self.step_msg);
                begin_frame(&mut self.frame, KIND_STEP);
                self.frame.put_slice(&self.step_msg);
                Some(step)
            }
            Broadcast::Done => {
                begin_frame(&mut self.frame, KIND_DONE);
                None
            }
            Broadcast::Abort(reason) => {
                begin_frame(&mut self.frame, KIND_ABORT);
                self.frame.put_slice(reason.as_bytes());
                None
            }
        };
        end_frame(&mut self.frame);
        if let Some(slot) = ring_slot {
            self.ring.push(slot, &self.frame);
        }
        for (id, &attached) in self.attached.iter().enumerate() {
            if attached {
                send(id as u32, &self.frame);
            }
        }
    }

    /// Records that slot `id` lost its link, reporting
    /// [`Event::Detached`]. The slot stays joined and may `REJOIN`.
    pub(crate) fn detach(&mut self, id: u32, events: &mut Vec<Event>) {
        if let Some(attached) = self.attached.get_mut(id as usize) {
            *attached = false;
        }
        events.push(Event::Detached(id));
    }
}

/// What a worker does after its [`WorkerSession`] handled a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerFlow {
    /// Keep reading.
    Continue,
    /// `DONE`, with the number of steps this session computed.
    Done(u32),
}

/// The worker's half of the session protocol: one [`HonestWorker`] and
/// everything it must remember across frames and links (module docs).
///
/// Its methods answer through `send(frame, computed)`, which writes one
/// frame down the link; `computed` is `Some(step)` for the report of a
/// step computed just now. A `send` error means the link died after this
/// write; the session's state already accounts for it, ready for the
/// next [`WorkerSession::hello`].
pub struct WorkerSession {
    worker: HonestWorker,
    /// The `REJOIN` credential.
    token: u64,
    /// Open with `JOIN_FRESH`; the first `STEP` anchors the cursor.
    fresh_join: bool,
    /// A handshake went out before: the next one is `REJOIN`.
    joined: bool,
    /// `0` = warmup not yet answered; `t ≥ 1` = first uncomputed step.
    next_slot: u32,
    steps_served: u32,
    params: Vector,
    out: WorkerOutput,
    /// Handshakes, and each embedded vector frame of a report.
    scratch: BytesMut,
    /// The newest report's wire frame, resent after `REJOIN`.
    report: BytesMut,
    /// The reorder buffer, as long as the `reorder` bound: the `STEP`
    /// payload of step `s` ahead of the cursor waits in slot `s % len`.
    ahead: Vec<BytesMut>,
}

impl WorkerSession {
    /// A session for `worker` that has sent nothing yet, with `REJOIN`
    /// credential `token`, opening with `JOIN_FRESH` if `fresh_join`,
    /// and accepting `STEP`s at most `reorder` steps ahead of the cursor.
    pub fn new(worker: HonestWorker, token: u64, fresh_join: bool, reorder: u32) -> Self {
        WorkerSession {
            worker,
            token,
            fresh_join,
            joined: false,
            next_slot: 0,
            steps_served: 0,
            params: Vector::default(),
            out: WorkerOutput::default(),
            scratch: BytesMut::with_capacity(1024),
            report: BytesMut::with_capacity(1024),
            ahead: (0..reorder).map(|_| BytesMut::default()).collect(),
        }
    }

    /// The worker's id.
    pub fn id(&self) -> u32 {
        self.worker.id()
    }

    /// Opens a link: `JOIN` (or `JOIN_FRESH`) the first time, afterwards
    /// `REJOIN` naming the cursor, then the newest report, which may have
    /// died unread with the old link (the coordinator's guard drops it
    /// otherwise).
    ///
    /// # Errors
    ///
    /// Whatever `send` returns.
    pub fn hello(
        &mut self,
        mut send: impl FnMut(&[u8], Option<u32>) -> io::Result<()>,
    ) -> io::Result<()> {
        let kind = match (std::mem::replace(&mut self.joined, true), self.fresh_join) {
            (false, false) => KIND_JOIN,
            (false, true) => KIND_JOIN_FRESH,
            (true, _) => KIND_REJOIN,
        };
        let buf = &mut self.scratch;
        begin_frame(buf, kind);
        buf.put_u32_le(self.worker.id());
        if kind == KIND_REJOIN {
            buf.put_u64_le(self.token);
            buf.put_u32_le(self.next_slot);
        }
        end_frame(buf);
        send(buf, None)?;
        if kind == KIND_REJOIN && !self.report.is_empty() {
            send(&self.report, None)?;
        }
        Ok(())
    }

    /// Handles one coordinator frame, then computes every step the cursor
    /// reaches, in order, answering through `send`.
    ///
    /// # Errors
    ///
    /// [`WorkerError::Io`] when `send` failed, [`WorkerError::Aborted`]
    /// on `ABORT`, and [`WorkerError::Protocol`] or
    /// [`WorkerError::Message`] for a violation that computes and sends
    /// nothing: an unknown kind, a malformed `STEP`, or one further ahead
    /// of the cursor than the reorder bound.
    pub fn handle(
        &mut self,
        kind: u8,
        payload: &[u8],
        mut send: impl FnMut(&[u8], Option<u32>) -> io::Result<()>,
    ) -> Result<WorkerFlow, WorkerError> {
        let mut due = None;
        match kind {
            KIND_WARMUP => {
                self.next_slot = self.next_slot.max(1);
                // A replayed WARMUP re-READYs; the machine dedups.
                begin_frame(&mut self.scratch, KIND_READY);
                self.scratch.put_u32_le(self.worker.id());
                end_frame(&mut self.scratch);
                send(&self.scratch, None)?;
            }
            KIND_STEP => due = self.receive_step(payload)?,
            KIND_DONE => return Ok(WorkerFlow::Done(self.steps_served)),
            KIND_ABORT => {
                let reason = String::from_utf8_lossy(payload).into_owned();
                return Err(WorkerError::Aborted(reason));
            }
            other => {
                return Err(WorkerError::Protocol(format!(
                    "unexpected frame kind {other} from coordinator"
                )))
            }
        }
        loop {
            let next = match due.take() {
                Some(due) => Some(due),
                None => self.take_buffered()?,
            };
            let Some((step, batch)) = next else {
                return Ok(WorkerFlow::Continue);
            };
            let id = self.worker.id();
            self.worker
                .compute_into(&self.params, batch as usize, &mut self.out);
            self.next_slot = step.saturating_add(1);
            self.steps_served += 1;
            encode_grad(&mut self.report, &mut self.scratch, id, step, &self.out);
            send(&self.report, Some(step))?;
        }
    }

    /// Classifies a `STEP` by its step alone, then verifies it. Returns
    /// the cursor's step as `(step, batch)`, decoded into `params`; a
    /// stale copy is ignored and a step ahead waits in the reorder buffer.
    fn receive_step(&mut self, payload: &[u8]) -> Result<Option<(u32, u32)>, WorkerError> {
        let step = u32::from_le_bytes(read_array(payload, 0)?);
        // A fresh mid-run joiner skips warmup: the first STEP it receives
        // (the replayed in-flight step) anchors its cursor.
        let cursor = match self.next_slot {
            0 if self.fresh_join => step.max(1),
            next => next,
        };
        if step < cursor {
            return Ok(None); // a stale copy: its report already went out
        }
        if step == 0 || (step - cursor) as usize > self.ahead.len() {
            return Err(WorkerError::Protocol(format!(
                "step {step} broadcast while {cursor} was the next expected slot"
            )));
        }
        let (_, batch) = decode_vec_frame(payload, &mut self.params)?;
        self.next_slot = cursor;
        if step == cursor {
            return Ok(Some((step, batch)));
        }
        if let Some(slot) = reorder_slot(&mut self.ahead, step) {
            slot.clear();
            slot.put_slice(payload);
        }
        Ok(None)
    }

    /// Takes the cursor's step out of the reorder buffer, decoded into
    /// `params`.
    fn take_buffered(&mut self) -> Result<Option<(u32, u32)>, MessageError> {
        let Some(slot) = reorder_slot(&mut self.ahead, self.next_slot) else {
            return Ok(None);
        };
        if read_array(slot, 0) != Ok(self.next_slot.to_le_bytes()) {
            return Ok(None);
        }
        let decoded = decode_vec_frame(slot, &mut self.params);
        slot.clear();
        decoded.map(Some)
    }
}

/// The reorder-buffer slot of `step`; `None` when there is no buffer.
fn reorder_slot(ahead: &mut [BytesMut], step: u32) -> Option<&mut BytesMut> {
    let i = (step as usize).checked_rem(ahead.len())?;
    ahead.get_mut(i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpbyz_core::pipeline::Experiment;
    use dpbyz_server::RunScratch;

    const SEED: u64 = 42;
    const N: usize = 3;

    /// A wire frame as `(kind, payload)`.
    type Frame = (u8, Vec<u8>);

    /// What a [`Verdict`] amounts to, with the replay materialized.
    #[derive(Debug, PartialEq)]
    enum Outcome {
        Continue,
        Attach(u32, Vec<u8>),
        Violation,
    }

    /// The replay as the list of broadcast kinds it carries.
    fn outcome(verdict: Verdict<'_>) -> Outcome {
        match verdict {
            Verdict::Continue => Outcome::Continue,
            Verdict::Attach(id, replay) => Outcome::Attach(
                id,
                replay.into_iter().flatten().map(|frame| frame[4]).collect(),
            ),
            Verdict::Violation => Outcome::Violation,
        }
    }

    /// Splits an encoded wire frame into `(kind, payload)`.
    fn split(buf: &BytesMut) -> Frame {
        (buf[4], buf[5..].to_vec())
    }

    fn join(id: u32, fresh: bool) -> Frame {
        let kind = if fresh { KIND_JOIN_FRESH } else { KIND_JOIN };
        (kind, id.to_le_bytes().to_vec())
    }

    fn rejoin(id: u32, token: u64, next_slot: u32) -> Frame {
        let mut payload = id.to_le_bytes().to_vec();
        payload.extend(token.to_le_bytes());
        payload.extend(next_slot.to_le_bytes());
        (KIND_REJOIN, payload)
    }

    fn grad(id: u32, step: u32) -> Frame {
        report(id, step, &[1.0, 2.0], &[3.0, 4.0])
    }

    /// A correctly tagged `GRAD` carrying the given vectors.
    fn report(id: u32, step: u32, submitted: &[f64], pre_noise: &[f64]) -> Frame {
        let out = WorkerOutput {
            submitted: Vector::from(submitted.to_vec()),
            pre_noise: Vector::from(pre_noise.to_vec()),
            batch_loss: 0.5,
        };
        let (mut buf, mut scratch) = (BytesMut::default(), BytesMut::default());
        encode_grad(&mut buf, &mut scratch, id, step, &out);
        split(&buf)
    }

    /// Output slots holding a sentinel no decode would write.
    fn sentinel_outputs() -> Vec<WorkerOutput> {
        (0..N)
            .map(|_| WorkerOutput {
                submitted: Vector::from(vec![-7.0]),
                pre_noise: Vector::from(vec![-7.0]),
                batch_loss: -7.0,
            })
            .collect()
    }

    /// Workers 0 and 1 joined and warmed up, steps 1..=3 broadcast, step
    /// 3 in flight; the two-frame ring holds slots 2 and 3 only. Worker 2
    /// never joined.
    fn mid_run() -> Session {
        let mut session = Session::new(N, SEED, 2, 0, 2);
        let (mut outputs, mut events) = (sentinel_outputs(), Vec::new());
        for id in [0, 1] {
            let (kind, payload) = join(id, false);
            let verdict = session.handle(
                None,
                kind,
                &payload,
                Phase::WaitingForWorkers,
                &mut outputs,
                &mut events,
            );
            assert_eq!(outcome(verdict), Outcome::Attach(id, vec![]));
        }
        assert_eq!(events, vec![Event::Joined(0), Event::Joined(1)]);
        let params = Vector::from(vec![0.0, 0.0]);
        session.broadcast(Broadcast::Warmup, |_, _| {});
        for step in 1..=3 {
            let msg = Broadcast::Step {
                step,
                batch: 4,
                params: &params,
            };
            session.broadcast(msg, |_, _| {});
        }
        session
    }

    const TRAIN: Phase = Phase::Train { step: 3 };

    #[test]
    fn hostile_handshakes_are_violations_that_touch_nothing() {
        let token = session_token(SEED, 0);
        let mut truncated = rejoin(0, token, 3);
        truncated.1.pop();
        let cases: [(&str, Option<u32>, Frame); 9] = [
            ("REJOIN with a wrong token", None, rejoin(0, token ^ 1, 3)),
            (
                "REJOIN with another slot's token",
                None,
                rejoin(1, token, 3),
            ),
            ("REJOIN for an evicted ring slot", None, rejoin(0, token, 1)),
            (
                "REJOIN beyond anything broadcast",
                None,
                rejoin(0, token, 5),
            ),
            ("REJOIN with a truncated payload", None, truncated),
            (
                "REJOIN for a never-joined slot",
                None,
                rejoin(2, session_token(SEED, 2), 3),
            ),
            (
                "JOIN_FRESH for a slot that already joined",
                None,
                join(0, true),
            ),
            ("JOIN after the join gate closed", None, join(2, false)),
            ("GRAD naming another worker", Some(0), grad(1, 3)),
        ];
        for (case, link, (kind, payload)) in cases {
            let mut session = mid_run();
            let (mut outputs, mut events) = (sentinel_outputs(), Vec::new());
            let verdict = session.handle(link, kind, &payload, TRAIN, &mut outputs, &mut events);
            assert_eq!(outcome(verdict), Outcome::Violation, "{case}");
            assert_eq!(events, vec![], "{case}: no event");
            assert_eq!(
                outputs,
                sentinel_outputs(),
                "{case}: no output slot touched"
            );
        }
    }

    #[test]
    fn valid_handshakes_attach_and_name_the_replay() {
        let cases = [
            (
                "REJOIN resumes from its first uncomputed step",
                rejoin(0, session_token(SEED, 0), 2),
                Outcome::Attach(0, vec![KIND_STEP, KIND_STEP]),
                Event::Reattached(0),
            ),
            (
                "REJOIN that is caught up replays nothing",
                rejoin(1, session_token(SEED, 1), 4),
                Outcome::Attach(1, vec![]),
                Event::Reattached(1),
            ),
            (
                "JOIN_FRESH replays from the in-flight step",
                join(2, true),
                Outcome::Attach(2, vec![KIND_STEP]),
                Event::JoinedFresh(2),
            ),
        ];
        for (case, (kind, payload), expected, event) in cases {
            let mut session = mid_run();
            let (mut outputs, mut events) = (sentinel_outputs(), Vec::new());
            let verdict = session.handle(None, kind, &payload, TRAIN, &mut outputs, &mut events);
            assert_eq!(outcome(verdict), expected, "{case}");
            assert_eq!(events, vec![event], "{case}");
            assert_eq!(
                outputs,
                sentinel_outputs(),
                "{case}: no output slot touched"
            );
        }
    }

    #[test]
    fn bound_links_repeat_handshakes_harmlessly_and_speak_only_for_their_slot() {
        let mut session = mid_run();
        let (mut outputs, mut events) = (sentinel_outputs(), Vec::new());
        let mut handle = |link, (kind, payload): Frame| {
            outcome(session.handle(link, kind, &payload, TRAIN, &mut outputs, &mut events))
        };
        // A duplicated JOIN on the attached link is debris, not a rejoin.
        assert_eq!(handle(Some(0), join(0, false)), Outcome::Continue);
        // …but an unbound link claiming the attached slot is refused.
        assert_eq!(handle(None, join(0, false)), Outcome::Violation);
        // A bound link may not speak for another slot.
        assert_eq!(handle(Some(0), join(1, false)), Outcome::Violation);
        // Nothing but a handshake opens an unbound link.
        let ready = (KIND_READY, 0u32.to_le_bytes().to_vec());
        assert_eq!(handle(None, ready.clone()), Outcome::Violation);
        assert_eq!(handle(Some(0), ready), Outcome::Continue);
        assert_eq!(events, vec![Event::Ready(0)]);
    }

    #[test]
    fn non_finite_or_misshaped_reports_yield_no_gradient() {
        // Tagged, attributed and in-round: only the values are hostile.
        // A GAR would panic on NaN (median, Krum), pass it into the model
        // (MDA), or fail the run on a dimension mismatch.
        let cases: [(&str, &[f64], &[f64]); 3] = [
            ("NaN coordinate", &[f64::NAN, 2.0], &[3.0, 4.0]),
            ("+inf coordinate", &[1.0, 2.0], &[3.0, f64::INFINITY]),
            ("wrong dimension", &[1.0, 2.0, 5.0], &[3.0, 4.0, 6.0]),
        ];
        for (case, submitted, pre_noise) in cases {
            let mut session = mid_run();
            let (mut outputs, mut events) = (sentinel_outputs(), Vec::new());
            let (kind, payload) = report(0, 3, submitted, pre_noise);
            let verdict = session.handle(Some(0), kind, &payload, TRAIN, &mut outputs, &mut events);
            assert_eq!(outcome(verdict), Outcome::Violation, "{case}");
            assert_eq!(events, vec![], "{case}: no gradient admitted");
        }
        // The same report with finite values of the run's dimension is
        // admitted.
        let mut session = mid_run();
        let (mut outputs, mut events) = (sentinel_outputs(), Vec::new());
        let (kind, payload) = grad(0, 3);
        let verdict = session.handle(Some(0), kind, &payload, TRAIN, &mut outputs, &mut events);
        assert_eq!(outcome(verdict), Outcome::Continue);
        assert_eq!(events, vec![Event::Gradient { id: 0, step: 3 }]);
    }

    #[test]
    fn ahead_of_round_reports_wait_for_their_step() {
        let mut session = mid_run();
        let (mut outputs, mut events) = (sentinel_outputs(), Vec::new());
        let (kind, payload) = grad(0, 4);
        let verdict = session.handle(Some(0), kind, &payload, TRAIN, &mut outputs, &mut events);
        assert_eq!(outcome(verdict), Outcome::Continue);
        session.admit_ahead(TRAIN, &mut outputs, &mut events);
        assert_eq!(events, vec![], "step 4 is not in flight yet");
        assert_eq!(outputs, sentinel_outputs());
        session.admit_ahead(Phase::Train { step: 4 }, &mut outputs, &mut events);
        assert_eq!(events, vec![Event::Gradient { id: 0, step: 4 }]);
        assert_eq!(outputs[0].batch_loss, 0.5);
        // Admitted once: the buffer is empty again.
        events.clear();
        session.admit_ahead(Phase::Train { step: 4 }, &mut outputs, &mut events);
        assert_eq!(events, vec![]);
    }

    #[test]
    fn detached_slots_fall_silent_and_leave_the_broadcast() {
        let mut session = mid_run();
        let (mut outputs, mut events) = (sentinel_outputs(), Vec::new());
        session.detach(1, &mut events);
        assert_eq!(events, vec![Event::Detached(1)]);
        let (kind, payload) = grad(1, 3);
        let verdict = session.handle(Some(1), kind, &payload, TRAIN, &mut outputs, &mut events);
        assert_eq!(outcome(verdict), Outcome::Continue);
        assert_eq!(
            outputs,
            sentinel_outputs(),
            "a detached link's frames are debris"
        );
        let mut sent = Vec::new();
        session.broadcast(Broadcast::Done, |id, frame| sent.push((id, frame[4])));
        assert_eq!(sent, vec![(0, KIND_DONE)]);
    }

    /// A worker session at reorder bound `reorder`. Every call builds the
    /// same worker, so two calls give twins.
    fn worker_session(reorder: u32, fresh_join: bool) -> WorkerSession {
        let exp = Experiment::theorem1(4, 0.1, None, 8, 5, 1).unwrap();
        let (_, mut workers) = exp
            .build_trainer()
            .unwrap()
            .into_distributed_parts(SEED, &mut RunScratch::new());
        WorkerSession::new(
            workers.remove(0),
            session_token(SEED, 0),
            fresh_join,
            reorder,
        )
    }

    fn warmup() -> Frame {
        (KIND_WARMUP, Vec::new())
    }

    fn step(step: u32) -> Frame {
        let mut buf = BytesMut::default();
        let params = Vector::from(vec![0.25 * f64::from(step); 4]);
        encode_vec_frame(step, 5, &params, &mut buf);
        (KIND_STEP, buf.to_vec())
    }

    /// Hands `frames` to `session` in order, returning every frame sent.
    fn feed(session: &mut WorkerSession, frames: &[Frame]) -> Vec<Vec<u8>> {
        let mut sent = Vec::new();
        for (kind, payload) in frames {
            let flow = session.handle(*kind, payload, |frame, _| {
                sent.push(frame.to_vec());
                Ok(())
            });
            assert!(matches!(flow, Ok(WorkerFlow::Continue)), "{flow:?}");
        }
        sent
    }

    #[test]
    fn hostile_coordinator_frames_are_violations_that_touch_nothing() {
        let mut truncated = step(2);
        truncated.1.pop();
        let corrupt = |at| {
            let (kind, mut payload) = step(at);
            payload[12] ^= 0x01; // the first coordinate
            (kind, payload)
        };
        let in_order = [warmup(), step(1), step(2), step(3)];
        // (case, reorder bound, fresh join, frames handled before the
        // hostile one)
        let cases: [(&str, u32, bool, usize, Frame); 7] = [
            ("a truncated STEP", 0, false, 2, truncated),
            ("a STEP with a bad checksum", 0, false, 2, corrupt(2)),
            (
                "a corrupt STEP ahead of the cursor",
                2,
                false,
                2,
                corrupt(3),
            ),
            ("a corrupt STEP to a fresh joiner", 0, true, 0, corrupt(3)),
            ("an unknown kind", 0, false, 2, (42, vec![1, 2, 3])),
            ("a STEP beyond the reorder bound", 2, false, 2, step(5)),
            ("a STEP before WARMUP at reorder 0", 0, false, 0, step(1)),
        ];
        for (case, reorder, fresh, before, (kind, payload)) in cases {
            let mut hit = worker_session(reorder, fresh);
            let mut twin = worker_session(reorder, fresh);
            let (done, rest) = in_order.split_at(before);
            feed(&mut hit, done);
            feed(&mut twin, done);
            let mut sent = 0;
            let got = hit.handle(kind, &payload, |_, _| {
                sent += 1;
                Ok(())
            });
            assert!(
                matches!(got, Err(WorkerError::Protocol(_) | WorkerError::Message(_))),
                "{case}: {got:?}"
            );
            assert_eq!(sent, 0, "{case}: nothing sent");
            assert_eq!(
                feed(&mut hit, rest),
                feed(&mut twin, rest),
                "{case}: the next reports are bit-equal to the twin's"
            );
        }
    }
}
