//! The coordinator's round state machine — pure and transport-free.
//!
//! The machine owns *when* things happen; the transport owns *how*. It is
//! driven by two inputs only — [`RoundStateMachine::on_event`] for
//! messages the transport decoded, and [`RoundStateMachine::tick`] for
//! the passage of (virtual, millisecond) time — and communicates back via
//! [`Action`]s pushed into a caller-owned buffer. That makes the whole
//! protocol testable with an in-memory transport double and no sockets
//! (see this module's tests), and keeps the hot path allocation-free:
//! the action buffer and the straggler list are recycled.
//!
//! Phases follow the tick-driven coordinator shape:
//!
//! ```text
//! WaitingForWorkers ── all joined, or deadline with ≥ min_workers ──▶ Warmup
//!        │ deadline with < min_workers                                  │ all ready, or deadline
//!        ▼                                                              ▼
//!     Aborted ◀── deadline with < quorum reports ────────────── Train{t} ◀─┐
//!                                                                    │     │ next step
//!                                                all reported, or    ▼     │
//!                                                deadline ≥ quorum  Aggregate{t}
//!                                                                    │
//!                                                       t == steps   ▼
//!                                                              ─▶  Done
//! ```
//!
//! Straggler handling reuses the fault-injection semantics the server
//! already has: when the step deadline passes with at least `quorum`
//! (witness-style, the round's `n − f` budget) reports, the round
//! *advances anyway* and the non-reporters are listed in
//! [`RoundStateMachine::dropped`] — the coordinator zeroes their
//! submissions exactly as the in-process fault injector does, so a
//! dropped worker costs the round its contribution, not the run.
//!
//! Churn rides on the same accounting: a lost connection surfaces as
//! [`Event::Detached`] (the worker stays joined, its rounds zero like a
//! straggler's, but it stops gating opportunistic advancement) and a
//! completed `Rejoin` handshake as [`Event::Reattached`]. Because both
//! paths reduce to the *same* per-round dropped set, a crash-and-rejoin
//! run is bit-identical to one where the worker merely straggled those
//! rounds — the reconnect regression suite pins this. Advancement never
//! happens below `quorum`, deadline or not.
//!
//! Two asynchrony extensions ride on top, both off by default:
//!
//! * **Bounded staleness** ([`MachineConfig::staleness_window`] `= k`):
//!   during `Train { step }` a report tagged for step `step − j` with
//!   `j ≤ k` is admitted instead of ignored, and its age is recorded in
//!   [`RoundStateMachine::ages`] so the server can damp it by `λ^j`.
//!   `k = 0` reduces exactly to the strict semantics above and is
//!   digest-pinned against them.
//! * **Fresh mid-run joins** ([`Event::JoinedFresh`]): a worker that was
//!   never in the initial fleet attaches mid-run, counting as joined
//!   *and* ready (warmup is skipped — the transport replays the resume
//!   ring so it can compute the current round). From that round on it
//!   gates advancement and is dropped/zeroed like any other joined
//!   worker when it misses a deadline — the `f`-accounting already
//!   treats every joined non-reporter the same way.
//!
//! The machine also keeps the run's churn ledger, a [`ChurnStats`]
//! (per-worker drop, beyond-window stale, and late-admit counters plus
//! detach/reattach/fresh-join totals), which the driver moves into
//! `RunHistory::churn`.

use crate::protocol::MessageError;
use dpbyz_server::ChurnStats;

/// Where the coordinator is in the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Accepting connections; waiting for `JOIN`s.
    WaitingForWorkers,
    /// All (or enough) workers joined; waiting for `READY`s.
    Warmup,
    /// Step `step` broadcast; collecting gradient reports.
    Train {
        /// The in-flight training step (1-based).
        step: u32,
    },
    /// Step `step` has enough reports; the driver is aggregating.
    Aggregate {
        /// The step being aggregated.
        step: u32,
    },
    /// All steps aggregated; the run is complete.
    Done,
    /// The run died (below `min_workers`, below quorum, or protocol
    /// violation); see [`RoundStateMachine::abort_reason`].
    Aborted,
}

/// A transport message, already decoded, attributed to a worker slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// Worker `id` joined (sent `JOIN`).
    Joined(u32),
    /// Worker `id` finished warmup (sent `READY`).
    Ready(u32),
    /// Worker `id` delivered a gradient frame for `step`. Reports older
    /// than [`MachineConfig::staleness_window`] rounds are ignored (a
    /// straggler's ancient report must not corrupt the current round);
    /// in-window late reports are admitted with their age recorded.
    Gradient {
        /// Reporting worker.
        id: u32,
        /// The step the report is for.
        step: u32,
    },
    /// The transport lost worker `id`'s connection (socket error, EOF,
    /// garbage frame). The worker stays *joined* — its rounds are zeroed
    /// like any straggler's — but it no longer gates opportunistic
    /// advancement: a round with every *attached* worker reported moves
    /// on immediately instead of burning the full deadline on a peer
    /// that cannot answer.
    Detached(u32),
    /// Worker `id` completed a `Rejoin` handshake on a fresh connection;
    /// it gates advancement again from the current round onward.
    Reattached(u32),
    /// Worker `id` completed a `JOIN_FRESH` handshake mid-run: it was
    /// never in the initial fleet, joins *and* readies in one step
    /// (warmup already happened without it; the transport streams the
    /// resume-ring tail so it holds the current model state), and gates
    /// advancement from the current round onward.
    JoinedFresh(u32),
    /// The transport rejected worker `id`'s gradient as beyond the
    /// staleness window (counter only — the machine's round state is
    /// untouched; the report was already inadmissible).
    StaleGradient(u32),
    /// Worker `id`'s report for the in-flight round arrived but was
    /// refused (a payload that does not decode, a vector of the wrong
    /// dimension, a non-finite coordinate). The session admits one report
    /// per worker per round, so none can follow: the machine stops
    /// waiting for the worker this round, and the round aborts at once
    /// when no joined worker can still bring the reports up to `quorum`.
    /// An abort reason names the round's rejections and the last cause.
    Rejected {
        /// The worker whose report was refused.
        id: u32,
        /// Why it was.
        why: MessageError,
    },
}

/// What the transport must do next. Data-free by design (the machine
/// never touches payloads), so the action buffer recycles with no
/// allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Broadcast `WARMUP` to all joined workers.
    StartWarmup,
    /// Broadcast the `STEP` frame for this step to all joined workers.
    BroadcastStep(u32),
    /// Enough reports for this step: zero the submissions of
    /// [`RoundStateMachine::dropped`] workers and run the server round.
    /// Confirm with [`RoundStateMachine::on_aggregated`].
    Aggregate(u32),
    /// All steps aggregated: broadcast `DONE` and seal the history.
    Finish,
    /// Broadcast `ABORT` (reason in [`RoundStateMachine::abort_reason`])
    /// and tear down.
    Abort,
}

/// Deadlines and quorum knobs. Times are in milliseconds of *virtual*
/// time — the machine never reads a clock; the driver passes `now_ms`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineConfig {
    /// Honest worker slots (ids `0..n_workers` may join).
    pub n_workers: usize,
    /// Minimum joins required when the join deadline fires; below this
    /// the run aborts instead of starting short-handed.
    pub min_workers: usize,
    /// Reports required when a step deadline fires: with at least this
    /// many the round advances and the rest are dropped (zeroed);
    /// below it the run aborts. The engine sets this to the same `n − f`
    /// budget the GARs defend.
    pub quorum: usize,
    /// Total training steps.
    pub steps: u32,
    /// Deadline for the join phase, ms after machine start.
    pub join_deadline_ms: u64,
    /// Deadline for the warmup phase, ms after warmup start.
    pub warmup_deadline_ms: u64,
    /// Per-step deadline, ms after the step broadcast.
    pub step_deadline_ms: u64,
    /// Bounded-staleness window `k`: during `Train { step }` a gradient
    /// tagged for step `step − j` is admitted when `j ≤ k`. 0 (the
    /// strict default) admits the in-flight step only.
    pub staleness_window: u32,
}

/// The coordinator's explicit round state machine. See the module docs
/// for the phase diagram and driving contract.
#[derive(Debug)]
pub struct RoundStateMachine {
    cfg: MachineConfig,
    phase: Phase,
    /// Virtual time the current phase started.
    phase_start_ms: u64,
    joined: Vec<bool>,
    n_joined: usize,
    ready: Vec<bool>,
    n_ready: usize,
    reported: Vec<bool>,
    n_reported: usize,
    /// Workers whose report for the in-flight step was refused
    /// ([`Event::Rejected`]), and the last cause; reset at every
    /// broadcast.
    refused: Vec<bool>,
    last_refusal: Option<MessageError>,
    /// Joined workers whose connection is currently gone. They still
    /// count as joined (their rounds are zeroed, preserving the
    /// straggler accounting) but are excluded from the
    /// everyone-answered early-advance condition.
    detached: Vec<bool>,
    n_detached: usize,
    /// Stragglers of the most recent [`Action::Aggregate`] (recycled).
    dropped: Vec<u32>,
    /// Per-worker staleness age (rounds late) of the in-flight round's
    /// admitted reports; reset to 0 at every broadcast. All-zero under
    /// `staleness_window = 0`.
    ages: Vec<u32>,
    /// The run's churn ledger; `drive` moves it into the server core.
    pub(crate) churn: ChurnStats,
    abort_reason: Option<String>,
}

impl RoundStateMachine {
    /// Creates the machine in `WaitingForWorkers`, with the join deadline
    /// measured from `now_ms`.
    ///
    /// # Panics
    ///
    /// Panics if `min_workers` or `quorum` exceeds `n_workers`, or
    /// `steps == 0` — driver bugs, not run-time conditions (the engine
    /// validates user-supplied values into [`PipelineError::Spec`]
    /// upstream).
    ///
    /// [`PipelineError::Spec`]: dpbyz_core::pipeline::PipelineError::Spec
    pub fn new(cfg: MachineConfig, now_ms: u64) -> Self {
        assert!(cfg.min_workers <= cfg.n_workers, "min_workers > n_workers");
        assert!(cfg.quorum <= cfg.n_workers, "quorum > n_workers");
        assert!(cfg.steps > 0, "steps == 0");
        RoundStateMachine {
            phase: Phase::WaitingForWorkers,
            phase_start_ms: now_ms,
            joined: vec![false; cfg.n_workers],
            n_joined: 0,
            ready: vec![false; cfg.n_workers],
            n_ready: 0,
            reported: vec![false; cfg.n_workers],
            n_reported: 0,
            refused: vec![false; cfg.n_workers],
            last_refusal: None,
            detached: vec![false; cfg.n_workers],
            n_detached: 0,
            dropped: Vec::with_capacity(cfg.n_workers),
            ages: vec![0; cfg.n_workers],
            churn: ChurnStats {
                dropped_rounds: vec![0; cfg.n_workers],
                stale_rejected: vec![0; cfg.n_workers],
                late_admits: vec![0; cfg.n_workers],
                ..ChurnStats::default()
            },
            abort_reason: None,
            cfg,
        }
    }

    /// Current phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Workers dropped (to be zeroed) by the most recent
    /// [`Action::Aggregate`], ascending by id.
    pub fn dropped(&self) -> &[u32] {
        &self.dropped
    }

    /// Why the machine aborted, once it has.
    pub fn abort_reason(&self) -> Option<&str> {
        self.abort_reason.as_deref()
    }

    /// Whether worker `id` has joined.
    pub fn is_joined(&self, id: u32) -> bool {
        self.joined.get(id as usize).copied().unwrap_or(false)
    }

    /// Whether worker `id` is currently detached (joined, connection
    /// gone, no [`Event::Reattached`] yet).
    pub fn is_detached(&self, id: u32) -> bool {
        self.detached.get(id as usize).copied().unwrap_or(false)
    }

    /// Workers that have joined.
    pub fn n_joined(&self) -> usize {
        self.n_joined
    }

    /// Workers that answered `WARMUP` with `READY`.
    pub fn n_ready(&self) -> usize {
        self.n_ready
    }

    /// Unique reporters of the in-flight step (resets at every
    /// broadcast).
    pub fn n_reported(&self) -> usize {
        self.n_reported
    }

    /// Joined workers currently detached.
    pub fn n_detached(&self) -> usize {
        self.n_detached
    }

    /// Per-worker staleness age (rounds late) of the in-flight round's
    /// admitted reports — what the driver feeds the server's `λ^j`
    /// damping at [`Action::Aggregate`]. All-zero when
    /// [`MachineConfig::staleness_window`] is 0.
    pub fn ages(&self) -> &[u32] {
        &self.ages
    }

    /// The churn ledger so far: detach, reattach and fresh-join totals,
    /// and per-worker dropped rounds, stale rejections (fed in by
    /// transports via [`Event::StaleGradient`]) and late admits.
    pub fn churn(&self) -> &ChurnStats {
        &self.churn
    }

    /// When the current phase's deadline fires, in virtual ms — the
    /// latest `now_ms` a driver may sleep to without delaying a
    /// [`tick`](RoundStateMachine::tick) decision. `None` once the run
    /// is `Done`/`Aborted` (no timer armed).
    pub fn next_deadline_ms(&self) -> Option<u64> {
        let deadline = match self.phase {
            Phase::WaitingForWorkers => self.cfg.join_deadline_ms,
            Phase::Warmup => self.cfg.warmup_deadline_ms,
            Phase::Train { .. } | Phase::Aggregate { .. } => self.cfg.step_deadline_ms,
            Phase::Done | Phase::Aborted => return None,
        };
        Some(self.phase_start_ms.saturating_add(deadline))
    }

    /// Attached joined workers that have neither reported the in-flight
    /// step nor had their report refused: the set opportunistic
    /// advancement waits on.
    fn train_pending(&self) -> usize {
        (0..self.cfg.n_workers)
            .filter(|&i| {
                self.joined[i] && !self.detached[i] && !self.reported[i] && !self.refused[i]
            })
            .count()
    }

    /// The in-flight round cannot reach `quorum`: every joined worker has
    /// reported or had its report refused, and the reports fall short.
    fn quorum_out_of_reach(&self) -> bool {
        self.n_reported < self.cfg.quorum.max(1)
            && (0..self.cfg.n_workers)
                .all(|i| !self.joined[i] || self.reported[i] || self.refused[i])
    }

    /// Attached joined workers that have not sent `READY`.
    fn warmup_pending(&self) -> usize {
        (0..self.cfg.n_workers)
            .filter(|&i| self.joined[i] && !self.detached[i] && !self.ready[i])
            .count()
    }

    /// Feeds a decoded transport message. Appends any resulting
    /// [`Action`]s to `out` (which the driver drains; the machine never
    /// clears it).
    pub fn on_event(&mut self, event: Event, now_ms: u64, out: &mut Vec<Action>) {
        match (self.phase, event) {
            (Phase::WaitingForWorkers, Event::Joined(id)) => {
                let slot = id as usize;
                if slot >= self.cfg.n_workers {
                    return; // out-of-range: idempotent
                }
                if self.joined[slot] {
                    // A duplicate JOIN on a fresh connection proves the
                    // link is alive again — clear any detach marker.
                    if self.detached[slot] {
                        self.detached[slot] = false;
                        self.n_detached -= 1;
                    }
                    return;
                }
                self.joined[slot] = true;
                self.n_joined += 1;
                if self.n_joined == self.cfg.n_workers {
                    self.start_warmup(now_ms, out);
                }
            }
            (Phase::Warmup, Event::Ready(id)) => {
                let slot = id as usize;
                if slot >= self.cfg.n_workers || !self.joined[slot] || self.ready[slot] {
                    return;
                }
                self.ready[slot] = true;
                self.n_ready += 1;
                self.try_advance_warmup(now_ms, out);
            }
            (Phase::Train { step }, Event::Gradient { id, step: s }) => {
                let slot = id as usize;
                if slot >= self.cfg.n_workers || !self.joined[slot] {
                    return; // bogus report: ignore
                }
                // Bounded staleness: a report for step `step − j` is
                // admissible when `j ≤ k`. Future steps and beyond-window
                // reports are ignored (transports count the latter via
                // `StaleGradient`); `k = 0` is exactly `s != step`.
                if s > step || step - s > self.cfg.staleness_window {
                    return;
                }
                if self.reported[slot] {
                    return;
                }
                self.reported[slot] = true;
                self.n_reported += 1;
                self.ages[slot] = step - s;
                if s < step {
                    self.churn.late_admits[slot] += 1;
                }
                self.try_advance_train(step, now_ms, out);
            }
            (Phase::Train { step }, Event::Rejected { id, why }) => {
                let slot = id as usize;
                if slot >= self.cfg.n_workers || !self.joined[slot] || self.reported[slot] {
                    return;
                }
                self.refused[slot] = true;
                self.last_refusal = Some(why);
                self.try_advance_train(step, now_ms, out);
                if self.phase == (Phase::Train { step }) && self.quorum_out_of_reach() {
                    self.abort_below_quorum(step, "with no report left to wait for", out);
                }
            }
            (Phase::Done | Phase::Aborted, _) => {}
            (_, Event::StaleGradient(id)) => {
                let slot = id as usize;
                if slot < self.cfg.n_workers {
                    self.churn.stale_rejected[slot] += 1;
                }
            }
            (
                Phase::Warmup | Phase::Train { .. } | Phase::Aggregate { .. },
                Event::JoinedFresh(id),
            ) => {
                let slot = id as usize;
                if slot >= self.cfg.n_workers || self.joined[slot] {
                    return; // out of range, or not actually fresh
                }
                self.joined[slot] = true;
                self.n_joined += 1;
                // Warmup already happened without this worker: it arrives
                // ready (the transport replayed the ring tail, so it holds
                // the current parameters) and gates advancement from the
                // current round on.
                self.ready[slot] = true;
                self.n_ready += 1;
                self.churn.joined_fresh += 1;
            }
            (_, Event::Detached(id)) => {
                let slot = id as usize;
                if slot >= self.cfg.n_workers || !self.joined[slot] || self.detached[slot] {
                    return;
                }
                self.detached[slot] = true;
                self.n_detached += 1;
                self.churn.detached += 1;
                // Losing a peer can complete the attached set: the round
                // it was blocking advances now instead of at the
                // deadline (the zeroing outcome is identical either way).
                match self.phase {
                    Phase::Warmup => self.try_advance_warmup(now_ms, out),
                    Phase::Train { step } => self.try_advance_train(step, now_ms, out),
                    _ => {}
                }
            }
            (_, Event::Reattached(id)) => {
                let slot = id as usize;
                if slot >= self.cfg.n_workers || !self.joined[slot] || !self.detached[slot] {
                    return;
                }
                self.detached[slot] = false;
                self.n_detached -= 1;
                self.churn.reattached += 1;
            }
            // Anything else (late gradients during Aggregate, READY after
            // warmup, JOIN after the gate closed, …) is dropped: the
            // machine advances on its own schedule.
            _ => {}
        }
    }

    /// Opportunistic warmup exit: every attached joined worker is ready
    /// and the floor holds. With nothing detached this is exactly the
    /// old "all joined are ready" condition.
    fn try_advance_warmup(&mut self, now_ms: u64, out: &mut Vec<Action>) {
        if self.warmup_pending() == 0 && self.n_ready >= self.cfg.min_workers && self.n_ready > 0 {
            self.start_step(1, now_ms, out);
        }
    }

    /// Opportunistic round exit: every attached joined worker reported
    /// and the quorum floor holds — advancement *never* happens below
    /// `quorum`, before or at a deadline (the model-based suite pins
    /// this invariant).
    fn try_advance_train(&mut self, step: u32, now_ms: u64, out: &mut Vec<Action>) {
        if self.train_pending() == 0 && self.n_reported >= self.cfg.quorum && self.n_reported > 0 {
            self.start_aggregate(step, now_ms, out);
        }
    }

    /// Advances virtual time: fires phase deadlines. Call at every driver
    /// iteration; cheap when nothing expires.
    pub fn tick(&mut self, now_ms: u64, out: &mut Vec<Action>) {
        match self.phase {
            Phase::WaitingForWorkers => {
                if now_ms.saturating_sub(self.phase_start_ms) >= self.cfg.join_deadline_ms {
                    if self.n_joined >= self.cfg.min_workers && self.n_joined > 0 {
                        self.start_warmup(now_ms, out);
                    } else {
                        self.abort(
                            format!(
                                "below min_workers at join deadline: {} of {} joined, need {}",
                                self.n_joined, self.cfg.n_workers, self.cfg.min_workers
                            ),
                            out,
                        );
                    }
                }
            }
            Phase::Warmup => {
                if now_ms.saturating_sub(self.phase_start_ms) >= self.cfg.warmup_deadline_ms {
                    if self.n_ready >= self.cfg.min_workers && self.n_ready > 0 {
                        // Non-ready workers stay joined; they become
                        // stragglers of every round they miss.
                        self.start_step(1, now_ms, out);
                    } else {
                        self.abort(
                            format!(
                                "below min_workers at warmup deadline: {} of {} ready, need {}",
                                self.n_ready, self.n_joined, self.cfg.min_workers
                            ),
                            out,
                        );
                    }
                }
            }
            Phase::Train { step } => {
                if now_ms.saturating_sub(self.phase_start_ms) >= self.cfg.step_deadline_ms {
                    if self.n_reported >= self.cfg.quorum && self.n_reported > 0 {
                        self.start_aggregate(step, now_ms, out);
                    } else {
                        self.abort_below_quorum(step, "deadline", out);
                    }
                }
            }
            Phase::Aggregate { .. } | Phase::Done | Phase::Aborted => {}
        }
    }

    /// Confirms the driver finished the [`Action::Aggregate`] round:
    /// moves to the next step's broadcast, or to `Done` after the last.
    pub fn on_aggregated(&mut self, now_ms: u64, out: &mut Vec<Action>) {
        let Phase::Aggregate { step } = self.phase else {
            return;
        };
        if step == self.cfg.steps {
            self.phase = Phase::Done;
            out.push(Action::Finish);
        } else {
            self.start_step(step + 1, now_ms, out);
        }
    }

    fn start_warmup(&mut self, now_ms: u64, out: &mut Vec<Action>) {
        self.phase = Phase::Warmup;
        self.phase_start_ms = now_ms;
        out.push(Action::StartWarmup);
    }

    fn start_step(&mut self, step: u32, now_ms: u64, out: &mut Vec<Action>) {
        self.phase = Phase::Train { step };
        self.phase_start_ms = now_ms;
        self.reported.iter_mut().for_each(|r| *r = false);
        self.refused.iter_mut().for_each(|r| *r = false);
        self.last_refusal = None;
        self.n_reported = 0;
        self.ages.iter_mut().for_each(|a| *a = 0);
        out.push(Action::BroadcastStep(step));
    }

    fn start_aggregate(&mut self, step: u32, now_ms: u64, out: &mut Vec<Action>) {
        self.phase = Phase::Aggregate { step };
        self.phase_start_ms = now_ms;
        self.dropped.clear();
        for id in 0..self.cfg.n_workers {
            if self.joined[id] && !self.reported[id] {
                self.dropped.push(id as u32);
                self.churn.dropped_rounds[id] += 1;
            }
        }
        out.push(Action::Aggregate(step));
    }

    fn abort_below_quorum(&mut self, step: u32, when: &str, out: &mut Vec<Action>) {
        let mut reason = format!(
            "below quorum at step {step} {when}: {} of {} reported, need {}",
            self.n_reported, self.n_joined, self.cfg.quorum
        );
        if let Some(why) = self.last_refusal {
            let count = self.refused.iter().filter(|&&r| r).count();
            reason = format!("{reason}; {count} reports rejected: gradient frame: {why}");
        }
        self.abort(reason, out);
    }

    fn abort(&mut self, reason: String, out: &mut Vec<Action>) {
        self.phase = Phase::Aborted;
        self.abort_reason = Some(reason);
        out.push(Action::Abort);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(n: usize, min: usize, quorum: usize, steps: u32) -> MachineConfig {
        MachineConfig {
            n_workers: n,
            min_workers: min,
            quorum,
            steps,
            join_deadline_ms: 100,
            warmup_deadline_ms: 100,
            step_deadline_ms: 100,
            staleness_window: 0,
        }
    }

    /// A deterministic in-memory transport double: a script of
    /// `(virtual_time_ms, event)` pairs played into the machine in time
    /// order, ticking at every millisecond in between — exactly what the
    /// socket loop does, minus the sockets. Returns every action with the
    /// virtual time it fired, auto-confirming aggregations the way the
    /// coordinator does after running the server round.
    struct ScriptedTransport {
        script: Vec<(u64, Event)>,
    }

    impl ScriptedTransport {
        fn new(mut script: Vec<(u64, Event)>) -> Self {
            script.sort_by_key(|&(t, _)| t);
            ScriptedTransport { script }
        }

        fn drive(&self, machine: &mut RoundStateMachine, until_ms: u64) -> Vec<(u64, Action)> {
            let mut fired = Vec::new();
            let mut out = Vec::new();
            let mut next = 0;
            for now in 0..=until_ms {
                while next < self.script.len() && self.script[next].0 <= now {
                    machine.on_event(self.script[next].1, now, &mut out);
                    next += 1;
                }
                machine.tick(now, &mut out);
                // Drain with index (not iterator): `on_aggregated` may
                // append while we walk — same loop shape the real
                // coordinator uses.
                let mut i = 0;
                while i < out.len() {
                    let action = out[i];
                    fired.push((now, action));
                    if let Action::Aggregate(_) = action {
                        machine.on_aggregated(now, &mut out);
                    }
                    i += 1;
                }
                out.clear();
                if matches!(machine.phase(), Phase::Done | Phase::Aborted) {
                    break;
                }
            }
            fired
        }
    }

    fn actions(fired: &[(u64, Action)]) -> Vec<Action> {
        fired.iter().map(|&(_, a)| a).collect()
    }

    #[test]
    fn clean_run_walks_every_phase_to_done() {
        // 4 workers, 2 steps, everyone punctual: the full
        // WaitingForWorkers → Warmup → Train → Aggregate → … → Done walk.
        let mut m = RoundStateMachine::new(cfg(4, 4, 3, 2), 0);
        assert_eq!(m.phase(), Phase::WaitingForWorkers);
        let script: Vec<(u64, Event)> = (0..4)
            .map(|i| (1 + i as u64, Event::Joined(i)))
            .chain((0..4).map(|i| (10 + i as u64, Event::Ready(i))))
            .chain((0..4).map(|i| (20 + i as u64, Event::Gradient { id: i, step: 1 })))
            .chain((0..4).map(|i| (30 + i as u64, Event::Gradient { id: i, step: 2 })))
            .collect();
        let fired = ScriptedTransport::new(script).drive(&mut m, 1000);
        assert_eq!(
            actions(&fired),
            vec![
                Action::StartWarmup,
                Action::BroadcastStep(1),
                Action::Aggregate(1),
                Action::BroadcastStep(2),
                Action::Aggregate(2),
                Action::Finish,
            ]
        );
        assert_eq!(m.phase(), Phase::Done);
        assert!(m.dropped().is_empty());
        // Everything advanced opportunistically, well before deadlines.
        assert!(fired.last().unwrap().0 < 40);
    }

    #[test]
    fn straggler_is_dropped_at_step_deadline_and_round_advances() {
        // Worker 3 reports step 1 late (after the deadline) and step 2
        // never: both rounds advance on quorum 3, dropping it.
        let mut m = RoundStateMachine::new(cfg(4, 4, 3, 2), 0);
        let script: Vec<(u64, Event)> = (0..4)
            .map(|i| (1 + i as u64, Event::Joined(i)))
            .chain((0..4).map(|i| (10 + i as u64, Event::Ready(i))))
            .chain((0..3).map(|i| (20 + i as u64, Event::Gradient { id: i, step: 1 })))
            // Stale report for step 1 arriving mid-step-2: ignored.
            .chain([(120, Event::Gradient { id: 3, step: 1 })])
            .chain((0..3).map(|i| (125 + i as u64, Event::Gradient { id: i, step: 2 })))
            .collect();
        let fired = ScriptedTransport::new(script).drive(&mut m, 2000);
        // Step 1 aggregated at its deadline (phase started at t=13 when
        // the last READY landed; deadline 100 ms later).
        let agg1 = fired
            .iter()
            .find(|(_, a)| *a == Action::Aggregate(1))
            .expect("step 1 aggregated");
        assert_eq!(agg1.0, 113);
        // Step 2 also advances at its deadline with worker 3 dropped.
        assert!(actions(&fired).contains(&Action::Aggregate(2)));
        assert_eq!(m.dropped(), &[3]);
        assert_eq!(m.phase(), Phase::Done);
    }

    #[test]
    fn below_min_workers_aborts_at_join_deadline() {
        let mut m = RoundStateMachine::new(cfg(4, 3, 3, 2), 0);
        // Only one worker ever joins.
        let fired = ScriptedTransport::new(vec![(5, Event::Joined(0))]).drive(&mut m, 1000);
        assert_eq!(actions(&fired), vec![Action::Abort]);
        assert_eq!(fired[0].0, 100, "abort fires exactly at the deadline");
        assert_eq!(m.phase(), Phase::Aborted);
        let reason = m.abort_reason().unwrap();
        assert!(reason.contains("min_workers"), "{reason}");
        assert!(reason.contains("1 of 4"), "{reason}");
    }

    #[test]
    fn join_deadline_with_quorum_starts_short_handed() {
        // 3 of 4 join; min_workers 3 lets the run proceed without the
        // fourth, which is then dropped from every round.
        let mut m = RoundStateMachine::new(cfg(4, 3, 3, 1), 0);
        let script: Vec<(u64, Event)> = (0..3)
            .map(|i| (1 + i as u64, Event::Joined(i)))
            .chain((0..3).map(|i| (110 + i as u64, Event::Ready(i))))
            .chain((0..3).map(|i| (120 + i as u64, Event::Gradient { id: i, step: 1 })))
            .collect();
        let fired = ScriptedTransport::new(script).drive(&mut m, 2000);
        assert_eq!(
            actions(&fired),
            vec![
                Action::StartWarmup,
                Action::BroadcastStep(1),
                Action::Aggregate(1),
                Action::Finish,
            ]
        );
        // Warmup only began at the join deadline (not everyone was there).
        assert_eq!(fired[0].0, 100);
        // The never-joined worker is not in dropped (it has no slot to
        // zero: the engine sizes outputs by joined workers' reports, and
        // a never-joined worker's output slot was never dirtied) —
        // dropped lists *joined* non-reporters only.
        assert!(m.dropped().is_empty());
        assert_eq!(m.phase(), Phase::Done);
    }

    #[test]
    fn below_quorum_at_step_deadline_aborts() {
        let mut m = RoundStateMachine::new(cfg(4, 4, 3, 2), 0);
        let script: Vec<(u64, Event)> = (0..4)
            .map(|i| (1 + i as u64, Event::Joined(i)))
            .chain((0..4).map(|i| (10 + i as u64, Event::Ready(i))))
            // Only 2 of 4 report step 1 — below quorum 3.
            .chain((0..2).map(|i| (20 + i as u64, Event::Gradient { id: i, step: 1 })))
            .collect();
        let fired = ScriptedTransport::new(script).drive(&mut m, 2000);
        assert_eq!(*actions(&fired).last().unwrap(), Action::Abort);
        assert_eq!(m.phase(), Phase::Aborted);
        let reason = m.abort_reason().unwrap();
        assert!(reason.contains("quorum"), "{reason}");
        assert!(reason.contains("step 1"), "{reason}");
    }

    #[test]
    fn warmup_timeout_aborts_below_min_ready() {
        let mut m = RoundStateMachine::new(cfg(3, 2, 2, 1), 0);
        let script: Vec<(u64, Event)> = (0..3)
            .map(|i| (1 + i as u64, Event::Joined(i)))
            .chain([(10, Event::Ready(0))]) // only one ever readies
            .collect();
        let fired = ScriptedTransport::new(script).drive(&mut m, 2000);
        assert_eq!(*actions(&fired).last().unwrap(), Action::Abort);
        assert!(
            m.abort_reason().unwrap().contains("warmup"),
            "{:?}",
            m.abort_reason()
        );
    }

    #[test]
    fn duplicate_and_bogus_events_are_idempotent() {
        let mut m = RoundStateMachine::new(cfg(2, 2, 2, 1), 0);
        let mut out = Vec::new();
        m.on_event(Event::Joined(0), 1, &mut out);
        m.on_event(Event::Joined(0), 2, &mut out); // duplicate
        m.on_event(Event::Joined(7), 3, &mut out); // out of range
        assert!(out.is_empty());
        assert_eq!(m.phase(), Phase::WaitingForWorkers);
        m.on_event(Event::Joined(1), 4, &mut out);
        assert_eq!(out, vec![Action::StartWarmup]);
        out.clear();
        // Gradient reports during warmup are ignored.
        m.on_event(Event::Gradient { id: 0, step: 1 }, 5, &mut out);
        assert!(out.is_empty());
        m.on_event(Event::Ready(0), 6, &mut out);
        m.on_event(Event::Ready(0), 7, &mut out); // duplicate ready
        assert!(out.is_empty());
        m.on_event(Event::Ready(1), 8, &mut out);
        assert_eq!(out, vec![Action::BroadcastStep(1)]);
    }

    #[test]
    fn dropped_list_recycles_between_rounds() {
        // Worker 1 misses step 1 but reports step 2; worker 2 does the
        // opposite — `dropped()` must describe only the *latest* round.
        let mut m = RoundStateMachine::new(cfg(3, 3, 1, 2), 0);
        let script: Vec<(u64, Event)> = (0..3)
            .map(|i| (1 + i as u64, Event::Joined(i)))
            .chain((0..3).map(|i| (5 + i as u64, Event::Ready(i))))
            .chain([
                (10, Event::Gradient { id: 0, step: 1 }),
                (11, Event::Gradient { id: 2, step: 1 }),
                // step 2 begins at the step-1 deadline (t = 107)
                (120, Event::Gradient { id: 0, step: 2 }),
                (121, Event::Gradient { id: 1, step: 2 }),
            ])
            .collect();
        let fired = ScriptedTransport::new(script).drive(&mut m, 2000);
        assert!(actions(&fired).contains(&Action::Finish));
        assert_eq!(m.dropped(), &[2], "latest round dropped worker 2 only");
    }

    #[test]
    fn detach_completes_the_round_without_waiting_for_the_deadline() {
        // 3 of 4 report, then the fourth's socket dies: the round must
        // advance at the detach (t = 25), not at the deadline (t ≥ 100),
        // with the dead worker dropped exactly as a straggler would be.
        let mut m = RoundStateMachine::new(cfg(4, 4, 3, 1), 0);
        let script: Vec<(u64, Event)> = (0..4)
            .map(|i| (1 + i as u64, Event::Joined(i)))
            .chain((0..4).map(|i| (10 + i as u64, Event::Ready(i))))
            .chain((0..3).map(|i| (20 + i as u64, Event::Gradient { id: i, step: 1 })))
            .chain([(25, Event::Detached(3))])
            .collect();
        let fired = ScriptedTransport::new(script).drive(&mut m, 2000);
        let agg = fired
            .iter()
            .find(|(_, a)| *a == Action::Aggregate(1))
            .expect("round aggregated");
        assert_eq!(agg.0, 25, "advanced at the detach, not the deadline");
        assert_eq!(m.dropped(), &[3]);
        assert_eq!(m.phase(), Phase::Done);
    }

    #[test]
    fn reattached_worker_gates_advancement_again() {
        // Worker 3 detaches during step 1 (round advances without it),
        // reattaches during step 2, and reports: step 2 must wait for it
        // and drop nobody.
        let mut m = RoundStateMachine::new(cfg(4, 4, 3, 2), 0);
        let script: Vec<(u64, Event)> = (0..4)
            .map(|i| (1 + i as u64, Event::Joined(i)))
            .chain((0..4).map(|i| (10 + i as u64, Event::Ready(i))))
            .chain([(15, Event::Detached(3))])
            .chain((0..3).map(|i| (20 + i as u64, Event::Gradient { id: i, step: 1 })))
            .chain([(30, Event::Reattached(3))])
            .chain((0..3).map(|i| (35 + i as u64, Event::Gradient { id: i, step: 2 })))
            .chain([(60, Event::Gradient { id: 3, step: 2 })])
            .collect();
        let fired = ScriptedTransport::new(script).drive(&mut m, 2000);
        let agg2 = fired
            .iter()
            .find(|(_, a)| *a == Action::Aggregate(2))
            .expect("step 2 aggregated");
        assert_eq!(
            agg2.0, 60,
            "step 2 waited for the reattached worker's report"
        );
        assert!(m.dropped().is_empty());
        assert_eq!(m.phase(), Phase::Done);
    }

    fn rejected(id: u32) -> Event {
        let why = MessageError::NonFinite { index: 0 };
        Event::Rejected { id, why }
    }

    #[test]
    fn rejected_reports_end_the_wait_and_an_unreachable_quorum_aborts_at_once() {
        // Worker 3's report is refused: the round advances once 0..=2
        // reported (t = 22), not at the deadline, dropping worker 3.
        let mut m = RoundStateMachine::new(cfg(4, 4, 3, 2), 0);
        let script: Vec<(u64, Event)> = (0..4)
            .map(|i| (1 + i as u64, Event::Joined(i)))
            .chain((0..4).map(|i| (10 + i as u64, Event::Ready(i))))
            .chain([(15, rejected(3))])
            .chain((0..3).map(|i| (20 + i as u64, Event::Gradient { id: i, step: 1 })))
            // Step 2: two reports refused, one more can still come…
            .chain([(30, rejected(0)), (31, rejected(1))])
            .chain([(32, Event::Gradient { id: 2, step: 2 })])
            // …and once the last joined worker is refused too, quorum 3
            // is out of reach.
            .chain([(40, rejected(3))])
            .collect();
        let fired = ScriptedTransport::new(script).drive(&mut m, 2000);
        assert_eq!(
            fired,
            vec![
                (4, Action::StartWarmup),
                (13, Action::BroadcastStep(1)),
                (22, Action::Aggregate(1)),
                (22, Action::BroadcastStep(2)),
                (40, Action::Abort),
            ]
        );
        assert_eq!(m.churn().dropped_rounds, [0, 0, 0, 1]);
        let reason = m.abort_reason().unwrap();
        assert_eq!(
            reason,
            "below quorum at step 2 with no report left to wait for: 1 of 4 reported, need 3; \
             3 reports rejected: gradient frame: coordinate 0 is not finite"
        );
    }

    #[test]
    fn a_detached_worker_that_may_still_report_keeps_the_round_open() {
        // Every attached worker is refused, but worker 1 is detached, not
        // refused: it may rejoin and report, so only the deadline aborts.
        let mut m = RoundStateMachine::new(cfg(2, 2, 1, 1), 0);
        let mut out = Vec::new();
        for i in 0..2 {
            m.on_event(Event::Joined(i), 1, &mut out);
        }
        for i in 0..2 {
            m.on_event(Event::Ready(i), 2, &mut out);
        }
        out.clear();
        m.on_event(Event::Detached(1), 3, &mut out);
        m.on_event(rejected(0), 4, &mut out);
        assert!(out.is_empty(), "{out:?}");
        m.on_event(Event::Reattached(1), 5, &mut out);
        m.on_event(Event::Gradient { id: 1, step: 1 }, 6, &mut out);
        assert_eq!(out, vec![Action::Aggregate(1)]);
        assert_eq!(m.dropped(), &[0]);
    }

    #[test]
    fn advancement_never_happens_below_quorum() {
        // Only 2 of 4 join (min_workers 2 lets the run start) but quorum
        // is 3: even with every joined worker reported, the round must
        // NOT advance — it aborts at the step deadline instead.
        let mut m = RoundStateMachine::new(cfg(4, 2, 3, 1), 0);
        let script: Vec<(u64, Event)> = (0..2)
            .map(|i| (1 + i as u64, Event::Joined(i)))
            .chain((0..2).map(|i| (110 + i as u64, Event::Ready(i))))
            .chain((0..2).map(|i| (215 + i as u64, Event::Gradient { id: i, step: 1 })))
            .collect();
        let fired = ScriptedTransport::new(script).drive(&mut m, 2000);
        assert_eq!(*actions(&fired).last().unwrap(), Action::Abort);
        let reason = m.abort_reason().unwrap();
        assert!(reason.contains("quorum"), "{reason}");
    }

    #[test]
    fn duplicate_join_on_a_fresh_connection_clears_the_detach_marker() {
        let mut m = RoundStateMachine::new(cfg(2, 2, 2, 1), 0);
        let mut out = Vec::new();
        m.on_event(Event::Joined(0), 1, &mut out);
        m.on_event(Event::Detached(0), 2, &mut out);
        assert!(m.is_detached(0));
        assert_eq!(m.n_detached(), 1);
        m.on_event(Event::Joined(0), 3, &mut out); // rejoined pre-warmup
        assert!(!m.is_detached(0));
        assert_eq!(m.n_detached(), 0);
        assert!(out.is_empty());
    }

    #[test]
    fn detach_and_reattach_are_idempotent_and_range_checked() {
        let mut m = RoundStateMachine::new(cfg(2, 2, 2, 1), 0);
        let mut out = Vec::new();
        m.on_event(Event::Detached(0), 1, &mut out); // not joined yet
        assert_eq!(m.n_detached(), 0);
        m.on_event(Event::Reattached(0), 1, &mut out); // not detached
        m.on_event(Event::Detached(9), 1, &mut out); // out of range
        m.on_event(Event::Joined(0), 2, &mut out);
        m.on_event(Event::Detached(0), 3, &mut out);
        m.on_event(Event::Detached(0), 4, &mut out); // duplicate
        assert_eq!(m.n_detached(), 1);
        m.on_event(Event::Reattached(0), 5, &mut out);
        m.on_event(Event::Reattached(0), 6, &mut out); // duplicate
        assert_eq!(m.n_detached(), 0);
    }

    #[test]
    fn staleness_window_admits_in_window_reports_with_age() {
        // k = 1: a step-1 report arriving during step 2 is admitted at
        // age 1 instead of ignored; a step-1 report during step 3 is not.
        let mut c = cfg(3, 3, 2, 3);
        c.staleness_window = 1;
        let mut m = RoundStateMachine::new(c, 0);
        let mut out = Vec::new();
        for i in 0..3 {
            m.on_event(Event::Joined(i), 1, &mut out);
        }
        for i in 0..3 {
            m.on_event(Event::Ready(i), 2, &mut out);
        }
        out.clear();
        // Step 1: workers 0 and 1 report; worker 2 straggles past the
        // deadline, so the round advances on quorum 2 dropping it.
        m.on_event(Event::Gradient { id: 0, step: 1 }, 10, &mut out);
        m.on_event(Event::Gradient { id: 1, step: 1 }, 11, &mut out);
        m.tick(102, &mut out);
        assert!(out.contains(&Action::Aggregate(1)));
        assert_eq!(m.dropped(), &[2]);
        assert_eq!(m.ages(), &[0, 0, 0]);
        out.clear();
        m.on_aggregated(103, &mut out);
        assert_eq!(out, vec![Action::BroadcastStep(2)]);
        out.clear();
        // Step 2: worker 2's step-1 gradient finally lands — admitted at
        // age 1 and it satisfies worker 2's step-2 report slot.
        m.on_event(Event::Gradient { id: 2, step: 1 }, 110, &mut out);
        assert_eq!(m.n_reported(), 1);
        assert_eq!(m.ages(), &[0, 0, 1]);
        m.on_event(Event::Gradient { id: 0, step: 2 }, 111, &mut out);
        m.on_event(Event::Gradient { id: 1, step: 2 }, 112, &mut out);
        assert!(out.contains(&Action::Aggregate(2)));
        assert!(m.dropped().is_empty());
        out.clear();
        m.on_aggregated(113, &mut out);
        out.clear();
        // Step 3: a step-1 report is now 2 rounds old — beyond k = 1.
        m.on_event(Event::Gradient { id: 2, step: 1 }, 120, &mut out);
        assert_eq!(m.n_reported(), 0);
        // Ages reset at the broadcast.
        assert_eq!(m.ages(), &[0, 0, 0]);
        assert_eq!(m.churn().late_admits, [0, 0, 1]);
        assert_eq!(m.churn().dropped_rounds, [0, 0, 1]);
    }

    #[test]
    fn zero_window_keeps_strict_semantics() {
        // k = 0 (the default cfg): an age-1 report is ignored exactly as
        // before the window existed.
        let mut m = RoundStateMachine::new(cfg(2, 2, 1, 2), 0);
        let mut out = Vec::new();
        for i in 0..2 {
            m.on_event(Event::Joined(i), 1, &mut out);
        }
        for i in 0..2 {
            m.on_event(Event::Ready(i), 2, &mut out);
        }
        out.clear();
        m.on_event(Event::Gradient { id: 0, step: 1 }, 10, &mut out);
        m.tick(102, &mut out);
        assert!(out.contains(&Action::Aggregate(1)));
        out.clear();
        m.on_aggregated(103, &mut out);
        out.clear();
        m.on_event(Event::Gradient { id: 1, step: 1 }, 110, &mut out);
        assert_eq!(m.n_reported(), 0, "k = 0 must reject an age-1 report");
    }

    #[test]
    fn joined_fresh_attaches_mid_run_and_gates_advancement() {
        // 2 of 3 slots start; worker 2 joins fresh during step 1 and must
        // be waited on (it reports before the round closes).
        let mut m = RoundStateMachine::new(cfg(3, 2, 2, 1), 0);
        let mut out = Vec::new();
        for i in 0..2 {
            m.on_event(Event::Joined(i), 1, &mut out);
        }
        m.tick(100, &mut out); // join deadline: start short-handed
        assert_eq!(out, vec![Action::StartWarmup]);
        out.clear();
        for i in 0..2 {
            m.on_event(Event::Ready(i), 101, &mut out);
        }
        assert_eq!(out, vec![Action::BroadcastStep(1)]);
        out.clear();
        m.on_event(Event::JoinedFresh(2), 105, &mut out);
        assert!(m.is_joined(2));
        assert_eq!(m.n_joined(), 3);
        assert_eq!(m.n_ready(), 3, "fresh joiner skips warmup");
        assert_eq!(m.churn().joined_fresh, 1);
        // Both original workers report: the round must still wait for the
        // fresh joiner (it is attached and unreported).
        m.on_event(Event::Gradient { id: 0, step: 1 }, 110, &mut out);
        m.on_event(Event::Gradient { id: 1, step: 1 }, 111, &mut out);
        assert!(out.is_empty(), "must wait for the fresh joiner");
        m.on_event(Event::Gradient { id: 2, step: 1 }, 112, &mut out);
        assert!(out.contains(&Action::Aggregate(1)));
        assert!(m.dropped().is_empty());
    }

    #[test]
    fn joined_fresh_is_idempotent_and_ignored_when_not_fresh() {
        let mut m = RoundStateMachine::new(cfg(2, 1, 1, 1), 0);
        let mut out = Vec::new();
        m.on_event(Event::Joined(0), 1, &mut out);
        m.tick(100, &mut out);
        out.clear();
        m.on_event(Event::JoinedFresh(0), 101, &mut out); // already joined
        m.on_event(Event::JoinedFresh(9), 102, &mut out); // out of range
        assert_eq!(m.n_joined(), 1);
        assert_eq!(m.churn().joined_fresh, 0);
        m.on_event(Event::JoinedFresh(1), 103, &mut out);
        m.on_event(Event::JoinedFresh(1), 104, &mut out); // duplicate
        assert_eq!(m.n_joined(), 2);
        assert_eq!(m.churn().joined_fresh, 1);
    }

    #[test]
    fn churn_totals_and_stale_counter_accumulate() {
        let mut m = RoundStateMachine::new(cfg(2, 2, 1, 1), 0);
        let mut out = Vec::new();
        m.on_event(Event::Joined(0), 1, &mut out);
        m.on_event(Event::Joined(1), 2, &mut out);
        m.on_event(Event::Detached(1), 3, &mut out);
        m.on_event(Event::Reattached(1), 4, &mut out);
        m.on_event(Event::Detached(1), 5, &mut out);
        assert_eq!(m.churn().detached, 2);
        assert_eq!(m.churn().reattached, 1);
        m.on_event(Event::StaleGradient(0), 6, &mut out);
        m.on_event(Event::StaleGradient(0), 7, &mut out);
        m.on_event(Event::StaleGradient(9), 8, &mut out); // out of range
        assert_eq!(m.churn().stale_rejected, [2, 0]);
    }

    #[test]
    fn next_deadline_tracks_the_phase_timers() {
        let mut m = RoundStateMachine::new(cfg(2, 2, 2, 1), 5);
        assert_eq!(m.next_deadline_ms(), Some(105)); // join deadline
        let mut out = Vec::new();
        m.on_event(Event::Joined(0), 6, &mut out);
        m.on_event(Event::Joined(1), 7, &mut out);
        assert_eq!(m.next_deadline_ms(), Some(107)); // warmup from t=7
        m.on_event(Event::Ready(0), 8, &mut out);
        m.on_event(Event::Ready(1), 9, &mut out);
        assert_eq!(m.next_deadline_ms(), Some(109)); // step 1 from t=9
        out.clear();
        m.on_event(Event::Gradient { id: 0, step: 1 }, 10, &mut out);
        m.on_event(Event::Gradient { id: 1, step: 1 }, 11, &mut out);
        assert_eq!(out, vec![Action::Aggregate(1)]);
        m.on_aggregated(12, &mut out);
        assert_eq!(m.phase(), Phase::Done);
        assert_eq!(m.next_deadline_ms(), None);
    }
}
