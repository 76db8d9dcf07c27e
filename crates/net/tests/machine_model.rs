//! Model-based property suite for the coordinator's round state machine.
//!
//! Each property drives [`RoundStateMachine`] with generated event
//! schedules (64 sampled cases per property) while an independent model
//! tracks what the protocol *specification* says — and asserts the
//! machine never strays:
//!
//! * a round **never** aggregates below `quorum`, deadline or not;
//! * a worker is **never** counted twice in one round;
//! * every accepted reporter **joined** first, and the accepted and
//!   dropped sets partition the joined set exactly;
//! * step broadcasts are strictly sequential, each step aggregates at
//!   most once, and `Finish` only follows the final step;
//! * runs short of `min_workers` abort at the join deadline.

use dpbyz_net::transport::current_step;
use dpbyz_net::{Action, Event, MachineConfig, Phase, RoundStateMachine};
use proptest::prelude::*;

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

/// The specification's view of one run, rebuilt from the same events the
/// machine saw. Deliberately a separate implementation: sets instead of
/// counters, no opportunistic-advance logic.
struct Model {
    n: usize,
    joined: Vec<bool>,
    /// Reporters accepted for the in-flight round (set semantics: a
    /// duplicate report cannot grow it).
    accepted: Vec<bool>,
    last_broadcast: u32,
    aggregated: Vec<u32>,
    finished: bool,
}

impl Model {
    fn new(n: usize) -> Self {
        Model {
            n,
            joined: vec![false; n],
            accepted: vec![false; n],
            last_broadcast: 0,
            aggregated: Vec::new(),
            finished: false,
        }
    }

    fn n_joined(&self) -> usize {
        self.joined.iter().filter(|&&j| j).count()
    }

    fn n_accepted(&self) -> usize {
        self.accepted.iter().filter(|&&a| a).count()
    }

    /// What the spec says an event does, given the phase the machine was
    /// in when it arrived.
    fn observe(&mut self, phase: Phase, event: Event) {
        match (phase, event) {
            (Phase::WaitingForWorkers, Event::Joined(id)) => {
                if let Some(slot) = self.joined.get_mut(id as usize) {
                    *slot = true;
                }
            }
            (Phase::Train { step }, Event::Gradient { id, step: s }) => {
                let joined = self.joined.get(id as usize).copied().unwrap_or(false);
                if s == step && joined {
                    if let Some(slot) = self.accepted.get_mut(id as usize) {
                        *slot = true;
                    }
                }
            }
            _ => {}
        }
    }
}

/// Feeds one event and processes the resulting actions, checking every
/// invariant the moment its action fires. Returns an error string on the
/// first violation (mapped to `prop_assert!` by the caller).
fn step_machine(
    machine: &mut RoundStateMachine,
    model: &mut Model,
    cfg: &MachineConfig,
    event: Option<Event>,
    now: u64,
    actions: &mut Vec<Action>,
) -> Result<(), String> {
    if let Some(event) = event {
        model.observe(machine.phase(), event);
        machine.on_event(event, now, actions);
    }
    machine.tick(now, actions);
    let mut i = 0;
    while let Some(&action) = actions.get(i) {
        match action {
            Action::StartWarmup => {
                if model.n_joined() < cfg.min_workers {
                    return Err(format!(
                        "warmup started with {} joined, min_workers {}",
                        model.n_joined(),
                        cfg.min_workers
                    ));
                }
            }
            Action::BroadcastStep(t) => {
                if t != model.last_broadcast + 1 {
                    return Err(format!(
                        "step {t} broadcast after step {}",
                        model.last_broadcast
                    ));
                }
                if t > cfg.steps {
                    return Err(format!("step {t} broadcast beyond steps {}", cfg.steps));
                }
                model.last_broadcast = t;
                model.accepted.iter_mut().for_each(|a| *a = false);
            }
            Action::Aggregate(t) => {
                if t != model.last_broadcast {
                    return Err(format!(
                        "aggregated step {t}, in-flight step {}",
                        model.last_broadcast
                    ));
                }
                if model.aggregated.contains(&t) {
                    return Err(format!("step {t} aggregated twice"));
                }
                let accepted = model.n_accepted();
                // THE invariant: advancement never below quorum.
                if accepted < cfg.quorum {
                    return Err(format!(
                        "step {t} aggregated with {accepted} reports, quorum {}",
                        cfg.quorum
                    ));
                }
                // No double counting: the machine's per-round counter
                // must equal the model's *set* cardinality.
                if machine.n_reported() != accepted {
                    return Err(format!(
                        "machine counted {} reporters, model set has {accepted}",
                        machine.n_reported()
                    ));
                }
                // accepted ⊆ joined, dropped ⊆ joined, disjoint, and
                // together they cover the joined set exactly.
                for id in 0..model.n as u32 {
                    let joined = model.joined[id as usize];
                    let accepted = model.accepted[id as usize];
                    let dropped = machine.dropped().contains(&id);
                    if accepted && !joined {
                        return Err(format!("worker {id} accepted without joining"));
                    }
                    if dropped && !joined {
                        return Err(format!("worker {id} dropped without joining"));
                    }
                    if accepted && dropped {
                        return Err(format!("worker {id} both accepted and dropped"));
                    }
                    if joined && !accepted && !dropped {
                        return Err(format!("joined worker {id} unaccounted at step {t}"));
                    }
                }
                model.aggregated.push(t);
                machine.on_aggregated(now, actions);
            }
            Action::Finish => {
                if model.last_broadcast != cfg.steps || model.aggregated.last() != Some(&cfg.steps)
                {
                    return Err(format!(
                        "finished after step {} of {}",
                        model.last_broadcast, cfg.steps
                    ));
                }
                model.finished = true;
            }
            Action::Abort => {
                if machine.abort_reason().is_none() {
                    return Err("aborted without a reason".into());
                }
            }
        }
        i += 1;
    }
    actions.clear();
    Ok(())
}

/// Runs the deadline clock forward until the machine settles in
/// `Done`/`Aborted`, with the invariant checks live at every tick.
fn flush(
    machine: &mut RoundStateMachine,
    model: &mut Model,
    cfg: &MachineConfig,
    mut now: u64,
    actions: &mut Vec<Action>,
) -> Result<(), String> {
    for _ in 0..1_000 {
        if matches!(machine.phase(), Phase::Done | Phase::Aborted) {
            return Ok(());
        }
        let Some(deadline) = machine.next_deadline_ms() else {
            return Ok(());
        };
        now = now.max(deadline).max(now + 1);
        step_machine(machine, model, cfg, None, now, actions)?;
    }
    Err("machine did not settle within 1000 deadline jumps".into())
}

proptest! {
    /// Chaotic event soup: joins, readies, current/stale/future
    /// gradients, detaches and reattaches in generated order — none of
    /// the round invariants may break, and the run must settle.
    #[test]
    fn chaotic_event_soup_never_violates_round_invariants(
        n in 2usize..6,
        min_raw in 0usize..6,
        quorum_raw in 0usize..6,
        raw_ops in proptest::collection::vec(0u64..u64::MAX, 40..160),
    ) {
        let min = 1 + min_raw % n;
        let quorum = 1 + quorum_raw % n;
        let c = cfg(n, min, quorum, 3);
        let mut machine = RoundStateMachine::new(c, 0);
        let mut model = Model::new(n);
        let mut actions = Vec::new();
        let mut now = 0u64;
        for raw in raw_ops {
            now += raw % 7;
            let id = ((raw >> 3) % n as u64) as u32;
            let current = current_step(machine.phase());
            let event = match (raw >> 6) % 8 {
                0 | 1 => Event::Joined(id),
                2 => Event::Ready(id),
                3 | 4 => Event::Gradient { id, step: current },
                5 => Event::Gradient { id, step: current.saturating_sub(1) },
                6 => Event::Detached(id),
                _ => Event::Reattached(id),
            };
            let r = step_machine(&mut machine, &mut model, &c, Some(event), now, &mut actions);
            prop_assert!(r.is_ok(), "{}", r.unwrap_err());
            if matches!(machine.phase(), Phase::Done | Phase::Aborted) {
                break;
            }
        }
        let r = flush(&mut machine, &mut model, &c, now, &mut actions);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
        prop_assert!(
            matches!(machine.phase(), Phase::Done | Phase::Aborted),
            "run settled in {:?}", machine.phase()
        );
        if model.finished {
            prop_assert_eq!(model.aggregated.len(), 3, "every step aggregated exactly once");
        }
    }

    /// Fewer joins than `min_workers`: the machine must abort at the
    /// join deadline, never start warmup.
    #[test]
    fn runs_below_min_workers_abort_at_the_join_deadline(
        n in 2usize..6,
        min_raw in 0usize..6,
        join_raw in 0usize..6,
    ) {
        let min = 2 + min_raw % (n - 1); // min ≥ 2 so 0 joins can undershoot
        let joins = join_raw % min;      // strictly below the floor
        let c = cfg(n, min, min, 2);
        let mut machine = RoundStateMachine::new(c, 0);
        let mut model = Model::new(n);
        let mut actions = Vec::new();
        for id in 0..joins as u32 {
            let r = step_machine(
                &mut machine, &mut model, &c,
                Some(Event::Joined(id)), 1 + u64::from(id), &mut actions,
            );
            prop_assert!(r.is_ok(), "{}", r.unwrap_err());
        }
        let r = flush(&mut machine, &mut model, &c, joins as u64 + 1, &mut actions);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
        prop_assert_eq!(machine.phase(), Phase::Aborted);
        let reason = machine.abort_reason().unwrap_or_default().to_string();
        prop_assert!(reason.contains("min_workers"), "{}", reason);
    }

    /// Full, punctual participation: the run must complete with every
    /// worker counted in every round and nobody ever dropped.
    #[test]
    fn full_participation_always_completes(
        n in 1usize..6,
        steps in 1u32..5,
        jitter in proptest::collection::vec(0u64..3, 64),
    ) {
        let c = cfg(n, n, n, steps);
        let mut machine = RoundStateMachine::new(c, 0);
        let mut model = Model::new(n);
        let mut actions = Vec::new();
        let mut now = 0u64;
        let mut jit = jitter.into_iter().cycle();
        for id in 0..n as u32 {
            now += jit.next().unwrap_or(1);
            let r = step_machine(&mut machine, &mut model, &c, Some(Event::Joined(id)), now, &mut actions);
            prop_assert!(r.is_ok(), "{}", r.unwrap_err());
        }
        // Respond to whatever phase the machine is in until it finishes:
        // READY during warmup, a fresh report from everyone during each
        // train round.
        for _ in 0..10 * (steps as usize + 2) {
            if matches!(machine.phase(), Phase::Done | Phase::Aborted) {
                break;
            }
            let responses: Vec<Event> = match machine.phase() {
                Phase::Warmup => (0..n as u32).map(Event::Ready).collect(),
                Phase::Train { step } => {
                    (0..n as u32).map(|id| Event::Gradient { id, step }).collect()
                }
                _ => Vec::new(),
            };
            for event in responses {
                now += jit.next().unwrap_or(1);
                let r = step_machine(&mut machine, &mut model, &c, Some(event), now, &mut actions);
                prop_assert!(r.is_ok(), "{}", r.unwrap_err());
            }
        }
        prop_assert_eq!(machine.phase(), Phase::Done, "reason: {:?}", machine.abort_reason());
        prop_assert!(model.finished);
        prop_assert_eq!(model.aggregated, (1..=steps).collect::<Vec<_>>());
        prop_assert!(machine.dropped().is_empty());
    }

    /// Workers detached mid-run never block advancement and are dropped
    /// (zeroed) in every subsequent round — while the attached majority
    /// keeps the run alive to completion.
    #[test]
    fn detached_workers_are_dropped_but_never_block(
        n in 2usize..6,
        steps in 1u32..4,
        detach_raw in 1usize..6,
    ) {
        let detached = 1 + detach_raw % n.saturating_sub(1).max(1); // 1..n
        let detached = detached.min(n - 1); // keep at least one attached
        let quorum = n - detached;
        let c = cfg(n, n, quorum, steps);
        let mut machine = RoundStateMachine::new(c, 0);
        let mut model = Model::new(n);
        let mut actions = Vec::new();
        let mut now = 0u64;
        for id in 0..n as u32 {
            now += 1;
            let r = step_machine(&mut machine, &mut model, &c, Some(Event::Joined(id)), now, &mut actions);
            prop_assert!(r.is_ok(), "{}", r.unwrap_err());
        }
        prop_assert_eq!(machine.phase(), Phase::Warmup);
        for id in 0..n as u32 {
            now += 1;
            let r = step_machine(&mut machine, &mut model, &c, Some(Event::Ready(id)), now, &mut actions);
            prop_assert!(r.is_ok(), "{}", r.unwrap_err());
        }
        // The last `detached` workers lose their sockets right after
        // step 1 goes out.
        for id in quorum..n {
            now += 1;
            let r = step_machine(&mut machine, &mut model, &c, Some(Event::Detached(id as u32)), now, &mut actions);
            prop_assert!(r.is_ok(), "{}", r.unwrap_err());
        }
        for _ in 0..10 * (steps as usize + 2) {
            match machine.phase() {
                Phase::Done | Phase::Aborted => break,
                Phase::Train { step } => {
                    for id in 0..quorum as u32 {
                        now += 1;
                        let before = machine.phase();
                        let r = step_machine(
                            &mut machine, &mut model, &c,
                            Some(Event::Gradient { id, step }), now, &mut actions,
                        );
                        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
                        // The round must advance the moment the last
                        // attached worker reports — never waiting out
                        // the deadline on the detached ones.
                        if id as usize == quorum - 1 {
                            prop_assert!(
                                machine.phase() != before,
                                "round {step} failed to advance once all attached reported"
                            );
                        }
                    }
                }
                _ => { now += 1; }
            }
            let r = step_machine(&mut machine, &mut model, &c, None, now, &mut actions);
            prop_assert!(r.is_ok(), "{}", r.unwrap_err());
        }
        prop_assert_eq!(machine.phase(), Phase::Done, "reason: {:?}", machine.abort_reason());
        let expected: Vec<u32> = (quorum as u32..n as u32).collect();
        prop_assert_eq!(machine.dropped(), &expected[..], "every detached worker zeroed");
    }

    /// Bounded-staleness admission: whatever aged soup arrives, every
    /// frame the machine accepts for a round is at most
    /// `staleness_window` rounds old (its recorded age proves it), and
    /// frames older than the window only ever grow the stale counter.
    #[test]
    fn admitted_frames_never_exceed_the_staleness_window(
        n in 2usize..6,
        k in 0u32..4,
        raw_ops in proptest::collection::vec(0u64..u64::MAX, 40..160),
    ) {
        let mut c = cfg(n, 1, 1, 4);
        c.staleness_window = k;
        let mut machine = RoundStateMachine::new(c, 0);
        let mut actions = Vec::new();
        let mut now = 1u64;
        for id in 0..n as u32 {
            machine.on_event(Event::Joined(id), now, &mut actions);
        }
        actions.clear();
        for raw in raw_ops {
            now += raw % 7;
            let id = ((raw >> 3) % n as u64) as u32;
            let current = current_step(machine.phase());
            let age = ((raw >> 6) % 5) as u32;
            let event = match (raw >> 9) % 4 {
                0 => Event::Ready(id),
                _ => Event::Gradient { id, step: current.saturating_sub(age) },
            };
            machine.on_event(event, now, &mut actions);
            machine.tick(now, &mut actions);
            // Ages are live until the round aggregates: check before
            // processing the actions that would reset them.
            for &a in machine.ages() {
                prop_assert!(a <= k, "admitted a frame {a} rounds old, window {k}");
            }
            let mut i = 0;
            while let Some(&action) = actions.get(i) {
                if matches!(action, Action::Aggregate(_)) {
                    machine.on_aggregated(now, &mut actions);
                }
                i += 1;
            }
            actions.clear();
            if matches!(machine.phase(), Phase::Done | Phase::Aborted) {
                break;
            }
        }
        for (w, &late) in machine.churn().late_admits.iter().enumerate() {
            if k == 0 {
                prop_assert_eq!(late, 0, "worker {} admitted late with window 0", w);
            }
        }
    }

    /// `staleness_window = 0` keeps today's strict semantics exactly:
    /// a machine receiving an aged soup and a twin receiving the same
    /// soup with every non-current gradient removed march through
    /// identical phases and emit identical action streams.
    #[test]
    fn zero_window_is_bit_identical_to_the_strict_machine(
        n in 2usize..6,
        raw_ops in proptest::collection::vec(0u64..u64::MAX, 40..160),
    ) {
        let c = cfg(n, 1, 1, 3);
        let mut aged = RoundStateMachine::new(c, 0);
        let mut strict = RoundStateMachine::new(c, 0);
        let mut actions_a = Vec::new();
        let mut actions_s = Vec::new();
        let mut now = 1u64;
        for id in 0..n as u32 {
            aged.on_event(Event::Joined(id), now, &mut actions_a);
            strict.on_event(Event::Joined(id), now, &mut actions_s);
        }
        prop_assert_eq!(&actions_a, &actions_s);
        actions_a.clear();
        actions_s.clear();
        for raw in raw_ops {
            now += raw % 7;
            let id = ((raw >> 3) % n as u64) as u32;
            let current = current_step(aged.phase());
            let age = ((raw >> 6) % 4) as u32;
            let event = match (raw >> 9) % 4 {
                0 => Event::Ready(id),
                _ => Event::Gradient { id, step: current.saturating_sub(age) },
            };
            aged.on_event(event, now, &mut actions_a);
            // The strict twin only ever sees punctual traffic.
            let punctual = !matches!(event, Event::Gradient { step: s, .. } if s != current);
            if punctual {
                strict.on_event(event, now, &mut actions_s);
            }
            aged.tick(now, &mut actions_a);
            strict.tick(now, &mut actions_s);
            prop_assert_eq!(&actions_a, &actions_s, "action streams diverged");
            prop_assert_eq!(aged.phase(), strict.phase(), "phases diverged");
            let mut i = 0;
            while let Some(&action) = actions_a.get(i) {
                if matches!(action, Action::Aggregate(_)) {
                    aged.on_aggregated(now, &mut actions_a);
                    strict.on_aggregated(now, &mut actions_s);
                }
                i += 1;
            }
            prop_assert_eq!(&actions_a, &actions_s);
            actions_a.clear();
            actions_s.clear();
            if matches!(aged.phase(), Phase::Done | Phase::Aborted) {
                break;
            }
        }
    }
}
