//! Model-based property suite for the worker's half of the session
//! protocol, [`WorkerSession`].
//!
//! Each case (64 per property) delivers `WARMUP` and steps `1..=STEPS`
//! over a generated link: copies arrive duplicated and reordered within
//! the session's reorder bound, and the link dies once, right after a
//! generated write. The worker then says hello again and the coordinator
//! replays every broadcast from the cursor its `REJOIN` names, as the
//! resume ring does. The specification is a twin worker fed every
//! broadcast once, in order:
//!
//! * each step is computed exactly once, in ascending order;
//! * every report is byte-identical to the twin's report for its step;
//! * no report is ever sent for a step at or beyond the cursor: the one
//!   report not computed just now is the resend after `REJOIN`, of the
//!   step just before the cursor that `REJOIN` names.

use bytes::BytesMut;
use dpbyz_core::pipeline::Experiment;
use dpbyz_net::protocol::{
    encode_step, open_frame, peek_grad, read_array, session_token, KIND_DONE, KIND_GRAD, KIND_JOIN,
    KIND_REJOIN, KIND_WARMUP,
};
use dpbyz_net::{WorkerError, WorkerFlow, WorkerSession};
use dpbyz_server::RunScratch;
use proptest::prelude::*;
use std::io;

const STEPS: u32 = 8;
const SEED: u64 = 7;

/// A session for worker 0 at reorder bound `reorder`. Every call builds
/// the same worker, so two calls give twins.
fn session(reorder: u32) -> WorkerSession {
    let exp = Experiment::theorem1(4, 0.1, None, STEPS, 5, 1).unwrap();
    let (_, mut workers) = exp
        .build_trainer()
        .unwrap()
        .into_distributed_parts(SEED, &mut RunScratch::new());
    WorkerSession::new(workers.remove(0), session_token(SEED, 0), false, reorder)
}

/// The coordinator's broadcast for `slot` (0 = `WARMUP`) as
/// `(kind, payload)`.
fn broadcast(slot: u32) -> (u8, Vec<u8>) {
    if slot == 0 {
        return (KIND_WARMUP, Vec::new());
    }
    let mut frame = BytesMut::default();
    encode_step(
        &mut frame,
        slot,
        5,
        &[0.25 * f64::from(slot), -0.5, 1.0, 0.125],
    );
    let (kind, payload) = open_frame(&frame).unwrap();
    (kind, payload.to_vec())
}

/// The twin's reports: every broadcast once, in order. Entry `s − 1`
/// holds step `s`'s report frame.
fn in_order_reports() -> Vec<Vec<u8>> {
    let mut twin = session(0);
    let mut reports = Vec::new();
    twin.hello(|_, _| Ok(())).unwrap();
    for slot in 0..=STEPS {
        let (kind, payload) = broadcast(slot);
        twin.handle(kind, &payload, |frame, computed| {
            if computed.is_some() {
                reports.push(frame.to_vec());
            }
            Ok(())
        })
        .unwrap();
    }
    reports
}

/// The delivery order of broadcasts `from..=STEPS`: each copy is keyed
/// `slot + jitter` with `jitter ≤ reorder` and delivered by key, and one
/// broadcast in four gets a second copy with its own jitter. Every copy
/// of slot `s` then arrives after every copy of each slot below
/// `s − reorder`, so no step arrives further ahead of the cursor than
/// `reorder`.
fn schedule(from: u32, reorder: u32, raw: &mut impl Iterator<Item = u64>) -> Vec<u32> {
    let jitter = |bits: u64| bits % (u64::from(reorder) + 1);
    let mut copies = Vec::new();
    for slot in from..=STEPS {
        let bits = raw.next().unwrap_or(0);
        copies.push((u64::from(slot) + jitter(bits), slot));
        if (bits >> 32).is_multiple_of(4) {
            copies.push((u64::from(slot) + jitter(bits >> 40), slot));
        }
    }
    copies.sort_unstable();
    copies.into_iter().map(|(_, slot)| slot).collect()
}

/// The worker's side of the link: checks every frame the session sends
/// against the specification as it is written.
struct Link {
    reference: Vec<Vec<u8>>,
    /// Writes so far, and the one after which the link dies.
    writes: usize,
    lose_after: usize,
    /// Steps computed, in the order their reports went out.
    computed: Vec<u32>,
    /// The cursor the newest `REJOIN` named.
    rejoin_cursor: Option<u32>,
    /// The next frame must resend the newest report.
    resend_due: bool,
}

impl Link {
    fn send(&mut self, frame: &[u8], computed: Option<u32>) -> io::Result<()> {
        let (kind, payload) = open_frame(frame).unwrap();
        if self.writes == 0 {
            assert_eq!(kind, KIND_JOIN, "the first frame is the JOIN");
        }
        let last = self.computed.last().copied().unwrap_or(0);
        if std::mem::take(&mut self.resend_due) {
            assert_eq!(
                (kind, computed),
                (KIND_GRAD, None),
                "REJOIN is followed by the resend"
            );
        }
        match (kind, computed) {
            (KIND_GRAD, Some(step)) => {
                assert_eq!(peek_grad(payload, 0).unwrap(), step);
                assert_eq!(step, last + 1, "steps are computed once each, in order");
                assert_eq!(frame, self.reference[step as usize - 1], "step {step}");
                self.computed.push(step);
            }
            (KIND_GRAD, None) => {
                let step = peek_grad(payload, 0).unwrap();
                let cursor = self.rejoin_cursor.expect("a resend follows a REJOIN");
                assert!(step < cursor, "resent step {step} at cursor {cursor}");
                assert_eq!(step, last, "the resend is the newest report");
                assert_eq!(frame, self.reference[step as usize - 1], "step {step}");
            }
            (KIND_REJOIN, _) => {
                let cursor = u32::from_le_bytes(read_array(payload, 12).unwrap());
                if last > 0 {
                    assert_eq!(cursor, last + 1, "REJOIN names the first uncomputed step");
                }
                self.rejoin_cursor = Some(cursor);
                self.resend_due = last > 0;
            }
            _ => assert_eq!(computed, None),
        }
        self.writes += 1;
        if self.writes == self.lose_after {
            return Err(io::ErrorKind::ConnectionReset.into());
        }
        Ok(())
    }
}

proptest! {
    /// Duplicates, reordering within the bound and one lost link never
    /// change what the worker computes or reports.
    #[test]
    fn duplicates_reordering_and_a_lost_link_leave_the_reports_unchanged(
        reorder in 0u32..4,
        lose_after in 1usize..13,
        raw in proptest::collection::vec(0u64..u64::MAX, 2 * STEPS as usize + 2),
    ) {
        let mut link = Link {
            reference: in_order_reports(),
            writes: 0,
            lose_after,
            computed: Vec::new(),
            rejoin_cursor: None,
            resend_due: false,
        };
        let mut session = session(reorder);
        let mut raw = raw.into_iter();
        let mut links = 0;
        'connect: loop {
            links += 1;
            prop_assert!(links <= 2, "the link dies once");
            if session.hello(|frame, computed| link.send(frame, computed)).is_err() {
                continue;
            }
            let from = link.rejoin_cursor.unwrap_or(0);
            for slot in schedule(from, reorder, &mut raw) {
                let (kind, payload) = broadcast(slot);
                match session.handle(kind, &payload, |frame, computed| link.send(frame, computed)) {
                    Ok(WorkerFlow::Continue) => {}
                    // Copies still in flight died with the link.
                    Err(WorkerError::Io(_)) => continue 'connect,
                    other => panic!("slot {slot}: {other:?}"),
                }
            }
            break;
        }
        let done = session.handle(KIND_DONE, &[], |frame, computed| link.send(frame, computed));
        prop_assert!(matches!(done, Ok(WorkerFlow::Done(STEPS))), "{done:?}");
        prop_assert_eq!(link.computed, (1..=STEPS).collect::<Vec<_>>());
    }
}
