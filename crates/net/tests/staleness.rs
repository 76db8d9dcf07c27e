//! Bounded-staleness acceptance: a `staleness_window = k > 0` run must be
//! *explainable* — every late admit maps onto the sequential engine's
//! `set_submission_age` damping, bit for bit — and the new wire paths
//! (ahead-of-round buffering, `JOIN_FRESH`) must hold up over real TCP.
//!
//! Why the sim/sequential equivalence is the right acceptance bar: the
//! paper's `f` accounting covers *omitted* gradients (zero substitution),
//! and the staleness extension adds exactly one new admissible content —
//! an old gradient damped by `λ^age` before the GAR sees it. If a chaos
//! schedule under `k = 1` reproduces a hand-driven engine that zeroes the
//! dropped rounds and replays the held outputs with their age flags, then
//! bounded staleness introduces no third behaviour.

use bytes::{BufMut, BytesMut};
use dpbyz_core::pipeline::Experiment;
use dpbyz_net::protocol::{
    begin_frame, decode_step, encode_grad, end_frame, open_frame, write_all_frame, KIND_ABORT,
    KIND_DONE, KIND_JOIN, KIND_JOIN_FRESH, KIND_READY, KIND_STEP, KIND_WARMUP,
};
use dpbyz_net::{Deployment, FaultPlan, SimBackend, TcpCoordinator};
use dpbyz_server::{FnObserver, HonestWorker, RunHistory, RunScratch, WorkerOutput};
use dpbyz_tensor::Vector;
use std::collections::HashMap;
use std::io::{self, Read};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::Duration;

const STEPS: u32 = 6;

/// A clean (no-attack, average-GAR) figure run with the staleness knobs
/// set; `window = 0` is today's strict semantics.
fn experiment(window: u32) -> Experiment {
    let mut exp = Experiment::builder()
        .batch_size(10)
        .steps(STEPS)
        .dataset_size(300)
        .build()
        .unwrap();
    exp.config.staleness_window = window;
    exp.config.staleness_damping = 0.5;
    exp
}

fn sim_backend(quorum: usize) -> SimBackend {
    SimBackend {
        deployment: Deployment {
            quorum: Some(quorum),
            ..Deployment::default()
        },
        ..SimBackend::default()
    }
}

/// Worker `w` straggles on a fixed schedule (virtual step deadline is
/// 10 000 ms; clean delivery is ~4 ms): the step-2 report arrives during
/// round 3 (one round old — admissible at `k = 1`), the step-3 report
/// arrives during round 6 (three rounds old — never admissible), and the
/// step-5 report arrives during round 6 (one round old). Distinct delays
/// keep every arrival strictly inside a round, away from deadline ties.
fn straggler_plan(n: usize, w: u32) -> FaultPlan {
    FaultPlan::clean(n)
        .with_grad_delay(w, 2, 2, 11_500)
        .with_grad_delay(w, 3, 3, 13_000)
        .with_grad_delay(w, 5, 6, 11_500)
}

/// Drives the sequential engine by hand, reproducing a straggler schedule
/// for the *last* worker: in a `zeroed` round its fresh output is held
/// back and a zero vector aggregated (the §2.1 fault-injection
/// semantics); in an `admits` round `(t, src)` the held step-`src` output
/// is aggregated with `set_submission_age(w, t - src)` so the server
/// damps it by `λ^(t-src)` — exactly what the coordinator does for a
/// frame admitted inside the staleness window.
fn damped_reference(
    exp: &Experiment,
    seed: u64,
    zeroed: &[u32],
    admits: &[(u32, u32)],
) -> RunHistory {
    let mut scratch = RunScratch::new();
    let (mut core, mut workers) = exp
        .build_trainer()
        .unwrap()
        .into_distributed_parts(seed, &mut scratch);
    let w = workers.len() - 1;
    let dim = core.params().dim();
    let mut outputs: Vec<WorkerOutput> = Vec::new();
    outputs.resize_with(workers.len(), WorkerOutput::default);
    let mut held: HashMap<u32, WorkerOutput> = HashMap::new();
    let mut params = Vector::default();
    for t in 1..=core.config().steps {
        params.copy_from(core.params());
        let batch = core.config().batch_at(t);
        for (wk, out) in workers.iter_mut().zip(outputs.iter_mut()) {
            wk.compute_into(&params, batch, out);
        }
        if zeroed.contains(&t) {
            held.insert(t, outputs[w].clone());
            outputs[w].submitted.resize(dim, 0.0);
            outputs[w].submitted.fill(0.0);
            outputs[w].pre_noise.resize(dim, 0.0);
            outputs[w].pre_noise.fill(0.0);
            outputs[w].batch_loss = 0.0;
        }
        if let Some(&(_, src)) = admits.iter().find(|&&(round, _)| round == t) {
            outputs[w] = held.remove(&src).expect("held straggler output");
            core.set_submission_age(w, t - src);
        }
        core.process_round(t, &mut outputs).unwrap();
    }
    core.finish(seed)
}

/// The tentpole pin: under `k = 1` the straggler schedule drops rounds
/// 2 and 5, admits the held step-2/step-5 outputs one round late (damped
/// λ¹), and rejects the three-rounds-old step-3 report — and the whole
/// trajectory is bit-identical to the hand-damped sequential engine.
#[test]
fn damped_late_admits_match_the_hand_damped_sequential_engine() {
    let exp = experiment(1);
    let n = exp.config.n_workers;
    let w = (n - 1) as u32;
    let backend = sim_backend(n - 1);
    let seed = 7;
    let plan = straggler_plan(n, w);
    let mut scratch = RunScratch::new();

    let sim = backend
        .run_with_plan(&exp, seed, &plan, None, &mut scratch)
        .unwrap();

    assert_eq!(sim.churn.dropped_rounds[w as usize], 2);
    assert_eq!(sim.churn.late_admits[w as usize], 2);
    assert_eq!(sim.churn.stale_rejected[w as usize], 1);
    for id in 0..(n - 1) {
        assert_eq!(
            sim.churn.dropped_rounds[id], 0,
            "worker {id} never straggles"
        );
        assert_eq!(sim.churn.late_admits[id], 0);
        assert_eq!(sim.churn.stale_rejected[id], 0);
    }

    let reference = damped_reference(&exp, seed, &[2, 5], &[(3, 2), (6, 5)]);
    assert_eq!(
        sim, reference,
        "server-side λ^age damping on the sim diverged from the hand-damped sequential engine"
    );
    assert_eq!(sim.digest(), reference.digest());

    let replay = backend
        .run_with_plan(&exp, seed, &plan, None, &mut scratch)
        .unwrap();
    assert_eq!(sim, replay, "staleness runs must replay bit-identically");

    // Pinned so an accidental semantic change to admission, damping
    // order, or the timing model cannot slip through refactors.
    assert_eq!(sim.digest(), 0x4742_9274_31b7_3a32);
}

/// `k = 0` contrast on the *same* schedule: every late report is beyond
/// the window, so the run equals the pure-straggler reference (rounds
/// 2, 3, 5 and 6 zeroed, nothing ever admitted late) and differs from
/// the `k = 1` trajectory.
#[test]
fn zero_window_treats_the_same_schedule_as_pure_stragglers() {
    let strict_exp = experiment(0);
    let n = strict_exp.config.n_workers;
    let w = (n - 1) as u32;
    let backend = sim_backend(n - 1);
    let seed = 7;
    let plan = straggler_plan(n, w);
    let mut scratch = RunScratch::new();

    let strict = backend
        .run_with_plan(&strict_exp, seed, &plan, None, &mut scratch)
        .unwrap();

    assert!(strict.churn.late_admits.iter().all(|&c| c == 0));
    assert_eq!(strict.churn.dropped_rounds[w as usize], 4);
    assert_eq!(strict.churn.stale_rejected[w as usize], 3);

    let reference = damped_reference(&strict_exp, seed, &[2, 3, 5, 6], &[]);
    assert_eq!(
        strict, reference,
        "window 0 must reduce to the strict straggler semantics"
    );

    let damped = backend
        .run_with_plan(&experiment(1), seed, &plan, None, &mut scratch)
        .unwrap();
    assert_ne!(
        strict, damped,
        "λ-damped late admits must perturb the trajectory"
    );

    let replay = backend
        .run_with_plan(&strict_exp, seed, &plan, None, &mut scratch)
        .unwrap();
    assert_eq!(strict, replay);
}

// ---------------------------------------------------------------------
// TCP wire paths: hand-rolled clients speaking the real frame protocol.
// ---------------------------------------------------------------------

fn read_frame(stream: &mut TcpStream) -> io::Result<(u8, Vec<u8>)> {
    let mut frame = vec![0u8; 4];
    stream.read_exact(&mut frame)?;
    let len = u32::from_le_bytes([frame[0], frame[1], frame[2], frame[3]]) as usize;
    frame.resize(4 + len, 0);
    stream.read_exact(&mut frame[4..])?;
    let (kind, payload) = open_frame(&frame).map_err(invalid)?;
    Ok((kind, payload.to_vec()))
}

fn invalid(e: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("{e}"))
}

fn send_id_frame(stream: &mut TcpStream, kind: u8, id: u32) -> io::Result<()> {
    let mut buf = BytesMut::default();
    begin_frame(&mut buf, kind);
    buf.put_u32_le(id);
    end_frame(&mut buf);
    write_all_frame(stream, &buf)
}

fn send_grad(stream: &mut TcpStream, id: u32, step: u32, out: &WorkerOutput) -> io::Result<()> {
    let mut frame = BytesMut::default();
    encode_grad(&mut frame, id, step, out);
    write_all_frame(stream, &frame)
}

/// A worker that reports one step *ahead* of the open round: on STEP 1 it
/// first sends a report tagged for step 2, then its real step-1 report.
/// Returns whether the coordinator carried the session through to DONE.
fn ahead_of_round_client(addr: SocketAddr, mut worker: HonestWorker) -> io::Result<bool> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let id = worker.id();
    send_id_frame(&mut stream, KIND_JOIN, id)?;
    let mut params = Vector::default();
    let mut out = WorkerOutput::default();
    loop {
        let (kind, payload) = read_frame(&mut stream)?;
        match kind {
            KIND_WARMUP => send_id_frame(&mut stream, KIND_READY, id)?,
            KIND_STEP => {
                let (step, batch) = decode_step(&payload, &mut params).map_err(invalid)?;
                if step == 1 {
                    worker.compute_into(&params, batch as usize, &mut out);
                    // The ahead-of-round frame: wire-valid, tagged for a
                    // step the coordinator has not broadcast yet. It must
                    // be buffered, not treated as a protocol violation.
                    send_grad(&mut stream, id, 2, &out)?;
                    send_grad(&mut stream, id, 1, &out)?;
                }
                // STEP 2 arrives later; the buffered frame answers it.
            }
            KIND_DONE => return Ok(true),
            KIND_ABORT => return Ok(false),
            _ => {}
        }
    }
}

/// Regression for the `Admission::Future` fix: before buffering, an
/// ahead-of-round frame stalled its round (the report was discarded, the
/// deadline burned, and a one-worker quorum aborted the run). Now the
/// frame waits in the per-worker buffer and is admitted the moment the
/// round advances, so the run completes without the worker ever
/// re-sending.
#[test]
fn an_ahead_of_round_frame_is_buffered_and_admitted_on_advance() {
    let exp = Experiment::theorem1(4, 0.1, None, 2, 5, 1).unwrap();
    let seed = 3;
    let mut scratch = RunScratch::new();
    let (core, mut workers) = exp
        .build_trainer()
        .unwrap()
        .into_distributed_parts(seed, &mut scratch);
    let worker = workers.pop().unwrap();

    let deployment = Deployment {
        min_workers: Some(1),
        quorum: Some(1),
        ..Deployment::default()
    };
    let machine = deployment.resolve("tcp", &exp.config, false).unwrap();
    let coord = TcpCoordinator::bind("127.0.0.1:0").unwrap();
    let addr = coord.local_addr().unwrap();
    let client = std::thread::spawn(move || ahead_of_round_client(addr, worker));

    let history = coord
        .run(core, machine, deployment.resume_window, seed, &mut scratch)
        .unwrap();
    let finished = client.join().unwrap().unwrap();

    assert!(
        finished,
        "coordinator aborted instead of buffering the frame"
    );
    assert_eq!(history.churn.detached, 0, "the connection must survive");
    assert_eq!(history.churn.dropped_rounds, vec![0]);
}

/// A never-joined worker attaching mid-run: `JOIN_FRESH`, then the
/// coordinator's ring tail (the in-flight STEP carries the model
/// snapshot), then ordinary rounds. Fires `sent` once the handshake is on
/// the wire. Returns the number of steps served.
fn fresh_join_client(
    addr: SocketAddr,
    mut worker: HonestWorker,
    sent: mpsc::Sender<()>,
) -> io::Result<u32> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let id = worker.id();
    send_id_frame(&mut stream, KIND_JOIN_FRESH, id)?;
    let _ = sent.send(());
    let mut params = Vector::default();
    let mut out = WorkerOutput::default();
    let mut next_slot = 0u32;
    let mut served = 0u32;
    loop {
        let (kind, payload) = read_frame(&mut stream)?;
        match kind {
            KIND_STEP => {
                let (step, batch) = decode_step(&payload, &mut params).map_err(invalid)?;
                if next_slot == 0 {
                    next_slot = step.max(1); // the replayed STEP anchors the cursor
                }
                if step == next_slot {
                    worker.compute_into(&params, batch as usize, &mut out);
                    send_grad(&mut stream, id, step, &out)?;
                    next_slot = step + 1;
                    served += 1;
                }
            }
            KIND_DONE => return Ok(served),
            KIND_ABORT => {
                return Err(io::Error::other("run aborted"));
            }
            _ => {}
        }
    }
}

/// Fresh mid-run join over real TCP: worker 0 runs from the start; the
/// run's observer blocks round 2 until worker 1 has written its
/// `JOIN_FRESH`, guaranteeing the attach happens mid-run rather than
/// racing the whole training loop.
#[test]
fn a_fresh_worker_joins_mid_run_over_tcp() {
    let exp = Experiment::theorem1(4, 0.1, None, 8, 5, 2).unwrap();
    let seed = 5;
    let mut scratch = RunScratch::new();
    let (tx_go, rx_go) = mpsc::channel::<()>();
    let (tx_sent, rx_sent) = mpsc::channel::<()>();
    let mut gate = Some((tx_go, rx_sent));
    let observer = FnObserver::new(move |m| {
        if m.step == 2 {
            if let Some((go, sent)) = gate.take() {
                let _ = go.send(());
                let _ = sent.recv(); // hold round 2 until JOIN_FRESH is on the wire
            }
        }
    });
    let (core, mut workers) = exp
        .build_trainer()
        .unwrap()
        .observer(Box::new(observer))
        .into_distributed_parts(seed, &mut scratch);
    let late = workers.pop().unwrap();
    let early = workers.pop().unwrap();

    let deployment = Deployment {
        min_workers: Some(1),
        quorum: Some(1),
        join_timeout_ms: 300,
        ..Deployment::default()
    };
    let machine = deployment.resolve("tcp", &exp.config, false).unwrap();
    let coord = TcpCoordinator::bind("127.0.0.1:0").unwrap();
    let addr = coord.local_addr().unwrap();

    let early_handle = std::thread::spawn(move || dpbyz_net::run_worker(addr, early, seed, false));
    let late_handle = std::thread::spawn(move || {
        rx_go.recv().expect("observer signals the join point");
        fresh_join_client(addr, late, tx_sent)
    });

    let history = coord
        .run(core, machine, deployment.resume_window, seed, &mut scratch)
        .unwrap();
    let early_steps = early_handle.join().unwrap().unwrap();
    let late_steps = late_handle.join().unwrap().unwrap();
    assert_eq!(early_steps, 8);
    assert!(
        late_steps >= 1,
        "the fresh joiner must serve at least one round after attaching"
    );
    assert_eq!(history.churn.joined_fresh, 1);
    assert_eq!(history.churn.detached, 0);
}
