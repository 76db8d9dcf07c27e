//! The multi-threaded training engine: one OS thread per honest worker,
//! crossbeam channels carrying the serialized wire format.
//!
//! Produces histories **bit-identical** to [`Trainer`](crate::Trainer):
//! both engines share [`ServerCore`](crate::trainer::ServerCore) and the
//! RNG-stream derivation, and the server collects submissions in worker-id
//! order regardless of thread scheduling.
//!
//! # The frame arena
//!
//! Every buffer that crosses a channel is **recycled round-trip** instead
//! of freshly allocated per round: the server owns, per worker, one wire
//! frame (`BytesMut`), one broadcast-parameter `Vector`, and one
//! `pre_noise` diagnostics `Vector`. Each round they travel server →
//! worker inside [`Command::Step`], come back refilled inside the reply,
//! and are stored for the next round — the command/reply channel pair
//! doubles as the arena's return channel. Gradients cross the wire only
//! as bytes: the worker encodes with
//! [`GradientMessage::encode_into`] into its leased frame and the server
//! decodes with [`GradientMessage::decode_into`] straight into the
//! long-lived per-worker output slot. At steady state a threaded round —
//! wire frames included — performs **zero** heap allocations
//! (`tests/tests/alloc_steady_state.rs` pins it with a counting global
//! allocator).
//!
//! # The persistent worker pool
//!
//! Worker OS threads are not respawned per run: they live in a
//! [`WorkerPool`] stored inside the [`RunScratch`], so consecutive
//! `run_with_scratch` calls (the sweep executor's job loops) reuse one
//! set of parked threads. Each run *loads* a fresh [`HonestWorker`]
//! engine into every pooled thread (worker state is per-run; threads are
//! not), drives the rounds, and *unloads* at the end — releasing the
//! run's dataset/model handles while the threads stay parked on their
//! channels. The pool is invisible to the histories: the loaded workers
//! and the server core come from
//! [`Trainer::into_distributed_parts`](crate::Trainer::into_distributed_parts),
//! the constructor every engine shares, so the golden digests pin
//! bit-identity across pooled and fresh-thread runs.

use crate::message::GradientMessage;
use crate::metrics::RunHistory;
use crate::trainer::{RunScratch, Trainer};
use crate::worker::{HonestWorker, WorkerOutput};
use bytes::BytesMut;
use crossbeam::channel::{bounded, Receiver, Sender};
use dpbyz_gars::GarError;
use dpbyz_tensor::Vector;

/// One round-trip of the worker protocol.
enum Command {
    /// Install a fresh worker engine for the coming run. The thread keeps
    /// it until [`Command::Unload`] — pooled threads persist across runs,
    /// worker state does not.
    Load(Box<HonestWorker>),
    /// Compute step `t` against the broadcast parameters with the given
    /// per-step batch size (dynamic under batch growth). Carries the
    /// worker's leased arena buffers: the wire frame to encode into, the
    /// parameter buffer to read, and the recycled `pre_noise` slot to
    /// refill — all returned in the reply.
    Step {
        t: u32,
        params: Vector,
        batch_size: usize,
        frame: BytesMut,
        pre_noise: Vector,
    },
    /// Drop the loaded worker (releasing its dataset/model handles) but
    /// keep the thread parked for the next run.
    Unload,
    /// Shut down the thread.
    Stop,
}

/// What a worker thread returns each round: the submitted gradient as an
/// integrity-tagged wire frame (in the leased arena buffer), the
/// simulator-only diagnostics that never cross the real network, and the
/// parameter buffer handed back for the server to refill next round.
struct RoundReply {
    frame: BytesMut,
    params: Vector,
    pre_noise: Vector,
    batch_loss: f64,
}

/// A pool of persistent worker threads, stored inside [`RunScratch`] so
/// the threads outlive individual runs. Each pooled thread parks on its
/// command channel between runs holding no worker state; a run loads one
/// [`HonestWorker`] per thread, streams [`Command::Step`]s, and unloads.
/// Dropping the pool (i.e. the scratch) stops and joins the threads.
#[derive(Default)]
pub(crate) struct WorkerPool {
    threads: Vec<PoolThread>,
}

struct PoolThread {
    cmd_tx: Sender<Command>,
    reply_rx: Receiver<RoundReply>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Grows the pool to at least `n` parked threads (a no-op once warm —
    /// thread spawning happens only when a run needs more workers than
    /// any previous run on this scratch).
    fn ensure(&mut self, n: usize) {
        while self.threads.len() < n {
            let (cmd_tx, cmd_rx) = bounded::<Command>(1);
            let (reply_tx, reply_rx) = bounded::<RoundReply>(1);
            let handle = std::thread::spawn(move || {
                // The thread's long-lived state: the currently loaded
                // worker engine (per-run) and an output whose submission
                // buffer is recycled across rounds *and* runs (its
                // pre_noise slot is leased from the server each round).
                let mut worker: Option<HonestWorker> = None;
                let mut out = WorkerOutput::default();
                while let Ok(cmd) = cmd_rx.recv() {
                    match cmd {
                        Command::Load(w) => worker = Some(*w),
                        Command::Step {
                            t,
                            params,
                            batch_size,
                            mut frame,
                            pre_noise,
                        } => {
                            let worker = worker.as_mut().expect("Step before Load"); // lint:allow(panic-unwrap, reason = "the coordinator always sends Load before the first Step; a violation is a harness bug")
                            out.pre_noise = pre_noise;
                            worker.compute_into(&params, batch_size, &mut out);
                            // Encode from the recycled submission buffer:
                            // the vector moves through the message and
                            // back — bytes travel, not the Vector.
                            let msg = GradientMessage::new(
                                worker.id(),
                                t,
                                std::mem::take(&mut out.submitted),
                            );
                            msg.encode_into(&mut frame);
                            out.submitted = msg.gradient;
                            let reply = RoundReply {
                                frame,
                                params,
                                pre_noise: std::mem::take(&mut out.pre_noise),
                                batch_loss: out.batch_loss,
                            };
                            if reply_tx.send(reply).is_err() {
                                break;
                            }
                        }
                        Command::Unload => worker = None,
                        Command::Stop => break,
                    }
                }
            });
            self.threads.push(PoolThread {
                cmd_tx,
                reply_rx,
                handle: Some(handle),
            });
        }
    }

    fn send(&self, i: usize, cmd: Command) {
        self.threads[i]
            .cmd_tx
            .send(cmd)
            .expect("worker thread alive"); // lint:allow(panic-unwrap, reason = "a channel disconnect means a worker thread panicked; propagating is correct")
    }

    fn recv(&self, i: usize) -> RoundReply {
        self.threads[i]
            .reply_rx
            .recv()
            .expect("worker thread alive") // lint:allow(panic-unwrap, reason = "a channel disconnect means a worker thread panicked; propagating is correct")
    }

    /// Unloads the first `n` threads' workers, releasing the finished
    /// run's dataset/model handles while the threads stay parked.
    fn unload(&self, n: usize) {
        for thread in self.threads.iter().take(n) {
            let _ = thread.cmd_tx.send(Command::Unload);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        for thread in &self.threads {
            let _ = thread.cmd_tx.send(Command::Stop);
        }
        for thread in &mut self.threads {
            if let Some(handle) = thread.handle.take() {
                let _ = handle.join();
            }
        }
    }
}

/// Multi-threaded engine wrapping a [`Trainer`] specification.
///
/// # Example
///
/// See the crate-level example — replace `Trainer::run` with
/// `ThreadedTrainer::from(trainer).run(seed)` for the same result.
pub struct ThreadedTrainer {
    inner: Trainer,
}

impl From<Trainer> for ThreadedTrainer {
    fn from(inner: Trainer) -> Self {
        ThreadedTrainer { inner }
    }
}

impl ThreadedTrainer {
    /// Runs the full training on one thread per honest worker.
    ///
    /// # Errors
    ///
    /// Same as [`Trainer::run`].
    ///
    /// # Panics
    ///
    /// Panics if a worker thread dies or a wire frame fails its integrity
    /// check (both indicate simulator bugs, not run-time conditions).
    pub fn run(self, seed: u64) -> Result<RunHistory, GarError> {
        self.run_with_scratch(seed, &mut RunScratch::new())
    }

    /// Runs the full training, recycling the server-side buffers in
    /// `scratch` (round buffers, output slots, frame arena) **and** the
    /// scratch's persistent worker thread pool — consecutive runs on one
    /// scratch reuse parked OS threads instead of respawning them. The
    /// history is bit-identical to [`ThreadedTrainer::run`]'s regardless
    /// of what a previous run left in the scratch.
    ///
    /// # Errors
    ///
    /// Same as [`Trainer::run`].
    ///
    /// # Panics
    ///
    /// As [`ThreadedTrainer::run`].
    pub fn run_with_scratch(
        self,
        seed: u64,
        scratch: &mut RunScratch,
    ) -> Result<RunHistory, GarError> {
        let (mut core, workers) = self.inner.into_distributed_parts(seed, scratch);
        let n_honest = workers.len();

        // Load this run's worker engines into the scratch's persistent
        // thread pool (spawning threads only if this run needs more than
        // any previous run on this scratch).
        scratch.pool.ensure(n_honest);
        for (i, worker) in workers.into_iter().enumerate() {
            scratch.pool.send(i, Command::Load(Box::new(worker)));
        }

        let mut result = Ok(());
        // Persistent server-side round state, taken from the scratch: one
        // output slot, one frame, and one parameter buffer per worker,
        // refilled round-trip through the channels.
        let mut outputs = std::mem::take(&mut scratch.outputs);
        outputs.resize_with(n_honest, WorkerOutput::default);
        let mut frames = std::mem::take(&mut scratch.frames);
        frames.resize_with(n_honest, BytesMut::default);
        let mut params_pool = std::mem::take(&mut scratch.params_pool);
        params_pool.resize_with(n_honest, Vector::default);
        'training: for t in 1..=core.config().steps {
            let batch_size = core.config().batch_at(t);
            for i in 0..n_honest {
                let mut params = std::mem::take(&mut params_pool[i]);
                params.copy_from(core.params());
                scratch.pool.send(
                    i,
                    Command::Step {
                        t,
                        params,
                        batch_size,
                        frame: std::mem::take(&mut frames[i]),
                        pre_noise: std::mem::take(&mut outputs[i].pre_noise),
                    },
                );
            }
            // Collect in worker-id order: determinism independent of
            // scheduling.
            for (i, out) in outputs.iter_mut().enumerate() {
                let reply = scratch.pool.recv(i);
                let (worker_id, step) =
                    GradientMessage::decode_into(&reply.frame, &mut out.submitted)
                        .expect("wire integrity verified"); // lint:allow(panic-unwrap, reason = "decoding a frame this process encoded in the same round; integrity cannot fail")
                debug_assert_eq!(step, t);
                debug_assert_eq!(worker_id as usize, i);
                out.pre_noise = reply.pre_noise;
                out.batch_loss = reply.batch_loss;
                frames[i] = reply.frame;
                params_pool[i] = reply.params;
            }
            if let Err(e) = core.process_round(t, &mut outputs) {
                result = Err(e);
                break 'training;
            }
        }

        // Release the run's worker state; the threads stay parked in the
        // scratch's pool for the next run.
        scratch.pool.unload(n_honest);

        scratch.outputs = outputs;
        scratch.frames = frames;
        scratch.params_pool = params_pool;
        core.reclaim_scratch(scratch);
        result.map(|()| core.finish(seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrainingConfig;
    use dpbyz_attacks::FallOfEmpires;
    use dpbyz_data::sampler::{BatchSource, DatasetSource, SamplingMode};
    use dpbyz_data::synthetic;
    use dpbyz_dp::GaussianMechanism;
    use dpbyz_gars::Mda;
    use dpbyz_models::{LogisticRegression, LossKind};
    use dpbyz_tensor::Prng;
    use std::sync::Arc;

    fn build(n: usize, f: usize, steps: u32) -> (Trainer, Trainer) {
        let mut rng = Prng::seed_from_u64(11);
        let ds = Arc::new(synthetic::phishing_like(&mut rng, 500));
        let (train, test) = ds.split(0.8, &mut rng).unwrap();
        let (train, test) = (Arc::new(train), Arc::new(test));
        let model = Arc::new(LogisticRegression::new(68, LossKind::SigmoidMse));
        let config = TrainingConfig::builder()
            .workers(n, f)
            .batch_size(10)
            .steps(steps)
            .eval_every(5)
            .build()
            .unwrap();
        let mk = |cfg: &TrainingConfig| {
            let sources: Vec<Box<dyn BatchSource>> = (0..n)
                .map(|_| {
                    Box::new(DatasetSource::new(
                        train.clone(),
                        SamplingMode::WithReplacement,
                    )) as Box<dyn BatchSource>
                })
                .collect();
            Trainer::new(cfg.clone(), model.clone(), sources, Some(test.clone()))
        };
        (mk(&config), mk(&config))
    }

    #[test]
    fn threaded_matches_sequential_honest() {
        let (seq, thr) = build(4, 0, 25);
        let a = seq.run(3).unwrap();
        let b = ThreadedTrainer::from(thr).run(3).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn threaded_matches_sequential_under_attack_and_noise() {
        let (seq, thr) = build(11, 5, 15);
        let mech = Arc::new(GaussianMechanism::with_sigma(0.01).unwrap());
        let seq = seq
            .gar(Arc::new(Mda::new()))
            .mechanism(mech.clone())
            .attack(Arc::new(FallOfEmpires::default()));
        let thr = thr
            .gar(Arc::new(Mda::new()))
            .mechanism(mech)
            .attack(Arc::new(FallOfEmpires::default()));
        let a = seq.run(5).unwrap();
        let b = ThreadedTrainer::from(thr).run(5).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn threaded_surfaces_aggregation_errors() {
        let (_, thr) = build(5, 1, 10);
        let res = ThreadedTrainer::from(thr.attack(Arc::new(FallOfEmpires::default()))).run(1);
        assert!(matches!(res, Err(GarError::TooManyByzantine { .. })));
    }

    #[test]
    fn pool_threads_persist_across_runs() {
        // Two consecutive runs on one scratch must not respawn threads:
        // the pool's size is the high-water mark of worker counts, and
        // histories stay bit-identical to fresh-pool runs.
        let mut scratch = RunScratch::new();
        let (_, a) = build(4, 0, 10);
        let first = ThreadedTrainer::from(a)
            .run_with_scratch(3, &mut scratch)
            .unwrap();
        assert_eq!(scratch.pool.threads.len(), 4);
        let spawned: Vec<_> = scratch
            .pool
            .threads
            .iter()
            .map(|t| t.handle.as_ref().map(std::thread::JoinHandle::thread))
            .map(|t| t.expect("thread alive").id())
            .collect();
        let (_, b) = build(4, 0, 10);
        let second = ThreadedTrainer::from(b)
            .run_with_scratch(3, &mut scratch)
            .unwrap();
        assert_eq!(first, second);
        let reused: Vec<_> = scratch
            .pool
            .threads
            .iter()
            .map(|t| t.handle.as_ref().map(std::thread::JoinHandle::thread))
            .map(|t| t.expect("thread alive").id())
            .collect();
        assert_eq!(spawned, reused, "threads were respawned between runs");
    }

    #[test]
    fn dirty_scratch_reuse_is_bit_invisible_across_topologies() {
        // One scratch reused across a 4-worker honest run, an 11-worker
        // attacked run, and back — the sweep-executor usage pattern. Every
        // history must equal its fresh-scratch counterpart exactly.
        let mut scratch = RunScratch::new();
        let (_, a) = build(4, 0, 12);
        let (_, b) = build(11, 5, 8);
        let fresh_a = {
            let (_, t) = build(4, 0, 12);
            ThreadedTrainer::from(t).run(3).unwrap()
        };
        let fresh_b = {
            let (_, t) = build(11, 5, 8);
            ThreadedTrainer::from(
                t.gar(Arc::new(Mda::new()))
                    .attack(Arc::new(FallOfEmpires::default())),
            )
            .run(4)
            .unwrap()
        };
        let first = ThreadedTrainer::from(a)
            .run_with_scratch(3, &mut scratch)
            .unwrap();
        assert_eq!(first, fresh_a);
        let second = ThreadedTrainer::from(
            b.gar(Arc::new(Mda::new()))
                .attack(Arc::new(FallOfEmpires::default())),
        )
        .run_with_scratch(4, &mut scratch)
        .unwrap();
        assert_eq!(second, fresh_b);
        let third = {
            let (_, t) = build(4, 0, 12);
            ThreadedTrainer::from(t)
                .run_with_scratch(3, &mut scratch)
                .unwrap()
        };
        assert_eq!(third, fresh_a);
    }
}
