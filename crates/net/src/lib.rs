//! `dpbyz-net` — the multi-process distributed engine: a TCP
//! coordinator/worker deployment ([`TcpBackend`]) and a seeded chaos
//! simulation of it ([`SimBackend`]), each run with the same
//! `run(&experiment, seed, observer, scratch)` call.
//!
//! The parameter-server topology of the paper's §2 becomes real
//! processes: a **coordinator** hosts the
//! [`ServerCore`](dpbyz_server::ServerCore) (aggregation, Byzantine
//! forgeries, fault injection, the model update) and walks an explicit
//! round state machine —
//!
//! ```text
//! WaitingForWorkers → Warmup → (Train → Aggregate)* → Done
//! ```
//!
//! — while **workers** connect over TCP, each hosting one
//! [`HonestWorker`](dpbyz_server::HonestWorker) (sampling, clipping, DP
//! noise) and speaking length-prefixed, integrity-tagged frames.
//!
//! The deployment is *bit-faithful*: RNG streams derive from the same
//! seed contract ([`dpbyz_server::derive_streams`]), components
//! materialize through the same
//! [`Experiment::build_trainer`](dpbyz_core::pipeline::Experiment::build_trainer)
//! path, and the coordinator feeds
//! [`ServerCore::process_round`](dpbyz_server::ServerCore::process_round)
//! exactly what the in-process engines would — so a fixed-seed TCP run
//! reproduces the sequential engine's
//! [`RunHistory`](dpbyz_server::RunHistory) byte for byte (the
//! integration tests and the CI smoke step pin the digest).
//!
//! # Quickstart
//!
//! ```
//! use dpbyz_core::pipeline::Experiment;
//! use dpbyz_net::TcpBackend;
//! use dpbyz_server::RunScratch;
//!
//! let exp = Experiment::builder()
//!     .steps(3)
//!     .dataset_size(300)
//!     .build()
//!     .unwrap();
//! let in_process = exp.run(1).unwrap();
//! let over_tcp = TcpBackend::default()
//!     .run(&exp, 1, None, &mut RunScratch::new())
//!     .unwrap();
//! assert_eq!(in_process, over_tcp);
//! ```
//!
//! For separate OS processes, see the `coordinator` and `worker`
//! binaries (`crates/net/src/bin/`) and `docs/DEPLOYMENT.md`.
//!
//! # Chaos testing
//!
//! The same round protocol also runs over [`sim::SimNet`], an in-memory
//! [`transport::Transport`] whose per-link fault plan (drop, duplicate,
//! reorder, delay, partition — plus explicit crash-and-rejoin schedules)
//! derives purely from a `u64` seed: same seed, same byte-level event
//! order, same digest. [`SimBackend`] runs an experiment over it, e.g.
//! `SimBackend { chaos: Some(7), ..Default::default() }.run(..)`.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod backend;
pub mod coordinator;
pub mod machine;
pub mod protocol;
mod session;
pub mod sim;
pub mod spec;
pub mod transport;
pub mod worker;

pub use backend::{Deployment, TcpBackend};
pub use coordinator::TcpCoordinator;
pub use machine::{Action, Event, MachineConfig, Phase, RoundStateMachine};
pub use session::{WorkerFlow, WorkerSession};
pub use sim::{FaultPlan, LateJoinPlan, SimBackend, SimNet};
pub use spec::{JobSpec, WorkloadSpec};
pub use transport::{drive, CoordinatorError, ResumeRing, Transport};
pub use worker::{run_worker, WorkerError};
