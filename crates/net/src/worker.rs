//! The TCP worker: connect, say hello, then carry frames between the
//! socket and the worker's [`WorkerSession`] until `DONE`.
//!
//! Every worker-side decision lives in that sans-IO session, which the
//! simulator's workers run too. This loop only connects (with retry,
//! since worker processes may launch before the coordinator's listener),
//! reads frames through [`FrameReader`], writes the session's answers,
//! and reconnects. TCP is FIFO, so the session keeps no reorder buffer:
//! a gap, or a `STEP` before `WARMUP`, is a protocol violation. The
//! worker's RNG stream, clip, and momentum come from
//! [`Trainer::into_worker`](dpbyz_server::Trainer::into_worker), so its
//! submissions are bit-identical to its in-process twin's.
//!
//! A lost socket is survivable when [`WorkerConfig::session_token`] is
//! set: the worker keeps its session, reconnects, and says hello again —
//! `REJOIN` naming the first step it has not computed. The coordinator
//! replays every missed broadcast from its resume ring, so the worker
//! computes the missed steps in order, the same parameter bytes and the
//! same RNG draws, exactly as if it had merely straggled.
//!
//! The session's buffers are recycled across rounds and reconnects, and
//! the [`FrameReader`] across the rounds of its socket: a steady-state
//! round allocates nothing.

use crate::protocol::{session_token, write_all_frame, FrameReader, MessageError};
use crate::session::{WorkerFlow, WorkerSession};
use dpbyz_server::HonestWorker;
use dpbyz_tensor::Prng;
use std::fmt;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Why a worker's session ended unsuccessfully.
#[derive(Debug)]
pub enum WorkerError {
    /// Socket-level failure (connect, read, write).
    Io(io::Error),
    /// A received frame failed to decode or verify.
    Message(MessageError),
    /// The coordinator broadcast `ABORT` (reason attached).
    Aborted(String),
    /// The coordinator violated the protocol (message explains).
    Protocol(String),
}

impl fmt::Display for WorkerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkerError::Io(e) => write!(f, "transport: {e}"),
            WorkerError::Message(e) => write!(f, "frame: {e}"),
            WorkerError::Aborted(reason) => write!(f, "coordinator aborted: {reason}"),
            WorkerError::Protocol(m) => write!(f, "protocol violation: {m}"),
        }
    }
}

impl std::error::Error for WorkerError {}

impl From<io::Error> for WorkerError {
    fn from(e: io::Error) -> Self {
        WorkerError::Io(e)
    }
}

impl From<MessageError> for WorkerError {
    fn from(e: MessageError) -> Self {
        WorkerError::Message(e)
    }
}

/// Worker-side knobs. Defaults suit both in-process deployment threads
/// and localhost child processes.
#[derive(Debug, Clone, Copy)]
pub struct WorkerConfig {
    /// Keep retrying the initial connect for this long (the coordinator
    /// may not be listening yet when a process fleet launches).
    pub connect_timeout: Duration,
    /// Per-frame receive timeout. An orphaned worker (coordinator died
    /// without `ABORT`) exits with an error instead of lingering forever.
    pub read_timeout: Duration,
    /// The `REJOIN` credential, equal to
    /// [`session_token`]`(seed, id)`.
    /// `None` (the default) disables reconnection: a lost socket is a
    /// fatal [`WorkerError::Io`], the pre-churn behaviour.
    pub session_token: Option<u64>,
    /// Socket losses survived before giving up. Irrelevant while
    /// `session_token` is `None`.
    pub max_rejoins: u32,
    /// Attach mid-run as a never-joined worker: the first frame sent is
    /// `JOIN_FRESH` instead of `JOIN`, and the coordinator replies with
    /// its resume-ring tail (the current model snapshot) so the worker
    /// starts computing at the in-flight step. Requires a run configured
    /// with `staleness_window` churn tolerance, or a join phase that is
    /// still open.
    pub fresh_join: bool,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        WorkerConfig {
            connect_timeout: Duration::from_secs(10),
            read_timeout: Duration::from_secs(60),
            session_token: None,
            max_rejoins: 0,
            fresh_join: false,
        }
    }
}

impl WorkerConfig {
    /// The config of worker `id` in a run seeded `seed`: it reconnects
    /// through `REJOIN` with [`session_token`]`(seed, id)`, surviving up
    /// to three lost sockets.
    pub fn for_run(seed: u64, id: u32) -> Self {
        WorkerConfig {
            session_token: Some(session_token(seed, id)),
            max_rejoins: 3,
            ..WorkerConfig::default()
        }
    }
}

/// Runs one worker session to completion, reconnecting through
/// [`KIND_REJOIN`](crate::protocol::KIND_REJOIN) after socket loss when the config allows it. Returns
/// `Ok(steps_computed)` on a clean `DONE`.
///
/// # Errors
///
/// See [`WorkerError`].
pub fn run_worker(
    addr: SocketAddr,
    worker: HonestWorker,
    cfg: WorkerConfig,
) -> Result<u32, WorkerError> {
    let token = cfg.session_token.unwrap_or_default();
    let mut session = WorkerSession::new(worker, token, cfg.fresh_join, 0);
    let mut rejoins_left = cfg.max_rejoins;
    loop {
        match serve(addr, &cfg, &mut session) {
            // The socket died but the session is intact: resume.
            Err(WorkerError::Io(_)) if cfg.session_token.is_some() && rejoins_left > 0 => {
                rejoins_left -= 1;
            }
            result => return result,
        }
    }
}

/// One connection: hello, then frames from the socket into the session
/// and its answers back, until `DONE` or an error.
fn serve(
    addr: SocketAddr,
    cfg: &WorkerConfig,
    session: &mut WorkerSession,
) -> Result<u32, WorkerError> {
    // Retry jitter must be deterministic per worker: seed from the
    // session credential (or the id when reconnection is disabled).
    let id = session.id();
    let retry_seed = cfg.session_token.unwrap_or(0) ^ (u64::from(id) << 32) ^ u64::from(id);
    let mut stream = connect_with_retry(addr, cfg.connect_timeout, retry_seed)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(cfg.read_timeout))?;
    session.hello(|frame, _| write_all_frame(&mut stream, frame))?;
    let mut reader = FrameReader::new();
    loop {
        let Some((kind, payload)) = reader.next_frame()? else {
            // On a blocking socket, a read that returns nothing ran into
            // the read timeout: the coordinator fell silent.
            if reader.fill(&mut stream)? == 0 {
                return Err(WorkerError::Io(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "no frame from the coordinator within the read timeout",
                )));
            }
            continue;
        };
        let flow = session.handle(kind, payload, |frame, _| {
            write_all_frame(&mut stream, frame)
        })?;
        if let WorkerFlow::Done(steps) = flow {
            return Ok(steps);
        }
    }
}

/// Connects with capped exponential backoff: 10 ms doubling to a 500 ms
/// cap, each wait jittered to 50–100 % of its nominal value by a
/// [`Prng`] seeded from the session credential — a relaunched fleet
/// neither hammers the listener in lockstep nor draws from ambient
/// randomness (the determinism lint forbids the latter in this crate).
fn connect_with_retry(addr: SocketAddr, timeout: Duration, seed: u64) -> io::Result<TcpStream> {
    const BASE_MS: u64 = 10;
    const CAP_MS: u64 = 500;
    let deadline = Instant::now() + timeout;
    let mut rng = Prng::seed_from_u64(seed);
    let mut attempt = 0u32;
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) if Instant::now() >= deadline => return Err(e),
            Err(_) => {
                let nominal = BASE_MS.saturating_mul(1 << attempt.min(16)).min(CAP_MS);
                let jittered = rng.uniform_range(0.5 * nominal as f64, nominal as f64);
                std::thread::sleep(Duration::from_millis(jittered.max(1.0) as u64));
                attempt = attempt.saturating_add(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpbyz_core::pipeline::Experiment;
    use dpbyz_server::RunScratch;
    use std::net::TcpListener;

    #[test]
    fn an_orphaned_worker_times_out_instead_of_spinning() {
        // A coordinator that accepts and then never writes: the blocking
        // read runs into its timeout, and the worker exits with a typed
        // error instead of looping on empty reads.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // The accepted socket lives in the join handle until the end.
        let coordinator = std::thread::spawn(move || listener.accept());
        let exp = Experiment::theorem1(4, 0.1, None, 2, 5, 1).unwrap();
        let (_, mut workers) = exp
            .build_trainer()
            .unwrap()
            .into_distributed_parts(1, &mut RunScratch::new());
        let read_timeout = Duration::from_millis(200);
        let cfg = WorkerConfig {
            read_timeout,
            ..WorkerConfig::default()
        };
        let worker = workers.remove(0);
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(run_worker(addr, worker, cfg)));
        let got = rx
            .recv_timeout(2 * read_timeout)
            .expect("the worker exits within twice its read timeout");
        assert!(
            matches!(&got, Err(WorkerError::Io(e)) if e.kind() == io::ErrorKind::TimedOut),
            "{got:?}"
        );
        assert!(coordinator.join().unwrap().is_ok());
    }
}
