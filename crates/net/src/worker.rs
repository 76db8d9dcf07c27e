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
//! A lost socket is survivable: the worker keeps its session, reconnects,
//! and says hello again — `REJOIN` naming the first step it has not
//! computed. The coordinator replays every missed broadcast from its
//! resume ring, so the worker computes the missed steps in order, the
//! same parameter bytes and the same RNG draws, exactly as if it had
//! merely straggled. The timeouts and the rejoin budget are constants.
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

/// How long the first connect keeps retrying: worker processes may
/// launch before the coordinator's listener.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);
/// Per-frame receive timeout: an orphaned worker (the coordinator died
/// without `ABORT`) exits with an error instead of lingering forever.
const READ_TIMEOUT: Duration = Duration::from_secs(60);
/// Lost sockets survived before the session gives up.
const MAX_REJOINS: u32 = 3;

/// Runs worker `worker`'s session of the run seeded `seed` to
/// completion, returning `Ok(steps_computed)` on a clean `DONE`. With
/// `fresh_join` the worker attaches mid-run as a never-joined worker: its
/// first frame is `JOIN_FRESH` instead of `JOIN`, and the coordinator
/// replies with its resume-ring tail (the current model snapshot) so the
/// worker starts computing at the in-flight step; this needs a join
/// phase that is still open, or a run with `staleness_window` churn
/// tolerance.
///
/// A lost socket is survived up to three times: the worker reconnects
/// and resumes through
/// [`KIND_REJOIN`](crate::protocol::KIND_REJOIN), naming
/// [`session_token`]`(seed, id)`. A reconnect is one attempt: a
/// coordinator that no longer listens has ended the run.
///
/// # Errors
///
/// See [`WorkerError`].
pub fn run_worker(
    addr: SocketAddr,
    worker: HonestWorker,
    seed: u64,
    fresh_join: bool,
) -> Result<u32, WorkerError> {
    let token = session_token(seed, worker.id());
    let mut session = WorkerSession::new(worker, token, fresh_join, 0);
    run_session(addr, &mut session, token, READ_TIMEOUT, MAX_REJOINS)
}

/// [`run_worker`]'s loop: serve connections until one ends the session,
/// reconnecting at most `max_rejoins` times.
fn run_session(
    addr: SocketAddr,
    session: &mut WorkerSession,
    token: u64,
    read_timeout: Duration,
    max_rejoins: u32,
) -> Result<u32, WorkerError> {
    let mut connect_timeout = CONNECT_TIMEOUT;
    let mut rejoins_left = max_rejoins;
    loop {
        match serve(addr, session, token, connect_timeout, read_timeout) {
            // The socket died but the session is intact: resume.
            Err(WorkerError::Io(_)) if rejoins_left > 0 => {
                rejoins_left -= 1;
                connect_timeout = Duration::ZERO;
            }
            result => return result,
        }
    }
}

/// One connection: hello, then frames from the socket into the session
/// and its answers back, until `DONE` or an error.
fn serve(
    addr: SocketAddr,
    session: &mut WorkerSession,
    token: u64,
    connect_timeout: Duration,
    read_timeout: Duration,
) -> Result<u32, WorkerError> {
    // Retry jitter must be deterministic per worker: seed it from the
    // session credential.
    let id = session.id();
    let retry_seed = token ^ (u64::from(id) << 32) ^ u64::from(id);
    let mut stream = connect_with_retry(addr, connect_timeout, retry_seed)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(read_timeout))?;
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
        let worker = workers.remove(0);
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut session = WorkerSession::new(worker, 0, false, 0);
            tx.send(run_session(addr, &mut session, 0, read_timeout, 0))
        });
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
