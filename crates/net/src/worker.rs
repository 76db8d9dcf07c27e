//! The worker process's event loop: connect, join, warm up, then compute
//! one gradient per `STEP` broadcast until `DONE`.
//!
//! The loop is deliberately dumb — all scheduling intelligence lives in
//! the coordinator's state machine. A worker connects (with retry, since
//! worker processes may launch before the coordinator's listener), sends
//! `JOIN`, answers `WARMUP` with `READY`, and then for every `STEP` frame
//! decodes the broadcast parameters, runs
//! [`HonestWorker::compute_into`], and replies with a `GRAD` frame. The
//! worker's RNG stream, clip, and momentum come from
//! [`Trainer::into_worker`](dpbyz_server::Trainer::into_worker), so its
//! submissions are bit-identical to its in-process twin's.
//!
//! A lost socket is survivable: when [`WorkerConfig::session_token`] is
//! set, the worker holds on to its model state, reconnects, and sends
//! `REJOIN` naming the first step it has not computed. The coordinator
//! replays every missed broadcast from its resume ring, so the worker
//! computes the missed steps in order — the same parameter bytes, the
//! same RNG draws — and its state catches up exactly as if it had merely
//! straggled. Replayed or duplicated broadcasts are handled by slot
//! arithmetic: stale steps retransmit the cached report (the coordinator
//! dedups), future steps are a protocol violation.
//!
//! All buffers (parameter vector, output slot, frame scratch, the cached
//! report) are recycled across rounds *and* across reconnects: a
//! steady-state round allocates nothing.

use crate::protocol::{
    decode_vec_frame, encode_grad, encode_join, encode_ready, encode_rejoin, read_array,
    read_exact_frame, write_all_frame, MessageError, KIND_ABORT, KIND_DONE, KIND_STEP, KIND_WARMUP,
    MAX_FRAME_LEN,
};
use bytes::BytesMut;
use dpbyz_server::{HonestWorker, WorkerOutput};
use dpbyz_tensor::{Prng, Vector};
use std::fmt;
use std::io;
use std::io::Read;
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
    /// [`session_token`](crate::protocol::session_token)`(seed, id)`.
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

/// The state that outlives a socket: frame scratch, the decoded
/// parameter vector, the output slot, and the session's slot cursor
/// (`0` = warmup not yet answered, `t ≥ 1` = first uncomputed step).
struct Session {
    send: BytesMut,
    /// Each embedded vector frame of a report, in turn.
    vec_frame: BytesMut,
    /// The full wire frame of the newest report — retransmitted after a
    /// reconnect (its first send may have died with the old socket) and
    /// on duplicated broadcasts; the coordinator's guard dedups.
    grad_cache: BytesMut,
    recv: Vec<u8>,
    params: Vector,
    out: WorkerOutput,
    next_slot: u32,
    steps_served: u32,
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
    mut worker: HonestWorker,
    cfg: WorkerConfig,
) -> Result<u32, WorkerError> {
    let id = worker.id();
    let mut session = Session {
        send: BytesMut::with_capacity(4096),
        vec_frame: BytesMut::with_capacity(4096),
        grad_cache: BytesMut::with_capacity(4096),
        recv: Vec::new(),
        params: Vector::default(),
        out: WorkerOutput::default(),
        next_slot: 0,
        steps_served: 0,
    };
    let mut rejoins_left = cfg.max_rejoins;
    let mut fresh = true;
    loop {
        match serve(addr, id, &mut worker, &cfg, &mut session, fresh) {
            Ok(steps) => return Ok(steps),
            Err(WorkerError::Io(_)) if cfg.session_token.is_some() && rejoins_left > 0 => {
                // The socket died but the model state is intact: resume.
                rejoins_left -= 1;
                fresh = false;
            }
            Err(e) => return Err(e),
        }
    }
}

fn serve(
    addr: SocketAddr,
    id: u32,
    worker: &mut HonestWorker,
    cfg: &WorkerConfig,
    st: &mut Session,
    fresh: bool,
) -> Result<u32, WorkerError> {
    // Retry jitter must be deterministic per worker: seed from the
    // session credential (or the id when reconnection is disabled).
    let retry_seed = cfg.session_token.unwrap_or(0) ^ (u64::from(id) << 32) ^ u64::from(id);
    let mut stream = connect_with_retry(addr, cfg.connect_timeout, retry_seed)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(cfg.read_timeout))?;

    if fresh {
        encode_join(&mut st.send, id, cfg.fresh_join);
        write_all_frame(&mut stream, &st.send)?;
    } else {
        let token = cfg.session_token.unwrap_or_default();
        encode_rejoin(&mut st.send, id, token, st.next_slot);
        write_all_frame(&mut stream, &st.send)?;
        // The newest report may have died unread with the old socket.
        if !st.grad_cache.is_empty() {
            write_all_frame(&mut stream, &st.grad_cache)?;
        }
    }

    loop {
        let (kind, len) = read_header(&mut stream, &mut st.recv)?;
        read_exact_frame(&mut stream, &mut st.recv, len)?;
        match kind {
            KIND_WARMUP => {
                if st.next_slot == 0 {
                    st.next_slot = 1;
                }
                // A replayed WARMUP re-READYs; the machine dedups.
                encode_ready(&mut st.send, id);
                write_all_frame(&mut stream, &st.send)?;
            }
            KIND_STEP => {
                let (step, batch_size) = decode_vec_frame(&st.recv, &mut st.params)?;
                if cfg.fresh_join && st.next_slot == 0 {
                    // A fresh mid-run join skips warmup: the first
                    // replayed STEP carries the current model snapshot
                    // and anchors the slot cursor. Ordinary workers keep
                    // the strict STEP-before-WARMUP protocol error.
                    st.next_slot = step.max(1);
                }
                if step < st.next_slot {
                    // Already computed: a duplicated or replayed
                    // broadcast. Retransmit the report it asks for when
                    // we still hold it; otherwise it is settled history.
                    if step.saturating_add(1) == st.next_slot && !st.grad_cache.is_empty() {
                        write_all_frame(&mut stream, &st.grad_cache)?;
                    }
                } else if step == st.next_slot && step >= 1 {
                    worker.compute_into(&st.params, batch_size as usize, &mut st.out);
                    st.next_slot = step + 1;
                    st.steps_served += 1;
                    encode_grad(&mut st.grad_cache, &mut st.vec_frame, id, step, &st.out);
                    write_all_frame(&mut stream, &st.grad_cache)?;
                } else {
                    // A gap (or a STEP before WARMUP): TCP ordering and
                    // the rejoin replay both forbid this from an honest
                    // coordinator.
                    return Err(WorkerError::Protocol(format!(
                        "step {step} broadcast while {} was the next expected slot",
                        st.next_slot
                    )));
                }
            }
            KIND_DONE => return Ok(st.steps_served),
            KIND_ABORT => {
                return Err(WorkerError::Aborted(
                    String::from_utf8_lossy(&st.recv).into_owned(),
                ))
            }
            other => {
                return Err(WorkerError::Protocol(format!(
                    "unexpected frame kind {other} from coordinator"
                )))
            }
        }
    }
}

/// Reads and validates one frame header, returning `(kind, payload_len)`.
/// Generic over [`Read`] so hostile-header handling is testable without a
/// socket; every byte of the peer-supplied header is bounds-checked.
fn read_header(stream: &mut impl Read, scratch: &mut Vec<u8>) -> Result<(u8, usize), WorkerError> {
    read_exact_frame(stream, scratch, 5)?;
    let len = u32::from_le_bytes(read_array(scratch, 0)?) as usize;
    if len == 0 || len > MAX_FRAME_LEN {
        return Err(WorkerError::Protocol(format!(
            "implausible frame length {len} from coordinator"
        )));
    }
    let kind = *scratch.get(4).ok_or(MessageError::ShortRead {
        needed: 5,
        got: scratch.len(),
    })?;
    Ok((kind, len - 1))
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
    use std::io::Cursor;

    fn header(len: u32, kind: u8) -> Vec<u8> {
        let mut bytes = len.to_le_bytes().to_vec();
        bytes.push(kind);
        bytes
    }

    #[test]
    fn valid_header_decodes() {
        let mut scratch = Vec::new();
        let got = read_header(&mut Cursor::new(header(10, KIND_STEP)), &mut scratch);
        assert!(matches!(got, Ok((KIND_STEP, 9))));
    }

    #[test]
    fn truncated_header_is_an_io_error_not_a_panic() {
        // The coordinator dies mid-header: every prefix length must
        // surface a typed error.
        let full = header(10, KIND_STEP);
        for cut in 0..full.len() {
            let mut scratch = Vec::new();
            let got = read_header(&mut Cursor::new(&full[..cut]), &mut scratch);
            assert!(matches!(got, Err(WorkerError::Io(_))), "cut at {cut}");
        }
    }

    #[test]
    fn zero_length_header_is_a_protocol_error() {
        let mut scratch = Vec::new();
        let got = read_header(&mut Cursor::new(header(0, KIND_STEP)), &mut scratch);
        assert!(matches!(got, Err(WorkerError::Protocol(_))));
    }

    #[test]
    fn hostile_length_header_is_a_protocol_error() {
        // A corrupted or hostile length word must be rejected before any
        // buffering happens, with the declared length in the message.
        let mut scratch = Vec::new();
        let got = read_header(&mut Cursor::new(header(u32::MAX, KIND_STEP)), &mut scratch);
        match got {
            Err(WorkerError::Protocol(msg)) => {
                assert!(msg.contains(&u32::MAX.to_string()), "{msg}")
            }
            other => panic!("expected Protocol error, got {other:?}"),
        }
    }
}
