//! The wire protocol: length-prefixed frames, each carrying one
//! integrity tag.
//!
//! Every message between coordinator and worker is one frame:
//!
//! ```text
//! [len: u32 LE][kind: u8][payload: len − 9 bytes][tag: u64 LE]
//! ```
//!
//! where `len` counts everything after the length word (so a payload-free
//! frame has `len = 9`) and `tag` is a checksum over the kind byte and the
//! payload: FNV-1a's xor-then-multiply run over 8-byte little-endian
//! words (the byte tail bytewise), each multiply followed by an xor-shift
//! fold of the high half into the low half. Every step is a bijection of
//! the 64-bit state, so any change confined to one 8-byte word is
//! detected with certainty, and the fold keeps every two-bit flip
//! detected too (the tests flip every bit and every pair of bits of a
//! small frame of every kind). The paper's channels guarantee only
//! integrity and authentication (Remark 1), not secrecy.
//!
//! One function accepts or refuses a frame: [`open_frame`] checks the
//! length word against the frame-length cap and the frame's size, reads the
//! kind and verifies the tag. Both TCP endpoints read through
//! [`FrameReader`], which checks the cap before buffering and opens each
//! complete frame with it; the simulator opens every delivered frame with
//! it in both directions. The session handlers only ever see verified
//! payloads.
//!
//! Payloads are flat records of little-endian fields:
//!
//! ```text
//! JOIN, JOIN_FRESH, READY  [id: u32]
//! REJOIN                   [id: u32][token: u64][next_step: u32]
//! WARMUP, DONE             (empty)
//! STEP                     [step: u32][batch: u32][dim: u32][params: dim × f64]
//! GRAD                     [id: u32][step: u32][loss: f64][dim: u32]
//!                          [submitted: dim × f64][pre_noise: dim × f64]
//! ABORT                    UTF-8 reason
//! ```
//!
//! [`FrameReader`] owns one recycled `Vec<u8>`, fills it from the socket
//! (the coordinator's nonblocking ones, or the worker's blocking one with
//! a read timeout), and pops complete frames as ranges of that buffer —
//! steady-state reception allocates nothing once the buffer has grown to
//! the session's frame size.

use bytes::{BufMut, BytesMut};
use dpbyz_server::WorkerOutput;
use dpbyz_tensor::Vector;
use std::fmt;
use std::io::{self, Read, Write};
use std::time::{Duration, Instant};

/// Worker → coordinator: "worker `id` is connected". Payload: `[id: u32 LE]`.
pub const KIND_JOIN: u8 = 1;
/// Coordinator → workers: "all (or enough) workers joined; warm up".
/// Payload: empty.
pub const KIND_WARMUP: u8 = 2;
/// Worker → coordinator: "warmed up". Payload: `[id: u32 LE]`.
pub const KIND_READY: u8 = 3;
/// Coordinator → workers: the round broadcast. Payload:
/// `[step: u32][batch_size: u32][dim: u32][params: dim × f64]`.
pub const KIND_STEP: u8 = 4;
/// Worker → coordinator: the round report. Payload:
/// `[worker_id: u32][step: u32][batch_loss: f64][dim: u32]`, then the
/// *submitted* gradient's `dim` coordinates and the *pre-noise*
/// gradient's (the simulator-only VN diagnostic channel; a real
/// deployment would omit it, see `docs/DEPLOYMENT.md`).
pub const KIND_GRAD: u8 = 5;
/// Coordinator → workers: "all steps aggregated; exit cleanly".
/// Payload: empty.
pub const KIND_DONE: u8 = 6;
/// Coordinator → workers: "the run died". Payload: UTF-8 reason.
pub const KIND_ABORT: u8 = 7;
/// Worker → coordinator, on a *fresh* connection after the original one
/// died: "worker `id` wants to resume its session". Payload:
/// `[id: u32 LE][token: u64 LE][next_step: u32 LE]` where `token` must
/// equal [`session_token`]`(seed, id)` and `next_step` is the first
/// step the worker has not yet computed. A valid rejoin re-attaches the
/// slot and replays the missed `STEP` broadcasts from the coordinator's
/// resume ring so the worker's RNG/momentum state catches up exactly as
/// if it had merely straggled.
pub const KIND_REJOIN: u8 = 8;
/// Worker → coordinator, on a fresh connection from a worker that was
/// *never* in the fleet: "worker `id` wants to attach mid-run". Payload:
/// `[id: u32 LE]`. Valid only while the slot has never joined; the
/// coordinator attaches it, replays the resume-ring tail (the `STEP`
/// frames carry the parameters, so the tail *is* the model-state
/// snapshot), and the worker starts computing from the in-flight round —
/// it deliberately skips warmup, entering the same joined-and-ready
/// accounting a reattached straggler has. During the join phase this is
/// equivalent to a plain [`KIND_JOIN`].
pub const KIND_JOIN_FRESH: u8 = 9;

/// Largest coordinate count a `STEP` decoder accepts. Caps what a
/// hostile coordinate count can make [`decode_step`] allocate
/// (2²⁴ × 8 B = 128 MiB) — far above any model this repo trains, far
/// below a `u32`'s worth of `f64`s.
const MAX_WIRE_DIM: usize = 1 << 24;

/// Frame decode failures, typed by cause so transports can react
/// differently: a short read may mean "wait for more bytes", a length
/// overflow or bad checksum means the frame (and probably the peer) is
/// garbage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MessageError {
    /// The byte count does not match what the layout requires — either
    /// below the layout's minimum (a frame needs at least its kind byte
    /// and its tag), or inconsistent with a declared length or
    /// coordinate count.
    ShortRead {
        /// Bytes the layout requires.
        needed: usize,
        /// Bytes actually presented.
        got: usize,
    },
    /// A declared size exceeds its cap — a frame's length word above the
    /// largest `GRAD` frame, or a `STEP`'s coordinate count above 2²⁴ —
    /// treated as corruption before any allocation or
    /// buffering happens.
    LengthOverflow {
        /// The size the frame declared.
        declared: usize,
        /// The decoder's cap.
        limit: usize,
    },
    /// The integrity tag did not match.
    BadChecksum,
    /// A `GRAD` names another worker than the one whose link carried it.
    Misattributed,
    /// A gradient vector's coordinate count is not the run's dimension.
    DimMismatch {
        /// The run's dimension.
        expected: usize,
        /// The count the frame declared.
        got: usize,
    },
    /// A gradient coordinate is NaN or infinite. The robust rules assume
    /// finite input, so such a report is a protocol violation even from an
    /// honest worker whose run diverged.
    NonFinite {
        /// Index of the first non-finite coordinate.
        index: usize,
    },
}

impl fmt::Display for MessageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MessageError::ShortRead { needed, got } => {
                write!(
                    f,
                    "truncated frame: layout requires {needed} bytes, got {got}"
                )
            }
            MessageError::LengthOverflow { declared, limit } => {
                write!(
                    f,
                    "frame declares a size of {declared}, above the {limit} cap"
                )
            }
            MessageError::BadChecksum => write!(f, "integrity check failed"),
            MessageError::Misattributed => {
                write!(f, "report names another worker than its link's")
            }
            MessageError::DimMismatch { expected, got } => {
                write!(f, "vector of dimension {got}, the run's is {expected}")
            }
            MessageError::NonFinite { index } => {
                write!(f, "coordinate {index} is not finite")
            }
        }
    }
}

impl std::error::Error for MessageError {}

/// Bytes of the integrity tag.
const TAG_LEN: usize = 8;
/// Smallest acceptable length word: a kind byte and a tag.
const MIN_FRAME_LEN: usize = 1 + TAG_LEN;
/// `STEP` payload bytes before the coordinates: step, batch, dim.
const STEP_HEADER: usize = 4 + 4 + 4;
/// `GRAD` payload bytes before the coordinates: id, step, loss, dim.
const GRAD_HEADER: usize = 4 + 4 + 8 + 4;

const TAG_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const TAG_PRIME: u64 = 0x0000_0100_0000_01B3;

/// The frame integrity tag: FNV-1a's xor-then-multiply over 8-byte
/// little-endian words, each multiply followed by the fold
/// `h ^= h >> 32`, with the byte tail (`len mod 8` bytes) absorbed
/// bytewise as plain FNV-1a.
///
/// Every step — xor of a word, multiply by the odd prime, the fold — is
/// a bijection of the 64-bit state, so a change confined to one word
/// always changes the tag. The fold is what keeps two-word changes
/// detected: without it a difference in bit 63 passes through every
/// multiply unchanged, so flipping bit 63 of any two words (or of one
/// word and of the tag) cancels out.
fn frame_tag(bytes: &[u8]) -> u64 {
    let mut h = TAG_OFFSET;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let mut w = [0u8; 8];
        w.copy_from_slice(word);
        h = (h ^ u64::from_le_bytes(w)).wrapping_mul(TAG_PRIME);
        h ^= h >> 32;
    }
    for &b in words.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(TAG_PRIME);
    }
    h
}

/// Reads `N` bytes at offset `at` of a peer-supplied frame, reporting a
/// typed [`MessageError::ShortRead`] instead of panicking when the frame
/// is too short — the only slice-access pattern hostile-input decoders
/// are allowed to use.
///
/// # Errors
///
/// [`MessageError::ShortRead`] when `frame` ends before `at + N`.
pub fn read_array<const N: usize>(frame: &[u8], at: usize) -> Result<[u8; N], MessageError> {
    frame
        .get(at..at.saturating_add(N))
        .and_then(|bytes| <[u8; N]>::try_from(bytes).ok())
        .ok_or(MessageError::ShortRead {
            needed: at.saturating_add(N),
            got: frame.len(),
        })
}

/// Wire size of a [`KIND_GRAD`] frame at dimension `dim`, length word
/// included: the largest frame a run at that dimension sends (a `STEP`
/// carries one vector, a `GRAD` two).
pub const fn grad_frame_len(dim: usize) -> usize {
    4 + MIN_FRAME_LEN + GRAD_HEADER + 2 * 8 * dim
}

/// Largest acceptable frame `len`: the `GRAD` layout at [`MAX_WIRE_DIM`]
/// coordinates, less the length word itself. A corrupted or hostile
/// length word above this is rejected before any buffering happens.
const MAX_FRAME_LEN: usize = grad_frame_len(MAX_WIRE_DIM) - 4;

/// The frame length a length word declares, checked against the layout's
/// minimum and [`MAX_FRAME_LEN`].
fn declared_len(word: [u8; 4]) -> Result<usize, MessageError> {
    let len = u32::from_le_bytes(word) as usize;
    if len < MIN_FRAME_LEN {
        return Err(MessageError::ShortRead {
            needed: MIN_FRAME_LEN,
            got: len,
        });
    }
    if len > MAX_FRAME_LEN {
        return Err(MessageError::LengthOverflow {
            declared: len,
            limit: MAX_FRAME_LEN,
        });
    }
    Ok(len)
}

/// Opens one whole frame, length word included: the one place a frame is
/// accepted or refused. Checks the length word against the layout's
/// minimum and the frame-length cap and against the bytes presented (exactly
/// one frame), then verifies the tag over the kind byte and the payload,
/// and returns `(kind, payload)`.
///
/// # Errors
///
/// [`MessageError::ShortRead`] when the length word is below the minimum
/// or does not match the bytes, [`MessageError::LengthOverflow`] above
/// the cap, [`MessageError::BadChecksum`] when the tag mismatches.
pub fn open_frame(frame: &[u8]) -> Result<(u8, &[u8]), MessageError> {
    let len = declared_len(read_array(frame, 0)?)?;
    if frame.len() != 4 + len {
        return Err(MessageError::ShortRead {
            needed: 4 + len,
            got: frame.len(),
        });
    }
    // The checks above make every range exact: the kind, the payload,
    // then the tag.
    let body = frame.get(4..4 + len - TAG_LEN).unwrap_or_default();
    let tag = u64::from_le_bytes(read_array(frame, 4 + len - TAG_LEN)?);
    if tag != frame_tag(body) {
        return Err(MessageError::BadChecksum);
    }
    let [kind] = read_array(frame, 4)?;
    Ok((kind, body.get(1..).unwrap_or_default()))
}

/// Incremental frame reassembly over one recycled buffer.
///
/// Each endpoint keeps one `FrameReader` per connection for the life of
/// that connection: [`FrameReader::fill`] appends whatever the socket
/// has, [`FrameReader::next_frame`] pops complete frames in
/// arrival order. Consumed bytes are reclaimed by index bookkeeping plus
/// an occasional `copy_within` compaction — no per-frame allocation.
#[derive(Debug)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// First unconsumed byte.
    start: usize,
    /// One past the last received byte.
    filled: usize,
}

impl Default for FrameReader {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameReader {
    /// A reader with a small initial buffer (grows to the session's frame
    /// size and then stays put).
    pub fn new() -> Self {
        FrameReader {
            buf: vec![0; 4096],
            start: 0,
            filled: 0,
        }
    }

    /// Pulls available bytes from `stream` into the buffer.
    ///
    /// Returns the number of bytes read; `Ok(0)` means the read would
    /// block (try again next loop iteration). On a blocking socket with a
    /// read timeout, `Ok(0)` means the timeout expired.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::UnexpectedEof`] when the peer closed the
    /// connection; any other socket error as-is.
    pub fn fill(&mut self, stream: &mut impl Read) -> io::Result<usize> {
        if self.filled == self.buf.len() {
            if self.start > 0 {
                // Reclaim consumed space before growing.
                self.buf.copy_within(self.start..self.filled, 0);
                self.filled -= self.start;
                self.start = 0;
            } else {
                self.buf.resize(self.buf.len() * 2, 0);
            }
        }
        let Some(dst) = self.buf.get_mut(self.filled..) else {
            return Ok(0);
        };
        match stream.read(dst) {
            Ok(0) => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "peer closed the connection",
            )),
            Ok(n) => {
                self.filled += n;
                Ok(n)
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                ) =>
            {
                Ok(0)
            }
            Err(e) => Err(e),
        }
    }

    /// Pops the next complete frame, if one has fully arrived, opened by
    /// [`open_frame`] as `(kind, payload)`. The length word is checked
    /// against the frame-length cap before the frame is buffered. The payload
    /// borrows the reader's buffer — copy or decode it before the next
    /// `fill`/`next_frame` call.
    ///
    /// # Errors
    ///
    /// As [`open_frame`]. The connection should be dropped
    /// (resynchronization is impossible).
    pub fn next_frame(&mut self) -> Result<Option<(u8, &[u8])>, MessageError> {
        let pending = self.buf.get(self.start..self.filled).unwrap_or_default();
        let Ok(word) = read_array(pending, 0) else {
            return Ok(None);
        };
        let end = self.start + 4 + declared_len(word)?;
        if end > self.filled {
            return Ok(None);
        }
        let frame = self.buf.get(self.start..end).unwrap_or_default();
        self.start = end;
        if self.start == self.filled {
            self.start = 0;
            self.filled = 0;
        }
        open_frame(frame).map(Some)
    }
}

/// Derives the session token both sides of a deployment compute for
/// worker `id` under run `seed` (SplitMix64 over the pair). The token is
/// an anti-confusion handle for the [`KIND_REJOIN`] handshake — it stops
/// a mislaunched or stale worker process from silently adopting another
/// worker's slot after a reconnect — not a security credential (anyone
/// holding the job spec can derive it, by design: workers learn their
/// token from the same spec that names their id).
pub fn session_token(seed: u64, id: u32) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(u64::from(id).wrapping_mul(0xD134_2543_DE82_EF95));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// How [`GradGuard::admit`] classified a gradient frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// First frame for this worker at the current step: decode it.
    Fresh,
    /// The worker already delivered a frame this round, or this step was
    /// already accepted in an earlier round (a duplicated frame, or a
    /// retransmission): skip the decode, keep the slot.
    Duplicate,
    /// A frame more than [`GradGuard`]'s staleness window behind the
    /// in-flight step (late straggler report, reordered delivery): skip
    /// the decode — a beyond-window frame must never clobber an output
    /// slot that may already hold the current round's report. With the
    /// default window of 0 every non-current earlier step classifies
    /// here.
    Stale,
    /// A frame claiming a step later than the one in flight: nothing
    /// honest sends this (workers only compute broadcast steps), so skip
    /// the decode and leave the slot alone.
    Future,
}

/// Round-tagged dedup/reorder guard for gradient frames, one slot per
/// worker. [`FrameReader`] reassembles whatever the link delivers —
/// including byte-identical duplicates and reordered retransmissions of
/// earlier rounds — so the receive path consults this guard *before*
/// decoding into an output slot: only the first admissible frame per
/// `(worker, current round)` is [`Admission::Fresh`]. Under a
/// bounded-staleness window `k` ([`GradGuard::with_window`]) a frame for
/// step `current − j` with `j ≤ k` is still admissible, at most once per
/// round and never for a step at or below one already accepted. State is
/// a pair of recycled fixed-size vectors; admitting allocates nothing.
#[derive(Debug)]
pub struct GradGuard {
    /// Staleness window `k`: steps `current − k ..= current` admit.
    window: u32,
    /// Highest step each worker had a frame accepted for.
    accepted_step: Vec<Option<u32>>,
    /// The round (`current` at admission) each worker last had a frame
    /// accepted in — enforces one acceptance per worker per round.
    accepted_round: Vec<Option<u32>>,
}

impl GradGuard {
    /// A strict guard for `n_workers` slots (window 0: only the in-flight
    /// step admits), nothing accepted yet.
    pub fn new(n_workers: usize) -> Self {
        Self::with_window(n_workers, 0)
    }

    /// A guard admitting steps up to `window` rounds behind the in-flight
    /// one.
    pub fn with_window(n_workers: usize, window: u32) -> Self {
        GradGuard {
            window,
            accepted_step: vec![None; n_workers],
            accepted_round: vec![None; n_workers],
        }
    }

    /// Classifies a frame from `worker` tagged `step` while `current` is
    /// the step in flight, recording an acceptance when it is
    /// [`Admission::Fresh`]. Out-of-range workers are [`Admission::Stale`]
    /// (callers attribute frames to validated slots, so the range check
    /// is belt and braces, not a protocol path).
    pub fn admit(&mut self, worker: u32, step: u32, current: u32) -> Admission {
        let slot = worker as usize;
        let (Some(acc_step), Some(acc_round)) = (
            self.accepted_step.get_mut(slot),
            self.accepted_round.get_mut(slot),
        ) else {
            return Admission::Stale;
        };
        if step > current {
            return Admission::Future;
        }
        if current - step > self.window {
            return Admission::Stale;
        }
        // One acceptance per round, and never a step the worker already
        // had accepted (a retransmission of last round's frame arriving
        // in-window this round is a duplicate, not a late report).
        if *acc_round == Some(current) || acc_step.is_some_and(|s| s >= step) {
            return Admission::Duplicate;
        }
        *acc_step = Some(step);
        *acc_round = Some(current);
        Admission::Fresh
    }
}

/// Reads the step of a `GRAD` payload without decoding its vectors,
/// after checking that the report names `link`, the worker whose link
/// carried it. This is what the receive path hands
/// [`GradGuard::admit`], so a stale or duplicated frame is classified
/// *before* anything touches the output slot.
///
/// # Errors
///
/// [`MessageError::ShortRead`] when the payload is too short to carry
/// the id and step, [`MessageError::Misattributed`] when the id is not
/// `link`.
pub fn peek_grad(payload: &[u8], link: u32) -> Result<u32, MessageError> {
    let id = u32::from_le_bytes(read_array(payload, 0)?);
    let step = u32::from_le_bytes(read_array(payload, 4)?);
    if id != link {
        return Err(MessageError::Misattributed);
    }
    Ok(step)
}

/// Decodes a `GRAD` payload into the worker's output slot. Every field
/// read is bounds-checked, and the payload must hold exactly two vectors
/// of the run's dimension `dim` ([`MessageError::DimMismatch`] when it
/// declares another, checked before the slot is resized) with finite
/// coordinates ([`MessageError::NonFinite`]), so what reaches the GAR is
/// what the aggregation rules accept. This holds for honest reports too:
/// on a diverging run the session drops them, the round misses its
/// quorum, and the run ends with a typed error, where the in-process
/// engine would aggregate the non-finite values. On error the slot's
/// vectors are left in an unspecified but valid state.
///
/// Call [`peek_grad`] + [`GradGuard::admit`] first: only
/// [`Admission::Fresh`] frames should reach the decode, so a duplicated
/// or reordered frame can never clobber a slot holding the current
/// round's report.
///
/// # Errors
///
/// [`MessageError::ShortRead`] on a truncated or overlong payload, and
/// the two value errors above.
pub fn decode_grad(payload: &[u8], dim: usize, out: &mut WorkerOutput) -> Result<(), MessageError> {
    // lint:begin(zero-copy)
    // Every fresh report of every round is decoded here, straight into
    // the recycled output slot.
    let batch_loss = f64::from_le_bytes(read_array(payload, 8)?);
    let declared = u32::from_le_bytes(read_array(payload, 16)?) as usize;
    if declared != dim {
        return Err(MessageError::DimMismatch {
            expected: dim,
            got: declared,
        });
    }
    exact_len(payload, GRAD_HEADER + 16 * dim)?;
    let coords = payload.get(GRAD_HEADER..).unwrap_or_default();
    let (submitted, pre_noise) = coords.split_at_checked(8 * dim).unwrap_or_default();
    read_coords(submitted, dim, &mut out.submitted);
    read_coords(pre_noise, dim, &mut out.pre_noise);
    check_finite(&out.submitted)?;
    check_finite(&out.pre_noise)?;
    out.batch_loss = batch_loss;
    // lint:end(zero-copy)
    Ok(())
}

/// Decodes a `STEP` payload into `params`, returning `(step, batch)`.
/// `params` is resized in place (a no-op at steady state) and refilled
/// 8 bytes at a time. On error `params` is left in an unspecified but
/// valid state.
///
/// # Errors
///
/// [`MessageError::LengthOverflow`] if the coordinate count exceeds 2²⁴
/// (checked before `params` is resized),
/// [`MessageError::ShortRead`] if the payload does not hold exactly that
/// many coordinates.
pub fn decode_step(payload: &[u8], params: &mut Vector) -> Result<(u32, u32), MessageError> {
    // lint:begin(zero-copy)
    let step = u32::from_le_bytes(read_array(payload, 0)?);
    let batch = u32::from_le_bytes(read_array(payload, 4)?);
    let dim = u32::from_le_bytes(read_array(payload, 8)?) as usize;
    if dim > MAX_WIRE_DIM {
        return Err(MessageError::LengthOverflow {
            declared: dim,
            limit: MAX_WIRE_DIM,
        });
    }
    exact_len(payload, STEP_HEADER + 8 * dim)?;
    read_coords(payload.get(STEP_HEADER..).unwrap_or_default(), dim, params);
    // lint:end(zero-copy)
    Ok((step, batch))
}

/// Refuses a payload that is not exactly `needed` bytes long.
fn exact_len(payload: &[u8], needed: usize) -> Result<(), MessageError> {
    if payload.len() == needed {
        return Ok(());
    }
    Err(MessageError::ShortRead {
        needed,
        got: payload.len(),
    })
}

/// Refills `v` with the `dim` little-endian coordinates `bytes` starts
/// with, 8 bytes at a time.
fn read_coords(bytes: &[u8], dim: usize, v: &mut Vector) {
    v.resize(dim, 0.0);
    for (coord, x) in v.as_mut_slice().iter_mut().zip(bytes.chunks_exact(8)) {
        let mut word = [0u8; 8];
        word.copy_from_slice(x);
        *coord = f64::from_le_bytes(word);
    }
}

/// Refuses a vector holding a NaN or an infinity.
fn check_finite(v: &Vector) -> Result<(), MessageError> {
    // A branch-free pass over every report; the index only on rejection.
    if v.as_slice().iter().fold(true, |ok, x| ok & x.is_finite()) {
        return Ok(());
    }
    let index = v.as_slice().iter().position(|x| !x.is_finite());
    Err(MessageError::NonFinite {
        index: index.unwrap_or_default(),
    })
}

/// Opens a frame in a recycled buffer: clears it, reserves the length
/// word, writes the kind byte. Append the payload, then seal with
/// [`end_frame`].
pub fn begin_frame(buf: &mut BytesMut, kind: u8) {
    buf.clear();
    buf.put_u32_le(0); // patched by end_frame
    buf.put_slice(&[kind]);
}

/// Seals a frame begun with [`begin_frame`]: appends the tag over the
/// kind byte and the payload, and patches the length word to cover
/// everything after it.
///
/// # Panics
///
/// Panics if the frame (kind + payload + tag) exceeds `u32::MAX` bytes.
pub fn end_frame(buf: &mut BytesMut) {
    let tag = frame_tag(buf.get(4..).unwrap_or_default());
    buf.put_u64_le(tag);
    // lint:allow(panic-unwrap, reason = "documented panic: locally built frames are capped by MAX_FRAME_LEN, far below u32::MAX")
    let len = u32::try_from(buf.len() - 4).expect("frame fits u32");
    if let Some(slot) = buf.get_mut(0..4) {
        slot.copy_from_slice(&len.to_le_bytes());
    }
}

/// Appends `v`'s coordinates as little-endian `f64`s: one zero fill of
/// the range, overwritten 8 bytes at a time in place.
fn put_coords(buf: &mut BytesMut, v: &[f64]) {
    let start = buf.len();
    buf.put_bytes(0, v.len() * 8);
    let range = buf.get_mut(start..).unwrap_or_default();
    for (bytes, x) in range.chunks_exact_mut(8).zip(v) {
        bytes.copy_from_slice(&x.to_le_bytes());
    }
}

/// Encodes the [`KIND_STEP`] frame for `step` into `buf`, the parameters
/// written in place. The buffer recycles, so a steady-state broadcast
/// allocates nothing.
pub fn encode_step(buf: &mut BytesMut, step: u32, batch: u32, params: &[f64]) {
    // lint:begin(zero-copy)
    begin_frame(buf, KIND_STEP);
    buf.put_u32_le(step);
    buf.put_u32_le(batch);
    buf.put_u32_le(params.len() as u32);
    put_coords(buf, params);
    end_frame(buf);
    // lint:end(zero-copy)
}

/// Encodes worker `id`'s [`KIND_GRAD`] report for `step` from `out` into
/// `buf`, both vectors written in place. The buffer recycles, so a
/// steady-state report allocates nothing.
pub fn encode_grad(buf: &mut BytesMut, id: u32, step: u32, out: &WorkerOutput) {
    // lint:begin(zero-copy)
    begin_frame(buf, KIND_GRAD);
    buf.put_u32_le(id);
    buf.put_u32_le(step);
    buf.put_f64_le(out.batch_loss);
    buf.put_u32_le(out.submitted.dim() as u32);
    put_coords(buf, out.submitted.as_slice());
    put_coords(buf, out.pre_noise.as_slice());
    end_frame(buf);
    // lint:end(zero-copy)
}

/// Writes `data` fully to a possibly-nonblocking stream, napping through
/// `WouldBlock` (the OS socket buffer is momentarily full — localhost
/// broadcasts of this repo's frame sizes essentially never hit this).
///
/// # Errors
///
/// [`io::ErrorKind::WriteZero`] if the peer stopped accepting bytes; any
/// other socket error as-is.
pub fn write_all_frame(stream: &mut impl Write, data: &[u8]) -> io::Result<()> {
    let mut rest = data;
    while !rest.is_empty() {
        match stream.write(rest) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "peer stopped accepting bytes",
                ))
            }
            Ok(n) => rest = rest.get(n..).unwrap_or_default(),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                ) =>
            {
                std::thread::sleep(Duration::from_micros(100));
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Millisecond virtual time since `start` — what the coordinator feeds
/// the state machine's `now_ms`.
pub fn elapsed_ms(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_millis()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An in-memory stream double: reads drain a script in caller-chosen
    /// chunk sizes, mimicking TCP's arbitrary segmentation.
    struct ChunkedStream {
        data: Vec<u8>,
        pos: usize,
        chunk: usize,
    }

    impl Read for ChunkedStream {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            if self.pos == self.data.len() {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "drained"));
            }
            let n = self.chunk.min(out.len()).min(self.data.len() - self.pos);
            out[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    fn frame(kind: u8, payload: &[u8]) -> Vec<u8> {
        let mut buf = BytesMut::default();
        begin_frame(&mut buf, kind);
        buf.put_slice(payload);
        end_frame(&mut buf);
        buf.to_vec()
    }

    /// Every frame `reader` yields from `wire`, fed in `chunk`-byte reads.
    fn read_all(wire: &[u8], chunk: usize) -> Vec<Result<(u8, Vec<u8>), MessageError>> {
        let mut stream = ChunkedStream {
            data: wire.to_vec(),
            pos: 0,
            chunk,
        };
        let mut reader = FrameReader::new();
        let mut seen = Vec::new();
        loop {
            let n = reader.fill(&mut stream).unwrap();
            loop {
                match reader.next_frame() {
                    Ok(Some((kind, payload))) => seen.push(Ok((kind, payload.to_vec()))),
                    Ok(None) => break,
                    Err(e) => {
                        seen.push(Err(e));
                        return seen;
                    }
                }
            }
            if n == 0 && stream.pos == stream.data.len() {
                return seen;
            }
        }
    }

    #[test]
    fn frames_reassemble_across_arbitrary_segmentation() {
        let mut wire = Vec::new();
        wire.extend(frame(KIND_JOIN, &7u32.to_le_bytes()));
        wire.extend(frame(KIND_WARMUP, &[]));
        wire.extend(frame(KIND_GRAD, &[9; 100]));
        for chunk in [1, 2, 3, 7, 64, 4096] {
            assert_eq!(
                read_all(&wire, chunk),
                vec![
                    Ok((KIND_JOIN, 7u32.to_le_bytes().to_vec())),
                    Ok((KIND_WARMUP, Vec::new())),
                    Ok((KIND_GRAD, vec![9; 100])),
                ],
                "chunk size {chunk}"
            );
        }
    }

    #[test]
    fn hostile_length_prefix_is_rejected_without_buffering() {
        let mut reader = FrameReader::new();
        let mut stream = ChunkedStream {
            data: (u32::MAX).to_le_bytes().to_vec(),
            pos: 0,
            chunk: 64,
        };
        reader.fill(&mut stream).unwrap();
        let before = reader.buf.len();
        match reader.next_frame() {
            Err(MessageError::LengthOverflow { declared, limit }) => {
                assert_eq!(declared, u32::MAX as usize);
                assert_eq!(limit, MAX_FRAME_LEN);
            }
            other => panic!("expected LengthOverflow, got {other:?}"),
        }
        assert_eq!(reader.buf.len(), before, "no allocation for hostile length");
    }

    #[test]
    fn zero_length_frame_is_rejected() {
        // A frame needs at least its kind byte and its tag.
        for len in [0u32, 1, 8] {
            let mut reader = FrameReader::new();
            let mut stream = ChunkedStream {
                data: len.to_le_bytes().to_vec(),
                pos: 0,
                chunk: 4,
            };
            reader.fill(&mut stream).unwrap();
            assert_eq!(
                reader.next_frame(),
                Err(MessageError::ShortRead {
                    needed: 9,
                    got: len as usize
                })
            );
        }
    }

    #[test]
    fn eof_surfaces_as_unexpected_eof() {
        struct Closed;
        impl Read for Closed {
            fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
                Ok(0)
            }
        }
        let err = FrameReader::new().fill(&mut Closed).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn truncated_header_then_eof_is_a_typed_io_error() {
        // The peer dies mid-frame: every prefix is held as an incomplete
        // frame, and the close then surfaces as a typed UnexpectedEof,
        // never a panic or a bogus frame.
        let full = frame(KIND_STEP, &[0; 9]);
        for cut in 0..full.len() {
            let mut stream = io::Cursor::new(full[..cut].to_vec());
            let mut reader = FrameReader::new();
            loop {
                match reader.fill(&mut stream) {
                    Ok(n) => assert!(n > 0, "cut at {cut}: a cursor never blocks"),
                    Err(e) => {
                        assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
                        break;
                    }
                }
                assert_eq!(reader.next_frame(), Ok(None), "cut at {cut}");
            }
        }
    }

    /// A GRAD frame exactly as a worker session builds one.
    fn grad_frame(id: u32, step: u32, submitted: &[f64], pre_noise: &[f64]) -> Vec<u8> {
        let out = WorkerOutput {
            submitted: Vector::from(submitted.to_vec()),
            pre_noise: Vector::from(pre_noise.to_vec()),
            batch_loss: 0.125,
        };
        let mut buf = BytesMut::default();
        encode_grad(&mut buf, id, step, &out);
        buf.to_vec()
    }

    /// The verified payload of [`grad_frame`].
    fn report_payload(id: u32, step: u32, submitted: &[f64], pre_noise: &[f64]) -> Vec<u8> {
        let frame = grad_frame(id, step, submitted, pre_noise);
        let (kind, payload) = open_frame(&frame).unwrap();
        assert_eq!(kind, KIND_GRAD);
        payload.to_vec()
    }

    fn grad_payload(id: u32, step: u32) -> Vec<u8> {
        report_payload(id, step, &[1.0, -2.0], &[0.5, 0.25])
    }

    #[test]
    fn well_formed_grad_payload_decodes() {
        let payload = grad_payload(3, 7);
        assert_eq!(peek_grad(&payload, 3), Ok(7));
        let mut out = WorkerOutput::default();
        assert_eq!(decode_grad(&payload, 2, &mut out), Ok(()));
        assert_eq!(out.batch_loss, 0.125);
        assert_eq!(out.submitted, Vector::from(vec![1.0, -2.0]));
        assert_eq!(out.pre_noise, Vector::from(vec![0.5, 0.25]));
        // The payload is the documented flat record, and the frame has
        // the documented size.
        let mut expected = Vec::new();
        expected.extend(3u32.to_le_bytes());
        expected.extend(7u32.to_le_bytes());
        expected.extend(0.125f64.to_le_bytes());
        expected.extend(2u32.to_le_bytes());
        for x in [1.0f64, -2.0, 0.5, 0.25] {
            expected.extend(x.to_le_bytes());
        }
        assert_eq!(payload, expected);
        assert_eq!(
            grad_frame(3, 7, &[1.0, -2.0], &[0.5, 0.25]).len(),
            grad_frame_len(2)
        );
    }

    #[test]
    fn short_prelude_is_a_typed_error_for_every_cut() {
        // Cut the payload inside the id/step/loss words (bytes 0..16) and
        // inside the dimension word (bytes 16..20): each prefix must
        // surface ShortRead, never a panic.
        let payload = grad_payload(3, 7);
        for cut in 0..20 {
            let needed = if cut < 16 { 16 } else { 20 };
            let mut out = WorkerOutput::default();
            assert_eq!(
                decode_grad(&payload[..cut], 2, &mut out),
                Err(MessageError::ShortRead { needed, got: cut }),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn truncated_inner_frames_are_typed_errors() {
        let payload = grad_payload(3, 7);
        let mut out = WorkerOutput::default();
        // Truncating the trailing pre-noise vector, or cutting inside the
        // submitted one.
        for cut in [payload.len() - 3, payload.len() - 8, 20 + 5] {
            assert_eq!(
                decode_grad(&payload[..cut], 2, &mut out),
                Err(MessageError::ShortRead {
                    needed: payload.len(),
                    got: cut
                }),
                "cut at {cut}"
            );
        }
        // Bytes beyond the two vectors.
        let mut long = payload.clone();
        long.extend([0; 8]);
        assert_eq!(
            decode_grad(&long, 2, &mut out),
            Err(MessageError::ShortRead {
                needed: payload.len(),
                got: long.len()
            })
        );
    }

    #[test]
    fn corrupted_inner_frame_fails_integrity() {
        // A byte inside the pre-noise vector of a GRAD frame.
        let mut frame = grad_frame(3, 7, &[1.0, -2.0], &[0.5, 0.25]);
        let at = frame.len() - 10;
        frame[at] ^= 0xFF;
        assert_eq!(open_frame(&frame), Err(MessageError::BadChecksum));
    }

    #[test]
    fn a_corrupted_loss_byte_is_refused() {
        // The loss feeds the digest-pinned training loss: it is under the
        // frame's tag like every other field.
        let clean = grad_frame(3, 7, &[1.0, -2.0], &[0.5, 0.25]);
        for at in 13..21 {
            let mut frame = clean.clone();
            frame[at] ^= 0x01;
            assert_eq!(
                open_frame(&frame),
                Err(MessageError::BadChecksum),
                "byte {at}"
            );
            assert!(
                matches!(
                    read_all(&frame, 7).as_slice(),
                    [Err(MessageError::BadChecksum)]
                ),
                "byte {at}"
            );
        }
    }

    #[test]
    fn non_finite_or_misshaped_gradients_are_typed_errors() {
        // Each frame is correctly tagged: only the values are hostile.
        let cases: [(&[f64], &[f64], MessageError); 5] = [
            (
                &[f64::NAN, -2.0],
                &[0.5, 0.25],
                MessageError::NonFinite { index: 0 },
            ),
            (
                &[1.0, f64::INFINITY],
                &[0.5, 0.25],
                MessageError::NonFinite { index: 1 },
            ),
            (
                &[1.0, -2.0],
                &[f64::NEG_INFINITY, 0.25],
                MessageError::NonFinite { index: 0 },
            ),
            (
                &[1.0, -2.0, 3.0],
                &[0.5, 0.25, 0.0],
                MessageError::DimMismatch {
                    expected: 2,
                    got: 3,
                },
            ),
            // One dimension word covers both vectors: a short pre-noise
            // vector is a length error.
            (
                &[1.0, -2.0],
                &[0.5],
                MessageError::ShortRead {
                    needed: 20 + 32,
                    got: 20 + 24,
                },
            ),
        ];
        for (sub, pre, expected) in cases {
            let payload = report_payload(3, 7, sub, pre);
            let mut out = WorkerOutput::default();
            assert_eq!(
                decode_grad(&payload, 2, &mut out),
                Err(expected),
                "{sub:?} / {pre:?}"
            );
        }
    }

    #[test]
    fn misattributed_reports_are_rejected() {
        // A report naming another worker than the link it arrived on.
        let payload = grad_payload(4, 7);
        assert_eq!(peek_grad(&payload, 3), Err(MessageError::Misattributed));
        assert_eq!(peek_grad(&payload, 4), Ok(7));
    }

    #[test]
    fn empty_payload_is_a_typed_error() {
        let mut out = WorkerOutput::default();
        assert_eq!(
            decode_grad(&[], 2, &mut out),
            Err(MessageError::ShortRead { needed: 16, got: 0 })
        );
        assert_eq!(
            peek_grad(&[], 0),
            Err(MessageError::ShortRead { needed: 4, got: 0 })
        );
    }

    #[test]
    fn peek_reads_the_round_tag_without_decoding() {
        let payload = grad_payload(3, 7);
        assert_eq!(peek_grad(&payload, 3), Ok(7));
        // Every prefix too short to carry the id and step is a typed
        // ShortRead.
        for cut in 0..8 {
            assert!(
                matches!(
                    peek_grad(&payload[..cut], 3),
                    Err(MessageError::ShortRead { .. })
                ),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn duplicated_frame_for_the_same_worker_and_round_is_not_fresh() {
        // The regression this guard exists for: FrameReader reassembles
        // a byte-identical duplicate of a gradient frame without
        // complaint, so the receive path must classify the second one as
        // a duplicate instead of decoding it over the slot.
        let one = grad_frame(2, 5, &[1.0, -2.0], &[0.5, 0.25]);
        let mut wire = one.clone();
        wire.extend(&one); // duplicated on the link
        let mut guard = GradGuard::new(4);
        let mut admissions = Vec::new();
        for opened in read_all(&wire, 64) {
            let (kind, payload) = opened.unwrap();
            assert_eq!(kind, KIND_GRAD);
            let step = peek_grad(&payload, 2).unwrap();
            admissions.push(guard.admit(2, step, 5));
        }
        assert_eq!(admissions, vec![Admission::Fresh, Admission::Duplicate]);
    }

    #[test]
    fn guard_classifies_per_field() {
        let mut guard = GradGuard::new(3);
        // Fresh then duplicate for the same (worker, round).
        assert_eq!(guard.admit(0, 4, 4), Admission::Fresh);
        assert_eq!(guard.admit(0, 4, 4), Admission::Duplicate);
        // Another worker at the same round is independent.
        assert_eq!(guard.admit(1, 4, 4), Admission::Fresh);
        // A reordered frame from an earlier round never clobbers.
        assert_eq!(guard.admit(0, 3, 4), Admission::Stale);
        // A frame claiming a round not yet broadcast is not decoded.
        assert_eq!(guard.admit(0, 9, 4), Admission::Future);
        // Round advances: the same worker is fresh exactly once again.
        assert_eq!(guard.admit(0, 5, 5), Admission::Fresh);
        assert_eq!(guard.admit(0, 5, 5), Admission::Duplicate);
        // Out-of-range worker ids are inert.
        assert_eq!(guard.admit(99, 5, 5), Admission::Stale);
    }

    #[test]
    fn windowed_guard_admits_bounded_staleness_once_per_round() {
        let mut guard = GradGuard::with_window(2, 1);
        // In-window late frame admits: step 4 while 5 is in flight.
        assert_eq!(guard.admit(0, 4, 5), Admission::Fresh);
        // …but only once per round, for any admissible step.
        assert_eq!(guard.admit(0, 5, 5), Admission::Duplicate);
        // Next round: the worker reports punctually again.
        assert_eq!(guard.admit(0, 6, 6), Admission::Fresh);
        // A retransmission of the already-accepted stale frame is a
        // duplicate even though step 5 is still within round 6's window.
        assert_eq!(guard.admit(0, 5, 6), Admission::Duplicate);
        // Beyond the window is stale regardless of acceptance history.
        assert_eq!(guard.admit(1, 3, 5), Admission::Stale);
        // The future rule is unchanged.
        assert_eq!(guard.admit(1, 7, 5), Admission::Future);
        // A straggler that never reported rounds 5/6 delivers step 6
        // during round 7: fresh at age 1.
        assert_eq!(guard.admit(1, 6, 7), Admission::Fresh);
    }

    #[test]
    fn zero_window_guard_matches_strict_semantics() {
        // `new` is `with_window(_, 0)`: every earlier step is stale, so
        // the classification table of `guard_classifies_per_field` holds.
        let mut strict = GradGuard::new(1);
        assert_eq!(strict.admit(0, 4, 5), Admission::Stale);
        assert_eq!(strict.admit(0, 5, 5), Admission::Fresh);
        assert_eq!(strict.admit(0, 5, 5), Admission::Duplicate);
        assert_eq!(strict.admit(0, 5, 6), Admission::Stale);
        assert_eq!(strict.admit(0, 6, 6), Admission::Fresh);
    }

    #[test]
    fn session_tokens_differ_per_worker_and_seed() {
        let t = session_token(42, 0);
        assert_eq!(t, session_token(42, 0), "deterministic");
        assert_ne!(t, session_token(42, 1), "per worker");
        assert_ne!(t, session_token(43, 0), "per seed");
    }

    #[test]
    fn steady_state_reception_reuses_the_buffer() {
        // Feed many identical frames; after the first few, the buffer's
        // pointer and capacity must never change (index bookkeeping only).
        let one = frame(KIND_GRAD, &[3; 600]);
        let mut reader = FrameReader::new();
        let mut baseline = None;
        for round in 0..50 {
            let mut stream = ChunkedStream {
                data: one.clone(),
                pos: 0,
                chunk: 128,
            };
            loop {
                let n = reader.fill(&mut stream).unwrap();
                if n == 0 {
                    break;
                }
            }
            let got = reader.next_frame().unwrap().expect("whole frame fed");
            assert_eq!(got.0, KIND_GRAD);
            assert_eq!(got.1.len(), 600);
            let fingerprint = (reader.buf.as_ptr(), reader.buf.capacity());
            match baseline {
                None => baseline = Some(fingerprint),
                Some(b) if round > 2 => assert_eq!(fingerprint, b, "round {round} reallocated"),
                Some(_) => {}
            }
        }
    }

    /// Frames that carry vectors (`STEP` and `GRAD`): round trips, buffer
    /// reuse, the tag, and typed rejection of every malformed or
    /// corrupted frame.
    mod vec_frame {
        use super::*;
        use proptest::prelude::*;

        fn encoded(step: u32, batch: u32, v: &Vector) -> BytesMut {
            let mut frame = BytesMut::default();
            encode_step(&mut frame, step, batch, v.as_slice());
            frame
        }

        /// Opens a STEP frame and decodes it into `params`.
        fn decoded(frame: &[u8], params: &mut Vector) -> Result<(u32, u32), MessageError> {
            let (kind, payload) = open_frame(frame)?;
            assert_eq!(kind, KIND_STEP);
            decode_step(payload, params)
        }

        /// A small frame of every kind that carries a payload.
        fn small_frames() -> Vec<(&'static str, Vec<u8>)> {
            let mut rejoin = 3u32.to_le_bytes().to_vec();
            rejoin.extend(session_token(1, 3).to_le_bytes());
            rejoin.extend(4u32.to_le_bytes());
            vec![
                (
                    "STEP",
                    encoded(5, 11, &Vector::from(vec![1.0, -2.0])).to_vec(),
                ),
                ("GRAD", super::grad_frame(3, 7, &[1.0, -2.0], &[0.5, 0.25])),
                ("JOIN", super::frame(KIND_JOIN, &3u32.to_le_bytes())),
                ("REJOIN", super::frame(KIND_REJOIN, &rejoin)),
                ("ABORT", super::frame(KIND_ABORT, b"below quorum")),
            ]
        }

        #[test]
        fn roundtrip() {
            let v = Vector::from(vec![1.5, -2.25, 0.0]);
            let mut params = Vector::default();
            assert_eq!(decoded(&encoded(3, 42, &v), &mut params), Ok((3, 42)));
            assert_eq!(params, v);
        }

        #[test]
        fn step_header_roundtrip() {
            // A broadcast's header: (step, batch_size), decoded into a
            // dirty parameter vector of the wrong dimension.
            let v = Vector::from(vec![1.0, -0.125, 3.5]);
            let mut params = Vector::from(vec![0.0; 9]);
            assert_eq!(decoded(&encoded(7, 25, &v), &mut params), Ok((7, 25)));
            assert_eq!(params, v);
        }

        #[test]
        fn zero_copy_roundtrip_reuses_buffers() {
            // Encode into a dirty recycled buffer, decode into a dirty
            // live Vector of the wrong dimension — byte- and bit-identical
            // to fresh buffers, twice through the SAME buffers.
            let v = Vector::from(vec![1.5, -2.25, 0.0]);
            let mut frame = BytesMut::with_capacity(4);
            frame.put_u32_le(0xDEAD_BEEF); // dirty: encoding must clear
            encode_step(&mut frame, 3, 42, v.as_slice());
            assert_eq!(&frame[..], &encoded(3, 42, &v)[..]);
            let mut params = Vector::from(vec![9.0; 7]); // dirty, wrong dim
            assert_eq!(decoded(&frame, &mut params), Ok((3, 42)));
            assert_eq!(params, v);
            let v2 = Vector::from(vec![0.25, 7.0, -1.0]);
            encode_step(&mut frame, 4, 43, v2.as_slice());
            assert_eq!(decoded(&frame, &mut params), Ok((4, 43)));
            assert_eq!(params, v2);
        }

        #[test]
        fn frame_bytes_follow_the_documented_layout() {
            let v = Vector::from(vec![0.5, -0.5]);
            let mut expected = Vec::new();
            expected.extend(37u32.to_le_bytes()); // kind + 28 payload bytes + tag
            expected.push(KIND_STEP);
            for word in [9u32, 17, 2] {
                expected.extend(word.to_le_bytes());
            }
            for x in [0.5f64, -0.5] {
                expected.extend(x.to_le_bytes());
            }
            // The tag of the kind byte and the payload (29 bytes),
            // computed outside this crate.
            expected.extend(0x2903_b50e_d58e_989fu64.to_le_bytes());
            assert_eq!(&encoded(9, 17, &v)[..], &expected[..]);
        }

        /// The per-coordinate encoder: the header fields, then every
        /// coordinate appended one at a time, the tag and length word
        /// written last. The reference the in-place encoders must match
        /// byte for byte.
        fn reference_frame(kind: u8, header: &[&[u8]], vectors: &[&[f64]]) -> Vec<u8> {
            let mut body = vec![kind];
            for field in header {
                body.extend(*field);
            }
            for x in vectors.iter().flat_map(|v| v.iter()) {
                body.extend(x.to_le_bytes());
            }
            let mut frame = ((body.len() + 8) as u32).to_le_bytes().to_vec();
            let tag = reference_tag(&body);
            frame.extend(body);
            frame.extend(tag.to_le_bytes());
            frame
        }

        #[test]
        fn in_place_encoder_matches_the_per_coordinate_reference() {
            let specials = [
                -0.0,
                0.0,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::from_bits(0x7ff8_0000_0000_0001), // quiet NaN, payload 1
                f64::from_bits(0x7ff0_0000_dead_beef), // signalling NaN payload
                f64::from_bits(0xfff8_0000_0000_0000), // negative NaN
                f64::from_bits(1),                     // smallest subnormal
                -f64::from_bits(0x000f_ffff_ffff_ffff), // largest subnormal
                f64::MIN_POSITIVE,
                f64::MAX,
            ];
            let mut frame = BytesMut::default();
            for d in 0..=70usize {
                let v: Vec<f64> = (0..d)
                    .map(|i| match i % 3 {
                        0 => specials[(i / 3) % specials.len()],
                        _ => (i as f64 - 35.0) * 0.37,
                    })
                    .collect();
                let w: Vec<f64> = v.iter().rev().map(|x| -x).collect();
                let dim = (d as u32).to_le_bytes();
                frame.put_u32_le(0xDEAD_BEEF); // dirty: encoding must clear
                encode_step(&mut frame, d as u32, 9, &v);
                let header: [&[u8]; 3] = [&dim, &9u32.to_le_bytes(), &dim];
                let expected = reference_frame(KIND_STEP, &header, &[&v]);
                assert_eq!(&frame[..], &expected[..], "STEP, d = {d}");
                // A GRAD appends its second vector after the first.
                let out = WorkerOutput {
                    submitted: Vector::from(v.clone()),
                    pre_noise: Vector::from(w.clone()),
                    batch_loss: specials[d % specials.len()],
                };
                encode_grad(&mut frame, 4, d as u32, &out);
                let loss = out.batch_loss.to_le_bytes();
                let header: [&[u8]; 4] = [&4u32.to_le_bytes(), &dim, &loss, &dim];
                let expected = reference_frame(KIND_GRAD, &header, &[&v, &w]);
                assert_eq!(&frame[..], &expected[..], "GRAD, d = {d}");
            }
        }

        /// The tag as its documentation states it, written independently
        /// of [`frame_tag`]: words assembled byte by byte, the tail
        /// indexed from the end of the last whole word.
        fn reference_tag(bytes: &[u8]) -> u64 {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            let whole = bytes.len() / 8 * 8;
            for at in (0..whole).step_by(8) {
                let w = (0..8).fold(0u64, |w, k| w | u64::from(bytes[at + k]) << (8 * k));
                h = (h ^ w).wrapping_mul(0x100_0000_01b3);
                h ^= h >> 32;
            }
            for &b in &bytes[whole..] {
                h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
            h
        }

        #[test]
        fn tag_matches_its_reference_and_known_answers() {
            // Known answers: FNV's offset basis for no input, and one
            // 38-byte input (four words and a 6-byte tail), computed
            // outside this crate.
            assert_eq!(frame_tag(b""), 0xcbf2_9ce4_8422_2325);
            let text = b"Remark 1: integrity and authentication";
            assert_eq!(frame_tag(text), 0xb68e_506e_cdb4_6190);
            assert_eq!(reference_tag(text), 0xb68e_506e_cdb4_6190);
            // Every length from empty to five words plus a full tail.
            let bytes: Vec<u8> = (0..47u32).map(|i| (i * 37 + 11) as u8).collect();
            for len in 0..=bytes.len() {
                assert_eq!(
                    frame_tag(&bytes[..len]),
                    reference_tag(&bytes[..len]),
                    "length {len}"
                );
            }
        }

        #[test]
        fn every_single_bit_flip_is_rejected() {
            // Length word, kind, payload and tag of a small frame of every
            // kind: a flip in the length word is a typed length error, any
            // other flip a bad checksum. Nothing flipped ever opens, and a
            // reader never hands one to a session.
            for (kind, clean) in small_frames() {
                assert!(open_frame(&clean).is_ok(), "{kind}");
                for bit in 0..clean.len() * 8 {
                    let mut frame = clean.clone();
                    frame[bit / 8] ^= 1 << (bit % 8);
                    let err = open_frame(&frame).unwrap_err();
                    if bit < 32 {
                        assert!(
                            matches!(
                                err,
                                MessageError::ShortRead { .. }
                                    | MessageError::LengthOverflow { .. }
                            ),
                            "{kind}, bit {bit}: {err:?}"
                        );
                    } else {
                        assert_eq!(err, MessageError::BadChecksum, "{kind}, bit {bit}");
                    }
                    assert!(
                        read_all(&frame, 16).iter().all(Result::is_err),
                        "{kind}, bit {bit}: a reader yielded the frame"
                    );
                }
            }
        }

        #[test]
        fn every_two_bit_flip_is_rejected() {
            // Without the fold, bit 63 of two words (or of a word and of
            // the tag) cancels; these frames have byte tails too.
            for (kind, clean) in small_frames() {
                let bits = clean.len() * 8;
                for i in 0..bits {
                    for j in i + 1..bits {
                        let mut frame = clean.clone();
                        frame[i / 8] ^= 1 << (i % 8);
                        frame[j / 8] ^= 1 << (j % 8);
                        assert!(
                            open_frame(&frame).is_err(),
                            "{kind}: bits {i} and {j} flipped, frame accepted"
                        );
                    }
                }
            }
        }

        #[test]
        fn empty_vector_roundtrip() {
            let frame = encoded(0, 0, &Vector::zeros(0));
            let mut params = Vector::from(vec![1.0]);
            assert_eq!(decoded(&frame, &mut params), Ok((0, 0)));
            assert!(params.is_empty());
        }

        #[test]
        fn detects_truncation() {
            let frame = encoded(1, 2, &Vector::from(vec![1.0, 2.0]));
            // Cut inside the frame: the length word no longer fits.
            assert_eq!(
                open_frame(&frame[..frame.len() - 9]),
                Err(MessageError::ShortRead {
                    needed: frame.len(),
                    got: frame.len() - 9
                })
            );
            // A payload cut inside the coordinates.
            let (_, payload) = open_frame(&frame).unwrap();
            let mut params = Vector::default();
            assert_eq!(
                decode_step(&payload[..payload.len() - 3], &mut params),
                Err(MessageError::ShortRead {
                    needed: payload.len(),
                    got: payload.len() - 3
                })
            );
            // Below even the length word.
            assert_eq!(
                open_frame(b"xy"),
                Err(MessageError::ShortRead { needed: 4, got: 2 })
            );
        }

        #[test]
        fn detects_length_overflow() {
            // A hostile coordinate count must be rejected before the
            // decoder allocates for it, even in a correctly tagged frame.
            let mut payload = Vec::new();
            for word in [1u32, 2, u32::MAX] {
                payload.extend(word.to_le_bytes());
            }
            payload.extend([0; 16]);
            let frame = super::frame(KIND_STEP, &payload);
            let mut params = Vector::default();
            assert_eq!(
                decoded(&frame, &mut params),
                Err(MessageError::LengthOverflow {
                    declared: u32::MAX as usize,
                    limit: MAX_WIRE_DIM,
                })
            );
            // The target buffer was never resized toward the bogus dim.
            assert!(params.is_empty());
        }

        #[test]
        fn corrupting_each_field_is_detected() {
            // Corrupt every field in isolation and check the typed
            // rejection. A changed length word surfaces as ShortRead or
            // LengthOverflow (caught before the checksum); every other
            // field, the coordinate count included, is under the tag.
            let clean = encoded(5, 11, &Vector::from(vec![1.0, -2.0]));
            let corrupt = |at: usize, bit: u8| {
                let mut frame = clean.to_vec();
                frame[at] ^= bit;
                open_frame(&frame).unwrap_err()
            };
            // Length word low byte (byte 0, 37 → 36): the frame no longer
            // matches.
            assert_eq!(
                corrupt(0, 0x01),
                MessageError::ShortRead {
                    needed: clean.len() - 1,
                    got: clean.len(),
                }
            );
            // Length word high byte (byte 3): above the cap.
            assert_eq!(
                corrupt(3, 0x80),
                MessageError::LengthOverflow {
                    declared: clean.len() - 4 + (0x80 << 24),
                    limit: MAX_FRAME_LEN,
                }
            );
            // The kind (byte 4), step (5), batch (9) and dim (13) words.
            for at in [4, 5, 9, 13] {
                assert_eq!(corrupt(at, 0x01), MessageError::BadChecksum, "byte {at}");
            }
            // A coordinate (first byte of coord 1).
            assert_eq!(
                corrupt(5 + STEP_HEADER + 8, 0xFF),
                MessageError::BadChecksum
            );
            // The tag itself (last byte).
            assert_eq!(corrupt(clean.len() - 1, 0x01), MessageError::BadChecksum);
        }

        #[test]
        fn detects_corruption() {
            let mut frame = encoded(1, 2, &Vector::from(vec![1.0, 2.0]));
            frame[5 + STEP_HEADER + 3] ^= 0xFF; // flip a coordinate byte in place
            assert_eq!(open_frame(&frame), Err(MessageError::BadChecksum));
        }

        #[test]
        fn detects_header_tampering() {
            // Flipping the kind byte must break the tag: integrity covers
            // the whole frame after the length word.
            let mut frame = encoded(1, 2, &Vector::from(vec![1.0]));
            frame[4] = KIND_DONE;
            assert_eq!(open_frame(&frame), Err(MessageError::BadChecksum));
        }

        #[test]
        fn read_array_reports_short_frames() {
            assert_eq!(read_array::<4>(&[1, 0, 0, 0], 0), Ok([1, 0, 0, 0]));
            assert_eq!(
                read_array::<8>(&[0; 4], 0),
                Err(MessageError::ShortRead { needed: 8, got: 4 })
            );
            // Offset near usize::MAX must not overflow into a bogus range.
            assert_eq!(
                read_array::<4>(&[0; 8], usize::MAX),
                Err(MessageError::ShortRead {
                    needed: usize::MAX,
                    got: 8
                })
            );
        }

        #[test]
        fn error_display() {
            assert!(MessageError::ShortRead { needed: 20, got: 2 }
                .to_string()
                .contains("truncated"));
            assert!(MessageError::LengthOverflow {
                declared: 1 << 30,
                limit: MAX_WIRE_DIM
            }
            .to_string()
            .contains("cap"));
            assert!(MessageError::BadChecksum.to_string().contains("integrity"));
            assert!(MessageError::Misattributed
                .to_string()
                .contains("another worker"));
        }

        proptest! {
            #[test]
            fn prop_roundtrip(
                step in 0u32..1000,
                batch in 0u32..100_000,
                coords in proptest::collection::vec(-1e9..1e9f64, 0..64),
            ) {
                let v = Vector::from(coords);
                let mut params = Vector::from(vec![5.0; 3]);
                let header = decoded(&encoded(step, batch, &v), &mut params).unwrap();
                prop_assert_eq!(header, (step, batch));
                prop_assert_eq!(params, v);
            }
        }
    }
}
