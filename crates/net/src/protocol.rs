//! The TCP session layer: length-prefixed frames over `std::net`.
//!
//! Every message between coordinator and worker is one frame:
//!
//! ```text
//! [len: u32 LE][kind: u8][payload: len − 1 bytes]
//! ```
//!
//! where `len` counts everything after the length word (so a payload-free
//! frame has `len = 1`). Every vector travels as one *vector frame*
//! ([`encode_vec_frame`] / [`decode_vec_frame`]),
//!
//! ```text
//! [a: u32 LE][b: u32 LE][dim: u32 LE][coords: dim × f64 LE][tag: u64 LE]
//! ```
//!
//! with `(a, b) = (step, batch_size)` in a `STEP` broadcast and
//! `(worker_id, step)` in a `GRAD` report. `tag` is a checksum over
//! everything before it: FNV-1a's xor-then-multiply run over 8-byte
//! little-endian words (the `len mod 8` byte tail bytewise), each
//! multiply followed by an xor-shift fold of the high half into the low
//! half. Every step is a bijection of the 64-bit state, so any change
//! confined to one 8-byte word is detected with certainty, and the fold
//! keeps every two-bit flip detected too (the tests flip every bit and
//! every pair of bits of a small frame). The paper's channels guarantee
//! only integrity and authentication (Remark 1), not secrecy.
//!
//! Both endpoints read through [`FrameReader`]: it owns one recycled
//! `Vec<u8>`, fills it from the socket (the coordinator's nonblocking
//! ones, or the worker's blocking one with a read timeout), and pops
//! complete frames as index ranges into that buffer — steady-state
//! reception allocates nothing once the buffer has grown to the session's
//! frame size.

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
/// Coordinator → workers: the round broadcast. Payload: one vector frame
/// carrying `(step, batch_size, params)`.
pub const KIND_STEP: u8 = 4;
/// Worker → coordinator: the round report. Payload:
/// `[batch_loss: f64 LE][sub_len: u32 LE]` followed by the *submitted*
/// gradient's vector frame (`sub_len` bytes, carrying
/// `(worker_id, step)`) and the *pre-noise* gradient's vector frame (the
/// remainder — the simulator-only VN diagnostic channel; a
/// real deployment would omit it, see `docs/DEPLOYMENT.md`).
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

/// Largest coordinate count a vector-frame decoder accepts. Caps what a
/// corrupted or hostile length prefix can make [`decode_vec_frame`]
/// allocate (2²⁴ × 8 B = 128 MiB) — far above any model this repo
/// trains, far below a `u32`'s worth of `f64`s.
pub const MAX_WIRE_DIM: usize = 1 << 24;

/// Frame decode failures, typed by cause so transports can react
/// differently: a short read may mean "wait for more bytes", a length
/// overflow or bad checksum means the frame (and probably the peer) is
/// garbage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MessageError {
    /// The frame's byte count does not match what its layout requires —
    /// either below the layout's minimum (a zero-length frame lacks even
    /// its kind byte), or inconsistent with the declared coordinate count.
    ShortRead {
        /// Bytes the layout requires.
        needed: usize,
        /// Bytes actually presented.
        got: usize,
    },
    /// A declared size exceeds its cap — a vector frame's coordinate
    /// count above [`MAX_WIRE_DIM`], or a frame's length word above
    /// [`MAX_FRAME_LEN`] — treated as corruption before any allocation or
    /// buffering happens.
    LengthOverflow {
        /// The size the frame declared.
        declared: usize,
        /// The decoder's cap.
        limit: usize,
    },
    /// The integrity tag did not match.
    BadChecksum,
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

const VEC_HEADER: usize = 4 + 4 + 4;
const VEC_TAG: usize = 8;

const TAG_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const TAG_PRIME: u64 = 0x0000_0100_0000_01B3;

/// The vector-frame integrity tag: FNV-1a's xor-then-multiply over
/// 8-byte little-endian words, each multiply followed by the fold
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

/// Encodes the vector frame `[a][b][dim][coords][tag]` into `buf`,
/// clearing it first. The buffer's allocation is reused, so at steady
/// state (same dimension every round) encoding allocates nothing.
pub fn encode_vec_frame(a: u32, b: u32, v: &Vector, buf: &mut BytesMut) {
    // lint:begin(zero-copy)
    buf.clear();
    buf.put_u32_le(a);
    buf.put_u32_le(b);
    buf.put_u32_le(v.dim() as u32);
    for &x in v.iter() {
        buf.put_f64_le(x);
    }
    let tag = frame_tag(buf);
    buf.put_u64_le(tag);
    // lint:end(zero-copy)
}

/// Decodes and verifies a vector frame into `v`, returning its two header
/// words. `v` is resized in place (a no-op at steady state) and refilled
/// from the length-checked coordinate bytes, 8 at a time; the tag covers
/// header and payload and is checked after parsing. On error `v` is left
/// in an unspecified but valid state.
///
/// # Errors
///
/// [`MessageError::ShortRead`] on length-inconsistent frames,
/// [`MessageError::LengthOverflow`] if the declared coordinate count
/// exceeds [`MAX_WIRE_DIM`] (checked before `v` is resized),
/// [`MessageError::BadChecksum`] if the integrity tag mismatches.
pub fn decode_vec_frame(frame: &[u8], v: &mut Vector) -> Result<(u32, u32), MessageError> {
    // lint:begin(zero-copy)
    if frame.len() < VEC_HEADER + VEC_TAG {
        return Err(MessageError::ShortRead {
            needed: VEC_HEADER + VEC_TAG,
            got: frame.len(),
        });
    }
    let a = u32::from_le_bytes(read_array(frame, 0)?);
    let b = u32::from_le_bytes(read_array(frame, 4)?);
    let dim = u32::from_le_bytes(read_array(frame, 8)?) as usize;
    if dim > MAX_WIRE_DIM {
        return Err(MessageError::LengthOverflow {
            declared: dim,
            limit: MAX_WIRE_DIM,
        });
    }
    let needed = VEC_HEADER + dim * 8 + VEC_TAG;
    if frame.len() != needed {
        return Err(MessageError::ShortRead {
            needed,
            got: frame.len(),
        });
    }
    // The length check above makes both splits exact: `dim` coordinates
    // of 8 bytes between the header and the tag.
    let (body, tag) = frame.split_at_checked(needed - VEC_TAG).unwrap_or_default();
    let coords = body.get(VEC_HEADER..).unwrap_or_default();
    v.resize(dim, 0.0);
    for (coord, bytes) in v.as_mut_slice().iter_mut().zip(coords.chunks_exact(8)) {
        let mut x = [0u8; 8];
        x.copy_from_slice(bytes);
        *coord = f64::from_le_bytes(x);
    }
    if u64::from_le_bytes(read_array(tag, 0)?) != frame_tag(body) {
        return Err(MessageError::BadChecksum);
    }
    // lint:end(zero-copy)
    Ok((a, b))
}

/// Wire size of a [`KIND_GRAD`] frame at dimension `dim`, length word
/// included: the largest frame a run at that dimension sends (a `STEP`
/// carries one vector frame, a `GRAD` two plus the loss/length prelude).
pub const fn grad_frame_len(dim: usize) -> usize {
    4 + 1 + 8 + 4 + 2 * (VEC_HEADER + dim * 8 + VEC_TAG)
}

/// Largest acceptable frame `len`: the `GRAD` layout at [`MAX_WIRE_DIM`]
/// coordinates, less the length word itself. A corrupted or hostile
/// length prefix above this is rejected before any buffering happens.
pub const MAX_FRAME_LEN: usize = grad_frame_len(MAX_WIRE_DIM) - 4;

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

    /// Pops the next complete frame, if one has fully arrived, as
    /// `(kind, payload)`. The payload borrows the reader's buffer — copy
    /// or decode it before the next `fill`/`next_frame` call.
    ///
    /// # Errors
    ///
    /// [`MessageError`] when the length word is zero or above
    /// [`MAX_FRAME_LEN`]; the connection should be dropped
    /// (resynchronization is impossible).
    pub fn next_frame(&mut self) -> Result<Option<(u8, &[u8])>, MessageError> {
        let avail = self.filled.saturating_sub(self.start);
        if avail < 4 {
            return Ok(None);
        }
        let Some(header) = self
            .buf
            .get(self.start..self.start + 4)
            .and_then(|bytes| <[u8; 4]>::try_from(bytes).ok())
        else {
            return Ok(None);
        };
        let len = u32::from_le_bytes(header) as usize;
        if len == 0 {
            return Err(MessageError::ShortRead { needed: 1, got: 0 });
        }
        if len > MAX_FRAME_LEN {
            return Err(MessageError::LengthOverflow {
                declared: len,
                limit: MAX_FRAME_LEN,
            });
        }
        if avail < 4 + len {
            return Ok(None);
        }
        let payload_start = self.start + 5;
        let payload_end = self.start + 4 + len;
        let (Some(&kind), Some(payload)) = (
            self.buf.get(self.start + 4),
            self.buf.get(payload_start..payload_end),
        ) else {
            // Unreachable while `filled <= buf.len()` holds, but a
            // hostile-input path never indexes on faith.
            return Ok(None);
        };
        self.start = payload_end;
        if self.start == self.filled {
            self.start = 0;
            self.filled = 0;
        }
        Ok(Some((kind, payload)))
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

/// Why a GRAD payload was rejected. Either way the connection is
/// dropped; the typed split keeps hostile-frame handling testable field
/// by field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GradDecodeError {
    /// The prelude or an embedded vector frame was short, oversized, or
    /// failed integrity.
    Frame(MessageError),
    /// Both embedded frames decoded but named another worker's id, or
    /// disagreed on the step.
    Misattributed,
}

impl From<MessageError> for GradDecodeError {
    fn from(e: MessageError) -> Self {
        GradDecodeError::Frame(e)
    }
}

impl fmt::Display for GradDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GradDecodeError::Frame(e) => write!(f, "gradient frame: {e}"),
            GradDecodeError::Misattributed => {
                write!(f, "gradient frame attributed to the wrong worker or step")
            }
        }
    }
}

impl std::error::Error for GradDecodeError {}

/// Reads the `(worker_id, step)` tag of a GRAD payload without decoding
/// the vectors — what the receive path hands [`GradGuard::admit`] so a
/// stale or duplicated frame is classified *before* anything touches the
/// output slot.
///
/// # Errors
///
/// [`MessageError::ShortRead`] when the payload is too short to carry
/// the embedded submitted-gradient header.
pub fn peek_grad(payload: &[u8]) -> Result<(u32, u32), MessageError> {
    // GRAD layout: [loss: f64][sub_len: u32][submitted frame …] and the
    // embedded vector frame leads with [worker_id: u32][step: u32].
    let wid = u32::from_le_bytes(read_array(payload, 12)?);
    let step = u32::from_le_bytes(read_array(payload, 16)?);
    Ok((wid, step))
}

/// Decodes a GRAD payload into the worker's output slot, returning the
/// reported step. Every field read is bounds-checked: a peer that
/// truncates the loss/length prelude or either embedded vector frame gets
/// a typed [`MessageError::ShortRead`], never a panic. Both vectors must
/// have the run's dimension `dim` ([`MessageError::DimMismatch`]) and
/// finite coordinates ([`MessageError::NonFinite`]), so what reaches the
/// GAR is what the aggregation rules accept. This holds for honest
/// reports too: on a diverging run the session drops them, the round
/// misses its quorum, and the run ends with a typed error, where the
/// in-process engine would aggregate the non-finite values. On error the
/// slot's vectors are left in an unspecified but valid state.
///
/// Call [`peek_grad`] + [`GradGuard::admit`] first: only
/// [`Admission::Fresh`] frames should reach the decode, so a duplicated
/// or reordered frame can never clobber a slot holding the current
/// round's report.
///
/// # Errors
///
/// See [`GradDecodeError`].
pub fn decode_grad(
    payload: &[u8],
    expect_id: u32,
    dim: usize,
    out: &mut WorkerOutput,
) -> Result<u32, GradDecodeError> {
    let batch_loss = f64::from_le_bytes(read_array(payload, 0)?);
    let sub_len = u32::from_le_bytes(read_array(payload, 8)?) as usize;
    let rest = payload.get(12..).unwrap_or_default();
    let (sub, pre) = rest
        .split_at_checked(sub_len)
        .ok_or(MessageError::ShortRead {
            needed: 12usize.saturating_add(sub_len),
            got: payload.len(),
        })?;
    let (wid, step) = decode_gradient_frame(sub, dim, &mut out.submitted)?;
    let (wid2, step2) = decode_gradient_frame(pre, dim, &mut out.pre_noise)?;
    if wid != expect_id || wid2 != expect_id || step != step2 {
        return Err(GradDecodeError::Misattributed);
    }
    out.batch_loss = batch_loss;
    Ok(step)
}

/// [`decode_vec_frame`] for one of a report's gradients: the declared
/// coordinate count must be `dim` (checked before `v` is resized), and
/// every coordinate must be finite (checked after the tag).
fn decode_gradient_frame(
    frame: &[u8],
    dim: usize,
    v: &mut Vector,
) -> Result<(u32, u32), MessageError> {
    let declared = u32::from_le_bytes(read_array(frame, 8)?) as usize;
    if declared != dim {
        return Err(MessageError::DimMismatch {
            expected: dim,
            got: declared,
        });
    }
    let header = decode_vec_frame(frame, v)?;
    // A branch-free pass over every report; the index only on rejection.
    if v.as_slice().iter().fold(true, |ok, x| ok & x.is_finite()) {
        return Ok(header);
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

/// Seals a frame begun with [`begin_frame`]: patches the length word to
/// cover everything after it.
///
/// # Panics
///
/// Panics if the frame (kind + payload) exceeds `u32::MAX` bytes.
pub fn end_frame(buf: &mut BytesMut) {
    // lint:allow(panic-unwrap, reason = "documented panic: locally built frames are capped by MAX_FRAME_LEN, far below u32::MAX")
    let len = u32::try_from(buf.len() - 4).expect("frame fits u32");
    if let Some(slot) = buf.get_mut(0..4) {
        slot.copy_from_slice(&len.to_le_bytes());
    }
}

/// Encodes worker `id`'s [`KIND_GRAD`] report for `step` from `out`.
/// `scratch` holds each embedded vector frame in turn; both buffers
/// recycle, so a steady-state report allocates nothing.
pub(crate) fn encode_grad(
    buf: &mut BytesMut,
    scratch: &mut BytesMut,
    id: u32,
    step: u32,
    out: &WorkerOutput,
) {
    begin_frame(buf, KIND_GRAD);
    buf.put_f64_le(out.batch_loss);
    encode_vec_frame(id, step, &out.submitted, scratch);
    buf.put_u32_le(scratch.len() as u32);
    buf.put_slice(scratch);
    encode_vec_frame(id, step, &out.pre_noise, scratch);
    buf.put_slice(scratch);
    end_frame(buf);
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
        let mut buf = bytes::BytesMut::with_capacity(5 + payload.len());
        begin_frame(&mut buf, kind);
        bytes::BufMut::put_slice(&mut buf, payload);
        end_frame(&mut buf);
        buf.to_vec()
    }

    #[test]
    fn frames_reassemble_across_arbitrary_segmentation() {
        let mut wire = Vec::new();
        wire.extend(frame(KIND_JOIN, &7u32.to_le_bytes()));
        wire.extend(frame(KIND_WARMUP, &[]));
        wire.extend(frame(KIND_GRAD, &[9; 100]));
        for chunk in [1, 2, 3, 7, 64, 4096] {
            let mut stream = ChunkedStream {
                data: wire.clone(),
                pos: 0,
                chunk,
            };
            let mut reader = FrameReader::new();
            let mut seen = Vec::new();
            loop {
                let n = reader.fill(&mut stream).unwrap();
                while let Some((kind, payload)) = reader.next_frame().unwrap() {
                    seen.push((kind, payload.to_vec()));
                }
                if n == 0 && stream.pos == stream.data.len() {
                    break;
                }
            }
            assert_eq!(
                seen,
                vec![
                    (KIND_JOIN, 7u32.to_le_bytes().to_vec()),
                    (KIND_WARMUP, Vec::new()),
                    (KIND_GRAD, vec![9; 100]),
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
        let mut reader = FrameReader::new();
        let mut stream = ChunkedStream {
            data: 0u32.to_le_bytes().to_vec(),
            pos: 0,
            chunk: 4,
        };
        reader.fill(&mut stream).unwrap();
        assert_eq!(
            reader.next_frame(),
            Err(MessageError::ShortRead { needed: 1, got: 0 })
        );
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
        // The peer dies mid-header: every prefix of a header is held as
        // an incomplete frame, and the close then surfaces as a typed
        // UnexpectedEof, never a panic or a bogus frame.
        let full = frame(KIND_STEP, &[0; 9]);
        for cut in 0..5 {
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

    /// A well-formed GRAD payload exactly as `run_worker` builds one:
    /// `[batch_loss: f64][sub_len: u32]` + submitted frame + pre-noise
    /// frame.
    fn grad_payload(id: u32, step: u32, pre_id: u32, pre_step: u32) -> Vec<u8> {
        report_payload((id, step, &[1.0, -2.0]), (pre_id, pre_step, &[0.5, 0.25]))
    }

    /// A GRAD payload from `(worker_id, step, coordinates)` of the
    /// submitted and the pre-noise vector, each frame correctly tagged.
    fn report_payload(sub: (u32, u32, &[f64]), pre: (u32, u32, &[f64])) -> Vec<u8> {
        use bytes::BufMut;
        let mut sub_frame = bytes::BytesMut::default();
        let mut pre_frame = bytes::BytesMut::default();
        encode_vec_frame(sub.0, sub.1, &Vector::from(sub.2.to_vec()), &mut sub_frame);
        encode_vec_frame(pre.0, pre.1, &Vector::from(pre.2.to_vec()), &mut pre_frame);
        let mut payload = bytes::BytesMut::default();
        payload.put_f64_le(0.125);
        payload.put_u32_le(sub_frame.len() as u32);
        payload.put_slice(&sub_frame);
        payload.put_slice(&pre_frame);
        payload.to_vec()
    }

    #[test]
    fn well_formed_grad_payload_decodes() {
        let payload = grad_payload(3, 7, 3, 7);
        let mut out = WorkerOutput::default();
        assert_eq!(decode_grad(&payload, 3, 2, &mut out), Ok(7));
        assert_eq!(out.batch_loss, 0.125);
        assert_eq!(out.submitted, Vector::from(vec![1.0, -2.0]));
        assert_eq!(out.pre_noise, Vector::from(vec![0.5, 0.25]));
        // The encoder's frame for the same report has the documented size.
        let (mut frame, mut scratch) = (BytesMut::default(), BytesMut::default());
        encode_grad(&mut frame, &mut scratch, 3, 7, &out);
        assert_eq!(frame.len(), grad_frame_len(2));
        assert_eq!(&frame[5..], &payload[..]);
    }

    #[test]
    fn short_prelude_is_a_typed_error_for_every_cut() {
        // Cut the payload inside the loss (bytes 0..8) and inside the
        // sub-length word (bytes 8..12): each prefix must surface
        // ShortRead, never a panic.
        let payload = grad_payload(3, 7, 3, 7);
        for cut in 0..12 {
            let needed = if cut < 8 { 8 } else { 12 };
            let mut out = WorkerOutput::default();
            assert_eq!(
                decode_grad(&payload[..cut], 3, 2, &mut out),
                Err(GradDecodeError::Frame(MessageError::ShortRead {
                    needed,
                    got: cut
                })),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn truncated_inner_frames_are_typed_errors() {
        let payload = grad_payload(3, 7, 3, 7);
        let mut out = WorkerOutput::default();
        // Truncating the trailing pre-noise frame: the embedded decoder
        // reports the shortfall.
        assert!(matches!(
            decode_grad(&payload[..payload.len() - 3], 3, 2, &mut out),
            Err(GradDecodeError::Frame(MessageError::ShortRead { .. }))
        ));
        // A sub_len word claiming more bytes than the payload carries.
        let mut lying = payload.clone();
        lying[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_grad(&lying, 3, 2, &mut out),
            Err(GradDecodeError::Frame(MessageError::ShortRead { .. }))
        ));
        // A sub_len word splitting the submitted frame mid-layout.
        let mut split = payload.clone();
        split[8..12].copy_from_slice(&5u32.to_le_bytes());
        assert!(matches!(
            decode_grad(&split, 3, 2, &mut out),
            Err(GradDecodeError::Frame(MessageError::ShortRead { .. }))
        ));
    }

    #[test]
    fn corrupted_inner_frame_fails_integrity() {
        let mut payload = grad_payload(3, 7, 3, 7);
        let at = payload.len() - 10; // inside the pre-noise frame
        payload[at] ^= 0xFF;
        let mut out = WorkerOutput::default();
        assert_eq!(
            decode_grad(&payload, 3, 2, &mut out),
            Err(GradDecodeError::Frame(MessageError::BadChecksum))
        );
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
            (
                &[1.0, -2.0],
                &[0.5],
                MessageError::DimMismatch {
                    expected: 2,
                    got: 1,
                },
            ),
        ];
        for (sub, pre, expected) in cases {
            let payload = report_payload((3, 7, sub), (3, 7, pre));
            let mut out = WorkerOutput::default();
            assert_eq!(
                decode_grad(&payload, 3, 2, &mut out),
                Err(GradDecodeError::Frame(expected.clone())),
                "{sub:?} / {pre:?}"
            );
        }
    }

    #[test]
    fn misattributed_reports_are_rejected() {
        let mut out = WorkerOutput::default();
        // Frames carrying another worker's id.
        let payload = grad_payload(4, 7, 4, 7);
        assert_eq!(
            decode_grad(&payload, 3, 2, &mut out),
            Err(GradDecodeError::Misattributed)
        );
        // Pre-noise frame naming a different worker than the submission.
        let payload = grad_payload(3, 7, 4, 7);
        assert_eq!(
            decode_grad(&payload, 3, 2, &mut out),
            Err(GradDecodeError::Misattributed)
        );
        // Frames disagreeing on the step.
        let payload = grad_payload(3, 7, 3, 8);
        assert_eq!(
            decode_grad(&payload, 3, 2, &mut out),
            Err(GradDecodeError::Misattributed)
        );
    }

    #[test]
    fn empty_payload_is_a_typed_error() {
        let mut out = WorkerOutput::default();
        assert_eq!(
            decode_grad(&[], 0, 2, &mut out),
            Err(GradDecodeError::Frame(MessageError::ShortRead {
                needed: 8,
                got: 0
            }))
        );
    }

    #[test]
    fn peek_reads_the_round_tag_without_decoding() {
        let payload = grad_payload(3, 7, 3, 7);
        assert_eq!(peek_grad(&payload), Ok((3, 7)));
        // Every prefix too short to carry the tag is a typed ShortRead.
        for cut in 0..20 {
            assert!(
                matches!(
                    peek_grad(&payload[..cut]),
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
        let payload = grad_payload(2, 5, 2, 5);
        let mut reader = FrameReader::new();
        let mut wire = frame(KIND_GRAD, &payload);
        wire.extend(frame(KIND_GRAD, &payload)); // duplicated on the link
        let mut stream = ChunkedStream {
            data: wire,
            pos: 0,
            chunk: 64,
        };
        while reader.fill(&mut stream).unwrap() > 0 {}
        let mut guard = GradGuard::new(4);
        let mut admissions = Vec::new();
        while let Some((kind, frame_payload)) = reader.next_frame().unwrap() {
            assert_eq!(kind, KIND_GRAD);
            let (wid, step) = peek_grad(frame_payload).unwrap();
            admissions.push(guard.admit(wid, step, 5));
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

    /// The vector-frame codec: round trips, buffer reuse, and typed
    /// rejection of every malformed frame.
    mod vec_frame {
        use super::*;
        use proptest::prelude::*;

        fn encoded(a: u32, b: u32, v: &Vector) -> BytesMut {
            let mut frame = BytesMut::default();
            encode_vec_frame(a, b, v, &mut frame);
            frame
        }

        #[test]
        fn roundtrip() {
            // A gradient's header: (worker_id, step).
            let v = Vector::from(vec![1.5, -2.25, 0.0]);
            let mut decoded = Vector::default();
            assert_eq!(
                decode_vec_frame(&encoded(3, 42, &v), &mut decoded),
                Ok((3, 42))
            );
            assert_eq!(decoded, v);
        }

        #[test]
        fn step_header_roundtrip() {
            // A broadcast's header: (step, batch_size), decoded into a
            // dirty parameter vector of the wrong dimension.
            let v = Vector::from(vec![1.0, -0.125, 3.5]);
            let mut params = Vector::from(vec![0.0; 9]);
            assert_eq!(
                decode_vec_frame(&encoded(7, 25, &v), &mut params),
                Ok((7, 25))
            );
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
            encode_vec_frame(3, 42, &v, &mut frame);
            assert_eq!(&frame[..], &encoded(3, 42, &v)[..]);
            let mut decoded = Vector::from(vec![9.0; 7]); // dirty, wrong dim
            assert_eq!(decode_vec_frame(&frame, &mut decoded), Ok((3, 42)));
            assert_eq!(decoded, v);
            let v2 = Vector::from(vec![0.25, 7.0, -1.0]);
            encode_vec_frame(4, 43, &v2, &mut frame);
            assert_eq!(decode_vec_frame(&frame, &mut decoded), Ok((4, 43)));
            assert_eq!(decoded, v2);
        }

        #[test]
        fn frame_bytes_follow_the_documented_layout() {
            let v = Vector::from(vec![0.5, -0.5]);
            let mut expected = Vec::new();
            for word in [9u32, 17, 2] {
                expected.extend(word.to_le_bytes());
            }
            for x in [0.5f64, -0.5] {
                expected.extend(x.to_le_bytes());
            }
            // The tag of these 28 bytes, computed outside this crate.
            expected.extend(0x6664_5ac0_ceea_2251u64.to_le_bytes());
            assert_eq!(&encoded(9, 17, &v)[..], &expected[..]);
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
            // Header, coordinates and tag of a two-coordinate frame: a flip
            // in the `dim` word is a typed length error, any other flip a
            // bad checksum. Nothing flipped ever decodes.
            let clean = encoded(5, 11, &Vector::from(vec![1.0, -2.0]));
            let mut decoded = Vector::default();
            for bit in 0..clean.len() * 8 {
                let mut frame = clean.to_vec();
                frame[bit / 8] ^= 1 << (bit % 8);
                let err = decode_vec_frame(&frame, &mut decoded).unwrap_err();
                if (8..12).contains(&(bit / 8)) {
                    assert!(
                        matches!(
                            err,
                            MessageError::ShortRead { .. } | MessageError::LengthOverflow { .. }
                        ),
                        "bit {bit}: {err:?}"
                    );
                } else {
                    assert_eq!(err, MessageError::BadChecksum, "bit {bit}");
                }
            }
        }

        #[test]
        fn every_two_bit_flip_is_rejected() {
            // Without the fold, bit 63 of two words (or of a word and of
            // the tag) cancels; this frame has a 4-byte tail too.
            let clean = encoded(5, 11, &Vector::from(vec![1.0, -2.0]));
            let bits = clean.len() * 8;
            let mut decoded = Vector::default();
            for i in 0..bits {
                for j in i + 1..bits {
                    let mut frame = clean.to_vec();
                    frame[i / 8] ^= 1 << (i % 8);
                    frame[j / 8] ^= 1 << (j % 8);
                    assert!(
                        decode_vec_frame(&frame, &mut decoded).is_err(),
                        "bits {i} and {j} flipped, frame accepted"
                    );
                }
            }
        }

        #[test]
        fn empty_vector_roundtrip() {
            let frame = encoded(0, 0, &Vector::zeros(0));
            let mut decoded = Vector::from(vec![1.0]);
            assert_eq!(decode_vec_frame(&frame, &mut decoded), Ok((0, 0)));
            assert!(decoded.is_empty());
        }

        #[test]
        fn detects_truncation() {
            let frame = encoded(1, 2, &Vector::from(vec![1.0, 2.0]));
            let mut decoded = Vector::default();
            // Cut inside the payload: the declared dim no longer fits.
            assert_eq!(
                decode_vec_frame(&frame[..frame.len() - 9], &mut decoded),
                Err(MessageError::ShortRead {
                    needed: frame.len(),
                    got: frame.len() - 9
                })
            );
            // Below even the fixed header+tag minimum.
            assert_eq!(
                decode_vec_frame(b"xy", &mut decoded),
                Err(MessageError::ShortRead { needed: 20, got: 2 })
            );
        }

        #[test]
        fn detects_length_overflow() {
            // A corrupted length prefix claiming a huge payload must be
            // rejected before the decoder allocates for it: the dim field
            // is absurd but the total length passes the header+tag
            // minimum.
            let mut frame = encoded(1, 2, &Vector::from(vec![1.0, 2.0]));
            frame[8..12].copy_from_slice(&(u32::MAX).to_le_bytes());
            let mut decoded = Vector::default();
            assert_eq!(
                decode_vec_frame(&frame, &mut decoded),
                Err(MessageError::LengthOverflow {
                    declared: u32::MAX as usize,
                    limit: MAX_WIRE_DIM,
                })
            );
            // The target buffer was never resized toward the bogus dim.
            assert!(decoded.is_empty());
        }

        #[test]
        fn corrupting_each_field_is_detected() {
            // Corrupt every field in isolation and check the typed
            // rejection. Length-affecting corruption surfaces as
            // ShortRead/LengthOverflow (caught before the checksum);
            // value corruption surfaces as BadChecksum.
            let clean = encoded(5, 11, &Vector::from(vec![1.0, -2.0]));
            let mut decoded = Vector::default();
            let mut corrupt = |at: usize, bit: u8| {
                let mut frame = clean.to_vec();
                frame[at] ^= bit;
                decode_vec_frame(&frame, &mut decoded).unwrap_err()
            };
            // Header words a (byte 0) and b (byte 4): covered by the tag.
            assert_eq!(corrupt(0, 0x01), MessageError::BadChecksum);
            assert_eq!(corrupt(4, 0x01), MessageError::BadChecksum);
            // dim low byte (byte 8): the frame length no longer matches.
            assert_eq!(
                corrupt(8, 0x01),
                MessageError::ShortRead {
                    needed: VEC_HEADER + 3 * 8 + VEC_TAG,
                    got: clean.len(),
                }
            );
            // dim high byte (byte 11): the declared count blows past the cap.
            assert_eq!(
                corrupt(11, 0x80),
                MessageError::LengthOverflow {
                    declared: 2 + (0x80 << 24),
                    limit: MAX_WIRE_DIM,
                }
            );
            // A payload coordinate (first byte of coord 1).
            assert_eq!(corrupt(VEC_HEADER + 8, 0xFF), MessageError::BadChecksum);
            // The tag itself (last byte).
            assert_eq!(corrupt(clean.len() - 1, 0x01), MessageError::BadChecksum);
        }

        #[test]
        fn detects_corruption() {
            let mut frame = encoded(1, 2, &Vector::from(vec![1.0, 2.0]));
            frame[VEC_HEADER + 3] ^= 0xFF; // flip a payload bit in place
            let mut decoded = Vector::default();
            assert_eq!(
                decode_vec_frame(&frame, &mut decoded),
                Err(MessageError::BadChecksum)
            );
        }

        #[test]
        fn detects_header_tampering() {
            // Flipping the first header word must break the tag: integrity
            // covers the whole frame.
            let mut frame = encoded(1, 2, &Vector::from(vec![1.0]));
            frame[0] ^= 0x01;
            let mut decoded = Vector::default();
            assert_eq!(
                decode_vec_frame(&frame, &mut decoded),
                Err(MessageError::BadChecksum)
            );
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
        }

        proptest! {
            #[test]
            fn prop_roundtrip(
                a in 0u32..1000,
                b in 0u32..100_000,
                coords in proptest::collection::vec(-1e9..1e9f64, 0..64),
            ) {
                let v = Vector::from(coords);
                let mut decoded = Vector::from(vec![5.0; 3]);
                let header = decode_vec_frame(&encoded(a, b, &v), &mut decoded).unwrap();
                prop_assert_eq!(header, (a, b));
                prop_assert_eq!(decoded, v);
            }
        }
    }
}
