//! The TCP [`Transport`]: a single-threaded nonblocking socket loop
//! behind the generic [`drive`] control flow.
//!
//! Division of labour:
//!
//! * the **machine** decides *when* — joins, warmups, step advances,
//!   straggler drops, aborts — from events and virtual time alone;
//! * the **core** decides *what* — forgeries, fault semantics,
//!   aggregation, the model update — exactly as the in-process engines
//!   drive it, which is what makes the TCP run's history bit-identical;
//! * the **session** (`session.rs`) decides *who may speak* — the
//!   join gate, `JOIN_FRESH`, token-checked `REJOIN` with resume-ring
//!   replay, gradient admission, ahead-of-round buffering — the one
//!   handler the [`SimNet`](crate::sim::SimNet) transport runs too;
//! * this transport only accepts, reads, writes and closes sockets.
//!
//! Churn handling: a dead socket is **not** permanent. The transport
//! reports it to the session as a detach (the machine keeps the worker
//! joined, zeroing its rounds like a straggler's), keeps accepting
//! connections in every live phase, and hands each new connection's
//! first frame to the session, which may bind it to a slot and name the
//! broadcasts to replay down it. A protocol violation closes the socket.
//!
//! The loop is allocation-disciplined: per-connection [`FrameReader`]s,
//! the session's broadcast scratch and recycled ring and ahead-of-round
//! buffers, the output slots from the shared [`RunScratch`], and the
//! machine's recycled action/straggler buffers are all reused round
//! after round. The counting-allocator integration test pins the steady
//! state (tolerating only what the OS charges for socket buffering).
//!
//! [`RunScratch`]: dpbyz_server::RunScratch

use crate::machine::{Event, MachineConfig, Phase};
use crate::protocol::{elapsed_ms, write_all_frame, FrameReader};
use crate::session::{Broadcast, Session, Verdict};
use crate::transport::{drive, CoordinatorError, Replay, Transport};
use dpbyz_server::{RunHistory, RunScratch, ServerCore, WorkerOutput};
use dpbyz_tensor::Vector;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// One joined connection: the socket plus its reassembly buffer.
struct Conn {
    stream: TcpStream,
    reader: FrameReader,
}

impl Conn {
    fn new(stream: TcpStream) -> io::Result<Self> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            reader: FrameReader::new(),
        })
    }

    /// Reads everything the socket has without blocking, noting any
    /// bytes in `progressed`. `false` once the peer is gone (EOF or a
    /// socket error); frames already buffered stay readable.
    fn fill(&mut self, progressed: &mut bool) -> bool {
        loop {
            match self.reader.fill(&mut self.stream) {
                Ok(0) => return true,
                Ok(_) => *progressed = true,
                Err(_) => return false,
            }
        }
    }
}

/// The TCP parameter server. Bind first (so workers have an address to
/// connect to), then [`TcpCoordinator::run`] one training run over it.
pub struct TcpCoordinator {
    listener: TcpListener,
}

impl TcpCoordinator {
    /// Binds the listening socket. `127.0.0.1:0` picks a free local port
    /// — read it back with [`TcpCoordinator::local_addr`].
    ///
    /// # Errors
    ///
    /// Socket-level bind failures.
    pub fn bind(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(TcpCoordinator { listener })
    }

    /// The bound address workers must connect to.
    ///
    /// # Errors
    ///
    /// As [`TcpListener::local_addr`].
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Runs one training run over the wire: accepts `machine.n_workers`
    /// worker sessions, walks the state machine through
    /// `WaitingForWorkers → Warmup → (Train → Aggregate)* → Done`, and
    /// seals the [`RunHistory`]. The last `resume_window` broadcasts are
    /// kept for `REJOIN` replay.
    ///
    /// `machine` comes from
    /// [`Deployment::resolve`](crate::backend::Deployment::resolve),
    /// `core` from
    /// [`Trainer::into_distributed_parts`](dpbyz_server::Trainer::into_distributed_parts);
    /// buffers recycle through `scratch` exactly as the in-process
    /// engines do.
    ///
    /// # Errors
    ///
    /// See [`CoordinatorError`].
    pub fn run(
        self,
        core: ServerCore,
        machine: MachineConfig,
        resume_window: usize,
        seed: u64,
        scratch: &mut RunScratch,
    ) -> Result<RunHistory, CoordinatorError> {
        let n = machine.n_workers;
        let mut transport = TcpTransport {
            listener: self.listener,
            start: Instant::now(),
            conns: (0..n).map(|_| None).collect(),
            pending: Vec::new(),
            session: Session::new(
                n,
                seed,
                resume_window,
                machine.staleness_window,
                core.params().dim(),
            ),
            dead_pending: Vec::new(),
        };
        drive(&mut transport, core, machine, seed, scratch)
    }
}

/// The socket-side state behind [`TcpCoordinator::run`].
struct TcpTransport {
    listener: TcpListener,
    start: Instant,
    /// Attached connections by slot, in step with the session's
    /// attached set.
    conns: Vec<Option<Conn>>,
    /// Connections whose handshake has not arrived yet.
    pending: Vec<Conn>,
    session: Session,
    /// Connections lost during a broadcast (no events buffer in scope
    /// there): reported as detaches at the next poll.
    dead_pending: Vec<u32>,
}

impl Transport for TcpTransport {
    fn now_ms(&mut self) -> u64 {
        elapsed_ms(self.start)
    }

    fn poll(
        &mut self,
        phase: Phase,
        outputs: &mut [WorkerOutput],
        events: &mut Vec<Event>,
    ) -> io::Result<bool> {
        let mut progressed = false;
        // Sockets lost mid-broadcast surface here, one poll later.
        for id in self.dead_pending.drain(..) {
            self.session.detach(id, events);
        }
        self.session.admit_ahead(phase, outputs, events);

        // Accept connections in every live phase: the session decides
        // which handshakes each phase admits.
        if !matches!(phase, Phase::Done | Phase::Aborted) {
            loop {
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        if let Ok(conn) = Conn::new(stream) {
                            self.pending.push(conn);
                            progressed = true;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
        }

        // A pending connection's first frame is its handshake: the
        // session binds it to a slot or it is dropped.
        let mut i = 0;
        while let Some(conn) = self.pending.get_mut(i) {
            let verdict = if conn.fill(&mut progressed) {
                match conn.reader.next_frame() {
                    Ok(None) => {
                        i += 1;
                        continue;
                    }
                    Ok(Some((kind, payload))) => self
                        .session
                        .handle(None, kind, payload, phase, outputs, events),
                    Err(_) => Verdict::Violation,
                }
            } else {
                Verdict::Violation
            };
            let mut conn = self.pending.swap_remove(i);
            if let Verdict::Attach(id, replay) = verdict {
                progressed = true;
                let alive = write_replay(&mut conn.stream, replay);
                if let Some(entry) = self.conns.get_mut(id as usize) {
                    // The newest connection is the session: it displaces
                    // any half-dead predecessor.
                    *entry = alive.then_some(conn);
                }
                if !alive {
                    self.session.detach(id, events);
                }
            }
        }

        // Drain every attached connection. Frames that arrived before an
        // EOF are still handled; a violation drops the socket at once.
        for (id, slot) in self.conns.iter_mut().enumerate() {
            let Some(conn) = slot.as_mut() else {
                continue;
            };
            let id = id as u32;
            let mut dead = !conn.fill(&mut progressed);
            loop {
                let (kind, payload) = match conn.reader.next_frame() {
                    Ok(Some(frame)) => frame,
                    Ok(None) => break,
                    Err(_) => {
                        dead = true;
                        break;
                    }
                };
                let alive =
                    match self
                        .session
                        .handle(Some(id), kind, payload, phase, outputs, events)
                    {
                        Verdict::Continue => true,
                        Verdict::Attach(_, replay) => write_replay(&mut conn.stream, replay),
                        Verdict::Violation => false,
                    };
                if !alive {
                    dead = true;
                    break;
                }
            }
            if dead {
                *slot = None;
                self.session.detach(id, events);
            }
        }

        Ok(progressed)
    }

    fn start_warmup(&mut self) {
        self.broadcast(Broadcast::Warmup);
    }

    fn broadcast_step(&mut self, step: u32, batch: u32, params: &Vector) {
        self.broadcast(Broadcast::Step {
            step,
            batch,
            params,
        });
    }

    fn finish(&mut self) {
        self.broadcast(Broadcast::Done);
    }

    fn abort(&mut self, reason: &str) {
        self.broadcast(Broadcast::Abort(reason));
    }

    fn idle(&mut self, _next_deadline_ms: Option<u64>) {
        // Single-core-friendly idle nap: long enough to let the worker
        // threads run, short against the ms deadlines.
        std::thread::sleep(Duration::from_micros(200));
    }
}

impl TcpTransport {
    /// Best-effort broadcast to every attached connection; a write
    /// failure drops the connection and queues its detach for the next
    /// [`Transport::poll`].
    fn broadcast(&mut self, msg: Broadcast<'_>) {
        let (conns, dead) = (&mut self.conns, &mut self.dead_pending);
        self.session.broadcast(msg, |id, frame| {
            let Some(slot) = conns.get_mut(id as usize) else {
                return;
            };
            if let Some(conn) = slot {
                if write_all_frame(&mut conn.stream, frame).is_err() {
                    *slot = None;
                    dead.push(id);
                }
            }
        });
    }
}

/// Writes a session replay down a connection; `false` if the socket
/// died on the way.
fn write_replay(stream: &mut TcpStream, replay: Option<Replay<'_>>) -> bool {
    replay
        .into_iter()
        .flatten()
        .all(|frame| write_all_frame(stream, frame).is_ok())
}
