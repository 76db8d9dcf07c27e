//! The thread pool type behind both multi-threaded hot paths, as two
//! pools with their own owners: the training engine's worker pool (owned
//! by the run's scratch; each pool thread claims honest workers from the
//! round the driving thread also works on, in runs whose per-worker work
//! is large enough) and the GAR's shard pool (a packet per shard, owned
//! by the GAR scratch and sized by `agg_threads`). Without `unsafe` a
//! persistent thread cannot borrow the caller's buffers, so each packet
//! owns its inputs and outputs and travels to its thread and back through
//! a one-slot mailbox. Packets stay with the pool between leases, so once
//! their buffers are warm a lease allocates nothing.
//!
//! A mailbox hand-off is a store on one side and a load on the other: a
//! waiting side spins on the mailbox's atomic state for [`SPIN_LIMIT`]
//! reads before it parks on a `Condvar`, and a writer notifies only a side
//! that has parked. A busy run therefore hands a round over without a
//! thread wake, and an idle pool thread stops spinning and burns no CPU.

use std::hint;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{JoinHandle, Thread};

/// A work packet a [`LeasePool`] thread runs: it owns its inputs and its
/// outputs, and [`Lease::run`] computes the second from the first.
pub trait Lease: Send + 'static {
    /// Runs the job on the pool thread.
    fn run(&mut self);
}

/// Reads of a mailbox's state a waiting side makes before it parks. One
/// read and a spin-loop hint took 15–18 ns on the 2-vCPU Xeon this was
/// tuned on, so this is a window of about 40–45 µs: longer than the gap
/// between two leases of a paper-scale run (its server step, about
/// 10 µs), and a pool left idle spins no longer than that. On that host
/// a window of 250 reads lost about 15 % of the paper cell's throughput
/// to thread wakes, while 2 500 to 100 000 reads were level; this is the
/// shortest window on that plateau.
const SPIN_LIMIT: u32 = 2_500;

/// A thread's mailbox slot.
enum Slot<P> {
    Empty,
    Leased(P),
    Running,
    Done(P),
    Panicked,
    Stop,
}

const EMPTY: u8 = 0;
const LEASED: u8 = 1;
const RUNNING: u8 = 2;
const DONE: u8 = 3;
const PANICKED: u8 = 4;
const STOP: u8 = 5;

impl<P> Slot<P> {
    fn state(&self) -> u8 {
        match self {
            Slot::Empty => EMPTY,
            Slot::Leased(_) => LEASED,
            Slot::Running => RUNNING,
            Slot::Done(_) => DONE,
            Slot::Panicked => PANICKED,
            Slot::Stop => STOP,
        }
    }
}

struct Inner<P> {
    slot: Slot<P>,
    /// How many sides wait on `Mailbox::wake`. Both can: a parked side
    /// that was just notified may not have woken yet when the other side
    /// parks in turn.
    parked: u8,
}

struct Mailbox<P> {
    /// `inner.slot`'s state, written under the lock and read without it
    /// by a spinning side. The slot under the lock is what counts: a read
    /// here only tells a spinner when to take the lock. Release stores
    /// pair with Acquire loads so a spinner that sees a state also sees
    /// the writes before it.
    state: AtomicU8,
    inner: Mutex<Inner<P>>,
    wake: Condvar,
}

impl<P> Mailbox<P> {
    fn new() -> Self {
        Mailbox {
            state: AtomicU8::new(EMPTY),
            inner: Mutex::new(Inner {
                slot: Slot::Empty,
                parked: 0,
            }),
            wake: Condvar::new(),
        }
    }

    /// Locks the slot. No panic happens with the slot half-written, so a
    /// poisoned lock is still a valid one.
    fn lock(&self) -> MutexGuard<'_, Inner<P>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Waits until the slot's state is one `ready` accepts and returns
    /// the locked slot: spins on [`Mailbox::state`] for [`SPIN_LIMIT`]
    /// reads, then parks until the other side's next [`Mailbox::replace`].
    fn wait(&self, ready: impl Fn(u8) -> bool) -> MutexGuard<'_, Inner<P>> {
        for _ in 0..SPIN_LIMIT {
            if ready(self.state.load(Ordering::Acquire)) {
                let inner = self.lock();
                if ready(inner.slot.state()) {
                    return inner;
                }
            }
            hint::spin_loop();
        }
        let mut inner = self.lock();
        if !ready(inner.slot.state()) {
            inner.parked += 1;
            while !ready(inner.slot.state()) {
                inner = self
                    .wake
                    .wait(inner)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            inner.parked -= 1;
        }
        inner
    }

    /// Puts `slot` in the locked mailbox, wakes every parked side (each
    /// checks whether the new state is the one it waits for), and
    /// returns the slot's previous content.
    fn replace(&self, inner: &mut Inner<P>, slot: Slot<P>) -> Slot<P> {
        self.state.store(slot.state(), Ordering::Release);
        if inner.parked > 0 {
            self.wake.notify_all();
        }
        std::mem::replace(&mut inner.slot, slot)
    }
}

/// A pool thread's loop: take the leased packet, run it, hand it back. A
/// panicking job is caught here and re-raised by [`LeasePool::reclaim`]
/// or [`LeasePool::recall`], so the owner never waits for a packet that
/// will not come back.
fn serve<P: Lease>(mailbox: &Mailbox<P>) {
    loop {
        let mut inner = mailbox.wait(|s| s == LEASED || s == STOP);
        let Slot::Leased(mut packet) = mailbox.replace(&mut inner, Slot::Running) else {
            return;
        };
        drop(inner);
        let ran = panic::catch_unwind(AssertUnwindSafe(|| packet.run()));
        let mut inner = mailbox.lock();
        if inner.slot.state() == RUNNING {
            mailbox.replace(
                &mut inner,
                ran.map_or(Slot::Panicked, |()| Slot::Done(packet)),
            );
        }
    }
}

/// One thread, its mailbox, and its packet while not leased. Dropping it
/// stops the thread and joins it (after any job still running).
struct Worker<P> {
    mailbox: Arc<Mailbox<P>>,
    idle: P,
    handle: Option<JoinHandle<()>>,
}

impl<P> Drop for Worker<P> {
    fn drop(&mut self) {
        let mut inner = self.mailbox.lock();
        self.mailbox.replace(&mut inner, Slot::Stop);
        drop(inner);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// A pool of persistent threads, one packet slot each:
/// [`LeasePool::packet_mut`] fills thread `i`'s idle packet,
/// [`LeasePool::lease`] hands it to the thread, and
/// [`LeasePool::reclaim`] waits for it and returns it with its results,
/// or [`LeasePool::recall`] takes it back unrun if the thread has not
/// picked it up yet. Dropping or shrinking the pool stops and joins the
/// threads it removes.
#[derive(Default)]
pub struct LeasePool<P> {
    workers: Vec<Worker<P>>,
}

impl<P: Lease + Default> LeasePool<P> {
    /// Number of threads in the pool.
    pub fn len(&self) -> usize {
        self.workers.len()
    }

    /// Whether the pool has no thread.
    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }

    /// Resizes the pool to `n` threads: spawns the missing ones, or stops
    /// and joins the last ones together with their packets.
    pub fn resize(&mut self, n: usize) {
        self.workers.truncate(n);
        while self.workers.len() < n {
            let mailbox = Arc::new(Mailbox::new());
            let theirs = Arc::clone(&mailbox);
            self.workers.push(Worker {
                mailbox,
                idle: P::default(),
                handle: Some(std::thread::spawn(move || serve(&theirs))),
            });
        }
    }

    /// Thread `i`'s idle packet.
    pub fn packet_mut(&mut self, i: usize) -> &mut P {
        &mut self.workers[i].idle
    }

    /// Hands thread `i`'s packet to the thread, which runs it at once. A
    /// packet leased there before and never taken back (its owner
    /// unwound mid-lease) is waited out and dropped first.
    pub fn lease(&mut self, i: usize) {
        let worker = &mut self.workers[i];
        let mut inner = worker.mailbox.wait(|s| s != RUNNING);
        let packet = std::mem::take(&mut worker.idle);
        worker.mailbox.replace(&mut inner, Slot::Leased(packet));
    }

    /// Waits for thread `i` to finish its leased packet and returns it.
    /// Panics if nothing is leased there, or if the job panicked (the
    /// thread survives and takes the next lease).
    pub fn reclaim(&mut self, i: usize) -> &mut P {
        self.take_back(i, false)
    }

    /// Takes thread `i`'s leased packet back: at once and unrun if the
    /// thread has not picked it up yet, otherwise as
    /// [`LeasePool::reclaim`] once it has run.
    pub fn recall(&mut self, i: usize) -> &mut P {
        self.take_back(i, true)
    }

    /// Whether thread `i`'s leased packet has come back, run or with its
    /// job panicked, so that [`LeasePool::recall`] takes it at once.
    pub fn returned(&self, i: usize) -> bool {
        let state = self.workers[i].mailbox.state.load(Ordering::Acquire);
        state == DONE || state == PANICKED
    }

    fn take_back(&mut self, i: usize, unrun: bool) -> &mut P {
        let worker = &mut self.workers[i];
        let mut inner = worker
            .mailbox
            .wait(|s| s != RUNNING && (unrun || s != LEASED));
        let slot = worker.mailbox.replace(&mut inner, Slot::Empty);
        drop(inner);
        match slot {
            Slot::Done(packet) | Slot::Leased(packet) => worker.idle = packet,
            Slot::Panicked => panic!("a job leased to pool thread {i} panicked"),
            _ => panic!("reclaim on pool thread {i} without a lease"),
        }
        &mut worker.idle
    }

    /// The pool's threads, in index order.
    pub fn threads(&self) -> impl Iterator<Item = &Thread> {
        let handles = self.workers.iter().filter_map(|w| w.handle.as_ref());
        handles.map(JoinHandle::thread)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;
    use std::time::Duration;

    /// Doubles every value and panics on a negative one. With `ticks`
    /// set, it ticks once on start and once more after a nap; with
    /// `until` set, it first waits for that condition to hold.
    #[derive(Default)]
    struct Job {
        values: Vec<f64>,
        ticks: Option<Arc<AtomicUsize>>,
        until: Option<Box<dyn Fn() -> bool + Send>>,
    }

    impl Lease for Job {
        fn run(&mut self) {
            if let Some(ticks) = &self.ticks {
                ticks.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(30));
                ticks.fetch_add(1, Ordering::SeqCst);
            }
            while !self.until.as_ref().is_none_or(|until| until()) {
                std::thread::yield_now();
            }
            for v in &mut self.values {
                assert!(*v >= 0.0, "negative input");
                *v *= 2.0;
            }
        }
    }

    #[test]
    fn packets_round_trip_and_keep_their_buffers() {
        let mut pool = LeasePool::<Job>::default();
        pool.resize(3);
        for round in 0..4 {
            for i in 0..3 {
                let job = pool.packet_mut(i);
                job.values.clear();
                job.values.extend([i as f64, round as f64]);
                pool.lease(i);
            }
            for i in 0..3 {
                assert_eq!(pool.reclaim(i).values, [2.0 * i as f64, 2.0 * round as f64]);
            }
        }
        assert!((0..3).all(|i| pool.packet_mut(i).values.capacity() >= 2));
    }

    #[test]
    fn a_panicking_job_panics_on_reclaim_and_the_thread_survives() {
        let mut pool = LeasePool::<Job>::default();
        pool.resize(2);
        pool.packet_mut(0).values = vec![1.0, -1.0];
        pool.lease(0);
        pool.packet_mut(1).values = vec![3.0];
        pool.lease(1);
        let reclaimed = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.reclaim(0);
        }));
        assert!(reclaimed.is_err(), "the job's panic must reach the owner");
        assert_eq!(pool.reclaim(1).values, [6.0]);
        // The panicked thread takes the next lease.
        pool.packet_mut(0).values = vec![5.0];
        pool.lease(0);
        assert_eq!(pool.reclaim(0).values, [10.0]);
    }

    #[test]
    fn reclaim_without_a_lease_panics_instead_of_waiting() {
        let mut pool = LeasePool::<Job>::default();
        pool.resize(1);
        let reclaimed = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.reclaim(0);
        }));
        assert!(reclaimed.is_err());
    }

    #[test]
    fn dropping_the_pool_joins_every_thread() {
        let ticks = Arc::new(AtomicUsize::new(0));
        let mut pool = LeasePool::<Job>::default();
        pool.resize(3);
        for i in 0..3 {
            pool.packet_mut(i).ticks = Some(Arc::clone(&ticks));
            pool.lease(i);
        }
        while ticks.load(Ordering::SeqCst) < 3 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let mailboxes: Vec<_> = pool
            .workers
            .iter()
            .map(|w| Arc::downgrade(&w.mailbox))
            .collect();
        drop(pool);
        // Drop waited for the three running jobs, and every thread has
        // let go of its mailbox, i.e. returned.
        assert_eq!(ticks.load(Ordering::SeqCst), 6);
        assert!(mailboxes.iter().all(|m| m.upgrade().is_none()));
    }

    /// Whether a side of thread `i`'s mailbox has parked.
    fn parked(pool: &LeasePool<Job>, i: usize) -> bool {
        pool.workers[i].mailbox.lock().parked > 0
    }

    /// A one-thread pool whose thread serves its mailbox only once `gate`
    /// yields, so a lease made before that stays unpicked.
    fn gated_pool(gate: mpsc::Receiver<()>) -> LeasePool<Job> {
        let mailbox = Arc::new(Mailbox::new());
        let theirs = Arc::clone(&mailbox);
        let handle = std::thread::spawn(move || {
            if gate.recv().is_ok() {
                serve(&theirs);
            }
        });
        LeasePool {
            workers: vec![Worker {
                mailbox,
                idle: Job::default(),
                handle: Some(handle),
            }],
        }
    }

    #[test]
    fn recall_takes_an_unpicked_packet_back_unrun() {
        let (open, gate) = mpsc::channel();
        let mut pool = gated_pool(gate);
        pool.packet_mut(0).values = vec![1.0];
        pool.lease(0);
        assert_eq!(pool.recall(0).values, [1.0], "the packet ran");
        // The same thread, once serving, runs the next lease.
        open.send(()).unwrap();
        pool.lease(0);
        assert_eq!(pool.reclaim(0).values, [2.0]);
        // A packet recalled after it was picked up comes back run.
        pool.lease(0);
        while pool.workers[0].mailbox.state.load(Ordering::SeqCst) == LEASED {
            std::thread::yield_now();
        }
        assert_eq!(pool.recall(0).values, [4.0]);
    }

    #[test]
    fn returned_tells_a_run_or_panicked_packet_from_one_still_out() {
        let (open, gate) = mpsc::channel();
        let mut pool = gated_pool(gate);
        assert!(!pool.returned(0), "nothing leased");
        pool.packet_mut(0).values = vec![1.0];
        pool.lease(0);
        assert!(!pool.returned(0), "leased, not picked up");
        open.send(()).unwrap();
        while !pool.returned(0) {
            std::thread::yield_now();
        }
        assert_eq!(pool.recall(0).values, [2.0]);
        pool.packet_mut(0).values = vec![-1.0];
        pool.lease(0);
        while !pool.returned(0) {
            std::thread::yield_now();
        }
        let recalled = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.recall(0);
        }));
        assert!(recalled.is_err(), "the job's panic must reach the owner");
    }

    #[test]
    fn a_lease_never_taken_back_is_dropped_by_the_next_one() {
        // An owner that unwinds mid-lease leaves the packet out; the
        // thread's next lease waits it out instead of racing it.
        let mut pool = LeasePool::<Job>::default();
        pool.resize(1);
        pool.packet_mut(0).values = vec![1.0];
        pool.lease(0);
        pool.packet_mut(0).values = vec![3.0];
        pool.lease(0);
        assert_eq!(pool.reclaim(0).values, [6.0]);
    }

    #[test]
    fn an_idle_thread_parks_after_its_spin_window_and_wakes_on_the_next_lease() {
        let mut pool = LeasePool::<Job>::default();
        pool.resize(1);
        pool.packet_mut(0).values = vec![1.0];
        pool.lease(0);
        assert_eq!(pool.reclaim(0).values, [2.0]);
        // With nothing leased the thread stops spinning and parks.
        while !parked(&pool, 0) {
            std::thread::yield_now();
        }
        pool.lease(0);
        assert_eq!(pool.reclaim(0).values, [4.0]);
    }

    #[test]
    fn an_owner_waiting_past_its_spin_window_parks_and_the_result_wakes_it() {
        let mut pool = LeasePool::<Job>::default();
        pool.resize(1);
        // The job finishes only once the owner, waiting for it, has
        // parked: a reclaim that never parked or never woke would hang.
        let mailbox = Arc::downgrade(&pool.workers[0].mailbox);
        let job = pool.packet_mut(0);
        job.values = vec![5.0];
        job.until = Some(Box::new(move || {
            mailbox.upgrade().is_none_or(|m| m.lock().parked > 0)
        }));
        pool.lease(0);
        assert_eq!(pool.reclaim(0).values, [10.0]);
    }

    #[test]
    fn resizing_spawns_and_joins_only_the_difference() {
        let mut pool = LeasePool::<Job>::default();
        assert!(pool.is_empty());
        pool.resize(3);
        let ids: Vec<_> = pool.threads().map(Thread::id).collect();
        assert_eq!(ids.len(), 3);
        pool.resize(1);
        assert_eq!(pool.len(), 1);
        pool.resize(2);
        let after: Vec<_> = pool.threads().map(Thread::id).collect();
        assert_eq!(after[0], ids[0], "a kept thread is never respawned");
        assert!(!ids.contains(&after[1]), "a grown slot gets a new thread");
        pool.resize(0);
        assert!(pool.is_empty());
    }
}
