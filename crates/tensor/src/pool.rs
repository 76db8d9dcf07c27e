//! The one thread pool behind both multi-threaded hot paths: the threaded
//! training engine (a packet per honest worker) and intra-round GAR
//! sharding (a packet per shard). Without `unsafe` a persistent thread
//! cannot borrow the caller's buffers, so each packet owns its inputs and
//! outputs and travels to its thread and back through a one-slot
//! `Mutex` + `Condvar` mailbox. Packets stay with the pool between
//! leases, so once their buffers are warm a lease allocates nothing.

use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{JoinHandle, Thread};

/// A work packet a [`LeasePool`] thread runs: it owns its inputs and its
/// outputs, and [`Lease::run`] computes the second from the first.
pub trait Lease: Send + 'static {
    /// Runs the job on the pool thread.
    fn run(&mut self);
}

/// A thread's mailbox. Owner and thread never wait at the same time, so
/// `notify_one` always reaches the side that waits.
enum Slot<P> {
    Empty,
    Leased(P),
    Running,
    Done(P),
    Panicked,
    Stop,
}

struct Mailbox<P> {
    slot: Mutex<Slot<P>>,
    wake: Condvar,
}

impl<P> Mailbox<P> {
    /// Locks the slot. No panic happens with the slot half-written, so a
    /// poisoned lock is still a valid one.
    fn lock(&self) -> MutexGuard<'_, Slot<P>> {
        self.slot.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Waits for the other side's next [`Mailbox::put`].
    fn wait<'a>(&self, slot: MutexGuard<'a, Slot<P>>) -> MutexGuard<'a, Slot<P>> {
        self.wake.wait(slot).unwrap_or_else(PoisonError::into_inner)
    }

    fn put(&self, slot: Slot<P>) {
        *self.lock() = slot;
        self.wake.notify_one();
    }
}

/// A pool thread's loop: take the leased packet, run it, hand it back. A
/// panicking job is caught here and re-raised by [`LeasePool::reclaim`],
/// so the owner never waits for a packet that will not come back.
fn serve<P: Lease>(mailbox: &Mailbox<P>) {
    loop {
        let mut slot = mailbox.lock();
        let mut packet = loop {
            match std::mem::replace(&mut *slot, Slot::Running) {
                Slot::Leased(packet) => break packet,
                Slot::Stop => return,
                other => *slot = other,
            }
            slot = mailbox.wait(slot);
        };
        drop(slot);
        let ran = panic::catch_unwind(AssertUnwindSafe(|| packet.run()));
        let mut slot = mailbox.lock();
        if !matches!(*slot, Slot::Stop) {
            *slot = ran.map_or(Slot::Panicked, |()| Slot::Done(packet));
            mailbox.wake.notify_one();
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
        self.mailbox.put(Slot::Stop);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// A pool of persistent threads, one packet slot each:
/// [`LeasePool::packet_mut`] fills thread `i`'s idle packet,
/// [`LeasePool::lease`] hands it to the thread, and
/// [`LeasePool::reclaim`] waits for it and returns it with its results.
/// Dropping or shrinking the pool stops and joins the threads it removes.
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
            let mailbox = Arc::new(Mailbox {
                slot: Mutex::new(Slot::Empty),
                wake: Condvar::new(),
            });
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

    /// Hands thread `i`'s packet to the thread, which runs it at once.
    pub fn lease(&mut self, i: usize) {
        let worker = &mut self.workers[i];
        worker
            .mailbox
            .put(Slot::Leased(std::mem::take(&mut worker.idle)));
    }

    /// Waits for thread `i` to finish its leased packet and returns it.
    /// Panics if nothing is leased there, or if the job panicked (the
    /// thread survives and takes the next lease).
    pub fn reclaim(&mut self, i: usize) -> &mut P {
        let worker = &mut self.workers[i];
        let mut slot = worker.mailbox.lock();
        loop {
            match std::mem::replace(&mut *slot, Slot::Empty) {
                Slot::Done(packet) => break worker.idle = packet,
                Slot::Panicked => panic!("a job leased to pool thread {i} panicked"),
                Slot::Empty => panic!("reclaim on pool thread {i} without a lease"),
                other => *slot = other,
            }
            slot = worker.mailbox.wait(slot);
        }
        drop(slot);
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
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    /// Doubles every value and panics on a negative one. With `ticks`
    /// set, it ticks once on start and once more after a nap.
    #[derive(Default)]
    struct Job {
        values: Vec<f64>,
        ticks: Option<Arc<AtomicUsize>>,
    }

    impl Lease for Job {
        fn run(&mut self) {
            if let Some(ticks) = &self.ticks {
                ticks.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(30));
                ticks.fetch_add(1, Ordering::SeqCst);
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
