//! Layer tracing from outside the crates: delegating wrappers around the
//! registry-built components, a timing [`Transport`], and a counting
//! global allocator.
//!
//! Every wrapper forwards each trait method to the wrapped component, so
//! a traced run performs the same arithmetic in the same order as an
//! untraced one; the benchmark asserts the two histories are
//! bit-identical. Busy time accumulates in process-global counters that
//! live in memory and are read when the run ends.

use dpbyz::attacks::{Attack, AttackContext};
use dpbyz::data::sampler::BatchSource;
use dpbyz::data::Batch;
use dpbyz::dp::Mechanism;
use dpbyz::gars::{Gar, GarError, GarScratch};
use dpbyz::models::Model;
use dpbyz::net::{Event, Phase, Transport};
use dpbyz::server::WorkerOutput;
use dpbyz::tensor::{Prng, Vector};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A traced layer boundary: one public call the benchmark times.
#[derive(Debug, Clone, Copy)]
pub enum Span {
    /// `BatchSource::next_batch_into`.
    Batch,
    /// `Model::loss`.
    Loss,
    /// `Model::gradient_into`.
    Grad,
    /// `Mechanism::perturb_in_place`.
    Noise,
    /// `Attack::forge_into`.
    Forge,
    /// `Gar::aggregate_into`.
    Agg,
    /// `HonestWorker::compute_into`.
    Worker,
    /// `ServerCore::process_round`.
    Round,
    /// `Transport::poll`.
    Poll,
    /// `Transport::broadcast_step`.
    Bcast,
    /// `drive`.
    Drive,
    /// The sequential loop's parameter hand-over (`Vector::copy_from`).
    Params,
}

const SPANS: usize = 12;

/// Busy nanoseconds per [`Span`], summed over every call.
static BUSY_NS: [AtomicU64; SPANS] = [const { AtomicU64::new(0) }; SPANS];

/// Heap allocations made by the process so far.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Runs `f`, charging its wall time to `span`.
pub fn timed<R>(span: Span, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let result = f();
    let ns = start.elapsed().as_nanos() as u64;
    // Relaxed: a statistic that publishes no other data.
    BUSY_NS[span as usize].fetch_add(ns, Ordering::Relaxed);
    result
}

/// Busy nanoseconds charged to `span` so far.
pub fn busy_ns(span: Span) -> u64 {
    BUSY_NS[span as usize].load(Ordering::Relaxed)
}

/// Zeroes every busy counter.
pub fn reset() {
    for ns in &BUSY_NS {
        ns.store(0, Ordering::Relaxed);
    }
}

/// Heap allocations made by the process so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// The system allocator, counting every allocation.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees hold; the counter touches no
// allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded from the caller, who upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded from the caller, who upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` through this allocator
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded from the caller, who upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Times `Model::loss` and `Model::gradient_into`.
pub struct TimedModel(pub Arc<dyn Model>);

impl Model for TimedModel {
    fn dim(&self) -> usize {
        self.0.dim()
    }
    fn loss(&self, params: &Vector, batch: &Batch) -> f64 {
        timed(Span::Loss, || self.0.loss(params, batch))
    }
    fn gradient(&self, params: &Vector, batch: &Batch) -> Vector {
        timed(Span::Grad, || self.0.gradient(params, batch))
    }
    fn gradient_into(&self, params: &Vector, batch: &Batch, out: &mut Vector) {
        timed(Span::Grad, || self.0.gradient_into(params, batch, out));
    }
    fn predict(&self, params: &Vector, features: &[f64]) -> f64 {
        self.0.predict(params, features)
    }
    fn init_params(&self, rng: &mut Prng) -> Vector {
        self.0.init_params(rng)
    }
}

/// Times `BatchSource::next_batch_into`.
pub struct TimedSource(pub Box<dyn BatchSource>);

impl BatchSource for TimedSource {
    fn num_features(&self) -> usize {
        self.0.num_features()
    }
    fn next_batch(&mut self, batch_size: usize, rng: &mut Prng) -> Batch {
        timed(Span::Batch, || self.0.next_batch(batch_size, rng))
    }
    fn next_batch_into(&mut self, batch_size: usize, rng: &mut Prng, out: &mut Batch) {
        timed(Span::Batch, || self.0.next_batch_into(batch_size, rng, out));
    }
}

/// Times `Mechanism::perturb_in_place`.
pub struct TimedMechanism(pub Arc<dyn Mechanism>);

impl Mechanism for TimedMechanism {
    fn perturb(&self, gradient: &Vector, rng: &mut Prng) -> Vector {
        timed(Span::Noise, || self.0.perturb(gradient, rng))
    }
    fn perturb_in_place(&self, gradient: &mut Vector, rng: &mut Prng) {
        timed(Span::Noise, || self.0.perturb_in_place(gradient, rng));
    }
    fn per_coordinate_std(&self) -> f64 {
        self.0.per_coordinate_std()
    }
    fn total_noise_variance(&self, dim: usize) -> f64 {
        self.0.total_noise_variance(dim)
    }
    fn name(&self) -> &'static str {
        self.0.name()
    }
}

/// Times `Attack::forge_into`.
pub struct TimedAttack(pub Arc<dyn Attack>);

impl Attack for TimedAttack {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn forge(&self, ctx: &AttackContext<'_>, rng: &mut Prng) -> Vector {
        timed(Span::Forge, || self.0.forge(ctx, rng))
    }
    fn forge_into(&self, ctx: &AttackContext<'_>, rng: &mut Prng, out: &mut Vector) {
        timed(Span::Forge, || self.0.forge_into(ctx, rng, out));
    }
}

/// Times `Gar::aggregate_into`.
pub struct TimedGar(pub Arc<dyn Gar>);

impl Gar for TimedGar {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn aggregate(&self, gradients: &[Vector], f: usize) -> Result<Vector, GarError> {
        timed(Span::Agg, || self.0.aggregate(gradients, f))
    }
    fn aggregate_into(
        &self,
        gradients: &[Vector],
        f: usize,
        scratch: &mut GarScratch,
        out: &mut Vector,
    ) -> Result<(), GarError> {
        timed(Span::Agg, || {
            self.0.aggregate_into(gradients, f, scratch, out)
        })
    }
    fn kappa(&self, n: usize, f: usize) -> Option<f64> {
        self.0.kappa(n, f)
    }
    fn max_byzantine(&self, n: usize) -> usize {
        self.0.max_byzantine(n)
    }
}

/// Times `poll` and `broadcast_step`, and counts polls, idles and the
/// events polls decode. Also marks the allocation counter when the
/// steady-state window opens (broadcast of step `steady_from`) and closes
/// (`finish`).
pub struct TimedTransport<T> {
    /// The wrapped transport.
    pub inner: T,
    /// `poll` calls.
    pub polls: u64,
    /// `idle` calls.
    pub idles: u64,
    /// Events decoded by `poll`.
    pub events: u64,
    /// First step of the allocation-counting window.
    pub steady_from: u32,
    /// Allocation counter at the window's open and close.
    pub alloc_marks: (u64, u64),
}

impl<T> TimedTransport<T> {
    /// Wraps `inner`.
    pub fn new(inner: T, steady_from: u32) -> Self {
        TimedTransport {
            inner,
            polls: 0,
            idles: 0,
            events: 0,
            steady_from,
            alloc_marks: (0, 0),
        }
    }
}

impl<T: Transport> Transport for TimedTransport<T> {
    fn now_ms(&mut self) -> u64 {
        self.inner.now_ms()
    }
    fn poll(
        &mut self,
        phase: Phase,
        outputs: &mut [WorkerOutput],
        events: &mut Vec<Event>,
    ) -> io::Result<bool> {
        self.polls += 1;
        let before = events.len();
        let moved = timed(Span::Poll, || self.inner.poll(phase, outputs, events));
        self.events += (events.len() - before) as u64;
        moved
    }
    fn start_warmup(&mut self) {
        self.inner.start_warmup();
    }
    fn broadcast_step(&mut self, step: u32, batch: u32, params: &Vector) {
        if step == self.steady_from {
            self.alloc_marks.0 = allocs();
        }
        timed(Span::Bcast, || {
            self.inner.broadcast_step(step, batch, params)
        });
    }
    fn finish(&mut self) {
        self.alloc_marks.1 = allocs();
        self.inner.finish();
    }
    fn abort(&mut self, reason: &str) {
        self.inner.abort(reason);
    }
    fn idle(&mut self, next_deadline_ms: Option<u64>) {
        self.idles += 1;
        self.inner.idle(next_deadline_ms);
    }
}
