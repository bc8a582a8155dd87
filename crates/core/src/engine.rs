//! The QAT Engine layer (paper §3.2, §4.3): the bridge between the TLS
//! library and the QAT driver. Every offload takes one path,
//! [`OffloadEngine::offload_batch`]; a single op
//! ([`OffloadEngine::offload`]) is a group of one.
//!
//! 1. The [`ShardRouter`] places the group on one shard. Each shard
//!    owns one [`CryptoInstance`] (one ring pair, ideally on its own
//!    endpoint), its inflight tallies, its phase histograms, an
//!    optional [`SubmitQueue`] and a ring-full retry counter.
//! 2. Every member becomes a request with a fresh cookie and the one
//!    completion callback: it releases the member's inflight accounting
//!    (engine-wide and per shard), parks the result on the group's
//!    board, and the last member wakes the group's single waiter — a
//!    paused fiber job's wait context (which fires the registered
//!    [`crate::notify::Notifier`]) or a blocked caller's slot.
//! 3. [`Placement::decide`] stages the group on the shard's queue for
//!    the sweep-boundary flush or publishes it in place under one
//!    doorbell.
//! 4. A full ring leaves an unsent tail: a job with a queue stages it,
//!    a job without one pauses with the retry flag and republishes it,
//!    and a blocking caller waits under the shared [`Backpressure`]
//!    policy, polling the shard itself when no external poller runs.
//! 5. The caller waits: a job pauses until the group completes
//!    ("crypto pause", spurious resumes pause again); a blocking caller
//!    (straight offload, `QAT+S`, reproducing the offload-I/O blocking
//!    pathology of §2.4) polls and waits on its slot.
//!
//! The per-class inflight counters `R_asym`, `R_cipher`, `R_prf` are
//! maintained "with a new engine command" for the heuristic polling
//! scheme; sharded engines keep the engine-wide aggregate *and* a
//! per-shard total so routing and shard-aware polling see each ring's
//! own load. A single-instance engine ([`OffloadEngine::new`]) is the
//! one-shard special case of [`OffloadEngine::sharded`].

use crate::fiber;
use crate::obs::{self, EngineObs, EventKind, Phase, ShardObs};
use crate::pipeline::{
    Backpressure, DrainReport, FlushReport, Placement, SubmitContext, SubmitQueue,
};
use crate::shard::{ShardPolicy, ShardRouter};
use qtls_crypto::CryptoError;
use qtls_qat::{
    make_request, CryptoInstance, CryptoOp, CryptoOutput, CryptoRequest, CryptoResult, OpClass,
};
use qtls_sync::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Inflight request counters (paper §4.3: collected in the QAT Engine
/// layer "for accuracy"). On a sharded engine this is the engine-wide
/// aggregate; per-shard totals live in the shards themselves.
#[derive(Debug, Default)]
pub struct InflightCounters {
    /// Inflight asymmetric requests.
    pub asym: AtomicU64,
    /// Inflight cipher requests.
    pub cipher: AtomicU64,
    /// Inflight PRF requests.
    pub prf: AtomicU64,
}

impl InflightCounters {
    fn counter(&self, class: OpClass) -> &AtomicU64 {
        match class {
            OpClass::Asym => &self.asym,
            OpClass::Cipher => &self.cipher,
            OpClass::Prf => &self.prf,
        }
    }

    /// `R_total = R_asym + R_cipher + R_prf`.
    pub fn total(&self) -> u64 {
        self.asym.load(Ordering::Relaxed)
            + self.cipher.load(Ordering::Relaxed)
            + self.prf.load(Ordering::Relaxed)
    }

    /// `R_asym` (selects the bigger heuristic threshold when non-zero).
    pub fn asym_inflight(&self) -> u64 {
        self.asym.load(Ordering::Relaxed)
    }
}

/// Per-shard inflight tallies: the router's placement signal and the
/// shard-aware poller's "does this ring have pending work" test.
#[derive(Debug, Default)]
struct ShardInflight {
    total: AtomicU64,
    asym: AtomicU64,
}

impl ShardInflight {
    fn inc(&self, class: OpClass) {
        self.total.fetch_add(1, Ordering::Relaxed);
        if class == OpClass::Asym {
            self.asym.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn dec(&self, class: OpClass) {
        self.total.fetch_sub(1, Ordering::Relaxed);
        if class == OpClass::Asym {
            self.asym.fetch_sub(1, Ordering::Relaxed);
        }
    }

    fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    fn asym(&self) -> u64 {
        self.asym.load(Ordering::Relaxed)
    }
}

/// How `offload` behaves for the submitting caller.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineMode {
    /// Straight offload: the caller blocks until the response arrives
    /// (QAT+S). Responses are retrieved by whatever poller is attached;
    /// absent one, the caller polls the instance itself.
    Blocking,
    /// Asynchronous offload: pause the current fiber job; resume
    /// delivers the result (QAT+A / QAT+AH / QTLS).
    Async,
}

/// One shard: a crypto instance plus everything the offload path keeps
/// per ring pair.
struct Shard {
    /// Position within the engine (flight-event and span labelling).
    index: u32,
    instance: CryptoInstance,
    inflight: ShardInflight,
    /// This shard's phase histograms (also installed as the device
    /// retrieve hook when metrics are enabled).
    obs: Arc<ShardObs>,
    /// When attached, a job's single offloads are staged here and
    /// published in one batch at the sweep boundary.
    queue: Mutex<Option<Arc<SubmitQueue>>>,
    /// Submission retries due to a full request ring.
    ring_full_retries: AtomicU64,
}

impl Shard {
    fn queue(&self) -> Option<Arc<SubmitQueue>> {
        self.queue.lock().clone()
    }
}

/// Who the last member of a group wakes.
enum Waiter {
    /// A paused fiber job: its wait context parks a sentinel result and
    /// fires the registered notifier.
    Job(fiber::CurrentWaitCtx),
    /// A blocked caller (straight offload, or async mode outside a job).
    Block(BlockSlot),
    /// A stack-async operation (§4.1): nobody waits; the callback takes
    /// the results.
    Detached(Box<dyn Fn(Vec<CryptoResult>) + Send + Sync>),
}

/// One offload group in flight: a result slot per member, a countdown,
/// and the waiter the member that brings the countdown to zero wakes —
/// one pause / one signal per group, not per request.
struct Group {
    shard: Arc<Shard>,
    counters: Arc<InflightCounters>,
    class: OpClass,
    slots: Mutex<Vec<Option<CryptoResult>>>,
    remaining: AtomicU64,
    /// When the waiter was woken (obs plane; 0 = not stamped), read
    /// back for the post-processing phase.
    notified_ns: AtomicU64,
    waiter: Waiter,
}

impl Group {
    /// The response callback of every member: release its inflight
    /// accounting, park its result, and let the last member wake the
    /// waiter. With metrics on, that wake-up is the group's notification
    /// phase.
    fn complete(&self, index: usize, result: CryptoResult) {
        self.counters
            .counter(self.class)
            .fetch_sub(1, Ordering::Relaxed);
        self.shard.inflight.dec(self.class);
        self.slots.lock()[index] = Some(result);
        if self.remaining.fetch_sub(1, Ordering::AcqRel) != 1 {
            return;
        }
        if !self.shard.obs.enabled() {
            self.wake();
            return;
        }
        let t0 = obs::now_ns();
        self.wake();
        let t1 = obs::now_ns();
        self.shard.obs.record(Phase::Notify, self.class, t1 - t0);
        self.notified_ns.store(t1, Ordering::Release);
    }

    fn wake(&self) {
        match &self.waiter {
            Waiter::Job(ctx) => ctx.complete(Ok(CryptoOutput::Bytes(Vec::new()))),
            Waiter::Block(slot) => slot.fill(),
            Waiter::Detached(callback) => callback(self.take()),
        }
    }

    /// Post-processing phase (obs plane): notification → results taken.
    fn record_post(&self) {
        if self.shard.obs.enabled() {
            let t = self.notified_ns.load(Ordering::Acquire);
            if t != 0 {
                self.shard
                    .obs
                    .record(Phase::Post, self.class, obs::now_ns().saturating_sub(t));
            }
        }
    }

    /// Collect every result in submission order.
    fn take(&self) -> Vec<CryptoResult> {
        self.slots
            .lock()
            .drain(..)
            .map(|slot| slot.expect("group member completed"))
            .collect()
    }
}

/// One-shot wake-up for a blocking caller.
#[derive(Default)]
struct BlockSlot {
    done: Mutex<bool>,
    cond: Condvar,
}

impl BlockSlot {
    fn fill(&self) {
        *self.done.lock() = true;
        self.cond.notify_all();
    }

    fn wait(&self, timeout: Duration) -> bool {
        let mut done = self.done.lock();
        if !*done {
            self.cond.wait_for(&mut done, timeout);
        }
        *done
    }
}

/// The offload engine of one worker: a router over one or more shards,
/// the engine-wide inflight counters and cookie allocator, and the
/// shared ring-full [`Backpressure`] policy.
pub struct OffloadEngine {
    shards: Vec<Arc<Shard>>,
    router: ShardRouter,
    counters: Arc<InflightCounters>,
    /// Cookie allocator: cookies stay unique across shards.
    next_cookie: AtomicU64,
    backpressure: Backpressure,
    mode: EngineMode,
    /// Whether a dedicated polling thread retrieves responses (affects
    /// only the blocking path's self-polling decision).
    has_external_poller: AtomicBool,
    /// The observability plane: per-shard phase histograms plus the
    /// flight recorder. Disabled (one relaxed load per touch point)
    /// until [`Self::enable_metrics`].
    obs: EngineObs,
}

impl OffloadEngine {
    /// Create a single-shard engine over `instance` in the given mode.
    pub fn new(instance: CryptoInstance, mode: EngineMode) -> Self {
        Self::sharded(vec![instance], mode, ShardPolicy::RoundRobin)
    }

    /// Create an engine sharded over `instances` (one shard per
    /// instance), placing requests with `policy`.
    ///
    /// # Panics
    ///
    /// Panics if `instances` is empty.
    pub fn sharded(instances: Vec<CryptoInstance>, mode: EngineMode, policy: ShardPolicy) -> Self {
        assert!(!instances.is_empty(), "engine needs at least one instance");
        let obs = EngineObs::new(instances.len());
        let shards = instances
            .into_iter()
            .enumerate()
            .map(|(i, instance)| {
                Arc::new(Shard {
                    index: i as u32,
                    instance,
                    inflight: ShardInflight::default(),
                    obs: Arc::clone(obs.shard(i)),
                    queue: Mutex::new(None),
                    ring_full_retries: AtomicU64::new(0),
                })
            })
            .collect();
        OffloadEngine {
            shards,
            router: ShardRouter::new(policy),
            counters: Arc::new(InflightCounters::default()),
            next_cookie: AtomicU64::new(1),
            backpressure: Backpressure::default(),
            mode,
            has_external_poller: AtomicBool::new(false),
            obs,
        }
    }

    /// Pick the shard for an op of `class` (per-shard inflight totals
    /// feed the router's placement policy). Multi-shard placements are
    /// logged to the flight recorder while metrics are enabled.
    fn route(&self, class: OpClass) -> &Arc<Shard> {
        let idx = self.router.route_by(class, self.shards.len(), |i| {
            self.shards[i].inflight.total()
        });
        if self.shards.len() > 1 {
            self.obs.recorder().record(
                EventKind::RouterDecision,
                idx as u32,
                obs::class_index(class) as u64,
                0,
            );
        }
        &self.shards[idx]
    }

    /// The engine's observability plane.
    pub fn obs(&self) -> &EngineObs {
        &self.obs
    }

    /// Turn the observability plane on: enables device-descriptor
    /// tracing (process-wide), installs this engine's shard observers
    /// as the device retrieve hooks, enables the histograms and flight
    /// recorder, and wires already-attached submit queues to the
    /// recorder. Queues attached later are wired by
    /// [`Self::attach_shard_submit_queue`].
    pub fn enable_metrics(&self) {
        qtls_qat::trace::set_tracing(true);
        self.obs.set_enabled(true);
        for shard in &self.shards {
            shard
                .instance
                .set_retrieve_hook(Arc::clone(&shard.obs) as Arc<dyn qtls_qat::RetrieveHook>);
            if let Some(queue) = shard.queue() {
                queue.set_flight_recorder(Arc::clone(self.obs.recorder()), shard.index);
            }
        }
    }

    /// Declare that an external polling thread is attached (the blocking
    /// path then waits instead of polling the rings itself).
    pub fn set_external_poller(&self, attached: bool) {
        self.has_external_poller.store(attached, Ordering::Relaxed);
    }

    /// Number of shards (crypto instances) backing this engine.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The router's placement policy.
    pub fn shard_policy(&self) -> ShardPolicy {
        self.router.policy()
    }

    /// The crypto instance backing shard `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= shard_count()`.
    pub fn shard_instance(&self, i: usize) -> &CryptoInstance {
        &self.shards[i].instance
    }

    /// Shard `i`'s inflight request total.
    ///
    /// # Panics
    ///
    /// Panics if `i >= shard_count()`.
    pub fn shard_inflight(&self, i: usize) -> u64 {
        self.shards[i].inflight.total()
    }

    /// Shard `i`'s inflight asymmetric-request count.
    ///
    /// # Panics
    ///
    /// Panics if `i >= shard_count()`.
    pub fn shard_asym_inflight(&self, i: usize) -> u64 {
        self.shards[i].inflight.asym()
    }

    /// Engine mode.
    pub fn mode(&self) -> EngineMode {
        self.mode
    }

    /// The aggregate inflight counters ("new engine command" of §4.3).
    pub fn inflight(&self) -> &InflightCounters {
        &self.counters
    }

    /// Total submission retries due to a full request ring, summed over
    /// shards.
    pub fn ring_full_retries(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.ring_full_retries.load(Ordering::Relaxed))
            .sum()
    }

    /// Attach a submit queue to shard `i`: a job's single offloads
    /// placed on that shard are staged on it and published in one batch
    /// by [`Self::flush_submissions`] at the event-loop sweep boundary
    /// (each shard stages and flushes independently, so the flush
    /// policy applies per ring). [`Placement::decide`] says which
    /// offloads stage.
    ///
    /// # Panics
    ///
    /// Panics if `i >= shard_count()`.
    pub fn attach_shard_submit_queue(&self, i: usize, queue: Arc<SubmitQueue>) {
        if self.obs.enabled() {
            queue.set_flight_recorder(Arc::clone(self.obs.recorder()), i as u32);
        }
        *self.shards[i].queue.lock() = Some(queue);
    }

    /// Shard `i`'s attached submit queue, if any.
    ///
    /// # Panics
    ///
    /// Panics if `i >= shard_count()`.
    pub fn shard_submit_queue(&self, i: usize) -> Option<Arc<SubmitQueue>> {
        self.shards[i].queue()
    }

    /// Sweep-boundary flush of every shard's attached submit queue
    /// (no-op for shards without one). Called by the worker at the end
    /// of each event-loop iteration; each queue's
    /// [`crate::pipeline::FlushPolicyConfig`] decides from its own
    /// shard's load whether this sweep publishes or holds.
    pub fn flush_submissions(&self) -> FlushReport {
        let mut total = FlushReport::default();
        for shard in &self.shards {
            if let Some(queue) = shard.queue() {
                let report = queue.sweep(&shard.instance, shard.inflight.total());
                total.submitted += report.submitted;
                total.deferred += report.deferred;
            }
        }
        total
    }

    /// Shutdown drain of every shard's attached submit queue: publish
    /// what each ring will take, then fail everything still staged with
    /// [`CryptoError::Cancelled`] so no waiter is silently dropped
    /// mid-sweep. No-op for shards without a queue; idempotent.
    pub fn drain_submit_queue(&self) -> DrainReport {
        let mut total = DrainReport::default();
        for shard in &self.shards {
            let Some(queue) = shard.queue() else {
                continue;
            };
            let report = queue.flush(&shard.instance);
            let cancelled = queue.drain_failing(CryptoError::Cancelled);
            total.flushed += report.submitted;
            total.cancelled += cancelled;
        }
        total
    }

    /// Poll the shards in order, retrieving up to `max` responses in
    /// total (callbacks run inline). Returns the number retrieved.
    pub fn poll(&self, max: usize) -> usize {
        let mut total = 0;
        for shard in &self.shards {
            if total >= max {
                break;
            }
            total += shard.instance.poll(max - total);
        }
        total
    }

    /// Drain all available responses from every shard.
    pub fn poll_all(&self) -> usize {
        self.shards.iter().map(|s| s.instance.poll_all()).sum()
    }

    /// Drain all available responses from shard `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= shard_count()`.
    pub fn poll_shard(&self, i: usize) -> usize {
        self.shards[i].instance.poll_all()
    }

    /// Offload one crypto operation: a group of one through
    /// [`Self::offload_batch`].
    pub fn offload(&self, op: CryptoOp) -> CryptoResult {
        let mut results = self.offload_batch(vec![op]);
        results.pop().expect("a group of one yields one result")
    }

    /// Offload a group of same-class operations through ONE shard and
    /// wait for all of them. Results return in op order.
    ///
    /// - `Async` inside a fiber job: the group is staged or published
    ///   per [`Placement::decide`], then the job pauses ONCE; the last
    ///   member's completion fires the notifier. A full ring's unsent
    ///   tail is staged on the shard's submit queue (published by the
    ///   next sweep flush, failed with [`CryptoError::Cancelled`] by a
    ///   shutdown drain); without a queue the job pauses with the retry
    ///   flag and republishes the tail on resume. Retries stay on the
    ///   routed shard — re-routing would reorder the tail behind later
    ///   submissions on another ring.
    /// - `Blocking`, or `Async` outside a job (OpenSSL running
    ///   synchronously when no `ASYNC_JOB` is active): publish in place,
    ///   ride the [`Backpressure`] policy on a full ring, and wait,
    ///   polling the shard itself unless an external poller is attached
    ///   (always, for `Async`).
    ///
    /// # Panics
    ///
    /// Debug-asserts that every op shares one [`OpClass`].
    pub fn offload_batch(&self, ops: Vec<CryptoOp>) -> Vec<CryptoResult> {
        if ops.is_empty() {
            return Vec::new();
        }
        let (job, self_poll) = match self.mode {
            EngineMode::Async => (fiber::current_wait_ctx(), true),
            EngineMode::Blocking => (None, !self.has_external_poller.load(Ordering::Relaxed)),
        };
        let waiter = match job {
            Some(ctx) => Waiter::Job(ctx),
            None => Waiter::Block(BlockSlot::default()),
        };
        let (group, mut tail) = self.submit(ops, waiter);
        let shard = &group.shard;
        let submit_ctx = if self_poll {
            SubmitContext::BlockingSelfPoll
        } else {
            SubmitContext::BlockingWait
        };
        let mut attempt = 0u32;
        while !tail.is_empty() {
            shard.ring_full_retries.fetch_add(1, Ordering::Relaxed);
            if let Waiter::Job(ctx) = &group.waiter {
                // Submission failure (§3.2) on the event loop: pause
                // with the retry flag and let the application reschedule.
                self.obs.recorder().record(
                    EventKind::BackpressureRetry,
                    shard.index,
                    attempt as u64 + 1,
                    0,
                );
                if shard.obs.enabled() {
                    ctx.get().set_submit_info(shard.index, 2);
                }
                ctx.get().set_retry();
                fiber::pause_job();
            } else {
                if self_poll {
                    shard.instance.poll_all();
                }
                self.backpressure.wait(attempt, submit_ctx);
            }
            shard.instance.submit_batch(&mut tail);
            attempt += 1;
        }
        match &group.waiter {
            // Crypto pause: the last completion parks a sentinel; a
            // spurious resume (event disorder, §4.2) just pauses again.
            Waiter::Job(ctx) => {
                fiber::pause_job();
                while ctx.get().take_result().is_none() {
                    fiber::pause_job();
                }
            }
            // "The QAT Engine cannot return control to upper layers
            // after it submits a crypto request" (§2.4).
            Waiter::Block(slot) => {
                let deadline = Instant::now() + Duration::from_secs(120);
                loop {
                    if self_poll {
                        shard.instance.poll_all();
                    }
                    if slot.wait(Duration::from_micros(50)) {
                        break;
                    }
                    assert!(
                        Instant::now() < deadline,
                        "blocking offload timed out: no poller retrieving responses?"
                    );
                }
            }
            Waiter::Detached(_) => unreachable!("offload_batch always waits"),
        }
        group.record_post();
        group.take()
    }

    /// Stack-async submission (§4.1): offload `op` as a group of one
    /// without waiting; `on_done` receives the result from the response
    /// callback. Published in place; a full ring hands the request back,
    /// still accounted as inflight, with the index of its shard for a
    /// retry on the same ring.
    pub(crate) fn offload_detached(
        &self,
        op: CryptoOp,
        on_done: Box<dyn Fn(Vec<CryptoResult>) + Send + Sync>,
    ) -> Result<(), (usize, Box<CryptoRequest>)> {
        let (group, mut tail) = self.submit(vec![op], Waiter::Detached(on_done));
        match tail.pop_front() {
            None => Ok(()),
            Some(request) => Err((group.shard.index as usize, Box::new(request))),
        }
    }

    /// Route `ops` to one shard, build one request per op around the
    /// group completion, and stage or publish the group per
    /// [`Placement::decide`]. Returns the group and the tail the ring
    /// refused, which a job with a queue stages instead.
    fn submit(&self, ops: Vec<CryptoOp>, waiter: Waiter) -> (Arc<Group>, VecDeque<CryptoRequest>) {
        let class = ops[0].class();
        debug_assert!(
            ops.iter().all(|op| op.class() == class),
            "an offload group must be single-class"
        );
        let shard = self.route(class);
        let in_job = matches!(waiter, Waiter::Job(_));
        let queue = if in_job { shard.queue() } else { None };
        let placement =
            Placement::decide(queue.as_deref(), in_job, ops.len(), shard.inflight.total());
        if let (Waiter::Job(ctx), true) = (&waiter, shard.obs.enabled()) {
            // Connection tracing: link the coming pause to the shard
            // and how the group left (read back by the worker when it
            // annotates the offload-wait span).
            ctx.get()
                .set_submit_info(shard.index, u64::from(placement == Placement::Bypass));
        }
        let group = Arc::new(Group {
            shard: Arc::clone(shard),
            counters: Arc::clone(&self.counters),
            class,
            slots: Mutex::new((0..ops.len()).map(|_| None).collect()),
            remaining: AtomicU64::new(ops.len() as u64),
            notified_ns: AtomicU64::new(0),
            waiter,
        });
        let mut batch: VecDeque<CryptoRequest> = ops
            .into_iter()
            .enumerate()
            .map(|(i, op)| {
                self.counters.counter(class).fetch_add(1, Ordering::Relaxed);
                shard.inflight.inc(class);
                let member = Arc::clone(&group);
                make_request(
                    self.next_cookie.fetch_add(1, Ordering::Relaxed),
                    op,
                    Box::new(move |result| member.complete(i, result)),
                )
            })
            .collect();
        match placement {
            Placement::Staged => {}
            Placement::InPlace => {
                shard.instance.submit_batch(&mut batch);
            }
            Placement::Bypass => {
                if shard.instance.submit_batch(&mut batch) > 0 {
                    queue.as_ref().expect("bypass needs a queue").note_bypass();
                }
            }
        }
        // Staged groups, and a job's ring-full tail, ride the sweep
        // machinery: the next flush publishes them; a shutdown drain
        // fails them with Cancelled.
        if let Some(queue) = &queue {
            for request in batch.drain(..) {
                queue.enqueue(request);
            }
        }
        (group, batch)
    }
}

/// Convenience: a [`CryptoError`]-typed failure for engine users.
pub type EngineResult = Result<Vec<u8>, CryptoError>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fiber::{start_job, StartResult};
    use qtls_qat::{QatConfig, QatDevice};
    use std::sync::mpsc;

    fn device() -> QatDevice {
        QatDevice::new(QatConfig::functional_small())
    }

    fn prf_op(n: usize) -> CryptoOp {
        CryptoOp::Prf {
            secret: b"secret".to_vec(),
            label: b"label".to_vec(),
            seed: b"seed".to_vec(),
            out_len: n,
        }
    }

    #[test]
    fn blocking_offload_returns_result() {
        let dev = device();
        let engine = OffloadEngine::new(dev.alloc_instance(), EngineMode::Blocking);
        let out = engine.offload(prf_op(48)).unwrap().into_bytes();
        assert_eq!(out.len(), 48);
        assert_eq!(engine.inflight().total(), 0);
    }

    #[test]
    fn async_offload_pauses_and_resumes() {
        let dev = device();
        let engine = Arc::new(OffloadEngine::new(dev.alloc_instance(), EngineMode::Async));
        let eng = Arc::clone(&engine);
        let result = start_job(move || eng.offload(prf_op(32)));
        let StartResult::Paused(job) = result else {
            panic!("job must pause after submission")
        };
        // While paused, one PRF request is inflight.
        assert_eq!(engine.inflight().total(), 1);
        assert_eq!(engine.inflight().prf.load(Ordering::Relaxed), 1);
        // Retrieve the response: poll until the callback fires.
        let deadline = Instant::now() + Duration::from_secs(10);
        while engine.poll_all() == 0 {
            assert!(Instant::now() < deadline);
            std::thread::yield_now();
        }
        assert_eq!(engine.inflight().total(), 0);
        match job.resume() {
            StartResult::Finished(res) => {
                assert_eq!(res.unwrap().into_bytes().len(), 32)
            }
            StartResult::Paused(_) => panic!("result ready; must finish"),
        }
    }

    #[test]
    fn many_concurrent_async_offloads() {
        // Multiple crypto operations from different "connections"
        // offloaded concurrently in one thread — §3.1's core claim.
        let dev = device();
        let engine = Arc::new(OffloadEngine::new(dev.alloc_instance(), EngineMode::Async));
        let mut jobs = Vec::new();
        for i in 0..16usize {
            let eng = Arc::clone(&engine);
            match start_job(move || eng.offload(prf_op(16 + i))) {
                StartResult::Paused(j) => jobs.push((i, j)),
                StartResult::Finished(_) => panic!("must pause"),
            }
        }
        assert_eq!(engine.inflight().total(), 16);
        // Retrieve all responses, then resume all jobs.
        let deadline = Instant::now() + Duration::from_secs(10);
        while engine.inflight().total() > 0 {
            engine.poll_all();
            assert!(Instant::now() < deadline);
            std::thread::yield_now();
        }
        for (i, job) in jobs {
            match job.resume() {
                StartResult::Finished(res) => {
                    assert_eq!(res.unwrap().into_bytes().len(), 16 + i)
                }
                StartResult::Paused(_) => panic!("must finish"),
            }
        }
    }

    #[test]
    fn async_outside_job_falls_back_to_blocking() {
        let dev = device();
        let engine = OffloadEngine::new(dev.alloc_instance(), EngineMode::Async);
        let out = engine.offload(prf_op(20)).unwrap().into_bytes();
        assert_eq!(out.len(), 20);
    }

    #[test]
    fn ring_full_sets_retry_and_recovers() {
        // No engines on a capacity-2 ring: two offloads fill it, a third
        // bounces with the retry flag and republishes once space frees.
        let dev = QatDevice::new(QatConfig {
            endpoints: 1,
            engines_per_endpoint: 0,
            ring_capacity: 2,
            ..QatConfig::functional_small()
        });
        let engine = Arc::new(OffloadEngine::new(dev.alloc_instance(), EngineMode::Async));
        // Two jobs fill the ring.
        let mut jobs = Vec::new();
        for _ in 0..2 {
            let eng = Arc::clone(&engine);
            match start_job(move || eng.offload(prf_op(8))) {
                StartResult::Paused(j) => jobs.push(j),
                _ => panic!(),
            }
        }
        // Third job hits ring-full and pauses with the retry flag.
        let eng = Arc::clone(&engine);
        let third = match start_job(move || eng.offload(prf_op(8))) {
            StartResult::Paused(j) => j,
            _ => panic!(),
        };
        assert!(third.wait_ctx().take_retry(), "retry flag expected");
        assert_eq!(engine.ring_full_retries(), 1);
        // Free the ring; the rescheduled job republishes and pauses for
        // its response.
        assert_eq!(engine.shard_instance(0).discard_requests(usize::MAX), 2);
        let third = match third.resume() {
            StartResult::Paused(j) => j,
            StartResult::Finished(_) => panic!("no engines: the response never arrives"),
        };
        assert_eq!(dev.fw_counters().submitted.load(Ordering::Relaxed), 3);
        assert!(!third.wait_ctx().take_retry(), "republished without retry");
        assert_eq!(engine.ring_full_retries(), 1);
    }

    #[test]
    fn queued_submissions_flush_in_one_batch() {
        use crate::pipeline::SubmitQueue;
        let dev = device();
        let engine = Arc::new(OffloadEngine::new(dev.alloc_instance(), EngineMode::Async));
        let queue = Arc::new(SubmitQueue::new());
        engine.attach_shard_submit_queue(0, Arc::clone(&queue));
        let mut jobs = Vec::new();
        for i in 0..6usize {
            let eng = Arc::clone(&engine);
            match start_job(move || eng.offload(prf_op(8 + i))) {
                StartResult::Paused(j) => jobs.push((i, j)),
                StartResult::Finished(_) => panic!("must pause"),
            }
        }
        // The sweep staged everything; nothing reached the device yet.
        assert_eq!(queue.len(), 6);
        assert_eq!(engine.inflight().total(), 6);
        assert_eq!(dev.fw_counters().submitted.load(Ordering::Relaxed), 0);
        // The sweep-boundary flush publishes the batch: one doorbell.
        let report = engine.flush_submissions();
        assert_eq!(report.submitted, 6);
        assert_eq!(report.deferred, 0);
        assert!(queue.is_empty());
        assert_eq!(dev.fw_counters().submitted.load(Ordering::Relaxed), 6);
        assert_eq!(dev.fw_counters().doorbells.load(Ordering::Relaxed), 1);
        let deadline = Instant::now() + Duration::from_secs(10);
        while engine.inflight().total() > 0 {
            engine.poll_all();
            assert!(Instant::now() < deadline);
            std::thread::yield_now();
        }
        for (i, job) in jobs {
            match job.resume() {
                StartResult::Finished(res) => {
                    assert_eq!(res.unwrap().into_bytes().len(), 8 + i)
                }
                StartResult::Paused(_) => panic!("must finish"),
            }
        }
        assert_eq!(engine.ring_full_retries(), 0);
    }

    #[test]
    fn flush_defers_on_full_ring_and_retries_next_sweep() {
        use crate::pipeline::SubmitQueue;
        // No engines, tiny ring: the flush can only place 2 of 5.
        let dev = QatDevice::new(QatConfig {
            endpoints: 1,
            engines_per_endpoint: 0,
            ring_capacity: 2,
            ..QatConfig::functional_small()
        });
        let engine = Arc::new(OffloadEngine::new(dev.alloc_instance(), EngineMode::Async));
        let queue = Arc::new(SubmitQueue::new());
        engine.attach_shard_submit_queue(0, Arc::clone(&queue));
        let mut jobs = Vec::new();
        for _ in 0..5 {
            let eng = Arc::clone(&engine);
            match start_job(move || eng.offload(prf_op(8))) {
                StartResult::Paused(j) => jobs.push(j),
                StartResult::Finished(_) => panic!("must pause"),
            }
        }
        let report = engine.flush_submissions();
        assert_eq!(report.submitted, 2);
        assert_eq!(report.deferred, 3);
        // Deferral is queue-internal backpressure: no per-job retry
        // pause, no ring_full_retries.
        assert_eq!(engine.ring_full_retries(), 0);
        assert_eq!(engine.inflight().total(), 5);
        // "Engines" consume the ring; later sweeps' flushes drain the
        // deferred tail two slots at a time.
        assert_eq!(engine.shard_instance(0).discard_requests(usize::MAX), 2);
        let report = engine.flush_submissions();
        assert_eq!(report.submitted, 2);
        assert_eq!(report.deferred, 1);
        assert_eq!(engine.shard_instance(0).discard_requests(usize::MAX), 2);
        let report = engine.flush_submissions();
        assert_eq!(report.submitted, 1);
        assert_eq!(report.deferred, 0);
        assert!(queue.is_empty());
    }

    #[test]
    fn adaptive_bypass_submits_in_place_under_light_load() {
        use crate::pipeline::{FlushPolicyConfig, SubmitQueue};
        let dev = device();
        let engine = Arc::new(OffloadEngine::new(dev.alloc_instance(), EngineMode::Async));
        let queue = Arc::new(SubmitQueue::with_policy(FlushPolicyConfig {
            bypass: true,
            ..FlushPolicyConfig::adaptive()
        }));
        engine.attach_shard_submit_queue(0, Arc::clone(&queue));
        let eng = Arc::clone(&engine);
        let job = match start_job(move || eng.offload(prf_op(8))) {
            StartResult::Paused(j) => j,
            StartResult::Finished(_) => panic!("must pause"),
        };
        // Light load: the request skipped staging and is already on the
        // device — no flush needed.
        assert!(queue.is_empty());
        assert_eq!(dev.fw_counters().submitted.load(Ordering::Relaxed), 1);
        assert_eq!(queue.stats().bypasses.load(Ordering::Relaxed), 1);
        assert_eq!(engine.flush_submissions(), FlushReport::default());
        let deadline = Instant::now() + Duration::from_secs(10);
        while engine.inflight().total() > 0 {
            engine.poll_all();
            assert!(Instant::now() < deadline);
            std::thread::yield_now();
        }
        match job.resume() {
            StartResult::Finished(res) => assert_eq!(res.unwrap().into_bytes().len(), 8),
            StartResult::Paused(_) => panic!("must finish"),
        }
        // A group of several is published in place under its own
        // doorbell and is not a bypass.
        let eng = Arc::clone(&engine);
        let job = match start_job(move || eng.offload_batch((1..=4).map(prf_op).collect())) {
            StartResult::Paused(j) => j,
            StartResult::Finished(_) => panic!("must pause"),
        };
        assert!(queue.is_empty());
        assert_eq!(dev.fw_counters().submitted.load(Ordering::Relaxed), 5);
        assert_eq!(dev.fw_counters().doorbells.load(Ordering::Relaxed), 2);
        assert_eq!(queue.stats().bypasses.load(Ordering::Relaxed), 1);
        let deadline = Instant::now() + Duration::from_secs(10);
        while engine.inflight().total() > 0 {
            engine.poll_all();
            assert!(Instant::now() < deadline);
            std::thread::yield_now();
        }
        match job.resume() {
            StartResult::Finished(results) => assert_eq!(results.len(), 4),
            StartResult::Paused(_) => panic!("must finish"),
        }
    }

    #[test]
    fn adaptive_sweep_holds_then_starvation_cap_flushes() {
        use crate::pipeline::{FlushMode, FlushPolicyConfig, SubmitQueue};
        let dev = device();
        let engine = Arc::new(OffloadEngine::new(dev.alloc_instance(), EngineMode::Async));
        // Never light (light_inflight 0 and jobs keep inflight > 0),
        // hold bound of 2 sweeps, wall-clock cap effectively off.
        let queue = Arc::new(SubmitQueue::with_policy(FlushPolicyConfig {
            mode: FlushMode::Adaptive,
            target_depth: 16,
            light_inflight: 0,
            light_ewma_depth_milli: u64::MAX,
            max_hold_sweeps: 2,
            max_hold: Duration::from_secs(3600),
            bypass: false,
        }));
        engine.attach_shard_submit_queue(0, Arc::clone(&queue));
        let mut jobs = Vec::new();
        for _ in 0..3 {
            let eng = Arc::clone(&engine);
            match start_job(move || eng.offload(prf_op(8))) {
                StartResult::Paused(j) => jobs.push(j),
                StartResult::Finished(_) => panic!("must pause"),
            }
        }
        // Two sweeps hold the shallow batch...
        assert_eq!(engine.flush_submissions(), FlushReport::default());
        assert_eq!(engine.flush_submissions(), FlushReport::default());
        assert_eq!(queue.len(), 3);
        // ...the third hits the starvation cap and force-flushes.
        let report = engine.flush_submissions();
        assert_eq!(report.submitted, 3);
        assert_eq!(queue.stats().holds.load(Ordering::Relaxed), 2);
        assert_eq!(queue.stats().forced_flushes.load(Ordering::Relaxed), 1);
        let deadline = Instant::now() + Duration::from_secs(10);
        while engine.inflight().total() > 0 {
            engine.poll_all();
            assert!(Instant::now() < deadline);
            std::thread::yield_now();
        }
        for job in jobs {
            match job.resume() {
                StartResult::Finished(res) => assert_eq!(res.unwrap().into_bytes().len(), 8),
                StartResult::Paused(_) => panic!("must finish"),
            }
        }
    }

    #[test]
    fn drain_cancels_staged_requests_with_definite_error() {
        // Regression (PR 3): requests staged in the SubmitQueue but not
        // yet flushed were silently dropped on worker shutdown — the
        // paused jobs' waiters never saw a result and the inflight
        // counters never came back down.
        use crate::pipeline::SubmitQueue;
        let dev = QatDevice::new(QatConfig {
            endpoints: 1,
            engines_per_endpoint: 0,
            ring_capacity: 2,
            ..QatConfig::functional_small()
        });
        let engine = Arc::new(OffloadEngine::new(dev.alloc_instance(), EngineMode::Async));
        let queue = Arc::new(SubmitQueue::new());
        engine.attach_shard_submit_queue(0, Arc::clone(&queue));
        let mut jobs = Vec::new();
        for _ in 0..5 {
            let eng = Arc::clone(&engine);
            match start_job(move || eng.offload(prf_op(8))) {
                StartResult::Paused(j) => jobs.push(j),
                StartResult::Finished(_) => panic!("must pause"),
            }
        }
        assert_eq!(engine.inflight().total(), 5);
        // Shutdown mid-sweep: the ring takes two, the other three must
        // be failed — not dropped.
        let drained = engine.drain_submit_queue();
        assert_eq!(drained.flushed, 2);
        assert_eq!(drained.cancelled, 3);
        assert!(queue.is_empty());
        // Cancelled requests released their inflight accounting.
        assert_eq!(engine.inflight().total(), 2);
        // Their waiters observe the definite error on resume.
        let mut cancelled = 0;
        for job in jobs {
            match job.resume() {
                StartResult::Finished(Err(CryptoError::Cancelled)) => cancelled += 1,
                StartResult::Finished(other) => panic!("unexpected result: {other:?}"),
                StartResult::Paused(j) => {
                    // The two that reached the ring have no response (no
                    // engines); they stay parked. Keep them alive to drop.
                    drop(j);
                }
            }
        }
        assert_eq!(cancelled, 3);
        // Second drain is a no-op.
        assert_eq!(
            engine.drain_submit_queue(),
            crate::pipeline::DrainReport::default()
        );
    }

    #[test]
    fn blocking_full_ring_with_external_poller_does_not_hot_spin() {
        use crate::poller::TimerPoller;
        // Regression: with an external poller attached (self_poll ==
        // false) the old SubmitFull retry loop spun hot — one
        // ring_full_retries increment per yield, tens of thousands per
        // blocked submission. The shared Backpressure policy bounds the
        // spin and parks, so the retry count stays small.
        use qtls_qat::{ServiceMode, ServiceTable};
        let dev = QatDevice::new(QatConfig {
            endpoints: 1,
            engines_per_endpoint: 1,
            ring_capacity: 2,
            service_mode: ServiceMode::Timed { time_scale: 1.0 },
            service_table: ServiceTable {
                prf_ns: 3_000_000, // 3 ms per op: the ring stays full
                ..ServiceTable::default()
            },
        });
        let engine = Arc::new(OffloadEngine::new(
            dev.alloc_instance(),
            EngineMode::Blocking,
        ));
        let poller = TimerPoller::spawn(Arc::clone(&engine), Duration::from_micros(200));
        let mut handles = Vec::new();
        for _ in 0..6 {
            let eng = Arc::clone(&engine);
            handles.push(std::thread::spawn(move || {
                eng.offload(prf_op(16)).unwrap().into_bytes()
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap().len(), 16);
        }
        poller.stop();
        let retries = engine.ring_full_retries();
        assert!(
            retries < 5_000,
            "blocking path hot-spun on a full ring: {retries} retries"
        );
    }

    #[test]
    fn notification_callback_fires_on_poll() {
        let dev = device();
        let engine = Arc::new(OffloadEngine::new(dev.alloc_instance(), EngineMode::Async));
        let eng = Arc::clone(&engine);
        let job = match start_job(move || eng.offload(prf_op(4))) {
            StartResult::Paused(j) => j,
            _ => panic!(),
        };
        let (tx, rx) = mpsc::channel();
        job.wait_ctx().set_callback(
            Arc::new(move |arg| {
                let _ = tx.send(arg);
            }),
            4242,
        );
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            engine.poll_all();
            match rx.try_recv() {
                Ok(arg) => {
                    assert_eq!(arg, 4242);
                    break;
                }
                Err(_) => assert!(Instant::now() < deadline, "callback never fired"),
            }
            std::thread::yield_now();
        }
        match job.resume() {
            StartResult::Finished(r) => assert_eq!(r.unwrap().into_bytes().len(), 4),
            _ => panic!(),
        }
    }

    #[test]
    fn sharded_engine_spreads_requests_round_robin() {
        let dev = QatDevice::new(QatConfig {
            endpoints: 2,
            engines_per_endpoint: 0,
            ring_capacity: 32,
            ..QatConfig::functional_small()
        });
        let engine = Arc::new(OffloadEngine::sharded(
            dev.alloc_instances(2),
            EngineMode::Async,
            ShardPolicy::RoundRobin,
        ));
        assert_eq!(engine.shard_count(), 2);
        // Distinct endpoints back the two shards.
        assert_ne!(
            engine.shard_instance(0).endpoint_index(),
            engine.shard_instance(1).endpoint_index()
        );
        for _ in 0..4 {
            let eng = Arc::clone(&engine);
            match start_job(move || eng.offload(prf_op(8))) {
                StartResult::Paused(j) => std::mem::forget(j),
                _ => panic!("must pause"),
            }
        }
        // Aggregate and per-shard accounting agree: 2 + 2.
        assert_eq!(engine.inflight().total(), 4);
        assert_eq!(engine.shard_inflight(0), 2);
        assert_eq!(engine.shard_inflight(1), 2);
        assert_eq!(engine.shard_instance(0).queued_requests(), 2);
        assert_eq!(engine.shard_instance(1).queued_requests(), 2);
    }

    #[test]
    fn op_affinity_keeps_asym_off_the_symmetric_shard() {
        let dev = QatDevice::new(QatConfig {
            endpoints: 2,
            engines_per_endpoint: 0,
            ring_capacity: 32,
            ..QatConfig::functional_small()
        });
        let engine = Arc::new(OffloadEngine::sharded(
            dev.alloc_instances(2),
            EngineMode::Async,
            ShardPolicy::OpAffinity,
        ));
        for _ in 0..3 {
            let eng = Arc::clone(&engine);
            match start_job(move || eng.offload(prf_op(8))) {
                StartResult::Paused(j) => std::mem::forget(j),
                _ => panic!("must pause"),
            }
        }
        // PRF ops all landed on the symmetric shard (1)...
        assert_eq!(engine.shard_inflight(0), 0);
        assert_eq!(engine.shard_inflight(1), 3);
        // ...and an asym op goes to shard 0, away from them.
        let eng = Arc::clone(&engine);
        match start_job(move || {
            eng.offload(CryptoOp::EcKeygen {
                curve: qtls_crypto::ecc::NamedCurve::P256,
                seed: 1,
            })
        }) {
            StartResult::Paused(j) => std::mem::forget(j),
            _ => panic!("must pause"),
        }
        assert_eq!(engine.shard_inflight(0), 1);
        assert_eq!(engine.shard_asym_inflight(0), 1);
        assert_eq!(engine.shard_asym_inflight(1), 0);
        assert_eq!(engine.inflight().asym_inflight(), 1);
    }

    #[test]
    fn sharded_drain_cancels_staged_requests_on_every_shard() {
        // The PR-3 drain fix, extended to N queues: shutdown must
        // publish what each shard's ring takes and fail the rest — on
        // every shard, not just shard 0.
        use crate::pipeline::SubmitQueue;
        let dev = QatDevice::new(QatConfig {
            endpoints: 2,
            engines_per_endpoint: 0,
            ring_capacity: 2,
            ..QatConfig::functional_small()
        });
        let engine = Arc::new(OffloadEngine::sharded(
            dev.alloc_instances(2),
            EngineMode::Async,
            ShardPolicy::RoundRobin,
        ));
        for i in 0..engine.shard_count() {
            engine.attach_shard_submit_queue(i, Arc::new(SubmitQueue::new()));
        }
        let mut jobs = Vec::new();
        for _ in 0..10 {
            let eng = Arc::clone(&engine);
            match start_job(move || eng.offload(prf_op(8))) {
                StartResult::Paused(j) => jobs.push(j),
                StartResult::Finished(_) => panic!("must pause"),
            }
        }
        // 5 staged per shard; each ring takes 2, each queue cancels 3.
        let drained = engine.drain_submit_queue();
        assert_eq!(drained.flushed, 4);
        assert_eq!(drained.cancelled, 6);
        assert_eq!(engine.inflight().total(), 4);
        assert_eq!(engine.shard_inflight(0), 2);
        assert_eq!(engine.shard_inflight(1), 2);
        let mut cancelled = 0;
        for job in jobs {
            match job.resume() {
                StartResult::Finished(Err(CryptoError::Cancelled)) => cancelled += 1,
                StartResult::Finished(other) => panic!("unexpected result: {other:?}"),
                StartResult::Paused(j) => drop(j),
            }
        }
        assert_eq!(cancelled, 6);
        // Second drain is a no-op.
        assert_eq!(engine.drain_submit_queue(), DrainReport::default());
    }

    #[test]
    fn batched_blocking_offload_one_doorbell_ordered_results() {
        // Straight offload, and async mode outside a job (the blocking
        // fallback), publish the group under one doorbell alike.
        for mode in [EngineMode::Blocking, EngineMode::Async] {
            let dev = device();
            let engine = OffloadEngine::new(dev.alloc_instance(), mode);
            let ops: Vec<CryptoOp> = (1..=8).map(prf_op).collect();
            let results = engine.offload_batch(ops);
            assert_eq!(results.len(), 8);
            for (i, result) in results.into_iter().enumerate() {
                assert_eq!(result.unwrap().into_bytes().len(), i + 1, "order kept");
            }
            // The whole batch went out under ONE doorbell.
            assert_eq!(dev.fw_counters().doorbells.load(Ordering::Relaxed), 1);
            assert_eq!(dev.fw_counters().submitted.load(Ordering::Relaxed), 8);
            assert_eq!(engine.inflight().total(), 0);
        }
    }

    #[test]
    fn batched_async_offload_pauses_once_for_the_whole_batch() {
        let dev = device();
        let engine = Arc::new(OffloadEngine::new(dev.alloc_instance(), EngineMode::Async));
        let eng = Arc::clone(&engine);
        let job = match start_job(move || eng.offload_batch((1..=6).map(prf_op).collect())) {
            StartResult::Paused(j) => j,
            StartResult::Finished(_) => panic!("must pause"),
        };
        // All six inflight after a single publish + doorbell.
        assert_eq!(engine.inflight().total(), 6);
        assert_eq!(dev.fw_counters().doorbells.load(Ordering::Relaxed), 1);
        let deadline = Instant::now() + Duration::from_secs(10);
        while engine.inflight().total() > 0 {
            engine.poll_all();
            assert!(Instant::now() < deadline);
            std::thread::yield_now();
        }
        // ONE resume finishes the job with every result, in op order.
        match job.resume() {
            StartResult::Finished(results) => {
                assert_eq!(results.len(), 6);
                for (i, result) in results.into_iter().enumerate() {
                    assert_eq!(result.unwrap().into_bytes().len(), 1 + i);
                }
            }
            StartResult::Paused(_) => panic!("batch resolved; must finish"),
        }
    }

    #[test]
    fn batched_drain_cancels_only_the_unsent_tail() {
        // Mid-batch shutdown mirrors the PR-3 drain semantics: the head
        // of the batch that reached the ring completes normally; only
        // the tail still staged on the submit queue fails, with the
        // definite Cancelled error, and order is preserved.
        use crate::pipeline::SubmitQueue;
        use qtls_qat::{ServiceMode, ServiceTable};
        let dev = QatDevice::new(QatConfig {
            endpoints: 1,
            engines_per_endpoint: 1,
            ring_capacity: 4,
            service_mode: ServiceMode::Timed { time_scale: 1.0 },
            service_table: ServiceTable {
                prf_ns: 2_000_000, // 2 ms per op keeps the ring busy
                ..ServiceTable::default()
            },
        });
        let engine = Arc::new(OffloadEngine::new(dev.alloc_instance(), EngineMode::Async));
        engine.attach_shard_submit_queue(0, Arc::new(SubmitQueue::new()));
        let eng = Arc::clone(&engine);
        let job = match start_job(move || eng.offload_batch(vec![prf_op(8); 10])) {
            StartResult::Paused(j) => j,
            StartResult::Finished(_) => panic!("must pause"),
        };
        // Ring took 4; the other 6 are staged for the next sweep.
        assert_eq!(engine.inflight().total(), 10);
        let drained = engine.drain_submit_queue();
        assert!(
            drained.cancelled >= 1,
            "shutdown must cancel the staged tail"
        );
        let cancelled = drained.cancelled;
        // The published head still completes through the engine.
        let deadline = Instant::now() + Duration::from_secs(10);
        while engine.inflight().total() > 0 {
            engine.poll_all();
            assert!(Instant::now() < deadline);
            std::thread::yield_now();
        }
        let results = match job.resume() {
            StartResult::Finished(r) => r,
            StartResult::Paused(_) => panic!("all members resolved; must finish"),
        };
        assert_eq!(results.len(), 10);
        for (i, result) in results.iter().enumerate() {
            if i < 10 - cancelled {
                assert!(result.is_ok(), "sent head member {i} must complete");
            } else {
                assert!(
                    matches!(result, Err(CryptoError::Cancelled)),
                    "unsent tail member {i} must fail with Cancelled, got {result:?}"
                );
            }
        }
    }

    #[test]
    fn sharded_blocking_offloads_complete_on_every_shard() {
        // End-to-end through real engines: round-robin placement across
        // two shards still delivers every result.
        let dev = QatDevice::new(QatConfig {
            endpoints: 2,
            engines_per_endpoint: 1,
            ring_capacity: 32,
            ..QatConfig::functional_small()
        });
        let engine = OffloadEngine::sharded(
            dev.alloc_instances(2),
            EngineMode::Blocking,
            ShardPolicy::RoundRobin,
        );
        for i in 1..=6 {
            let out = engine.offload(prf_op(i)).unwrap().into_bytes();
            assert_eq!(out.len(), i);
        }
        assert_eq!(engine.inflight().total(), 0);
        assert_eq!(engine.shard_inflight(0), 0);
        assert_eq!(engine.shard_inflight(1), 0);
    }

    /// Poll every shard until nothing is inflight.
    fn drain(engine: &OffloadEngine) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while engine.inflight().total() > 0 {
            engine.poll_all();
            assert!(Instant::now() < deadline, "responses never arrived");
            std::thread::yield_now();
        }
    }

    #[test]
    fn group_of_one_in_a_job_is_staged_until_the_sweep_flush() {
        use crate::pipeline::SubmitQueue;
        let dev = device();
        let engine = Arc::new(OffloadEngine::new(dev.alloc_instance(), EngineMode::Async));
        let queue = Arc::new(SubmitQueue::new());
        engine.attach_shard_submit_queue(0, Arc::clone(&queue));
        let eng = Arc::clone(&engine);
        let job = match start_job(move || eng.offload_batch(vec![prf_op(3)])) {
            StartResult::Paused(j) => j,
            StartResult::Finished(_) => panic!("must pause"),
        };
        assert_eq!(queue.len(), 1);
        assert_eq!(engine.inflight().total(), 1);
        assert_eq!(dev.fw_counters().submitted.load(Ordering::Relaxed), 0);
        assert_eq!(engine.flush_submissions().submitted, 1);
        assert_eq!(dev.fw_counters().submitted.load(Ordering::Relaxed), 1);
        drain(&engine);
        match job.resume() {
            StartResult::Finished(mut results) => {
                assert_eq!(results.len(), 1);
                assert_eq!(results.pop().unwrap().unwrap().into_bytes().len(), 3);
            }
            StartResult::Paused(_) => panic!("must finish"),
        }
    }

    #[test]
    fn batched_offload_records_phases_and_submit_info() {
        use qtls_qat::OpClass;
        let dev = QatDevice::new(QatConfig {
            endpoints: 2,
            engines_per_endpoint: 1,
            ring_capacity: 32,
            ..QatConfig::functional_small()
        });
        let engine = Arc::new(OffloadEngine::sharded(
            dev.alloc_instances(2),
            EngineMode::Async,
            ShardPolicy::RoundRobin,
        ));
        engine.enable_metrics();
        let count = |phase| -> u64 {
            (0..engine.shard_count())
                .map(|i| {
                    engine
                        .obs()
                        .shard(i)
                        .snapshot(phase, OpClass::Cipher)
                        .count()
                })
                .sum()
        };
        let (notify0, post0) = (count(Phase::Notify), count(Phase::Post));
        // A PRF offload outside a job takes round-robin's first turn, so
        // the group lands on shard 1 and a shard-0 default would show.
        engine.offload(prf_op(8)).unwrap();
        let cipher = |i: u8| CryptoOp::CipherEncrypt {
            enc_key: [i; 16],
            mac_key: vec![i; 20],
            iv: [i; 16],
            plaintext: vec![i; 64],
            aad: vec![i; 13],
        };
        let eng = Arc::clone(&engine);
        let job = match start_job(move || eng.offload_batch((1..=4).map(cipher).collect())) {
            StartResult::Paused(j) => j,
            StartResult::Finished(_) => panic!("must pause"),
        };
        let shard = (0..engine.shard_count())
            .find(|&i| engine.shard_inflight(i) == 4)
            .expect("the group sits on one shard");
        assert_eq!(shard, 1);
        assert_eq!(job.wait_ctx().submit_info(), Some((shard as u32, 0)));
        drain(&engine);
        match job.resume() {
            StartResult::Finished(results) => {
                assert_eq!(results.len(), 4);
                assert!(results.iter().all(|r| r.is_ok()));
            }
            StartResult::Paused(_) => panic!("must finish"),
        }
        // One wake-up for the group: one notification, one post sample.
        assert_eq!(count(Phase::Notify), notify0 + 1);
        assert_eq!(count(Phase::Post), post0 + 1);
    }
}
