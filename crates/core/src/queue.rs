//! Asynchronous block-handle queues.
//!
//! Routers and the gpu2cpu operator connect producer and consumer pipeline
//! instances through asynchronous queues of block *handles* (§3.1). A queue
//! supports many producers and terminates the consumer cleanly once every
//! registered producer has finished. Two variants exist:
//!
//! * [`BlockQueue::new`] — unbounded (the paper's staging memory is
//!   pre-allocated by the block managers, so back-pressure can be handled
//!   there);
//! * [`BlockQueue::bounded`] — bounded to a fixed number of buffered blocks,
//!   giving the pipelined executor explicit back-pressure: a producer waits
//!   for the consumer to drain a slot, modeling a finite staging arena.
//!
//! The buffer is an in-process deque guarded by one mutex (it used to be a
//! channel): the pipelined executor's adaptive re-routing needs *tail* access
//! — [`BlockQueue::steal`] removes the most recently enqueued block, which a
//! straggling consumer withdraws from its own backlog to re-route it and a
//! FIFO channel cannot express. The tail is the block that would otherwise
//! wait behind the whole backlog.
//!
//! Every wait has one mechanism ([`hetex_common::wait`]): the non-blocking
//! forms [`BlockQueue::poll_pop`], [`BlockQueue::poll_push`] and
//! [`BlockQueue::poll_admit`] register the caller's waker under the mutex
//! whose condition failed, and push, completion, close, a
//! released [`QueueSlot`] and a quota reset wake exactly the registered
//! wakers. The blocking [`BlockQueue::push`], [`BlockQueue::pop`],
//! [`BlockQueue::admit`] and [`BlockQueue::drain`] register a waker that
//! unparks the calling thread.
//!
//! Termination is cooperative: producers register (`new(n)` /
//! [`BlockQueue::add_producer`] / [`BlockQueue::register_producer`]) and
//! signal completion ([`BlockQueue::producer_done`]); `pop` returns `None`
//! once every producer finished and the queue drained. Two safety valves stop
//! a consumer from deadlocking when a producer dies abnormally:
//!
//! * [`BlockQueue::close`] poisons the queue — every pending and future `pop`
//!   returns `None`, every future `push` fails, and every future `steal`
//!   returns `None` — and is called by the executor when a worker errors out,
//!   cascading shutdown upstream;
//! * [`ProducerGuard`] (from [`BlockQueue::register_producer`]) signals
//!   `producer_done` from its `Drop` impl, so a producer that panics before
//!   finishing still releases its consumer during unwinding.

use hetex_common::wait::{block_on, register, take};
use hetex_common::{BlockHandle, HetError, MemoryNodeId, Result};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex as StdMutex, MutexGuard};
use std::task::{Poll, Waker};

/// Byte-quota accounting of one queue: how many staged bytes are outstanding
/// (admitted but not yet dropped by the consumer) against the queue's share
/// of its node's staging arena. Shared by all clones of the queue.
#[derive(Debug)]
struct QueueStaging {
    /// The queue's byte share of its node's staging budget. Atomic because
    /// the demand-weighted quota re-split (`hetex_core::cost`) adjusts live
    /// quotas on a cadence while producers are admitting.
    quota: AtomicU64,
    /// Outstanding admitted bytes and the producers waiting in admission.
    admission: StdMutex<Admission>,
    /// Cumulative admitted bytes over the queue's lifetime — the demand
    /// signal the quota re-split reads.
    admitted_total: AtomicU64,
}

/// The admission state guarded by [`QueueStaging::admission`].
#[derive(Debug, Default)]
struct Admission {
    bytes: u64,
    /// Producers waiting for outstanding bytes to shrink (or the quota to
    /// grow, or the queue to close).
    waiters: Vec<Waker>,
}

impl QueueStaging {
    fn lock(&self) -> MutexGuard<'_, Admission> {
        self.admission.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Wake every producer waiting in admission.
    fn wake_waiters(&self) {
        let waiters = take(&mut self.lock().waiters);
        waiters.wake();
    }
}

/// RAII receipt of one byte admission into a [`BlockQueue`]; dropping it
/// returns the bytes to the queue's quota and wakes waiting producers. The
/// executor bundles this with the arena [`BlockLease`] into the handle's
/// staging token, so consumer-side drops release both at once.
#[derive(Debug)]
pub struct QueueSlot {
    bytes: u64,
    staging: Arc<QueueStaging>,
}

impl Drop for QueueSlot {
    fn drop(&mut self) {
        let mut admission = self.staging.lock();
        admission.bytes = admission.bytes.saturating_sub(self.bytes);
        let waiters = take(&mut admission.waiters);
        drop(admission);
        waiters.wake();
    }
}

/// The buffered blocks plus the completion count, guarded by one mutex.
#[derive(Debug, Default)]
struct QueueInner {
    buf: VecDeque<BlockHandle>,
    finished: usize,
    /// Consumers waiting for a block, a completion or the close.
    consumers: Vec<Waker>,
    /// Producers waiting for a slot in the full buffer.
    producers: Vec<Waker>,
}

/// State shared by all clones of one queue.
#[derive(Debug)]
struct QueueCore {
    /// Maximum buffered blocks before pushes wait; `None` = unbounded.
    capacity: Option<usize>,
    inner: StdMutex<QueueInner>,
    producers: AtomicUsize,
    closed: AtomicBool,
}

/// Outcome of a non-blocking [`BlockQueue::poll_pop`].
#[derive(Debug)]
pub enum PopNext {
    /// A buffered block.
    Block(BlockHandle),
    /// Nothing buffered right now, but producers are still registered — more
    /// blocks may arrive.
    Empty,
    /// The stream ended: every producer finished and the queue drained, or
    /// the queue was closed.
    Finished,
}

/// A multi-producer, single-consumer queue of block handles (the consumer
/// may also withdraw its tail through [`BlockQueue::steal`]).
#[derive(Clone)]
pub struct BlockQueue {
    core: Arc<QueueCore>,
    /// Byte-quota admission state; `None` leaves admission ungoverned.
    staging: Option<Arc<QueueStaging>>,
    /// Memory node this queue (and its buffered handles) is placed on — the
    /// consumer's local node under the NUMA-aware placement policy.
    node: Option<MemoryNodeId>,
}

impl std::fmt::Debug for BlockQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        f.debug_struct("BlockQueue")
            .field("producers", &self.core.producers.load(Ordering::Relaxed))
            .field("finished", &inner.finished)
            .field("pending", &inner.buf.len())
            .field("closed", &self.core.closed.load(Ordering::Relaxed))
            .finish()
    }
}

impl BlockQueue {
    /// An unbounded queue expecting `producers` producers.
    pub fn new(producers: usize) -> Self {
        Self::with_capacity(producers, None)
    }

    /// A bounded queue expecting `producers` producers: at most `capacity`
    /// blocks buffer before pushes wait (back-pressure).
    pub fn bounded(producers: usize, capacity: usize) -> Self {
        Self::with_capacity(producers, Some(capacity.max(1)))
    }

    fn with_capacity(producers: usize, capacity: Option<usize>) -> Self {
        Self {
            core: Arc::new(QueueCore {
                capacity,
                inner: StdMutex::new(QueueInner::default()),
                producers: AtomicUsize::new(producers),
                closed: AtomicBool::new(false),
            }),
            staging: None,
            node: None,
        }
    }

    fn lock(&self) -> MutexGuard<'_, QueueInner> {
        self.core.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn closed_error() -> HetError {
        HetError::Cancelled("block queue closed".into())
    }

    /// Govern admission by a byte quota: [`Self::admit`] waits once `quota`
    /// bytes are outstanding. Call before cloning the queue (the state is
    /// shared by clones made afterwards).
    pub fn with_byte_quota(mut self, quota: u64) -> Self {
        self.staging = Some(Arc::new(QueueStaging {
            quota: AtomicU64::new(quota.max(1)),
            admission: StdMutex::new(Admission::default()),
            admitted_total: AtomicU64::new(0),
        }));
        self
    }

    /// Adjust a governed queue's byte quota in place (shared by all clones).
    /// Waiting producers are woken to re-check against the new share;
    /// shrinking only affects future admissions — already-admitted bytes are
    /// never revoked. No-op on an ungoverned queue.
    pub fn set_byte_quota(&self, quota: u64) {
        if let Some(staging) = &self.staging {
            staging.quota.store(quota.max(1), Ordering::SeqCst);
            staging.wake_waiters();
        }
    }

    /// The queue's current byte quota, or `None` when admission is
    /// ungoverned.
    pub fn byte_quota(&self) -> Option<u64> {
        self.staging.as_ref().map(|s| s.quota.load(Ordering::SeqCst))
    }

    /// Cumulative bytes ever admitted into this queue — the demand signal of
    /// the quota re-split. Zero on ungoverned queues.
    pub fn admitted_bytes_total(&self) -> u64 {
        self.staging.as_ref().map(|s| s.admitted_total.load(Ordering::Relaxed)).unwrap_or(0)
    }

    /// Record the memory node this queue is placed on (the consumer's local
    /// node). Call before cloning the queue.
    pub fn on_node(mut self, node: MemoryNodeId) -> Self {
        self.node = Some(node);
        self
    }

    /// The memory node this queue is placed on, if recorded.
    pub fn node(&self) -> Option<MemoryNodeId> {
        self.node
    }

    /// Bytes currently admitted and not yet released by the consumer.
    pub fn outstanding_bytes(&self) -> u64 {
        self.staging.as_ref().map(|s| s.lock().bytes).unwrap_or(0)
    }

    /// Admit `bytes` against the queue's byte quota, waiting while the quota
    /// is exhausted. Returns the RAII receipt to bundle into the handle's
    /// staging token, or `None` when the queue is ungoverned (no quota
    /// configured, or a zero-byte block). Fails once the queue is closed,
    /// also for a producer already waiting.
    pub fn admit(&self, bytes: u64) -> Result<Option<QueueSlot>> {
        block_on(|waker| self.poll_admit(bytes, waker))
    }

    /// The non-blocking form of [`Self::admit`]: `Pending` (with `waker`
    /// registered) while the quota is exhausted.
    ///
    /// Back-pressure has no deadline of its own — it may legitimately last
    /// as long as an upstream build runs; the executor's stall detector
    /// reports a wait that nothing can end.
    ///
    /// An *empty* account always admits one block even if it exceeds the
    /// quota — a block larger than the quota must still be able to flow, one
    /// at a time, or a tiny budget would wedge the pipeline instead of merely
    /// slowing it.
    pub fn poll_admit(&self, bytes: u64, waker: &Waker) -> Poll<Result<Option<QueueSlot>>> {
        let Some(staging) = &self.staging else { return Poll::Ready(Ok(None)) };
        if bytes == 0 {
            return Poll::Ready(Ok(None));
        }
        let mut admission = staging.lock();
        if self.core.closed.load(Ordering::SeqCst) {
            return Poll::Ready(Err(Self::closed_error()));
        }
        let outstanding = admission.bytes;
        if outstanding == 0 || outstanding + bytes <= staging.quota.load(Ordering::SeqCst) {
            admission.bytes += bytes;
            staging.admitted_total.fetch_add(bytes, Ordering::Relaxed);
            return Poll::Ready(Ok(Some(QueueSlot { bytes, staging: Arc::clone(staging) })));
        }
        register(&mut admission.waiters, waker);
        Poll::Pending
    }

    /// Register one more producer (used when a router instantiates additional
    /// pipeline instances after the queue was created).
    pub fn add_producer(&self) {
        self.core.producers.fetch_add(1, Ordering::SeqCst);
    }

    /// Register a producer and return an RAII guard for it: the guard pushes
    /// on the producer's behalf and signals `producer_done` when dropped (or
    /// explicitly via [`ProducerGuard::done`]). Because the signal lives in
    /// `Drop`, a producer that panics mid-stream still terminates its
    /// consumer instead of deadlocking it.
    pub fn register_producer(&self) -> ProducerGuard {
        self.add_producer();
        ProducerGuard { queue: self.clone(), finished: false }
    }

    /// Push a block handle into the queue, waiting on a full bounded queue.
    /// Fails if the queue was closed — also while waiting on a full queue
    /// whose consumer died: `close()` wakes waiting producers.
    pub fn push(&self, handle: BlockHandle) -> Result<()> {
        let mut handle = Some(handle);
        block_on(|waker| match self.poll_push(handle.take().expect("still held"), waker) {
            Ok(Some(back)) => {
                handle = Some(back);
                Poll::Pending
            }
            Ok(None) => Poll::Ready(Ok(())),
            Err(e) => Poll::Ready(Err(e)),
        })
    }

    /// The non-blocking form of [`Self::push`]: on a full bounded queue the
    /// handle comes back (`Ok(Some)`) and `waker` is registered for the next
    /// freed slot.
    pub fn poll_push(&self, handle: BlockHandle, waker: &Waker) -> Result<Option<BlockHandle>> {
        let mut inner = self.lock();
        if self.core.closed.load(Ordering::SeqCst) {
            return Err(Self::closed_error());
        }
        if self.core.capacity.is_some_and(|cap| inner.buf.len() >= cap) {
            register(&mut inner.producers, waker);
            return Ok(Some(handle));
        }
        inner.buf.push_back(handle);
        Self::wake_consumers(inner);
        Ok(None)
    }

    /// Signal that one producer has no more blocks to push. Completion is a
    /// counter, not an in-band message, so it never waits — a completing
    /// producer cannot deadlock against a full queue or a dead consumer, and
    /// unwinding guards may call this unconditionally.
    pub fn producer_done(&self) -> Result<()> {
        let mut inner = self.lock();
        inner.finished += 1;
        Self::wake_consumers(inner);
        Ok(())
    }

    /// Poison the queue: every pending and future [`Self::pop`] returns
    /// `None`, every future [`Self::push`] fails, and [`Self::steal`] finds
    /// nothing. Used to cascade shutdown when a worker dies abnormally.
    ///
    /// Handles still buffered in the queue are dropped here, so the staging
    /// charges they carry are released immediately — a closed queue must not
    /// keep arena bytes leased (and producers waiting on them) until the
    /// queue itself is torn down.
    pub fn close(&self) {
        self.core.closed.store(true, Ordering::SeqCst);
        let (swept, consumers, producers) = {
            let mut inner = self.lock();
            let buf = std::mem::take(&mut inner.buf);
            (buf, take(&mut inner.consumers), take(&mut inner.producers))
        };
        // Release the staging charges outside the buffer lock: QueueSlot
        // drops take the (separate) staging lock and wake their waiters.
        drop(swept);
        consumers.wake();
        producers.wake();
        if let Some(staging) = &self.staging {
            staging.wake_waiters();
        }
    }

    /// True once the queue has been closed.
    pub fn is_closed(&self) -> bool {
        self.core.closed.load(Ordering::SeqCst)
    }

    /// Pop the next block handle, waiting for one; `None` once every
    /// producer finished and the queue drained (or the queue was closed).
    pub fn pop(&self) -> Option<BlockHandle> {
        block_on(|waker| match self.poll_pop(waker) {
            PopNext::Block(handle) => Poll::Ready(Some(handle)),
            PopNext::Empty => Poll::Pending,
            PopNext::Finished => Poll::Ready(None),
        })
    }

    /// Non-blocking pop distinguishing "empty for now" from "stream over".
    /// On [`PopNext::Empty`] it registers `waker`: the next push, completion
    /// or close wakes it.
    pub fn poll_pop(&self, waker: &Waker) -> PopNext {
        let mut inner = self.lock();
        if self.core.closed.load(Ordering::SeqCst) {
            return PopNext::Finished;
        }
        if let Some(handle) = inner.buf.pop_front() {
            Self::release_slot(inner);
            return PopNext::Block(handle);
        }
        if inner.finished >= self.core.producers.load(Ordering::SeqCst) {
            return PopNext::Finished;
        }
        register(&mut inner.consumers, waker);
        PopNext::Empty
    }

    /// Remove the most recently enqueued block from this queue's backlog —
    /// the entry point of adaptive re-routing. Returns `None` when the queue
    /// is closed (poisoned backlogs were already swept and their staging
    /// released; they must not be resurrected) or holds no block. Never
    /// consumes completion signals: termination accounting is a counter and
    /// is untouched by a withdrawal.
    ///
    /// The withdrawn handle still carries the staging charge of *this*
    /// queue (its byte-quota slot and the lease on this queue's node); a
    /// re-route releases it before the block is routed again — the
    /// lease-ordering rule (DESIGN.md §4.2).
    pub fn steal(&self) -> Option<BlockHandle> {
        if self.core.closed.load(Ordering::SeqCst) {
            return None;
        }
        let mut inner = self.lock();
        let stolen = inner.buf.pop_back();
        if stolen.is_some() {
            Self::release_slot(inner);
        }
        stolen
    }

    /// Release the lock and wake the waiting consumers.
    fn wake_consumers(mut inner: MutexGuard<'_, QueueInner>) {
        let consumers = take(&mut inner.consumers);
        drop(inner);
        consumers.wake();
    }

    /// A block just left the buffer: release the lock and wake the
    /// producers waiting on the full buffer.
    fn release_slot(mut inner: MutexGuard<'_, QueueInner>) {
        let producers = take(&mut inner.producers);
        drop(inner);
        producers.wake();
    }

    /// Pop until the stream ends and collect every block: waits until every
    /// producer finished (or the queue closed). On a closed queue nothing is
    /// returned; any handles buffered at close time were dropped by the
    /// closing sweep so their staging charges are released rather than
    /// leaked.
    pub fn drain(&self) -> Vec<BlockHandle> {
        let mut out = Vec::new();
        while let Some(handle) = self.pop() {
            out.push(handle);
        }
        out
    }

    /// Number of blocks currently buffered (completion signals are counters,
    /// not messages, so this is exactly the backlog depth).
    pub fn len(&self) -> usize {
        self.lock().buf.len()
    }

    /// True if no blocks are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// RAII producer registration for a [`BlockQueue`]; see
/// [`BlockQueue::register_producer`].
#[derive(Debug)]
pub struct ProducerGuard {
    queue: BlockQueue,
    finished: bool,
}

impl ProducerGuard {
    /// Push a block on behalf of this producer.
    pub fn push(&self, handle: BlockHandle) -> Result<()> {
        self.queue.push(handle)
    }

    /// Explicitly signal completion (otherwise `Drop` does it).
    pub fn done(mut self) {
        self.finish();
    }

    fn finish(&mut self) {
        if !self.finished {
            self.finished = true;
            let _ = self.queue.producer_done();
        }
    }
}

impl Drop for ProducerGuard {
    fn drop(&mut self) {
        self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetex_common::{Block, BlockId, BlockMeta, ColumnData, MemoryNodeId};
    use std::task::Waker;
    use std::thread;
    use std::time::Duration;

    fn handle(id: usize) -> BlockHandle {
        let block = Block::new(vec![ColumnData::Int64(vec![id as i64])], 1).unwrap();
        BlockHandle::new(block, BlockMeta::new(BlockId::new(id), MemoryNodeId::new(0)))
    }

    #[test]
    fn push_pop_round_trip() {
        let q = BlockQueue::new(1);
        q.push(handle(1)).unwrap();
        q.push(handle(2)).unwrap();
        q.producer_done().unwrap();
        assert_eq!(q.pop().unwrap().meta().id, BlockId::new(1));
        assert_eq!(q.pop().unwrap().meta().id, BlockId::new(2));
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn consumer_terminates_after_all_producers_finish() {
        let q = BlockQueue::new(2);
        q.push(handle(1)).unwrap();
        q.producer_done().unwrap();
        // Only one of two producers is done: a block is still delivered.
        assert!(q.pop().is_some());
        q.producer_done().unwrap();
        assert!(q.pop().is_none());
    }

    #[test]
    fn multiple_producer_threads_deliver_everything() {
        let q = BlockQueue::new(4);
        let mut handles = Vec::new();
        for t in 0..4 {
            let q = q.clone();
            handles.push(thread::spawn(move || {
                for i in 0..100 {
                    q.push(handle(t * 1000 + i)).unwrap();
                }
                q.producer_done().unwrap();
            }));
        }
        let consumer = {
            let q = q.clone();
            thread::spawn(move || q.drain().len())
        };
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(consumer.join().unwrap(), 400);
    }

    #[test]
    fn drain_collects_all_pending_blocks() {
        let q = BlockQueue::new(1);
        for i in 0..10 {
            q.push(handle(i)).unwrap();
        }
        q.producer_done().unwrap();
        assert_eq!(q.drain().len(), 10);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn add_producer_extends_termination_condition() {
        let q = BlockQueue::new(0);
        q.add_producer();
        q.push(handle(1)).unwrap();
        q.producer_done().unwrap();
        assert!(q.pop().is_some());
        assert!(q.pop().is_none());
    }

    #[test]
    fn bounded_queue_applies_backpressure() {
        let q = BlockQueue::bounded(1, 2);
        q.push(handle(1)).unwrap();
        q.push(handle(2)).unwrap();
        let producer = {
            let q = q.clone();
            thread::spawn(move || {
                // Capacity 2: the third push must block until the consumer
                // drains.
                q.push(handle(3)).unwrap();
                q.push(handle(4)).unwrap();
                q.producer_done().unwrap();
            })
        };
        thread::sleep(Duration::from_millis(20));
        assert!(q.len() <= 2, "bounded queue overfilled: {}", q.len());
        let drained = q.drain();
        producer.join().unwrap();
        assert_eq!(drained.len(), 4);
    }

    #[test]
    fn close_unblocks_a_waiting_consumer() {
        let q = BlockQueue::new(1);
        let consumer = {
            let q = q.clone();
            thread::spawn(move || q.pop())
        };
        thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(consumer.join().unwrap().map(|h| h.rows()), None);
        // Pushes after close fail instead of piling up.
        assert!(q.push(handle(1)).is_err());
        // producer_done after close is tolerated (unwinding producers).
        assert!(q.producer_done().is_ok());
    }

    #[test]
    fn close_releases_a_producer_blocked_on_a_full_queue() {
        // Regression test: the pipelined executor's error path closes a dead
        // worker's input queue; a producer already blocked in push() on the
        // full queue must fail out instead of deadlocking the shutdown.
        let q = BlockQueue::bounded(1, 1);
        let producer = {
            let q = q.clone();
            thread::spawn(move || {
                let mut pushed = 0;
                while q.push(handle(pushed)).is_ok() {
                    pushed += 1;
                }
                pushed
            })
        };
        thread::sleep(Duration::from_millis(30));
        q.close();
        let pushed = producer.join().expect("producer must not deadlock");
        assert!(pushed >= 1, "queue accepted {pushed} pushes before close");
    }

    #[test]
    fn completion_never_blocks_on_a_full_queue() {
        // Completion is a counter: even with the buffer full, producer_done
        // returns immediately (guards signal from Drop during shutdown and
        // must never deadlock against a slow or dead consumer).
        let q = BlockQueue::bounded(1, 1);
        q.push(handle(0)).unwrap();
        assert!(q.producer_done().is_ok());
        assert!(q.pop().is_some());
        assert!(q.pop().is_none());
    }

    /// A staging-token stand-in that counts its releases (the real token is
    /// the executor's lease bundle; the queue only sees `dyn Any`).
    struct ReleaseCounter(Arc<AtomicUsize>);
    impl Drop for ReleaseCounter {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn staged_handle(id: usize, released: &Arc<AtomicUsize>) -> BlockHandle {
        let mut h = handle(id);
        h.attach_staging(Arc::new(ReleaseCounter(Arc::clone(released))));
        h
    }

    #[test]
    fn close_releases_staging_charges_of_queued_handles() {
        // Regression test: close() used to leave buffered handles in the
        // channel (pop returns None on a closed queue), keeping their staging
        // leases charged until the channel was torn down — a leak on every
        // error/panic shutdown path.
        let released = Arc::new(AtomicUsize::new(0));
        let q = BlockQueue::new(1);
        for i in 0..5 {
            q.push(staged_handle(i, &released)).unwrap();
        }
        assert_eq!(released.load(Ordering::SeqCst), 0);
        q.close();
        assert_eq!(
            released.load(Ordering::SeqCst),
            5,
            "closing the queue must release the staging charges of queued handles"
        );
        // drain() on the closed queue returns nothing.
        assert!(q.drain().is_empty());
    }

    #[test]
    fn byte_quota_admission_parks_and_resumes() {
        let q = BlockQueue::new(1).with_byte_quota(100);
        let a = q.admit(60).unwrap().expect("governed");
        let b = q.admit(40).unwrap().expect("fits exactly");
        assert_eq!(q.outstanding_bytes(), 100);
        // The quota is full: a third admission parks until a slot drops.
        let waiter = {
            let q = q.clone();
            thread::spawn(move || q.admit(50))
        };
        thread::sleep(Duration::from_millis(30));
        drop(a);
        let slot = waiter.join().unwrap().unwrap().expect("parked admission resumed");
        assert_eq!(q.outstanding_bytes(), 90);
        drop(slot);
        drop(b);
        // Zero-byte blocks and ungoverned queues admit freely.
        assert!(q.admit(0).unwrap().is_none());
        assert!(BlockQueue::new(1).admit(10).unwrap().is_none());
    }

    #[test]
    fn quota_can_be_resized_live_and_releases_parked_producers() {
        let q = BlockQueue::new(1).with_byte_quota(100);
        assert_eq!(q.byte_quota(), Some(100));
        assert_eq!(q.admitted_bytes_total(), 0);
        let held = q.admit(100).unwrap().expect("governed");
        assert_eq!(q.admitted_bytes_total(), 100);
        // A producer parks against the exhausted quota…
        let waiter = {
            let q = q.clone();
            thread::spawn(move || q.admit(60))
        };
        thread::sleep(Duration::from_millis(30));
        assert!(!waiter.is_finished(), "admission over a full quota must park");
        // …and a demand-driven quota grow admits it without any release.
        q.set_byte_quota(200);
        assert_eq!(q.byte_quota(), Some(200));
        let slot = waiter.join().unwrap().unwrap().expect("grown quota admits");
        assert_eq!(q.outstanding_bytes(), 160);
        assert_eq!(q.admitted_bytes_total(), 160);
        drop(slot);
        drop(held);
        // Shrinking never revokes admitted bytes, it only governs the future.
        q.set_byte_quota(10);
        let big = q.admit(64).unwrap().expect("empty account still admits");
        drop(big);
        // Clones share the quota cell; ungoverned queues report none.
        assert_eq!(q.clone().byte_quota(), Some(10));
        let ungoverned = BlockQueue::new(1);
        ungoverned.set_byte_quota(50);
        assert_eq!(ungoverned.byte_quota(), None);
        assert_eq!(ungoverned.admitted_bytes_total(), 0);
    }

    #[test]
    fn an_empty_account_admits_an_oversized_block() {
        // A block larger than the quota must flow one-at-a-time rather than
        // wedging the pipeline (the tiny-budget liveness rule).
        let q = BlockQueue::new(1).with_byte_quota(10);
        let big = q.admit(64).unwrap().expect("admitted");
        assert_eq!(q.outstanding_bytes(), 64);
        // But only while the account is empty: the next admission parks
        // until the oversized block is released.
        let waiter = {
            let q = q.clone();
            thread::spawn(move || q.admit(1))
        };
        thread::sleep(Duration::from_millis(30));
        assert!(!waiter.is_finished(), "admission over a held oversized block must park");
        drop(big);
        assert!(waiter.join().unwrap().unwrap().is_some());
    }

    #[test]
    fn close_releases_a_producer_parked_in_admission() {
        let q = BlockQueue::new(1).with_byte_quota(10);
        let _held = q.admit(10).unwrap();
        let waiter = {
            let q = q.clone();
            thread::spawn(move || q.admit(10))
        };
        thread::sleep(Duration::from_millis(30));
        q.close();
        let err = waiter.join().unwrap().expect_err("admission on a closed queue fails");
        assert_eq!(err.category(), "cancelled");
    }

    #[test]
    fn queue_placement_is_recorded() {
        let q = BlockQueue::bounded(1, 4).on_node(MemoryNodeId::new(3));
        assert_eq!(q.node(), Some(MemoryNodeId::new(3)));
        // Clones share the placement.
        assert_eq!(q.clone().node(), Some(MemoryNodeId::new(3)));
        assert_eq!(BlockQueue::new(1).node(), None);
    }

    #[test]
    fn panicking_producer_does_not_deadlock_the_consumer() {
        // Regression test: without the guard's Drop signal, the consumer
        // would block in pop() forever after the producer panics before
        // calling producer_done().
        let q = BlockQueue::new(0);
        let guard = q.register_producer();
        let producer = thread::spawn(move || {
            guard.push(handle(1)).unwrap();
            panic!("producer died before producer_done()");
        });
        assert!(producer.join().is_err());
        // The panicked producer's guard signalled completion during unwind:
        // the consumer sees the pushed block, then clean termination.
        assert!(q.pop().is_some());
        assert!(q.pop().is_none());
    }

    #[test]
    fn producer_guard_done_signals_exactly_once() {
        let q = BlockQueue::new(0);
        let g1 = q.register_producer();
        let g2 = q.register_producer();
        g1.push(handle(1)).unwrap();
        g1.done();
        assert!(q.pop().is_some());
        drop(g2);
        assert!(q.pop().is_none());
    }

    #[test]
    fn steal_takes_the_tail_and_preserves_fifo_for_the_victim() {
        let q = BlockQueue::new(1);
        for i in 0..4 {
            q.push(handle(i)).unwrap();
        }
        // The thief gets the newest block …
        assert_eq!(q.steal().unwrap().meta().id, BlockId::new(3));
        assert_eq!(q.len(), 3);
        // … and the victim's pop order is untouched at the head.
        assert_eq!(q.pop().unwrap().meta().id, BlockId::new(0));
        assert_eq!(q.steal().unwrap().meta().id, BlockId::new(2));
        assert_eq!(q.pop().unwrap().meta().id, BlockId::new(1));
        assert!(q.steal().is_none(), "an empty queue has nothing to steal");
    }

    #[test]
    fn steal_never_consumes_completion_signals() {
        let q = BlockQueue::new(1);
        q.push(handle(1)).unwrap();
        q.producer_done().unwrap();
        assert!(q.steal().is_some());
        // The completion survived the theft: the consumer terminates cleanly.
        assert!(q.pop().is_none());
    }

    #[test]
    fn steal_on_a_closed_queue_returns_nothing() {
        let q = BlockQueue::new(1);
        q.push(handle(1)).unwrap();
        q.close();
        assert!(q.steal().is_none(), "poisoned backlogs must not be resurrected");
    }

    #[test]
    fn steal_unblocks_a_producer_parked_on_a_full_queue() {
        let q = BlockQueue::bounded(1, 1);
        q.push(handle(0)).unwrap();
        let producer = {
            let q = q.clone();
            thread::spawn(move || q.push(handle(1)))
        };
        thread::sleep(Duration::from_millis(30));
        assert!(q.steal().is_some());
        assert!(producer.join().unwrap().is_ok(), "theft must free a slot for parked producers");
    }

    #[test]
    fn try_pop_distinguishes_empty_from_finished() {
        let (q, waker) = (BlockQueue::new(1), Waker::noop());
        assert!(matches!(q.poll_pop(waker), PopNext::Empty));
        q.push(handle(1)).unwrap();
        assert!(matches!(q.poll_pop(waker), PopNext::Block(_)));
        q.producer_done().unwrap();
        assert!(matches!(q.poll_pop(waker), PopNext::Finished));
        // A closed queue reports Finished immediately.
        let q2 = BlockQueue::new(1);
        q2.close();
        assert!(matches!(q2.poll_pop(waker), PopNext::Finished));
    }

    /// A waker that counts its wakes and unparks the thread that made it.
    struct Counting {
        wakes: AtomicUsize,
        thread: thread::Thread,
    }

    impl std::task::Wake for Counting {
        fn wake(self: Arc<Self>) {
            self.wake_by_ref();
        }

        fn wake_by_ref(self: &Arc<Self>) {
            self.wakes.fetch_add(1, Ordering::SeqCst);
            self.thread.unpark();
        }
    }

    fn counting() -> (Arc<Counting>, Waker) {
        let count = Arc::new(Counting { wakes: AtomicUsize::new(0), thread: thread::current() });
        (Arc::clone(&count), Waker::from(count))
    }

    #[test]
    fn each_registration_is_woken_by_the_event_it_waits_for() {
        // An empty queue registers its consumer once, however often it
        // polls, and a push, a completion and a close each wake it.
        type Event = fn(&BlockQueue);
        let events: [Event; 3] =
            [|q| q.push(handle(1)).unwrap(), |q| q.producer_done().unwrap(), BlockQueue::close];
        for event in events {
            let q = BlockQueue::new(1);
            let (count, waker) = counting();
            assert!(matches!(q.poll_pop(&waker), PopNext::Empty));
            assert!(matches!(q.poll_pop(&waker), PopNext::Empty));
            event(&q);
            assert_eq!(count.wakes.load(Ordering::SeqCst), 1, "one registration, one wake");
            assert!(!matches!(q.poll_pop(&waker), PopNext::Empty));
        }
        // A full buffer hands the block back and registers the producer;
        // a pop wakes it.
        let q = BlockQueue::bounded(1, 1);
        let (count, waker) = counting();
        assert!(q.poll_push(handle(0), &waker).unwrap().is_none());
        let back = q.poll_push(handle(1), &waker).unwrap().expect("the buffer is full");
        assert_eq!(count.wakes.load(Ordering::SeqCst), 0);
        assert!(q.pop().is_some());
        assert_eq!(count.wakes.load(Ordering::SeqCst), 1);
        assert!(q.poll_push(back, &waker).unwrap().is_none());
        // An exhausted quota registers the producer; a quota reset and a
        // released slot each wake it.
        let q = BlockQueue::new(1).with_byte_quota(10);
        let held = q.admit(10).unwrap();
        let (count, waker) = counting();
        assert!(q.poll_admit(5, &waker).is_pending());
        q.set_byte_quota(10);
        assert_eq!(count.wakes.load(Ordering::SeqCst), 1);
        assert!(q.poll_admit(5, &waker).is_pending());
        drop(held);
        assert_eq!(count.wakes.load(Ordering::SeqCst), 2);
        assert!(matches!(q.poll_admit(5, &waker), Poll::Ready(Ok(Some(_)))));
    }

    #[test]
    fn a_registered_consumer_misses_no_wake_up() {
        // One to four producers push in lock-step with the consumer (each
        // waits until its block was consumed, so a push is usually the only
        // event that can end the consumer's wait), complete, and a closer
        // closes the drained stream. The consumer polls with a waker and
        // parks until it is woken. Every block arrives exactly once and
        // every registration is woken; a lost wake-up fails the test at its
        // deadline instead of hanging it.
        const PER_PRODUCER: usize = 400;
        const DEADLINE: Duration = Duration::from_secs(5);
        for producers in 1..=4 {
            let q = BlockQueue::bounded(producers + 1, 4);
            let total = producers * PER_PRODUCER;
            let consumed: Arc<Vec<AtomicBool>> =
                Arc::new((0..total).map(|_| AtomicBool::new(false)).collect());
            let lost = Arc::new(AtomicBool::new(false));
            let threads: Vec<_> = (0..producers)
                .map(|p| {
                    let (q, consumed, lost) = (q.clone(), Arc::clone(&consumed), Arc::clone(&lost));
                    thread::spawn(move || {
                        for id in (p * PER_PRODUCER..).take(PER_PRODUCER) {
                            if q.push(handle(id)).is_err() {
                                break;
                            }
                            while !consumed[id].load(Ordering::SeqCst)
                                && !lost.load(Ordering::SeqCst)
                            {
                                thread::yield_now();
                            }
                        }
                        q.producer_done().unwrap();
                    })
                })
                .collect();
            let closer = {
                let q = q.clone();
                thread::spawn(move || {
                    threads.into_iter().for_each(|t| t.join().unwrap());
                    q.close();
                })
            };
            let (count, waker) = counting();
            let (mut ids, mut registrations) = (Vec::new(), 0);
            loop {
                match q.poll_pop(&waker) {
                    PopNext::Block(h) => {
                        let id = h.meta().id.index();
                        consumed[id].store(true, Ordering::SeqCst);
                        ids.push(id);
                    }
                    PopNext::Empty => {
                        registrations += 1;
                        let deadline = std::time::Instant::now() + DEADLINE;
                        while count.wakes.load(Ordering::SeqCst) < registrations {
                            if std::time::Instant::now() >= deadline {
                                lost.store(true, Ordering::SeqCst);
                                break;
                            }
                            thread::park_timeout(Duration::from_millis(50));
                        }
                        if lost.load(Ordering::SeqCst) {
                            break;
                        }
                    }
                    PopNext::Finished => break,
                }
            }
            q.close();
            closer.join().unwrap();
            assert!(!lost.load(Ordering::SeqCst), "{producers} producers: a wake-up was lost");
            assert_eq!(
                count.wakes.load(Ordering::SeqCst),
                registrations,
                "one wake per registration"
            );
            ids.sort_unstable();
            assert_eq!(ids, (0..total).collect::<Vec<_>>(), "exactly once");
        }
    }

    #[test]
    fn concurrent_pop_and_steal_consume_each_block_exactly_once() {
        let q = BlockQueue::new(1);
        let total = 500usize;
        let consumer = {
            let q = q.clone();
            thread::spawn(move || {
                let mut ids = Vec::new();
                while let Some(h) = q.pop() {
                    ids.push(h.meta().id.index());
                }
                ids
            })
        };
        let stop = Arc::new(AtomicBool::new(false));
        let thief = {
            let q = q.clone();
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut ids = Vec::new();
                loop {
                    if let Some(h) = q.steal() {
                        ids.push(h.meta().id.index());
                    } else if stop.load(Ordering::SeqCst) {
                        break;
                    } else {
                        thread::yield_now();
                    }
                }
                ids
            })
        };
        for i in 0..total {
            q.push(handle(i)).unwrap();
        }
        q.producer_done().unwrap();
        let mut seen: Vec<usize> = consumer.join().unwrap();
        stop.store(true, Ordering::SeqCst);
        let stolen = thief.join().unwrap();
        seen.extend(stolen);
        seen.sort_unstable();
        assert_eq!(seen, (0..total).collect::<Vec<_>>(), "every block exactly once");
    }
}
