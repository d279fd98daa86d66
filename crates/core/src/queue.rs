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
//!   giving the pipelined executor explicit back-pressure: a producer blocks
//!   in [`BlockQueue::push`] until the consumer drains a slot, modeling a
//!   finite staging arena.
//!
//! The buffer is an in-process deque guarded by one mutex (it used to be a
//! channel): the pipelined executor's adaptive re-routing needs *tail* access
//! — [`BlockQueue::steal`] lets an idle sibling worker remove the most
//! recently enqueued block from an overloaded consumer's backlog, which a
//! FIFO channel cannot express. Stealing takes from the tail on purpose: the
//! head blocks are the ones the victim will pop next anyway (taking them
//! races the victim for work it is about to start), while tail blocks are the
//! ones that would otherwise wait behind the victim's whole backlog.
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

use hetex_common::{BlockHandle, HetError, MemoryNodeId, Result};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, MutexGuard};
use std::time::Duration;

/// Byte-quota accounting of one queue: how many staged bytes are outstanding
/// (admitted but not yet dropped by the consumer) against the queue's share
/// of its node's staging arena. Shared by all clones of the queue.
#[derive(Debug)]
struct QueueStaging {
    /// The queue's byte share of its node's staging budget. Atomic because
    /// the demand-weighted quota re-split (`hetex_core::cost`) adjusts live
    /// quotas on a cadence while producers are admitting.
    quota: AtomicU64,
    /// Outstanding admitted bytes and the producers parked in `admit`.
    admission: StdMutex<Admission>,
    /// Signalled when outstanding bytes shrink while a producer is parked,
    /// and always when the quota is reset or the queue closes.
    drained_cv: Condvar,
    /// Cumulative admitted bytes over the queue's lifetime — the demand
    /// signal the quota re-split reads.
    admitted_total: AtomicU64,
}

/// The admission state guarded by [`QueueStaging::admission`].
#[derive(Debug, Default)]
struct Admission {
    bytes: u64,
    /// Producers parked in `admit`: a release notifies only if non-zero.
    parked: usize,
}

/// RAII receipt of one byte admission into a [`BlockQueue`]; dropping it
/// returns the bytes to the queue's quota and wakes parked producers. The
/// executor bundles this with the arena [`BlockLease`] into the handle's
/// staging token, so consumer-side drops release both at once.
#[derive(Debug)]
pub struct QueueSlot {
    bytes: u64,
    staging: Arc<QueueStaging>,
}

impl Drop for QueueSlot {
    fn drop(&mut self) {
        let mut admission = self.staging.admission.lock().unwrap_or_else(|e| e.into_inner());
        admission.bytes = admission.bytes.saturating_sub(self.bytes);
        let parked = admission.parked > 0;
        drop(admission);
        if parked {
            self.staging.drained_cv.notify_all();
        }
    }
}

/// The buffered blocks plus the completion count, guarded by one mutex.
#[derive(Debug, Default)]
struct QueueInner {
    buf: VecDeque<BlockHandle>,
    finished: usize,
    /// Bumped by every push, give-back, producer completion, close and
    /// [`BlockQueue::wake`] — what a consumer parked in
    /// [`BlockQueue::park`] waits to see move.
    events: u64,
    /// Consumers parked in `pop` / `park` and producers parked in `push`:
    /// `not_empty` / `not_full` are notified only while these are non-zero.
    /// A waiter counts itself before its wait releases this mutex, so a
    /// notifier that reads zero ran before the waiter checked its condition.
    parked_consumers: usize,
    parked_producers: usize,
}

/// State shared by all clones of one queue.
#[derive(Debug)]
struct QueueCore {
    /// Maximum buffered blocks before `push` parks; `None` = unbounded.
    capacity: Option<usize>,
    inner: StdMutex<QueueInner>,
    /// Consumers parked in `pop` / `park` wait here for blocks, completion
    /// or a wake-up.
    not_empty: Condvar,
    /// Producers parked in `push` wait here for a freed slot.
    not_full: Condvar,
    producers: AtomicUsize,
    closed: AtomicBool,
}

/// Outcome of a non-blocking [`BlockQueue::try_pop`].
#[derive(Debug)]
pub enum PopNext {
    /// A buffered block.
    Block(BlockHandle),
    /// Nothing buffered right now, but producers are still registered — more
    /// blocks may arrive (the work-stealing window).
    Empty,
    /// The stream ended: every producer finished and the queue drained, or
    /// the queue was closed.
    Finished,
}

/// A multi-producer, single-consumer queue of block handles (plus sibling
/// thieves entering through [`BlockQueue::steal`]).
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
        let inner = self.core.inner.lock().unwrap_or_else(|e| e.into_inner());
        f.debug_struct("BlockQueue")
            .field("producers", &self.core.producers.load(Ordering::Relaxed))
            .field("finished", &inner.finished)
            .field("pending", &inner.buf.len())
            .field("closed", &self.core.closed.load(Ordering::Relaxed))
            .finish()
    }
}

/// How long a parked wait sleeps between rechecks of the closed flag (and of
/// the producer count, which `add_producer` may raise without a wake-up).
const PARK_RECHECK: Duration = Duration::from_millis(10);

impl BlockQueue {
    /// An unbounded queue expecting `producers` producers.
    pub fn new(producers: usize) -> Self {
        Self::with_capacity(producers, None)
    }

    /// A bounded queue expecting `producers` producers: at most `capacity`
    /// blocks buffer before `push` blocks (back-pressure).
    pub fn bounded(producers: usize, capacity: usize) -> Self {
        Self::with_capacity(producers, Some(capacity.max(1)))
    }

    fn with_capacity(producers: usize, capacity: Option<usize>) -> Self {
        Self {
            core: Arc::new(QueueCore {
                capacity,
                inner: StdMutex::new(QueueInner::default()),
                not_empty: Condvar::new(),
                not_full: Condvar::new(),
                producers: AtomicUsize::new(producers),
                closed: AtomicBool::new(false),
            }),
            staging: None,
            node: None,
        }
    }

    /// Govern admission by a byte quota: [`Self::admit`] parks producers once
    /// `quota` bytes are outstanding. Call before cloning the queue (the
    /// state is shared by clones made afterwards).
    pub fn with_byte_quota(mut self, quota: u64) -> Self {
        self.staging = Some(Arc::new(QueueStaging {
            quota: AtomicU64::new(quota.max(1)),
            admission: StdMutex::new(Admission::default()),
            drained_cv: Condvar::new(),
            admitted_total: AtomicU64::new(0),
        }));
        self
    }

    /// Adjust a governed queue's byte quota in place (shared by all clones).
    /// Growing the quota wakes producers parked in [`Self::admit`] so they
    /// re-check against the new share; shrinking only affects future
    /// admissions — already-admitted bytes are never revoked. No-op on an
    /// ungoverned queue.
    pub fn set_byte_quota(&self, quota: u64) {
        if let Some(staging) = &self.staging {
            staging.quota.store(quota.max(1), Ordering::SeqCst);
            staging.drained_cv.notify_all();
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
        self.staging
            .as_ref()
            .map(|s| s.admission.lock().unwrap_or_else(|e| e.into_inner()).bytes)
            .unwrap_or(0)
    }

    /// Admit `bytes` against the queue's byte quota, parking while the quota
    /// is exhausted. Returns the RAII receipt to bundle into the handle's
    /// staging token, or `None` when the queue is ungoverned (no quota
    /// configured, or a zero-byte block).
    ///
    /// Like [`Self::push`] on a full bounded queue, the wait has no deadline
    /// of its own — back-pressure may legitimately last as long as an
    /// upstream build runs — but it periodically rechecks the closed flag, so
    /// `close()` releases parked producers during shutdown instead of
    /// deadlocking them. (The arena acquisition that follows admission keeps
    /// a timeout and remains the backstop against genuine wedges.)
    ///
    /// An *empty* account always admits one block even if it exceeds the
    /// quota — a block larger than the quota must still be able to flow, one
    /// at a time, or a tiny budget would wedge the pipeline instead of merely
    /// slowing it.
    pub fn admit(&self, bytes: u64) -> Result<Option<QueueSlot>> {
        let Some(staging) = &self.staging else { return Ok(None) };
        if bytes == 0 {
            return Ok(None);
        }
        let mut admission = staging.admission.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if self.core.closed.load(Ordering::SeqCst) {
                return Err(HetError::Cancelled("block queue closed".into()));
            }
            let outstanding = admission.bytes;
            if outstanding == 0 || outstanding + bytes <= staging.quota.load(Ordering::SeqCst) {
                admission.bytes += bytes;
                staging.admitted_total.fetch_add(bytes, Ordering::Relaxed);
                return Ok(Some(QueueSlot { bytes, staging: Arc::clone(staging) }));
            }
            admission.parked += 1;
            let (guard, _) = staging
                .drained_cv
                .wait_timeout(admission, Duration::from_millis(50))
                .unwrap_or_else(|e| e.into_inner());
            admission = guard;
            admission.parked -= 1;
        }
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

    /// Push a block handle into the queue, blocking on a full bounded queue.
    /// Fails if the queue was closed — including while blocked on a full
    /// queue whose consumer died: the wait periodically rechecks the closed
    /// flag, so `close()` releases stuck producers instead of deadlocking
    /// them.
    pub fn push(&self, handle: BlockHandle) -> Result<()> {
        let mut inner = self.core.inner.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if self.core.closed.load(Ordering::SeqCst) {
                return Err(HetError::Cancelled("block queue closed".into()));
            }
            if self.core.capacity.is_none_or(|cap| inner.buf.len() < cap) {
                inner.buf.push_back(handle);
                self.signal(inner);
                return Ok(());
            }
            inner.parked_producers += 1;
            let (guard, _) = self
                .core
                .not_full
                .wait_timeout(inner, PARK_RECHECK)
                .unwrap_or_else(|e| e.into_inner());
            inner = guard;
            inner.parked_producers -= 1;
        }
    }

    /// Signal that one producer has no more blocks to push. Completion is a
    /// counter, not an in-band message, so it never blocks — a completing
    /// producer cannot deadlock against a full queue or a dead consumer, and
    /// unwinding guards may call this unconditionally.
    pub fn producer_done(&self) -> Result<()> {
        let mut inner = self.core.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.finished += 1;
        self.signal(inner);
        Ok(())
    }

    /// Poison the queue: every pending and future [`Self::pop`] returns
    /// `None`, every future [`Self::push`] fails, and [`Self::steal`] finds
    /// nothing. Used to cascade shutdown when a worker dies abnormally.
    ///
    /// Handles still buffered in the queue are dropped here, so the staging
    /// charges they carry are released immediately — a closed queue must not
    /// keep arena bytes leased (and producers parked on them) until the
    /// queue itself is torn down.
    pub fn close(&self) {
        self.core.closed.store(true, Ordering::SeqCst);
        let swept: Vec<BlockHandle> = {
            let mut inner = self.core.inner.lock().unwrap_or_else(|e| e.into_inner());
            inner.events += 1;
            inner.buf.drain(..).collect()
        };
        // Release the staging charges outside the buffer lock: QueueSlot
        // drops take the (separate) staging lock and notify parked producers.
        drop(swept);
        self.core.not_empty.notify_all();
        self.core.not_full.notify_all();
        // Wake producers parked in `admit` so they observe the closed flag.
        if let Some(staging) = &self.staging {
            staging.drained_cv.notify_all();
        }
    }

    /// True once the queue has been closed.
    pub fn is_closed(&self) -> bool {
        self.core.closed.load(Ordering::SeqCst)
    }

    /// Pop the next block handle, or `None` once every producer finished and
    /// the queue drained (or the queue was closed).
    pub fn pop(&self) -> Option<BlockHandle> {
        let mut inner = self.core.inner.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if self.core.closed.load(Ordering::SeqCst) {
                return None;
            }
            if let Some(handle) = inner.buf.pop_front() {
                self.release_slot(inner);
                return Some(handle);
            }
            if inner.finished >= self.core.producers.load(Ordering::SeqCst) {
                return None;
            }
            inner.parked_consumers += 1;
            let (guard, _) = self
                .core
                .not_empty
                .wait_timeout(inner, PARK_RECHECK)
                .unwrap_or_else(|e| e.into_inner());
            inner = guard;
            inner.parked_consumers -= 1;
        }
    }

    /// Non-blocking pop distinguishing "empty for now" from "stream over" —
    /// the decision point of the work-stealing loop: an [`PopNext::Empty`] /
    /// [`PopNext::Finished`] consumer may go steal from a sibling instead of
    /// parking (or exiting) while a straggler holds a backlog.
    pub fn try_pop(&self) -> PopNext {
        let mut inner = self.core.inner.lock().unwrap_or_else(|e| e.into_inner());
        if self.core.closed.load(Ordering::SeqCst) {
            return PopNext::Finished;
        }
        if let Some(handle) = inner.buf.pop_front() {
            self.release_slot(inner);
            return PopNext::Block(handle);
        }
        if inner.finished >= self.core.producers.load(Ordering::SeqCst) {
            return PopNext::Finished;
        }
        PopNext::Empty
    }

    /// The queue's event count (see [`Self::park`]). An idle consumer reads
    /// it *before* looking for work, so an event that lands between the look
    /// and the park still ends the park.
    pub fn events(&self) -> u64 {
        self.core.inner.lock().unwrap_or_else(|e| e.into_inner()).events
    }

    /// Count an out-of-band event and wake the consumer parked in
    /// [`Self::park`] — a sibling's state changed in a way that may change
    /// what the consumer would do next (e.g. a steal verdict).
    pub fn wake(&self) {
        self.signal(self.core.inner.lock().unwrap_or_else(|e| e.into_inner()));
    }

    /// Park the consumer until the event count moves past `seen` (a push,
    /// give-back, producer completion, close or [`Self::wake`] since
    /// `seen` was read), or at most `PARK_RECHECK` — the backstop for state
    /// that changes without an event. Returns true when the backstop, not
    /// an event, ended the park.
    pub fn park(&self, seen: u64) -> bool {
        let mut inner = self.core.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.events != seen {
            return false;
        }
        inner.parked_consumers += 1;
        // Only an event notifies `not_empty`, so a wait that did not time
        // out saw one.
        let (mut inner, wait) = self
            .core
            .not_empty
            .wait_timeout(inner, PARK_RECHECK)
            .unwrap_or_else(|e| e.into_inner());
        inner.parked_consumers -= 1;
        wait.timed_out()
    }

    /// Remove the most recently enqueued block from this queue's backlog —
    /// the producer-side entry point of adaptive re-routing. Returns `None`
    /// when the queue is closed (poisoned backlogs were already swept and
    /// their staging released; a thief must not resurrect them) or holds no
    /// block. Never consumes completion signals: termination accounting is a
    /// counter and is untouched by theft.
    ///
    /// The stolen handle still carries the staging charge of *this* queue
    /// (its byte-quota slot and the lease on this queue's node); the thief
    /// must release it and re-charge its own node before processing — the
    /// cross-node half of the lease-ordering rule (DESIGN.md §4.2).
    pub fn steal(&self) -> Option<BlockHandle> {
        if self.core.closed.load(Ordering::SeqCst) {
            return None;
        }
        let mut inner = self.core.inner.lock().unwrap_or_else(|e| e.into_inner());
        let stolen = inner.buf.pop_back();
        if stolen.is_some() {
            self.release_slot(inner);
        }
        stolen
    }

    /// Return a just-removed block to the tail of the queue without blocking:
    /// capacity is deliberately ignored (the block vacated a slot moments ago
    /// — at worst the buffer transiently exceeds its bound by the one block
    /// being returned). Two callers: a thief whose profitability check
    /// rejected a stolen block, and a sim-paced consumer un-claiming a block
    /// so an idle sibling can steal it. Fails only when the queue was closed
    /// in between; the caller must then let the block drop, exactly as
    /// [`Self::close`]'s sweep would have.
    pub fn give_back(&self, handle: BlockHandle) -> Result<()> {
        let mut inner = self.core.inner.lock().unwrap_or_else(|e| e.into_inner());
        if self.core.closed.load(Ordering::SeqCst) {
            return Err(HetError::Cancelled("block queue closed".into()));
        }
        inner.buf.push_back(handle);
        self.signal(inner);
        Ok(())
    }

    /// Count an event, release the lock and wake the parked consumer, if
    /// any.
    fn signal(&self, mut inner: MutexGuard<'_, QueueInner>) {
        inner.events += 1;
        let parked = inner.parked_consumers > 0;
        drop(inner);
        if parked {
            self.core.not_empty.notify_all();
        }
    }

    /// A block just left the buffer: release the lock and wake the
    /// producers parked on the full buffer, if any.
    fn release_slot(&self, inner: MutexGuard<'_, QueueInner>) {
        let parked = inner.parked_producers > 0;
        drop(inner);
        if parked {
            self.core.not_full.notify_all();
        }
    }

    /// Pop until the stream ends and collect every block: blocks until every
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

    /// Memory node of the block a thief would take ([`Self::steal`] removes
    /// the tail), or `None` when nothing is buffered. Advisory: the tail can
    /// change between the peek and the steal, so callers may only use it for
    /// estimates (the steal profitability pre-check prices the relocation
    /// route from here), never for correctness.
    pub fn tail_location(&self) -> Option<MemoryNodeId> {
        let inner = self.core.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.buf.back().map(|h| h.meta().location)
    }

    /// Number of blocks currently buffered (completion signals are counters,
    /// not messages, so this is exactly the stealable backlog depth).
    pub fn len(&self) -> usize {
        self.core.inner.lock().unwrap_or_else(|e| e.into_inner()).buf.len()
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
        assert!(q.steal().is_none(), "poisoned backlogs must not be resurrected by thieves");
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
    fn give_back_returns_a_block_without_blocking_even_at_capacity() {
        let q = BlockQueue::bounded(1, 1);
        q.push(handle(0)).unwrap();
        let popped = q.pop().unwrap();
        // A producer refills the freed slot before the give-back.
        q.push(handle(1)).unwrap();
        // give_back must not park: the buffer transiently holds cap+1 blocks.
        q.give_back(popped).unwrap();
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().unwrap().meta().id, BlockId::new(1));
        assert_eq!(q.pop().unwrap().meta().id, BlockId::new(0));
        // On a closed queue the give-back is refused (the block must drop).
        q.close();
        assert!(q.give_back(handle(2)).is_err());
    }

    #[test]
    fn try_pop_distinguishes_empty_from_finished() {
        let q = BlockQueue::new(1);
        assert!(matches!(q.try_pop(), PopNext::Empty));
        q.push(handle(1)).unwrap();
        assert!(matches!(q.try_pop(), PopNext::Block(_)));
        q.producer_done().unwrap();
        assert!(matches!(q.try_pop(), PopNext::Finished));
        // A closed queue reports Finished immediately.
        let q2 = BlockQueue::new(1);
        q2.close();
        assert!(matches!(q2.try_pop(), PopNext::Finished));
    }

    #[test]
    fn park_ends_on_push_wake_and_close_not_on_a_timer() {
        // An event between reading the count and parking ends the park at once.
        let q = BlockQueue::new(1);
        let seen = q.events();
        q.push(handle(1)).unwrap();
        let start = std::time::Instant::now();
        assert!(!q.park(seen));
        assert!(start.elapsed() < PARK_RECHECK);
        // A parked consumer is released by a push, a wake and a close.
        type Event = fn(&BlockQueue);
        let events: [Event; 3] =
            [|q| q.push(handle(2)).unwrap(), BlockQueue::wake, BlockQueue::close];
        for event in events {
            let seen = q.events();
            let waker = {
                let q = q.clone();
                thread::spawn(move || {
                    thread::sleep(Duration::from_millis(2));
                    event(&q);
                })
            };
            assert!(!q.park(seen), "the event, not the backstop, ends the park");
            waker.join().unwrap();
            assert_ne!(q.events(), seen);
        }
        // A quiet queue parks for at most the recheck backstop, and says so.
        let quiet = BlockQueue::new(1);
        let start = std::time::Instant::now();
        assert!(quiet.park(quiet.events()));
        assert!(start.elapsed() >= PARK_RECHECK);
    }

    #[test]
    fn a_parked_consumer_misses_no_wake_up() {
        // One to four producers push, wake and complete while the consumer
        // cycles through events / try_pop / park. Every block arrives
        // exactly once, and no park is ended by the backstop after its
        // event happened: the event's notify must reach the parked
        // consumer. (A park that saw nothing for `PARK_RECHECK` — a
        // descheduled producer — is not a lost wake-up.)
        const PER_PRODUCER: usize = 400;
        for producers in 1..=4 {
            let q = BlockQueue::bounded(producers, 4);
            let start = Arc::new(std::sync::Barrier::new(producers + 1));
            let threads: Vec<_> = (0..producers)
                .map(|p| {
                    let (q, start) = (q.clone(), Arc::clone(&start));
                    thread::spawn(move || {
                        start.wait();
                        for i in 0..PER_PRODUCER {
                            q.push(handle(p * PER_PRODUCER + i)).unwrap();
                            if i % 7 == p {
                                q.wake();
                            }
                        }
                        q.producer_done().unwrap();
                    })
                })
                .collect();
            start.wait();
            let (mut ids, mut lost) = (Vec::new(), 0);
            loop {
                let seen = q.events();
                match q.try_pop() {
                    PopNext::Block(h) => ids.push(h.meta().id.index()),
                    PopNext::Empty => lost += usize::from(q.park(seen) && q.events() != seen),
                    PopNext::Finished => break,
                }
            }
            for t in threads {
                t.join().unwrap();
            }
            ids.sort_unstable();
            assert_eq!(ids, (0..producers * PER_PRODUCER).collect::<Vec<_>>(), "exactly once");
            assert_eq!(lost, 0, "{producers} producers: parks outlived their event");
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
