//! Block managers: staging memory for intermediate results.
//!
//! §4.3: "State memory is served by memory managers, while staging memory is
//! served by block managers. Both are organized as a set of independent, local
//! components — one per memory node." The block managers:
//!
//! * pre-allocate staging *arenas* (a byte budget per node) at initialization
//!   time, so no allocation happens on the query's critical path;
//! * only allow **local** devices to acquire staging directly, using
//!   device-local synchronization (a per-node lock here — there is no global
//!   lock across nodes);
//! * serve requests for **remote** staging by launching small acquisition
//!   tasks to the remote node's manager, accelerated by (i) a per-remote-node
//!   cache of already-acquired leases and (ii) batching of acquisition and
//!   release requests.
//!
//! Leases are *capacity tokens* denominated in **bytes**: the actual tuple
//! storage is an ordinary `Block` built by the pack operator, and a lease of
//! `n` bytes reserves `n` bytes of the node's staging arena, so a large block
//! costs proportionally more than a tiny one. What the manager provides is
//! the accounting (arenas can run dry), the registration that lets a caller
//! wait until bytes are released instead of erroring, and the remote
//! acquisition protocol with its cache/batching behaviour.
//!
//! A dry arena has two explicit behaviours, chosen per call through
//! [`ExhaustionPolicy`]:
//!
//! * [`ExhaustionPolicy::Error`] — fail immediately with `HetError::Memory`.
//!   This is the failure-injection path the unit tests and strict callers
//!   (e.g. the device providers' `getBuffer`) use.
//! * [`ExhaustionPolicy::Park`] — block the calling thread until enough
//!   bytes are released, up to a timeout.
//!
//! The pipelined executor's tasks use neither: [`BlockManagerSet::poll_acquire`]
//! registers the task's waker on the dry arena instead (the one wait
//! mechanism of `hetex_common::wait`), so a full arena holds the producer
//! back instead of killing the query, and `Park` is built on the same
//! registration with a waker that unparks the calling thread.

use hetex_common::wait::{block_until, register, take};
use hetex_common::{BlockId, HetError, MemoryNodeId, Result};
use parking_lot::Mutex;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex as StdMutex, MutexGuard};
use std::task::{Poll, Waker};
use std::time::{Duration, Instant};

/// How many leases a remote acquisition batch fetches at once (§4.3: batching
/// requests for block acquisition and release from remote nodes).
pub const REMOTE_BATCH: usize = 8;

/// How many top lease holders (aggregated by label) a Park-timeout
/// `HetError::Memory` message names.
pub const TOP_HOLDERS_REPORTED: usize = 3;

/// Label recorded for leases acquired through the unlabeled entry points.
pub const ANON_HOLDER: &str = "anon";

/// What an acquisition does when the arena cannot serve it immediately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExhaustionPolicy {
    /// Fail with `HetError::Memory` right away (failure injection, strict
    /// callers that must not block).
    Error,
    /// Park the caller until enough bytes are released, up to the given
    /// timeout; a timeout still fails with `HetError::Memory` so a wedged
    /// pipeline reports instead of hanging forever.
    Park(Duration),
}

/// A lease on staging bytes from a node's arena. Dropping the lease returns
/// the bytes to its home manager and wakes waiting acquirers.
#[derive(Debug)]
pub struct BlockLease {
    id: BlockId,
    home: MemoryNodeId,
    bytes: u64,
    manager: Arc<NodeState>,
    released: bool,
}

impl BlockLease {
    /// Identifier of the leased staging block.
    pub fn id(&self) -> BlockId {
        self.id
    }

    /// Memory node the bytes belong to.
    pub fn home(&self) -> MemoryNodeId {
        self.home
    }

    /// Bytes this lease reserves in its home arena.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Explicitly return the lease (also happens on drop).
    pub fn release(mut self) {
        self.release_inner();
    }

    fn release_inner(&mut self) {
        if !self.released {
            self.manager.release(self.id, self.bytes);
            self.released = true;
        }
    }
}

impl Drop for BlockLease {
    fn drop(&mut self) {
        self.release_inner();
    }
}

/// Counters describing a node manager's activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockManagerStats {
    /// Local acquisitions served from the arena.
    pub local_acquires: u64,
    /// Remote acquisitions served from the local cache of remote leases.
    pub remote_cache_hits: u64,
    /// Batched acquisition round-trips to remote managers.
    pub remote_batches: u64,
    /// `Park` acquisitions that had to wait for released bytes before
    /// succeeding.
    pub parked: u64,
}

/// Mutable arena accounting, guarded by the node's lock.
#[derive(Debug)]
struct Arena {
    available: u64,
    next_id: usize,
    peak_leased: u64,
    /// Live leases by id: bytes held and the acquirer's label. Feeds the
    /// top-holders diagnostic a Park timeout reports — "timed out" alone
    /// cannot tell a wedged consumer from a co-tenant burst. Static labels
    /// are borrowed, not allocated.
    holders: HashMap<BlockId, (u64, Cow<'static, str>)>,
    /// Acquirers waiting for released bytes.
    waiters: Vec<Waker>,
}

impl Arena {
    /// The top lease holders by total bytes, aggregated by label, rendered
    /// as `label:bytes` — the diagnostic payload of a Park timeout.
    fn top_holders(&self, n: usize) -> String {
        let mut by_label: HashMap<&str, u64> = HashMap::new();
        for (bytes, label) in self.holders.values() {
            *by_label.entry(label).or_default() += bytes;
        }
        let mut ranked: Vec<(&str, u64)> = by_label.into_iter().collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        ranked.truncate(n);
        if ranked.is_empty() {
            return "none".into();
        }
        ranked
            .into_iter()
            .map(|(label, bytes)| format!("{label}:{bytes}"))
            .collect::<Vec<_>>()
            .join(", ")
    }
}

#[derive(Debug)]
struct NodeState {
    node: MemoryNodeId,
    capacity: u64,
    arena: StdMutex<Arena>,
    /// Mirror of `capacity - arena.available`, maintained on every (de)lease
    /// so [`BlockManager::occupancy`] — read per consumer per block on the
    /// routing hot path — never takes the arena lock.
    leased: AtomicU64,
}

impl NodeState {
    fn lock(&self) -> MutexGuard<'_, Arena> {
        self.arena.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Lease `bytes` now, or — when the arena is dry — register `waker`
    /// (if any) for the next release and return `None`. Fails only for a
    /// request that can never fit.
    fn try_acquire(
        &self,
        bytes: u64,
        label: &(impl Clone + Into<Cow<'static, str>>),
        waker: Option<&Waker>,
    ) -> Result<Option<BlockId>> {
        if bytes > self.capacity {
            return Err(HetError::Memory(format!(
                "staging request of {bytes} bytes can never fit the arena on {} ({} bytes)",
                self.node, self.capacity
            )));
        }
        let mut arena = self.lock();
        if arena.available < bytes {
            if let Some(waker) = waker {
                register(&mut arena.waiters, waker);
            }
            return Ok(None);
        }
        arena.available -= bytes;
        arena.peak_leased = arena.peak_leased.max(self.capacity - arena.available);
        self.leased.store(self.capacity - arena.available, Ordering::Relaxed);
        let id = BlockId::new(arena.next_id);
        arena.next_id += 1;
        arena.holders.insert(id, (bytes, label.clone().into()));
        Ok(Some(id))
    }

    /// Lease `bytes` under `policy`; the flag says whether a `Park` waited.
    fn acquire(
        &self,
        bytes: u64,
        policy: ExhaustionPolicy,
        label: &(impl Clone + Into<Cow<'static, str>>),
    ) -> Result<(BlockId, bool)> {
        if let Some(id) = self.try_acquire(bytes, label, None)? {
            return Ok((id, false));
        }
        let ExhaustionPolicy::Park(timeout) = policy else {
            let available = self.lock().available;
            return Err(HetError::Memory(format!(
                "staging arena exhausted on {} ({available} of {} bytes free, {bytes} requested)",
                self.node, self.capacity
            )));
        };
        let acquired = block_until(Instant::now() + timeout, |waker| {
            self.try_acquire(bytes, label, Some(waker))
                .transpose()
                .map_or(Poll::Pending, Poll::Ready)
        });
        if let Some(acquired) = acquired {
            return acquired.map(|id| (id, true));
        }
        let arena = self.lock();
        Err(HetError::Memory(format!(
            "parked staging acquisition timed out on {} ({} of {} bytes free, \
             {bytes} requested; top holders by bytes: {})",
            self.node,
            arena.available,
            self.capacity,
            arena.top_holders(TOP_HOLDERS_REPORTED)
        )))
    }

    /// Take up to `n` extra leases of `bytes` each without waiting, and only
    /// while the arena stays comfortably supplied (at least half the capacity
    /// free after the grab) — prefetching for a remote cache must not hoard
    /// the last bytes other producers are waiting on.
    fn try_take_extra(&self, n: usize, bytes: u64, label: Cow<'static, str>) -> Vec<BlockId> {
        if bytes == 0 {
            return Vec::new();
        }
        let mut arena = self.lock();
        let mut ids = Vec::new();
        while ids.len() < n {
            let after = arena.available.saturating_sub(bytes);
            if arena.available < bytes || after < self.capacity / 2 {
                break;
            }
            arena.available = after;
            arena.peak_leased = arena.peak_leased.max(self.capacity - arena.available);
            self.leased.store(self.capacity - arena.available, Ordering::Relaxed);
            let id = BlockId::new(arena.next_id);
            arena.next_id += 1;
            arena.holders.insert(id, (bytes, label.clone()));
            ids.push(id);
        }
        ids
    }

    fn release(&self, id: BlockId, bytes: u64) {
        let mut arena = self.lock();
        arena.available = (arena.available + bytes).min(self.capacity);
        self.leased.store(self.capacity - arena.available, Ordering::Relaxed);
        arena.holders.remove(&id);
        let waiters = take(&mut arena.waiters);
        drop(arena);
        waiters.wake();
    }
}

/// The block manager of one memory node.
#[derive(Debug)]
pub struct BlockManager {
    state: Arc<NodeState>,
    /// Cache of leases already acquired from each remote node. A request is
    /// served by the smallest cached lease that covers it (best fit) — block
    /// streams are mostly uniform-sized, but tail blocks and variable-width
    /// stages must reuse the prefetched leases rather than strand them.
    remote_cache: Mutex<HashMap<MemoryNodeId, Vec<BlockLease>>>,
    stats: Mutex<BlockManagerStats>,
}

impl BlockManager {
    /// A manager for `node` whose staging arena holds `arena_bytes` bytes.
    pub fn new(node: MemoryNodeId, arena_bytes: u64) -> Self {
        Self {
            state: Arc::new(NodeState {
                node,
                capacity: arena_bytes,
                arena: StdMutex::new(Arena {
                    available: arena_bytes,
                    next_id: 0,
                    peak_leased: 0,
                    holders: HashMap::new(),
                    waiters: Vec::new(),
                }),
                leased: AtomicU64::new(0),
            }),
            remote_cache: Mutex::new(HashMap::new()),
            stats: Mutex::new(BlockManagerStats::default()),
        }
    }

    /// The node this manager serves.
    pub fn node(&self) -> MemoryNodeId {
        self.state.node
    }

    /// Total bytes of the staging arena.
    pub fn capacity_bytes(&self) -> u64 {
        self.state.capacity
    }

    /// Bytes currently available in the local arena.
    pub fn available_bytes(&self) -> u64 {
        self.state.lock().available
    }

    /// Bytes currently leased out of the arena.
    pub fn leased_bytes(&self) -> u64 {
        self.state.leased.load(Ordering::Relaxed)
    }

    /// Largest number of bytes ever leased simultaneously.
    pub fn peak_leased_bytes(&self) -> u64 {
        self.state.lock().peak_leased
    }

    /// Fraction of the arena currently leased, in `[0, 1]`. The router's load
    /// estimator uses this to steer blocks away from memory-starved nodes.
    pub fn occupancy(&self) -> f64 {
        if self.state.capacity == 0 {
            return 1.0;
        }
        self.leased_bytes() as f64 / self.state.capacity as f64
    }

    /// Acquire `bytes` of staging from the local arena (local devices only).
    pub fn acquire_local(&self, bytes: u64, policy: ExhaustionPolicy) -> Result<BlockLease> {
        self.acquire_local_labeled(bytes, policy, ANON_HOLDER)
    }

    /// Like [`Self::acquire_local`], but records `label` as the lease's
    /// holder so a later Park timeout on this arena can name who held the
    /// bytes (the serving layer labels by query; fault injection by burst).
    /// A static label is recorded without allocating.
    pub fn acquire_local_labeled(
        &self,
        bytes: u64,
        policy: ExhaustionPolicy,
        label: impl Into<Cow<'static, str>>,
    ) -> Result<BlockLease> {
        let (id, parked) = self.state.acquire(bytes, policy, &label.into())?;
        {
            let mut stats = self.stats.lock();
            stats.local_acquires += 1;
            stats.parked += u64::from(parked);
        }
        Ok(self.lease(id, bytes))
    }

    fn lease(&self, id: BlockId, bytes: u64) -> BlockLease {
        BlockLease {
            id,
            home: self.state.node,
            bytes,
            manager: Arc::clone(&self.state),
            released: false,
        }
    }

    /// The top lease holders by bytes, aggregated by label (`label:bytes`,
    /// the diagnostic a Park timeout reports), or `None` while nothing is
    /// leased.
    pub fn top_holders(&self) -> Option<String> {
        let arena = self.state.lock();
        (!arena.holders.is_empty()).then(|| arena.top_holders(TOP_HOLDERS_REPORTED))
    }

    /// Activity counters.
    pub fn stats(&self) -> BlockManagerStats {
        *self.stats.lock()
    }
}

/// The set of block managers of the whole server — one per memory node — plus
/// the remote-acquisition protocol between them.
#[derive(Debug)]
pub struct BlockManagerSet {
    managers: Vec<Arc<BlockManager>>,
}

impl BlockManagerSet {
    /// Build one manager per node with `arena_bytes` bytes of staging each.
    pub fn new(nodes: &[MemoryNodeId], arena_bytes: u64) -> Self {
        Self {
            managers: nodes.iter().map(|&n| Arc::new(BlockManager::new(n, arena_bytes))).collect(),
        }
    }

    /// The manager local to `node`. A set built over a topology's memory
    /// nodes holds node `i` at position `i`, which is looked at first: every
    /// routed block asks once per pricing class and once for its lease.
    pub fn manager(&self, node: MemoryNodeId) -> Result<&Arc<BlockManager>> {
        self.managers
            .get(node.index())
            .filter(|m| m.node() == node)
            .or_else(|| self.managers.iter().find(|m| m.node() == node))
            .ok_or_else(|| HetError::Memory(format!("no block manager for {node}")))
    }

    /// Acquire `bytes` of staging that must live on `target`, on behalf of a
    /// pipeline whose local node is `local`. Local requests go straight to
    /// the arena; remote requests are served from `local`'s cache of `target`
    /// leases, refilled in batches of up to [`REMOTE_BATCH`] (prefetching
    /// stops while the remote arena is more than half occupied, so batching
    /// never hoards the bytes other producers are waiting on).
    pub fn acquire(
        &self,
        local: MemoryNodeId,
        target: MemoryNodeId,
        bytes: u64,
        policy: ExhaustionPolicy,
    ) -> Result<BlockLease> {
        self.acquire_labeled(local, target, bytes, policy, ANON_HOLDER)
    }

    /// Like [`Self::acquire`], but records `label` as the lease's holder for
    /// the Park-timeout top-holders diagnostic.
    pub fn acquire_labeled(
        &self,
        local: MemoryNodeId,
        target: MemoryNodeId,
        bytes: u64,
        policy: ExhaustionPolicy,
        label: impl Into<Cow<'static, str>>,
    ) -> Result<BlockLease> {
        let label = label.into();
        let lease = self.acquire_with(local, target, bytes, &label, |mgr| {
            if !matches!(policy, ExhaustionPolicy::Park(_)) {
                return Ok(None);
            }
            self.reclaim_cached_for(target);
            mgr.state.acquire(bytes, policy, &label).map(Some)
        })?;
        lease.ok_or_else(|| {
            let mgr = self.manager(target).map(|m| m.available_bytes()).unwrap_or(0);
            HetError::Memory(format!(
                "staging arena exhausted on {target} ({mgr} of {} bytes free, {bytes} requested)",
                self.manager(target).map(|m| m.capacity_bytes()).unwrap_or(0)
            ))
        })
    }

    /// The non-blocking form of [`Self::acquire`]: `Pending`, with `waker`
    /// registered on `target`'s arena, while the arena is dry.
    pub fn poll_acquire(
        &self,
        local: MemoryNodeId,
        target: MemoryNodeId,
        bytes: u64,
        waker: &Waker,
    ) -> Poll<Result<BlockLease>> {
        let label = Cow::Borrowed(ANON_HOLDER);
        let lease = self.acquire_with(local, target, bytes, &label, |mgr| {
            self.reclaim_cached_for(target);
            Ok(mgr.state.try_acquire(bytes, &label, Some(waker))?.map(|id| (id, false)))
        });
        lease.transpose().map_or(Poll::Pending, Poll::Ready)
    }

    /// The remote protocol around one acquisition: a local request leases
    /// from the arena, a remote one is served from the cache or fetches a
    /// batch. A dry arena hands the request to `wait`, which first calls in
    /// the batched *release* half of the protocol
    /// ([`Self::reclaim_cached_for`]) when it may wait.
    fn acquire_with(
        &self,
        local: MemoryNodeId,
        target: MemoryNodeId,
        bytes: u64,
        label: &(impl Clone + Into<Cow<'static, str>>),
        wait: impl FnOnce(&BlockManager) -> Result<Option<(BlockId, bool)>>,
    ) -> Result<Option<BlockLease>> {
        let local_mgr = self.manager(local)?;
        let target_mgr = self.manager(target)?;
        if local != target {
            let mut cache = local_mgr.remote_cache.lock();
            if let Some(leases) = cache.get_mut(&target) {
                // Best fit: the smallest cached lease covering the request.
                let fit = leases
                    .iter()
                    .enumerate()
                    .filter(|(_, l)| l.bytes() >= bytes)
                    .min_by_key(|(_, l)| l.bytes())
                    .map(|(i, _)| i);
                if let Some(i) = fit {
                    let lease = leases.swap_remove(i);
                    local_mgr.stats.lock().remote_cache_hits += 1;
                    return Ok(Some(lease));
                }
            }
        }
        let acquired = match target_mgr.state.try_acquire(bytes, label, None)? {
            Some(id) => (id, false),
            None => match wait(target_mgr)? {
                Some(acquired) => acquired,
                None => return Ok(None),
            },
        };
        let (id, parked) = acquired;
        let mut stats = local_mgr.stats.lock();
        stats.parked += u64::from(parked);
        if local == target {
            stats.local_acquires += 1;
            return Ok(Some(target_mgr.lease(id, bytes)));
        }
        // Cache miss: one "small task launched to the remote node". The
        // rest of the batch is opportunistic and never waits.
        stats.remote_batches += 1;
        drop(stats);
        let extras = target_mgr.state.try_take_extra(REMOTE_BATCH - 1, bytes, label.clone().into());
        if !extras.is_empty() {
            let leases = extras.into_iter().map(|id| target_mgr.lease(id, bytes));
            local_mgr.remote_cache.lock().entry(target).or_default().extend(leases);
        }
        Ok(Some(target_mgr.lease(id, bytes)))
    }

    /// Total bytes still available across all arenas.
    pub fn total_available_bytes(&self) -> u64 {
        self.managers.iter().map(|m| m.available_bytes()).sum()
    }

    /// Each node's top lease holders by bytes (`node[label:bytes, …]`), or
    /// `none` — who holds the staging a stalled pipeline waits for.
    pub fn holders(&self) -> String {
        let held: Vec<String> = self
            .managers
            .iter()
            .filter_map(|m| Some(format!("{}[{}]", m.node(), m.top_holders()?)))
            .collect();
        if held.is_empty() {
            "none".into()
        } else {
            held.join(", ")
        }
    }

    /// Per-node peak leased bytes, in node order — the observability hook the
    /// staging-invariant tests assert against.
    pub fn peaks(&self) -> Vec<(MemoryNodeId, u64)> {
        self.managers.iter().map(|m| (m.node(), m.peak_leased_bytes())).collect()
    }

    /// Bytes currently leased across every node's arena. After an execution
    /// has dropped its handles and flushed the remote caches this must be
    /// zero — the fault-invariant suite's leak check: no recovery path may
    /// strand a lease.
    pub fn leased_bytes_total(&self) -> u64 {
        self.managers.iter().map(|m| m.leased_bytes()).sum()
    }

    /// Drop every cached remote lease, returning the bytes to their home
    /// arenas (used when a query finishes or fails while leases sit prefetched
    /// in caches).
    pub fn flush_remote_caches(&self) {
        for m in &self.managers {
            m.remote_cache.lock().clear();
        }
    }

    /// Return every cached lease homed on `target` to its arena — the batched
    /// release half of the remote protocol, invoked before an acquisition
    /// waits so prefetched-but-idle bytes cannot starve a live producer.
    fn reclaim_cached_for(&self, target: MemoryNodeId) {
        for m in &self.managers {
            m.remote_cache.lock().remove(&target);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    const KB: u64 = 1024;

    fn nodes() -> Vec<MemoryNodeId> {
        (0..4).map(MemoryNodeId::new).collect()
    }

    #[test]
    fn local_acquire_and_release_cycle_in_bytes() {
        let mgr = BlockManager::new(MemoryNodeId::new(0), 2 * KB);
        assert_eq!(mgr.available_bytes(), 2 * KB);
        let a = mgr.acquire_local(KB, ExhaustionPolicy::Error).unwrap();
        let b = mgr.acquire_local(KB, ExhaustionPolicy::Error).unwrap();
        assert_eq!(mgr.available_bytes(), 0);
        assert_eq!(mgr.leased_bytes(), 2 * KB);
        assert!(mgr.acquire_local(1, ExhaustionPolicy::Error).is_err());
        drop(a);
        assert_eq!(mgr.available_bytes(), KB);
        assert_eq!(b.bytes(), KB);
        b.release();
        assert_eq!(mgr.available_bytes(), 2 * KB);
        assert_eq!(mgr.stats().local_acquires, 2);
        // Peak reflects the high-water mark, not the current state.
        assert_eq!(mgr.peak_leased_bytes(), 2 * KB);
    }

    #[test]
    fn large_blocks_count_for_more() {
        let mgr = BlockManager::new(MemoryNodeId::new(0), 10 * KB);
        let _small = mgr.acquire_local(KB, ExhaustionPolicy::Error).unwrap();
        let _large = mgr.acquire_local(8 * KB, ExhaustionPolicy::Error).unwrap();
        assert_eq!(mgr.available_bytes(), KB);
        // A second large block does not fit even though two handles would.
        assert!(mgr.acquire_local(8 * KB, ExhaustionPolicy::Error).is_err());
        assert!((mgr.occupancy() - 0.9).abs() < 1e-9);
    }

    #[test]
    fn lease_ids_are_unique() {
        let mgr = BlockManager::new(MemoryNodeId::new(0), 10 * KB);
        let a = mgr.acquire_local(KB, ExhaustionPolicy::Error).unwrap();
        let b = mgr.acquire_local(KB, ExhaustionPolicy::Error).unwrap();
        assert_ne!(a.id(), b.id());
        assert_eq!(a.home(), MemoryNodeId::new(0));
    }

    #[test]
    fn park_policy_waits_for_released_bytes() {
        let mgr = Arc::new(BlockManager::new(MemoryNodeId::new(0), KB));
        let held = mgr.acquire_local(KB, ExhaustionPolicy::Error).unwrap();
        let waiter = {
            let mgr = Arc::clone(&mgr);
            thread::spawn(move || {
                mgr.acquire_local(KB, ExhaustionPolicy::Park(Duration::from_secs(5)))
            })
        };
        thread::sleep(Duration::from_millis(30));
        drop(held);
        let lease = waiter.join().unwrap().expect("parked acquisition succeeds after release");
        assert_eq!(lease.bytes(), KB);
        assert_eq!(mgr.stats().parked, 1, "the waiter parked once");
    }

    #[test]
    fn park_policy_times_out_instead_of_hanging() {
        let mgr = BlockManager::new(MemoryNodeId::new(0), KB);
        let _held = mgr.acquire_local(KB, ExhaustionPolicy::Error).unwrap();
        let err =
            mgr.acquire_local(KB, ExhaustionPolicy::Park(Duration::from_millis(30))).unwrap_err();
        assert_eq!(err.category(), "memory");
        assert!(err.to_string().contains("timed out"), "{err}");
    }

    #[test]
    fn park_timeout_names_the_top_holders_by_bytes() {
        let mgr = BlockManager::new(MemoryNodeId::new(0), 10 * KB);
        // Four labels; "stage1/slot0" holds the most bytes across two leases.
        let _a =
            mgr.acquire_local_labeled(3 * KB, ExhaustionPolicy::Error, "stage1/slot0").unwrap();
        let _b =
            mgr.acquire_local_labeled(2 * KB, ExhaustionPolicy::Error, "stage1/slot0").unwrap();
        let _c = mgr.acquire_local_labeled(3 * KB, ExhaustionPolicy::Error, "fault:burst").unwrap();
        let _d =
            mgr.acquire_local_labeled(3 * KB / 2, ExhaustionPolicy::Error, "stage0/pump").unwrap();
        let _e = mgr.acquire_local(KB / 2, ExhaustionPolicy::Error).unwrap();
        let err = mgr
            .acquire_local_labeled(KB, ExhaustionPolicy::Park(Duration::from_millis(20)), "me")
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("top holders by bytes"), "{msg}");
        // Only the top TOP_HOLDERS_REPORTED labels are named, ranked by
        // total held bytes; the smallest holder is omitted.
        assert!(msg.contains(&format!("stage1/slot0:{}", 5 * KB)), "{msg}");
        assert!(msg.contains(&format!("fault:burst:{}", 3 * KB)), "{msg}");
        assert!(msg.contains(&format!("stage0/pump:{}", 3 * KB / 2)), "{msg}");
        assert!(!msg.contains(ANON_HOLDER), "{msg}");
        let pos_big = msg.find("stage1/slot0").unwrap();
        let pos_mid = msg.find("fault:burst").unwrap();
        assert!(pos_big < pos_mid, "holders must rank by bytes: {msg}");
        // Released leases leave the registry: once everything except the
        // anonymous lease is dropped, a fresh timeout names only "anon".
        drop((_a, _b, _c, _d));
        let err = mgr
            .acquire_local_labeled(10 * KB, ExhaustionPolicy::Park(Duration::from_millis(20)), "me")
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains(&format!("{ANON_HOLDER}:{}", KB / 2)), "{msg}");
        assert!(!msg.contains("stage1/slot0"), "released leases must leave the registry: {msg}");
    }

    #[test]
    fn oversized_requests_fail_under_both_policies() {
        let mgr = BlockManager::new(MemoryNodeId::new(0), KB);
        assert!(mgr.acquire_local(2 * KB, ExhaustionPolicy::Error).is_err());
        // A request that can never fit must not park until the timeout.
        let start = Instant::now();
        assert!(mgr
            .acquire_local(2 * KB, ExhaustionPolicy::Park(Duration::from_secs(30)))
            .is_err());
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn remote_acquisition_uses_batching_and_cache() {
        let set = BlockManagerSet::new(&nodes(), 64 * KB);
        let local = MemoryNodeId::new(0);
        let remote = MemoryNodeId::new(2);
        // First remote acquire triggers one batch round-trip.
        let _a = set.acquire(local, remote, KB, ExhaustionPolicy::Error).unwrap();
        let stats = set.manager(local).unwrap().stats();
        assert_eq!(stats.remote_batches, 1);
        assert_eq!(stats.remote_cache_hits, 0);
        // The next REMOTE_BATCH-1 same-size acquisitions come from the cache.
        let mut leases = Vec::new();
        for _ in 0..(REMOTE_BATCH - 1) {
            leases.push(set.acquire(local, remote, KB, ExhaustionPolicy::Error).unwrap());
        }
        let stats = set.manager(local).unwrap().stats();
        assert_eq!(stats.remote_batches, 1);
        assert_eq!(stats.remote_cache_hits, (REMOTE_BATCH - 1) as u64);
        // One more acquisition starts a new batch.
        let _b = set.acquire(local, remote, KB, ExhaustionPolicy::Error).unwrap();
        assert_eq!(set.manager(local).unwrap().stats().remote_batches, 2);
        // A larger request cannot be served by the cached 1 KB leases…
        let _c = set.acquire(local, remote, 2 * KB, ExhaustionPolicy::Error).unwrap();
        assert_eq!(set.manager(local).unwrap().stats().remote_batches, 3);
        // …but a smaller one reuses them (best fit), so tail blocks never
        // strand prefetched bytes.
        let hits_before = set.manager(local).unwrap().stats().remote_cache_hits;
        let small = set.acquire(local, remote, KB / 2, ExhaustionPolicy::Error).unwrap();
        assert_eq!(set.manager(local).unwrap().stats().remote_batches, 3);
        assert_eq!(set.manager(local).unwrap().stats().remote_cache_hits, hits_before + 1);
        assert_eq!(small.bytes(), KB, "the reused lease keeps its own size");
    }

    #[test]
    fn remote_leases_come_from_the_remote_arena() {
        let set = BlockManagerSet::new(&nodes(), 64 * KB);
        let local = MemoryNodeId::new(0);
        let remote = MemoryNodeId::new(3);
        let lease = set.acquire(local, remote, KB, ExhaustionPolicy::Error).unwrap();
        assert_eq!(lease.home(), remote);
        // The remote arena lost a batch of leases; the local arena is untouched.
        assert_eq!(set.manager(local).unwrap().available_bytes(), 64 * KB);
        assert_eq!(set.manager(remote).unwrap().available_bytes(), (64 - REMOTE_BATCH as u64) * KB);
        set.flush_remote_caches();
        drop(lease);
        assert_eq!(set.manager(remote).unwrap().available_bytes(), 64 * KB);
    }

    #[test]
    fn batching_never_hoards_a_nearly_dry_arena() {
        // Remote arena of 4 KB: a 1 KB acquisition succeeds, but the
        // opportunistic prefetch must stop at the 50%-occupancy guard instead
        // of caching the last free bytes.
        let set = BlockManagerSet::new(&nodes(), 4 * KB);
        let local = MemoryNodeId::new(0);
        let remote = MemoryNodeId::new(1);
        let _lease = set.acquire(local, remote, KB, ExhaustionPolicy::Error).unwrap();
        let remaining = set.manager(remote).unwrap().available_bytes();
        assert!(remaining >= 2 * KB, "prefetch left only {remaining} bytes on the remote arena");
    }

    #[test]
    fn exhausted_remote_arena_reports_memory_error() {
        let set = BlockManagerSet::new(&nodes(), 0);
        let err = set
            .acquire(MemoryNodeId::new(0), MemoryNodeId::new(1), 1, ExhaustionPolicy::Error)
            .unwrap_err();
        assert_eq!(err.category(), "memory");
        let err = set
            .acquire(MemoryNodeId::new(0), MemoryNodeId::new(0), 1, ExhaustionPolicy::Error)
            .unwrap_err();
        assert_eq!(err.category(), "memory");
    }

    #[test]
    fn unknown_node_is_an_error() {
        let set = BlockManagerSet::new(&nodes(), 4 * KB);
        assert!(set.manager(MemoryNodeId::new(9)).is_err());
        assert!(set
            .acquire(MemoryNodeId::new(9), MemoryNodeId::new(0), 1, ExhaustionPolicy::Error)
            .is_err());
    }

    #[test]
    fn total_available_tracks_outstanding_leases() {
        let set = BlockManagerSet::new(&nodes(), 4 * KB);
        assert_eq!(set.total_available_bytes(), 16 * KB);
        let lease = set
            .acquire(MemoryNodeId::new(1), MemoryNodeId::new(1), KB, ExhaustionPolicy::Error)
            .unwrap();
        assert_eq!(set.total_available_bytes(), 15 * KB);
        drop(lease);
        assert_eq!(set.total_available_bytes(), 16 * KB);
        assert_eq!(set.peaks()[1], (MemoryNodeId::new(1), KB));
    }

    #[test]
    fn concurrent_acquires_respect_capacity_and_track_peak() {
        let mgr = Arc::new(BlockManager::new(MemoryNodeId::new(0), 100 * KB));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let mgr = Arc::clone(&mgr);
                thread::spawn(move || {
                    for _ in 0..50 {
                        if let Ok(lease) =
                            mgr.acquire_local(KB, ExhaustionPolicy::Park(Duration::from_secs(5)))
                        {
                            drop(lease);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(mgr.available_bytes(), 100 * KB);
        assert!(mgr.peak_leased_bytes() <= 100 * KB);
        assert!(mgr.peak_leased_bytes() >= KB);
    }
}
