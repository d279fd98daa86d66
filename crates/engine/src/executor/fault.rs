//! Fault recovery (DESIGN.md §7): per-execution fault state, the watchdog
//! and the per-invocation fault ladder. A quarantined device's lanes
//! re-route their blocks (see `Claimer::evacuate`).

use super::worker::Lane;
use super::QueryRun;
use hetex_storage::{BlockLease, ExhaustionPolicy};
use hetex_topology::{DeviceId, FaultPlan, SimTime};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Base simulated backoff charged before re-running a transiently failed
/// kernel invocation; doubles with every consecutive retry of the same block.
const TRANSIENT_RETRY_BASE_NS: u64 = 50_000;

/// Consecutive transient failures of one block before the in-place retry
/// gives up and the device is quarantined.
pub(super) const TRANSIENT_RETRY_BUDGET: u32 = 3;

/// Wall-clock cadence of the fault watchdog's checks, run between task
/// steps. Wall-clock only — the stall-detection *cost* is charged in
/// simulated time separately (see `WATCHDOG_DETECT_NS`).
pub(super) const WATCHDOG_POLL: Duration = Duration::from_millis(5);

/// Consecutive watchdog polls a wedge-scripted device must show zero block
/// progress past its scripted onset before it is declared wedged. Multiple
/// polls distinguish "wedged" from "momentarily between blocks".
const WATCHDOG_STALL_POLLS: u32 = 3;

/// Floor of the simulated detection budget the watchdog charges a wedged
/// device before quarantining it. The actual budget is the larger of this
/// floor and two observed average block costs of the device — a watchdog
/// cannot call a device wedged faster than it could tell silence from one
/// slow block.
const WATCHDOG_DETECT_NS: u64 = 1_000_000;

/// Per-execution fault-recovery state, created only when the topology
/// carries a [`FaultPlan`]. Healthy runs carry `None` and skip every check
/// — the recovery machinery costs them nothing, simulated or wall-clock.
pub(super) struct FaultState {
    pub(super) plan: Arc<FaultPlan>,
    /// One quarantine flag per device (topology device order). Set once and
    /// never cleared: a quarantined device takes no further work this run.
    quarantined: Vec<AtomicBool>,
    /// Kernel-invocation counter per device — the index of the fault plan's
    /// deterministic transient-failure draw.
    invocations: Vec<AtomicU64>,
    /// Blocks completed per device — the progress signal the watchdog's
    /// stall detector compares across polls.
    progressed: Vec<AtomicU64>,
    /// Blocks re-routed off a quarantined device (observability).
    pub(super) recovered: AtomicU64,
    /// Transient failures absorbed by in-place retry (observability).
    pub(super) retries: AtomicU64,
    /// The watchdog's state between checks.
    pub(super) watch: Mutex<Watch>,
}

/// What the watchdog carries from one check to the next.
pub(super) struct Watch {
    last: Instant,
    /// Per wedge-suspect device: its progress count and how many checks in
    /// a row saw it unchanged.
    stall: HashMap<usize, (u64, u32)>,
    /// The arena bursts in force, and the leases they hold hostage.
    pub(super) bursts: Vec<(usize, BlockLease)>,
}

impl FaultState {
    pub(super) fn new(plan: Arc<FaultPlan>, devices: usize) -> Self {
        let counters = || (0..devices).map(|_| AtomicU64::new(0)).collect();
        Self {
            plan,
            quarantined: (0..devices).map(|_| AtomicBool::new(false)).collect(),
            invocations: counters(),
            progressed: counters(),
            recovered: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            watch: Mutex::new(Watch {
                last: Instant::now(),
                stall: HashMap::new(),
                bursts: Vec::new(),
            }),
        }
    }

    pub(super) fn is_quarantined(&self, device: DeviceId) -> bool {
        self.quarantined[device.index()].load(Ordering::Acquire)
    }

    /// Whether `device`, its clock at `now`, can take no more work: it is
    /// quarantined, or its scripted abort onset has passed (a device that
    /// never claimed a block since it died has not quarantined itself yet).
    fn is_down(&self, device: DeviceId, now: SimTime) -> bool {
        self.is_quarantined(device) || self.plan.abort_at(device).is_some_and(|at| now >= at)
    }

    /// Quarantine `device` (idempotent): routing stops projecting onto it,
    /// and its lanes re-route their remaining streams the next time they
    /// look at the flag.
    pub(super) fn quarantine(&self, device: DeviceId) {
        self.quarantined[device.index()].store(true, Ordering::Release);
    }

    /// One block completed on `device`: a wedged device stops ticking.
    pub(super) fn note_progress(&self, device: DeviceId) {
        self.progressed[device.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// The fault ladder for the block `lane` is about to run, judged
    /// *before* the kernel runs — kernels are transactional at block
    /// granularity, so a lost invocation left no partial state. Returns
    /// whether the device is now quarantined.
    ///
    /// Permanent abort: a device whose clock has crossed the scripted onset
    /// dies on the next block it claims, and that block is re-routed first.
    /// (Judged before the claim, a device that had already drained its
    /// queue would quarantine itself with nothing in hand to re-route.)
    /// Transient failures draw deterministically from the plan and the block
    /// simply re-runs; each retry charges a doubling slice of simulated
    /// backoff, and past the budget the device is declared lost the same
    /// way.
    pub(super) fn invocation_lost(&self, lane: &mut Lane<'_>) -> bool {
        let device = lane.device;
        if self.is_down(device, lane.clock.now()) {
            self.quarantine(device);
        }
        let mut attempt = 0u32;
        while !self.is_quarantined(device) {
            let invocation = self.invocations[device.index()].fetch_add(1, Ordering::Relaxed);
            if !self.plan.transient_failure(device, lane.clock.now(), invocation) {
                break;
            }
            if attempt >= TRANSIENT_RETRY_BUDGET {
                self.quarantine(device);
                break;
            }
            self.retries.fetch_add(1, Ordering::Relaxed);
            let (_, end) = lane.clock.reserve(SimTime::ZERO, TRANSIENT_RETRY_BASE_NS << attempt);
            lane.last_end = lane.last_end.max(end);
            attempt += 1;
        }
        self.is_quarantined(device)
    }
}

impl QueryRun<'_> {
    /// `(stage, slot)` of every consumer placed on `device`.
    fn slots_on(&self, device: DeviceId) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.routing.iter().enumerate().flat_map(move |(stage, r)| {
            r.instance_devices
                .iter()
                .enumerate()
                .filter(move |&(_, d)| *d == device)
                .map(move |(slot, _)| (stage, slot))
        })
    }

    /// The fault watchdog, run between task steps at most once per
    /// [`WATCHDOG_POLL`] (`None` when not due or already running). Two
    /// duties: convert a wedged worker into a quarantine
    /// ([`Self::detect_wedges`]), and drive scripted arena bursts
    /// ([`Self::drive_bursts`]). Returns whether a wedge suspect is still
    /// being watched — a later check may wake its lane with no other event.
    pub(super) fn watch(&self) -> Option<bool> {
        let fault = self.fault.as_ref()?;
        let mut watch = fault.watch.try_lock()?;
        if watch.last.elapsed() < WATCHDOG_POLL {
            return None;
        }
        watch.last = Instant::now();
        let frontier =
            self.device_clocks.values().map(|c| c.now()).fold(SimTime::ZERO, SimTime::max);
        let suspect = self.detect_wedges(fault, &mut watch.stall);
        self.drive_bursts(fault, frontier, &mut watch.bursts);
        Some(suspect)
    }

    /// A wedge-scripted device whose clock passed the onset and whose
    /// progress counter stalled for [`WATCHDOG_STALL_POLLS`] checks is
    /// charged the detection budget in simulated time — a watchdog cannot
    /// tell silence from one slow block faster than two observed block
    /// costs — then quarantined, and its waiting lane is woken to hand its
    /// stream over. Returns whether a device is still under suspicion.
    fn detect_wedges(&self, fault: &FaultState, stall: &mut HashMap<usize, (u64, u32)>) -> bool {
        let mut suspect = false;
        for (dev_idx, progressed) in fault.progressed.iter().enumerate() {
            let device = DeviceId::new(dev_idx);
            let Some(at) = fault.plan.wedge_at(device) else { continue };
            let Some(clock) = self.device_clocks.get(&device) else { continue };
            if fault.is_quarantined(device) {
                continue;
            }
            if clock.now() < at {
                stall.remove(&dev_idx);
                continue;
            }
            let progressed = progressed.load(Ordering::Relaxed);
            let entry = stall.entry(dev_idx).or_insert((progressed, 0));
            if entry.0 == progressed {
                entry.1 += 1;
            } else {
                *entry = (progressed, 0);
            }
            if entry.1 < WATCHDOG_STALL_POLLS {
                suspect = true;
                continue;
            }
            let avg = self
                .slots_on(device)
                .filter_map(|(stage, slot)| self.routing[stage].observed_avg_cost(slot))
                .max()
                .unwrap_or(0);
            clock.reserve(at.add_nanos(WATCHDOG_DETECT_NS.max(2 * avg)), 0);
            fault.quarantine(device);
            self.slots_on(device)
                .for_each(|(stage, slot)| self.lane_waker(stage, slot).wake_by_ref());
        }
        suspect
    }

    /// Scripted arena bursts: a co-tenant leases `min(bytes, free)` of a
    /// node's arena while the simulated frontier is inside the burst window
    /// — it competes for staging, it does not deadlock the arena.
    fn drive_bursts(
        &self,
        fault: &FaultState,
        frontier: SimTime,
        bursts: &mut Vec<(usize, BlockLease)>,
    ) {
        for (i, burst) in fault.plan.arena_bursts().iter().enumerate() {
            let active = bursts.iter().any(|(b, _)| *b == i);
            if active || frontier < burst.from || frontier >= burst.until {
                continue;
            }
            let Ok(manager) = self.staging.arenas.manager(burst.node) else { continue };
            let take =
                burst.bytes.min(manager.capacity_bytes().saturating_sub(manager.leased_bytes()));
            if take > 0 {
                if let Ok(lease) =
                    manager.acquire_local_labeled(take, ExhaustionPolicy::Error, "fault:burst")
                {
                    bursts.push((i, lease));
                }
            }
        }
        bursts.retain(|(i, _)| frontier < fault.plan.arena_bursts()[*i].until);
    }

    /// The live sibling of `slot` of `stage` with the earliest clock: the
    /// lane a quarantined lane's last flush is charged to. `None` when every
    /// sibling is down (a sibling past its abort onset counts as down before
    /// it has claimed a block and quarantined itself).
    pub(super) fn flush_survivor(
        &self,
        fault: &FaultState,
        stage: usize,
        slot: usize,
    ) -> Option<usize> {
        let devices = &self.routing[stage].instance_devices;
        let now = |s: usize| self.device_clocks[&devices[s]].now();
        (0..devices.len())
            .filter(|&s| s != slot && !fault.is_down(devices[s], now(s)))
            .min_by_key(|&s| now(s))
    }
}
