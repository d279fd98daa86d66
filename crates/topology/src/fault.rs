//! Scripted fault injection.
//!
//! A [`FaultPlan`] is attached to a [`ServerTopology`](crate::ServerTopology)
//! at engine construction (like
//! [`with_device_slowdown`](crate::ServerTopology::with_device_slowdown)) and
//! describes *when* and *how* devices misbehave, in **simulated time**: the
//! executor consults the plan against its device clocks, so a run's fault
//! schedule is perfectly reproducible — no wall-clock randomness, no timers.
//!
//! The taxonomy mirrors what a heterogeneous fleet actually sees:
//!
//! * [`DeviceFault::PermanentAbort`] — the device dies at sim-time `at` and
//!   never comes back (a GPU falling off the bus, an Xid error);
//! * [`DeviceFault::TransientWindow`] — kernel invocations fail with
//!   probability `probability` while the device clock is inside
//!   `[from, until)` (recoverable launch errors, ECC hiccups, co-tenant
//!   interference). Failures are drawn from a deterministic hash of
//!   `(seed, device, invocation)`, so the same plan always fails the same
//!   invocations;
//! * [`DeviceFault::Wedge`] — the device's worker stops making progress at
//!   sim-time `at` without reporting an error (a hung kernel, a lost
//!   interrupt). Only a watchdog can see this one;
//! * [`ArenaBurst`] — a co-tenant burst-allocates `bytes` of a staging arena
//!   for a sim-time window, exhausting it for the query under test.

use crate::clock::SimTime;
use crate::device::DeviceId;
use hetex_common::MemoryNodeId;

/// One scripted misbehaviour of a single device.
#[derive(Debug, Clone, PartialEq)]
pub enum DeviceFault {
    /// The device aborts permanently once its clock reaches `at`.
    PermanentAbort {
        /// Sim-time of the abort.
        at: SimTime,
    },
    /// Kernel invocations fail transiently with probability `probability`
    /// while the device clock is inside `[from, until)`.
    TransientWindow {
        /// Start of the failure window (inclusive).
        from: SimTime,
        /// End of the failure window (exclusive).
        until: SimTime,
        /// Per-invocation failure probability in `[0, 1]`.
        probability: f64,
        /// Seed of the deterministic per-invocation failure draw.
        seed: u64,
    },
    /// The device's worker silently stops making progress at `at`.
    Wedge {
        /// Sim-time at which the worker wedges.
        at: SimTime,
    },
}

/// A co-tenant burst allocation against one staging arena.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArenaBurst {
    /// The memory node whose staging arena is burst-allocated.
    pub node: MemoryNodeId,
    /// Bytes the burst tries to hold (clamped to what is free at onset).
    pub bytes: u64,
    /// Start of the burst window (inclusive).
    pub from: SimTime,
    /// End of the burst window (exclusive).
    pub until: SimTime,
}

/// A reproducible schedule of device faults and arena bursts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    device_faults: Vec<(DeviceId, DeviceFault)>,
    arena_bursts: Vec<ArenaBurst>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.device_faults.is_empty() && self.arena_bursts.is_empty()
    }

    /// Script `device` to abort permanently at sim-time `at`.
    pub fn abort_device(mut self, device: DeviceId, at: SimTime) -> Self {
        self.device_faults.push((device, DeviceFault::PermanentAbort { at }));
        self
    }

    /// Script `device` to fail kernel invocations with probability
    /// `probability` while its clock is inside `[from, until)`, drawn
    /// deterministically from `seed`. The probability is kept as given;
    /// [`ServerTopology::with_fault_plan`](crate::ServerTopology::with_fault_plan)
    /// rejects one outside `[0, 1]`.
    pub fn transient_window(
        mut self,
        device: DeviceId,
        from: SimTime,
        until: SimTime,
        probability: f64,
        seed: u64,
    ) -> Self {
        self.device_faults
            .push((device, DeviceFault::TransientWindow { from, until, probability, seed }));
        self
    }

    /// Script `device`'s worker to wedge (stop progressing) at sim-time `at`.
    pub fn wedge_worker(mut self, device: DeviceId, at: SimTime) -> Self {
        self.device_faults.push((device, DeviceFault::Wedge { at }));
        self
    }

    /// Script a co-tenant burst of `bytes` against `node`'s staging arena
    /// for the sim-time window `[from, until)`.
    pub fn arena_burst(
        mut self,
        node: MemoryNodeId,
        bytes: u64,
        from: SimTime,
        until: SimTime,
    ) -> Self {
        self.arena_bursts.push(ArenaBurst { node, bytes, from, until });
        self
    }

    /// All scripted device faults.
    pub fn device_faults(&self) -> &[(DeviceId, DeviceFault)] {
        &self.device_faults
    }

    /// All scripted arena bursts.
    pub fn arena_bursts(&self) -> &[ArenaBurst] {
        &self.arena_bursts
    }

    /// True when any fault targets `device` (whatever its onset time).
    pub fn targets_device(&self, device: DeviceId) -> bool {
        self.device_faults.iter().any(|(d, _)| *d == device)
    }

    /// Sim-time at which `device` aborts permanently, if scripted. Multiple
    /// aborts collapse to the earliest.
    pub fn abort_at(&self, device: DeviceId) -> Option<SimTime> {
        self.device_faults
            .iter()
            .filter_map(|(d, f)| match f {
                DeviceFault::PermanentAbort { at } if *d == device => Some(*at),
                _ => None,
            })
            .min()
    }

    /// Sim-time at which `device`'s worker wedges, if scripted. Multiple
    /// wedges collapse to the earliest.
    pub fn wedge_at(&self, device: DeviceId) -> Option<SimTime> {
        self.device_faults
            .iter()
            .filter_map(|(d, f)| match f {
                DeviceFault::Wedge { at } if *d == device => Some(*at),
                _ => None,
            })
            .min()
    }

    /// Whether the `invocation`-th kernel invocation on `device`, with the
    /// device clock at `now`, fails transiently. Deterministic in
    /// `(seed, device, invocation)`: replaying the same plan fails the same
    /// invocations.
    pub fn transient_failure(&self, device: DeviceId, now: SimTime, invocation: u64) -> bool {
        self.device_faults.iter().any(|(d, f)| match f {
            DeviceFault::TransientWindow { from, until, probability, seed }
                if *d == device && now >= *from && now < *until =>
            {
                let draw = splitmix64(
                    seed.wrapping_add(
                        0x9e37_79b9_7f4a_7c15u64.wrapping_mul(device.index() as u64 + 1),
                    )
                    .wrapping_add(invocation.wrapping_mul(0xbf58_476d_1ce4_e5b9)),
                );
                // Map the top 53 bits to [0, 1).
                let unit = (draw >> 11) as f64 / (1u64 << 53) as f64;
                unit < *probability
            }
            _ => false,
        })
    }
}

/// SplitMix64 finalizer — a tiny, well-mixed, dependency-free hash used for
/// the deterministic transient-failure draw.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_injects_nothing() {
        let plan = FaultPlan::new();
        assert!(plan.is_empty());
        assert!(plan.abort_at(DeviceId::new(0)).is_none());
        assert!(plan.wedge_at(DeviceId::new(0)).is_none());
        assert!(!plan.transient_failure(DeviceId::new(0), SimTime::from_nanos(5), 0));
        assert!(!plan.targets_device(DeviceId::new(0)));
    }

    #[test]
    fn abort_and_wedge_report_earliest_onset() {
        let dev = DeviceId::new(2);
        let plan = FaultPlan::new()
            .abort_device(dev, SimTime::from_nanos(500))
            .abort_device(dev, SimTime::from_nanos(100))
            .wedge_worker(dev, SimTime::from_nanos(300));
        assert!(!plan.is_empty());
        assert!(plan.targets_device(dev));
        assert_eq!(plan.abort_at(dev), Some(SimTime::from_nanos(100)));
        assert_eq!(plan.wedge_at(dev), Some(SimTime::from_nanos(300)));
        assert!(plan.abort_at(DeviceId::new(3)).is_none());
    }

    #[test]
    fn transient_window_is_deterministic_and_bounded() {
        let dev = DeviceId::new(1);
        let plan = FaultPlan::new().transient_window(
            dev,
            SimTime::from_nanos(100),
            SimTime::from_nanos(200),
            0.5,
            42,
        );
        // Outside the window: never fails.
        assert!(!plan.transient_failure(dev, SimTime::from_nanos(99), 7));
        assert!(!plan.transient_failure(dev, SimTime::from_nanos(200), 7));
        // Wrong device: never fails.
        assert!(!plan.transient_failure(DeviceId::new(0), SimTime::from_nanos(150), 7));
        // Inside the window: deterministic per invocation, and at p=0.5 over
        // 1000 invocations both outcomes occur with a sane ratio.
        let now = SimTime::from_nanos(150);
        let fails: Vec<bool> = (0..1000).map(|i| plan.transient_failure(dev, now, i)).collect();
        let again: Vec<bool> = (0..1000).map(|i| plan.transient_failure(dev, now, i)).collect();
        assert_eq!(fails, again, "same (seed, device, invocation) must draw the same outcome");
        let n_fail = fails.iter().filter(|&&f| f).count();
        assert!((300..700).contains(&n_fail), "p=0.5 drew {n_fail}/1000 failures");
        // Probability extremes behave.
        let never = FaultPlan::new().transient_window(
            dev,
            SimTime::ZERO,
            SimTime::from_nanos(1000),
            0.0,
            1,
        );
        assert!((0..100).all(|i| !never.transient_failure(dev, now, i)));
        let always = FaultPlan::new().transient_window(
            dev,
            SimTime::ZERO,
            SimTime::from_nanos(1000),
            1.0,
            1,
        );
        assert!((0..100).all(|i| always.transient_failure(dev, now, i)));
    }

    #[test]
    fn different_seeds_draw_different_schedules() {
        let dev = DeviceId::new(0);
        let now = SimTime::from_nanos(50);
        let a =
            FaultPlan::new().transient_window(dev, SimTime::ZERO, SimTime::from_nanos(100), 0.5, 1);
        let b =
            FaultPlan::new().transient_window(dev, SimTime::ZERO, SimTime::from_nanos(100), 0.5, 2);
        let draws_a: Vec<bool> = (0..64).map(|i| a.transient_failure(dev, now, i)).collect();
        let draws_b: Vec<bool> = (0..64).map(|i| b.transient_failure(dev, now, i)).collect();
        assert_ne!(draws_a, draws_b);
    }

    #[test]
    fn arena_bursts_are_recorded() {
        let plan = FaultPlan::new().arena_burst(
            MemoryNodeId::new(1),
            4096,
            SimTime::from_nanos(10),
            SimTime::from_nanos(90),
        );
        assert_eq!(plan.arena_bursts().len(), 1);
        let burst = &plan.arena_bursts()[0];
        assert_eq!(burst.node, MemoryNodeId::new(1));
        assert_eq!(burst.bytes, 4096);
        assert!(burst.from < burst.until);
    }
}
