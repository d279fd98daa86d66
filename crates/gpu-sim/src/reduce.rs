//! Warp-level ("neighborhood") reductions.
//!
//! In the paper's generated GPU code (Listing 1, lines 27–29) each thread
//! first reduces its thread-local accumulator within its warp
//! (`neighborhood_reduce`), and only the warp leader issues the device-scoped
//! atomic. That turns thousands of global atomics into a few dozen.
//!
//! Our simulated kernel threads run one after another within a launch and
//! concurrently across launches, so a literal lock-step shuffle is not
//! available. [`NeighborhoodReducer`]
//! preserves the semantics and the *cost shape* instead: every lane deposits
//! its value into a per-warp accumulator, and the last lane of the warp to
//! arrive flushes the warp total with a single device atomic. The number of
//! global atomics is therefore exactly one per active warp, which is what the
//! cost model charges.

use crate::atomic::DeviceAtomicI64;
use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};

/// Accumulates per-warp partial sums and flushes one atomic per warp.
#[derive(Debug)]
pub struct NeighborhoodReducer {
    warp_partials: Vec<AtomicI64>,
    warp_pending: Vec<AtomicUsize>,
    flushes: AtomicUsize,
}

impl NeighborhoodReducer {
    /// A reducer for a launch with `total_warps` warps, where each warp will
    /// contribute exactly `lanes_per_warp` values.
    pub fn new(total_warps: usize, lanes_per_warp: usize) -> Self {
        Self {
            warp_partials: (0..total_warps).map(|_| AtomicI64::new(0)).collect(),
            warp_pending: (0..total_warps).map(|_| AtomicUsize::new(lanes_per_warp)).collect(),
            flushes: AtomicUsize::new(0),
        }
    }

    /// Contribute a lane-local value for `warp_id`; when the warp is complete
    /// the warp total is added to `target` with a single device atomic.
    pub fn contribute(&self, warp_id: usize, value: i64, target: &DeviceAtomicI64) {
        let partial = &self.warp_partials[warp_id];
        partial.fetch_add(value, Ordering::Relaxed);
        let remaining = self.warp_pending[warp_id].fetch_sub(1, Ordering::AcqRel) - 1;
        if remaining == 0 {
            let total = partial.swap(0, Ordering::AcqRel);
            target.fetch_add(total);
            self.flushes.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Number of device-scoped atomics issued so far (one per completed warp).
    pub fn global_atomics(&self) -> usize {
        self.flushes.load(Ordering::Relaxed)
    }

    /// Number of warps tracked by this reducer.
    pub fn warps(&self) -> usize {
        self.warp_partials.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn warp_totals_reach_target_with_one_atomic_per_warp() {
        let warps = 4;
        let lanes = 8;
        let reducer = NeighborhoodReducer::new(warps, lanes);
        let target = DeviceAtomicI64::new(0);
        for warp in 0..warps {
            for lane in 0..lanes {
                reducer.contribute(warp, (warp * lanes + lane) as i64, &target);
            }
        }
        let expected: i64 = (0..(warps * lanes) as i64).sum();
        assert_eq!(target.load(), expected);
        assert_eq!(reducer.global_atomics(), warps);
        assert_eq!(reducer.warps(), warps);
    }

    #[test]
    fn concurrent_contributions_are_not_lost() {
        let warps = 16;
        let lanes = 32;
        let reducer = Arc::new(NeighborhoodReducer::new(warps, lanes));
        let target = Arc::new(DeviceAtomicI64::new(0));
        let mut handles = Vec::new();
        // Each host thread plays the role of a subset of warps.
        for chunk in 0..4 {
            let reducer = Arc::clone(&reducer);
            let target = Arc::clone(&target);
            handles.push(thread::spawn(move || {
                for warp in (chunk * 4)..(chunk * 4 + 4) {
                    for _lane in 0..lanes {
                        reducer.contribute(warp, 1, &target);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(target.load(), (warps * lanes) as i64);
        assert_eq!(reducer.global_atomics(), warps);
    }
}
