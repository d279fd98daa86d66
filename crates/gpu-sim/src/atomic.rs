//! Device-scoped atomics.
//!
//! The GPU device provider lowers `workerScopedAtomic<T, Op>` to these types.
//! They are real host atomics (launches from different host threads genuinely
//! run in parallel), wrapped so that the rest of the system talks
//! about "device atomics" rather than `std::sync::atomic` directly — which is
//! also where the cost model hooks the per-atomic charge.

use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};

/// A 64-bit signed integer with device-scoped atomic add/min/max.
#[derive(Debug, Default)]
pub struct DeviceAtomicI64 {
    value: AtomicI64,
}

impl DeviceAtomicI64 {
    /// A new atomic initialized to `value`.
    pub fn new(value: i64) -> Self {
        Self { value: AtomicI64::new(value) }
    }

    /// Atomically add `delta` and return the previous value.
    pub fn fetch_add(&self, delta: i64) -> i64 {
        self.value.fetch_add(delta, Ordering::Relaxed)
    }

    /// Atomically take the minimum with `candidate`.
    pub fn fetch_min(&self, candidate: i64) -> i64 {
        self.value.fetch_min(candidate, Ordering::Relaxed)
    }

    /// Atomically take the maximum with `candidate`.
    pub fn fetch_max(&self, candidate: i64) -> i64 {
        self.value.fetch_max(candidate, Ordering::Relaxed)
    }

    /// The current value.
    pub fn load(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Overwrite the value (only used when initializing state).
    pub fn store(&self, value: i64) {
        self.value.store(value, Ordering::Relaxed)
    }
}

/// A 64-bit float with device-scoped atomic add (CAS loop, like `atomicAdd`
/// on doubles for pre-Pascal GPUs).
#[derive(Debug, Default)]
pub struct DeviceAtomicF64 {
    bits: AtomicU64,
}

impl DeviceAtomicF64 {
    /// A new atomic initialized to `value`.
    pub fn new(value: f64) -> Self {
        Self { bits: AtomicU64::new(value.to_bits()) }
    }

    /// Atomically add `delta` and return the previous value.
    pub fn fetch_add(&self, delta: f64) -> f64 {
        let mut current = self.bits.load(Ordering::Relaxed);
        loop {
            let new = (f64::from_bits(current) + delta).to_bits();
            match self.bits.compare_exchange_weak(
                current,
                new,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return f64::from_bits(current),
                Err(actual) => current = actual,
            }
        }
    }

    /// The current value.
    pub fn load(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    /// Overwrite the value.
    pub fn store(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed)
    }
}

/// A monotonically increasing counter, used for claiming output slots
/// (e.g. the write cursor of a packed output block produced on the GPU).
#[derive(Debug, Default)]
pub struct DeviceCounter {
    value: AtomicUsize,
}

impl DeviceCounter {
    /// A counter starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Atomically claim `n` consecutive slots; returns the first claimed index.
    pub fn claim(&self, n: usize) -> usize {
        self.value.fetch_add(n, Ordering::Relaxed)
    }

    /// The number of slots claimed so far.
    pub fn current(&self) -> usize {
        self.value.load(Ordering::Relaxed)
    }

    /// Reset to zero.
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn i64_atomic_ops() {
        let a = DeviceAtomicI64::new(10);
        assert_eq!(a.fetch_add(5), 10);
        assert_eq!(a.load(), 15);
        a.fetch_min(3);
        assert_eq!(a.load(), 3);
        a.fetch_max(100);
        assert_eq!(a.load(), 100);
        a.store(-1);
        assert_eq!(a.load(), -1);
    }

    #[test]
    fn f64_atomic_add_is_exact_for_integers() {
        let a = DeviceAtomicF64::new(0.0);
        a.fetch_add(1.5);
        a.fetch_add(2.5);
        assert_eq!(a.load(), 4.0);
        a.store(7.25);
        assert_eq!(a.load(), 7.25);
    }

    #[test]
    fn concurrent_adds_do_not_lose_updates() {
        let a = Arc::new(DeviceAtomicI64::new(0));
        let f = Arc::new(DeviceAtomicF64::new(0.0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let a = Arc::clone(&a);
            let f = Arc::clone(&f);
            handles.push(thread::spawn(move || {
                for _ in 0..10_000 {
                    a.fetch_add(1);
                    f.fetch_add(1.0);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(a.load(), 80_000);
        assert_eq!(f.load(), 80_000.0);
    }

    #[test]
    fn counter_claims_disjoint_ranges() {
        let c = Arc::new(DeviceCounter::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = Arc::clone(&c);
            handles.push(thread::spawn(move || {
                let mut starts = Vec::new();
                for _ in 0..1000 {
                    starts.push(c.claim(3));
                }
                starts
            }));
        }
        let mut all: Vec<usize> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 4000, "claimed ranges must not overlap");
        assert_eq!(c.current(), 12_000);
        c.reset();
        assert_eq!(c.current(), 0);
    }
}
