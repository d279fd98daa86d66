//! Device-scoped atomics: the `workerScopedAtomic<T, Op>` of Table 1.
//!
//! These are real host atomics (launches from different host threads
//! genuinely run in parallel), wrapped so that kernels talk about "device
//! atomics" rather than `std::sync::atomic` directly. The JIT's GPU lowering
//! does not touch them: it merges through shared state and *counts* one
//! device atomic per active warp, which is what the cost model charges.

use std::sync::atomic::{AtomicI64, Ordering};

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
    fn concurrent_adds_do_not_lose_updates() {
        let a = Arc::new(DeviceAtomicI64::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let a = Arc::clone(&a);
            handles.push(thread::spawn(move || {
                for _ in 0..10_000 {
                    a.fetch_add(1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(a.load(), 80_000);
    }
}
