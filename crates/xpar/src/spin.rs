//! A minimal test-and-set spin lock.
//!
//! Used for very short critical sections (e.g. merging per-chunk label
//! histograms) where the cost of parking a thread would dominate.  The
//! implementation follows the classic acquire/release pattern: `lock` spins on
//! a `compare_exchange_weak` with `Acquire` ordering, `unlock` stores `false`
//! with `Release` ordering, which establishes the happens-before edge between
//! the unlocking thread's writes and the next locking thread's reads.

use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, Ordering};

/// A spin lock protecting a value of type `T`.
///
/// Prefer [`parking_lot::Mutex`] for anything that may hold the lock for more
/// than a few hundred nanoseconds; this type exists for the hot merge paths in
/// the segmentation kernels and for the workspace's concurrency tests.
pub struct SpinLock<T> {
    locked: AtomicBool,
    value: UnsafeCell<T>,
}

// SAFETY: the lock guarantees exclusive access to `value` while a guard is
// alive, so sharing the lock across threads is sound as long as `T: Send`.
unsafe impl<T: Send> Sync for SpinLock<T> {}
// SAFETY: the lock owns its `T` outright, so moving the lock to another
// thread moves the value with it, which `T: Send` permits; the `AtomicBool`
// flag is `Send` on its own.
unsafe impl<T: Send> Send for SpinLock<T> {}

/// RAII guard returned by [`SpinLock::lock`]; releases the lock on drop.
pub struct SpinGuard<'a, T> {
    lock: &'a SpinLock<T>,
}

impl<T> SpinLock<T> {
    /// Creates a new unlocked spin lock wrapping `value`.
    pub const fn new(value: T) -> Self {
        Self {
            locked: AtomicBool::new(false),
            value: UnsafeCell::new(value),
        }
    }

    /// Acquires the lock, spinning until it becomes available.
    pub fn lock(&self) -> SpinGuard<'_, T> {
        while self
            .locked
            .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            // Back off while the lock is held to avoid hammering the cache line.
            while self.locked.load(Ordering::Relaxed) {
                std::hint::spin_loop();
            }
        }
        SpinGuard { lock: self }
    }

    /// Attempts to acquire the lock without spinning.
    pub fn try_lock(&self) -> Option<SpinGuard<'_, T>> {
        if self
            .locked
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            Some(SpinGuard { lock: self })
        } else {
            None
        }
    }

    /// Consumes the lock and returns the inner value.
    pub fn into_inner(self) -> T {
        self.value.into_inner()
    }

    /// Returns a mutable reference to the inner value.
    ///
    /// Requires `&mut self`, so no locking is necessary.
    pub fn get_mut(&mut self) -> &mut T {
        self.value.get_mut()
    }
}

impl<T: Default> Default for SpinLock<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T> Deref for SpinGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: the guard's existence proves the lock is held.
        unsafe { &*self.lock.value.get() }
    }
}

impl<T> DerefMut for SpinGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: the guard's existence proves the lock is held exclusively.
        unsafe { &mut *self.lock.value.get() }
    }
}

impl<T> Drop for SpinGuard<'_, T> {
    fn drop(&mut self) {
        self.lock.locked.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn single_thread_lock_unlock() {
        let lock = SpinLock::new(5usize);
        {
            let mut g = lock.lock();
            *g += 1;
        }
        assert_eq!(*lock.lock(), 6);
    }

    #[test]
    fn try_lock_fails_while_held() {
        let lock = SpinLock::new(());
        let g = lock.lock();
        assert!(lock.try_lock().is_none());
        drop(g);
        assert!(lock.try_lock().is_some());
    }

    #[test]
    fn into_inner_returns_value() {
        let lock = SpinLock::new(String::from("hello"));
        assert_eq!(lock.into_inner(), "hello");
    }

    #[test]
    fn get_mut_bypasses_locking() {
        let mut lock = SpinLock::new(3);
        *lock.get_mut() = 9;
        assert_eq!(*lock.lock(), 9);
    }

    #[test]
    fn concurrent_increments_are_not_lost() {
        const THREADS: usize = 8;
        const PER_THREAD: usize = 10_000;
        let lock = Arc::new(SpinLock::new(0usize));
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let lock = Arc::clone(&lock);
            handles.push(std::thread::spawn(move || {
                for _ in 0..PER_THREAD {
                    *lock.lock() += 1;
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*lock.lock(), THREADS * PER_THREAD);
    }

    #[test]
    fn default_constructs_default_value() {
        let lock: SpinLock<u32> = SpinLock::default();
        assert_eq!(*lock.lock(), 0);
    }
}
