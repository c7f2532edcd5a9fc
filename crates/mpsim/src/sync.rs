//! Synchronization seam: a `parking_lot`-shaped shim over `std::sync`.
//!
//! The runtime originally used `parking_lot` for its locks. To keep the
//! workspace building with **zero external dependencies** (registry access
//! cannot be assumed), this module provides the same call shapes —
//! `Mutex::lock()` returning a guard directly, `Condvar::wait(&mut guard)` —
//! over the standard library primitives. `mailbox`, `barrier`, the netsim
//! `fabric` and `sim_comm` lock through it.
//!
//! Poisoning is deliberately ignored: a panicking rank already triggers
//! world teardown through [`crate::barrier::StopBarrier::stop`] and
//! [`crate::mailbox::Mailbox::stop`], and the protected state (message
//! queues, reservation timelines) stays structurally valid across an
//! unwind, matching `parking_lot`'s no-poisoning semantics that the
//! original code was written against.

use std::fmt;
use std::sync::PoisonError;

/// A mutual-exclusion lock whose `lock` returns the guard directly.
#[derive(Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

/// RAII guard returned by [`Mutex::lock`].
///
/// The inner `Option` is always `Some` except transiently inside
/// [`Condvar::wait`], which must move the std guard out and back.
pub struct MutexGuard<'a, T: ?Sized>(Option<std::sync::MutexGuard<'a, T>>);

impl<T> Mutex<T> {
    /// Create a mutex protecting `value`.
    pub const fn new(value: T) -> Self {
        Self(std::sync::Mutex::new(value))
    }

    /// Consume the mutex, returning the protected value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(Some(self.0.lock().unwrap_or_else(PoisonError::into_inner)))
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    #[allow(clippy::expect_used, reason = "guard invariant: inner is present outside wait")]
    fn deref(&self) -> &T {
        self.0.as_ref().expect("guard invariant: present outside Condvar::wait")
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    #[allow(clippy::expect_used, reason = "guard invariant: inner is present outside wait")]
    fn deref_mut(&mut self) -> &mut T {
        self.0.as_mut().expect("guard invariant: present outside Condvar::wait")
    }
}

/// Condition variable operating on [`MutexGuard`] in place.
#[derive(Default)]
pub struct Condvar(std::sync::Condvar);

impl Condvar {
    /// Create a new condition variable.
    pub const fn new() -> Self {
        Self(std::sync::Condvar::new())
    }

    /// Atomically release the guard's lock and block until notified; the
    /// lock is re-acquired before returning. Spurious wakeups are possible,
    /// so callers loop on their predicate.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        #[allow(clippy::expect_used, reason = "guard invariant: inner is present outside wait")]
        let inner = guard.0.take().expect("guard invariant: present on entry to wait");
        guard.0 = Some(self.0.wait(inner).unwrap_or_else(PoisonError::into_inner));
    }

    /// Like [`wait`](Self::wait) but with an upper bound on blocking time.
    ///
    /// Returns `true` when the wait ended because `timeout` elapsed (the
    /// lock is re-acquired either way). Spurious wakeups are possible, so
    /// callers loop on their predicate *and* recompute the remaining time.
    pub fn wait_timeout<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: std::time::Duration,
    ) -> bool {
        #[allow(clippy::expect_used, reason = "guard invariant: inner is present outside wait")]
        let inner = guard.0.take().expect("guard invariant: present on entry to wait");
        let (inner, result) =
            self.0.wait_timeout(inner, timeout).unwrap_or_else(PoisonError::into_inner);
        guard.0 = Some(inner);
        result.timed_out()
    }

    /// Wake a single waiting thread.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wake all waiting threads.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_basic_and_guard_deref() {
        let m = Mutex::new(5);
        {
            let mut g = m.lock();
            *g += 1;
        }
        assert_eq!(*m.lock(), 6);
        assert_eq!(m.into_inner(), 6);
    }

    #[test]
    fn condvar_wait_in_place() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let h = std::thread::spawn(move || {
            let (m, cv) = &*pair2;
            let mut ready = m.lock();
            while !*ready {
                cv.wait(&mut ready);
            }
            *ready
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        let (m, cv) = &*pair;
        *m.lock() = true;
        cv.notify_all();
        assert!(h.join().unwrap());
    }

    #[test]
    fn wait_timeout_expires_without_notify() {
        let pair = (Mutex::new(false), Condvar::new());
        let mut g = pair.0.lock();
        let start = std::time::Instant::now();
        let timed_out = pair.1.wait_timeout(&mut g, std::time::Duration::from_millis(30));
        assert!(timed_out);
        assert!(start.elapsed() >= std::time::Duration::from_millis(20));
        *g = true; // lock is re-held
    }

    #[test]
    fn wait_timeout_returns_early_on_notify() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let h = std::thread::spawn(move || {
            let (m, cv) = &*pair2;
            let mut ready = m.lock();
            let mut timed_out = false;
            while !*ready && !timed_out {
                timed_out = cv.wait_timeout(&mut ready, std::time::Duration::from_secs(10));
            }
            timed_out
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        let (m, cv) = &*pair;
        *m.lock() = true;
        cv.notify_all();
        assert!(!h.join().unwrap());
    }

    #[test]
    fn mutex_is_not_poisoned_by_panic() {
        let m = Arc::new(Mutex::new(1));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison attempt");
        })
        .join();
        // parking_lot semantics: the lock is usable after a panicking holder
        assert_eq!(*m.lock(), 1);
    }
}
