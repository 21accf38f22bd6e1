//! Offline stand-in for the `parking_lot` crate.
//!
//! Implements the subset this workspace uses — `Mutex`, `RwLock`, and
//! `Condvar` with parking_lot's ergonomics (no `Result` poisoning, and
//! condvar waits that take `&mut MutexGuard`) — on top of `std::sync`.
//! Poisoned std locks are recovered transparently: a panic while a
//! guard is held does not wedge every later lock call, matching
//! parking_lot semantics.

use std::ops::{Deref, DerefMut};
use std::sync;
use std::time::Duration;

/// Mutual exclusion primitive; `lock()` returns the guard directly.
#[derive(Default)]
pub struct Mutex<T: ?Sized> {
    inner: sync::Mutex<T>,
}

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Self {
            inner: sync::Mutex::new(value),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let guard = match self.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        MutexGuard { guard: Some(guard) }
    }
}

/// Guard for [`Mutex`]; the inner `Option` lets [`Condvar`] take the
/// std guard out during a wait and put it back afterwards.
pub struct MutexGuard<'a, T: ?Sized> {
    guard: Option<sync::MutexGuard<'a, T>>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard.as_deref().expect("guard taken during wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard.as_deref_mut().expect("guard taken during wait")
    }
}

/// Condition variable whose waits borrow the guard mutably instead of
/// consuming it, matching parking_lot's API.
#[derive(Default)]
pub struct Condvar {
    inner: sync::Condvar,
}

impl Condvar {
    pub const fn new() -> Self {
        Self {
            inner: sync::Condvar::new(),
        }
    }

    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let std_guard = guard.guard.take().expect("guard taken during wait");
        let std_guard = match self.inner.wait(std_guard) {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        guard.guard = Some(std_guard);
    }

    /// Wait at most `timeout`; the caller re-checks its condition.
    pub fn wait_for<T>(&self, guard: &mut MutexGuard<'_, T>, timeout: Duration) {
        let std_guard = guard.guard.take().expect("guard taken during wait");
        let std_guard = match self.inner.wait_timeout(std_guard, timeout) {
            Ok((g, _)) => g,
            Err(p) => p.into_inner().0,
        };
        guard.guard = Some(std_guard);
    }

    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

/// Reader-writer lock; `read()`/`write()` return guards directly.
#[derive(Default)]
pub struct RwLock<T: ?Sized> {
    inner: sync::RwLock<T>,
}

impl<T> RwLock<T> {
    pub const fn new(value: T) -> Self {
        Self {
            inner: sync::RwLock::new(value),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let guard = match self.inner.read() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        RwLockReadGuard { guard }
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let guard = match self.inner.write() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        RwLockWriteGuard { guard }
    }
}

pub struct RwLockReadGuard<'a, T: ?Sized> {
    guard: sync::RwLockReadGuard<'a, T>,
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

pub struct RwLockWriteGuard<'a, T: ?Sized> {
    guard: sync::RwLockWriteGuard<'a, T>,
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
    }

    #[test]
    fn rwlock_readers_and_writer() {
        let l = RwLock::new(vec![1, 2]);
        {
            let a = l.read();
            let b = l.read();
            assert_eq!(a.len() + b.len(), 4);
        }
        l.write().push(3);
        assert_eq!(l.read().len(), 3);
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = pair.clone();
        let h = thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut done = m.lock();
            while !*done {
                cv.wait(&mut done);
            }
        });
        thread::sleep(Duration::from_millis(10));
        *pair.0.lock() = true;
        pair.1.notify_all();
        h.join().unwrap();
    }

    #[test]
    fn condvar_wait_for_times_out() {
        let m = Mutex::new(0);
        let cv = Condvar::new();
        let mut g = m.lock();
        cv.wait_for(&mut g, Duration::from_millis(5));
        *g += 1;
        assert_eq!(*g, 1, "the guard is handed back after the timeout");
    }

    #[test]
    fn lock_recovers_after_holder_panics() {
        let m = Arc::new(Mutex::new(0u32));
        let m2 = m.clone();
        let _ = thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison");
        })
        .join();
        *m.lock() += 1;
        assert_eq!(*m.lock(), 1);
    }
}
