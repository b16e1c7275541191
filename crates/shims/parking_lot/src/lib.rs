//! Offline stand-in for the subset of `parking_lot` this workspace uses:
//! [`RwLock`] and [`Mutex`] whose lock methods return guards directly
//! (no `Result`), built on the std primitives with poison recovery.
//!
//! A thread panicking while holding a std lock poisons it; `parking_lot`
//! locks never poison. The shim matches that behavior by unwrapping
//! poison errors into the inner guard.

#![forbid(unsafe_code)]

use std::sync::{self, MutexGuard, RwLockReadGuard, RwLockWriteGuard};

/// Reader–writer lock with `parking_lot`'s panic-free API.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized> {
    inner: sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Creates a new lock around `value`.
    pub const fn new(value: T) -> Self {
        Self {
            inner: sync::RwLock::new(value),
        }
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Shared read access; blocks until no writer holds the lock.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        match self.inner.read() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Exclusive write access; blocks until the lock is free.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        match self.inner.write() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Non-blocking read access.
    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        match self.inner.try_read() {
            Ok(g) => Some(g),
            Err(sync::TryLockError::Poisoned(p)) => Some(p.into_inner()),
            Err(sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Non-blocking write access.
    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        match self.inner.try_write() {
            Ok(g) => Some(g),
            Err(sync::TryLockError::Poisoned(p)) => Some(p.into_inner()),
            Err(sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires `&mut self`).
    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

/// Mutual-exclusion lock with `parking_lot`'s panic-free API.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    inner: sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex around `value`.
    pub const fn new(value: T) -> Self {
        Self {
            inner: sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Exclusive access; blocks until the lock is free.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Non-blocking exclusive access.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(g),
            Err(sync::TryLockError::Poisoned(p)) => Some(p.into_inner()),
            Err(sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires `&mut self`).
    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn rwlock_read_write() {
        let l = RwLock::new(1);
        assert_eq!(*l.read(), 1);
        *l.write() += 1;
        assert_eq!(*l.read(), 2);
    }

    #[test]
    fn rwlock_survives_poison() {
        let l = Arc::new(RwLock::new(5));
        let l2 = Arc::clone(&l);
        let _ = std::thread::spawn(move || {
            let _g = l2.write();
            panic!("poison the lock");
        })
        .join();
        // parking_lot semantics: still usable after a panicking writer.
        assert_eq!(*l.read(), 5);
        *l.write() = 6;
        assert_eq!(*l.read(), 6);
    }

    #[test]
    fn mutex_lock() {
        let m = Mutex::new(vec![1]);
        m.lock().push(2);
        assert_eq!(*m.lock(), vec![1, 2]);
        assert!(m.try_lock().is_some());
    }
}
