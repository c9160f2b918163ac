//! The store's mutex: `std::sync::Mutex` with poisoning ignored.
//!
//! A panic while a store lock is held already fails whatever the caller
//! was doing, and the data under every store mutex is valid between
//! statements, so a poisoned lock is recovered rather than propagated:
//! `lock` hands out the guard directly.

use std::sync::{MutexGuard, PoisonError};

/// A mutual-exclusion lock whose `lock` cannot fail.
#[derive(Default)]
pub(crate) struct Mutex<T>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// A new unlocked mutex.
    pub(crate) fn new(value: T) -> Mutex<T> {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Blocks until the lock is held.
    pub(crate) fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}
