//! Offline stand-in for `parking_lot`: the benchmark's checkout has no
//! registry, so `pqgram-store`'s one external dependency is patched to
//! this file. Only what the store uses exists: a [`Mutex`] whose `lock`
//! returns the guard directly.
//!
//! A poisoned lock is recovered rather than propagated, matching
//! `parking_lot` (which has no poisoning): a store panic already fails the
//! benchmark run, and the data under every store mutex is valid between
//! statements.
#![forbid(unsafe_code)]

use std::sync::PoisonError;

pub use std::sync::MutexGuard;

/// `std::sync::Mutex` behind `parking_lot`'s infallible `lock`.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// A new unlocked mutex.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Consumes the mutex and returns its value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Blocks until the lock is held.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Mutable access without locking (the borrow proves exclusivity).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}
