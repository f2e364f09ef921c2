//! Minimal synchronization shims over `std::sync`.
//!
//! The workspace builds without external crates, so the `parking_lot`-style
//! poison-free lock API the host runtime was written against is provided
//! here as a thin wrapper: `lock()` returns the guard directly (a poisoned
//! mutex just yields the inner guard — the runtime's invariants do not
//! depend on poisoning), and `Condvar::wait` takes `&mut MutexGuard` so
//! wait loops read naturally. A small unbounded MPMC channel replaces
//! `crossbeam::channel` for the hidden-helper-thread pool.

use std::collections::VecDeque;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// Poison-free mutex: `lock()` returns the guard directly.
pub struct Mutex<T> {
    inner: std::sync::Mutex<T>,
}

/// Guard for [`Mutex`]; derefs to the protected value.
pub struct MutexGuard<'a, T> {
    // Option only so Condvar::wait can move the std guard out and back.
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    /// Wrap a value.
    pub fn new(v: T) -> Mutex<T> {
        Mutex { inner: std::sync::Mutex::new(v) }
    }

    /// Acquire the lock, ignoring poisoning.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let g = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        MutexGuard { inner: Some(g) }
    }
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard taken")
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard taken")
    }
}

/// Condition variable paired with [`Mutex`]; `wait` reacquires in place.
#[derive(Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    /// New condition variable.
    pub fn new() -> Condvar {
        Condvar::default()
    }

    /// Atomically release the guard's lock, block, and reacquire.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let g = guard.inner.take().expect("guard taken");
        let g = self.inner.wait(g).unwrap_or_else(std::sync::PoisonError::into_inner);
        guard.inner = Some(g);
    }

    /// Like [`Condvar::wait`], but give up after `timeout`. Returns `true`
    /// if the wait timed out (the lock is reacquired either way) — the
    /// hook watchdog-style callers need to bound waits on a possibly-stuck
    /// dependency without external crates.
    pub fn wait_timeout<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: std::time::Duration,
    ) -> bool {
        let g = guard.inner.take().expect("guard taken");
        let (g, r) =
            self.inner.wait_timeout(g, timeout).unwrap_or_else(std::sync::PoisonError::into_inner);
        guard.inner = Some(g);
        r.timed_out()
    }

    /// Wake every waiting thread.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }

    /// Wake one waiting thread.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }
}

/// Unbounded multi-producer multi-consumer channel, in the shape of
/// `crossbeam::channel` as the task pool uses it.
pub mod mpmc {
    use super::*;

    struct Chan<T> {
        queue: Mutex<VecDeque<T>>,
        cv: Condvar,
        senders: std::sync::atomic::AtomicUsize,
    }

    /// Sending half; cloneable. Receivers unblock when all senders drop.
    pub struct Sender<T> {
        chan: Arc<Chan<T>>,
    }

    /// Receiving half; cloneable (competing consumers).
    pub struct Receiver<T> {
        chan: Arc<Chan<T>>,
    }

    /// Error returned by [`Sender::send`] when every receiver is gone.
    pub struct SendError<T>(pub T);

    impl<T> std::fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    /// Create an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let chan = Arc::new(Chan {
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            senders: std::sync::atomic::AtomicUsize::new(1),
        });
        (Sender { chan: Arc::clone(&chan) }, Receiver { chan })
    }

    impl<T> Sender<T> {
        /// Enqueue a value.
        pub fn send(&self, v: T) -> Result<(), SendError<T>> {
            self.chan.queue.lock().push_back(v);
            self.chan.cv.notify_one();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.chan.senders.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            Sender { chan: Arc::clone(&self.chan) }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.chan.senders.fetch_sub(1, std::sync::atomic::Ordering::SeqCst) == 1 {
                // Last sender: wake all receivers so blocked `recv`s end.
                // Notify under the queue lock: a receiver that saw a live
                // sender holds it until it is parked in `wait`, so the
                // wakeup cannot slip in between its check and its wait.
                let _q = self.chan.queue.lock();
                self.chan.cv.notify_all();
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            Receiver { chan: Arc::clone(&self.chan) }
        }
    }

    impl<T> Receiver<T> {
        /// Block until a value arrives; `None` once the channel is empty
        /// and every sender has dropped.
        pub fn recv(&self) -> Option<T> {
            let mut q = self.chan.queue.lock();
            loop {
                if let Some(v) = q.pop_front() {
                    return Some(v);
                }
                if self.chan.senders.load(std::sync::atomic::Ordering::SeqCst) == 0 {
                    return None;
                }
                self.chan.cv.wait(&mut q);
            }
        }

        /// Blocking iterator over received values (ends on disconnect).
        pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
            std::iter::from_fn(move || self.recv())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn mutex_locks_and_mutates() {
        let m = Mutex::new(1);
        *m.lock() += 41;
        assert_eq!(*m.lock(), 42);
    }

    #[test]
    fn condvar_wait_notifies() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let h = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            *m.lock() = true;
            cv.notify_all();
        });
        let (m, cv) = &*pair;
        let mut done = m.lock();
        while !*done {
            cv.wait(&mut done);
        }
        drop(done);
        h.join().unwrap();
    }

    #[test]
    fn condvar_wait_timeout_reports_expiry() {
        let m = Mutex::new(0u32);
        let cv = Condvar::new();
        let mut g = m.lock();
        // Nobody notifies: the wait must expire and reacquire the lock.
        assert!(cv.wait_timeout(&mut g, std::time::Duration::from_millis(10)));
        *g += 1;
        drop(g);
        assert_eq!(*m.lock(), 1);
    }

    #[test]
    fn mpmc_fan_in_fan_out() {
        let (tx, rx) = mpmc::unbounded::<usize>();
        let total = Arc::new(AtomicUsize::new(0));
        let workers: Vec<_> = (0..3)
            .map(|_| {
                let rx = rx.clone();
                let total = Arc::clone(&total);
                std::thread::spawn(move || {
                    for v in rx.iter() {
                        total.fetch_add(v, Ordering::SeqCst);
                    }
                })
            })
            .collect();
        for v in 0..100 {
            tx.send(v).unwrap();
        }
        drop(tx);
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(total.load(Ordering::SeqCst), (0..100).sum());
    }
}
