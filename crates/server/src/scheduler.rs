//! The global worker budget: one counting semaphore shared by every
//! connection.
//!
//! A single in-process `run()` may grab the machine because it is the
//! only tenant. A daemon serving N clients must not let N requests each
//! make that assumption — that would oversubscribe the machine N-fold.
//! Here every request must [`WorkerBudget::acquire`] its
//! [`pte_verify::api::VerificationRequest::worker_cost`] before it
//! runs, and runs via `run_with_artifacts(.., Some(granted), ..)` so
//! the search's actual thread fan-out matches its reservation.
//!
//! Admission is strict FIFO: a wide request (e.g. an `Auto` zone search
//! wanting the whole machine) at the head of the queue blocks later
//! narrow ones rather than being starved by a stream of them. Fairness over
//! packing — a verification daemon's worst failure mode is a big proof
//! that never gets scheduled.
//!
//! Built on `std::sync::{Mutex, Condvar}` (the vendored `parking_lot`
//! stand-in has no condvar) with a 10 ms wait timeout so a queued
//! request notices its [`CancelToken`] firing without a wakeup.

use pte_verify::CancelToken;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Snapshot of the scheduler's counters (feeds
/// [`crate::protocol::DaemonStats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BudgetStats {
    /// Total slots.
    pub total: usize,
    /// Slots currently held.
    pub in_use: usize,
    /// High-water mark of `in_use` — never exceeds `total` by
    /// construction (the admission invariant the integration tests
    /// assert).
    pub peak_in_use: usize,
    /// Requests waiting in the admission queue.
    pub queued: usize,
    /// Requests admitted since construction.
    pub admitted: u64,
}

struct State {
    in_use: usize,
    peak_in_use: usize,
    admitted: u64,
    /// FIFO admission queue of ticket ids; only the head may admit.
    queue: VecDeque<u64>,
    next_ticket: u64,
}

struct Inner {
    total: usize,
    state: Mutex<State>,
    cv: Condvar,
}

/// The shared worker-slot semaphore. Clone-cheap (`Arc` inside).
#[derive(Clone)]
pub struct WorkerBudget {
    inner: Arc<Inner>,
}

impl WorkerBudget {
    /// A budget of `total` slots (clamped to ≥ 1).
    pub fn new(total: usize) -> WorkerBudget {
        WorkerBudget {
            inner: Arc::new(Inner {
                total: total.max(1),
                state: Mutex::new(State {
                    in_use: 0,
                    peak_in_use: 0,
                    admitted: 0,
                    queue: VecDeque::new(),
                    next_ticket: 0,
                }),
                cv: Condvar::new(),
            }),
        }
    }

    /// Total slots.
    pub fn total(&self) -> usize {
        self.inner.total
    }

    /// Blocks until `want` slots (clamped to `[1, total]` — a request
    /// wider than the machine is admitted at full width rather than
    /// deadlocking) are granted, or `cancel` fires while waiting.
    /// Returns the permit, or `None` on cancellation; the permit
    /// releases its slots on drop.
    pub fn acquire(&self, want: usize, cancel: &CancelToken) -> Option<WorkerPermit> {
        let want = want.clamp(1, self.inner.total);
        let mut st = self.inner.state.lock().unwrap();
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        st.queue.push_back(ticket);
        loop {
            let at_head = st.queue.front() == Some(&ticket);
            if at_head && st.in_use + want <= self.inner.total {
                st.queue.pop_front();
                st.in_use += want;
                st.peak_in_use = st.peak_in_use.max(st.in_use);
                st.admitted += 1;
                // A wide grant may still leave room for the new head.
                self.inner.cv.notify_all();
                return Some(WorkerPermit {
                    budget: self.clone(),
                    slots: want,
                });
            }
            if cancel.is_cancelled() {
                st.queue.retain(|&t| t != ticket);
                self.inner.cv.notify_all();
                return None;
            }
            let (guard, _) = self
                .inner
                .cv
                .wait_timeout(st, Duration::from_millis(10))
                .unwrap();
            st = guard;
        }
    }

    /// Current counters.
    pub fn stats(&self) -> BudgetStats {
        let st = self.inner.state.lock().unwrap();
        BudgetStats {
            total: self.inner.total,
            in_use: st.in_use,
            peak_in_use: st.peak_in_use,
            queued: st.queue.len(),
            admitted: st.admitted,
        }
    }

    fn release(&self, slots: usize) {
        let mut st = self.inner.state.lock().unwrap();
        st.in_use = st.in_use.saturating_sub(slots);
        self.inner.cv.notify_all();
    }
}

/// A granted reservation; dropping it returns the slots to the budget.
pub struct WorkerPermit {
    budget: WorkerBudget,
    slots: usize,
}

impl WorkerPermit {
    /// How many slots this permit holds — the `slots` value to pass to
    /// `run_with_artifacts`.
    pub fn slots(&self) -> usize {
        self.slots
    }
}

impl Drop for WorkerPermit {
    fn drop(&mut self) {
        self.budget.release(self.slots);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread;

    #[test]
    fn grants_clamp_to_the_budget() {
        let b = WorkerBudget::new(3);
        let p = b.acquire(64, &CancelToken::new()).unwrap();
        assert_eq!(p.slots(), 3);
        assert_eq!(b.stats().in_use, 3);
        drop(p);
        assert_eq!(b.stats().in_use, 0);
        assert_eq!(b.stats().peak_in_use, 3);
        assert_eq!(b.stats().admitted, 1);
    }

    #[test]
    fn concurrent_holders_never_exceed_the_budget() {
        let b = WorkerBudget::new(4);
        let peak_seen = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..16)
            .map(|i| {
                let b = b.clone();
                let peak = Arc::clone(&peak_seen);
                thread::spawn(move || {
                    let want = 1 + (i % 4);
                    let p = b.acquire(want, &CancelToken::new()).unwrap();
                    let now = b.stats().in_use;
                    peak.fetch_max(now, Ordering::SeqCst);
                    assert!(now <= 4, "budget exceeded: {now}");
                    thread::sleep(Duration::from_millis(2));
                    drop(p);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let s = b.stats();
        assert_eq!(s.in_use, 0);
        assert_eq!(s.queued, 0);
        assert_eq!(s.admitted, 16);
        assert!(s.peak_in_use <= 4, "peak {} > budget", s.peak_in_use);
        assert!(peak_seen.load(Ordering::SeqCst) <= 4);
    }

    #[test]
    fn queued_acquire_honours_cancellation() {
        let b = WorkerBudget::new(1);
        let held = b.acquire(1, &CancelToken::new()).unwrap();
        let cancel = CancelToken::new();
        let waiter = {
            let b = b.clone();
            let cancel = cancel.clone();
            thread::spawn(move || b.acquire(1, &cancel))
        };
        // Let the waiter enqueue, then cancel it while it waits.
        thread::sleep(Duration::from_millis(30));
        assert_eq!(b.stats().queued, 1);
        cancel.cancel();
        assert!(waiter.join().unwrap().is_none());
        assert_eq!(b.stats().queued, 0);
        drop(held);
    }

    #[test]
    fn admission_is_fifo_a_wide_request_is_not_starved() {
        let b = WorkerBudget::new(2);
        let first = b.acquire(1, &CancelToken::new()).unwrap();
        // A wide request queues behind the running narrow one...
        let wide = {
            let b = b.clone();
            thread::spawn(move || {
                let p = b.acquire(2, &CancelToken::new()).unwrap();
                thread::sleep(Duration::from_millis(10));
                drop(p);
            })
        };
        thread::sleep(Duration::from_millis(20));
        // ...and a later narrow request must not jump it, even though a
        // slot is free right now.
        let narrow = {
            let b = b.clone();
            thread::spawn(move || {
                let p = b.acquire(1, &CancelToken::new()).unwrap();
                drop(p);
            })
        };
        thread::sleep(Duration::from_millis(20));
        assert_eq!(b.stats().queued, 2, "narrow must queue behind wide");
        drop(first);
        wide.join().unwrap();
        narrow.join().unwrap();
        assert!(b.stats().peak_in_use <= 2);
    }
}
