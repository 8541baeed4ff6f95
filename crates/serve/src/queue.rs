//! A bounded MPMC job queue with explicit backpressure.
//!
//! The daemon's admission control: producers (connection handlers)
//! **never block** — [`JobQueue::try_push`] either enqueues or returns
//! [`PushError::Full`] immediately, which the protocol layer turns into
//! a `retry_after_ms` rejection. Consumers (workers) block in
//! [`JobQueue::pop`] until a job arrives or the queue is closed.
//!
//! [`JobQueue::close`] is the graceful-drain half: it stops admission
//! (further pushes fail with [`PushError::Closed`]) but queued jobs are
//! still handed out; `pop` returns `None` only once the queue is both
//! closed *and* empty, so every accepted job gets a reply before the
//! workers exit.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// At capacity: the caller should retry after backing off — the
    /// wire-level `retry_after_ms` rejection.
    Full,
    /// Draining for shutdown: no retry will succeed.
    Closed,
}

struct State<T> {
    jobs: VecDeque<T>,
    closed: bool,
}

/// Fixed-capacity multi-producer multi-consumer queue. Capacity `0` is
/// legal and means "reject every job" — useful for deterministically
/// exercising the backpressure path.
pub struct JobQueue<T> {
    capacity: usize,
    state: Mutex<State<T>>,
    ready: Condvar,
}

impl<T> JobQueue<T> {
    /// A queue admitting at most `capacity` pending jobs.
    pub fn new(capacity: usize) -> JobQueue<T> {
        JobQueue {
            capacity,
            state: Mutex::new(State {
                jobs: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// The admission bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Jobs currently pending.
    pub fn depth(&self) -> usize {
        self.state.lock().expect("queue lock").jobs.len()
    }

    /// Enqueues without blocking, or says why not.
    pub fn try_push(&self, job: T) -> Result<(), PushError> {
        let mut state = self.state.lock().expect("queue lock");
        if state.closed {
            return Err(PushError::Closed);
        }
        if state.jobs.len() >= self.capacity {
            return Err(PushError::Full);
        }
        state.jobs.push_back(job);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks until a job is available (FIFO) or the queue is closed
    /// *and* drained, which returns `None` — the worker's exit signal.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().expect("queue lock");
        loop {
            if let Some(job) = state.jobs.pop_front() {
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state).expect("queue lock");
        }
    }

    /// Stops admission; already-queued jobs still drain. Idempotent.
    pub fn close(&self) {
        self.state.lock().expect("queue lock").closed = true;
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn backpressure_is_immediate_and_fifo_preserved() {
        let q = JobQueue::new(2);
        assert_eq!(q.try_push(1), Ok(()));
        assert_eq!(q.try_push(2), Ok(()));
        assert_eq!(q.try_push(3), Err(PushError::Full));
        assert_eq!(q.depth(), 2);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.try_push(3), Ok(()));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
    }

    #[test]
    fn zero_capacity_rejects_everything() {
        let q = JobQueue::new(0);
        assert_eq!(q.try_push(1), Err(PushError::Full));
    }

    #[test]
    fn close_drains_then_wakes_blocked_consumers() {
        let q = JobQueue::new(4);
        q.try_push(10).unwrap();
        q.try_push(11).unwrap();
        q.close();
        assert_eq!(q.try_push(12), Err(PushError::Closed));
        // Queued jobs survive the close...
        assert_eq!(q.pop(), Some(10));
        assert_eq!(q.pop(), Some(11));
        // ...and only then do consumers see the end.
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn concurrent_producers_and_consumers_hand_off_every_job() {
        let q = JobQueue::new(8);
        let consumed = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    while q.pop().is_some() {
                        consumed.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            s.spawn(|| {
                let mut sent = 0u32;
                while sent < 100 {
                    if q.try_push(sent).is_ok() {
                        sent += 1;
                    } else {
                        std::thread::yield_now();
                    }
                }
                q.close();
            });
        });
        assert_eq!(consumed.load(Ordering::Relaxed), 100);
    }
}
