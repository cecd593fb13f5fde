//! Bounded admission queue with explicit backpressure.
//!
//! Admission is non-blocking: [`AdmissionQueue::try_push`] either
//! accepts the job or reports `Rejected` with the depth observed at the
//! moment of rejection — the server never stalls a client to make room,
//! it tells the client to back off. Workers block on
//! [`AdmissionQueue::pop`] until a job arrives or the queue is closed
//! *and* empty, so closing for drain lets every already-admitted job
//! finish before the workers exit.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why [`AdmissionQueue::try_push`] refused a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity; carries the depth seen by the rejected
    /// producer.
    Full {
        /// Number of queued jobs at rejection time.
        queue_depth: usize,
    },
    /// The queue is closed (server draining); nothing is admitted.
    Closed,
}

struct QueueState<T> {
    jobs: VecDeque<T>,
    closed: bool,
}

/// A bounded MPMC queue: `Mutex<VecDeque>` + `Condvar`, nothing fancier
/// — admission control wants strict FIFO and an exact depth reading,
/// not throughput heroics.
pub struct AdmissionQueue<T> {
    state: Mutex<QueueState<T>>,
    takers: Condvar,
    capacity: usize,
}

impl<T> AdmissionQueue<T> {
    /// Creates a queue admitting at most `capacity` jobs (clamped ≥ 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        AdmissionQueue {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            takers: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// The admission bound.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current queue depth.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.state.lock().expect("queue poisoned").jobs.len()
    }

    /// Admits a job or rejects it without blocking.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] at capacity, [`PushError::Closed`] during
    /// drain.
    pub fn try_push(&self, job: T) -> Result<(), PushError> {
        let mut state = self.state.lock().expect("queue poisoned");
        if state.closed {
            return Err(PushError::Closed);
        }
        if state.jobs.len() >= self.capacity {
            return Err(PushError::Full {
                queue_depth: state.jobs.len(),
            });
        }
        state.jobs.push_back(job);
        drop(state);
        self.takers.notify_one();
        Ok(())
    }

    /// Blocks until a job is available and returns it, or returns `None`
    /// once the queue is closed **and** drained — the worker-exit signal.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().expect("queue poisoned");
        loop {
            if let Some(job) = state.jobs.pop_front() {
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state = self.takers.wait(state).expect("queue poisoned");
        }
    }

    /// Closes the queue: no further admissions, queued jobs still drain,
    /// blocked workers wake (and exit once the backlog is gone).
    pub fn close(&self) {
        self.state.lock().expect("queue poisoned").closed = true;
        self.takers.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn backpressure_is_explicit_and_depth_accurate() {
        let q = AdmissionQueue::new(2);
        assert_eq!(q.try_push(1), Ok(()));
        assert_eq!(q.try_push(2), Ok(()));
        assert_eq!(q.try_push(3), Err(PushError::Full { queue_depth: 2 }));
        assert_eq!(q.depth(), 2);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.try_push(3), Ok(()));
    }

    #[test]
    fn pop_is_fifo() {
        let q = AdmissionQueue::new(8);
        for i in 0..5 {
            q.try_push(i).unwrap();
        }
        let drained: Vec<i32> = (0..5).map(|_| q.pop().unwrap()).collect();
        assert_eq!(drained, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn close_drains_backlog_then_releases_workers() {
        let q = Arc::new(AdmissionQueue::new(8));
        q.try_push(10).unwrap();
        q.try_push(11).unwrap();
        q.close();
        assert_eq!(q.try_push(12), Err(PushError::Closed));
        // Already-admitted jobs still come out, in order...
        assert_eq!(q.pop(), Some(10));
        assert_eq!(q.pop(), Some(11));
        // ...and only then do poppers see the close.
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn blocked_workers_wake_on_close() {
        let q: Arc<AdmissionQueue<u32>> = Arc::new(AdmissionQueue::new(1));
        let waiter = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        };
        // Give the worker a moment to block, then close.
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(waiter.join().unwrap(), None);
    }
}
