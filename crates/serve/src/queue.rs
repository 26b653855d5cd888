//! Bounded admission queue with explicit shedding.
//!
//! The server's accept loop pushes accepted connections here and the
//! worker pool pops them. The queue never blocks the producer: a full
//! queue rejects the push and hands the item back so the accept loop can
//! shed it with `429 Retry-After` instead of letting an unbounded backlog
//! turn overload into latency collapse. An item an idle consumer is
//! already waiting for does not count against the capacity: with one
//! idle worker and one slot, two back-to-back pushes both succeed even if
//! the worker has not yet woken to take the first.
//! [`BoundedQueue::close`] flips the drain mode used during graceful
//! shutdown: pushes are refused, pops continue until the backlog is
//! empty, then return `None` so workers exit — in-flight work is
//! finished, never abandoned.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Outcome of a non-blocking push.
#[derive(Debug, PartialEq, Eq)]
pub enum PushOutcome<T> {
    /// The item is queued.
    Queued,
    /// The queue is at capacity; the item is handed back for shedding.
    Full(T),
    /// The queue is draining for shutdown; the item is handed back.
    Closed(T),
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
    /// Consumers blocked in [`BoundedQueue::pop`]; each will take one
    /// item, so that many items are handed off rather than waiting.
    idle: usize,
}

/// A fixed-capacity MPMC queue: non-blocking producers, blocking consumers.
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    capacity: usize,
    ready: Condvar,
}

impl<T> BoundedQueue<T> {
    /// A queue admitting at most `capacity` waiting items beyond those
    /// handed to idle consumers.
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::with_capacity(capacity),
                closed: false,
                idle: 0,
            }),
            capacity,
            ready: Condvar::new(),
        }
    }

    /// Try to enqueue without blocking; a full or closed queue hands the
    /// item back.
    pub fn try_push(&self, item: T) -> PushOutcome<T> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        if inner.closed {
            return PushOutcome::Closed(item);
        }
        if inner.items.len() >= self.capacity + inner.idle {
            return PushOutcome::Full(item);
        }
        inner.items.push_back(item);
        drop(inner);
        self.ready.notify_one();
        PushOutcome::Queued
    }

    /// Block until an item is available; `None` once the queue is closed
    /// *and* fully drained.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner.idle += 1;
            inner = self.ready.wait(inner).expect("queue poisoned");
            inner.idle -= 1;
        }
    }

    /// Stop admitting new items; consumers drain the backlog then stop.
    pub fn close(&self) {
        self.inner.lock().expect("queue poisoned").closed = true;
        self.ready.notify_all();
    }

    /// Items currently waiting.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("queue poisoned").items.len()
    }

    /// `true` when nothing is waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn full_queue_hands_the_item_back() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.try_push(1), PushOutcome::Queued);
        assert_eq!(q.try_push(2), PushOutcome::Queued);
        assert_eq!(q.try_push(3), PushOutcome::Full(3));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.try_push(3), PushOutcome::Queued);
    }

    #[test]
    fn an_idle_consumer_takes_a_push_beyond_the_capacity() {
        let q = Arc::new(BoundedQueue::new(1));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        };
        while q.inner.lock().unwrap().idle == 0 {
            std::thread::yield_now();
        }
        // Whether or not the consumer has woken for the first item yet,
        // it and the one slot take two items and no more.
        assert_eq!(q.try_push(1), PushOutcome::Queued);
        assert_eq!(q.try_push(2), PushOutcome::Queued);
        assert_eq!(q.try_push(3), PushOutcome::Full(3));
        assert_eq!(consumer.join().unwrap(), Some(1));
        assert_eq!(q.pop(), Some(2));
    }

    #[test]
    fn close_drains_then_stops_consumers() {
        let q = Arc::new(BoundedQueue::new(8));
        assert_eq!(q.try_push(10), PushOutcome::Queued);
        assert_eq!(q.try_push(11), PushOutcome::Queued);
        q.close();
        assert_eq!(q.try_push(12), PushOutcome::Closed(12));
        assert_eq!(q.pop(), Some(10));
        assert_eq!(q.pop(), Some(11));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn close_wakes_blocked_consumers() {
        let q = Arc::new(BoundedQueue::<u32>::new(1));
        let waiter = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        };
        // Give the consumer a moment to block, then close.
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(waiter.join().unwrap(), None);
    }
}
