//! Minimal bounded MPSC channel on `std` primitives (`Mutex` + `Condvar`).
//!
//! The streaming front end needs exactly four behaviours from its queues:
//! blocking send (backpressure), non-blocking send (drop/sample overload
//! policies), blocking receive, and disconnect detection in both
//! directions. This module provides precisely that — no external
//! dependencies, and small enough to audit in one sitting.
//!
//! Senders are cloneable (many producers); the receiver is single-consumer.
//! Dropping every sender ends the stream after the queue drains; dropping
//! the receiver wakes and fails all blocked senders.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

struct State<T> {
    queue: VecDeque<T>,
    capacity: usize,
    senders: usize,
    receiver_alive: bool,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    /// Signalled when the queue gains an item or all senders drop.
    not_empty: Condvar,
    /// Signalled when the queue loses an item or the receiver drops.
    not_full: Condvar,
}

/// Error returned by [`Sender::send`] when the receiver is gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendError;

/// Error returned by [`Sender::try_send`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrySendError {
    /// The queue is at capacity; the value was not enqueued.
    Full,
    /// The receiver is gone; no send can ever succeed again.
    Disconnected,
}

/// Error returned by [`Receiver::recv`] when the stream has ended (all
/// senders dropped and the queue is drained).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

/// The sending half; clone for additional producers.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// The receiving half (single consumer).
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// Creates a bounded channel with the given capacity (must be positive).
pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    assert!(capacity > 0, "channel capacity must be positive");
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::with_capacity(capacity),
            capacity,
            senders: 1,
            receiver_alive: true,
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (Sender { shared: Arc::clone(&shared) }, Receiver { shared })
}

impl<T> Sender<T> {
    /// Blocks until there is room, then enqueues. Fails only if the
    /// receiver is gone.
    pub fn send(&self, value: T) -> Result<(), SendError> {
        let mut state = self.shared.state.lock().expect("channel lock");
        loop {
            if !state.receiver_alive {
                return Err(SendError);
            }
            if state.queue.len() < state.capacity {
                state.queue.push_back(value);
                self.shared.not_empty.notify_one();
                return Ok(());
            }
            state = self.shared.not_full.wait(state).expect("channel lock");
        }
    }

    /// Number of values currently queued (a racy snapshot — by the time
    /// the caller looks, the receiver may have drained some). Used for
    /// queue-depth telemetry, never for flow control.
    pub fn len(&self) -> usize {
        self.shared.state.lock().expect("channel lock").queue.len()
    }

    /// True when nothing is queued right now (same snapshot caveat as
    /// [`Sender::len`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueues without blocking; reports a full queue instead of waiting.
    pub fn try_send(&self, value: T) -> Result<(), TrySendError> {
        let mut state = self.shared.state.lock().expect("channel lock");
        if !state.receiver_alive {
            return Err(TrySendError::Disconnected);
        }
        if state.queue.len() >= state.capacity {
            return Err(TrySendError::Full);
        }
        state.queue.push_back(value);
        self.shared.not_empty.notify_one();
        Ok(())
    }
}

impl<T> std::fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sender").finish_non_exhaustive()
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.state.lock().expect("channel lock").senders += 1;
        Sender { shared: Arc::clone(&self.shared) }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut state = self.shared.state.lock().expect("channel lock");
        state.senders -= 1;
        if state.senders == 0 {
            // Wake a receiver blocked on an empty queue so it can observe
            // the end of the stream.
            self.shared.not_empty.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Blocks for the next value; `Err` means the stream ended (all senders
    /// dropped, queue drained).
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut state = self.shared.state.lock().expect("channel lock");
        loop {
            if let Some(value) = state.queue.pop_front() {
                self.shared.not_full.notify_one();
                return Ok(value);
            }
            if state.senders == 0 {
                return Err(RecvError);
            }
            state = self.shared.not_empty.wait(state).expect("channel lock");
        }
    }

    /// Returns immediately with the next value if one is queued.
    pub fn try_recv(&self) -> Option<T> {
        let mut state = self.shared.state.lock().expect("channel lock");
        let value = state.queue.pop_front();
        if value.is_some() {
            self.shared.not_full.notify_one();
        }
        value
    }

    /// Blocking iterator over the stream; ends when all senders are gone.
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        std::iter::from_fn(move || self.recv().ok())
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut state = self.shared.state.lock().expect("channel lock");
        state.receiver_alive = false;
        // Fail every sender blocked on a full queue.
        drop(state);
        self.shared.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_in_order() {
        let (tx, rx) = bounded(4);
        for i in 0..4 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let got: Vec<i32> = rx.iter().collect();
        assert_eq!(got, vec![0, 1, 2, 3]);
    }

    #[test]
    fn try_send_reports_full() {
        let (tx, _rx) = bounded(1);
        tx.try_send(1).unwrap();
        assert_eq!(tx.try_send(2), Err(TrySendError::Full));
    }

    #[test]
    fn send_blocks_until_room() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let t = std::thread::spawn(move || tx.send(2).is_ok());
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(rx.recv(), Ok(1));
        assert!(t.join().unwrap());
        assert_eq!(rx.recv(), Ok(2));
    }

    #[test]
    fn dropping_receiver_fails_senders() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap(); // fill
        let t = std::thread::spawn(move || tx.send(2)); // blocks
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(rx);
        assert_eq!(t.join().unwrap(), Err(SendError));
    }

    #[test]
    fn dropping_all_senders_ends_stream_after_drain() {
        let (tx, rx) = bounded(8);
        let tx2 = tx.clone();
        tx.send(1).unwrap();
        drop(tx);
        tx2.send(2).unwrap();
        drop(tx2);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn many_producers_one_consumer() {
        let (tx, rx) = bounded(16);
        let threads: Vec<_> = (0..4)
            .map(|p| {
                let tx = tx.clone();
                std::thread::spawn(move || {
                    for i in 0..100 {
                        tx.send(p * 100 + i).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        let mut got: Vec<i32> = rx.iter().collect();
        for t in threads {
            t.join().unwrap();
        }
        got.sort_unstable();
        assert_eq!(got, (0..400).collect::<Vec<i32>>());
    }
}
