//! The bounded micro-batching request queue.
//!
//! One `Mutex<State>` + two condvars implement the whole scheduling
//! policy:
//!
//! * **Backpressure** — the queue holds at most `capacity` requests;
//!   [`MicroBatchQueue::push`] blocks (and
//!   [`MicroBatchQueue::try_push`] fails fast) while it is full, so a
//!   producer can never outrun the workers unboundedly.
//! * **Dynamic micro-batching** — a worker's
//!   [`MicroBatchQueue::pop_batch`] takes whatever is queued up to
//!   `max_batch`; if the batch is short it waits up to `max_wait` for
//!   stragglers before running what it has. Under load batches fill
//!   instantly (no added latency); when idle a lone request waits at
//!   most `max_wait`.
//! * **Whole lane blocks** — a batch of more than [`LANE_WIDTH`]
//!   requests runs the native kernel's two-stripe lane block, whose
//!   cost does not depend on how many of its sixteen lanes are real. So
//!   once a collecting batch passes `LANE_WIDTH`, its window slides:
//!   it stays open while stragglers keep arriving, each within
//!   `max_wait` of the last, up to `max_batch`. A closed loop of
//!   sixteen clients then refills a whole block instead of splitting
//!   across two dispatches, where the left-out requests would wait out
//!   a whole dispatch in the queue. Traffic that never queues more
//!   than `LANE_WIDTH` requests sees the fixed window unchanged.
//! * **Graceful shutdown** — [`MicroBatchQueue::close`] stops new
//!   arrivals but lets workers drain every queued request;
//!   `pop_batch` returns `None` only once the queue is closed *and*
//!   empty.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use eie_core::compress::LANE_WIDTH;

/// A queue entry: generic over the request payload so the queue logic
/// stays independently testable.
#[derive(Debug)]
pub(crate) struct MicroBatchQueue<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

#[derive(Debug)]
struct State<T> {
    queue: VecDeque<T>,
    closed: bool,
}

/// Why a push was refused.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum PushError {
    /// The queue is at capacity (only [`MicroBatchQueue::try_push`]
    /// reports this; `push` waits instead).
    Full,
    /// The queue was closed; no new work is accepted.
    Closed,
}

impl<T> MicroBatchQueue<T> {
    /// Creates a queue bounded at `capacity` requests.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be non-zero");
        Self {
            state: Mutex::new(State {
                queue: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
        }
    }

    /// Number of queued (not yet claimed) requests.
    pub fn len(&self) -> usize {
        self.state.lock().expect("queue poisoned").queue.len()
    }

    /// Enqueues a request, blocking while the queue is full
    /// (backpressure). Fails only once the queue is closed.
    pub fn push(&self, item: T) -> Result<(), PushError> {
        let mut state = self.state.lock().expect("queue poisoned");
        while state.queue.len() >= self.capacity && !state.closed {
            state = self.not_full.wait(state).expect("queue poisoned");
        }
        if state.closed {
            return Err(PushError::Closed);
        }
        state.queue.push_back(item);
        drop(state);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Enqueues a request without blocking: fails fast with
    /// [`PushError::Full`] when the queue is at capacity — the
    /// shed-load path of an overloaded server.
    pub fn try_push(&self, item: T) -> Result<(), PushError> {
        let mut state = self.state.lock().expect("queue poisoned");
        if state.closed {
            return Err(PushError::Closed);
        }
        if state.queue.len() >= self.capacity {
            return Err(PushError::Full);
        }
        state.queue.push_back(item);
        drop(state);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Claims the next micro-batch: blocks until at least one request is
    /// queued, then coalesces up to `max_batch` requests, waiting at
    /// most `max_wait` for a short batch to fill — measured from the
    /// latest arrival once more than [`LANE_WIDTH`] are in (see the
    /// module docs). Returns `None` once the queue is closed and fully
    /// drained — the worker's exit signal.
    pub fn pop_batch(&self, max_batch: usize, max_wait: Duration) -> Option<Vec<T>> {
        debug_assert!(max_batch > 0);
        let mut state = self.state.lock().expect("queue poisoned");
        // Phase 1: wait for work (or a drained shutdown).
        loop {
            if !state.queue.is_empty() {
                break;
            }
            if state.closed {
                return None;
            }
            state = self.not_empty.wait(state).expect("queue poisoned");
        }
        // Phase 2: coalesce. A full batch, a closed queue, or an elapsed
        // wait each end the collection window. Past `LANE_WIDTH` items
        // the window slides: every arrival extends it to `max_wait`
        // after itself.
        if state.queue.len() < max_batch && !state.closed && !max_wait.is_zero() {
            let mut deadline = Instant::now() + max_wait;
            let mut seen = state.queue.len();
            while state.queue.len() < max_batch && !state.closed {
                let now = Instant::now();
                if state.queue.len() > seen.max(LANE_WIDTH) {
                    deadline = deadline.max(now + max_wait);
                }
                seen = state.queue.len();
                let Some(remaining) = deadline
                    .checked_duration_since(now)
                    .filter(|d| !d.is_zero())
                else {
                    break;
                };
                state = self
                    .not_empty
                    .wait_timeout(state, remaining)
                    .expect("queue poisoned")
                    .0;
            }
        }
        let take = state.queue.len().min(max_batch);
        let batch: Vec<T> = state.queue.drain(..take).collect();
        drop(state);
        self.not_full.notify_all();
        // Another worker may still have work to claim.
        self.not_empty.notify_one();
        Some(batch)
    }

    /// Closes the queue: concurrent and future pushes fail, blocked
    /// pushers wake, and workers drain the remainder then exit.
    pub fn close(&self) {
        self.state.lock().expect("queue poisoned").closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NO_WAIT: Duration = Duration::ZERO;

    #[test]
    fn coalesces_up_to_max_batch_in_fifo_order() {
        let q = MicroBatchQueue::new(8);
        for i in 0..5 {
            q.push(i).unwrap();
        }
        assert_eq!(q.len(), 5);
        assert_eq!(q.pop_batch(3, NO_WAIT), Some(vec![0, 1, 2]));
        assert_eq!(q.pop_batch(3, NO_WAIT), Some(vec![3, 4]));
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn try_push_sheds_load_at_capacity() {
        let q = MicroBatchQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.try_push(3), Err(PushError::Full));
        // Draining one slot reopens the queue.
        assert_eq!(q.pop_batch(1, NO_WAIT), Some(vec![1]));
        q.try_push(3).unwrap();
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn close_drains_then_signals_exit() {
        let q = MicroBatchQueue::new(4);
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.close();
        assert_eq!(q.push(3), Err(PushError::Closed));
        assert_eq!(q.try_push(3), Err(PushError::Closed));
        // Workers still drain queued work after close…
        assert_eq!(q.pop_batch(8, Duration::from_secs(1)), Some(vec![1, 2]));
        // …and only then see the exit signal (no 1 s wait: closed queues
        // never linger in the coalescing window).
        let start = Instant::now();
        assert_eq!(q.pop_batch(8, Duration::from_secs(1)), None);
        assert!(start.elapsed() < Duration::from_millis(500));
    }

    #[test]
    fn short_batch_waits_for_stragglers() {
        let q = std::sync::Arc::new(MicroBatchQueue::new(8));
        q.push(1).unwrap();
        let producer = {
            let q = q.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(5));
                q.push(2).unwrap();
            })
        };
        // The coalescing window is generous enough to catch the
        // straggler pushed 5 ms in.
        let batch = q.pop_batch(2, Duration::from_secs(2)).unwrap();
        producer.join().unwrap();
        assert_eq!(batch, vec![1, 2]);
    }

    /// Pushes `items` one every `gap`, from another thread.
    fn trickle(
        q: &std::sync::Arc<MicroBatchQueue<usize>>,
        items: std::ops::Range<usize>,
        gap: Duration,
    ) -> std::thread::JoinHandle<()> {
        let q = q.clone();
        std::thread::spawn(move || {
            for i in items {
                std::thread::sleep(gap);
                q.push(i).unwrap();
            }
        })
    }

    #[test]
    fn window_slides_only_past_one_lane_stripe() {
        let (window, gap) = (Duration::from_millis(150), Duration::from_millis(60));
        // Nine queued, then one every 60 ms: each arrival past
        // LANE_WIDTH re-opens the 150 ms window, so the batch fills to
        // 2 × LANE_WIDTH over ≈ 420 ms instead of leaving at 150.
        let q = std::sync::Arc::new(MicroBatchQueue::new(64));
        for i in 0..=LANE_WIDTH {
            q.push(i).unwrap();
        }
        let producer = trickle(&q, LANE_WIDTH + 1..2 * LANE_WIDTH, gap);
        let started = Instant::now();
        let batch = q.pop_batch(2 * LANE_WIDTH, window).unwrap();
        producer.join().unwrap();
        assert_eq!(batch, (0..2 * LANE_WIDTH).collect::<Vec<_>>());
        assert!(started.elapsed() > window * 2);
        // One queued and the same trickle behind it: the window stays
        // fixed below LANE_WIDTH, so the batch leaves after 150 ms with
        // the few that made it.
        let q = std::sync::Arc::new(MicroBatchQueue::new(64));
        q.push(0).unwrap();
        let producer = trickle(&q, 1..LANE_WIDTH, gap);
        let batch = q.pop_batch(2 * LANE_WIDTH, window).unwrap();
        producer.join().unwrap();
        assert!(batch.len() < LANE_WIDTH, "{batch:?}");
    }

    #[test]
    fn blocked_push_wakes_when_space_frees() {
        let q = std::sync::Arc::new(MicroBatchQueue::new(1));
        q.push(1).unwrap();
        let pusher = {
            let q = q.clone();
            std::thread::spawn(move || q.push(2))
        };
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(q.pop_batch(1, NO_WAIT), Some(vec![1]));
        pusher.join().unwrap().unwrap();
        assert_eq!(q.pop_batch(1, NO_WAIT), Some(vec![2]));
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn rejects_zero_capacity() {
        let _ = MicroBatchQueue::<u32>::new(0);
    }
}
