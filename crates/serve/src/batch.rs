//! The request queue and cross-client structure batcher.
//!
//! Concurrently pending [`Request::Eval`](crate::codec::Request) calls
//! are grouped by [`StructureKey`] — across clients and across
//! calibration days — so each group rides one
//! `evaluate_probes_over_days` pass through the shared program cache,
//! which runs every probe under its own day: the serving-path payoff of
//! the structure-of-arrays panel design. Grouping is *by construction*: a
//! batch is assembled only from queue entries whose structure key equals
//! the head entry's, looking ahead through the whole queue, so a batch
//! can never mix structures (asserted again by the interleaving
//! proptests).
//!
//! Ordering contract: batches preserve queue order within a structure,
//! and results are bit-identical to evaluating each request alone (the
//! engine's per-probe seeding contract), so *which* requests get batched
//! together is pure scheduling — invisible in the responses.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use transpile::template::StructureKey;

/// One admitted evaluation waiting for a worker.
#[derive(Debug)]
pub struct PendingEval<T> {
    /// Echoed on the response.
    pub request_id: u64,
    /// Tenant id (cross-client batch accounting).
    pub client_id: u64,
    /// Calibration day index.
    pub day: u32,
    /// Shot-noise stream id.
    pub stream: u64,
    /// Input features.
    pub features: Vec<f64>,
    /// Model weights.
    pub weights: Vec<f64>,
    /// Parameter-structure key of the fully bound circuit: requests
    /// batch together iff their keys are equal.
    pub key: StructureKey,
    /// Caller context carried through the queue (the TCP server threads
    /// a response writer; in-process harnesses thread an index).
    pub ctx: T,
}

struct QueueState<T> {
    queue: VecDeque<PendingEval<T>>,
    closed: bool,
}

/// Bounded MPMC queue of pending evaluations with structure-grouped
/// batch removal.
pub struct BatchQueue<T> {
    state: Mutex<QueueState<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    max_batch: usize,
}

impl<T> BatchQueue<T> {
    /// A queue admitting at most `capacity` pending evaluations and
    /// forming batches of at most `max_batch`.
    ///
    /// # Panics
    ///
    /// Panics if either bound is zero.
    pub fn new(capacity: usize, max_batch: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        assert!(max_batch > 0, "max batch size must be positive");
        BatchQueue {
            state: Mutex::new(QueueState {
                queue: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
            max_batch,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QueueState<T>> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Admits one evaluation, blocking while the queue is full. Returns
    /// the evaluation back as `Err` if the queue has been closed (the
    /// caller owes the client an error response).
    pub fn push(&self, pending: PendingEval<T>) -> Result<(), PendingEval<T>> {
        let mut state = self.lock();
        while state.queue.len() >= self.capacity && !state.closed {
            state = self
                .not_full
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        if state.closed {
            return Err(pending);
        }
        state.queue.push_back(pending);
        drop(state);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Removes the next batch: the head entry plus every other pending
    /// entry sharing its [`StructureKey`], on any day, in queue order, up
    /// to the batch cap. Blocks while the queue is empty; returns `None`
    /// once the queue is closed **and** drained (workers exit on `None`).
    pub fn next_batch(&self) -> Option<Vec<PendingEval<T>>> {
        let mut state = self.lock();
        while state.queue.is_empty() && !state.closed {
            state = self
                .not_empty
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        let first = state.queue.pop_front()?;
        let mut batch = Vec::with_capacity(self.max_batch.min(state.queue.len() + 1));
        let mut rest = VecDeque::with_capacity(state.queue.len());
        batch.push(first);
        while let Some(p) = state.queue.pop_front() {
            if batch.len() < self.max_batch && p.key == batch[0].key {
                batch.push(p);
            } else {
                rest.push_back(p);
            }
        }
        state.queue = rest;
        drop(state);
        self.not_full.notify_all();
        Some(batch)
    }

    /// Closes the queue: pending entries still drain through
    /// [`Self::next_batch`], new pushes are refused, and every blocked
    /// thread wakes.
    pub fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Number of evaluations currently pending.
    pub fn len(&self) -> usize {
        self.lock().queue.len()
    }

    /// Whether no evaluations are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(tag: u8) -> StructureKey {
        // Real structure keys from a 2-parameter circuit: `tag`'s low
        // bits pick which rotations sit on the identity class, so
        // distinct tags (0..4) give distinct keys. The queue only ever
        // compares them for equality.
        use transpile::circuit::{Circuit, Param};
        use transpile::expand::ANGLE_TOL;
        use transpile::template::structure_key;
        let mut c = Circuit::new(1);
        c.rx(0, Param::Idx(0)).ry(0, Param::Idx(1));
        let theta = [
            if tag & 1 == 0 { 0.0 } else { 0.9 },
            if tag & 2 == 0 { 0.0 } else { 0.9 },
        ];
        structure_key(&c, &theta, ANGLE_TOL)
    }

    fn pending(id: u64, day: u32, key: StructureKey) -> PendingEval<()> {
        PendingEval {
            request_id: id,
            client_id: id % 3,
            day,
            stream: id,
            features: vec![],
            weights: vec![],
            key,
            ctx: (),
        }
    }

    #[test]
    fn batches_group_by_key_in_arrival_order() {
        let q: BatchQueue<()> = BatchQueue::new(16, 8);
        for (id, day, k) in [
            (0, 0, key(1)),
            (1, 0, key(2)),
            (2, 0, key(1)),
            (3, 1, key(1)), // same structure, another day: same batch
            (4, 0, key(2)),
            (5, 1, key(3)),
        ] {
            q.push(pending(id, day, k)).expect("open");
        }
        let ids = |b: &[PendingEval<()>]| b.iter().map(|p| p.request_id).collect::<Vec<_>>();
        let b1 = q.next_batch().expect("batch");
        assert_eq!(ids(&b1), vec![0, 2, 3]);
        let b2 = q.next_batch().expect("batch");
        assert_eq!(ids(&b2), vec![1, 4]);
        let b3 = q.next_batch().expect("batch");
        assert_eq!(ids(&b3), vec![5]);
        assert!(q.is_empty());
    }

    #[test]
    fn max_batch_caps_group_size() {
        let q: BatchQueue<()> = BatchQueue::new(16, 2);
        for id in 0..5 {
            q.push(pending(id, id as u32 % 2, key(1))).expect("open");
        }
        assert_eq!(q.next_batch().expect("batch").len(), 2);
        assert_eq!(q.next_batch().expect("batch").len(), 2);
        assert_eq!(q.next_batch().expect("batch").len(), 1);
    }

    #[test]
    fn closed_queue_drains_then_ends() {
        let q: BatchQueue<()> = BatchQueue::new(4, 4);
        q.push(pending(1, 0, key(1))).expect("open");
        q.close();
        assert!(q.push(pending(2, 0, key(1))).is_err(), "closed refuses");
        assert_eq!(q.next_batch().expect("drain").len(), 1);
        assert!(q.next_batch().is_none(), "drained + closed ends workers");
    }

    #[test]
    fn full_queue_blocks_until_a_batch_is_taken() {
        use std::sync::Arc;
        let q: Arc<BatchQueue<()>> = Arc::new(BatchQueue::new(1, 4));
        q.push(pending(1, 0, key(1))).expect("open");
        let q2 = Arc::clone(&q);
        let pusher = std::thread::spawn(move || q2.push(pending(2, 0, key(2))).is_ok());
        // The queue is at capacity; the push above parks until this drain.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(q.next_batch().expect("batch")[0].request_id, 1);
        assert!(pusher.join().expect("join"), "parked push completed");
        assert_eq!(q.next_batch().expect("batch")[0].request_id, 2);
    }
}
