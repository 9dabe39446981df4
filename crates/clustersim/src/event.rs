//! The global event queue of the discrete-event core.
//!
//! A min-heap over `(time, key, seq)`: `time` is the virtual clock stamp,
//! `key` is the tie-break rank among simultaneous events, and `seq` is the
//! insertion counter that makes the order total even when both collide.
//! The tie-break policy is pluggable:
//!
//! * [`TieBreak::Fifo`] (the default) drains simultaneous events in
//!   insertion order — exactly what the legacy step loop in `sim.rs` did
//!   with its `(time, seq)` heap, which is what keeps the DES engine
//!   bitwise-equal to it.
//! * [`TieBreak::Seeded`] applies a SplitMix64-style permutation of the
//!   insertion counter, giving a *seeded total order* among simultaneous
//!   events: still perfectly reproducible for a fixed seed, but no longer
//!   correlated with program push order — the tool for shaking out hidden
//!   ordering assumptions in components.
//! * [`EventQueue::push_keyed`] lets the caller rank simultaneous events
//!   explicitly (the testkit's scenario `Driver` uses it to encode
//!   "submissions before check-ins, then lowest job id" as a key).
//!
//! Push and pop are `O(log n)`; the queue never allocates per event beyond
//! the heap slot. Times must be finite — a NaN would silently corrupt heap
//! order, so pushes assert.

use std::collections::BinaryHeap;

/// Ordering policy among events with equal timestamps.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum TieBreak {
    /// Simultaneous events drain in insertion order (legacy-compatible).
    Fifo,
    /// Simultaneous events drain in a pseudo-random but fully seeded
    /// order: the tie key is a SplitMix64 permutation of the insertion
    /// counter, so a fixed seed always yields the same total order.
    Seeded(u64),
}

/// One queued event. Ordering ignores the payload entirely.
struct Entry<P> {
    time: f64,
    key: u64,
    seq: u64,
    payload: P,
}

impl<P> PartialEq for Entry<P> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.key == other.key && self.seq == other.seq
    }
}
impl<P> Eq for Entry<P> {}
impl<P> PartialOrd for Entry<P> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<P> Ord for Entry<P> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap by (time, key, seq) through BinaryHeap's max ordering.
        other
            .time
            .partial_cmp(&self.time)
            .expect("finite event times")
            .then(other.key.cmp(&self.key))
            .then(other.seq.cmp(&self.seq))
    }
}

/// SplitMix64 finalizer: a bijective mix of the insertion counter used by
/// [`TieBreak::Seeded`] (and by the scale sweep's seeded job derivation).
pub(crate) fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Priority queue of `(time, payload)` events with a deterministic total
/// order (see the module docs for the tie-break policies).
pub struct EventQueue<P> {
    heap: BinaryHeap<Entry<P>>,
    seq: u64,
    tie: TieBreak,
}

impl<P> Default for EventQueue<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P> EventQueue<P> {
    /// An empty FIFO-tie-break queue.
    pub fn new() -> Self {
        Self::with_tie_break(TieBreak::Fifo)
    }

    pub fn with_tie_break(tie: TieBreak) -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            tie,
        }
    }

    /// Queue `payload` at `time`, ranked among simultaneous events by the
    /// queue's tie-break policy.
    ///
    /// # Panics
    ///
    /// Panics if `time` is not finite.
    pub fn push(&mut self, time: f64, payload: P) {
        let key = match self.tie {
            TieBreak::Fifo => self.seq,
            TieBreak::Seeded(seed) => mix(seed ^ self.seq),
        };
        self.push_with(time, key, payload);
    }

    /// Queue `payload` at `time` with an explicit tie key: among
    /// simultaneous events, lower keys pop first, and equal keys fall back
    /// to insertion order. This bypasses the queue's tie-break policy.
    ///
    /// # Panics
    ///
    /// Panics if `time` is not finite.
    pub fn push_keyed(&mut self, time: f64, key: u64, payload: P) {
        self.push_with(time, key, payload);
    }

    /// Queue `payload` at `time` from a handler running at virtual time
    /// `now`. The simulator's drivers push follow-up events only through
    /// this, so a causality back-edge panics at its source instead of
    /// corrupting downstream state.
    ///
    /// # Panics
    ///
    /// Panics if `time` precedes `now` or is not finite.
    pub(crate) fn schedule(&mut self, now: f64, time: f64, payload: P) {
        assert!(time >= now, "cannot schedule into the past: {time} < {now}");
        self.push(time, payload);
    }

    fn push_with(&mut self, time: f64, key: u64, payload: P) {
        assert!(time.is_finite(), "event time must be finite, got {time}");
        self.seq += 1;
        self.heap.push(Entry {
            time,
            key,
            seq: self.seq,
            payload,
        });
    }

    /// Remove and return the earliest event as `(time, payload)`.
    pub fn pop(&mut self) -> Option<(f64, P)> {
        self.heap.pop().map(|e| (e.time, e.payload))
    }

    /// Timestamp of the earliest queued event.
    pub fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.time)
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total events ever pushed (the insertion counter).
    pub fn pushed(&self) -> u64 {
        self.seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(3.0, "c");
        q.push(1.0, "a");
        q.push(2.0, "b");
        assert_eq!(q.peek_time(), Some(1.0));
        assert_eq!(q.pop(), Some((1.0, "a")));
        assert_eq!(q.pop(), Some((2.0, "b")));
        assert_eq!(q.pop(), Some((3.0, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_ties_drain_in_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(5.0, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn seeded_ties_are_a_reproducible_permutation() {
        let drain = |seed: u64| {
            let mut q = EventQueue::with_tie_break(TieBreak::Seeded(seed));
            for i in 0..64 {
                q.push(1.0, i);
            }
            std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect::<Vec<i32>>()
        };
        let a = drain(7);
        // Same seed, same total order.
        assert_eq!(a, drain(7));
        // It is a permutation of the inserted events...
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<_>>());
        // ...and (for these seeds) not the insertion order, and seeds differ.
        assert_ne!(a, (0..64).collect::<Vec<_>>());
        assert_ne!(a, drain(8));
    }

    #[test]
    fn explicit_keys_rank_simultaneous_events() {
        let mut q = EventQueue::new();
        q.push_keyed(2.0, 9, "checkin-j9");
        q.push_keyed(2.0, 0, "submit");
        q.push_keyed(2.0, 3, "checkin-j3");
        q.push_keyed(1.0, 99, "early");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec!["early", "submit", "checkin-j3", "checkin-j9"]);
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn causality_back_edges_are_rejected() {
        let mut q = EventQueue::new();
        q.schedule(5.0, 4.0, ());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_times_are_rejected() {
        EventQueue::new().push(f64::NAN, ());
    }

    /// Reference model for the fuzz tests: a sorted vec popped from the
    /// front, ordered by the same (time, key, seq) triple.
    struct Model {
        items: Vec<(f64, u64, u64, u32)>,
        seq: u64,
    }

    impl Model {
        fn push(&mut self, time: f64, key: u64, payload: u32) {
            self.seq += 1;
            self.items.push((time, key, self.seq, payload));
        }
        fn pop(&mut self) -> Option<(f64, u32)> {
            if self.items.is_empty() {
                return None;
            }
            let best = self
                .items
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    a.0.partial_cmp(&b.0)
                        .unwrap()
                        .then(a.1.cmp(&b.1))
                        .then(a.2.cmp(&b.2))
                })
                .map(|(i, _)| i)
                .unwrap();
            let (t, _, _, p) = self.items.remove(best);
            Some((t, p))
        }
    }

    proptest! {
        /// Pop order is a total order on (time, seq): draining any pushed
        /// multiset yields non-decreasing times, and equal times preserve
        /// insertion order under FIFO ties.
        #[test]
        fn pop_order_is_total(times in proptest::collection::vec(0u32..50, 1..200)) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.push(*t as f64, i as u32);
            }
            let drained: Vec<(f64, u32)> =
                std::iter::from_fn(|| q.pop()).collect();
            prop_assert_eq!(drained.len(), times.len());
            for w in drained.windows(2) {
                prop_assert!(w[0].0 <= w[1].0, "times must be non-decreasing");
                if w[0].0 == w[1].0 {
                    prop_assert!(w[0].1 < w[1].1, "FIFO ties keep insertion order");
                }
            }
        }

        /// Interleaved push/pop fuzz against the reference model: the queue
        /// and the model agree on every pop, for FIFO and explicit keys.
        #[test]
        fn fuzz_matches_reference_model(
            ops in proptest::collection::vec(
                prop_oneof![
                    (0u32..100, 0u64..8, 0u32..u32::MAX).prop_map(|(t, k, p)| Some((t, k, p))),
                    Just(None),
                ],
                1..300,
            )
        ) {
            let mut q = EventQueue::new();
            let mut m = Model { items: Vec::new(), seq: 0 };
            for op in ops {
                match op {
                    Some((t, k, p)) => {
                        q.push_keyed(t as f64, k, p);
                        m.push(t as f64, k, p);
                    }
                    None => prop_assert_eq!(q.pop(), m.pop()),
                }
            }
            loop {
                let (a, b) = (q.pop(), m.pop());
                prop_assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
        }

        /// Seeded ties: for any seed, draining N simultaneous events is a
        /// permutation of them, and replaying the seed reproduces it.
        #[test]
        fn seeded_order_is_a_stable_permutation(seed in 0u64..u64::MAX, n in 1usize..64) {
            let drain = |seed: u64| {
                let mut q = EventQueue::with_tie_break(TieBreak::Seeded(seed));
                for i in 0..n {
                    q.push(1.0, i);
                }
                std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect::<Vec<usize>>()
            };
            let a = drain(seed);
            prop_assert_eq!(&a, &drain(seed));
            let mut sorted = a;
            sorted.sort_unstable();
            prop_assert_eq!(sorted, (0..n).collect::<Vec<_>>());
        }
    }
}
