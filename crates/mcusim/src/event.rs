//! A deterministic discrete-event queue.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::Cycles;

/// A min-heap of timestamped events with deterministic FIFO tie-breaking.
///
/// Events scheduled for the same instant pop in insertion order, which
/// keeps simulations bit-reproducible regardless of heap internals. The
/// tie-break is a monotonically increasing sequence number stamped on
/// every `push`; it is never reset — not by `pop`, not by `clear` — so
/// FIFO order among ties is preserved across arbitrary interleavings of
/// push and pop, and a `clone` observes the same order as the original.
///
/// # Examples
///
/// ```rust
/// use rtmdm_mcusim::{Cycles, EventQueue};
///
/// let mut q = EventQueue::new();
/// q.push(Cycles::new(20), "late");
/// q.push(Cycles::new(10), "early");
/// q.push(Cycles::new(10), "early-second");
/// assert_eq!(q.pop(), Some((Cycles::new(10), "early")));
/// assert_eq!(q.pop(), Some((Cycles::new(10), "early-second")));
/// assert_eq!(q.pop(), Some((Cycles::new(20), "late")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Reverse<Entry<T>>>,
    seq: u64,
}

#[derive(Debug, Clone)]
struct Entry<T> {
    time: Cycles,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time.cmp(&other.time).then(self.seq.cmp(&other.seq))
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `payload` at `time`.
    pub fn push(&mut self, time: Cycles, payload: T) {
        let entry = Entry {
            time,
            seq: self.seq,
            payload,
        };
        self.seq += 1;
        self.heap.push(Reverse(entry));
    }

    /// Removes and returns the earliest event, FIFO among ties.
    pub fn pop(&mut self) -> Option<(Cycles, T)> {
        self.heap.pop().map(|Reverse(e)| (e.time, e.payload))
    }

    /// The timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<Cycles> {
        self.heap.peek().map(|Reverse(e)| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// A non-destructive snapshot of the pending events in exactly the
    /// order `pop` would drain them (time order, FIFO among ties).
    /// Used by state-space exploration to fingerprint the pending-event
    /// set canonically; `O(n log n)` per call, so not for hot loops.
    pub fn ordered(&self) -> Vec<(Cycles, &T)> {
        let mut entries: Vec<&Entry<T>> = self.heap.iter().map(|Reverse(e)| e).collect();
        entries.sort_by_key(|e| (e.time, e.seq));
        entries.into_iter().map(|e| (e.time, &e.payload)).collect()
    }

    /// Whether any pending event at exactly `time` satisfies `pred`.
    /// A plain `O(n)` heap scan without allocation or sorting — cheap
    /// enough for per-instant predicates (e.g. "may this instant ask
    /// the choice oracle?"), unlike [`EventQueue::ordered`].
    pub fn any_at(&self, time: Cycles, mut pred: impl FnMut(&T) -> bool) -> bool {
        self.heap
            .iter()
            .any(|Reverse(e)| e.time == time && pred(&e.payload))
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for &t in &[5u64, 1, 9, 3] {
            q.push(Cycles::new(t), t);
        }
        let mut out = Vec::new();
        while let Some((_, v)) = q.pop() {
            out.push(v);
        }
        assert_eq!(out, vec![1, 3, 5, 9]);
    }

    #[test]
    fn ties_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100u32 {
            q.push(Cycles::new(7), i);
        }
        for i in 0..100u32 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn peek_len_clear() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(Cycles::new(4), ());
        q.push(Cycles::new(2), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(Cycles::new(2)));
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(Cycles::new(10), 'a');
        q.push(Cycles::new(30), 'c');
        assert_eq!(q.pop().unwrap().1, 'a');
        q.push(Cycles::new(20), 'b');
        assert_eq!(q.pop().unwrap().1, 'b');
        assert_eq!(q.pop().unwrap().1, 'c');
    }

    /// Same-instant FIFO survives pops in between: an event pushed at
    /// time `t` *after* earlier `t`-events were already drained must
    /// still pop after any `t`-event pushed before it that remains.
    #[test]
    fn same_instant_fifo_survives_interleaved_pops() {
        let mut q = EventQueue::new();
        q.push(Cycles::new(5), "first");
        q.push(Cycles::new(5), "second");
        assert_eq!(q.pop().unwrap().1, "first");
        // New same-instant arrivals rank behind the survivor.
        q.push(Cycles::new(5), "third");
        q.push(Cycles::new(5), "fourth");
        assert_eq!(q.pop().unwrap().1, "second");
        assert_eq!(q.pop().unwrap().1, "third");
        assert_eq!(q.pop().unwrap().1, "fourth");
    }

    /// `clear` must not reset the sequence counter: events pushed after
    /// a clear still rank behind nothing stale, and ties among them are
    /// FIFO exactly as in a fresh queue.
    #[test]
    fn clear_preserves_fifo_for_subsequent_pushes() {
        let mut q = EventQueue::new();
        q.push(Cycles::new(1), 0u32);
        q.push(Cycles::new(1), 1);
        q.clear();
        for i in 10..15u32 {
            q.push(Cycles::new(3), i);
        }
        for i in 10..15u32 {
            assert_eq!(q.pop().unwrap().1, i);
        }
        assert!(q.is_empty());
    }

    /// A cloned queue drains in exactly the order of the original.
    #[test]
    fn clone_drains_identically() {
        let mut q = EventQueue::new();
        for (i, &t) in [4u64, 2, 4, 2, 9, 4, 2].iter().enumerate() {
            q.push(Cycles::new(t), i);
        }
        let mut c = q.clone();
        while let Some(orig) = q.pop() {
            assert_eq!(c.pop(), Some(orig));
        }
        assert_eq!(c.pop(), None);
    }

    /// `ordered` must present exactly the drain order without consuming
    /// the queue.
    #[test]
    fn ordered_matches_drain_order() {
        let mut q = EventQueue::new();
        for (i, &t) in [4u64, 2, 4, 2, 9, 4, 2].iter().enumerate() {
            q.push(Cycles::new(t), i);
        }
        let snapshot: Vec<(u64, usize)> = q.ordered().iter().map(|&(t, &v)| (t.get(), v)).collect();
        let mut drained = Vec::new();
        while let Some((t, v)) = q.pop() {
            drained.push((t.get(), v));
        }
        assert_eq!(snapshot, drained);
    }

    /// `any_at` must see exactly the events pending at the probed
    /// instant, and nothing at other instants.
    #[test]
    fn any_at_scans_only_the_probed_instant() {
        let mut q = EventQueue::new();
        q.push(Cycles::new(5), "a");
        q.push(Cycles::new(7), "b");
        q.push(Cycles::new(5), "c");
        assert!(q.any_at(Cycles::new(5), |&v| v == "c"));
        assert!(q.any_at(Cycles::new(7), |&v| v == "b"));
        assert!(!q.any_at(Cycles::new(5), |&v| v == "b"));
        assert!(!q.any_at(Cycles::new(6), |_| true));
        q.pop();
        // Popped events are no longer visible.
        assert!(!q.any_at(Cycles::new(5), |&v| v == "a"));
        assert!(q.any_at(Cycles::new(5), |&v| v == "c"));
    }

    /// Differential check against a stable-sort reference model: for a
    /// deterministic pseudo-random workload with heavy timestamp
    /// collisions, the queue must drain in exactly the order a stable
    /// sort by time would produce (stability = insertion order).
    #[test]
    fn drains_like_a_stable_sort() {
        let mut q = EventQueue::new();
        let mut reference: Vec<(u64, usize)> = Vec::new();
        // xorshift64 keeps this reproducible without external RNG deps.
        let mut state = 0x9e3779b97f4a7c15u64;
        for i in 0..500 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let t = state % 16; // few distinct instants => many ties
            q.push(Cycles::new(t), i);
            reference.push((t, i));
        }
        reference.sort_by_key(|&(t, _)| t); // sort_by_key is stable
        for &(t, i) in &reference {
            assert_eq!(q.pop(), Some((Cycles::new(t), i)));
        }
        assert!(q.is_empty());
    }
}
