//! The discrete-event scheduler core: a priority queue keyed by
//! `(time, seq)` with deterministic tie-breaking.
//!
//! The queue is a min-heap over event timestamps; the monotonically
//! assigned `seq` breaks same-timestamp ties in insertion order, so a
//! run's event ordering is a pure function of the pushes — never of
//! heap internals, hash state, or thread timing. Popping an event
//! advances the queue clock directly to the event's timestamp: spans
//! where nothing is scheduled are skipped entirely rather than stepped
//! through, which is what makes simulating thousands of mostly-idle
//! servers cheap.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Simulated cluster time, in cycles of the per-server machine clock.
pub type Cycles = u64;

/// A scheduled event: a payload plus its `(time, seq)` ordering key.
#[derive(Clone, Debug)]
pub struct Event<T> {
    /// Absolute cluster time at which the event fires.
    pub time: Cycles,
    /// Insertion-order tie-breaker: of two events at the same time, the
    /// one pushed first fires first.
    pub seq: u64,
    /// The event itself.
    pub payload: T,
}

// Ordering is by (time, seq) only — payloads never influence it. The
// comparisons are inverted because `BinaryHeap` is a max-heap and we
// want the earliest event on top.
impl<T> PartialEq for Event<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}

impl<T> Eq for Event<T> {}

impl<T> PartialOrd for Event<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Event<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// A deterministic discrete-event queue with an idle-skipping clock.
#[derive(Debug)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Event<T>>,
    next_seq: u64,
    now: Cycles,
    processed: u64,
    skipped: Cycles,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: 0,
            processed: 0,
            skipped: 0,
        }
    }

    /// The queue clock: the timestamp of the last popped event.
    pub fn now(&self) -> Cycles {
        self.now
    }

    /// Events popped so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Total cycles the clock jumped over without stepping (the sum of
    /// all gaps between consecutive event timestamps).
    pub fn skipped(&self) -> Cycles {
        self.skipped
    }

    /// Pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `payload` at absolute `time`, returning its `seq`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is in the past — events may only be scheduled
    /// at or after the clock, so the popped order is globally sorted.
    pub fn push(&mut self, time: Cycles, payload: T) -> u64 {
        assert!(
            time >= self.now,
            "event scheduled in the past: {} < {}",
            time,
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Event { time, seq, payload });
        seq
    }

    /// Pops the earliest event and advances the clock to its timestamp,
    /// skipping the idle gap in between.
    pub fn pop(&mut self) -> Option<Event<T>> {
        let e = self.heap.pop()?;
        debug_assert!(e.time >= self.now);
        self.skipped += e.time - self.now;
        self.now = e.time;
        self.processed += 1;
        Some(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order_and_skips_gaps() {
        let mut q = EventQueue::new();
        q.push(50, "c");
        q.push(10, "a");
        q.push(30, "b");
        assert_eq!(q.pop().unwrap().payload, "a");
        assert_eq!(q.now(), 10);
        assert_eq!(q.pop().unwrap().payload, "b");
        assert_eq!(q.pop().unwrap().payload, "c");
        assert_eq!(q.now(), 50);
        // Gaps 0→10, 10→30, 30→50 were all skipped, never stepped.
        assert_eq!(q.skipped(), 50);
        assert!(q.pop().is_none());
        assert_eq!(q.processed(), 3);
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn rejects_events_behind_the_clock() {
        let mut q = EventQueue::new();
        q.push(10, ());
        q.pop();
        q.push(5, ());
    }

    proptest! {
        /// Idle-time skipping never reorders events: however pushes and
        /// pops interleave, popped timestamps are non-decreasing and the
        /// clock never runs ahead of an undelivered event.
        #[test]
        fn skipping_never_reorders(deltas in vec((0u64..100, 1usize..4), 1..60)) {
            let mut q = EventQueue::new();
            let mut popped: Vec<(Cycles, u64)> = Vec::new();
            for (jitter, pops) in deltas {
                // Schedule relative to the moving clock, including
                // same-timestamp events (jitter 0).
                q.push(q.now() + jitter, ());
                q.push(q.now() + jitter / 2, ());
                for _ in 0..pops {
                    if let Some(e) = q.pop() {
                        popped.push((e.time, e.seq));
                    }
                }
            }
            while let Some(e) = q.pop() {
                popped.push((e.time, e.seq));
            }
            for w in popped.windows(2) {
                prop_assert!(w[0].0 <= w[1].0, "reordered: {:?}", w);
            }
            prop_assert_eq!(popped.len(), q.processed() as usize);
        }

        /// Same-timestamp events fire in `seq` (insertion) order, and the
        /// full popped sequence is exactly the pushes sorted by
        /// `(time, seq)` — deterministic regardless of heap shape.
        #[test]
        fn ties_fire_in_seq_order(times in vec(0u64..8, 2..80)) {
            let mut q = EventQueue::new();
            let mut expect: Vec<(Cycles, u64)> = Vec::new();
            for (i, &t) in times.iter().enumerate() {
                let seq = q.push(t, i);
                expect.push((t, seq));
            }
            expect.sort();
            let mut got = Vec::new();
            while let Some(e) = q.pop() {
                // The payload recorded at push time must ride along.
                prop_assert_eq!(e.seq as usize, e.payload);
                got.push((e.time, e.seq));
            }
            prop_assert_eq!(got, expect);
        }
    }
}
