//! The pending-event queue: a binary min-heap of `(time, seq, process)`,
//! so simultaneous polls fire in schedule order.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

pub(crate) struct EventQueue {
    heap: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    next_seq: u64,
}

impl EventQueue {
    pub(crate) fn new() -> Self {
        EventQueue { heap: BinaryHeap::new(), next_seq: 0 }
    }

    /// Schedules a poll of process `index` at `at`.
    pub(crate) fn push(&mut self, at: SimTime, index: u32) {
        self.heap.push(Reverse((at, self.next_seq, index)));
        self.next_seq += 1;
    }

    /// Removes and returns the earliest pending poll.
    pub(crate) fn pop(&mut self) -> Option<(SimTime, u32)> {
        self.heap.pop().map(|Reverse((time, _, index))| (time, index))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for (t, index) in [(30, 0), (10, 1), (20, 2)] {
            q.push(SimTime::from_nanos(t), index);
        }
        let order: Vec<(u64, u32)> =
            std::iter::from_fn(|| q.pop()).map(|(time, index)| (time.as_nanos(), index)).collect();
        assert_eq!(order, vec![(10, 1), (20, 2), (30, 0)]);
    }

    #[test]
    fn simultaneous_events_fire_in_schedule_order() {
        let mut q = EventQueue::new();
        for index in [7, 3, 5] {
            q.push(SimTime::from_nanos(10), index);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|(_, index)| index).collect();
        assert_eq!(order, vec![7, 3, 5]);
    }
}
