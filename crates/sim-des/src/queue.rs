//! The pending-event queue: a binary min-heap of `(time, seq, target)`,
//! so simultaneous events fire in schedule order. A closure is parked in
//! a side slab and its entry names the slot: cancelling empties the slot
//! (O(1), no set of cancelled ids) and the orphaned entry is dropped when
//! it reaches the head.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::event::{EventAction, EventCallback, EventId};
use crate::process::ProcessId;
use crate::time::SimTime;

/// A process by index or a parked closure by slot (`seq` is unique, so
/// the ordering never gets this far).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Target {
    Poll(u32),
    Call(u32),
}

pub(crate) struct EventQueue<S> {
    heap: BinaryHeap<Reverse<(SimTime, u64, Target)>>,
    /// Per slot: its latest tenant's `seq`, and closure while pending.
    calls: Vec<(u64, Option<EventCallback<S>>)>,
    free: Vec<u32>,
    next_seq: u64,
    live: usize,
}

impl<S> EventQueue<S> {
    pub(crate) fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            calls: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            live: 0,
        }
    }

    /// Number of pending events (cancelled ones no longer count).
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    fn push(&mut self, at: SimTime, target: Target) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.live += 1;
        self.heap.push(Reverse((at, seq, target)));
        seq
    }

    /// Schedules a poll of `pid` at `at`.
    pub(crate) fn push_poll(&mut self, at: SimTime, pid: ProcessId) {
        let index = u32::try_from(pid.0).expect("process table outgrew the queue's u32 indexes");
        self.push(at, Target::Poll(index));
    }

    /// Schedules `action` at `at`.
    pub(crate) fn push_call(&mut self, at: SimTime, action: EventCallback<S>) -> EventId {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.calls.push((0, None));
            u32::try_from(self.calls.len() - 1).expect("more than u32::MAX pending closures")
        });
        let seq = self.push(at, Target::Call(slot));
        self.calls[slot as usize] = (seq, Some(action));
        EventId { seq, slot }
    }

    fn holds(&self, slot: u32, seq: u64) -> bool {
        self.calls.get(slot as usize).is_some_and(|(tenant, f)| *tenant == seq && f.is_some())
    }

    /// Empties `slot` for the next tenant.
    fn vacate(&mut self, slot: u32) -> Option<EventCallback<S>> {
        self.free.push(slot);
        self.live -= 1;
        self.calls[slot as usize].1.take()
    }

    /// Cancels a pending event. Returns true iff it was still pending.
    pub(crate) fn cancel(&mut self, id: EventId) -> bool {
        self.holds(id.slot, id.seq) && self.vacate(id.slot).is_some()
    }

    /// Removes and returns the earliest pending event, unless there is
    /// none or it is later than `horizon`.
    pub(crate) fn pop_due(&mut self, horizon: SimTime) -> Option<(SimTime, EventAction<S>)> {
        loop {
            let &Reverse((time, seq, target)) = self.heap.peek()?;
            // A cancelled closure left this entry behind: its slot is
            // empty, or already let to an event with a later `seq`.
            let cancelled = matches!(target, Target::Call(slot) if !self.holds(slot, seq));
            if !cancelled && time > horizon {
                return None;
            }
            self.heap.pop();
            let action = match target {
                _ if cancelled => continue,
                Target::Poll(index) => {
                    self.live -= 1;
                    EventAction::PollProcess(ProcessId(index as usize))
                }
                Target::Call(slot) => EventAction::Call(self.vacate(slot).expect("held above")),
            };
            return Some((time, action));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(q: &mut EventQueue<()>, t: u64) -> EventId {
        q.push_call(SimTime::from_nanos(t), Box::new(|_, _| {}))
    }

    fn pop_time(q: &mut EventQueue<()>) -> Option<u64> {
        q.pop_due(SimTime::MAX).map(|(time, _)| time.as_nanos())
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        call(&mut q, 30);
        call(&mut q, 10);
        call(&mut q, 20);
        assert_eq!(q.len(), 3);
        assert_eq!(pop_time(&mut q), Some(10));
        assert_eq!(pop_time(&mut q), Some(20));
        assert_eq!(pop_time(&mut q), Some(30));
        assert!(q.pop_due(SimTime::MAX).is_none());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn simultaneous_events_fire_in_schedule_order() {
        let mut q: EventQueue<()> = EventQueue::new();
        for pid in [7usize, 3, 5] {
            q.push_poll(SimTime::from_nanos(10), ProcessId(pid));
        }
        let order: Vec<usize> = std::iter::from_fn(|| match q.pop_due(SimTime::MAX)? {
            (_, EventAction::PollProcess(pid)) => Some(pid.0),
            (_, EventAction::Call(_)) => None,
        })
        .collect();
        assert_eq!(order, vec![7, 3, 5]);
    }

    #[test]
    fn cancelled_events_are_skipped() {
        let mut q = EventQueue::new();
        let first = call(&mut q, 10);
        call(&mut q, 20);
        assert!(q.cancel(first));
        assert_eq!(q.len(), 1, "a cancelled event stops counting at once");
        assert_eq!(pop_time(&mut q), Some(20));
        assert!(q.pop_due(SimTime::MAX).is_none());
    }

    #[test]
    fn peek_skips_cancelled() {
        let mut q = EventQueue::new();
        let first = call(&mut q, 10);
        call(&mut q, 20);
        q.cancel(first);
        assert!(q.pop_due(SimTime::from_nanos(15)).is_none());
        assert_eq!(q.len(), 1, "the later event is still pending");
        assert_eq!(pop_time(&mut q), Some(20));
    }

    #[test]
    fn a_slot_let_again_does_not_revive_its_cancelled_tenant() {
        let mut q = EventQueue::new();
        let old = call(&mut q, 50);
        assert!(q.cancel(old));
        let new = call(&mut q, 60);
        assert_eq!(new.slot, old.slot, "the freed slot is reused");
        assert!(!q.cancel(old), "the old id no longer names anything");
        assert_eq!(q.len(), 1);
        assert_eq!(pop_time(&mut q), Some(60));
        assert!(!q.cancel(new), "fired events cannot be cancelled");
        assert!(!q.cancel(EventId { seq: 99, slot: 7 }), "never issued");
    }
}
