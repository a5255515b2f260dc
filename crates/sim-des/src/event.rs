//! Scheduled events: their ids and what they carry.

/// Identifier handed back when an event is scheduled; can be used to cancel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId {
    pub(crate) seq: u64,
    /// Where the queue parked the event's closure; `seq` tells a slot's
    /// current tenant from an earlier one.
    pub(crate) slot: u32,
}

impl EventId {
    /// The raw sequence number of this event.
    pub fn raw(self) -> u64 {
        self.seq
    }
}

/// A boxed event callback run against the shared state and engine context.
pub(crate) type EventCallback<S> = Box<dyn FnOnce(&mut S, &mut crate::engine::Context) + Send>;

/// The kinds of work an event can carry.
pub(crate) enum EventAction<S> {
    /// Run an arbitrary closure against the shared state.
    Call(EventCallback<S>),
    /// Poll a registered process.
    PollProcess(crate::process::ProcessId),
}
