//! # sim-des — deterministic discrete-event simulation engine
//!
//! The substrate on which the workflow-ensemble experiments run when not
//! executing on real threads. It provides:
//!
//! * an integer-nanosecond virtual clock ([`SimTime`], [`SimDuration`]);
//! * an event queue with deterministic tie-breaking ([`Engine`]);
//! * a resumable-process abstraction with condition-variable style signals
//!   ([`Process`], [`Signal`]).
//!
//! Determinism is a design requirement: two runs of the same model produce
//! identical event orders and timestamps, which is what makes the paper's
//! experiment grid reproducible.
//!
//! ## Example
//!
//! ```
//! use sim_des::{Context, Engine, Poll, SimDuration};
//!
//! // A process is polled, says how long to sleep, and is polled again.
//! let mut ticks_left = 2;
//! let ticker = move |count: &mut u64, _ctx: &mut Context| {
//!     if ticks_left == 0 {
//!         return Poll::Done;
//!     }
//!     ticks_left -= 1;
//!     *count += 1;
//!     Poll::Sleep(SimDuration::from_secs(1))
//! };
//! let mut engine = Engine::new(0u64);
//! engine.spawn(Box::new(ticker));
//! engine.run();
//! assert_eq!(*engine.state(), 2);
//! assert_eq!(engine.now().as_secs_f64(), 2.0);
//! ```

#![warn(missing_docs)]

pub mod engine;
pub mod process;
pub mod queue;
pub mod time;

pub use engine::{Context, Engine, RunOutcome};
pub use process::{Poll, Process, Signal};
pub use time::{SimDuration, SimTime};
