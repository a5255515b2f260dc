//! # svc — the ensemble provisioning service
//!
//! A long-running, concurrent front end over the library's two
//! evaluation paths, the shape the paper's §7 future work asks for
//! ("leveraging the proposed indicators for scheduling in situ
//! components … under resource constraints") and the shape ensemble
//! managers like RADICAL Ensemble Toolkit take in practice: a manager
//! that accepts provisioning queries, queues them under admission
//! control, and executes them on a bounded worker pool.
//!
//! * **score** — ensemble shape + node budget → every canonical feasible
//!   placement evaluated with the closed-form predictor
//!   ([`scheduler::DeltaEvaluator`], no DES: incremental per-node
//!   scoring, bit-identical to the from-scratch path), ranked by
//!   `F(Pᵁ·ᴬ·ᴾ)`. Results are memoized: scoring is deterministic, so
//!   identical queries are answered from the [`cache`] without touching
//!   the predictor.
//! * **run** — a fully placed spec → one simulated
//!   [`runtime::EnsembleRunner`]-style execution, summarized per member.
//!
//! Requests travel either through the in-process API
//! ([`Service::submit`]) or as JSON-lines over TCP ([`server::serve`] /
//! [`SvcClient`]); both share one worker pool, queue, cache, and
//! [metrics](stats::MetricsSnapshot). Backpressure is load-shedding, not
//! blocking: a full queue answers `overloaded` with a retry hint
//! immediately. Shutdown drains everything admitted.
//!
//! With a [`journal`] configured, answered scores and completed runs
//! also persist as an append-only JSON-lines file: a restarted service
//! replays it to warm the score cache and to rebuild the completed-run
//! index behind the `attach { job }` request, so clients re-fetch
//! results produced by a previous process.
//!
//! The journal is also the replication substrate: a [`standby`]
//! follows it live (over a shared filesystem or a `replicate` TCP
//! stream), keeps a warm image, and — when the primary's heartbeats
//! stop — promotes itself by bumping the journal's fencing epoch, so a
//! deposed primary's late appends are rejected instead of forking
//! history. Deterministic fault schedules — the service clauses of a
//! [`dtl::FaultPlan`], carried by [`JournalConfig::fault`] — drive the
//! failover tests.
//!
//! The wire codec is the workspace's [`json`] crate, re-exported here
//! under the path it had as a module of this crate.

#![warn(missing_docs)]

pub mod cache;
pub mod client;
mod cosched;
pub mod fair;
pub mod image;
pub mod journal;
pub mod protocol;
pub mod server;
pub mod service;
pub mod standby;
pub mod stats;

pub use ::json;

pub use cache::ScoreCache;
pub use client::{FailoverClient, FailoverPolicy, RetryPolicy as ClientRetryPolicy, SvcClient};
pub use cosched::CoschedSvcConfig;
pub use fair::{FairQueue, TenantPolicy};
pub use journal::{FsyncPolicy, Journal, JournalConfig, JournalRecord, ReplayedReservation};
pub use protocol::{
    ErrorKind, Frame, MemberSummary, Progress, ProgressBody, ProgressSpec, RankedPlacement,
    Request, RequestBody, Response, RunRequest, ScoreRequest, SubmitRequest, Workloads,
};
pub use server::{serve, ServerHandle};
pub use service::{held_score_request, small_score_request, Rejected, Service, SvcConfig};
pub use standby::{Standby, StandbyConfig, StandbySource};
