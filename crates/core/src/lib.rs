//! # qtls-core — the TLS asynchronous offload framework
//!
//! This crate is the paper's primary contribution, re-engineered in Rust:
//! the machinery that turns blocking crypto offload into the four-phase
//! asynchronous pipeline of §3.1:
//!
//! 1. **Pre-processing** — [`engine::OffloadEngine`] submits the crypto
//!    request through the device's non-blocking ring API and pauses the
//!    current offload job ([`fiber::pause_job`]), returning control to
//!    the event loop. Every offload is a group (a single op is a group
//!    of one) on one path. With a [`pipeline::SubmitQueue`] attached, a
//!    job's single offloads are staged per event-loop sweep and
//!    published in one batch (one ring-cursor publish, one doorbell) at
//!    the sweep boundary; ring-full handling for blocking callers goes
//!    through the single [`pipeline::Backpressure`] policy. [`fiber`]
//!    provides OpenSSL-style `ASYNC_JOB` semantics (`start_job` /
//!    `pause_job` / resume).
//! 2. **QAT response retrieval** — [`poller::HeuristicPoller`]
//!    implements the heuristic scheme (efficiency threshold, timeliness
//!    rule, failover), with [`poller::TimerPoller`] as the timer-thread
//!    baseline.
//! 3. **Async event notification** — [`notify::AsyncQueue`] is the
//!    kernel-bypass channel; [`notify::VirtualFd`] + [`notify::FdSelector`]
//!    model the FD/epoll baseline, with every simulated kernel crossing
//!    counted by [`notify::KernelCostMeter`].
//! 4. **Post-processing** — resuming the paused job consumes the parked
//!    crypto result from its [`wait_ctx::WaitCtx`].
//!
//! The [`obs`] module measures all four phases in the real engine:
//! per-shard log-linear latency histograms keyed by phase × op class, a
//! flight recorder of recent pipeline events, and the metric registry
//! behind the server's `/metrics` endpoint.
//!
//! Both §4.1 pause/resume implementations are provided: [`fiber`] (the
//! one OpenSSL adopted and the evaluation used) and [`stack`] (the
//! original state-flag design).
//!
//! [`profile::OffloadProfile`] names the five evaluated configurations
//! (`SW`, `QAT+S`, `QAT+A`, `QAT+AH`, `QTLS`) and is shared with the
//! functional server and the simulator.

#![warn(missing_docs)]

pub mod engine;
pub mod fiber;
pub mod notify;
pub mod obs;
pub mod pipeline;
pub mod poller;
pub mod profile;
pub mod shard;
pub mod stack;
pub mod wait_ctx;

pub use engine::{EngineMode, InflightCounters, OffloadEngine};
pub use fiber::{in_job, pause_job, start_job, AsyncJob, StartResult};
pub use notify::{AsyncQueue, FdSelector, KernelCostMeter, Notifier, VirtualFd};
pub use obs::{
    EngineObs, EventKind, FlightEvent, FlightRecorder, HistSnapshot, Histogram, Phase, ShardObs,
};
pub use pipeline::{
    Backpressure, BackpressureConfig, DrainReport, FlushMode, FlushPolicyConfig, FlushReport,
    FullAction, Placement, SubmitContext, SubmitQueue, SubmitSnapshot, SubmitStats,
};
pub use poller::{HeuristicConfig, HeuristicPoller, HeuristicStats, PollTrigger, TimerPoller};
pub use profile::{NotifyScheme, OffloadProfile, PollingScheme};
pub use shard::{ShardPolicy, ShardRouter};
pub use stack::{StackAsyncOp, StackPoll};
pub use wait_ctx::{AsyncCallback, WaitCtx};
