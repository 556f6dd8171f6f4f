//! # romp-serve — a job-serving front-end for the romp runtime
//!
//! The paper's thesis is that MCA standards let one resource-managed
//! runtime be shared safely across software components.  This crate is
//! the modern serving analogue of that claim: a TCP front-end that turns
//! the runtime into a small multi-tenant compute service.  Concurrent
//! clients submit jobs — the EPCC construct exercises and NPB kernels the
//! reproduction already measures — and every job executes on **one
//! persistent [`romp::Runtime`]**, drawing intra-job parallelism from its
//! work-stealing pool instead of spinning a fresh team per request.
//!
//! The moving parts:
//!
//! * [`protocol`] — a zero-dependency length-prefixed wire protocol
//!   (submit / poll / fetch / await / stats / ping / shutdown), hardened
//!   against malformed and truncated frames;
//! * [`queue`] — the bounded admission queue: a full queue answers
//!   `Rejected { retry_after_ms }` (backpressure), never blocks or grows;
//! * [`reactor`] — the event-driven connection front-end: one epoll loop
//!   (hermetic `extern "C"` bindings, no external crates) multiplexes
//!   every socket edge-triggered, decodes frames incrementally across
//!   partial reads, pipelines many in-flight requests per connection, and
//!   admits each wakeup's submissions as one batch;
//! * [`dispatcher`] — the one dispatch policy (placement, retries,
//!   cancel forwarding, escalation target, drain) as a sans-IO state
//!   machine the server, `romp-cluster` and `romp-sim` all drive;
//! * [`server`] — the listener, the threads (reactor, dispatcher,
//!   watchdog) and the in-process executor behind the [`Dispatch`]
//!   seam; graceful drain on `shutdown` completes every accepted job,
//!   quiesces the pool, and reports a [`DrainReport`];
//! * [`state`] — the one [`ServeState`] (job table, queue, metrics,
//!   service-time estimators) and its pop / finish / sweep / stats
//!   bookkeeping, shared by the server, `romp-cluster` and `romp-sim`;
//! * [`client`] — the blocking [`Client`] the tests and the CI smoke
//!   use, and the one sans-IO client core ([`client::ClientCore`]) that
//!   checks every response, which `loadgen`, the chaos-test load
//!   drivers ([`client::drive`]) and `romp-sim` all drive;
//! * [`job`] — job specs, admission limits, and execution on the shared
//!   runtime.
//!
//! Stats responses embed the PR 3 `romp-trace` metrics registry (the
//! `serve.*` counters, gauges and latency histograms) as JSON, so one
//! `stats` request exposes per-endpoint counts, queue depth, and
//! queue/exec/total latency quantiles.
//!
//! Fault tolerance rides the PR 2 machinery: a poisoned MCA backend
//! degrades the *runtime* under the service (MCA→native fallback) while
//! every accepted job still completes — the serving layer never turns a
//! backend fault into a dropped job.
//!
//! ## In-process quick start
//!
//! ```
//! use romp::{BackendKind, Runtime};
//! use romp_serve::{Client, JobSpec, Server, ServeConfig};
//! use romp_epcc::Construct;
//! use std::time::Duration;
//!
//! let rt = Runtime::with_backend(BackendKind::Native).unwrap();
//! let handle = Server::start("127.0.0.1:0", ServeConfig::default(), rt).unwrap();
//!
//! let mut client = Client::connect(handle.addr()).unwrap();
//! let spec = JobSpec::Epcc { construct: Construct::Barrier, threads: 2, inner_reps: 4 };
//! let (job, _rejections) = client
//!     .submit_with_retry(&spec, Duration::from_secs(5))
//!     .unwrap()
//!     .expect("not draining");
//! let outcome = client.wait_result(job, Duration::from_secs(30)).unwrap();
//! assert!(outcome.ok);
//!
//! client.shutdown().unwrap();
//! let report = handle.join();
//! assert_eq!(report.dropped, 0, "graceful drain loses nothing");
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod dispatcher;
pub mod job;
pub mod lifecycle;
pub mod metrics;
pub mod protocol;
pub mod queue;
pub mod reactor;
pub mod server;
pub mod session;
pub mod state;

pub use client::{Client, ClientError, SubmitOptions, SubmitOutcome};
pub use job::{DiagSpec, JobLimits, JobOutcome, JobSpec, JobState};
pub use lifecycle::{DedupConfig, JobTable};
pub use metrics::Metrics;
pub use protocol::{ErrorCode, ProtoError, Request, Response, MAX_FRAME};
pub use queue::QueuedJob;
pub use queue::{lane_name, lane_of, JobQueue, PushError, DEFAULT_LANE_WEIGHTS, LANES};
pub use server::{Dispatch, DispatchCtx, DrainReport, ServeConfig, Server, ServerHandle};
pub use session::{ServeCore, Session};
pub use state::ServeState;
