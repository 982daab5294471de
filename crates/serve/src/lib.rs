//! # eie-serve — serving compressed models under live traffic
//!
//! EIE's pitch is real-time inference: batch-1 latency on compressed FC
//! layers (paper §VI-B). This crate is the serving stage around that
//! claim — the piece that turns one compiled artifact plus the
//! [`eie-core`](eie_core) inference surface into a request/response
//! system:
//!
//! ```text
//!                    ┌────────────────────────── ModelServer ─┐
//!  submit(input) ──▶ │ bounded queue ──▶ micro-batcher ──▶ W0 │──▶ InferenceResponse
//!  submit(input) ──▶ │   (backpressure)  (max_batch,      W1 │──▶     .wait()
//!  submit(input) ──▶ │                    max_wait_us)    ... │──▶  RequestResult
//!                    └────────────────────────────────────────┘
//! ```
//!
//! * [`ModelServer`] loads a `.eie` artifact (or adopts a
//!   [`CompiledModel`](eie_core::CompiledModel)) and spawns N worker
//!   threads, each owning one instantiated
//!   [`Backend`](eie_core::Backend).
//! * Requests land in a **bounded queue** ([`ServerConfig::queue_depth`]):
//!   [`ModelServer::submit`] blocks when it is full (backpressure),
//!   [`ModelServer::try_submit`] sheds load instead.
//! * Workers claim **dynamic micro-batches**: whatever is queued up to
//!   [`ServerConfig::max_batch`], holding short batches open at most
//!   [`ServerConfig::max_wait_us`] for stragglers. Under load, batches
//!   fill instantly; idle requests wait at most the window.
//! * Every response carries its own latency and queue time; a graceful
//!   [`ModelServer::shutdown`] drains the queue (every accepted request
//!   is answered) and returns aggregate [`ServerStats`].
//!
//! **Correctness invariant:** micro-batching is a throughput decision,
//! never a numerical one. Workers execute through
//! [`run_stack_planned`](eie_core::run_stack_planned) — the same
//! chaining loop and `Q8p8` quantization behind
//! [`CompiledModel::infer`](eie_core::CompiledModel::infer), fed the
//! model's shared pre-decoded execution plans — so outputs are
//! bit-identical to a per-request functional-golden run no matter how
//! requests were coalesced, which worker ran them, or which backend
//! executed. The crate's property test submits from concurrent threads
//! across all three backends and asserts exactly that.
//!
//! ## Beyond one model, beyond one process
//!
//! Two more layers turn the single-model server into a serving *node*:
//!
//! * [`ModelRegistry`] routes by model name across many `.eie`
//!   artifacts, loading them on first use and evicting
//!   least-recently-used cold models past a byte budget (models with
//!   in-flight leases are pinned — see the [registry](ModelRegistry)
//!   docs).
//! * [`NetServer`] puts a registry on a TCP listener speaking the
//!   length-prefixed [`protocol`] frames, with [`Client`] as the
//!   matching blocking connector. Overload is a first-class response
//!   ([`protocol::Response::Overloaded`]), not a dropped connection.
//!
//! ## Fault model
//!
//! Parts of a serving node fail without taking the node down, and
//! every failure a caller can see is **typed** (DESIGN.md §11):
//!
//! * Requests may carry a **deadline** ([`SubmitOptions`], or the v2
//!   INFER frame); once lapsed they are answered `DEADLINE_EXCEEDED`
//!   at admission, coalesce, or dispatch time instead of burning a
//!   backend slot.
//! * A panicking worker is **quarantined**: only its in-flight batch
//!   fails (typed [`RequestError::WorkerFailed`]), the worker respawns
//!   under a bounded restart budget, and a server that spends the
//!   budget degrades to shed-load (`degraded` in STATS; first victim
//!   for registry eviction).
//! * [`Client`] owns the retry side: connect/read/write timeouts and a
//!   deterministic [`RetryPolicy`] that retries only idempotent-safe
//!   failures (connect refused, OVERLOADED, timeout, worker failure).
//! * The whole surface is driven by a deterministic [`FaultPlan`]
//!   harness ([`fault`]) injecting panics, stalls, latency and
//!   byte-level frame corruption in tests and behind `EIE_FAULTS` in
//!   the CLI.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
mod net;
pub mod protocol;
mod queue;
mod registry;
mod server;

pub use fault::{DispatchFault, FaultPlan, FaultyStream};
pub use net::{CallStats, Client, ClientError, ClientTimeouts, NetPolicy, NetServer, RetryPolicy};
pub use registry::{ModelRegistry, RegistryError, RegistryStats};
pub use server::{
    Histogram, InferenceResponse, ModelServer, RequestError, RequestResult, ServerConfig,
    ServerError, ServerStats, SubmitError, SubmitOptions,
};
