//! # ifet-serve — the multi-tenant session service
//!
//! The paper's workflow is interactive: analysts paint, classify, track,
//! and render against evolving 4D series. This crate turns the one-shot
//! pipeline into a resident service (the ROADMAP's "millions of users"
//! direction): many [`VisSession`](ifet_core::VisSession)s stay loaded
//! concurrently, addressed by `.ifet` artifact path, with every tenant's
//! frame data paged through one shared
//! [`CacheBudgetHandle`](ifet_volume::CacheBudgetHandle).
//!
//! Three layers:
//!
//! - [`protocol`] — the length-prefixed, CRC-guarded binary wire format
//!   (verbs: `open`, `classify`, `track`, `render-slice`, `report-stats`,
//!   `close`, and the pipelining `hello` handshake), with typed
//!   [`ProtocolError`]s for every corruption mode.
//! - [`engine`] — [`ServeEngine`]: session residency and sharing,
//!   per-tenant admission (bounded in-flight work, typed `Overloaded`
//!   backpressure), and per-artifact residency-quota groups on the shared
//!   cache budget. Every verb, MLP work included, runs on the thread that
//!   handles the request.
//! - [`server`] — the Unix-socket transport (`ifet serve` / `ifet
//!   client`): per-connection reader/writer threads around a fixed
//!   worker-pool executor, multiplexed pipelined connections (replies in
//!   completion order, matched by request id), and a multiplexing
//!   [`Client`]. The deterministic test harness drives
//!   [`ServeEngine::handle_wire`] in-process instead.
//!
//! The load-bearing contract, pinned by `tests/serve_equivalence.rs`:
//! **responses are schedule-independent** — a concurrent multi-client run
//! produces byte-identical per-client responses to a serial replay of the
//! same request log, because every verb (except the explicitly
//! runtime-valued `report-stats`) computes only from artifact bytes and
//! request arguments through code already pinned bit-identical against
//! paging, batching, and thread count.

#![forbid(unsafe_code)]

pub mod engine;
pub mod error;
pub mod protocol;
#[cfg(unix)]
pub mod server;

pub use engine::{ServeConfig, ServeEngine, SharedSession};
pub use error::ServeError;
pub use protocol::{
    decode_request, decode_response, encode_request, encode_response, Axis, ErrorCode,
    ProtocolError, Request, Response, ResponseBody, StatsReport, Verb, WireCriterion, MAX_PIPELINE,
    PROTOCOL_VERSION,
};
#[cfg(unix)]
pub use server::{serve_unix, Client, ClientError, ServerOpts};
