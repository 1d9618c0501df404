//! # dna-serve — long-running differential analysis service
//!
//! The paper's pitch is that differential analysis makes change impact
//! cheap enough to answer *continuously*. This crate is the subsystem
//! that cashes that in: instead of one-shot load→replay→exit runs, a
//! server keeps live [`dna_core::DiffEngine`]s resident across epochs,
//! ingests `dna-io` change traces incrementally from a stream, and
//! answers queries — reachability, blast radius, report ranges, stats —
//! against the evolving state, never re-simulating from scratch on the
//! query path.
//!
//! Layers:
//!
//! * [`session`] — [`Session`]: one live analysis (engine + optional
//!   from-scratch verification shadow + bounded epoch history);
//! * [`server`] — artifact framing, the [`Request`] every transport
//!   sends, the stream pump behind stdin and unix-socket clients, and
//!   file-tail ingest ([`follow_trace`]);
//! * [`router`] — the one engine-side dispatcher: one engine thread
//!   *per session*, each command inside a panic fence, with parallel
//!   session bring-up and concurrent multi-session ingest with
//!   interleaved queries (the engine stays thread-local — each
//!   session's engine lives and dies on its own thread). Every
//!   transport pumps into it;
//! * [`view`] — the published-snapshot read path: after every applied
//!   epoch a session publishes an immutable [`QueryView`] behind an
//!   atomic version counter, so reader threads answer read-only
//!   queries without ever touching an engine thread;
//! * [`subs`] — standing queries: per-session registries of
//!   materialized subscriptions re-evaluated from each commit's diff,
//!   plus the [`NotifyHub`] that fans pushed `notify` artifacts out to
//!   TCP watchers through bounded, drop-oldest queues (the engine
//!   never blocks on a slow consumer);
//! * [`net`] — the TCP front door: an accept loop whose per-connection
//!   threads answer read-only queries straight from published views,
//!   forward everything else to the engine side, and stream pushed
//!   notifies to subscribed clients (`dna watch`);
//! * [`obs`] — the telemetry query surface: `metrics` / `trace`
//!   queries answered from the process-global [`dna_obs`] registry and
//!   span ring, byte-identically on every transport.
//!
//! The wire protocol is `dna-io`'s `query`/`response` artifacts (see
//! `crates/io/FORMAT.md`); the `dna serve` / `dna query` subcommands in
//! `crates/cli` are thin shells over this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod net;
pub mod obs;
pub mod router;
pub mod server;
pub mod session;
pub mod subs;
pub mod view;

pub use net::{query_tcp, tcp_accept_loop};
pub use obs::obs_reply_for;
pub use router::{route_stream, Router};
#[cfg(unix)]
pub use server::{accept_loop, query_socket};
pub use server::{follow_trace, pump_stream, pump_stream_as, read_artifact, Request, ServeSummary};
pub use session::{
    checkpoint_file_name, coalesced_label, resolve_checkpoint_snapshot, Session, SessionConfig,
};
pub use subs::NotifyHub;
pub use view::{QueryView, ViewReader, ViewRegistry, ViewSlot};
