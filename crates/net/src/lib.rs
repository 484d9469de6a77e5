//! `gc-net` — a TCP wire-protocol front-end for the coloring service,
//! with streaming edge deltas and incremental recoloring.
//!
//! The service crate answers coloring requests in-process; this crate
//! puts it behind a socket, which changes two things:
//!
//! * **Graphs become nouns.** A client uploads a CSR once
//!   (`SubmitGraph`), then refers to it by id for any number of
//!   `Color` / `GetResult` calls — high-rate request streams are not
//!   dominated by `O(E)` payloads.
//! * **Graphs become mutable.** `MutateEdges` applies a batched
//!   insert/delete delta server-side. Instead of recoloring from
//!   scratch, the server repairs the stored coloring *incrementally*:
//!   only the endpoints of changed edges (plus whatever conflicts
//!   cascade) enter a compacted frontier, which a service worker drives
//!   through the speculate-recolor loop as a repair job
//!   ([`gc_service::ServiceHandle::repair`]). The result cache is not
//!   invalidated but *revalidated* — the repaired entry is re-keyed
//!   under an `O(Δ)` version-lineage fingerprint
//!   ([`gc_service::lineage_fingerprint`]), so the next `Color` on the
//!   mutated graph is still a cache hit.
//!
//! The protocol is std-only: length-prefixed binary frames
//! (`[u32 len][u8 verb][body]`, see [`wire`]) over `TcpStream`, no
//! serialization dependency. The decoder is hardened against untrusted
//! input — truncated, oversized, and garbage frames become protocol
//! errors, never panics, and forged length headers cannot allocate more
//! than the peer actually sent (fuzzed in this crate's tests).
//!
//! ```no_run
//! use gc_net::{NetClient, NetServerConfig, Server, WireObjective};
//!
//! let server = Server::start("127.0.0.1:0", NetServerConfig::default()).unwrap();
//! let mut client = NetClient::connect(server.local_addr()).unwrap();
//! let g = gc_graph::generators::grid2d(32, 32, gc_graph::generators::Stencil2d::FivePoint);
//! client.submit_graph(1, &g).unwrap();
//! let summary = client.color(1, WireObjective::Balanced, 0, 0).unwrap();
//! assert!(summary.verified);
//! server.stop();
//! ```

pub mod client;
pub mod server;
pub mod wire;

pub use client::{NetClient, NetError};
pub use server::{NetServerConfig, Server};
pub use wire::{
    ColorSummary, ErrCode, MutateAck, ResultPayload, StatsTick, SubmitGraphAck, WireError,
    WireObjective, MAX_FRAME_LEN,
};

#[cfg(test)]
mod tests;
