//! `gc-service` — an in-process graph-coloring service on top of the
//! paper's nine Figure 1 implementations and the §VI extensions.
//!
//! The reproduction crates answer "how fast is implementation X on graph
//! G"; this crate answers the production question one layer up: given a
//! stream of graphs and per-request quality/latency objectives, which
//! implementation should each request run, and how do you keep the
//! device pool busy without melting under overload? It provides:
//!
//! * a bounded admission queue with producer backpressure
//!   ([`ServiceHandle::submit`]) and fail-fast rejection
//!   ([`ServiceHandle::try_submit`]), plus deadline-based shedding at
//!   dequeue time;
//! * a [policy engine](policy) mapping ([`Objective`], graph statistics)
//!   to a registered implementation — the paper's time/quality trade-off
//!   operationalised;
//! * a fingerprint-keyed LRU [result cache](cache), exploiting the
//!   determinism of every implementation given (graph, seed);
//! * repair jobs on the same worker pool ([`ServiceHandle::repair`]):
//!   after a graph mutation, a stored coloring is repaired from the
//!   mutation's frontier and its cache entry carried to the new graph;
//! * [`ServiceStats`] with per-colorer model-ms latency histograms;
//! * optional end-to-end observability: start the service with a
//!   [`gc_telemetry::Tracer`] and/or
//!   [`gc_telemetry::MetricsRegistry`] (see [`ServiceConfig`]) and every
//!   request becomes a span tree — `request` → `queue_wait` /
//!   `policy_decide` / `color` (iteration spans and kernel events
//!   inside) / `verify` / `cache_insert` — while counters, queue
//!   gauges, and latency histograms stream into the registry.
//!
//! ```
//! use std::sync::Arc;
//! use gc_service::{ColoringService, ColorRequest, Objective, ServiceConfig};
//!
//! let svc = ColoringService::start(ServiceConfig::default());
//! let handle = svc.handle();
//! let graph = Arc::new(gc_graph::generators::grid2d(
//!     32, 32, gc_graph::generators::Stencil2d::FivePoint,
//! ));
//! let resp = handle.color(ColorRequest::new(graph, Objective::Balanced)).unwrap();
//! assert!(resp.verified);
//! svc.shutdown();
//! ```

pub mod cache;
pub mod policy;
pub mod request;
pub mod service;
pub mod stats;

pub use cache::{graph_fingerprint, lineage_fingerprint, CacheKey, LruCache};
pub use policy::{choose, features, GraphFeatures, TINY_GRAPH_VERTICES};
pub use request::{ColorRequest, ColorResponse, Objective, Repaired, RequestMetrics, ServiceError};
pub use service::{ColoringService, ResponseTicket, ServiceConfig, ServiceHandle};
pub use stats::{LatencyHistogram, ServiceStats, StatsSnapshot};
