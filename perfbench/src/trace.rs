//! The benchmark's own spans, kept in memory and written out when the
//! run ends. They are recorded from outside the program, around calls
//! into each crate's public functions; no `gc_telemetry` tracer is
//! installed, so the program's own spans stay off.
//!
//! Every client request is one root span (`request`, send to decoded
//! reply). After the reply, the client replays the request layer by
//! layer; each replayed call is a child span of the root. Children that
//! are pipeline layers are *counted*: the root's duration minus their
//! sum is the request's unattributed time. Whole-pipeline comparisons
//! (the in-process `ServiceHandle::color`) are recorded uncounted.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::{self, Json};

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Whether this span is a pipeline layer that counts towards its
    /// root's attributed time.
    pub counted: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-thread span and sample store; merged when the run ends.
pub struct Recorder {
    epoch: Instant,
    next_id: u64,
    pub spans: Vec<Span>,
    /// Per-layer samples by metric name.
    pub samples: BTreeMap<String, Vec<f64>>,
}

impl Recorder {
    /// Span ids start at `id_base`, so recorders of different threads
    /// never hand out the same id.
    pub fn new(epoch: Instant, id_base: u64) -> Self {
        Recorder {
            epoch,
            next_id: id_base,
            spans: Vec::new(),
            samples: BTreeMap::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn push(
        &mut self,
        parent: Option<u64>,
        request: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
        counted: bool,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns,
            counted,
        });
        id
    }

    /// Records a request's end-to-end root span; returns its id.
    pub fn root(&mut self, request: u64, start: Instant, end: Instant) -> u64 {
        self.push(None, request, "request", start, end, false)
    }

    /// Times `f` as a counted layer span under `parent`, and records its
    /// duration as a sample of `metric` (`*_ms` in milliseconds, `*_us`
    /// in microseconds).
    pub fn layer<T>(
        &mut self,
        parent: u64,
        request: u64,
        name: &'static str,
        metric: &str,
        f: impl FnOnce() -> T,
    ) -> T {
        self.timed(parent, request, name, metric, true, f)
    }

    /// Like [`Recorder::layer`] but not counted towards the root.
    pub fn side<T>(
        &mut self,
        parent: u64,
        request: u64,
        name: &'static str,
        metric: &str,
        f: impl FnOnce() -> T,
    ) -> T {
        self.timed(parent, request, name, metric, false, f)
    }

    fn timed<T>(
        &mut self,
        parent: u64,
        request: u64,
        name: &'static str,
        metric: &str,
        counted: bool,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.push(Some(parent), request, name, start, end, counted);
        let secs = end.duration_since(start).as_secs_f64();
        let value = if metric.ends_with("_us") {
            secs * 1e6
        } else {
            secs * 1e3
        };
        self.sample(metric, value);
        out
    }

    /// Duration of the most recently recorded span, in milliseconds.
    pub fn last_ms(&self) -> f64 {
        self.spans.last().map_or(0.0, |s| s.dur_ns() as f64 / 1e6)
    }

    pub fn sample(&mut self, metric: impl Into<String>, value: f64) {
        self.samples.entry(metric.into()).or_default().push(value);
    }

    /// Moves `other`'s spans and samples into `self`.
    pub fn absorb(&mut self, other: Recorder) {
        self.spans.extend(other.spans);
        for (k, mut v) in other.samples {
            self.samples.entry(k).or_default().append(&mut v);
        }
    }
}

/// One request's attribution: its end-to-end time, the sum of its
/// counted layers, and the remainder. The remainder is kept signed and
/// never clamped: replayed layers can sum to more than the request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RequestLedger {
    pub request: u64,
    pub e2e_ns: u64,
    pub layers_ns: u64,
    pub unattributed_ns: i64,
}

/// Attribution of every root span in `spans`.
pub fn ledger(spans: &[Span]) -> Vec<RequestLedger> {
    let mut layers: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.counted) {
        if let Some(p) = s.parent {
            *layers.entry(p).or_default() += s.dur_ns();
        }
    }
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|root| {
            let layers_ns = layers.get(&root.id).copied().unwrap_or(0);
            RequestLedger {
                request: root.request,
                e2e_ns: root.dur_ns(),
                layers_ns,
                unattributed_ns: root.dur_ns() as i64 - layers_ns as i64,
            }
        })
        .collect()
}

/// One JSON object per span, one per line.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let v = json::obj([
            ("id", json::num(s.id as f64)),
            (
                "parent",
                s.parent.map_or(Json::Null, |p| json::num(p as f64)),
            ),
            ("request", json::num(s.request as f64)),
            ("name", json::str(s.name)),
            ("start_ns", json::num(s.start_ns as f64)),
            ("end_ns", json::num(s.end_ns as f64)),
            ("counted", Json::Bool(s.counted)),
        ]);
        out.push_str(&json::render(&v));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn layers_plus_unattributed_equal_end_to_end() {
        let epoch = Instant::now();
        let mut rec = Recorder::new(epoch, 1);
        for request in 0..20u64 {
            let start = Instant::now();
            std::thread::sleep(Duration::from_micros(50 + request * 7));
            let end = Instant::now();
            let root = rec.root(request, start, end);
            rec.layer(root, request, "net.codec", "net.codec_ms", || {
                std::thread::sleep(Duration::from_micros(20))
            });
            rec.layer(root, request, "core.verify", "core.verify_ms", || {
                std::thread::sleep(Duration::from_micros(10 * (request % 4)))
            });
            // Uncounted comparison spans stay out of the attribution.
            rec.side(root, request, "service.handle", "service.handle_ms", || {
                std::thread::sleep(Duration::from_micros(30))
            });
        }
        let led = ledger(&rec.spans);
        assert_eq!(led.len(), 20);
        for l in &led {
            let counted: u64 = rec
                .spans
                .iter()
                .filter(|s| s.counted && s.request == l.request)
                .map(Span::dur_ns)
                .sum();
            assert_eq!(l.layers_ns, counted);
            assert_eq!(l.layers_ns as i64 + l.unattributed_ns, l.e2e_ns as i64);
        }
        // Replayed layers run after the reply, so they can outweigh a
        // short request: the remainder goes negative, unclamped.
        assert!(led.iter().any(|l| l.unattributed_ns != 0));
        assert_eq!(rec.samples["net.codec_ms"].len(), 20);
    }

    #[test]
    fn spans_export_as_parseable_lines() {
        let epoch = Instant::now();
        let mut rec = Recorder::new(epoch, 7);
        let root = rec.root(3, epoch, Instant::now());
        rec.layer(root, 3, "service.cache_get", "service.cache_get_us", || ());
        let text = to_jsonl(&rec.spans);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let v = gc_telemetry::json::parse(line).unwrap();
            assert_eq!(v.get("request").unwrap().as_f64(), Some(3.0));
        }
    }
}
