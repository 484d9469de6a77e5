//! Runs the repeats of one invocation, applies the run-level checks
//! (determinism, cache-hit ratio), and turns the measurements into the
//! result line and the report file.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::drive::{self, Repeat, RunSpec};
use crate::json::{self, Json};
use crate::stats::{mean, median, percentile};
use crate::trace::{self, Recorder, Span};
use crate::workload::{Workload, HELD_OUT_SEED};
use crate::Args;

/// Untraced runs set up and time at least this many repeats: the
/// set-up time is their median, and the determinism guard compares them.
const MIN_REPEATS: usize = 3;

/// No repeat starts once the run has used this much wall time and the
/// next repeat would probably not finish within it.
const MAX_RUN_S: f64 = 150.0;

/// Per-layer metrics a run can report. A listed metric with no samples
/// in a workload reports 0: that layer did no work there.
const LAYER_NAMES: &[&str] = &[
    "datasets.generate_ms",
    "net.submit_ms",
    "service.fingerprint_ms",
    "net.request_bytes",
    "net.reply_bytes",
    "net.codec_ms",
    "net.overhead_ms",
    "service.handle_ms",
    "service.features_ms",
    "service.choose_us",
    "service.cache_get_us",
    "service.cache_insert_us",
    "service.lineage_fp_us",
    "service.cache_hit_ratio",
    "service.revalidated",
    "service.failed",
    "service.shed",
    "core.color_ms",
    "core.verify_ms",
    "core.reduce_ms",
    "core.reduce_passes",
    "vgpu.ns_per_thread",
    "vgpu.wall_per_model",
    "vgpu.pool_hit_ratio",
    "graph.delta_apply_ms",
    "graph.delta_touched",
    "shard.repair_ms",
    "shard.repair_rounds",
    "shard.repair_thread_executions",
    "shard.run_ms",
    "shard.conflict_rounds",
    "shard.halo_bytes_delta",
    "shard.overlap_ratio",
    "shard.max_device_thread_executions",
    "unattributed_ms",
    "trace_overhead_frac",
];

/// Per-colorer and per-kernel metric families (`<prefix><slug>`).
const LAYER_PREFIXES: &[&str] = &[
    "core.color_ms.",
    "core.model_ms.",
    "core.colors.",
    "vgpu.launches.",
    "vgpu.thread_executions.",
    "vgpu.kernel_bytes.",
    "vgpu.memcpy_bytes.",
    "vgpu.graph_replays.",
    "vgpu.kernel.",
];

fn known_layer(name: &str) -> bool {
    LAYER_NAMES.contains(&name) || LAYER_PREFIXES.iter().any(|p| name.starts_with(p))
}

/// The metrics `BENCHMARK.json` declares, with their units.
pub struct Declared {
    pub end_to_end: Vec<(String, String)>,
    pub per_layer: Vec<(String, String)>,
}

impl Declared {
    pub fn load(path: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Self::parse(&text).map_err(|e| format!("{path}: {e}"))
    }

    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = gc_telemetry::json::parse(text)?;
        let list = |key: &str| -> Result<Vec<(String, String)>, String> {
            doc.get(key)
                .and_then(Json::as_array)
                .ok_or(format!("missing array {key:?}"))?
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(Json::as_str)
                            .ok_or(format!("a {key} entry lacks {f:?}"))
                    };
                    Ok((field("name")?, field("unit")?))
                })
                .collect()
        };
        Ok(Declared {
            end_to_end: list("end_to_end")?,
            per_layer: list("per_layer")?,
        })
    }
}

/// A reported number and the samples behind it.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub value: f64,
    pub samples: usize,
}

/// Everything one invocation measured.
pub struct Outcome {
    pub workload: Workload,
    pub seed: u64,
    pub repeats: usize,
    /// Measurement windows of the untraced repeats.
    pub windows: usize,
    pub attempted: u64,
    pub failures: Vec<String>,
    /// End-to-end metrics of the untraced repeats, including the
    /// workload-scoped ones `BENCHMARK.json` cannot carry.
    pub end_to_end: BTreeMap<String, Metric>,
    /// Per-layer medians of the traced repeats (traced runs only).
    pub layers: BTreeMap<String, Metric>,
    /// Share of traced end-to-end time per layer (traced runs only).
    pub shares: BTreeMap<String, f64>,
    pub spans: Vec<Span>,
    /// Median `Color` round trip per `colorer@dataset` (untraced).
    pub by_type: BTreeMap<String, Metric>,
}

pub fn run(args: &Args, epoch: Instant) -> Outcome {
    let w = args.workload;
    let mut setup = Recorder::new(epoch, 0);
    let spec = RunSpec::new(w, args.seed, epoch, &mut setup);

    let mut untraced: Vec<Repeat> = Vec::new();
    let mut traced: Vec<Repeat> = Vec::new();
    let mut timed_s = 0.0;
    loop {
        let index = untraced.len() + traced.len();
        let start = if index == 0 { epoch } else { Instant::now() };
        // A traced run's first repeat is its untraced reference.
        let trace_this = args.trace && index > 0;
        let r = drive::repeat(&spec, start, trace_this, index);
        let took = start.elapsed().as_secs_f64();
        eprintln!(
            "gc-perfbench: {} seed {} repeat {index}{}: set-up {:.3} s, timed {:.3} s, {} requests, peak RSS {:.1} MB",
            w.name(),
            args.seed,
            if trace_this { " (traced)" } else { "" },
            r.setup_s,
            r.timed_s,
            r.logs.iter().map(|l| l.e2e_ms.len()).sum::<usize>(),
            r.peak_rss_mb.unwrap_or(f64::NAN)
        );
        let out_of_time = epoch.elapsed().as_secs_f64() + took > MAX_RUN_S;
        // A traced run's reference repeat counts towards `--seconds`, so
        // traced and untraced runs take about as long.
        timed_s += r.timed_s;
        if trace_this {
            traced.push(r);
            if timed_s >= args.seconds || out_of_time {
                break;
            }
        } else {
            untraced.push(r);
            let enough = untraced.len() >= MIN_REPEATS && timed_s >= args.seconds;
            if !args.trace && (enough || (out_of_time && untraced.len() >= 2)) {
                break;
            }
        }
    }

    let all: Vec<&Repeat> = untraced.iter().chain(&traced).collect();
    let mut failures: Vec<String> = Vec::new();
    let mut attempted = 0;
    for (i, r) in all.iter().enumerate() {
        for log in &r.logs {
            attempted += log.attempted;
            failures.extend(log.failures.iter().map(|f| format!("repeat {i}: {f}")));
        }
        if let Some(why) = hit_ratio_violation(w, r) {
            failures.push(format!("repeat {i}: {why}"));
        }
    }
    if let Some(why) = determinism_violation(&all) {
        failures.push(why);
    }
    let repeats = all.len();
    drop(all);
    let windows = windows(w, &untraced).len();

    let mut end_to_end = end_to_end_metrics(w, &untraced);
    let mut typed: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (k, ms) in untraced
        .iter()
        .flat_map(|r| &r.logs)
        .flat_map(|l| &l.by_type)
    {
        typed.entry(k.clone()).or_default().push(*ms);
    }
    let by_type = typed
        .into_iter()
        .filter_map(|(k, v)| {
            median(&v).map(|value| {
                (
                    k,
                    Metric {
                        value,
                        samples: v.len(),
                    },
                )
            })
        })
        .collect();
    let failed = failures.len() as f64;
    end_to_end.insert(
        "error_rate".into(),
        Metric {
            value: if attempted == 0 {
                1.0
            } else {
                failed / attempted as f64
            },
            samples: attempted as usize,
        },
    );

    let mut layers = BTreeMap::new();
    let mut shares = BTreeMap::new();
    let mut spans = Vec::new();
    if args.trace {
        for r in untraced.iter_mut().chain(traced.iter_mut()) {
            setup.absorb(std::mem::replace(&mut r.rec, Recorder::new(epoch, 0)));
        }
        layers = layer_metrics(&setup, &untraced[0], &traced);
        spans = setup.spans;
        shares = layer_shares(&spans);
    }

    Outcome {
        workload: w,
        seed: args.seed,
        repeats,
        windows,
        attempted,
        failures,
        end_to_end,
        layers,
        shares,
        spans,
        by_type,
    }
}

/// `miss_mix` and `sharded_miss` must never hit the cache and `hit_mid`
/// must always hit it, or the workload has turned into another one.
fn hit_ratio_violation(w: Workload, r: &Repeat) -> Option<String> {
    let s = r.stats;
    let ok = match w {
        Workload::MissMix | Workload::ShardedMiss => s.served > 0 && s.cache_hits == 0,
        Workload::HitMid => s.served > 0 && s.cache_hits == s.served,
        Workload::MutateRw => true,
    };
    (!ok).then(|| {
        format!(
            "service.cache_hit_ratio {} ({} hits of {} served) is not what {} requires",
            s.hit_ratio(),
            s.cache_hits,
            s.served,
            w.name()
        )
    })
}

/// Model time and colors of every fixed-sequence request must repeat
/// bit for bit across the repeats of one seed.
fn determinism_violation(all: &[&Repeat]) -> Option<String> {
    let first = all.first()?;
    for (i, r) in all.iter().enumerate().skip(1) {
        for (c, (a, b)) in first.logs.iter().zip(&r.logs).enumerate() {
            if let Some(k) =
                (0..a.det.len().max(b.det.len())).find(|&k| a.det.get(k) != b.det.get(k))
            {
                return Some(format!(
                    "determinism: client {c} request {k} gave {:?} in repeat {i} but {:?} in repeat 0",
                    b.det.get(k),
                    a.det.get(k)
                ));
            }
        }
        let bits = |m: Option<Metric>| m.map(|m| m.value.to_bits());
        let (ma, ca) = deterministic_means(first);
        let (mb, cb) = deterministic_means(r);
        if bits(ma) != bits(mb) || bits(ca) != bits(cb) {
            return Some(format!(
                "determinism: model_ms_mean/colors_mean {:?}/{:?} in repeat {i} but {:?}/{:?} in repeat 0",
                mb.map(|m| m.value),
                cb.map(|m| m.value),
                ma.map(|m| m.value),
                ca.map(|m| m.value)
            ));
        }
    }
    None
}

/// `model_ms_mean` and `colors_mean` of one repeat.
fn deterministic_means(r: &Repeat) -> (Option<Metric>, Option<Metric>) {
    let model: Vec<f64> = r
        .logs
        .iter()
        .flat_map(|l| l.model_ms.iter().copied())
        .collect();
    let colors: Vec<f64> = r
        .logs
        .iter()
        .flat_map(|l| l.colors.iter().copied())
        .collect();
    let metric = |xs: &[f64]| {
        mean(xs).map(|value| Metric {
            value,
            samples: xs.len(),
        })
    };
    (metric(&model), metric(&colors))
}

/// Picks one kind of timed sample, as (round, ms), out of a client log.
type Samples = fn(&drive::ClientLog) -> &Vec<(usize, f64)>;

/// The measurement windows of a run: (repeat, its rounds `lo..hi`).
fn windows(w: Workload, repeats: &[Repeat]) -> Vec<(&Repeat, usize, usize)> {
    repeats
        .iter()
        .flat_map(|r| {
            let n = r.round_start_s.len();
            let size = w.window_rounds().unwrap_or(n).max(1);
            (0..n / size).map(move |k| (r, k * size, (k + 1) * size))
        })
        .collect()
}

fn end_to_end_metrics(w: Workload, repeats: &[Repeat]) -> BTreeMap<String, Metric> {
    let mut out = BTreeMap::new();
    let mut put = |name: &str, value: Option<f64>, samples: usize| {
        if let Some(value) = value {
            out.insert(name.to_string(), Metric { value, samples });
        }
    };
    let setups: Vec<f64> = repeats.iter().map(|r| r.setup_s).collect();
    put("setup_s", median(&setups), setups.len());
    let windows = windows(w, repeats);
    let in_window = |r: &Repeat, lo: usize, hi: usize, f: Samples| -> Vec<f64> {
        r.logs
            .iter()
            .flat_map(|l| f(l).iter())
            .filter(|(round, _)| (lo..hi).contains(round))
            .map(|&(_, ms)| ms)
            .collect()
    };
    let kinds: [(&str, Samples); 4] = [
        ("color", |l| &l.color_ms),
        ("fetch", |l| &l.fetch_ms),
        ("check", |l| &l.check_ms),
        ("mutate", |l| &l.mutate_ms),
    ];
    let rates: Vec<f64> = windows
        .iter()
        .map(|&(r, lo, hi)| {
            let requests: usize = kinds
                .iter()
                .map(|(_, f)| in_window(r, lo, hi, *f).len())
                .sum();
            let end = r.round_start_s.get(hi).copied().unwrap_or(r.timed_s);
            requests as f64 / (end - r.round_start_s[lo])
        })
        .collect();
    let requests: usize = repeats
        .iter()
        .flat_map(|r| &r.logs)
        .map(|l| l.e2e_ms.len())
        .sum();
    put("throughput_rps", median(&rates), requests);
    for (kind, f) in kinds {
        let pooled: Vec<f64> = repeats
            .iter()
            .flat_map(|r| in_window(r, 0, usize::MAX, f))
            .collect();
        for (q, tag) in [(0.5, "p50"), (0.9, "p90"), (0.99, "p99")] {
            // The median of the windows' percentiles where every window
            // holds enough samples for one; otherwise the run's pooled
            // samples.
            let per_window: Option<Vec<f64>> = windows
                .iter()
                .map(|&(r, lo, hi)| percentile(&in_window(r, lo, hi, f), q))
                .collect();
            let value = match per_window {
                Some(xs) if xs.len() >= 2 => median(&xs),
                _ => percentile(&pooled, q),
            };
            put(&format!("{kind}_{tag}_ms"), value, pooled.len());
        }
    }
    if let Some(first) = repeats.first() {
        let (model, colors) = deterministic_means(first);
        for (name, m) in [("model_ms_mean", model), ("colors_mean", colors)] {
            if let Some(m) = m {
                put(name, Some(m.value), m.samples);
            }
        }
        // Peak memory of one server lifetime: later repeats start new
        // servers in the same process, and what the allocator retains
        // from earlier ones would add to the peak.
        put("peak_rss_mb", first.peak_rss_mb, 1);
    }
    out
}

fn layer_metrics(
    rec: &Recorder,
    reference: &Repeat,
    traced: &[Repeat],
) -> BTreeMap<String, Metric> {
    let mut out: BTreeMap<String, Metric> = rec
        .samples
        .iter()
        .filter_map(|(k, v)| {
            median(v).map(|value| {
                (
                    k.clone(),
                    Metric {
                        value,
                        samples: v.len(),
                    },
                )
            })
        })
        .collect();
    let one = |value: f64| Metric { value, samples: 1 };
    let s = reference.stats;
    out.insert("service.cache_hit_ratio".into(), one(s.hit_ratio()));
    out.insert("service.revalidated".into(), one(s.revalidated as f64));
    out.insert("service.failed".into(), one(s.failed as f64));
    out.insert("service.shed".into(), one(s.shed as f64));
    let (hits, misses) = reference.pool;
    if hits + misses > 0 {
        out.insert(
            "vgpu.pool_hit_ratio".into(),
            one(hits as f64 / (hits + misses) as f64),
        );
    }
    let led = trace::ledger(&rec.spans);
    let unattributed: Vec<f64> = led.iter().map(|l| l.unattributed_ns as f64 / 1e6).collect();
    if let Some(value) = median(&unattributed) {
        out.insert(
            "unattributed_ms".into(),
            Metric {
                value,
                samples: unattributed.len(),
            },
        );
    }
    // Tracing overhead over the same requests, position by position.
    let (mut traced_ms, mut reference_ms, mut matched) = (0.0, 0.0, 0);
    for r in traced {
        for (t, u) in r.logs.iter().zip(&reference.logs) {
            for (a, b) in t.e2e_ms.iter().zip(&u.e2e_ms) {
                traced_ms += a;
                reference_ms += b;
                matched += 1;
            }
        }
    }
    if reference_ms > 0.0 {
        out.insert(
            "trace_overhead_frac".into(),
            Metric {
                value: traced_ms / reference_ms - 1.0,
                samples: matched,
            },
        );
    }
    out
}

/// Each counted layer's share of all traced end-to-end time, plus the
/// unattributed remainder's.
fn layer_shares(spans: &[Span]) -> BTreeMap<String, f64> {
    let led = trace::ledger(spans);
    let total: f64 = led.iter().map(|l| l.e2e_ns as f64).sum();
    let mut out = BTreeMap::new();
    if total <= 0.0 {
        return out;
    }
    for s in spans.iter().filter(|s| s.counted) {
        *out.entry(s.name.to_string()).or_insert(0.0) += s.dur_ns() as f64 / total;
    }
    let rest: f64 = led.iter().map(|l| l.unattributed_ns as f64).sum();
    out.insert("unattributed".into(), rest / total);
    out
}

impl Outcome {
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// The last line of standard output: `BENCHMARK.json`'s end-to-end
    /// metrics (`--trace 0`) or per-layer metrics (`--trace 1`).
    pub fn result_line(&self, args: &Args, declared: &Declared) -> Result<String, String> {
        let mut metrics = BTreeMap::new();
        let list = if args.trace {
            &declared.per_layer
        } else {
            &declared.end_to_end
        };
        for (name, unit) in list {
            let value = if args.trace {
                match self.layers.get(name) {
                    Some(m) => m.value,
                    None if known_layer(name) => 0.0,
                    None => {
                        return Err(format!(
                            "BENCHMARK.json lists unknown per-layer metric {name}"
                        ))
                    }
                }
            } else {
                match self.end_to_end.get(name) {
                    Some(m) => m.value,
                    None => {
                        return Err(format!(
                            "end-to-end metric {name} withheld: too few samples on {}",
                            self.workload.name()
                        ))
                    }
                }
            };
            metrics.insert(
                name.clone(),
                json::obj([
                    ("value", json::num(value)),
                    ("unit", json::str(unit.as_str())),
                ]),
            );
        }
        let line = json::obj([
            ("correct", Json::Bool(self.failures.is_empty())),
            ("attempted", json::num(self.attempted as f64)),
            ("failed", json::num(self.failed() as f64)),
            ("metrics", Json::Object(metrics)),
        ]);
        Ok(json::render(&line))
    }

    /// The full report: seed, sample counts, every end-to-end metric
    /// (workload-scoped percentiles included), per-layer medians and
    /// layer shares.
    pub fn report(&self, args: &Args) -> Json {
        let metrics = |m: &BTreeMap<String, Metric>| {
            Json::Object(
                m.iter()
                    .map(|(k, v)| {
                        (
                            k.clone(),
                            json::obj([
                                ("value", json::num(v.value)),
                                ("samples", json::num(v.samples as f64)),
                            ]),
                        )
                    })
                    .collect(),
            )
        };
        json::obj([
            ("benchmark", json::str("gc-perfbench/v1")),
            ("workload", json::str(self.workload.name())),
            ("seed", json::num(self.seed as f64)),
            ("held_out_seed", json::num(HELD_OUT_SEED as f64)),
            ("trace", Json::Bool(args.trace)),
            ("seconds", json::num(args.seconds)),
            ("repeats", json::num(self.repeats as f64)),
            ("windows", json::num(self.windows as f64)),
            ("attempted", json::num(self.attempted as f64)),
            (
                "failures",
                Json::Array(
                    self.failures
                        .iter()
                        .map(|f| json::str(f.as_str()))
                        .collect(),
                ),
            ),
            (
                "host_threads",
                json::num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
            ),
            ("end_to_end", metrics(&self.end_to_end)),
            ("color_ms_by_type", metrics(&self.by_type)),
            ("layers", metrics(&self.layers)),
            (
                "layer_shares",
                Json::Object(
                    self.shares
                        .iter()
                        .map(|(k, v)| (k.clone(), json::num(*v)))
                        .collect(),
                ),
            ),
        ])
    }

    /// Writes the report, and the spans of a traced run, under
    /// `perfbench/out/`.
    pub fn write_files(&self, args: &Args) -> std::io::Result<()> {
        let dir = std::path::Path::new("perfbench/out");
        std::fs::create_dir_all(dir)?;
        let stem = format!(
            "{}-seed{}-trace{}",
            self.workload.name(),
            self.seed,
            u8::from(args.trace)
        );
        std::fs::write(
            dir.join(format!("{stem}.json")),
            json::render(&self.report(args)) + "\n",
        )?;
        if args.trace {
            std::fs::write(
                dir.join(format!("{stem}-spans.jsonl")),
                trace::to_jsonl(&self.spans),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> Outcome {
        let mut end_to_end = BTreeMap::new();
        end_to_end.insert(
            "setup_s".into(),
            Metric {
                value: 0.8127,
                samples: 3,
            },
        );
        end_to_end.insert(
            "color_p50_ms".into(),
            Metric {
                value: 1.25,
                samples: 400,
            },
        );
        let mut layers = BTreeMap::new();
        layers.insert(
            "core.color_ms".into(),
            Metric {
                value: 31.5,
                samples: 40,
            },
        );
        Outcome {
            workload: Workload::MissMix,
            seed: 1,
            repeats: 3,
            windows: 3,
            attempted: 120,
            failures: Vec::new(),
            end_to_end,
            layers,
            shares: BTreeMap::new(),
            spans: Vec::new(),
            by_type: BTreeMap::new(),
        }
    }

    fn args(trace: bool) -> Args {
        Args {
            workload: Workload::MissMix,
            seed: 1,
            seconds: 10.0,
            trace,
        }
    }

    fn declared() -> Declared {
        Declared::parse(
            r#"{"end_to_end": [{"name": "setup_s", "unit": "s"}, {"name": "color_p50_ms", "unit": "ms"}],
                "per_layer": [{"name": "core.color_ms", "unit": "ms"}, {"name": "graph.delta_apply_ms", "unit": "ms"}]}"#,
        )
        .unwrap()
    }

    #[test]
    fn result_line_parses_and_carries_exactly_the_declared_metrics() {
        for trace in [false, true] {
            let line = outcome().result_line(&args(trace), &declared()).unwrap();
            let v = gc_telemetry::json::parse(&line).unwrap();
            let keys: Vec<&String> = v.as_object().unwrap().keys().collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(v.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(v.get("attempted").unwrap().as_f64(), Some(120.0));
            let metrics = v.get("metrics").unwrap().as_object().unwrap();
            let want = if trace {
                vec!["core.color_ms", "graph.delta_apply_ms"]
            } else {
                vec!["color_p50_ms", "setup_s"]
            };
            assert_eq!(metrics.keys().collect::<Vec<_>>(), want);
            for m in metrics.values() {
                assert!(m.get("value").unwrap().as_f64().is_some());
                assert!(m.get("unit").unwrap().as_str().is_some());
            }
        }
    }

    #[test]
    fn unexercised_layers_report_zero_and_unknown_names_fail() {
        let line = outcome().result_line(&args(true), &declared()).unwrap();
        let v = gc_telemetry::json::parse(&line).unwrap();
        let m = v
            .get("metrics")
            .unwrap()
            .get("graph.delta_apply_ms")
            .unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(0.0));
        let bad = Declared::parse(
            r#"{"end_to_end": [], "per_layer": [{"name": "no.such_ms", "unit": "ms"}]}"#,
        )
        .unwrap();
        assert!(outcome().result_line(&args(true), &bad).is_err());
    }

    #[test]
    fn withheld_end_to_end_metric_is_an_error() {
        let d = Declared::parse(
            r#"{"end_to_end": [{"name": "color_p99_ms", "unit": "ms"}], "per_layer": []}"#,
        )
        .unwrap();
        assert!(outcome().result_line(&args(false), &d).is_err());
    }

    #[test]
    fn a_burst_in_one_window_does_not_move_the_result() {
        // One hit_mid repeat of 800 rounds, 10 ms apart, each with one
        // 1 ms Color: five windows of 160 rounds, the first slowed tenfold.
        let log = drive::ClientLog {
            color_ms: (0..800)
                .map(|r| (r, if r < 160 { 10.0 } else { 1.0 }))
                .collect(),
            ..Default::default()
        };
        let repeat = Repeat {
            setup_s: 1.0,
            timed_s: 8.0,
            round_start_s: (0..800).map(|r| r as f64 * 0.01).collect(),
            peak_rss_mb: None,
            logs: vec![log],
            stats: drive::StatsDelta::default(),
            pool: (0, 0),
            rec: Recorder::new(Instant::now(), 0),
        };
        let m = end_to_end_metrics(Workload::HitMid, &[repeat]);
        assert!((m["color_p50_ms"].value - 1.0).abs() < 1e-9);
        assert!((m["color_p90_ms"].value - 1.0).abs() < 1e-9);
        assert_eq!(m["color_p90_ms"].samples, 800);
        assert!((m["throughput_rps"].value - 100.0).abs() < 1e-6);
    }

    #[test]
    fn report_parses() {
        let text = json::render(&outcome().report(&args(false)));
        let v = gc_telemetry::json::parse(&text).unwrap();
        assert_eq!(
            v.get("workload").unwrap().as_str().as_deref(),
            Some("miss_mix")
        );
        assert_eq!(
            v.get("held_out_seed").unwrap().as_f64(),
            Some(HELD_OUT_SEED as f64)
        );
    }

    #[test]
    fn catalogue_documents_every_declared_metric_and_workload() {
        let dir = env!("CARGO_MANIFEST_DIR");
        let bench = std::fs::read_to_string(format!("{dir}/../BENCHMARK.json")).unwrap();
        let bench = gc_telemetry::json::parse(&bench).unwrap();
        let cat = std::fs::read_to_string(format!("{dir}/catalogue.json")).unwrap();
        let cat = gc_telemetry::json::parse(&cat).unwrap();
        let d = Declared::parse(&json::render(&bench)).unwrap();
        let e2e = cat.get("end_to_end").unwrap().as_object().unwrap();
        for (name, unit) in &d.end_to_end {
            let entry = e2e.get(name).unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(
                entry.get("unit").unwrap().as_str().as_ref(),
                Some(unit),
                "{name}"
            );
        }
        let layers = cat.get("per_layer").unwrap().as_object().unwrap();
        for (name, unit) in &d.per_layer {
            let entry = layers
                .iter()
                .find(|(k, _)| match k.find('<') {
                    Some(i) => name.starts_with(&k[..i]),
                    None => *k == name,
                })
                .unwrap_or_else(|| panic!("{name} missing"))
                .1;
            assert_eq!(
                entry.get("unit").unwrap().as_str().as_ref(),
                Some(unit),
                "{name}"
            );
        }
        let workloads = cat.get("workloads").unwrap();
        for w in bench.get("workloads").unwrap().as_array().unwrap() {
            let name = w.get("name").unwrap().as_str().unwrap();
            assert!(Workload::parse(&name).is_some(), "{name}");
            let documented = workloads
                .get(&name)
                .unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(documented.get("why"), w.get("why"), "{name}");
        }
    }

    #[test]
    fn declared_metrics_match_the_repository_benchmark() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let d = Declared::load(path).unwrap();
        for (name, _) in &d.per_layer {
            assert!(
                known_layer(name),
                "{name} is not a metric this benchmark measures"
            );
        }
        for (name, _) in &d.end_to_end {
            assert!(
                [
                    "setup_s",
                    "throughput_rps",
                    "model_ms_mean",
                    "colors_mean",
                    "peak_rss_mb",
                    "error_rate"
                ]
                .contains(&name.as_str())
                    || name.ends_with("_ms"),
                "{name} is not an end-to-end metric this benchmark measures"
            );
        }
    }
}
