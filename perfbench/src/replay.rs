//! The traced run's layer-by-layer replay. After each reply, the client
//! that sent the request replays it in-process, in pipeline order,
//! through each crate's public functions:
//!
//! 1. wire codec (`gc_net::wire` encode and decode of request and reply)
//! 2. `policy::features` and `policy::choose`
//! 3. fingerprint (at set-up, `graph_fingerprint` of each upload)
//! 4. cache get, on a replica `LruCache` keyed like the server's
//! 5. the work call: `Colorer::run`, `run_sharded`, or
//!    `apply_edge_delta` + `lineage_fingerprint` + `repair_frontier`
//! 6. `reduce_colors`
//! 7. `is_proper`
//! 8. cache insert
//!
//! Each call is a counted child span of the request's root span. The
//! same request is also sent through `ServiceHandle::color` on a
//! `ColoringService` the benchmark owns (uncounted), which splits the
//! client round trip into in-process service time and network overhead.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gc_core::color::Coloring;
use gc_core::reduce::{reduce_colors, ReduceBudget};
use gc_core::verify::is_proper;
use gc_graph::{apply_edge_delta, Csr};
use gc_net::wire::{ColorReq, GetResult, MutateEdges};
use gc_net::{ColorSummary, MutateAck, ResultPayload, WireObjective};
use gc_service::{
    lineage_fingerprint, policy, CacheKey, ColorRequest, ColorResponse, ColoringService, LruCache,
    ServiceHandle,
};
use gc_shard::{repair_frontier, run_sharded, ShardedConfig};
use gc_vgpu::{Device, DeviceConfig};

use crate::drive::{service_config, service_objective, RunSpec};
use crate::trace::Recorder;
use crate::workload::{Op, Workload};

/// The server's cap on incremental repair rounds.
const MAX_REPAIR_ROUNDS: u32 = 64;

/// Span-id blocks handed to replayers, so ids never collide.
static NEXT_BLOCK: AtomicU64 = AtomicU64::new(1);

/// State the replaying clients of one traced repeat share.
pub struct TraceShared {
    /// Stands in for the server's result cache: same capacity, same keys.
    replica: LruCache<Arc<Vec<u32>>>,
    /// The benchmark's own service, with the server's config. Dropping
    /// it joins its workers.
    _service: ColoringService,
    handle: ServiceHandle,
    devices: usize,
    /// Structural fingerprint per (client, graph), from `SubmitGraphAck`.
    fps: Mutex<HashMap<(usize, usize), u64>>,
    /// `mutate_rw`: the last version the writer's replay has carried
    /// into the owned service's cache.
    replayed_version: AtomicU64,
    /// `mutate_rw`: the owned service's coloring of the reader's key,
    /// which the writer's replay repairs delta by delta.
    primed: Mutex<Option<ColorResponse>>,
}

impl TraceShared {
    pub fn new(spec: &RunSpec) -> Self {
        let cfg = service_config(spec.workload);
        let service = ColoringService::start(cfg.clone());
        TraceShared {
            replica: LruCache::new(cfg.cache_capacity),
            handle: service.handle(),
            _service: service,
            devices: cfg.devices,
            fps: Mutex::new(HashMap::new()),
            replayed_version: AtomicU64::new(0),
            primed: Mutex::new(None),
        }
    }

    pub fn set_fingerprint(&self, client: usize, graph: usize, fp: u64) {
        self.fps
            .lock()
            .expect("fingerprint table poisoned")
            .insert((client, graph), fp);
    }

    pub fn fingerprint(&self, client: usize, graph: usize) -> u64 {
        *self
            .fps
            .lock()
            .expect("fingerprint table poisoned")
            .get(&(client, graph))
            .expect("graph submitted before it is used")
    }
}

/// `mutate_rw` writer: the benchmark's own copy of the tracked graph and
/// its coloring, advanced delta by delta exactly as the server does.
struct WriterState {
    graph: Csr,
    colors: Vec<u32>,
    fp: u64,
    dev: Device,
    response: ColorResponse,
    key: CacheKey,
}

pub struct Replayer<'a> {
    sh: &'a TraceShared,
    spec: &'a RunSpec,
    client: usize,
    record: bool,
    rec: Recorder,
    next_request: u64,
    /// `mutate_rw`: lineage fingerprint of every graph version.
    version_fps: Vec<u64>,
    writer: Option<WriterState>,
}

/// Metric-name form of a colorer or kernel name: characters outside
/// letters, digits, `_`, `.` and `-` become `_`.
pub fn slug(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-') {
                c
            } else {
                '_'
            }
        })
        .collect()
}

impl<'a> Replayer<'a> {
    /// A replayer for `client`. With `record == false` (priming) the
    /// replay still warms the replica and the owned service, but its
    /// spans and samples are dropped.
    pub fn new(sh: &'a TraceShared, spec: &'a RunSpec, client: usize, record: bool) -> Self {
        let block = NEXT_BLOCK.fetch_add(1, Ordering::Relaxed);
        let mut version_fps = Vec::new();
        if spec.workload == Workload::MutateRw {
            let mut fp = sh.fingerprint(client, spec.workload.graphs()[0]);
            version_fps.push(fp);
            for delta in &spec.plan.toggles {
                fp = lineage_fingerprint(fp, delta);
                version_fps.push(fp);
            }
        }
        Replayer {
            sh,
            spec,
            client,
            record,
            rec: Recorder::new(spec.epoch, block << 32),
            next_request: block << 32,
            version_fps,
            writer: None,
        }
    }

    /// The recorded spans and samples (empty for a priming replayer).
    pub fn finish(self) -> Recorder {
        if self.record {
            self.rec
        } else {
            Recorder::new(self.spec.epoch, 0)
        }
    }

    fn request_id(&mut self) -> u64 {
        self.next_request += 1;
        self.next_request
    }

    /// Cache-key fingerprint of `graph` at `version`, as the server keys it.
    fn fingerprint(&self, graph: usize, version: u64) -> u64 {
        if self.spec.workload == Workload::MutateRw {
            self.version_fps[version as usize]
        } else {
            self.sh.fingerprint(self.client, graph)
        }
    }

    pub fn color(
        &mut self,
        sent: Instant,
        received: Instant,
        graph: usize,
        objective: &WireObjective,
        seed: u64,
        summary: &ColorSummary,
    ) {
        if self.spec.workload == Workload::MutateRw {
            self.await_writer(summary.version);
        }
        let req = self.request_id();
        let root = self.rec.root(req, sent, received);
        let g = Arc::clone(self.spec.graph(graph));
        let graph_id = self.spec.workload.graph_id(self.client, graph);

        let (req_bytes, reply_bytes) =
            self.rec.layer(root, req, "net.codec", "net.codec_ms", || {
                let msg = ColorReq {
                    graph_id,
                    objective: objective.clone(),
                    seed,
                    deadline_ms: 0,
                };
                let body = msg.encode().expect("request encodes");
                black_box(ColorReq::decode(&body).expect("request decodes"));
                let reply = summary.encode().expect("reply encodes");
                black_box(ColorSummary::decode(&reply).expect("reply decodes"));
                (body.len(), reply.len())
            });
        self.rec.sample("net.request_bytes", req_bytes as f64);
        self.rec.sample("net.reply_bytes", reply_bytes as f64);

        let objective_s = service_objective(objective);
        let feats = self
            .rec
            .layer(root, req, "service.features", "service.features_ms", || {
                policy::features(&g)
            });
        let colorer = self
            .rec
            .layer(root, req, "service.choose", "service.choose_us", || {
                policy::choose(&feats, &objective_s)
            })
            .expect("objective resolves");
        let devices = if colorer.is_gpu() { self.sh.devices } else { 1 };
        let fp = self.fingerprint(graph, summary.version);
        let budget = match objective {
            WireObjective::MinColors { budget_ms } => Some(*budget_ms),
            _ => None,
        };
        let key = CacheKey {
            graph_fp: fp,
            colorer: colorer.name(),
            seed,
            devices,
            reduce_budget_ms: budget,
        };
        let base_key = CacheKey {
            reduce_budget_ms: None,
            ..key.clone()
        };
        let replica = &self.sh.replica;
        // A hit clones the cached coloring, as the server clones the
        // cached response.
        let (hit, base) = self.rec.layer(
            root,
            req,
            "service.cache_get",
            "service.cache_get_us",
            || {
                let hit = replica.get(&key).map(|c| (*c).clone());
                let base = match (&hit, budget) {
                    (None, Some(_)) => replica.get(&base_key).map(|c| (*c).clone()),
                    _ => None,
                };
                (hit, base)
            },
        );
        if hit.is_none() {
            let mut colors = match base {
                Some(colors) => colors,
                None => {
                    let colors = if devices > 1 {
                        self.sharded(root, req, &colorer, &g, seed, devices)
                    } else {
                        self.single(root, req, &colorer, &g, seed)
                    };
                    self.verify(root, req, &g, &colors);
                    if budget.is_some() {
                        let base_colors = Arc::new(colors.clone());
                        self.rec.layer(
                            root,
                            req,
                            "service.cache_insert",
                            "service.cache_insert_us",
                            || replica.insert(base_key, base_colors),
                        );
                    }
                    colors
                }
            };
            if let Some(budget_ms) = budget {
                let out = self
                    .rec
                    .layer(root, req, "core.reduce", "core.reduce_ms", || {
                        reduce_colors(
                            &Device::k40c(),
                            &g,
                            &mut colors,
                            ReduceBudget::model_ms(budget_ms as f64),
                        )
                    });
                self.rec.sample("core.reduce_passes", out.passes as f64);
                self.verify(root, req, &g, &colors);
            }
            let value = Arc::new(colors);
            self.rec.layer(
                root,
                req,
                "service.cache_insert",
                "service.cache_insert_us",
                || replica.insert(key, value),
            );
        }

        // The same request through the benchmark's own service.
        let request = ColorRequest::new(g, objective_s)
            .with_seed(seed)
            .with_fingerprint(fp);
        let handle = &self.sh.handle;
        let response = self
            .rec
            .side(root, req, "service.handle", "service.handle_ms", || {
                handle.color(request)
            });
        let handle_ms = self.rec.last_ms();
        self.rec.sample(
            "net.overhead_ms",
            (received - sent).as_secs_f64() * 1e3 - handle_ms,
        );
        if let Ok(response) = response {
            let mut primed = self.sh.primed.lock().expect("primed response poisoned");
            if primed.is_none() && self.spec.workload == Workload::MutateRw {
                *primed = Some(response);
            }
        }
    }

    /// Waits (bounded) until the writer's replay has carried the owned
    /// service's entry to `version`, so the in-process comparison of a
    /// reader `Color` is a hit as the server's was.
    fn await_writer(&self, version: u64) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while self.sh.replayed_version.load(Ordering::SeqCst) < version && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    fn single(
        &mut self,
        root: u64,
        req: u64,
        colorer: &gc_core::runner::Colorer,
        g: &Csr,
        seed: u64,
    ) -> Vec<u32> {
        let r = self
            .rec
            .layer(root, req, "core.color", "core.color_ms", || {
                colorer.run(g, seed)
            });
        let wall_ms = self.rec.last_ms();
        let c = slug(colorer.name());
        self.rec.sample(format!("core.color_ms.{c}"), wall_ms);
        self.rec.sample(format!("core.model_ms.{c}"), r.model_ms);
        self.rec
            .sample(format!("core.colors.{c}"), r.num_colors as f64);
        if let Some(p) = &r.profile {
            self.rec
                .sample(format!("vgpu.launches.{c}"), p.launches as f64);
            self.rec.sample(
                format!("vgpu.thread_executions.{c}"),
                p.thread_executions as f64,
            );
            self.rec
                .sample(format!("vgpu.kernel_bytes.{c}"), p.kernel_bytes as f64);
            self.rec
                .sample(format!("vgpu.memcpy_bytes.{c}"), p.memcpy_bytes as f64);
            self.rec
                .sample(format!("vgpu.graph_replays.{c}"), p.graph_replays as f64);
            let k40c = DeviceConfig::k40c();
            for (name, k) in &p.by_kernel {
                self.rec.sample(
                    format!("vgpu.kernel.{}.model_ms", slug(name)),
                    k40c.cycles_to_ns(k.total_cycles) / 1e6,
                );
            }
            if p.thread_executions > 0 {
                self.rec.sample(
                    "vgpu.ns_per_thread",
                    wall_ms * 1e6 / p.thread_executions as f64,
                );
            }
            if r.model_ms > 0.0 {
                self.rec.sample("vgpu.wall_per_model", wall_ms / r.model_ms);
            }
        }
        r.coloring.as_slice().to_vec()
    }

    fn sharded(
        &mut self,
        root: u64,
        req: u64,
        colorer: &gc_core::runner::Colorer,
        g: &Csr,
        seed: u64,
        devices: usize,
    ) -> Vec<u32> {
        // The service verifies the merged coloring itself, and so does
        // the replay (the `core.verify` layer).
        let cfg = ShardedConfig {
            verify: false,
            ..ShardedConfig::new(devices)
        };
        let r = self.rec.layer(root, req, "shard.run", "shard.run_ms", || {
            run_sharded(colorer, g, seed, &cfg)
        });
        self.rec
            .sample("shard.conflict_rounds", r.conflict_rounds as f64);
        self.rec
            .sample("shard.halo_bytes_delta", r.halo_bytes_delta as f64);
        self.rec.sample("shard.overlap_ratio", r.overlap_ratio);
        self.rec.sample(
            "shard.max_device_thread_executions",
            r.max_device_thread_executions() as f64,
        );
        r.result.coloring.as_slice().to_vec()
    }

    fn verify(&mut self, root: u64, req: u64, g: &Csr, colors: &[u32]) {
        let ok = self
            .rec
            .layer(root, req, "core.verify", "core.verify_ms", || {
                is_proper(g, colors)
            });
        assert!(
            ok.is_ok(),
            "replayed coloring is improper: the program's colorers are not deterministic"
        );
    }

    pub fn fetch(
        &mut self,
        sent: Instant,
        received: Instant,
        graph: usize,
        payload: &ResultPayload,
    ) {
        let req = self.request_id();
        let root = self.rec.root(req, sent, received);
        let graph_id = self.spec.workload.graph_id(self.client, graph);
        let (req_bytes, reply_bytes) =
            self.rec.layer(root, req, "net.codec", "net.codec_ms", || {
                let body = GetResult { graph_id }.encode();
                black_box(GetResult::decode(&body).expect("request decodes"));
                let reply = payload.encode();
                black_box(ResultPayload::decode(&reply).expect("reply decodes"));
                (body.len(), reply.len())
            });
        self.rec.sample("net.request_bytes", req_bytes as f64);
        self.rec.sample("net.reply_bytes", reply_bytes as f64);
    }

    pub fn mutate(&mut self, sent: Instant, received: Instant, step: usize, ack: &MutateAck) {
        let req = self.request_id();
        let root = self.rec.root(req, sent, received);
        let spec = self.spec;
        let graph = spec.workload.graphs()[0];
        let delta = &spec.plan.toggles[step];
        let graph_id = spec.workload.graph_id(self.client, graph);
        let (req_bytes, reply_bytes) =
            self.rec.layer(root, req, "net.codec", "net.codec_ms", || {
                let msg = MutateEdges {
                    graph_id,
                    insert: delta.insert.clone(),
                    delete: delta.delete.clone(),
                };
                let body = msg.encode();
                black_box(MutateEdges::decode(&body).expect("request decodes"));
                let reply = ack.encode();
                black_box(MutateAck::decode(&reply).expect("reply decodes"));
                (body.len(), reply.len())
            });
        self.rec.sample("net.request_bytes", req_bytes as f64);
        self.rec.sample("net.reply_bytes", reply_bytes as f64);

        let mut ws = match self.writer.take() {
            Some(ws) => ws,
            None => self.writer_state(),
        };
        let out = self
            .rec
            .layer(
                root,
                req,
                "graph.delta_apply",
                "graph.delta_apply_ms",
                || apply_edge_delta(&ws.graph, delta),
            )
            .expect("toggle deltas are valid");
        self.rec
            .sample("graph.delta_touched", out.touched.len() as f64);
        let new_fp = self.rec.layer(
            root,
            req,
            "service.lineage_fp",
            "service.lineage_fp_us",
            || lineage_fingerprint(ws.fp, delta),
        );
        let before = ws.dev.profile().thread_executions;
        let repair = self
            .rec
            .layer(root, req, "shard.repair", "shard.repair_ms", || {
                repair_frontier(
                    &ws.dev,
                    &out.graph,
                    &mut ws.colors,
                    &out.touched,
                    MAX_REPAIR_ROUNDS,
                )
            });
        self.rec.sample("shard.repair_rounds", repair.rounds as f64);
        self.rec.sample(
            "shard.repair_thread_executions",
            (ws.dev.profile().thread_executions - before) as f64,
        );
        self.verify(root, req, &out.graph, &ws.colors);

        // Carry the entry across the mutation, in the replica and in the
        // owned service, as the server revalidates its cache.
        ws.response.coloring = Coloring::new(ws.colors.clone());
        ws.response.num_colors = ws.response.coloring.num_colors();
        let new_key = CacheKey {
            graph_fp: new_fp,
            ..ws.key.clone()
        };
        let (replica, handle) = (&self.sh.replica, &self.sh.handle);
        let value = Arc::new(ws.colors.clone());
        let response = ws.response.clone();
        let old_key = ws.key.clone();
        let replica_key = new_key.clone();
        self.rec.layer(
            root,
            req,
            "service.cache_insert",
            "service.cache_insert_us",
            || {
                replica.insert(replica_key, value);
                handle.revalidate_cached(&old_key, new_key.clone(), response);
            },
        );
        ws.graph = out.graph;
        ws.fp = new_fp;
        ws.key = new_key;
        self.writer = Some(ws);
        self.sh
            .replayed_version
            .store(step as u64 + 1, Ordering::SeqCst);
    }

    /// The writer's starting point: the owned service's coloring of the
    /// reader's primed key on the unmutated graph.
    fn writer_state(&self) -> WriterState {
        let spec = self.spec;
        let graph = spec.workload.graphs()[0];
        let response = self
            .sh
            .primed
            .lock()
            .expect("primed response poisoned")
            .clone()
            .expect("the reader's key is primed during set-up");
        let seed = match &spec.plan.prime[1][0] {
            Op::Color { seed, .. } => *seed,
            op => unreachable!("mutate_rw primes a Color, not {op:?}"),
        };
        let fp = self.version_fps[0];
        WriterState {
            graph: spec.graph(graph).as_ref().clone(),
            colors: response.coloring.as_slice().to_vec(),
            fp,
            dev: Device::k40c(),
            key: CacheKey {
                graph_fp: fp,
                colorer: response.colorer,
                seed,
                devices: response.devices,
                reduce_budget_ms: None,
            },
            response,
        }
    }
}
