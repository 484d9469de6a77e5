//! One repeat of a workload: set-up (dataset synthesis, server start,
//! `SubmitGraph` uploads, priming), then the timed, closed-loop phase in
//! which every client sends its next request only after the previous
//! reply arrived.
//!
//! Every reply is checked: `Color` summaries must be verified, name the
//! expected colorer and hit or miss the cache as the workload intends;
//! every fetched coloring is checked with `is_proper` against the
//! benchmark's own copy of the graph (on `mutate_rw`, the copy with the
//! cumulative delta applied). A failed check counts as a failed request.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use gc_core::verify::is_proper;
use gc_datasets::dataset_by_name;
use gc_graph::{apply_edge_delta, Csr, EdgeDelta};
use gc_net::{NetClient, NetServerConfig, Server, WireObjective};
use gc_service::{policy, Objective, ServiceConfig, StatsSnapshot};

use crate::replay::{Replayer, TraceShared};
use crate::trace::Recorder;
use crate::workload::{self, Op, Plan, Workload, DATASETS, SCALE};

/// Everything about a run that stays fixed across its repeats.
pub struct RunSpec {
    pub workload: Workload,
    pub seed: u64,
    pub plan: Plan,
    /// The benchmark's own copies of the datasets, in [`DATASETS`] order.
    pub graphs: Vec<Option<Arc<Csr>>>,
    /// Expected colorer per (graph, objective), resolved through the
    /// service's own policy on the benchmark's copy of the graph.
    pub expected: HashMap<(usize, String), &'static str>,
    /// Process start: repeat 0's set-up is timed from here.
    pub epoch: Instant,
}

/// Server config of a workload: the defaults (2 workers, 128-entry
/// cache, buffer pooling), sharded across the workload's devices.
pub fn service_config(w: Workload) -> ServiceConfig {
    ServiceConfig::default().devices(w.devices())
}

pub fn service_objective(o: &WireObjective) -> Objective {
    match o {
        WireObjective::Fastest => Objective::Fastest,
        WireObjective::FewestColors => Objective::FewestColors,
        WireObjective::Balanced => Objective::Balanced,
        WireObjective::Explicit(name) => Objective::Explicit(name.clone()),
        WireObjective::MinColors { budget_ms } => Objective::MinColors {
            budget_ms: *budget_ms,
        },
    }
}

pub fn objective_key(o: &WireObjective) -> String {
    format!("{o:?}")
}

/// Synthesizes the datasets `w` serves, recording each synthesis time.
pub fn synthesize(w: Workload, seed: u64, rec: &mut Recorder) -> Vec<Option<Arc<Csr>>> {
    let mut graphs = vec![None; DATASETS.len()];
    for &g in w.graphs() {
        let spec = dataset_by_name(DATASETS[g]).expect("Table I dataset");
        let t = Instant::now();
        let csr = spec.generate(SCALE, workload::dataset_seed(seed));
        rec.sample("datasets.generate_ms", t.elapsed().as_secs_f64() * 1e3);
        graphs[g] = Some(Arc::new(csr));
    }
    graphs
}

impl RunSpec {
    pub fn new(workload: Workload, seed: u64, epoch: Instant, rec: &mut Recorder) -> Self {
        let graphs = synthesize(workload, seed, rec);
        let plan = workload::plan(workload, seed, workload::SIZES, &graphs);
        let mut expected = HashMap::new();
        for op in plan.prime.iter().chain(&plan.clients).flatten() {
            if let Op::Color {
                graph, objective, ..
            } = op
            {
                expected
                    .entry((*graph, objective_key(objective)))
                    .or_insert_with(|| {
                        let g = graphs[*graph].as_deref().expect("served graph");
                        policy::choose(&policy::features(g), &service_objective(objective))
                            .expect("every benchmark objective resolves")
                            .name()
                    });
            }
        }
        RunSpec {
            workload,
            seed,
            plan,
            graphs,
            expected,
            epoch,
        }
    }

    pub fn graph(&self, g: usize) -> &Arc<Csr> {
        self.graphs[g].as_ref().expect("served graph")
    }
}

/// Which requests a client sent and what came back.
#[derive(Default)]
pub struct ClientLog {
    pub attempted: u64,
    pub failures: Vec<String>,
    /// Round trips as (round, ms): the lock-step round each request was
    /// sent in, and its latency.
    pub color_ms: Vec<(usize, f64)>,
    pub fetch_ms: Vec<(usize, f64)>,
    pub check_ms: Vec<(usize, f64)>,
    pub mutate_ms: Vec<(usize, f64)>,
    /// Client-observed round trip of every timed request, in order.
    pub e2e_ms: Vec<f64>,
    /// Per-request determinism records, in sequence order.
    pub det: Vec<String>,
    /// `model_ms` of `Color` replies, in order.
    pub model_ms: Vec<f64>,
    /// `num_colors` of `Color` replies (on `mutate_rw`, of `MutateAck`
    /// replies), in order.
    pub colors: Vec<f64>,
    /// `Color` round trips by `colorer@dataset`, for the report.
    pub by_type: Vec<(String, f64)>,
}

impl ClientLog {
    fn fail(&mut self, what: String) {
        self.failures.push(what);
    }
}

/// What one repeat measured.
pub struct Repeat {
    pub setup_s: f64,
    pub timed_s: f64,
    /// When each lock-step round of the timed phase started, in seconds
    /// from its start.
    pub round_start_s: Vec<f64>,
    /// The process's peak resident set when this repeat ended, in MB.
    pub peak_rss_mb: Option<f64>,
    pub logs: Vec<ClientLog>,
    /// Service counters over the timed phase.
    pub stats: StatsDelta,
    /// Buffer-pool (hits, misses) over the timed phase.
    pub pool: (u64, u64),
    /// Spans and samples of a traced repeat, plus set-up samples.
    pub rec: Recorder,
}

#[derive(Clone, Copy, Debug, Default)]
pub struct StatsDelta {
    pub served: u64,
    pub cache_hits: u64,
    pub revalidated: u64,
    pub failed: u64,
    pub shed: u64,
}

impl StatsDelta {
    fn between(a: &StatsSnapshot, b: &StatsSnapshot) -> Self {
        StatsDelta {
            served: b.served - a.served,
            cache_hits: b.cache_hits - a.cache_hits,
            revalidated: b.revalidated - a.revalidated,
            failed: b.failed - a.failed,
            shed: (b.shed + b.rejected) - (a.shed + a.rejected),
        }
    }

    pub fn hit_ratio(&self) -> f64 {
        if self.served == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.served as f64
        }
    }
}

/// The longest a client waits for one reply.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// The barrier of the lock-step rounds. A client thread that unwinds
/// abandons it, so a panic in one client ends the run instead of leaving
/// the others waiting forever.
struct RoundBarrier {
    /// (arrived this round, round number, abandoned)
    state: Mutex<(usize, u64, bool)>,
    cv: Condvar,
    clients: usize,
}

impl RoundBarrier {
    fn new(clients: usize) -> Self {
        RoundBarrier {
            state: Mutex::new((0, 0, false)),
            cv: Condvar::new(),
            clients,
        }
    }

    fn wait(&self) {
        let mut s = self.state.lock().expect("round barrier poisoned");
        if s.2 {
            return;
        }
        let round = s.1;
        s.0 += 1;
        if s.0 == self.clients {
            *s = (0, round + 1, false);
            self.cv.notify_all();
            return;
        }
        while s.1 == round && !s.2 {
            s = self.cv.wait(s).expect("round barrier poisoned");
        }
    }
}

struct AbandonOnUnwind<'a>(&'a RoundBarrier);

impl Drop for AbandonOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let mut s = self.0.state.lock().unwrap_or_else(|e| e.into_inner());
            s.2 = true;
            self.0.cv.notify_all();
        }
    }
}

/// Runs one repeat: set-up timed from `start`, then the timed phase.
/// With `traced`, every reply is replayed layer by layer afterwards.
pub fn repeat(spec: &RunSpec, start: Instant, traced: bool, index: usize) -> Repeat {
    let w = spec.workload;
    let mut rec = Recorder::new(spec.epoch, (index as u64 + 1) << 40);
    // Repeat 0 serves the datasets `spec` synthesized since process
    // start; later repeats synthesize them again, as part of their own
    // set-up (synthesis is deterministic, so the copies are equal).
    let graphs = if index == 0 {
        spec.graphs.clone()
    } else {
        synthesize(w, spec.seed, &mut rec)
    };
    let server = Server::start(
        "127.0.0.1:0",
        NetServerConfig {
            service: service_config(w),
        },
    )
    .expect("bind a loopback port");
    let shared = traced.then(|| TraceShared::new(spec));
    let mut clients: Vec<NetClient> = (0..w.clients())
        .map(|_| {
            let client = NetClient::connect(server.local_addr()).expect("connect to the server");
            // A server that stops answering fails the run instead of
            // hanging it.
            client
                .set_read_timeout(Some(REPLY_TIMEOUT))
                .expect("set a socket read timeout");
            client
        })
        .collect();
    let mut logs: Vec<ClientLog> = (0..w.clients()).map(|_| ClientLog::default()).collect();

    for (c, client) in clients.iter_mut().enumerate() {
        for &g in w.graphs() {
            if c > 0 && w == Workload::MutateRw {
                continue;
            }
            let csr = graphs[g].as_deref().expect("served graph");
            let t = Instant::now();
            let ack = client.submit_graph(w.graph_id(c, g), csr);
            rec.sample("net.submit_ms", t.elapsed().as_secs_f64() * 1e3);
            logs[c].attempted += 1;
            match ack {
                Ok(ack) => {
                    if let Some(sh) = &shared {
                        let t = Instant::now();
                        let fp = gc_service::graph_fingerprint(csr);
                        rec.sample("service.fingerprint_ms", t.elapsed().as_secs_f64() * 1e3);
                        if fp != ack.fingerprint {
                            logs[c]
                                .fail(format!("graph {g}: fingerprint differs from the server's"));
                        }
                        sh.set_fingerprint(c, g, ack.fingerprint);
                    }
                }
                Err(e) => logs[c].fail(format!("submit {}: {e}", DATASETS[g])),
            }
        }
    }
    if let Some(sh) = &shared {
        if w == Workload::MutateRw {
            let fp = sh.fingerprint(0, 0);
            sh.set_fingerprint(1, 0, fp);
        }
    }

    // Priming: colored once here so the timed phase finds them cached.
    for (c, client) in clients.iter_mut().enumerate() {
        let mut replayer = shared.as_ref().map(|sh| Replayer::new(sh, spec, c, false));
        for op in &spec.plan.prime[c] {
            let mut ctx = Ctx {
                spec,
                client: c,
                last_colors: HashMap::new(),
                round: 0,
            };
            ctx.send(
                client,
                op,
                &mut logs[c],
                replayer.as_mut(),
                Expect::Miss,
                false,
            );
        }
        if let Some(r) = replayer {
            rec.absorb(r.finish());
        }
    }
    let before = server.stats();
    let pool_before = gc_vgpu::pool::stats();
    let setup_s = start.elapsed().as_secs_f64();

    let expect = match w {
        Workload::MissMix | Workload::ShardedMiss => Expect::Miss,
        Workload::HitMid | Workload::MutateRw => Expect::Hit,
    };
    let barrier = RoundBarrier::new(clients.len());
    let timed_start = Instant::now();
    let results: Vec<(ClientLog, Option<Recorder>, Vec<Instant>)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(std::mem::take(&mut logs))
            .enumerate()
            .map(|(c, (client, mut log))| {
                let (shared, barrier) = (&shared, &barrier);
                s.spawn(move || {
                    let _abandon = AbandonOnUnwind(barrier);
                    let mut replayer = shared.as_ref().map(|sh| Replayer::new(sh, spec, c, true));
                    let mut ctx = Ctx {
                        spec,
                        client: c,
                        last_colors: HashMap::new(),
                        round: 0,
                    };
                    // Lock-step rounds (see `Plan::clients`).
                    let rounds = spec.plan.rounds();
                    let two_phase = spec.plan.clients.iter().any(|o| o.len() > rounds);
                    let mut starts = Vec::new();
                    for (round, chunk) in spec.plan.round_ops(c).enumerate() {
                        barrier.wait();
                        if c == 0 {
                            starts.push(Instant::now());
                        }
                        ctx.round = round;
                        let (first, rest) = chunk.split_at(1);
                        ctx.send(client, &first[0], &mut log, replayer.as_mut(), expect, true);
                        if two_phase {
                            barrier.wait();
                        }
                        for op in rest {
                            ctx.send(client, op, &mut log, replayer.as_mut(), expect, true);
                        }
                    }
                    (log, replayer.map(Replayer::finish), starts)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let timed_s = timed_start.elapsed().as_secs_f64();
    let after = server.stats();
    let pool_after = gc_vgpu::pool::stats();
    let mut round_start_s = Vec::new();
    for (log, r, starts) in results {
        round_start_s.extend(starts.iter().map(|t| (*t - timed_start).as_secs_f64()));
        logs.push(log);
        if let Some(r) = r {
            rec.absorb(r);
        }
    }

    if w == Workload::MutateRw {
        final_state_check(spec, &mut clients[0], &mut logs[0]);
    }
    drop(clients);
    server.stop();

    Repeat {
        setup_s,
        timed_s,
        round_start_s,
        peak_rss_mb: peak_rss_mb(),
        logs,
        stats: StatsDelta::between(&before, &after),
        pool: (
            pool_after.hits - pool_before.hits,
            pool_after.misses - pool_before.misses,
        ),
        rec,
    }
}

/// After the writer's last delta, the stored coloring must be proper on
/// the benchmark's own copy of the graph with every delta applied.
fn final_state_check(spec: &RunSpec, client: &mut NetClient, log: &mut ClientLog) {
    let w = spec.workload;
    let g = w.graphs()[0];
    let steps = spec.plan.toggles.len();
    let cumulative = EdgeDelta {
        insert: workload::present_after(&spec.plan.toggles, steps),
        delete: Vec::new(),
    };
    let local = apply_edge_delta(spec.graph(g), &cumulative).expect("toggle pairs are valid");
    log.attempted += 1;
    match client.get_result(w.graph_id(0, g)) {
        Ok(p) if p.version != steps as u64 => log.fail(format!(
            "final fetch at version {}, expected {steps}",
            p.version
        )),
        Ok(p) if p.colors.len() != local.graph.num_vertices() => {
            log.fail("final fetch has the wrong length".into())
        }
        Ok(p) => {
            if let Err(v) = is_proper(&local.graph, &p.colors) {
                log.fail(format!("final coloring improper on the mutated graph: {v}"));
            }
        }
        Err(e) => log.fail(format!("final fetch: {e}")),
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Expect {
    Hit,
    Miss,
}

struct Ctx<'a> {
    spec: &'a RunSpec,
    client: usize,
    /// `num_colors` of this client's last `Color` per graph, which its
    /// next `GetResult` of that graph must return.
    last_colors: HashMap<usize, u32>,
    /// The lock-step round being sent.
    round: usize,
}

impl Ctx<'_> {
    /// Sends `op`, times it, checks the reply, and (when traced) replays
    /// it. `timed` requests are recorded; priming requests are only
    /// checked.
    fn send(
        &mut self,
        client: &mut NetClient,
        op: &Op,
        log: &mut ClientLog,
        replayer: Option<&mut Replayer>,
        expect: Expect,
        timed: bool,
    ) {
        let spec = self.spec;
        let w = spec.workload;
        log.attempted += 1;
        match op {
            Op::Color {
                graph,
                objective,
                seed,
            } => {
                let t = Instant::now();
                let reply =
                    client.color(w.graph_id(self.client, *graph), objective.clone(), *seed, 0);
                let end = Instant::now();
                let s = match reply {
                    Ok(s) => s,
                    Err(e) => {
                        return log.fail(format!("Color {} {objective:?}: {e}", DATASETS[*graph]))
                    }
                };
                let want = spec.expected[&(*graph, objective_key(objective))];
                let mut bad = Vec::new();
                if !s.verified {
                    bad.push("unverified".to_string());
                }
                if s.colorer != want {
                    bad.push(format!("colorer {} (expected {want})", s.colorer));
                }
                if timed && s.cache_hit != (expect == Expect::Hit) {
                    bad.push(format!("cache_hit={}", s.cache_hit));
                }
                if s.devices as usize != w.devices() {
                    bad.push(format!("ran on {} devices", s.devices));
                }
                if !bad.is_empty() {
                    return log.fail(format!(
                        "Color {} {objective:?}: {}",
                        DATASETS[*graph],
                        bad.join(", ")
                    ));
                }
                self.last_colors.insert(*graph, s.num_colors);
                if let Some(r) = replayer {
                    r.color(t, end, *graph, objective, *seed, &s);
                }
                if !timed {
                    return;
                }
                let ms = (end - t).as_secs_f64() * 1e3;
                log.color_ms.push((self.round, ms));
                log.by_type
                    .push((format!("{}@{}", s.colorer, DATASETS[*graph]), ms));
                log.e2e_ms.push(ms);
                log.model_ms.push(s.model_ms);
                if w == Workload::MutateRw {
                    // Whether a read lands before or after its round's
                    // mutation commits is timing, and so is the repaired
                    // coloring's color count it sees; the acks carry
                    // `colors_mean` on this workload.
                    log.det
                        .push(format!("{}|{:016x}", s.colorer, s.model_ms.to_bits()));
                } else {
                    log.det.push(format!(
                        "{}|{}|{:016x}",
                        s.colorer,
                        s.num_colors,
                        s.model_ms.to_bits()
                    ));
                    log.colors.push(s.num_colors as f64);
                }
            }
            Op::Fetch { graph } | Op::Check { graph } => {
                let t = Instant::now();
                let reply = client.get_result(w.graph_id(self.client, *graph));
                let end = Instant::now();
                let p = match reply {
                    Ok(p) => p,
                    Err(e) => return log.fail(format!("GetResult {}: {e}", DATASETS[*graph])),
                };
                if let Some(r) = replayer {
                    r.fetch(t, end, *graph, &p);
                }
                if let Err(why) = self.check_fetch(*graph, &p) {
                    return log.fail(format!("GetResult {}: {why}", DATASETS[*graph]));
                }
                let ms = (end - t).as_secs_f64() * 1e3;
                match op {
                    Op::Check { .. } => log.check_ms.push((self.round, ms)),
                    _ => log.fetch_ms.push((self.round, ms)),
                }
                log.e2e_ms.push(ms);
            }
            Op::Mutate { step } => {
                let delta = &spec.plan.toggles[*step];
                let graph = w.graphs()[0];
                let t = Instant::now();
                let reply = client.mutate_edges(w.graph_id(self.client, graph), delta);
                let end = Instant::now();
                let a = match reply {
                    Ok(a) => a,
                    Err(e) => return log.fail(format!("MutateEdges step {step}: {e}")),
                };
                let want_version = *step as u64 + 1;
                if a.version != want_version
                    || a.inserted as usize != delta.insert.len()
                    || a.deleted as usize != delta.delete.len()
                    || !a.revalidated
                {
                    return log.fail(format!(
                        "MutateEdges step {step}: version {} (expected {want_version}), \
                         +{} -{} (expected +{} -{}), revalidated={}",
                        a.version,
                        a.inserted,
                        a.deleted,
                        delta.insert.len(),
                        delta.delete.len(),
                        a.revalidated
                    ));
                }
                if let Some(r) = replayer {
                    r.mutate(t, end, *step, &a);
                }
                let ms = (end - t).as_secs_f64() * 1e3;
                log.mutate_ms.push((self.round, ms));
                log.e2e_ms.push(ms);
                log.det.push(format!(
                    "ack|{}|{}|{}|{}",
                    a.version, a.num_colors, a.frontier, a.repair_rounds
                ));
                log.colors.push(a.num_colors as f64);
            }
        }
    }

    /// A fetched coloring must be proper on the benchmark's copy of the
    /// graph at the fetched version.
    fn check_fetch(&self, graph: usize, p: &gc_net::ResultPayload) -> Result<(), String> {
        let base = self.spec.graph(graph);
        if p.colors.len() != base.num_vertices() {
            return Err(format!(
                "{} colors for {} vertices",
                p.colors.len(),
                base.num_vertices()
            ));
        }
        is_proper(base, &p.colors).map_err(|v| format!("improper: {v}"))?;
        if self.spec.workload == Workload::MutateRw {
            // The graph at version v is the base plus the toggle pairs
            // present after v deltas (every pair is absent from the
            // base), so properness there is properness on the base plus
            // a distinct color across every present pair.
            let toggles = &self.spec.plan.toggles;
            let v = usize::try_from(p.version).unwrap_or(usize::MAX);
            if v > toggles.len() {
                return Err(format!(
                    "version {v} beyond the {} deltas sent",
                    toggles.len()
                ));
            }
            for (a, b) in workload::present_after(toggles, v) {
                if p.colors[a as usize] == p.colors[b as usize] {
                    return Err(format!("edge ({a}, {b}) of version {v} is monochromatic"));
                }
            }
        } else if self.last_colors.get(&graph) != Some(&p.num_colors) {
            return Err(format!(
                "{} colors, but this client's last Color returned {:?}",
                p.num_colors,
                self.last_colors.get(&graph)
            ));
        }
        Ok(())
    }
}

/// Peak resident set of this process (server and clients), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_keep_clients_together_and_a_panic_releases_them() {
        let barrier = RoundBarrier::new(2);
        let passed = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|s| {
            let failing = s.spawn(|| {
                let _abandon = AbandonOnUnwind(&barrier);
                barrier.wait();
                passed.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                panic!("client fails after one round");
            });
            let waiting = s.spawn(|| {
                for _ in 0..3 {
                    barrier.wait();
                }
            });
            assert!(failing.join().is_err());
            waiting.join().expect("the surviving client finishes");
        });
        assert_eq!(passed.into_inner(), 1);
    }
}
