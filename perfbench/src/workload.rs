//! Workloads: which graphs each one serves, and the fixed, seed-derived
//! request sequence every client replays.
//!
//! Everything a run sends is derived here from the one `--seed`
//! argument: the dataset synthesis seed, every `Color` seed, and the
//! pool of edge toggles the `mutate_rw` writer streams. The server only
//! ever sees the generated graphs and requests.

use std::sync::Arc;

use gc_graph::{Csr, EdgeDelta};
use gc_net::WireObjective;

/// Table I stand-ins every workload draws from, at [`SCALE`].
pub const DATASETS: [&str; 4] = ["ecology2", "G3_circuit", "offshore", "thermomech_dK"];

/// Dataset scale: ecology2 195K, G3_circuit 320K, offshore 52K and
/// thermomech_dK 41K vertices.
pub const SCALE: f64 = 0.2;

/// A second seed, never used while the benchmark was tuned, for checking
/// a claimed gain on inputs the change was not written against.
pub const HELD_OUT_SEED: u64 = 7_331_911;

/// The reduction budget of the `MinColors` path (model milliseconds).
pub const MIN_COLORS_BUDGET_MS: u64 = 5;

/// Edges per `MutateEdges` toggle on `mutate_rw`.
pub const TOGGLE_EDGES: usize = 8;

/// Absent long-range vertex pairs the `mutate_rw` toggles draw from.
const TOGGLE_POOL: usize = 64;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Every `Color` misses the cache: the nine Figure 1 colorers plus
    /// the `MinColors` quality path, cycled over all four graphs.
    MissMix,
    /// `Color` / `GetResult` pairs on keys primed during set-up.
    HitMid,
    /// One writer streams edge toggles into ecology2 while one reader
    /// alternates `Color` (a revalidated hit) and `GetResult`.
    MutateRw,
    /// Cache misses through the two-device sharded path.
    ShardedMiss,
}

pub const ALL: [Workload; 4] = [
    Workload::MissMix,
    Workload::HitMid,
    Workload::MutateRw,
    Workload::ShardedMiss,
];

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::MissMix => "miss_mix",
            Workload::HitMid => "hit_mid",
            Workload::MutateRw => "mutate_rw",
            Workload::ShardedMiss => "sharded_miss",
        }
    }

    /// Indices into [`DATASETS`] this workload serves.
    pub fn graphs(self) -> &'static [usize] {
        match self {
            Workload::MissMix | Workload::HitMid => &[0, 1, 2, 3],
            Workload::MutateRw => &[0],
            Workload::ShardedMiss => &[0, 1],
        }
    }

    /// The graph of each request slot of a cycle. `miss_mix` colors
    /// ecology2 twice per path: fetch latency grows with the graph, and
    /// with the four graphs weighted 1:1:1:1 the median would fall on the
    /// edge between the two small graphs' cluster and ecology2's; at
    /// 2:1:1:1 it lies inside ecology2's and p90 inside G3_circuit's.
    pub fn graph_slots(self) -> &'static [usize] {
        match self {
            Workload::MissMix => &[0, 1, 2, 3, 0],
            _ => self.graphs(),
        }
    }

    /// Client connections driving the server.
    pub fn clients(self) -> usize {
        match self {
            Workload::ShardedMiss => 1,
            _ => 2,
        }
    }

    /// Passes over [`Workload::graph_slots`] of the `GetResult` phase that
    /// ends each repeat of a cache-miss workload: enough for 100 fetches a
    /// repeat, and so a p90 of its own (see [`crate::stats::MIN_BEYOND`]).
    pub fn fetch_passes(self) -> usize {
        match self {
            Workload::MissMix => 10,
            Workload::ShardedMiss => 50,
            Workload::HitMid | Workload::MutateRw => 0,
        }
    }

    /// Lock-step rounds per measurement window, or `None` when a window
    /// is a whole repeat. Latency percentiles and throughput are taken per
    /// window and reported as the median over the run's windows, so a
    /// burst of load from outside the benchmark moves a few windows, not
    /// the result. Every window of a workload holds the same requests
    /// and at least 100 samples of each kind it times:
    /// - `hit_mid`: 80 `Color` + `GetResult` pairs per client, ten passes
    ///   round the key ring;
    /// - `mutate_rw`: 100 deltas, each with the reader's `Color` and
    ///   `GetResult`;
    /// - the cache-miss workloads: a whole repeat, since only a whole
    ///   sequence covers every path on every graph.
    pub fn window_rounds(self) -> Option<usize> {
        match self {
            Workload::HitMid => Some(160),
            Workload::MutateRw => Some(100),
            Workload::MissMix | Workload::ShardedMiss => None,
        }
    }

    /// Virtual devices per request on the server.
    pub fn devices(self) -> usize {
        match self {
            Workload::ShardedMiss => 2,
            _ => 1,
        }
    }

    /// Graph id a client uses for a dataset. Each client tracks its own
    /// copy so a `GetResult` returns the coloring of the same client's
    /// last `Color`; `mutate_rw` shares one tracked graph between its
    /// writer and reader.
    pub fn graph_id(self, client: usize, graph: usize) -> u64 {
        match self {
            Workload::MutateRw => graph as u64 + 1,
            _ => (client * 100 + graph + 1) as u64,
        }
    }
}

/// One request of a client's sequence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    Color {
        graph: usize,
        objective: WireObjective,
        seed: u64,
    },
    Fetch {
        graph: usize,
    },
    /// A `GetResult` right after the client's `Color` of `graph`, so that
    /// every fresh coloring is checked. Timed as its own kind, which the
    /// report file carries and the result line does not.
    Check {
        graph: usize,
    },
    /// The `step`-th delta of [`Plan::toggles`].
    Mutate {
        step: usize,
    },
}

/// The requests of one repeat of a workload.
#[derive(Clone, Debug, PartialEq)]
pub struct Plan {
    /// Keys colored during set-up, before timing starts, per client.
    pub prime: Vec<Vec<Op>>,
    /// The timed sequence, per client. The clients move in lock-step
    /// rounds, as many as client 0 has requests: a round starts every
    /// client's next request together, and a client with more requests
    /// than client 0 (the `mutate_rw` reader) sends the rest of its
    /// round once every first request is answered. So the same requests
    /// overlap in every run, where free-running clients would drift
    /// into different pairings from run to run; on `mutate_rw` every
    /// `Color` overlaps exactly one delta, and the `GetResult` after it
    /// sees that delta's version.
    pub clients: Vec<Vec<Op>>,
    /// `mutate_rw`: the writer's deltas, in order. Delta `k` produces
    /// graph version `k + 1`.
    pub toggles: Vec<EdgeDelta>,
}

impl Plan {
    /// Lock-step rounds of the timed sequence.
    pub fn rounds(&self) -> usize {
        self.clients[0].len()
    }

    /// Client `c`'s requests in each round, in order.
    pub fn round_ops(&self, c: usize) -> std::slice::Chunks<'_, Op> {
        let ops = &self.clients[c];
        ops.chunks(ops.len() / self.rounds())
    }
}

/// Sizes of each workload's timed sequence.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// `miss_mix`: passes over every (graph, path) pair.
    pub miss_cycles: usize,
    /// `sharded_miss`: passes over every (graph, path) pair.
    pub sharded_cycles: usize,
    /// `hit_mid`: `Color` + `GetResult` pairs per client.
    pub hit_pairs: usize,
    /// `mutate_rw`: writer deltas.
    pub mutations: usize,
}

pub const SIZES: Sizes = Sizes {
    miss_cycles: 1,
    sharded_cycles: 2,
    hit_pairs: 800,
    mutations: 200,
};

/// The ten serving paths of `miss_mix`: the nine Figure 1 colorers —
/// three through the policy, six named explicitly — and `MinColors`.
pub fn miss_paths() -> Vec<WireObjective> {
    let explicit = |n: &str| WireObjective::Explicit(n.to_string());
    vec![
        WireObjective::Fastest,
        WireObjective::Balanced,
        WireObjective::FewestColors,
        explicit("CPU/Color_Greedy"),
        explicit("GraphBLAST/Color_IS"),
        explicit("GraphBLAST/Color_JPL"),
        explicit("Gunrock/Color_AR"),
        explicit("Gunrock/Color_Hash"),
        explicit("Naumov/Color_JPL"),
        WireObjective::MinColors {
            budget_ms: MIN_COLORS_BUDGET_MS,
        },
    ]
}

/// `hit_mid`'s primed keys, (dataset, objective), in ring order; each
/// gets its own seed. Hit and fetch latency grow with the graph, so the
/// four graphs form separate latency clusters. Weighting them 4:2:1:1
/// (ecology2, G3_circuit, offshore, thermomech_dK) puts the median inside
/// the ecology2 cluster and p90 inside the G3_circuit one, away from the
/// cluster edges.
const HIT_KEYS: [(usize, WireObjective); 8] = [
    (0, WireObjective::Fastest),
    (1, WireObjective::Fastest),
    (0, WireObjective::Balanced),
    (2, WireObjective::Fastest),
    (0, WireObjective::Fastest),
    (1, WireObjective::Balanced),
    (0, WireObjective::Balanced),
    (3, WireObjective::Balanced),
];

/// `sharded_miss`: the eight GPU Figure 1 colorers plus Hybrid/Color_JP.
pub fn sharded_paths() -> Vec<WireObjective> {
    [
        "GraphBLAST/Color_IS",
        "GraphBLAST/Color_JPL",
        "GraphBLAST/Color_MIS",
        "Gunrock/Color_AR",
        "Gunrock/Color_Hash",
        "Gunrock/Color_IS",
        "Naumov/Color_CC",
        "Naumov/Color_JPL",
        "Hybrid/Color_JP",
    ]
    .into_iter()
    .map(|n| WireObjective::Explicit(n.to_string()))
    .collect()
}

/// SplitMix64: a stateless mix of a stream position into a seed.
pub fn mix(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0xA24B_AED4_963E_E407))
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const STREAM_DATASET: u64 = 1;
const STREAM_COLOR: u64 = 2;
const STREAM_TOGGLE: u64 = 3;

/// Seed of the dataset synthesis.
pub fn dataset_seed(seed: u64) -> u64 {
    mix(seed, STREAM_DATASET, 0)
}

/// Builds the request sequence of `workload` for `seed`. `graphs` holds
/// the synthesized datasets in [`DATASETS`] order, `None` where the
/// workload does not serve one (only `mutate_rw` reads them, to draw
/// absent pairs for its toggle pool).
pub fn plan(workload: Workload, seed: u64, sizes: Sizes, graphs: &[Option<Arc<Csr>>]) -> Plan {
    let color_seed = |i: u64| mix(seed, STREAM_COLOR, i);
    match workload {
        Workload::MissMix | Workload::ShardedMiss => {
            let (paths, cycles) = if workload == Workload::MissMix {
                (miss_paths(), sizes.miss_cycles)
            } else {
                (sharded_paths(), sizes.sharded_cycles)
            };
            let clients = workload.clients();
            let mut seqs = vec![Vec::new(); clients];
            let mut next = 0u64;
            // A fixed, seed-independent split: pair (path p, graph slot
            // i) goes to client (p + i) % clients, so every client gets a
            // like share of cheap and expensive requests whatever the
            // seed. Only the request seeds vary with `--seed`.
            for _ in 0..cycles {
                for (p, objective) in paths.iter().enumerate() {
                    for (i, &g) in workload.graph_slots().iter().enumerate() {
                        let seq = &mut seqs[(p + i) % clients];
                        seq.push(Op::Color {
                            graph: g,
                            objective: objective.clone(),
                            seed: color_seed(next),
                        });
                        seq.push(Op::Check { graph: g });
                        next += 1;
                    }
                }
            }
            // Then every client fetches the last coloring of each graph,
            // all clients on the same graph in a round. The checks right
            // after each Color spread widely from run to run (the first
            // fetch after a colorer ran slower than a second one), so the
            // fetches that time the GetResult path come last.
            for seq in &mut seqs {
                for _ in 0..workload.fetch_passes() {
                    seq.extend(
                        workload
                            .graph_slots()
                            .iter()
                            .map(|&graph| Op::Fetch { graph }),
                    );
                }
            }
            Plan {
                prime: vec![Vec::new(); clients],
                clients: seqs,
                toggles: Vec::new(),
            }
        }
        Workload::HitMid => {
            // Two primed keys per graph, per client: well under the
            // 128-entry cache.
            let mut prime = Vec::new();
            let mut seqs = Vec::new();
            for c in 0..workload.clients() {
                let keys: Vec<Op> = HIT_KEYS
                    .iter()
                    .enumerate()
                    .map(|(k, (graph, objective))| Op::Color {
                        graph: *graph,
                        objective: objective.clone(),
                        seed: color_seed(k as u64),
                    })
                    .collect();
                let mut seq = Vec::with_capacity(2 * sizes.hit_pairs);
                // Client c starts half-way round the key ring, so each
                // round pairs requests of like size: the same graph on
                // both connections, or the two small graphs.
                for i in 0..sizes.hit_pairs {
                    let key = keys[(i + c * keys.len() / 2) % keys.len()].clone();
                    let Op::Color { graph, .. } = key else {
                        unreachable!("keys are Color ops")
                    };
                    seq.push(key);
                    seq.push(Op::Fetch { graph });
                }
                prime.push(keys);
                seqs.push(seq);
            }
            Plan {
                prime,
                clients: seqs,
                toggles: Vec::new(),
            }
        }
        Workload::MutateRw => {
            let graph = workload.graphs()[0];
            // Fastest (Naumov/Color_CC) gives ecology2 the same color
            // count for nearly every seed, so `colors_mean` over the
            // acks reflects the repairs, not the seed's luck.
            let key = Op::Color {
                graph,
                objective: WireObjective::Fastest,
                seed: color_seed(0),
            };
            let base = graphs[graph]
                .as_deref()
                .expect("mutate_rw graph synthesized");
            let toggles = toggle_sequence(base, seed, sizes.mutations);
            let reads = (0..toggles.len())
                .flat_map(|_| [key.clone(), Op::Fetch { graph }])
                .collect();
            Plan {
                prime: vec![Vec::new(), vec![key.clone()]],
                clients: vec![
                    (0..toggles.len()).map(|step| Op::Mutate { step }).collect(),
                    reads,
                ],
                toggles,
            }
        }
    }
}

/// The pool of absent long-range pairs the writer toggles: endpoints at
/// least a quarter of the vertex range apart, so every inserted edge
/// joins otherwise unrelated parts of the mesh.
pub fn toggle_pool(g: &Csr, seed: u64) -> Vec<(u32, u32)> {
    let n = g.num_vertices() as u64;
    assert!(n >= 8, "toggle pool needs a graph of at least 8 vertices");
    let mut pool: Vec<(u32, u32)> = Vec::with_capacity(TOGGLE_POOL);
    let mut i = 0u64;
    while pool.len() < TOGGLE_POOL {
        let u = (mix(seed, STREAM_TOGGLE, 2 * i) % n) as u32;
        let v = (mix(seed, STREAM_TOGGLE, 2 * i + 1) % n) as u32;
        i += 1;
        let (a, b) = (u.min(v), u.max(v));
        if (b - a) as u64 >= n / 4
            && !g.has_edge(a, b)
            && !pool
                .iter()
                .any(|&(x, y)| x == a || y == a || x == b || y == b)
        {
            pool.push((a, b));
        }
    }
    pool
}

/// `steps` deltas of [`TOGGLE_EDGES`] pool pairs each: a pair currently
/// present is deleted, an absent one inserted, so every delta changes
/// exactly [`TOGGLE_EDGES`] edges.
pub fn toggle_sequence(g: &Csr, seed: u64, steps: usize) -> Vec<EdgeDelta> {
    let pool = toggle_pool(g, seed);
    let mut present = vec![false; pool.len()];
    (0..steps)
        .map(|s| {
            let mut picked: Vec<usize> = Vec::with_capacity(TOGGLE_EDGES);
            let mut j = 0u64;
            while picked.len() < TOGGLE_EDGES {
                let k = (mix(seed, STREAM_TOGGLE, 1 << 32 | (s as u64) << 8 | j)
                    % pool.len() as u64) as usize;
                j += 1;
                if !picked.contains(&k) {
                    picked.push(k);
                }
            }
            let mut delta = EdgeDelta::default();
            for k in picked {
                if present[k] {
                    delta.delete.push(pool[k]);
                } else {
                    delta.insert.push(pool[k]);
                }
                present[k] = !present[k];
            }
            delta
        })
        .collect()
}

/// Pool pairs present after the first `version` deltas of `toggles`.
pub fn present_after(toggles: &[EdgeDelta], version: usize) -> Vec<(u32, u32)> {
    let mut present: Vec<(u32, u32)> = Vec::new();
    for delta in &toggles[..version] {
        present.retain(|e| !delta.delete.contains(e));
        present.extend_from_slice(&delta.insert);
    }
    present
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_graph::generators::{grid2d, Stencil2d};

    fn graphs() -> Vec<Option<Arc<Csr>>> {
        (0..DATASETS.len())
            .map(|i| Some(Arc::new(grid2d(30 + i, 30, Stencil2d::FivePoint))))
            .collect()
    }

    #[test]
    fn one_seed_gives_one_sequence() {
        let gs = graphs();
        for w in ALL {
            assert_eq!(
                plan(w, 11, SIZES, &gs),
                plan(w, 11, SIZES, &gs),
                "{}",
                w.name()
            );
        }
    }

    #[test]
    fn another_seed_gives_another_sequence() {
        let gs = graphs();
        for w in ALL {
            assert_ne!(
                plan(w, 11, SIZES, &gs),
                plan(w, 12, SIZES, &gs),
                "{}",
                w.name()
            );
        }
    }

    #[test]
    fn miss_mix_covers_every_path_on_every_graph_once_per_cycle() {
        let p = plan(Workload::MissMix, 3, SIZES, &graphs());
        let colors: Vec<&Op> = p
            .clients
            .iter()
            .flatten()
            .filter(|op| matches!(op, Op::Color { .. }))
            .collect();
        assert_eq!(
            colors.len(),
            miss_paths().len() * Workload::MissMix.graph_slots().len()
        );
        let mut seeds: Vec<u64> = colors
            .iter()
            .map(|op| match op {
                Op::Color { seed, .. } => *seed,
                _ => unreachable!(),
            })
            .collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), colors.len(), "every miss uses a fresh seed");
    }

    #[test]
    fn miss_clients_fetch_only_graphs_they_colored() {
        for w in [Workload::MissMix, Workload::ShardedMiss] {
            let p = plan(w, 3, SIZES, &graphs());
            for seq in &p.clients {
                let first_fetch = seq
                    .iter()
                    .position(|op| matches!(op, Op::Fetch { .. }))
                    .unwrap();
                let colored: Vec<usize> = seq[..first_fetch]
                    .iter()
                    .filter_map(|op| match op {
                        Op::Color { graph, .. } => Some(*graph),
                        _ => None,
                    })
                    .collect();
                for pair in seq[..first_fetch].chunks(2) {
                    assert!(matches!(
                        pair,
                        [Op::Color { graph: a, .. }, Op::Check { graph: b }] if a == b
                    ));
                }
                assert!(seq[first_fetch..].iter().all(|op| match op {
                    Op::Fetch { graph } => colored.contains(graph),
                    _ => false,
                }));
            }
        }
    }

    #[test]
    fn mutate_rw_pairs_each_delta_with_one_read_round() {
        let p = plan(Workload::MutateRw, 9, SIZES, &graphs());
        assert_eq!(p.clients[0].len(), SIZES.mutations);
        assert_eq!(p.clients[1].len(), 2 * SIZES.mutations);
        for round in p.clients[1].chunks(2) {
            assert!(matches!(round, [Op::Color { .. }, Op::Fetch { .. }]));
        }
    }

    #[test]
    fn windows_hold_the_same_requests_and_enough_samples() {
        let gs = graphs();
        for w in ALL {
            let p = plan(w, 5, SIZES, &gs);
            let size = w.window_rounds().unwrap_or(p.rounds());
            assert_eq!(p.rounds() % size, 0, "{}", w.name());
            let mut windows = vec![Vec::new(); p.rounds() / size];
            for c in 0..p.clients.len() {
                for (round, ops) in p.round_ops(c).enumerate() {
                    windows[round / size].extend(ops.iter().map(|op| match op {
                        Op::Color {
                            graph, objective, ..
                        } => format!("color {graph} {objective:?}"),
                        Op::Fetch { graph } => format!("fetch {graph}"),
                        Op::Check { graph } => format!("check {graph}"),
                        Op::Mutate { .. } => "mutate".to_string(),
                    }));
                }
            }
            for win in &mut windows {
                win.sort();
            }
            assert!(windows.iter().all(|x| *x == windows[0]), "{}", w.name());
            let count = |kind: &str| windows[0].iter().filter(|r| r.starts_with(kind)).count();
            assert!(count("fetch") >= 100, "{}", w.name());
            if matches!(w, Workload::HitMid | Workload::MutateRw) {
                assert!(count("color") >= 100, "{}", w.name());
            }
            if w == Workload::MutateRw {
                assert!(count("mutate") >= 100);
            }
        }
    }

    #[test]
    fn toggles_change_exactly_their_edges() {
        let g = grid2d(40, 40, Stencil2d::FivePoint);
        let toggles = toggle_sequence(&g, 5, 30);
        let mut cur = g.clone();
        for (v, delta) in toggles.iter().enumerate() {
            let out = gc_graph::apply_edge_delta(&cur, delta).unwrap();
            assert_eq!(out.inserted + out.deleted, TOGGLE_EDGES);
            cur = out.graph;
            let present = present_after(&toggles, v + 1);
            assert_eq!(cur.num_edges(), g.num_edges() + present.len());
            assert!(present.iter().all(|&(a, b)| cur.has_edge(a, b)));
        }
    }
}
