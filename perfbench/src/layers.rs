//! In-process spans around calls into each layer's public functions, fed
//! with the workload's own generated inputs. The benchmark records these
//! spans itself; nothing inside the program is instrumented for it.

use crate::recorder::Recorder;
use crate::rng::Rng;
use crate::workload::{Space, Spec, N};
use afforest_core::IncrementalCc;
use afforest_graph::{io, Node};
use afforest_serve::protocol::{decode_request, decode_response, encode_request, encode_response};
use afforest_serve::{
    wal, Request, Response, ServeConfig, Server, Snapshot, SnapshotStore, TenantId, Wal,
};
use afforest_shard::{BoundaryStore, LocalCluster, Router, ShardPlan};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Named per-layer values, in insertion order.
#[derive(Default)]
pub struct Metrics(pub Vec<(&'static str, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, v: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = v,
            None => self.0.push((name, v)),
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// Median wall time of `reps` calls of `f`, in nanoseconds.
fn time_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut rec = Recorder::new();
    for _ in 0..reps {
        let t = Instant::now();
        f();
        rec.record(t.elapsed().as_nanos() as u64);
    }
    rec.percentile(50.0).map_or(0.0, |q| q.value)
}

/// What the live run tells the in-process measurements.
pub struct LiveInputs<'a> {
    pub graph_path: &'a Path,
    pub seed_edges: &'a [(Node, Node)],
    /// Read requests and the answers the server gave them.
    pub answers: &'a [(Request, Response)],
    /// Mean edges per published epoch in the live window (0 = no writes).
    pub batch_edges: usize,
    /// The live server's WAL root, after it stopped.
    pub wal_root: Option<&'a Path>,
    pub scratch: &'a Path,
}

/// Write batches of `size` edges from the workload's own insert stream.
fn batches(space: &Space, seed: u64, size: usize, count: usize) -> Vec<Vec<(Node, Node)>> {
    let mut rng = Rng::new(seed, 900);
    (0..count)
        .map(|_| {
            let mut b = Vec::with_capacity(size);
            while b.len() < size {
                b.extend(space.insert_batch(&mut rng));
            }
            b.truncate(size);
            b
        })
        .collect()
}

/// Set-up: graph file read and the initial labeling the server builds.
pub fn setup(m: &mut Metrics, live: &LiveInputs) -> Result<IncrementalCc, String> {
    let mut err = None;
    m.set(
        "setup.read_graph_ms",
        time_ns(3, || {
            if let Err(e) = io::read_binary(live.graph_path) {
                err = Some(e.to_string());
            }
        }) / 1e6,
    );
    if let Some(e) = err {
        return Err(e);
    }
    m.set(
        "setup.initial_labels_ms",
        time_ns(3, || {
            let mut cc = IncrementalCc::new(N);
            cc.insert_batch(live.seed_edges);
            black_box(cc.labels());
        }) / 1e6,
    );
    let mut cc = IncrementalCc::new(N);
    cc.insert_batch(live.seed_edges);
    Ok(cc)
}

/// Codec costs over the run's real request/answer pairs.
pub fn protocol(m: &mut Metrics, live: &LiveInputs, space: &Space, seed: u64) {
    if !live.answers.is_empty() {
        let per_call = time_ns(5, || {
            for (req, resp) in live.answers {
                let r = decode_request(&encode_request(req));
                let a = decode_response(&encode_response(resp));
                black_box((r.is_ok(), a.is_ok()));
            }
        }) / live.answers.len() as f64;
        m.set("protocol.read_codec_ns", per_call);
    }
    let insert = Request::InsertEdges(batches(space, seed, 64, 1).remove(0));
    let ack = Response::Accepted { edges: 64 };
    m.set(
        "protocol.insert64_codec_us",
        time_ns(200, || {
            let r = decode_request(&encode_request(&insert));
            let a = decode_response(&encode_response(&ack));
            black_box((r.is_ok(), a.is_ok()));
        }) / 1e3,
    );
}

/// Mean encoded request size over `answers` plus the insert share.
pub fn request_bytes(answers: &[(Request, Response)], inserts: &[Vec<(Node, Node)>]) -> f64 {
    let reads: usize = answers.iter().map(|(r, _)| encode_request(r).len()).sum();
    let writes: usize = inserts
        .iter()
        .map(|b| encode_request(&Request::InsertEdges(b.clone())).len())
        .sum();
    let n = answers.len() + inserts.len();
    if n == 0 {
        0.0
    } else {
        (reads + writes) as f64 / n as f64
    }
}

/// The standalone request handler, in-process, on the seed graph.
pub fn server_handle(m: &mut Metrics, live: &LiveInputs) -> Result<(), String> {
    if live.answers.is_empty() {
        return Ok(());
    }
    let server = Server::new(N, live.seed_edges, default_config())
        .map_err(|e| format!("in-process server: {e}"))?;
    let tenant = TenantId::default_tenant();
    let per_call = time_ns(5, || {
        for (req, _) in live.answers {
            black_box(server.handle_for(&tenant, req));
        }
    }) / live.answers.len() as f64;
    m.set("server.handle_read_ns", per_call);
    Ok(())
}

/// The writer's pipeline at the run's mean batch size: link, labels,
/// snapshot build, publish and load, WAL append and compaction, and
/// recovery when the live run had no WAL to recover. Labels and
/// snapshots are also what set-up builds, so they are measured even
/// when the workload writes nothing.
pub fn write_path(
    m: &mut Metrics,
    live: &LiveInputs,
    mut cc: IncrementalCc,
    space: &Space,
    seed: u64,
) -> Result<(), String> {
    let size = live.batch_edges;
    let work = batches(space, seed, size.max(1), 24);
    if size > 0 {
        let before = cc.num_components() as f64;
        let mut it = work.iter();
        m.set(
            "incremental.insert_batch_us",
            time_ns(work.len(), || {
                cc.insert_batch(it.next().expect("one batch per rep"))
            }) / 1e3,
        );
        let merges = before - cc.num_components() as f64;
        m.set(
            "incremental.merge_ratio",
            merges / (size * work.len()) as f64,
        );
    }

    let labels = cc.labels();
    m.set(
        "incremental.labels_ms",
        time_ns(7, || drop(black_box(cc.labels()))) / 1e6,
    );
    m.set(
        "snapshot.new_ms",
        time_ns(7, || drop(black_box(Snapshot::new(1, &labels)))) / 1e6,
    );
    let store = SnapshotStore::new(Snapshot::new(0, &labels));
    let mut publish = Recorder::new();
    for epoch in 1..8 {
        let next = Snapshot::new(epoch, &labels);
        let t = Instant::now();
        store.publish(next);
        publish.record(t.elapsed().as_nanos() as u64);
    }
    m.set(
        "snapshot.publish_us",
        publish.percentile(50.0).map_or(0.0, |q| q.value) / 1e3,
    );
    // One load is a few ns: time blocks of 1000.
    m.set(
        "snapshot.load_ns",
        time_ns(200, || {
            for _ in 0..1000 {
                black_box(store.load());
            }
        }) / 1000.0,
    );

    if size == 0 {
        return Ok(());
    }
    let dir = live.scratch.join("layer-wal");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let mut w = Wal::open(&dir, N, 0).map_err(|e| format!("wal: {e}"))?;
    let mut it = work.iter().cycle();
    let mut failed = false;
    m.set(
        "wal.append_us",
        time_ns(48, || {
            failed |= w.append(it.next().expect("cycled")).is_err();
        }) / 1e3,
    );
    m.set(
        "wal.bytes_per_edge",
        w.bytes_logged() as f64 / (48 * size) as f64,
    );
    drop(w);
    if live.wal_root.is_none() {
        // No WAL in the live run: recover the one just appended to.
        let t = Instant::now();
        failed |= wal::recover(&dir, live.seed_edges).is_err();
        m.set("wal.recover_ms", t.elapsed().as_secs_f64() * 1e3);
    }
    let mut w = Wal::open(&dir, N, 0).map_err(|e| format!("wal: {e}"))?;
    m.set(
        "wal.compact_ms",
        time_ns(3, || failed |= w.compact(&cc).is_err()) / 1e6,
    );
    drop(w);
    let _ = std::fs::remove_dir_all(&dir);
    if failed {
        return Err("in-process WAL append or compaction failed".into());
    }
    Ok(())
}

/// Replays the live server's WAL as a restart would.
pub fn wal_recover(
    m: &mut Metrics,
    root: &Path,
    spec: &Spec,
    seed_edges: &[(Node, Node)],
) -> Result<(), String> {
    let t = Instant::now();
    if spec.shards == 0 {
        let dir = wal::default_wal_dir(root);
        wal::recover(&dir, seed_edges).map_err(|e| format!("recover {}: {e}", dir.display()))?;
    } else {
        let plan = ShardPlan::new(N, spec.shards);
        let routed = plan.split_batch(seed_edges);
        for (k, seed) in routed.per_shard.iter().enumerate() {
            let dir = root.join(afforest_shard::shard_tenant_name(k));
            wal::recover(&dir, seed).map_err(|e| format!("recover {}: {e}", dir.display()))?;
        }
    }
    m.set("wal.recover_ms", t.elapsed().as_secs_f64() * 1e3);
    Ok(())
}

fn default_config() -> ServeConfig {
    ServeConfig::builder()
        .build()
        .expect("the default serve configuration is valid")
}

/// Plan, boundary and router over an in-process 2-shard cluster of the
/// seed graph, fed the workload's reads and writes. On the standalone
/// workloads this prices sharding their graph; `router-mix` serves it.
pub fn shard_layers(
    m: &mut Metrics,
    live: &LiveInputs,
    space: &Space,
    seed: u64,
) -> Result<(), String> {
    let plan = ShardPlan::new(N, 2);
    let work = batches(space, seed, 64, 200);
    let mut it = work.iter().cycle();
    m.set(
        "plan.split_batch_us",
        time_ns(200, || {
            drop(black_box(plan.split_batch(it.next().expect("cycled"))))
        }) / 1e3,
    );
    let routed = plan.split_batch(live.seed_edges);
    let store = BoundaryStore::new(N);
    store.observe_batch(&routed.cut);
    m.set("boundary.edges", store.edge_count() as f64);
    m.set(
        "boundary.snapshot_edges_us",
        time_ns(100, || drop(black_box(store.snapshot_edges()))) / 1e3,
    );
    let cuts: Vec<Vec<(Node, Node)>> = work.iter().map(|b| plan.split_batch(b).cut).collect();
    let mut it = cuts.iter().cycle();
    m.set(
        "boundary.observe_batch_us",
        time_ns(200, || {
            black_box(store.observe_batch(it.next().expect("cycled")));
        }) / 1e3,
    );

    let cluster = LocalCluster::new(&plan, &routed.per_shard, &default_config())
        .map_err(|e| format!("in-process cluster: {e}"))?;
    let boundary = BoundaryStore::new(N);
    boundary.observe_batch(&routed.cut);
    let router = Router::new(plan, boundary, cluster, None);
    let reads: Vec<&Request> = live.answers.iter().map(|(r, _)| r).take(2000).collect();
    if reads.is_empty() {
        return Ok(());
    }
    // Hits: the composite is warm and nothing changed since.
    black_box(router.handle(&Request::NumComponents));
    let mut it = reads.iter().cycle();
    let hit = time_ns(reads.len(), || {
        drop(black_box(router.handle(it.next().expect("cycled"))))
    });
    m.set("router.read_hit_us", hit / 1e3);
    // Misses: a write lands and is published first. A miss over a large
    // boundary takes most of a second, so stop after 3 s (at least 3).
    let started = Instant::now();
    let mut inserts = work.iter().cycle();
    let mut reads_it = reads.iter().cycle();
    let mut insert_rec = Recorder::new();
    let mut miss_rec = Recorder::new();
    while miss_rec.len() < 30 && (miss_rec.len() < 3 || started.elapsed() < Duration::from_secs(3))
    {
        let req = Request::InsertEdges(inserts.next().expect("cycled").clone());
        let t = Instant::now();
        black_box(router.handle(&req));
        insert_rec.record(t.elapsed().as_nanos() as u64);
        router.flush(Duration::from_secs(10));
        let t = Instant::now();
        black_box(router.handle(&Request::NumComponents));
        miss_rec.record(t.elapsed().as_nanos() as u64);
        black_box(router.handle(reads_it.next().expect("cycled")));
    }
    m.set(
        "router.insert_us",
        insert_rec.percentile(50.0).map_or(0.0, |q| q.value) / 1e3,
    );
    m.set(
        "router.read_miss_us",
        miss_rec.percentile(50.0).map_or(0.0, |q| q.value) / 1e3,
    );
    router.request_shutdown();
    router.shutdown_backend();
    Ok(())
}

/// Boundary forests of about 1k, 16k and 256k edges: what one
/// `snapshot_edges` clone, a composite-cache hit and a miss cost.
pub fn boundary_sweep(m: &mut Metrics, seed: u64) -> Result<(), String> {
    const SIZES: [(usize, [&str; 4]); 3] = [
        (
            1 << 10,
            [
                "sweep.b1k.edges",
                "sweep.b1k.snapshot_edges_us",
                "sweep.b1k.hit_us",
                "sweep.b1k.miss_us",
            ],
        ),
        (
            1 << 14,
            [
                "sweep.b16k.edges",
                "sweep.b16k.snapshot_edges_us",
                "sweep.b16k.hit_us",
                "sweep.b16k.miss_us",
            ],
        ),
        (
            1 << 18,
            [
                "sweep.b256k.edges",
                "sweep.b256k.snapshot_edges_us",
                "sweep.b256k.hit_us",
                "sweep.b256k.miss_us",
            ],
        ),
    ];
    let half = (N / 2) as u64;
    let mut rng = Rng::new(seed, 950);
    for (size, names) in SIZES {
        let plan = ShardPlan::new(N, 2);
        let cluster = LocalCluster::new(&plan, &[], &default_config())
            .map_err(|e| format!("sweep cluster: {e}"))?;
        let boundary = BoundaryStore::new(N);
        // Random edges across the cut: a forest while size << N.
        let cut: Vec<(Node, Node)> = (0..size)
            .map(|_| (rng.below(half) as Node, rng.range(half, 2 * half) as Node))
            .collect();
        boundary.observe_batch(&cut);
        let edges = boundary.edge_count();
        m.set(names[0], edges as f64);
        m.set(
            names[1],
            time_ns(20, || drop(black_box(boundary.snapshot_edges()))) / 1e3,
        );
        let router = Router::new(plan, boundary, cluster, None);
        black_box(router.handle(&Request::NumComponents));
        m.set(
            names[2],
            time_ns(20, || {
                drop(black_box(router.handle(&Request::NumComponents)))
            }) / 1e3,
        );
        let mut miss = Recorder::new();
        for _ in 0..3 {
            // One new cut edge bumps the boundary version.
            let e = (rng.below(half) as Node, rng.range(half, 2 * half) as Node);
            black_box(router.handle(&Request::InsertEdges(vec![e])));
            let t = Instant::now();
            black_box(router.handle(&Request::NumComponents));
            miss.record(t.elapsed().as_nanos() as u64);
        }
        m.set(
            names[3],
            miss.percentile(50.0).map_or(0.0, |q| q.value) / 1e3,
        );
        router.request_shutdown();
        router.shutdown_backend();
    }
    Ok(())
}
