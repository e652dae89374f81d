//! Workload definitions and everything generated from `--seed`: the seed
//! graph, the request streams of both connections, the marker pairs, and
//! the union-find oracle the answers are checked against.

use crate::rng::Rng;
use afforest_baselines::UnionFind;
use afforest_graph::{generators, io, CsrGraph, GraphBuilder, Node};
use afforest_serve::Request;
use std::path::Path;

/// Vertices in every workload's graph.
pub const N: usize = 1 << 20;
/// Top-of-range vertices the generated graph leaves isolated and random
/// writes never touch: two of them joined by one edge form a marker whose
/// visibility the benchmark can time exactly.
pub const RESERVED: usize = 8192;
/// Edges per `InsertEdges` request.
pub const INSERT_EDGES: usize = 64;
/// Road grids are this wide; the 2-shard split falls between two rows.
const ROAD_WIDTH: usize = 1024;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    Urand,
    Road,
}

impl Family {
    pub fn name(self) -> &'static str {
        match self {
            Family::Urand => "urand",
            Family::Road => "road",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub family: Family,
    /// Offered load of the timed window, requests/s over both connections.
    pub rate: f64,
    /// Percentage of requests that are reads; the rest insert
    /// [`INSERT_EDGES`] edges.
    pub read_pct: u64,
    pub wal: bool,
    /// 0 = standalone server, otherwise `--shards N`.
    pub shards: usize,
    /// Read p99 limit that defines `max_rps`.
    pub p99_limit_ms: f64,
}

pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "query",
        family: Family::Urand,
        rate: 8000.0,
        read_pct: 100,
        wal: false,
        shards: 0,
        p99_limit_ms: 2.0,
    },
    Spec {
        name: "mix",
        family: Family::Urand,
        rate: 1000.0,
        read_pct: 90,
        wal: true,
        shards: 0,
        // Each O(n) publish holds a core for ~10 ms on two cores, so read
        // p99 already passes 2 ms at the nominal rate.
        p99_limit_ms: 10.0,
    },
    Spec {
        name: "router-mix",
        family: Family::Road,
        rate: 500.0,
        read_pct: 90,
        wal: true,
        shards: 2,
        p99_limit_ms: 10.0,
    },
];

pub fn spec(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|s| s.name == name)
}

/// The seed graph: the family's graph on the low `N - RESERVED`
/// vertices, padded with `RESERVED` isolated vertices.
pub fn generate(family: Family, seed: u64) -> CsrGraph {
    let core = N - RESERVED;
    let g = match family {
        Family::Urand => generators::uniform_random(core, N, seed),
        Family::Road => generators::road_network(ROAD_WIDTH, core / ROAD_WIDTH, 0.93, 0.02, seed),
    };
    GraphBuilder::from_edges(N, &g.collect_edges()).build()
}

/// The seed graph for `(family, seed)`, generated once and cached as a
/// binary CSR file under `cache_dir`. Returns the file and the graph.
pub fn cached_graph(
    cache_dir: &Path,
    family: Family,
    seed: u64,
) -> Result<(std::path::PathBuf, CsrGraph), String> {
    std::fs::create_dir_all(cache_dir).map_err(|e| format!("{}: {e}", cache_dir.display()))?;
    let path = cache_dir.join(format!("{}-n{N}-s{seed}.acsr", family.name()));
    if let Ok(g) = io::read_binary(&path) {
        if g.num_vertices() == N {
            return Ok((path, g));
        }
    }
    let g = generate(family, seed);
    evict_oldest(cache_dir, CACHED_GRAPHS - 1);
    let tmp = path.with_extension("tmp");
    io::write_binary(&g, &tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, &path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok((path, g))
}

/// Graphs kept in the cache; each is ~15 MB, and runs with ever new
/// seeds would otherwise fill the disk.
const CACHED_GRAPHS: usize = 8;

/// Deletes the least recently written files of `dir` until `keep` remain.
fn evict_oldest(dir: &Path, keep: usize) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut files: Vec<(std::time::SystemTime, std::path::PathBuf)> = entries
        .flatten()
        .filter_map(|e| Some((e.metadata().ok()?.modified().ok()?, e.path())))
        .collect();
    files.sort();
    let excess = files.len().saturating_sub(keep);
    for (_, f) in files.into_iter().take(excess) {
        let _ = std::fs::remove_file(f);
    }
}

/// Union-find over the seed graph plus every insert fed to it, frozen
/// into per-vertex roots and component sizes for checking.
pub struct Oracle {
    root: Vec<Node>,
    size: Vec<u32>,
    components: u64,
}

impl Oracle {
    pub fn build<'a>(
        g: &CsrGraph,
        inserts: impl IntoIterator<Item = &'a [(Node, Node)]>,
    ) -> Oracle {
        let mut uf = UnionFind::from_graph(g);
        for batch in inserts {
            for &(u, v) in batch {
                uf.union(u, v);
            }
        }
        let n = uf.len();
        let components = uf.num_components() as u64;
        let root: Vec<Node> = (0..n as Node).map(|v| uf.find(v)).collect();
        let mut size = vec![0u32; n];
        for &r in &root {
            size[r as usize] += 1;
        }
        Oracle {
            root,
            size,
            components,
        }
    }

    pub fn connected(&self, u: Node, v: Node) -> bool {
        self.root[u as usize] == self.root[v as usize]
    }

    pub fn size(&self, v: Node) -> u64 {
        self.size[self.root[v as usize] as usize] as u64
    }

    pub fn components(&self) -> u64 {
        self.components
    }
}

/// Where a workload's random writes and reads land.
#[derive(Clone, Copy, Debug)]
pub struct Space {
    /// Vertices random insert endpoints come from: `[0, N - RESERVED)`.
    pub writable: usize,
    /// Shard split for sharded workloads (0 = none).
    pub shards: usize,
}

impl Space {
    pub fn new(spec: &Spec) -> Space {
        Space {
            writable: N - RESERVED,
            shards: spec.shards,
        }
    }

    /// One insert batch. Standalone: uniform edges over the writable
    /// range. Sharded: every edge inside one uniformly chosen shard,
    /// except one cut edge between the two grid rows that meet at the
    /// partition border — a fixed border set, so the boundary forest
    /// stays near its starting size however long the run.
    pub fn insert_batch(&self, rng: &mut Rng) -> Vec<(Node, Node)> {
        let w = self.writable as u64;
        if self.shards < 2 {
            return (0..INSERT_EDGES)
                .map(|_| (rng.below(w) as Node, rng.below(w) as Node))
                .collect();
        }
        let slice = N.div_ceil(self.shards) as u64;
        let k = rng.below(self.shards as u64);
        let lo = k * slice;
        let hi = ((k + 1) * slice).min(w);
        let mut edges: Vec<(Node, Node)> = (0..INSERT_EDGES - 1)
            .map(|_| (rng.range(lo, hi) as Node, rng.range(lo, hi) as Node))
            .collect();
        let border = slice;
        let row = ROAD_WIDTH as u64;
        edges.push((
            rng.range(border - row, border) as Node,
            rng.range(border, border + row) as Node,
        ));
        edges
    }

    /// Edges of `batch` the shard engines ingest (cut edges go to the
    /// router's boundary store instead).
    pub fn engine_edges(&self, batch: &[(Node, Node)]) -> u64 {
        if self.shards < 2 {
            return batch.len() as u64;
        }
        let slice = N.div_ceil(self.shards) as Node;
        batch
            .iter()
            .filter(|&&(u, v)| u / slice == v / slice)
            .count() as u64
    }

    /// A uniformly random read over all `N` vertices, one of the four
    /// read ops in equal shares.
    pub fn read(&self, rng: &mut Rng) -> Request {
        let n = N as u64;
        match rng.below(4) {
            0 => Request::Connected(rng.below(n) as Node, rng.below(n) as Node),
            1 => Request::Component(rng.below(n) as Node),
            2 => Request::ComponentSize(rng.below(n) as Node),
            _ => Request::NumComponents,
        }
    }
}

/// Marker pairs for connection `conn` of `conns`: disjoint pairs of
/// reserved vertices, so no other write can connect them first.
pub fn markers(conn: usize, conns: usize) -> Vec<(Node, Node)> {
    let base = N - RESERVED;
    let pairs = RESERVED / 2;
    (0..pairs)
        .filter(|p| p % conns == conn)
        .map(|p| ((base + 2 * p) as Node, (base + 2 * p + 1) as Node))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharded_writes_stay_in_one_shard_but_one_border_edge() {
        let space = Space {
            writable: N - RESERVED,
            shards: 2,
        };
        let mut rng = Rng::new(1, 2);
        let half = (N / 2) as Node;
        for _ in 0..100 {
            let b = space.insert_batch(&mut rng);
            assert_eq!(b.len(), INSERT_EDGES);
            let cut: Vec<_> = b
                .iter()
                .filter(|&&(u, v)| (u < half) != (v < half))
                .collect();
            assert_eq!(cut.len(), 1);
            let &&(u, v) = cut.first().unwrap();
            assert!(u >= half - ROAD_WIDTH as Node && u < half);
            assert!(v >= half && v < half + ROAD_WIDTH as Node);
            assert!(b
                .iter()
                .all(|&(u, v)| (u as usize) < space.writable && (v as usize) < space.writable));
        }
    }

    #[test]
    fn markers_are_disjoint_and_reserved() {
        let a = markers(0, 2);
        let b = markers(1, 2);
        assert_eq!(a.len() + b.len(), RESERVED / 2);
        let mut all: Vec<Node> = a.iter().chain(&b).flat_map(|&(u, v)| [u, v]).collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), RESERVED);
        assert!(all.iter().all(|&v| v as usize >= N - RESERVED));
    }
}
