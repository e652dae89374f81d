//! Open-loop TCP benchmark of `afforest serve`.
//!
//! ```text
//! afforest-perfbench --workload query|mix|router-mix --seed N --seconds S
//!                    --trace 0|1 --afforest PATH [--root DIR]
//! ```
//!
//! Generates the workload's graph and request streams from the seed,
//! starts `afforest serve` as a child process, drives it over loopback
//! TCP from two connections on a fixed schedule, checks every answer
//! against a union-find oracle, and prints one JSON object as the last
//! line of standard output. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` is a separate run reporting per-layer metrics. See
//! `perfbench/README.md` for the metric definitions.

mod layers;
mod live;
mod procfs;
mod recorder;
mod rng;
mod sched;
mod server;
mod workload;

use afforest_graph::Node;
use afforest_obs::reqtrace::Span;
use afforest_serve::{Client, Request, Response, StatsReport};
use layers::{LiveInputs, Metrics};
use live::{run_window, Conn, Observed, Window, CONNS};
use recorder::{Recorder, Windowed};
use server::ServerProc;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use workload::{Oracle, Space, Spec, N};

/// End-to-end metrics (`--trace 0`): name and unit.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("read_p50_us", "us"),
    ("write_p50_us", "us"),
    ("visible_p50_ms", "ms"),
    ("server_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`): name and unit. A layer the workload
/// does not exercise reports 0.
const PER_LAYER: [(&str, &str); 69] = [
    ("latency.read_p99_us", "us"),
    ("latency.write_p99_us", "us"),
    ("latency.visible_p99_ms", "ms"),
    ("capacity.max_rps", "1/s"),
    ("client.read_rtt_us", "us"),
    ("client.insert_rtt_us", "us"),
    ("client.read_samples", "count"),
    ("client.visible_samples", "count"),
    ("generator.lateness_p99_us", "us"),
    ("generator.lateness_growth_us", "us"),
    ("bench.cpu_ratio", "ratio"),
    ("host.steal_ratio", "ratio"),
    ("protocol.read_codec_ns", "ns"),
    ("protocol.insert64_codec_us", "us"),
    ("protocol.request_bytes", "bytes"),
    ("server.handle_read_ns", "ns"),
    ("server.frontend_us", "us"),
    ("server.worker_cpu_us_per_req", "us"),
    ("server.cpu_us_per_req", "us"),
    ("ingest.edges_per_epoch", "count"),
    ("ingest.queue_wait_ms", "ms"),
    ("writer.busy_ratio", "ratio"),
    ("wal.append_us", "us"),
    ("wal.bytes_per_edge", "bytes"),
    ("wal.compact_ms", "ms"),
    ("wal.recover_ms", "ms"),
    ("incremental.insert_batch_us", "us"),
    ("incremental.labels_ms", "ms"),
    ("incremental.merge_ratio", "ratio"),
    ("snapshot.new_ms", "ms"),
    ("snapshot.publish_us", "us"),
    ("snapshot.load_ns", "ns"),
    ("plan.split_batch_us", "us"),
    ("boundary.observe_batch_us", "us"),
    ("boundary.edges", "count"),
    ("boundary.snapshot_edges_us", "us"),
    ("router.read_hit_us", "us"),
    ("router.read_miss_us", "us"),
    ("router.compose_hit_ratio", "ratio"),
    ("router.insert_us", "us"),
    ("setup.read_graph_ms", "ms"),
    ("setup.initial_labels_ms", "ms"),
    ("visible.unattributed_ms", "ms"),
    ("trace.overhead_read_p50_us", "us"),
    ("trace.overhead_read_p99_us", "us"),
    ("trace.overhead_visible_p50_ms", "ms"),
    ("stage.router_request.self_us", "us"),
    ("stage.router_decode.self_us", "us"),
    ("stage.breaker_gate.self_us", "us"),
    ("stage.shard_fanout.self_us", "us"),
    ("stage.boundary_compose.self_us", "us"),
    ("stage.shard_request.self_us", "us"),
    ("stage.queue_wait.self_us", "us"),
    ("stage.wal_fsync.self_us", "us"),
    ("stage.batch_apply.self_us", "us"),
    ("stage.epoch_publish.self_us", "us"),
    ("sweep.b1k.edges", "count"),
    ("sweep.b1k.snapshot_edges_us", "us"),
    ("sweep.b1k.hit_us", "us"),
    ("sweep.b1k.miss_us", "us"),
    ("sweep.b16k.edges", "count"),
    ("sweep.b16k.snapshot_edges_us", "us"),
    ("sweep.b16k.hit_us", "us"),
    ("sweep.b16k.miss_us", "us"),
    ("sweep.b256k.edges", "count"),
    ("sweep.b256k.snapshot_edges_us", "us"),
    ("sweep.b256k.hit_us", "us"),
    ("sweep.b256k.miss_us", "us"),
    ("failed_frac", "ratio"),
];

/// Server start-ups per timed run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Sub-windows of a measured window, for picking the ones the shared
/// host disturbed least.
const SUB_WINDOWS: usize = 16;
/// Fewest sub-windows a latency percentile is taken over.
const CALM_WINDOWS: usize = 4;
/// Host steal up to which a sub-window counts as undisturbed.
const CALM_STEAL: f64 = 0.01;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    afforest: PathBuf,
    root: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument '{k}'"))?;
        let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        flags.insert(key.to_string(), v.clone());
    }
    let get = |k: &str| {
        flags
            .get(k)
            .cloned()
            .ok_or_else(|| format!("missing --{k}"))
    };
    let num = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse()
            .map_err(|_| format!("--{k}: not a whole number"))
    };
    Ok(Args {
        workload: get("workload")?,
        seed: num("seed")?,
        seconds: num("seconds")?.max(1),
        trace: num("trace")? != 0,
        afforest: PathBuf::from(get("afforest")?),
        root: PathBuf::from(flags.get("root").cloned().unwrap_or_else(|| ".".into())),
    })
}

fn main() {
    match run() {
        Ok(correct) => std::process::exit(if correct { 0 } else { 1 }),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

/// Everything generated from the seed, shared by all phases of a run.
struct Ctx {
    spec: Spec,
    seed: u64,
    afforest: PathBuf,
    graph_path: PathBuf,
    graph: afforest_graph::CsrGraph,
    seed_edges: Vec<(Node, Node)>,
    seed_oracle: Oracle,
    space: Space,
    work: PathBuf,
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let spec = workload::spec(&args.workload)
        .ok_or_else(|| format!("unknown workload '{}'", args.workload))?;
    let (graph_path, graph) =
        workload::cached_graph(&args.root.join(".bench_cache"), spec.family, args.seed)?;
    let work = args.root.join(".bench_work").join(format!(
        "{}-{}-{}",
        spec.name,
        args.seed,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let seed_edges = graph.collect_edges();
    progress(format_args!("{} graph ready", spec.family.name()));
    let ctx = Ctx {
        spec,
        seed: args.seed,
        afforest: args.afforest.clone(),
        graph_path,
        seed_oracle: Oracle::build(&graph, []),
        graph,
        seed_edges,
        space: Space::new(&spec),
        work: work.clone(),
    };
    let total = Duration::from_secs(args.seconds);
    let result = if args.trace {
        traced_run(&ctx, total)
    } else {
        timed_run(&ctx, total)
    };
    let _ = std::fs::remove_dir_all(&work);
    let (metrics, attempted, failed, wrong) = result?;
    let correct = wrong == 0;
    let units: BTreeMap<&str, &str> = END_TO_END.iter().chain(PER_LAYER.iter()).copied().collect();
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                units.get(name).copied().unwrap_or("")
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    );
    Ok(correct)
}

/// Progress on standard error, stamped with seconds since start.
fn progress(msg: std::fmt::Arguments) {
    static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    let t = START.get_or_init(Instant::now).elapsed().as_secs_f64();
    eprintln!("[perfbench {t:7.2}s] {msg}");
}

fn wal_root(ctx: &Ctx, tag: &str) -> Option<PathBuf> {
    ctx.spec.wal.then(|| ctx.work.join(format!("wal-{tag}")))
}

fn spawn(ctx: &Ctx, tag: &str, traced: bool) -> Result<ServerProc, String> {
    ServerProc::spawn(
        &ctx.afforest,
        &ctx.graph_path,
        &ctx.spec,
        &ctx.work,
        wal_root(ctx, tag),
        traced,
    )
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

/// The sub-windows latency percentiles are taken over: every one in
/// which the host stole at most [`CALM_STEAL`] of the CPU, and at least
/// the [`CALM_WINDOWS`] with the least steal.
fn calmest(steal: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..steal.len()).collect();
    order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]));
    let calm = order.iter().filter(|&&k| steal[k] <= CALM_STEAL).count();
    order.truncate(calm.max(CALM_WINDOWS));
    order
}

/// Percentile `p` of `w` in ns over the window's calmest sub-windows;
/// 0 when nothing was recorded there.
fn calm_pct(w: &Windowed, m: &Measured, p: f64) -> f64 {
    w.pooled(&m.calm).percentile(p).map_or(0.0, |q| q.value)
}

/// [`calm_pct`], printing the evidence: the sample counts, the steal in
/// the chosen sub-windows and over the whole window, and the percentile
/// over all samples with the highest percentile that has 10 beyond it.
fn pct(label: &str, w: &Windowed, m: &Measured, p: f64) -> f64 {
    let mut calm = w.pooled(&m.calm);
    let mut all = w.all();
    let (Some(c), Some(a)) = (calm.percentile(p), all.percentile(p)) else {
        return 0.0;
    };
    println!(
        "{label} p{p}: {:.1} us over {} samples in the {} calmest of {SUB_WINDOWS} sub-windows \
         (host steal {:.1}% there, {:.1}% overall); {:.1} us over all {} samples, {} beyond; \
         highest percentile with 10 beyond: p{}",
        c.value / 1e3,
        c.count,
        m.calm.len(),
        m.calm_steal * 100.0,
        m.steal_ratio * 100.0,
        a.value / 1e3,
        a.count,
        a.beyond,
        all.highest_supported(10)
    );
    c.value
}

/// The measured windows of one server at the nominal rate: the
/// workload's mix for all of `total`, except that `query`, which writes
/// nothing, spends its last quarter on a write tail of 5% inserts that
/// times inserts and their visibility.
fn live_windows(
    ctx: &Ctx,
    p: &mut Phase,
    total: Duration,
    mut spans: Option<&mut BTreeMap<(u64, u64), Span>>,
) -> Result<(Measured, Option<Measured>), String> {
    if ctx.spec.read_pct < 100 {
        let main = p.window(ctx, &nominal(ctx, total), spans)?;
        return Ok((main, None));
    }
    let main = p.window(
        ctx,
        &nominal(ctx, total.mul_f64(0.75)),
        spans.as_deref_mut(),
    )?;
    let tail = Window {
        read_pct: 95,
        ..nominal(ctx, total.mul_f64(0.25))
    };
    let tail = p.window(ctx, &tail, spans)?;
    Ok((main, Some(tail)))
}

/// The workload's own mix at its nominal rate, with markers.
fn nominal(ctx: &Ctx, duration: Duration) -> Window {
    Window {
        rate: ctx.spec.rate,
        read_pct: ctx.spec.read_pct,
        duration,
        markers: true,
        parts: SUB_WINDOWS,
    }
}

fn timed_run(ctx: &Ctx, total: Duration) -> Result<(Metrics, u64, u64, u64), String> {
    let mut setups = Vec::new();
    for i in 0..SETUPS - 1 {
        let s = spawn(ctx, &format!("setup{i}"), false)?;
        setups.push(s.setup.as_secs_f64());
        s.stop()?;
    }
    let server = spawn(ctx, "timed", false)?;
    setups.push(server.setup.as_secs_f64());
    setups.sort_by(f64::total_cmp);

    let mut p = Phase::start(ctx, &server, false)?;
    let (main, tail) = live_windows(ctx, &mut p, total, None)?;
    let rss = procfs::peak_rss_mb(&server.pid()).unwrap_or(0.0);
    p.finish(ctx, &server)?;
    server.stop()?;

    let mut m = Metrics::default();
    m.set("setup_s", setups[setups.len() / 2]);
    println!(
        "host CPU stolen during the timed window: {:.1}%",
        main.steal_ratio * 100.0
    );
    m.set("read_p50_us", us(pct("read", &main.obs.read, &main, 50.0)));
    pct("read", &main.obs.read, &main, 99.0);
    let w = tail.as_ref().unwrap_or(&main);
    m.set("write_p50_us", us(pct("write", &w.obs.write, w, 50.0)));
    pct("write", &w.obs.write, w, 99.0);
    m.set(
        "visible_p50_ms",
        ms(pct("visible", &w.obs.visible, w, 50.0)),
    );
    pct("visible", &w.obs.visible, w, 99.0);
    println!(
        "visibility resolution (probe interval): {:.3} ms",
        ms(2.0 * w.obs.interval.as_nanos() as f64)
    );
    m.set("server_rss_mb", rss);
    Ok((m, p.attempted, p.failed, p.wrong))
}

/// The resources and counters around one measured window.
struct Measured {
    obs: Observed,
    wall_s: f64,
    cpu_total_s: f64,
    cpu_workers_s: f64,
    cpu_writer_s: f64,
    bench_cpu_s: f64,
    stats0: StatsReport,
    stats1: StatsReport,
    /// Share of host CPU time the hypervisor stole during the window.
    steal_ratio: f64,
    /// The sub-windows with the least steal, and their mean steal.
    calm: Vec<usize>,
    calm_steal: f64,
    rebuilds: f64,
    boundary_edges: f64,
}

/// One server's life: its connections, everything sent to it, and the
/// running tally of checks.
struct Phase {
    conns: Vec<Conn>,
    /// Stats and trace dumps; closed (with the generator's connections)
    /// once the phase is finished, so the server can shut down.
    control: Option<Client>,
    pid: String,
    metrics_addr: String,
    wal_root: Option<PathBuf>,
    inserts: Vec<Vec<(Node, Node)>>,
    /// (answers, whether they predate every write to this server).
    answers: Vec<(Vec<(Request, Response)>, bool)>,
    unresolved: Vec<(Node, Node)>,
    engine_edges: u64,
    attempted: u64,
    failed: u64,
    wrong: u64,
}

impl Phase {
    fn start(ctx: &Ctx, server: &ServerProc, traced: bool) -> Result<Phase, String> {
        let conns = (0..CONNS)
            .map(|i| Conn::new(&server.addr, ctx.seed, i, traced))
            .collect::<Result<Vec<_>, _>>()?;
        let mut p = Phase {
            conns,
            control: Some(server.client()?),
            pid: server.pid(),
            metrics_addr: server.metrics_addr.clone(),
            wal_root: server.wal_dir.clone(),
            inserts: Vec::new(),
            answers: Vec::new(),
            unresolved: Vec::new(),
            engine_edges: 0,
            attempted: 0,
            failed: 0,
            wrong: 0,
        };
        // Warm-up: connections, caches and the writer reach steady state.
        let warm = Window {
            rate: ctx.spec.rate,
            read_pct: ctx.spec.read_pct,
            duration: Duration::from_millis(500),
            markers: false,
            parts: 1,
        };
        let o = run_window(&mut p.conns, &ctx.space, &warm, |_, _| {});
        p.absorb(ctx, o);
        Ok(p)
    }

    fn stats(&mut self) -> Result<StatsReport, String> {
        self.control
            .as_mut()
            .ok_or("phase already finished")?
            .stats()
            .map_err(|e| format!("stats: {e}"))
    }

    /// Every checked read answer of the phase.
    fn answers_flat(&self) -> Vec<(Request, Response)> {
        self.answers
            .iter()
            .flat_map(|(a, _)| a.iter().cloned())
            .collect()
    }

    fn absorb(&mut self, ctx: &Ctx, mut o: Observed) -> Observed {
        self.attempted += o.attempted;
        self.failed += o.failed;
        let static_so_far = self.inserts.is_empty() && o.inserts.is_empty();
        self.answers
            .push((std::mem::take(&mut o.answers), static_so_far));
        for b in &o.inserts {
            self.engine_edges += ctx.space.engine_edges(b);
        }
        self.inserts.append(&mut o.inserts);
        self.unresolved.append(&mut o.unresolved);
        o
    }

    /// One measured window, with resources and counters sampled around
    /// it and the host's steal sampled at every sub-window boundary;
    /// `spans` collects the server's retained traces while it runs.
    fn window(
        &mut self,
        ctx: &Ctx,
        w: &Window,
        mut spans: Option<&mut BTreeMap<(u64, u64), Span>>,
    ) -> Result<Measured, String> {
        let stats0 = self.stats()?;
        let scrape0 = server::scrape(&self.metrics_addr).ok();
        let cpu0 = procfs::sample(&self.pid);
        let host0 = procfs::host_ticks();
        let self0 = procfs::process_cpu_s("self");
        let control = self.control.as_mut().ok_or("phase already finished")?;
        let t = Instant::now();
        // Host ticks at every sub-window boundary, for the steal each
        // sub-window suffered.
        let mut ticks = Vec::with_capacity(w.parts + 1);
        let mut o = run_window(&mut self.conns, &ctx.space, w, |start, end| {
            let part = (end - start) / w.parts as u32;
            let mut boundary = start;
            let mut next_dump = start;
            loop {
                let now = Instant::now();
                if now >= boundary {
                    ticks.push(procfs::host_ticks());
                    boundary += part;
                }
                if now >= end {
                    break;
                }
                if let (Some(map), true) = (spans.as_deref_mut(), now >= next_dump) {
                    next_dump = now + Duration::from_millis(100);
                    if let Ok((_, got)) = control.dump_traces() {
                        for s in got {
                            map.insert((s.trace_id, s.span_id), s);
                        }
                    }
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        });
        let steal: Vec<f64> = ticks
            .windows(2)
            .map(|t| (t[1].0 - t[0].0) as f64 / (t[1].1 - t[0].1).max(1) as f64)
            .collect();
        let calm = calmest(&steal);
        let calm_steal = calm.iter().map(|&k| steal[k]).sum::<f64>() / calm.len().max(1) as f64;
        let wall_s = t.elapsed().as_secs_f64();
        let cpu1 = procfs::sample(&self.pid);
        let host1 = procfs::host_ticks();
        let self1 = procfs::process_cpu_s("self");
        let scrape1 = server::scrape(&self.metrics_addr).ok();
        let stats1 = self.stats()?;
        let counter = |name: &str| {
            let at = |s: &Option<afforest_obs::registry::Scrape>| {
                s.as_ref().and_then(|s| s.value(name)).unwrap_or(0) as f64
            };
            (at(&scrape0), at(&scrape1))
        };
        let (r0, r1) = counter("afforest_router_composite_rebuilds_total");
        let (_, boundary_edges) = counter("afforest_boundary_edges");
        o = self.absorb(ctx, o);
        Ok(Measured {
            wall_s,
            cpu_total_s: cpu0.delta_s(&cpu1, &[]),
            cpu_workers_s: cpu0.delta_s(&cpu1, &["afforest-serve-", "afforest-route"]),
            cpu_writer_s: cpu0.delta_s(&cpu1, &["afw-"]),
            bench_cpu_s: self1 - self0,
            stats0,
            stats1,
            steal_ratio: (host1.0 - host0.0) as f64 / (host1.1 - host0.1).max(1) as f64,
            calm,
            calm_steal,
            rebuilds: r1 - r0,
            boundary_edges,
            obs: o,
        })
    }

    /// The highest offered rate whose read p99 stays within the
    /// workload's limit without the generator falling further behind:
    /// a read-only closed-loop probe sizes the bracket, then a geometric
    /// bisection over short steps of the workload's own mix.
    fn search(&mut self, ctx: &Ctx, budget: Duration) -> Result<f64, String> {
        let step = budget / 10;
        let limit_ns = ctx.spec.p99_limit_ms * 1e6;
        let flood = Window {
            rate: 1e9,
            read_pct: 100,
            duration: step / 2,
            markers: false,
            parts: 1,
        };
        let o = run_window(&mut self.conns, &ctx.space, &flood, |_, _| {});
        let cap = o.attempted as f64 / flood.duration.as_secs_f64();
        progress(format_args!("closed-loop read capacity {cap:.0} req/s"));
        self.absorb(ctx, o);
        let once = |rate: f64, p: &mut Phase| {
            let w = Window {
                rate,
                read_pct: ctx.spec.read_pct,
                duration: step,
                markers: false,
                parts: 1,
            };
            let o = run_window(&mut p.conns, &ctx.space, &w, |_, _| {});
            let p99 = o.read.all().percentile(99.0).map_or(f64::MAX, |q| q.value);
            let growth = o.lateness_late_ns - o.lateness_early_ns;
            let ok = o.failed == 0
                && o.unsent * 100 <= o.attempted
                && p99 <= limit_ns
                && growth <= limit_ns / 4.0;
            p.absorb(ctx, o);
            progress(format_args!(
                "rate {rate:.0}: p99 {p99:.0} ns, lateness growth {growth:.0} ns -> {ok}"
            ));
            ok
        };
        // A rate fails only if a second try fails too, so one stall of
        // the shared host cannot cut the search short.
        let pass = |rate: f64, p: &mut Phase| once(rate, p) || once(rate, p);
        let (mut lo, mut hi) = (cap / 4.0, cap);
        while lo > 100.0 && !pass(lo, self) {
            hi = lo;
            lo /= 2.0;
        }
        for _ in 0..6 {
            let mid = (lo * hi).sqrt();
            if pass(mid, self) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        println!("max_rps: {lo:.0} req/s (closed-loop read capacity {cap:.0} req/s)");
        Ok(lo)
    }

    /// Waits for every acknowledged insert to be applied, then checks
    /// every recorded answer, the final component count, a sample of
    /// `Connected` answers and every outstanding marker against the
    /// oracle.
    fn finish(&mut self, ctx: &Ctx, server: &ServerProc) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let s = self.stats()?;
            if s.edges_ingested >= self.engine_edges || Instant::now() > deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let fin = Oracle::build(&ctx.graph, self.inserts.iter().map(Vec::as_slice));
        let seed = &ctx.seed_oracle;
        for (answers, before_writes) in &self.answers {
            let now = if *before_writes { seed } else { &fin };
            for (req, resp) in answers {
                if wrong_answer(req, resp, seed, now) {
                    self.failed += 1;
                    self.wrong += 1;
                }
            }
        }
        let mut checks: Vec<(Request, bool)> = Vec::new();
        let mut rng = rng::Rng::new(ctx.seed, 7);
        for i in 0..1000 {
            let (u, v) = match self.inserts.get(self.inserts.len().saturating_sub(1 + i)) {
                Some(b) if i % 2 == 0 && !b.is_empty() => b[b.len() - 1],
                _ => (rng.below(N as u64) as Node, rng.below(N as u64) as Node),
            };
            checks.push((Request::Connected(u, v), fin.connected(u, v)));
        }
        for &(a, b) in &self.unresolved {
            checks.push((Request::Connected(a, b), true));
        }
        let mut c = server.client()?;
        for (req, want) in checks {
            self.attempted += 1;
            if !matches!(c.call(&req), Ok(Response::Connected(got)) if got == want) {
                self.failed += 1;
                self.wrong += 1;
            }
        }
        self.attempted += 1;
        let count = c.num_components().map_err(|e| format!("count: {e}"))?;
        if count != fin.components() {
            eprintln!(
                "perfbench: server counts {count} components, oracle {}",
                fin.components()
            );
            self.failed += 1;
            self.wrong += 1;
        }
        drop(c);
        self.control = None;
        self.conns.clear();
        Ok(())
    }
}

/// Whether `resp` cannot be a correct answer to `req` given the oracle
/// at the seed graph and at everything sent so far (`now`): reads may
/// see any epoch between the two.
fn wrong_answer(req: &Request, resp: &Response, seed: &Oracle, now: &Oracle) -> bool {
    match (req, resp) {
        (Request::Connected(u, v), Response::Connected(b)) => {
            (seed.connected(*u, *v) && !b) || (*b && !now.connected(*u, *v))
        }
        (Request::Component(u), Response::Component(l)) => {
            *l as usize >= N || !now.connected(*u, *l)
        }
        (Request::ComponentSize(u), Response::ComponentSize(s)) => {
            *s < seed.size(*u) || *s > now.size(*u)
        }
        (Request::NumComponents, Response::NumComponents(c)) => {
            *c < now.components() || *c > seed.components()
        }
        _ => true,
    }
}

/// Self time of each stage: its duration minus what its children in the
/// same trace cover, median over the retained spans, in µs.
fn stage_self_us(spans: &BTreeMap<(u64, u64), Span>) -> BTreeMap<&'static str, f64> {
    let mut child_ns: BTreeMap<(u64, u64), u64> = BTreeMap::new();
    for s in spans.values() {
        if s.parent_span != 0 {
            *child_ns.entry((s.trace_id, s.parent_span)).or_default() += s.dur_ns;
        }
    }
    let mut per_stage: BTreeMap<&'static str, Recorder> = BTreeMap::new();
    for (key, s) in spans {
        let own = s
            .dur_ns
            .saturating_sub(child_ns.get(key).copied().unwrap_or(0));
        per_stage.entry(s.stage_name()).or_default().record(own);
    }
    per_stage
        .into_iter()
        .map(|(k, mut r)| (k, r.percentile(50.0).map_or(0.0, |q| q.value) / 1e3))
        .collect()
}

fn traced_run(ctx: &Ctx, total: Duration) -> Result<(Metrics, u64, u64, u64), String> {
    let mut m = Metrics::default();
    for (name, _) in PER_LAYER {
        m.set(name, 0.0);
    }
    let half = total / 2;

    // Untraced: the live per-layer figures, comparable to the timed
    // runs, then the capacity search.
    let server = spawn(ctx, "plain", false)?;
    let mut p = Phase::start(ctx, &server, false)?;
    let (a, a_tail) = live_windows(ctx, &mut p, half, None)?;
    let max_rps = p.search(ctx, Duration::from_secs(5))?;
    p.finish(ctx, &server)?;
    server.stop()?;
    let (mut attempted, mut failed, mut wrong) = (p.attempted, p.failed, p.wrong);

    // Traced: the server retains every request's spans (--slow-log 0)
    // and the clients mint a trace id per request.
    let server = spawn(ctx, "traced", true)?;
    let mut q = Phase::start(ctx, &server, true)?;
    let mut spans = BTreeMap::new();
    let (b, b_tail) = live_windows(ctx, &mut q, half, Some(&mut spans))?;
    let spans: Vec<Span> = spans.into_values().collect();
    q.finish(ctx, &server)?;
    server.stop()?;
    attempted += q.attempted;
    failed += q.failed;
    wrong += q.wrong;

    // Writes and visibility come from query's write tail.
    let aw = a_tail.as_ref().unwrap_or(&a);
    let bw = b_tail.as_ref().unwrap_or(&b);
    m.set("capacity.max_rps", max_rps);
    m.set("latency.read_p99_us", us(calm_pct(&a.obs.read, &a, 99.0)));
    m.set(
        "latency.write_p99_us",
        us(calm_pct(&aw.obs.write, aw, 99.0)),
    );
    m.set(
        "latency.visible_p99_ms",
        ms(calm_pct(&aw.obs.visible, aw, 99.0)),
    );
    let reqs = a.obs.attempted.max(1) as f64;
    let p50 = |r: &Recorder| r.clone().percentile(50.0).map_or(0.0, |q| q.value);
    m.set("client.read_rtt_us", us(p50(&a.obs.read_rtt)));
    m.set("client.insert_rtt_us", us(p50(&aw.obs.write_rtt)));
    m.set("client.read_samples", a.obs.read.len() as f64);
    m.set("client.visible_samples", aw.obs.visible.len() as f64);
    m.set(
        "generator.lateness_p99_us",
        us(a.obs
            .lateness
            .clone()
            .percentile(99.0)
            .map_or(0.0, |q| q.value)),
    );
    m.set(
        "generator.lateness_growth_us",
        us(a.obs.lateness_late_ns - a.obs.lateness_early_ns),
    );
    m.set("bench.cpu_ratio", a.bench_cpu_s / a.wall_s);
    m.set("host.steal_ratio", a.steal_ratio);
    m.set("server.worker_cpu_us_per_req", a.cpu_workers_s * 1e6 / reqs);
    m.set("server.cpu_us_per_req", a.cpu_total_s * 1e6 / reqs);
    // The write path is read off the window that writes (query's tail).
    m.set("writer.busy_ratio", aw.cpu_writer_s / aw.wall_s);
    let epochs = aw.stats1.epochs_published - aw.stats0.epochs_published;
    let edges = aw.stats1.edges_ingested - aw.stats0.edges_ingested;
    let batch_edges = edges.checked_div(epochs).unwrap_or(0);
    m.set("ingest.edges_per_epoch", batch_edges as f64);
    if ctx.spec.shards > 0 {
        m.set(
            "router.compose_hit_ratio",
            1.0 - a.rebuilds / a.obs.reads.max(1) as f64,
        );
    }
    m.set(
        "protocol.request_bytes",
        layers::request_bytes(&p.answers_flat(), &p.inserts),
    );
    m.set(
        "trace.overhead_read_p50_us",
        us(calm_pct(&b.obs.read, &b, 50.0) - calm_pct(&a.obs.read, &a, 50.0)),
    );
    m.set(
        "trace.overhead_read_p99_us",
        us(calm_pct(&b.obs.read, &b, 99.0) - calm_pct(&a.obs.read, &a, 99.0)),
    );
    m.set(
        "trace.overhead_visible_p50_ms",
        ms(calm_pct(&bw.obs.visible, bw, 50.0) - calm_pct(&aw.obs.visible, aw, 50.0)),
    );
    for (stage, v) in stage_self_us(
        &spans
            .iter()
            .map(|s| ((s.trace_id, s.span_id), *s))
            .collect(),
    ) {
        if let Some((name, _)) = PER_LAYER.iter().find(|(n, _)| {
            n.strip_prefix("stage.")
                .and_then(|r| r.strip_suffix(".self_us"))
                == Some(stage)
        }) {
            m.set(name, v);
        }
    }

    // In-process layer spans over the same generated inputs.
    let answers = p.answers_flat();
    let live = LiveInputs {
        graph_path: &ctx.graph_path,
        seed_edges: &ctx.seed_edges,
        answers: &answers,
        batch_edges: batch_edges as usize,
        wal_root: p.wal_root.as_deref(),
        scratch: &ctx.work,
    };
    let cc = layers::setup(&mut m, &live)?;
    layers::protocol(&mut m, &live, &ctx.space, ctx.seed);
    layers::write_path(&mut m, &live, cc, &ctx.space, ctx.seed)?;
    if let Some(root) = live.wal_root {
        layers::wal_recover(&mut m, root, &ctx.spec, &ctx.seed_edges)?;
    }
    layers::shard_layers(&mut m, &live, &ctx.space, ctx.seed)?;
    layers::boundary_sweep(&mut m, ctx.seed)?;
    if ctx.spec.shards == 0 {
        layers::server_handle(&mut m, &live)?;
    } else {
        // The router is the front end's handler here.
        m.set("server.handle_read_ns", m.get("router.read_hit_us") * 1e3);
        m.set("boundary.edges", a.boundary_edges);
    }
    let codec_us = m.get("protocol.read_codec_ns") / 1e3;
    let handle_us = m.get("server.handle_read_ns") / 1e3;
    m.set(
        "server.frontend_us",
        m.get("client.read_rtt_us") - codec_us - handle_us,
    );
    {
        // visible_p50 split: queue wait (traced stage) plus the writer's
        // stages at the run's batch size; the rest is unattributed, of
        // which about half a probe interval is the probe resolution.
        let probe_ms = ms(2.0 * aw.obs.interval.as_nanos() as f64);
        let vis_ms = ms(calm_pct(&aw.obs.visible, aw, 50.0));
        let writer_ms = m.get("wal.append_us") / 1e3
            + m.get("incremental.insert_batch_us") / 1e3
            + m.get("incremental.labels_ms")
            + m.get("snapshot.new_ms")
            + m.get("snapshot.publish_us") / 1e3;
        m.set("ingest.queue_wait_ms", vis_ms - writer_ms);
        m.set(
            "visible.unattributed_ms",
            vis_ms - writer_ms - m.get("stage.queue_wait.self_us") / 1e3,
        );
        println!(
            "visible_p50 {vis_ms:.3} ms = queue wait {:.3} + wal {:.3} + link {:.3} + labels {:.3} + snapshot {:.3} + publish {:.3} + unattributed {:.3} (probe interval {:.3})",
            m.get("stage.queue_wait.self_us") / 1e3,
            m.get("wal.append_us") / 1e3,
            m.get("incremental.insert_batch_us") / 1e3,
            m.get("incremental.labels_ms"),
            m.get("snapshot.new_ms"),
            m.get("snapshot.publish_us") / 1e3,
            m.get("visible.unattributed_ms"),
            probe_ms,
        );
    }
    m.set("failed_frac", failed as f64 / attempted.max(1) as f64);
    Ok((m, attempted, failed, wrong))
}

#[cfg(test)]
mod tests {
    use super::*;
    use afforest_graph::GraphBuilder;

    #[test]
    fn answers_are_judged_against_the_epochs_a_read_may_see() {
        // Seed {0, 1} {2} {3}; one insert joins 2 to them.
        let g = GraphBuilder::from_edges(4, &[(0, 1)]).build();
        let seed = Oracle::build(&g, []);
        let inserts = [vec![(1, 2)]];
        let now = Oracle::build(&g, inserts.iter().map(Vec::as_slice));
        let ok = |req: Request, resp: Response| !wrong_answer(&req, &resp, &seed, &now);
        // Before or after the insert: either epoch may answer.
        assert!(ok(Request::Connected(0, 2), Response::Connected(false)));
        assert!(ok(Request::Connected(0, 2), Response::Connected(true)));
        // A seed connection never goes away; nothing ever joins 3.
        assert!(!ok(Request::Connected(0, 1), Response::Connected(false)));
        assert!(!ok(Request::Connected(0, 3), Response::Connected(true)));
        assert!(ok(Request::ComponentSize(2), Response::ComponentSize(3)));
        assert!(!ok(Request::ComponentSize(2), Response::ComponentSize(4)));
        assert!(ok(Request::Component(2), Response::Component(0)));
        assert!(!ok(Request::Component(3), Response::Component(0)));
        assert!(ok(Request::NumComponents, Response::NumComponents(3)));
        assert!(!ok(Request::NumComponents, Response::NumComponents(1)));
        assert!(!ok(Request::NumComponents, Response::Err("no".into())));
    }
}
