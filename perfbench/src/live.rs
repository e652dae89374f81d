//! Driving a running server: two connections, one generator thread each,
//! open-loop at a fixed offered rate, with marker edges timing how soon
//! an acknowledged insert becomes visible.

use crate::recorder::{Recorder, Windowed};
use crate::rng::Rng;
use crate::sched::{run_open_loop, tighten_timer_slack, Schedule, Source, Timing, Transport};
use crate::workload::Space;
use afforest_graph::Node;
use afforest_serve::{Client, Request, Response};
use std::time::{Duration, Instant};

/// Generator connections (and threads).
pub const CONNS: usize = 2;

/// One generator connection and the state that outlives a window.
pub struct Conn {
    client: Client,
    addr: String,
    rng: Rng,
    markers: Vec<(Node, Node)>,
    next_marker: usize,
    traced: bool,
}

impl Conn {
    pub fn new(addr: &str, seed: u64, conn: usize, traced: bool) -> Result<Conn, String> {
        Ok(Conn {
            client: connect(addr, traced)?,
            addr: addr.to_string(),
            rng: Rng::new(seed, 100 + conn as u64),
            markers: crate::workload::markers(conn, CONNS),
            next_marker: 0,
            traced,
        })
    }
}

fn connect(addr: &str, traced: bool) -> Result<Client, String> {
    let c = Client::connect(addr)
        .and_then(|c| c.with_read_timeout(Some(Duration::from_secs(10))))
        .map_err(|e| format!("connect {addr}: {e}"))?;
    Ok(if traced { c.with_tracing() } else { c })
}

#[derive(Clone, Copy, Debug)]
pub struct Window {
    /// Offered load over all connections, requests/s.
    pub rate: f64,
    pub read_pct: u64,
    pub duration: Duration,
    /// Whether inserts carry marker edges and reads probe them.
    pub markers: bool,
    /// Equal sub-windows the latency percentiles are taken over.
    pub parts: usize,
}

/// What one window observed (merged over connections).
#[derive(Clone, Default)]
pub struct Observed {
    /// Latency from the due time, ns, per sub-window of due time.
    pub read: Windowed,
    pub write: Windowed,
    /// Round trip from the send, ns.
    pub read_rtt: Recorder,
    pub write_rtt: Recorder,
    /// Send time minus due time, ns, in schedule order per connection.
    pub lateness: Recorder,
    /// Median lateness over the first and the last quarter of the window.
    pub lateness_early_ns: f64,
    pub lateness_late_ns: f64,
    /// Insert acknowledgement to first read that sees the marker, ns,
    /// per sub-window of acknowledgement time.
    pub visible: Windowed,
    /// Read answers to check against the oracle (marker probes excluded).
    pub answers: Vec<(Request, Response)>,
    /// Every acknowledged insert batch.
    pub inserts: Vec<Vec<(Node, Node)>>,
    /// Acknowledged markers not yet seen connected when the window ended.
    pub unresolved: Vec<(Node, Node)>,
    pub attempted: u64,
    pub failed: u64,
    pub reads: u64,
    /// Requests that fell due but were not sent by the window's end.
    pub unsent: u64,
    /// Per-connection schedule interval (the probe cadence is twice it).
    pub interval: Duration,
}

impl Observed {
    fn absorb(&mut self, o: Observed) {
        self.read.merge(&o.read);
        self.write.merge(&o.write);
        self.read_rtt.merge(&o.read_rtt);
        self.write_rtt.merge(&o.write_rtt);
        self.lateness.merge(&o.lateness);
        self.lateness_early_ns = self.lateness_early_ns.max(o.lateness_early_ns);
        self.lateness_late_ns = self.lateness_late_ns.max(o.lateness_late_ns);
        self.visible.merge(&o.visible);
        self.answers.extend(o.answers);
        self.inserts.extend(o.inserts);
        self.unresolved.extend(o.unresolved);
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.reads += o.reads;
        self.unsent += o.unsent;
        self.interval = o.interval;
    }
}

enum Slot {
    Read,
    Probe,
    Insert { marker: Option<(Node, Node)> },
}

/// Runs one window on every connection in parallel; `during(start,
/// end)` runs on the calling thread meanwhile (polling, sampling).
pub fn run_window(
    conns: &mut [Conn],
    space: &Space,
    w: &Window,
    during: impl FnOnce(Instant, Instant),
) -> Observed {
    let start = Instant::now() + Duration::from_millis(2);
    let end = start + w.duration;
    let per_conn = w.rate / conns.len() as f64;
    let n = conns.len();
    let mut total = Observed::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(i, c)| {
                // Connections interleave evenly within one interval.
                let sched = Schedule::at_rate(start, per_conn, i as f64 / n as f64, end);
                s.spawn(move || drive(c, space, w, &sched))
            })
            .collect();
        during(start, end);
        for h in handles {
            total.absorb(h.join().expect("generator thread panicked"));
        }
    });
    total
}

fn drive(c: &mut Conn, space: &Space, w: &Window, sched: &Schedule) -> Observed {
    tighten_timer_slack();
    let Conn {
        client,
        addr,
        rng,
        markers,
        next_marker,
        traced,
    } = c;
    let mut transport = Reconnecting {
        client,
        addr,
        traced: *traced,
    };
    let mut gen = Generator {
        space,
        w,
        start: sched.start,
        part: (sched.end - sched.start) / w.parts.max(1) as u32,
        rng,
        markers,
        next_marker,
        pending: None,
        probe_turn: false,
        slot: Slot::Read,
        lateness_seq: Vec::new(),
        o: Observed {
            interval: sched.interval,
            read: Windowed::new(w.parts),
            write: Windowed::new(w.parts),
            visible: Windowed::new(w.parts),
            ..Observed::default()
        },
    };
    let sent = run_open_loop(&mut transport, sched, &mut gen);
    let mut o = gen.o;
    o.unsent = sent.unsent as u64;
    if let Some((m, _)) = gen.pending {
        o.unresolved.push(m);
    }
    let seq = &gen.lateness_seq;
    let q = seq.len() / 4;
    if q > 0 {
        o.lateness_early_ns = median(&seq[..q]);
        o.lateness_late_ns = median(&seq[seq.len() - q..]);
    }
    o
}

/// One connection's request source and answer sink.
struct Generator<'a> {
    space: &'a Space,
    w: &'a Window,
    start: Instant,
    part: Duration,
    rng: &'a mut Rng,
    markers: &'a [(Node, Node)],
    next_marker: &'a mut usize,
    /// The acknowledged marker not yet seen connected, with its ack time.
    pending: Option<((Node, Node), Instant)>,
    probe_turn: bool,
    /// What the request in flight is.
    slot: Slot,
    lateness_seq: Vec<u64>,
    o: Observed,
}

impl Source for Generator<'_> {
    fn next(&mut self) -> Request {
        if self.rng.below(100) < self.w.read_pct {
            // While a marker is outstanding every other read probes it.
            self.probe_turn = !self.probe_turn;
            if let (Some(((a, b), _)), true) = (self.pending, self.probe_turn) {
                self.slot = Slot::Probe;
                return Request::Connected(a, b);
            }
            self.slot = Slot::Read;
            return self.space.read(self.rng);
        }
        let mut batch = self.space.insert_batch(self.rng);
        let mut marker = None;
        if self.w.markers && self.pending.is_none() {
            if let Some(&m) = self.markers.get(*self.next_marker) {
                *self.next_marker += 1;
                batch[0] = m;
                marker = Some(m);
            }
        }
        self.slot = Slot::Insert { marker };
        Request::InsertEdges(batch)
    }

    fn done(&mut self, req: &Request, resp: Result<Response, String>, t: Timing) {
        let (start, part_len) = (self.start, self.part.as_nanos().max(1));
        let part_of =
            |at: Instant| (at.saturating_duration_since(start).as_nanos() / part_len) as usize;
        let part = part_of(t.due);
        let o = &mut self.o;
        o.attempted += 1;
        let late = t.lateness().as_nanos() as u64;
        self.lateness_seq.push(late);
        o.lateness.record(late);
        let lat = t.latency().as_nanos() as u64;
        let rtt = t.rtt().as_nanos() as u64;
        let resp = match resp {
            Ok(Response::Err(_)) | Ok(Response::Overloaded { .. }) | Err(_) => None,
            Ok(r) => Some(r),
        };
        match (&self.slot, req) {
            (Slot::Insert { marker }, Request::InsertEdges(batch)) => {
                // A failed insert may still have been applied: the oracle
                // sees it either way, so the final count check holds.
                o.inserts.push(batch.clone());
                match resp {
                    Some(Response::Accepted { edges }) if edges as usize == batch.len() => {
                        o.write.record(part, lat);
                        o.write_rtt.record(rtt);
                        if let Some(m) = marker {
                            self.pending = Some((*m, t.done));
                        }
                    }
                    _ => {
                        o.failed += 1;
                        if let Some(m) = marker {
                            o.unresolved.push(*m);
                        }
                    }
                }
            }
            (Slot::Probe, _) => {
                o.reads += 1;
                match resp {
                    Some(Response::Connected(seen)) => {
                        o.read.record(part, lat);
                        o.read_rtt.record(rtt);
                        if seen {
                            if let Some((_, acked)) = self.pending.take() {
                                let at = part_of(acked);
                                o.visible.record(at, (t.done - acked).as_nanos() as u64);
                            }
                        }
                    }
                    _ => o.failed += 1,
                }
            }
            _ => {
                o.reads += 1;
                match resp {
                    Some(r) => {
                        o.read.record(part, lat);
                        o.read_rtt.record(rtt);
                        o.answers.push((req.clone(), r));
                    }
                    None => o.failed += 1,
                }
            }
        }
    }
}

fn median(v: &[u64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_unstable();
    s[s.len() / 2] as f64
}

/// A client that reconnects once after a transport error, so one torn
/// connection costs one failed request, not the rest of the window.
struct Reconnecting<'a> {
    client: &'a mut Client,
    addr: &'a str,
    traced: bool,
}

impl Transport for Reconnecting<'_> {
    fn call(&mut self, req: &Request) -> Result<Response, String> {
        let r = Transport::call(self.client, req);
        if r.is_err() {
            if let Ok(c) = connect(self.addr, self.traced) {
                *self.client = c;
            }
        }
        r
    }
}
