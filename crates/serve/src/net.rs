//! The TCP front-end shared by the standalone server and the shard
//! router, which differ only behind [`Handler`].
//!
//! One acceptor thread (the caller of [`serve`]) hands each connection
//! to one of `workers` slots. A slot's worker thread reads, evaluates
//! and answers that connection's frames itself, each in the wire version
//! it arrived in. When every slot is taken and a connection is waiting,
//! the acceptor evicts the connection idle the longest: only one parked
//! between frames qualifies, and it is shut down through the acceptor's
//! clone of its socket, so it goes at once, not at the next read
//! timeout. A request racing the eviction sees a disconnect, which
//! `Client::call_retrying` absorbs by reconnecting.

use crate::events::{self, EventKind};
use crate::faults::FaultPlan;
use crate::metrics::metrics;
use crate::protocol::{
    decode_request_traced, encode_response, encode_response_v2, read_frame, write_frame, Request,
    Response, WireError, WireVersion,
};
use crate::server::ServeError;
use crate::tenant::TenantId;
use afforest_obs::registry::Hist;
use afforest_obs::reqtrace::{self, RootSpan, Stage};
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::thread;
use std::time::{Duration, Instant};

/// How long the acceptor sleeps between accept (or eviction) attempts:
/// as many wake-ups as four workers polling every 5 ms, half the wait.
const ACCEPT_POLL: Duration = Duration::from_millis(1);

/// Per-connection read timeout, so a parked reader re-checks the
/// shutdown flag and the idle deadline.
const READ_TIMEOUT: Duration = Duration::from_millis(100);

// Slot states; any other value means idle since that many nanoseconds
// (plus one) after the pool started.
/// Handed a connection, mid-frame, or answering: not evictable.
const BUSY: u64 = 0;
/// Being evicted; the worker frees the slot once its read fails.
const EVICTED: u64 = u64::MAX - 1;
/// Waiting for a connection.
const FREE: u64 = u64::MAX;

/// The service behind the front-end.
pub trait Handler: Sync {
    /// Worker threads are named `<THREAD_NAME>-<slot>`.
    const THREAD_NAME: &'static str;
    /// Stage of the root span each decoded request opens.
    const ROOT_STAGE: Stage;
    /// Stage the payload decode is recorded under, if any.
    const DECODE_STAGE: Option<Stage>;

    /// Evaluates one decoded request for `tenant`. Never panics.
    fn handle_for(&self, tenant: &TenantId, req: &Request) -> Response;

    /// Whether a `Shutdown` request has been received.
    fn shutdown_requested(&self) -> bool;

    /// Where each request's decode-through-encode latency lands; `None`
    /// when [`Handler::handle_for`] records its own.
    fn latency(&self) -> Option<&Hist> {
        None
    }

    /// How long a connection may sit idle before it is closed.
    fn read_deadline(&self) -> Option<Duration> {
        None
    }

    /// The chaos plan that kills workers and tears frames.
    fn faults(&self) -> Option<&FaultPlan> {
        None
    }

    /// Counts a protocol error beyond `afforest_protocol_errors_total`.
    fn count_protocol_error(&self) {}
}

/// Serves `listener` with `workers` connection slots until a `Shutdown`
/// request arrives. The calling thread is the acceptor.
pub fn serve<H: Handler>(h: &H, listener: TcpListener, workers: usize) -> Result<(), ServeError> {
    listener.set_nonblocking(true)?;
    let slots: Vec<AtomicU64> = (0..workers.max(1)).map(|_| AtomicU64::new(FREE)).collect();
    let start = Instant::now();
    thread::scope(|s| {
        let mut doors = Vec::with_capacity(slots.len());
        for (i, slot) in slots.iter().enumerate() {
            let (inbox, rx) = mpsc::channel();
            thread::Builder::new()
                .name(format!("{}-{i}", H::THREAD_NAME))
                // Dropping `doors` on failure lets the started workers exit.
                .spawn_scoped(s, move || worker(h, slot, start, i, rx))
                .map_err(|_| ServeError::Spawn {
                    what: "accept worker",
                })?;
            doors.push(Door {
                slot,
                inbox,
                peer: None,
            });
        }
        accept_loop(h, &listener, &mut doors);
        Ok(())
    })
}

/// The acceptor's side of one slot.
struct Door<'a> {
    slot: &'a AtomicU64,
    inbox: Sender<TcpStream>,
    /// A clone of the slot's connection, to evict it by.
    peer: Option<TcpStream>,
}

fn accept_loop<H: Handler>(h: &H, listener: &TcpListener, doors: &mut [Door<'_>]) {
    while !h.shutdown_requested() {
        // Nothing pending, or a transient failure (e.g. the peer
        // aborted the handshake): back off briefly and keep serving.
        let Ok((stream, _peer)) = listener.accept() else {
            thread::sleep(ACCEPT_POLL);
            continue;
        };
        let Some(door) = claim(h, doors).and_then(|i| doors.get_mut(i)) else {
            return;
        };
        door.peer = stream.try_clone().ok();
        let _ = door.inbox.send(stream);
    }
}

fn cas(slot: &AtomicU64, from: u64, to: u64) -> Result<u64, u64> {
    slot.compare_exchange(from, to, Ordering::Relaxed, Ordering::Relaxed)
}

/// Reserves a free slot, evicting the longest-idle connection while
/// every slot is taken. `None` once shutdown is requested.
fn claim<H: Handler>(h: &H, doors: &[Door<'_>]) -> Option<usize> {
    while !h.shutdown_requested() {
        if let Some(i) = doors.iter().position(|d| cas(d.slot, FREE, BUSY).is_ok()) {
            return Some(i);
        }
        let states: Vec<u64> = doors
            .iter()
            .map(|d| d.slot.load(Ordering::Relaxed))
            .collect();
        // One eviction at a time: the evicted slot is this connection's.
        let evicting = states.contains(&EVICTED);
        let idlest = states
            .iter()
            .zip(doors)
            .filter(|&(&s, d)| !evicting && s != BUSY && s < EVICTED && d.peer.is_some())
            .min_by_key(|&(&s, _)| s);
        if let Some((&since, door)) = idlest {
            if let (Ok(_), Some(peer)) = (cas(door.slot, since, EVICTED), &door.peer) {
                let _ = peer.shutdown(Shutdown::Both);
            }
        }
        thread::sleep(ACCEPT_POLL);
    }
    None
}

fn worker<H: Handler>(h: &H, slot: &AtomicU64, start: Instant, i: usize, rx: Receiver<TcpStream>) {
    for stream in rx {
        // The acceptor holds a clone: shut down so the peer sees the close.
        let close = || stream.shutdown(Shutdown::Both);
        // Chaos: a worker may die instead of serving. Its slot stays
        // busy for good; the rest of the pool keeps going.
        if h.faults().is_some_and(FaultPlan::should_kill_worker) {
            metrics().worker_deaths.inc();
            events::record(EventKind::WorkerDeath, [i as u64, 0, 0]);
            let _ = close();
            return;
        }
        metrics().connections.inc();
        serve_connection(h, slot, start, &stream);
        let _ = close();
        slot.store(FREE, Ordering::Relaxed);
    }
}

/// A connection's socket, read so that the first byte of a frame moves
/// the slot from idle (stamp `idle`) to busy, out of eviction's reach.
struct Claimed<'a> {
    stream: &'a TcpStream,
    slot: &'a AtomicU64,
    idle: u64,
}

impl Read for Claimed<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.stream.read(buf)?;
        match cas(self.slot, self.idle, BUSY) {
            Err(EVICTED) if n > 0 => Err(io::ErrorKind::ConnectionAborted.into()),
            _ => Ok(n),
        }
    }
}

/// Runs one connection's request/response loop until the peer closes,
/// the stream desynchronizes, the connection is evicted, or shutdown is
/// requested.
fn serve_connection<H: Handler>(h: &H, slot: &AtomicU64, start: Instant, mut stream: &TcpStream) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let _ = stream.set_nodelay(true);
    while !h.shutdown_requested() {
        let idle_since = Instant::now();
        let idle = 1 + idle_since.duration_since(start).as_nanos() as u64;
        slot.store(idle, Ordering::Relaxed);
        let payload = loop {
            match read_frame(&mut Claimed { stream, slot, idle }) {
                Ok(Some(payload)) => break payload,
                // Read timeout: enforce the idle deadline, else re-check
                // the shutdown flag.
                Err(WireError::Io(e))
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) && !h.shutdown_requested()
                        && h.read_deadline().is_none_or(|d| idle_since.elapsed() < d) => {}
                // Unframeable bytes desynchronize the stream: report,
                // then drop the connection.
                Err(WireError::Frame(e)) => {
                    count_protocol_error(h);
                    let _ =
                        write_frame(&mut stream, &encode_response(&Response::Err(e.to_string())));
                    return;
                }
                // Closed between frames, evicted, timed out, or died.
                _ => return,
            }
        };
        metrics().bytes_read.add(4 + payload.len() as u64);
        let (encoded, done) = answer(h, &payload);
        // Chaos: tear the response frame mid-write. A torn frame
        // desynchronizes the stream, so the connection dies with it —
        // exactly what a crashed server looks like to the client.
        if let Some(keep) = h.faults().and_then(|f| f.on_frame(4 + encoded.len())) {
            let mut framed = (encoded.len() as u32).to_le_bytes().to_vec();
            framed.extend_from_slice(&encoded);
            let _ = stream.write_all(framed.get(..keep).unwrap_or_default());
            metrics().bytes_written.add(keep as u64);
            return;
        }
        if write_frame(&mut stream, &encoded).is_err() {
            return;
        }
        metrics().bytes_written.add(4 + encoded.len() as u64);
        if done {
            return;
        }
    }
}

/// Decodes, evaluates and encodes one frame's payload. Returns the
/// response and whether the connection closes after it.
fn answer<H: Handler>(h: &H, payload: &[u8]) -> (Vec<u8>, bool) {
    let _span = afforest_obs::span!("serve-request");
    let start = Instant::now();
    let decoded = decode_request_traced(payload);
    let decode_ns = start.elapsed().as_nanos() as u64;
    // A malformed payload inside a well-delimited frame keeps the stream
    // in sync: answer Err and keep going.
    let (version, tenant, ctx, req) = match decoded {
        Ok(d) => d,
        Err(e) => {
            count_protocol_error(h);
            return (encode_response(&Response::Err(e.to_string())), false);
        }
    };
    // One root span per frame: children recorded while it is open hang
    // off it, and the whole tree is retained only if the request was
    // slow or degraded (tail sampling).
    let root = RootSpan::begin(ctx, H::ROOT_STAGE);
    let _trace_scope = reqtrace::scoped(root.ctx());
    if let Some(stage) = H::DECODE_STAGE {
        // Recorded retroactively: the context is known only once decoded.
        let begun = reqtrace::now_us().saturating_sub(decode_ns / 1_000);
        reqtrace::record(root.ctx(), stage, payload.len() as u64, begun, decode_ns);
    }
    let resp = h.handle_for(&tenant, &req);
    if matches!(
        resp,
        Response::Err(_) | Response::Overloaded { .. } | Response::Degraded(_)
    ) {
        root.force_retain();
    }
    let encoded = match version {
        WireVersion::V1 => encode_response(&resp),
        WireVersion::V2 => encode_response_v2(&resp),
    };
    if let Some(hist) = h.latency() {
        let exemplar = if root.sampled() {
            root.ctx().trace_id
        } else {
            0
        };
        hist.record_traced(start.elapsed().as_nanos() as u64, exemplar);
    }
    (encoded, matches!(resp, Response::Bye))
}

fn count_protocol_error<H: Handler>(h: &H) {
    metrics().protocol_errors.inc();
    h.count_protocol_error();
}
