//! The router's TCP front-end: both wire versions, both kinds of
//! malformed input, the transport counters, and idle-connection
//! eviction.
//!
//! Own test binary on purpose: the metric registry is process-global,
//! and the tests below serialize on a lock so the counter deltas they
//! assert are exactly their own traffic.

use afforest_obs::registry::{self, Scrape};
use afforest_serve::protocol::{call, call_v2, decode_response, read_frame, write_frame};
use afforest_serve::{Request, Response, ServeConfig, TenantId};
use afforest_shard::{BoundaryStore, LocalCluster, Router, ShardPlan};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};

static SERIAL: Mutex<()> = Mutex::new(());

const N: usize = 16;
const WORKERS: usize = 2;

fn router() -> Router<LocalCluster> {
    let plan = ShardPlan::new(N, 2);
    let config = ServeConfig::builder().build().unwrap();
    let cluster = LocalCluster::new(&plan, &[], &config).unwrap();
    Router::new(plan, BoundaryStore::new(N), cluster, None)
}

/// Requests shutdown when dropped, so a failed assertion unwinds out of
/// the serving scope instead of hanging in it.
struct StopOnDrop<'a>(&'a Router<LocalCluster>);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.request_shutdown();
    }
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(3)))
        .unwrap();
    stream
}

fn scrape() -> Scrape {
    registry::parse_exposition(&registry::expose()).expect("exposition parses")
}

fn delta(before: &Scrape, after: &Scrape, name: &str) -> u64 {
    after.value(name).unwrap_or(0) - before.value(name).unwrap_or(0)
}

fn latency_samples(s: &Scrape) -> u64 {
    s.histogram("afforest_router_latency_ns")
        .map_or(0, |h| h.count)
}

#[test]
fn router_speaks_both_versions_and_counts_its_traffic() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let router = router();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let before = scrape();

    std::thread::scope(|s| {
        s.spawn(|| router.serve_tcp(listener, WORKERS).expect("serve_tcp"));
        let _stop = StopOnDrop(&router);
        let mut c = connect(addr);

        // A v1 and a v2 round trip on one connection.
        assert_eq!(
            call(&mut c, &Request::Connected(0, N as u32 - 1)).unwrap(),
            Response::Connected(false)
        );
        assert_eq!(
            call_v2(&mut c, &TenantId::default_tenant(), &Request::NumComponents).unwrap(),
            Response::NumComponents(N as u64)
        );

        // A malformed payload in a well-formed frame: Err, and the
        // stream stays in sync for the next request.
        write_frame(&mut c, &[0xEE]).unwrap();
        let payload = read_frame(&mut c).unwrap().expect("an answer");
        assert!(matches!(decode_response(&payload), Ok(Response::Err(_))));
        assert_eq!(
            call(&mut c, &Request::NumComponents).unwrap(),
            Response::NumComponents(N as u64)
        );

        // A bad length prefix: Err, then the router closes.
        let mut d = connect(addr);
        d.write_all(&u32::MAX.to_le_bytes()).unwrap();
        let payload = read_frame(&mut d).unwrap().expect("an answer");
        assert!(matches!(decode_response(&payload), Ok(Response::Err(_))));
        assert!(matches!(read_frame(&mut d), Ok(None)));

        let after = scrape();
        assert_eq!(delta(&before, &after, "afforest_protocol_errors_total"), 2);
        assert_eq!(delta(&before, &after, "afforest_connections_total"), 2);
        assert!(delta(&before, &after, "afforest_bytes_read_total") > 0);
        assert!(delta(&before, &after, "afforest_bytes_written_total") > 0);
        // One latency sample per decoded request: three of them.
        assert_eq!(delta(&before, &after, "afforest_router_requests_total"), 3);
        assert_eq!(latency_samples(&after) - latency_samples(&before), 3);

        assert_eq!(call(&mut c, &Request::Shutdown).unwrap(), Response::Bye);
    });
    router.shutdown_backend();
}

#[test]
fn idle_connections_do_not_starve_a_new_router_client() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let router = router();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    std::thread::scope(|s| {
        s.spawn(|| router.serve_tcp(listener, WORKERS).expect("serve_tcp"));
        let _stop = StopOnDrop(&router);
        // Fill every slot with a connection that is answered once and
        // then sits idle; the first one has been idle the longest.
        let mut idle: Vec<TcpStream> = (0..WORKERS)
            .map(|_| {
                let mut c = connect(addr);
                assert_eq!(
                    call(&mut c, &Request::NumComponents).unwrap(),
                    Response::NumComponents(N as u64)
                );
                std::thread::sleep(Duration::from_millis(20));
                c
            })
            .collect();

        let t = Instant::now();
        let mut fresh = connect(addr);
        let answer = call(&mut fresh, &Request::NumComponents);
        let took = t.elapsed();
        assert_eq!(answer.unwrap(), Response::NumComponents(N as u64));
        assert!(
            took < Duration::from_millis(100),
            "new client waited {took:?} behind {WORKERS} idle connections"
        );
        // The longest-idle connection was the one evicted; the other
        // still holds its slot.
        assert!(call(&mut idle[0], &Request::NumComponents).is_err());
        assert_eq!(
            call(&mut idle[1], &Request::NumComponents).unwrap(),
            Response::NumComponents(N as u64)
        );
    });
}
