//! Idle clients cannot starve the server: with every connection slot
//! held by an idle connection, one more client is answered at once,
//! because the front-end evicts the connection idle the longest.

use afforest_serve::protocol::call;
use afforest_serve::{Request, Response, ServeConfig, Server};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

const WORKERS: usize = 2;

/// Requests shutdown when dropped, so a failed assertion unwinds out of
/// the serving scope instead of hanging in it.
struct StopOnDrop<'a>(&'a Server);

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

#[test]
fn idle_connections_do_not_starve_a_new_client() {
    let config = ServeConfig::builder().build().expect("valid config");
    let server = Server::new(8, &[(0, 1), (1, 2)], config).expect("start server");
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    std::thread::scope(|s| {
        s.spawn(|| server.serve_tcp(listener, WORKERS).expect("serve_tcp"));
        let _stop = StopOnDrop(&server);
        // Fill every slot with a connection that is answered once and
        // then sits idle; the first one has been idle the longest.
        let mut idle: Vec<TcpStream> = (0..WORKERS)
            .map(|_| {
                let mut c = connect(addr);
                assert_eq!(
                    call(&mut c, &Request::NumComponents).unwrap(),
                    Response::NumComponents(6)
                );
                std::thread::sleep(Duration::from_millis(20));
                c
            })
            .collect();

        let t = Instant::now();
        let mut fresh = connect(addr);
        let answer = call(&mut fresh, &Request::NumComponents);
        let took = t.elapsed();
        assert_eq!(answer.unwrap(), Response::NumComponents(6));
        assert!(
            took < Duration::from_millis(100),
            "new client waited {took:?} behind {WORKERS} idle connections"
        );
        // The longest-idle connection was the one evicted; the other
        // still holds its slot.
        assert!(call(&mut idle[0], &Request::NumComponents).is_err());
        assert_eq!(
            call(&mut idle[1], &Request::NumComponents).unwrap(),
            Response::NumComponents(6)
        );
    });
}
