//! The open-loop generator: requests are due on a fixed schedule and are
//! timed from when they were due, not from when they were sent, so a
//! stall shows on every request queued behind it (no coordinated
//! omission). The generator's own lateness is reported next to it.

use afforest_serve::{Client, Request, Response};
use std::time::{Duration, Instant};

/// Something that answers one request at a time.
pub trait Transport {
    fn call(&mut self, req: &Request) -> Result<Response, String>;
}

impl Transport for Client {
    fn call(&mut self, req: &Request) -> Result<Response, String> {
        Client::call(self, req).map_err(|e| e.to_string())
    }
}

/// When each request of one connection is due.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    pub start: Instant,
    pub interval: Duration,
    pub end: Instant,
}

impl Schedule {
    /// `rate` requests per second starting at `start + phase`, until
    /// `end`.
    pub fn at_rate(start: Instant, rate: f64, phase: f64, end: Instant) -> Schedule {
        let interval = Duration::from_secs_f64(1.0 / rate);
        Schedule {
            start: start + interval.mul_f64(phase),
            interval,
            end,
        }
    }

    fn due(&self, i: u32) -> Instant {
        self.start + self.interval * i
    }
}

/// The instants of one request.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    pub due: Instant,
    /// When the connection's previous request was answered.
    pub free: Instant,
    pub sent: Instant,
    pub done: Instant,
}

impl Timing {
    /// Latency as the user sees it. A request that fell due while the
    /// previous one was still in flight is timed from its due time, so
    /// the wait behind a stall counts; one that fell due on an idle
    /// connection is timed from its send, so the generator's own
    /// wake-up delay (reported as [`Timing::lateness`]) does not.
    pub fn latency(&self) -> Duration {
        let start = if self.free > self.due {
            self.due
        } else {
            self.sent
        };
        self.done - start
    }

    /// How late the generator sent the request.
    pub fn lateness(&self) -> Duration {
        self.sent - self.due
    }

    /// Round trip on the wire: from the send to the answer.
    pub fn rtt(&self) -> Duration {
        self.done - self.sent
    }
}

/// Lowers this thread's timer slack to 1 ns so sleeps wake on time; the
/// default 50 µs slack would add itself to every request's lateness.
pub fn tighten_timer_slack() {
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long and only changes
    // the calling thread's timer slack; it touches no memory of ours.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64);
    }
}

fn wait_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// What the generator sends and where the answers go.
pub trait Source {
    /// The next request, built once it is due (so it may depend on
    /// earlier answers).
    fn next(&mut self) -> Request;
    /// One answer with its timing.
    fn done(&mut self, req: &Request, resp: Result<Response, String>, timing: Timing);
}

/// Requests sent and requests that fell due but could not be sent
/// before the window's end, because the generator ran behind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sent {
    pub sent: u32,
    pub unsent: u32,
}

/// Runs `sched` against `transport` with requests from `source`, until
/// the schedule ends or, if the generator runs behind, until the
/// window's end in wall time.
pub fn run_open_loop<T: Transport, S: Source>(
    transport: &mut T,
    sched: &Schedule,
    source: &mut S,
) -> Sent {
    let mut i = 0u32;
    let mut free = sched.start;
    loop {
        let due = sched.due(i);
        if due >= sched.end {
            return Sent { sent: i, unsent: 0 };
        }
        let now = Instant::now();
        if now >= sched.end {
            let behind = (sched.end - due).as_nanos() / sched.interval.as_nanos().max(1);
            return Sent {
                sent: i,
                unsent: u32::try_from(behind).unwrap_or(u32::MAX),
            };
        }
        wait_until(due);
        let req = source.next();
        let sent = Instant::now();
        let resp = transport.call(&req);
        let done_at = Instant::now();
        source.done(
            &req,
            resp,
            Timing {
                due,
                free,
                sent,
                done: done_at,
            },
        );
        free = done_at;
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Answers at once, except that call number `stall_at` takes
    /// `stall` first.
    struct Stalling {
        calls: u32,
        stall_at: u32,
        stall: Duration,
    }

    impl Transport for Stalling {
        fn call(&mut self, _req: &Request) -> Result<Response, String> {
            if self.calls == self.stall_at {
                std::thread::sleep(self.stall);
            }
            self.calls += 1;
            Ok(Response::NumComponents(1))
        }
    }

    struct Timings(Vec<Timing>);

    impl Source for Timings {
        fn next(&mut self) -> Request {
            Request::NumComponents
        }
        fn done(&mut self, _req: &Request, resp: Result<Response, String>, timing: Timing) {
            assert!(resp.is_ok());
            self.0.push(timing);
        }
    }

    #[test]
    fn a_stall_shows_on_the_requests_queued_behind_it() {
        tighten_timer_slack();
        let interval = Duration::from_millis(2);
        let stall = Duration::from_millis(30);
        let start = Instant::now() + Duration::from_millis(5);
        let sched = Schedule {
            start,
            interval,
            end: start + interval * 40,
        };
        let mut t = Stalling {
            calls: 0,
            stall_at: 5,
            stall,
        };
        let mut rec = Timings(Vec::new());
        let sent = run_open_loop(&mut t, &sched, &mut rec);
        let timings = rec.0;
        assert_eq!(
            sent,
            Sent {
                sent: 40,
                unsent: 0
            }
        );
        assert_eq!(timings.len(), 40);
        // The stalled request itself takes the whole stall.
        assert!(timings[5].latency() >= stall);
        // Requests due during the stall waited for it: each one's latency
        // is the rest of the stall from its own due time, and the
        // generator reports that wait as lateness.
        for i in 6..18u32 {
            let t = timings[i as usize];
            let left = stall.saturating_sub(interval * (i - 5));
            assert!(
                t.latency() + Duration::from_micros(200) >= left,
                "request {i}: latency {:?} < {:?}",
                t.latency(),
                left
            );
            assert!(t.lateness() + Duration::from_micros(200) >= left);
            // Timed from the due time, not the send: the round trip
            // alone would hide the stall.
            assert!(t.rtt() < Duration::from_millis(5));
        }
        // Once caught up, requests leave on time again.
        let last = timings[39];
        assert!(
            last.lateness() < Duration::from_millis(2),
            "{:?}",
            last.lateness()
        );
    }

    #[test]
    fn an_overloaded_generator_stops_at_the_window_end() {
        // Every call takes 1 ms against a 10 µs schedule: the generator
        // falls ever further behind and must still stop on time.
        let start = Instant::now();
        let end = start + Duration::from_millis(30);
        let sched = Schedule::at_rate(start, 100_000.0, 0.0, end);
        struct Slow;
        impl Transport for Slow {
            fn call(&mut self, _req: &Request) -> Result<Response, String> {
                std::thread::sleep(Duration::from_millis(1));
                Ok(Response::NumComponents(1))
            }
        }
        let mut rec = Timings(Vec::new());
        let out = run_open_loop(&mut Slow, &sched, &mut rec);
        assert!(Instant::now() < end + Duration::from_millis(5));
        assert!(out.sent <= 31, "{out:?}");
        assert!(out.unsent > 2500, "{out:?}");
        // The last request sent was late by most of the window.
        let last = rec.0.last().unwrap();
        assert!(last.lateness() > Duration::from_millis(20));
    }

    #[test]
    fn schedule_spacing_follows_the_rate() {
        let start = Instant::now();
        let s = Schedule::at_rate(start, 1000.0, 0.5, start + Duration::from_secs(1));
        assert_eq!(s.interval, Duration::from_millis(1));
        assert_eq!(s.due(0), start + Duration::from_micros(500));
        assert_eq!(s.due(3) - s.due(1), Duration::from_millis(2));
    }
}
