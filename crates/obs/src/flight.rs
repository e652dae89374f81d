//! Fixed-capacity lock-free flight recorder.
//!
//! A ring of the last [`CAPACITY`] structured events, writable from any
//! thread without locks, readable at any time (including from a panic
//! hook) without stopping writers. The serving crate records coarse
//! lifecycle events here — epoch published, WAL compaction, overload
//! shed, fault injected, worker death — so that when a server dies, the
//! dump explains *what the runtime was doing*, which counters alone
//! cannot.
//!
//! The ring is a [`SeqRing`] of five-word records (timestamp, kind, the
//! three payload words); see [`crate::seqring`] for its protocol.

use crate::seqring::SeqRing;
use std::time::Instant;

/// Number of events the ring retains (oldest overwritten first).
pub use crate::seqring::CAPACITY;

/// One recorded event, as copied out by [`Ring::snapshot`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Global sequence number (0-based, never reused).
    pub seq: u64,
    /// Microseconds since the ring was created.
    pub ts_us: u64,
    /// Caller-defined event kind (the serving crate maps these to
    /// names; the ring itself is agnostic).
    pub kind: u16,
    /// Caller-defined payload words, meaning fixed per kind.
    pub args: [u64; 3],
}

/// The event ring. Usually accessed through a process-global instance
/// owned by the serving crate; constructible directly for tests.
pub struct Ring {
    ring: SeqRing<5>,
    epoch: Instant,
}

impl Default for Ring {
    fn default() -> Ring {
        Ring::new()
    }
}

impl Ring {
    /// Creates an empty ring of [`CAPACITY`] slots.
    pub fn new() -> Ring {
        Ring {
            ring: SeqRing::new(),
            epoch: Instant::now(),
        }
    }

    /// Records one event. Lock-free: one `fetch_add` plus plain atomic
    /// stores. Safe from any thread, including inside a panic hook.
    pub fn record(&self, kind: u16, args: [u64; 3]) {
        let ts = self.epoch.elapsed().as_micros() as u64;
        let [a, b, c] = args;
        self.ring.record([ts, u64::from(kind), a, b, c]);
    }

    /// Total events ever recorded (including ones already overwritten).
    pub fn recorded(&self) -> u64 {
        self.ring.recorded()
    }

    /// Copies out every retained event, oldest first, without blocking
    /// writers. Slots caught mid-write are skipped.
    pub fn snapshot(&self) -> Vec<Event> {
        self.ring
            .snapshot()
            .into_iter()
            .map(|(seq, [ts_us, kind, a, b, c])| Event {
                seq,
                ts_us,
                kind: kind as u16,
                args: [a, b, c],
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_snapshots_in_order() {
        let ring = Ring::new();
        for i in 0..10u64 {
            ring.record(1, [i, i * 2, 0]);
        }
        let events = ring.snapshot();
        assert_eq!(events.len(), 10);
        for (i, ev) in events.iter().enumerate() {
            assert_eq!(ev.seq, i as u64);
            assert_eq!(ev.args[0], i as u64);
            assert_eq!(ev.kind, 1);
        }
        assert_eq!(ring.recorded(), 10);
    }

    #[test]
    fn wraps_keeping_the_newest() {
        let ring = Ring::new();
        let total = CAPACITY as u64 + 100;
        for i in 0..total {
            ring.record(2, [i, 0, 0]);
        }
        let events = ring.snapshot();
        assert_eq!(events.len(), CAPACITY);
        assert_eq!(events.first().unwrap().seq, 100);
        assert_eq!(events.last().unwrap().seq, total - 1);
        // Seqs are contiguous after the wrap.
        for w in events.windows(2) {
            assert_eq!(w[1].seq, w[0].seq + 1);
        }
        assert_eq!(ring.recorded(), total);
    }

    #[test]
    fn concurrent_writers_every_event_consistent() {
        let ring = Ring::new();
        let threads = 8u64;
        let per = 200u64; // 1600 > CAPACITY: exercises wrap under contention
        std::thread::scope(|s| {
            for t in 0..threads {
                let ring = &ring;
                s.spawn(move || {
                    for i in 0..per {
                        // args encode (writer, i) twice so a torn mix is
                        // detectable.
                        ring.record(3, [t, i, t * 1_000_000 + i]);
                    }
                });
            }
        });
        assert_eq!(ring.recorded(), threads * per);
        let events = ring.snapshot();
        assert!(!events.is_empty());
        for ev in events {
            assert_eq!(ev.kind, 3);
            assert_eq!(ev.args[2], ev.args[0] * 1_000_000 + ev.args[1]);
        }
    }

    #[test]
    fn snapshot_of_empty_ring_is_empty() {
        assert!(Ring::new().snapshot().is_empty());
    }
}
