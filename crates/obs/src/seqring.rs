//! The lock-free seqlock ring behind the flight recorder and the span
//! ring: the last [`CAPACITY`] records of `W` plain `u64` words each.
//!
//! Writers claim a slot with one `fetch_add` on the cursor and stamp it
//! `2*seq + 1` while writing, `2*seq + 2` once complete. Readers load
//! the stamp before and after copying the words and keep the record only
//! if both agree on a completed stamp, so a slot caught mid-overwrite is
//! skipped, never returned torn (and, being plain words, never unsound).
//! One writer-side race is accepted: a writer stalled long enough for the
//! cursor to lap the ring can interleave with a second writer of the
//! same slot, garbling one historical record of a diagnostic dump.

use std::sync::atomic::{AtomicU64, Ordering};

/// Records a ring retains (oldest overwritten first).
pub const CAPACITY: usize = 1024;

struct Slot<const W: usize> {
    /// 0 = never written; `2*seq + 1` = writing; `2*seq + 2` = complete.
    stamp: AtomicU64,
    words: [AtomicU64; W],
}

/// A fixed-capacity ring of `W`-word records (see module docs).
pub struct SeqRing<const W: usize> {
    cursor: AtomicU64,
    slots: Box<[Slot<W>]>,
}

impl<const W: usize> Default for SeqRing<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const W: usize> SeqRing<W> {
    /// An empty ring of [`CAPACITY`] slots.
    pub fn new() -> SeqRing<W> {
        SeqRing {
            cursor: AtomicU64::new(0),
            slots: (0..CAPACITY)
                .map(|_| Slot {
                    stamp: AtomicU64::new(0),
                    words: std::array::from_fn(|_| AtomicU64::new(0)),
                })
                .collect(),
        }
    }

    /// Records one record, overwriting the oldest once full. Lock-free:
    /// one `fetch_add` plus plain atomic stores, so it is safe from any
    /// thread, including inside a panic hook.
    pub fn record(&self, words: [u64; W]) {
        let seq = self.cursor.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(seq % CAPACITY as u64) as usize];
        // Release-stamp the writing mark so readers that observe it
        // (via Acquire) know the words below may be in flux.
        slot.stamp.store(2 * seq + 1, Ordering::Release);
        for (cell, v) in slot.words.iter().zip(words) {
            cell.store(v, Ordering::Relaxed);
        }
        // Release the completed stamp: a reader seeing 2*seq+2 with
        // Acquire also sees every word store above.
        slot.stamp.store(2 * seq + 2, Ordering::Release);
    }

    /// Records ever recorded (including ones already overwritten).
    pub fn recorded(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed)
    }

    /// Consistent copies of every completed slot as `(seq, words)`,
    /// oldest first, without blocking writers.
    pub fn snapshot(&self) -> Vec<(u64, [u64; W])> {
        let mut out = Vec::with_capacity(CAPACITY);
        for slot in self.slots.iter() {
            let before = slot.stamp.load(Ordering::Acquire);
            if before == 0 || before % 2 == 1 {
                continue; // never written, or a writer owns it right now
            }
            let words = std::array::from_fn(|i| slot.words[i].load(Ordering::Relaxed));
            if slot.stamp.load(Ordering::Acquire) == before {
                out.push((before / 2 - 1, words));
            }
        }
        out.sort_unstable_by_key(|&(seq, _)| seq);
        out
    }
}
