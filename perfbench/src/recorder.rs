//! Exact latency recording: every sample is kept and percentiles are
//! read off the sorted array, so 30 µs and 60 µs never share a bucket.

/// A percentile together with the evidence behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quantile {
    /// The sample at the nearest-rank position, in the unit recorded.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub count: usize,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
}

/// Keeps every sample (nanoseconds or any other integer unit).
#[derive(Clone, Debug, Default)]
pub struct Recorder {
    samples: Vec<u64>,
    sorted: bool,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder::default()
    }

    pub fn record(&mut self, v: u64) {
        self.samples.push(v);
        self.sorted = false;
    }

    pub fn merge(&mut self, other: &Recorder) {
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
    }

    /// Nearest-rank percentile `p` in `[0, 100]`: the smallest sample
    /// such that at least `p`% of samples are at or below it. `None`
    /// when nothing was recorded.
    pub fn percentile(&mut self, p: f64) -> Option<Quantile> {
        if self.samples.is_empty() {
            return None;
        }
        self.sort();
        let n = self.samples.len();
        let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
        Some(Quantile {
            value: self.samples[rank - 1] as f64,
            count: n,
            beyond: n - rank,
        })
    }

    /// The highest of the usual reporting percentiles that still has at
    /// least `min_beyond` samples above its rank (0 when none does).
    pub fn highest_supported(&mut self, min_beyond: usize) -> f64 {
        const LADDER: [f64; 7] = [99.99, 99.9, 99.5, 99.0, 95.0, 90.0, 50.0];
        LADDER
            .iter()
            .copied()
            .find(|&p| self.percentile(p).is_some_and(|q| q.beyond >= min_beyond))
            .unwrap_or(0.0)
    }
}

/// One recorder per equal sub-window of a measuring window, so that a
/// percentile can be taken over the sub-windows in which the shared host
/// interfered least.
#[derive(Clone, Debug, Default)]
pub struct Windowed {
    parts: Vec<Recorder>,
}

impl Windowed {
    pub fn new(parts: usize) -> Windowed {
        Windowed {
            parts: vec![Recorder::new(); parts.max(1)],
        }
    }

    /// Records `v` in sub-window `part` (clamped to the last one).
    pub fn record(&mut self, part: usize, v: u64) {
        let last = self.parts.len() - 1;
        self.parts[part.min(last)].record(v);
    }

    pub fn merge(&mut self, other: &Windowed) {
        if self.parts.len() < other.parts.len() {
            self.parts.resize(other.parts.len(), Recorder::new());
        }
        for (mine, theirs) in self.parts.iter_mut().zip(&other.parts) {
            mine.merge(theirs);
        }
    }

    /// Every sample of every sub-window.
    pub fn all(&self) -> Recorder {
        let mut r = Recorder::new();
        for p in &self.parts {
            r.merge(p);
        }
        r
    }

    pub fn len(&self) -> usize {
        self.parts.iter().map(Recorder::len).sum()
    }

    /// The samples of sub-windows `parts`, pooled.
    pub fn pooled(&self, parts: &[usize]) -> Recorder {
        let mut r = Recorder::new();
        for &k in parts {
            if let Some(p) = self.parts.get(k) {
                r.merge(p);
            }
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The textbook nearest-rank definition over an explicitly sorted copy.
    fn reference(values: &[u64], p: f64) -> u64 {
        let mut v = values.to_vec();
        v.sort_unstable();
        let n = v.len();
        let mut rank = 1;
        while rank < n && (rank as f64) < p / 100.0 * n as f64 {
            rank += 1;
        }
        v[rank - 1]
    }

    #[test]
    fn percentiles_match_a_sorted_array_reference() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for n in [1usize, 2, 3, 10, 99, 100, 101, 1000, 4097] {
            let mut rec = Recorder::new();
            let mut values = Vec::new();
            for _ in 0..n {
                state = crate::rng::splitmix64(state);
                // Latency-like spread: 1 µs .. ~1 s, heavy-tailed.
                let v = 1_000 + (state % 1_000) * (1 + (state >> 40) % 1_000);
                values.push(v);
                rec.record(v);
            }
            for p in [0.0, 1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
                let q = rec.percentile(p).unwrap();
                assert_eq!(q.value as u64, reference(&values, p), "n={n} p={p}");
                assert_eq!(q.count, n);
            }
        }
    }

    #[test]
    fn distinguishes_thirty_from_sixty_microseconds() {
        let mut rec = Recorder::new();
        for _ in 0..50 {
            rec.record(30_000);
        }
        for _ in 0..50 {
            rec.record(60_000);
        }
        assert_eq!(rec.percentile(50.0).unwrap().value, 30_000.0);
        assert_eq!(rec.percentile(51.0).unwrap().value, 60_000.0);
    }

    #[test]
    fn windowed_pools_the_chosen_sub_windows() {
        let mut w = Windowed::new(4);
        for part in 0..4u64 {
            for v in 1..=10u64 {
                w.record(part as usize, v + 100 * part);
            }
        }
        // Out-of-range parts clamp to the last sub-window.
        w.record(9, 1_000);
        assert_eq!(w.len(), 41);
        assert_eq!(w.all().len(), 41);
        let mut calm = w.pooled(&[0, 2]);
        assert_eq!(calm.len(), 20);
        assert_eq!(calm.percentile(100.0).unwrap().value, 210.0);
        assert_eq!(calm.percentile(50.0).unwrap().value, 10.0);
        assert_eq!(w.pooled(&[3]).percentile(100.0).unwrap().value, 1_000.0);
    }

    #[test]
    fn support_needs_ten_samples_beyond() {
        let mut rec = Recorder::new();
        for v in 0..1000 {
            rec.record(v);
        }
        assert_eq!(rec.percentile(99.0).unwrap().beyond, 10);
        assert_eq!(rec.highest_supported(10), 99.0);
        let mut hundred = Recorder::new();
        for v in 0..100 {
            hundred.record(v);
        }
        assert_eq!(hundred.highest_supported(10), 90.0);
        let mut small = Recorder::new();
        for v in 0..50 {
            small.record(v);
        }
        assert_eq!(small.highest_supported(10), 50.0);
        assert!(Recorder::new().percentile(50.0).is_none());
    }
}
