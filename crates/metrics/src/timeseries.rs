//! Time-series recording for the paper's microscopic figures (8, 18, 19).

use hostcc_sim::Nanos;

/// A recorded `(time, value)` series with simple query/rendering helpers.
///
/// The deep-dive figures plot `I_S`, `B_S` and the host-local response level
/// over 250 µs – 1 ms windows; the experiment harness records one sample per
/// hostCC sampling interval and dumps the series both as CSV (for plotting)
/// and as a terminal sparkline (for eyeballing in CI logs).
///
/// A series built with [`TimeSeries::with_capacity`] bounds its memory by
/// stride-doubling: once the buffer fills, every other retained point is
/// dropped and the keep-stride doubles, so an arbitrarily long run keeps at
/// most `max_points` samples while preserving the first and last point
/// exactly.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    name: String,
    times: Vec<Nanos>,
    values: Vec<f64>,
    /// 0 means unbounded (the historical behaviour).
    max_points: usize,
    /// Keep every `stride`-th pushed sample once bounded.
    stride: u64,
    /// Total samples ever pushed (only tracked when bounded).
    seen: u64,
    /// The last buffered point is an off-stride "provisional" endpoint that
    /// the next push will replace (it only survives if it stays last).
    provisional: bool,
}

impl Default for TimeSeries {
    fn default() -> Self {
        TimeSeries::new("")
    }
}

impl TimeSeries {
    /// An empty, named, unbounded series.
    pub fn new(name: impl Into<String>) -> Self {
        TimeSeries {
            name: name.into(),
            times: Vec::new(),
            values: Vec::new(),
            max_points: 0,
            stride: 1,
            seen: 0,
            provisional: false,
        }
    }

    /// An empty, named series that retains at most `max_points` samples via
    /// stride-doubling downsampling (`max_points == 0` means unbounded).
    pub fn with_capacity(name: impl Into<String>, max_points: usize) -> Self {
        let mut s = TimeSeries::new(name);
        // A meaningful bound needs room for both endpoints.
        s.max_points = if max_points == 0 {
            0
        } else {
            max_points.max(2)
        };
        s
    }

    /// The series name (used as the CSV column header).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The configured retention bound (0 = unbounded).
    pub fn max_points(&self) -> usize {
        self.max_points
    }

    /// Append a sample. Samples must arrive in non-decreasing time order.
    pub fn push(&mut self, t: Nanos, v: f64) {
        if let Some(&last) = self.times.last() {
            debug_assert!(t >= last, "time series sample out of order");
        }
        if self.max_points == 0 {
            self.times.push(t);
            self.values.push(v);
            return;
        }
        // Drop the previous provisional endpoint: it is replaced by the
        // newer sample (and re-kept below if it happens to be on-stride).
        if self.provisional {
            self.times.pop();
            self.values.pop();
            self.provisional = false;
        }
        let keep = self.seen.is_multiple_of(self.stride);
        self.seen += 1;
        self.times.push(t);
        self.values.push(v);
        self.provisional = !keep;
        if keep && self.times.len() >= self.max_points {
            self.halve();
            // Halving keeps even indices; if the just-pushed point sat at an
            // odd index it was dropped — restore it as the provisional end.
            if self.times.last() != Some(&t) {
                self.times.push(t);
                self.values.push(v);
                self.provisional = true;
            }
        }
    }

    /// Drop every other retained point (keeping index 0, hence the first
    /// endpoint) and double the keep-stride.
    fn halve(&mut self) {
        let mut i = 0usize;
        self.times.retain(|_| {
            let keep = i.is_multiple_of(2);
            i += 1;
            keep
        });
        let mut j = 0usize;
        self.values.retain(|_| {
            let keep = j.is_multiple_of(2);
            j += 1;
            keep
        });
        self.stride = self.stride.saturating_mul(2);
    }

    /// Drop every sample, keeping the name, the retention bound and the
    /// buffers' capacity: the series then fills exactly as a new one would.
    pub fn clear(&mut self) {
        self.times.clear();
        self.values.clear();
        self.stride = 1;
        self.seen = 0;
        self.provisional = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Iterate over `(time, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Nanos, f64)> + '_ {
        self.times.iter().copied().zip(self.values.iter().copied())
    }

    /// The sub-series within `[from, to)`.
    pub fn window(&self, from: Nanos, to: Nanos) -> TimeSeries {
        let mut out = TimeSeries::new(self.name.clone());
        for (t, v) in self.iter() {
            if t >= from && t < to {
                out.push(t, v);
            }
        }
        out
    }

    /// Mean value over all samples (unweighted).
    pub fn mean(&self) -> Option<f64> {
        if self.values.is_empty() {
            return None;
        }
        Some(self.values.iter().sum::<f64>() / self.values.len() as f64)
    }

    /// Minimum value.
    pub fn min(&self) -> Option<f64> {
        self.values.iter().copied().reduce(f64::min)
    }

    /// Maximum value.
    pub fn max(&self) -> Option<f64> {
        self.values.iter().copied().reduce(f64::max)
    }

    /// Downsample to at most `n` points by averaging fixed-size chunks
    /// (keeps plots readable without distorting level shifts).
    pub fn downsample(&self, n: usize) -> TimeSeries {
        if n == 0 || self.len() <= n {
            return self.clone();
        }
        let chunk = self.len().div_ceil(n);
        let mut out = TimeSeries::new(self.name.clone());
        for c in self.times.chunks(chunk).zip(self.values.chunks(chunk)) {
            let (ts, vs) = c;
            let t = ts[ts.len() / 2];
            let v = vs.iter().sum::<f64>() / vs.len() as f64;
            out.push(t, v);
        }
        out
    }

    /// Render as CSV lines: `time_us,value`.
    pub fn to_csv(&self) -> String {
        let mut s = format!("time_us,{}\n", self.name);
        for (t, v) in self.iter() {
            s.push_str(&format!("{:.3},{:.4}\n", t.as_micros_f64(), v));
        }
        s
    }

    /// Render a unicode sparkline of `width` columns (min–max normalized).
    pub fn sparkline(&self, width: usize) -> String {
        const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
        if self.is_empty() || width == 0 {
            return String::new();
        }
        let ds = self.downsample(width);
        let (lo, hi) = (ds.min().unwrap(), ds.max().unwrap());
        let span = (hi - lo).max(1e-12);
        ds.values
            .iter()
            .map(|v| {
                let i = (((v - lo) / span) * 7.0).round() as usize;
                BARS[i.min(7)]
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(vals: &[(u64, f64)]) -> TimeSeries {
        let mut s = TimeSeries::new("x");
        for &(t, v) in vals {
            s.push(Nanos::from_nanos(t), v);
        }
        s
    }

    #[test]
    fn basic_stats() {
        let s = series(&[(0, 1.0), (10, 3.0), (20, 2.0)]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.mean(), Some(2.0));
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(3.0));
    }

    #[test]
    fn window_selects_half_open_range() {
        let s = series(&[(0, 0.0), (10, 1.0), (20, 2.0), (30, 3.0)]);
        let w = s.window(Nanos::from_nanos(10), Nanos::from_nanos(30));
        assert_eq!(w.len(), 2);
        assert_eq!(w.mean(), Some(1.5));
    }

    #[test]
    fn window_includes_from_and_excludes_to() {
        let s = series(&[(10, 1.0), (20, 2.0), (30, 3.0)]);
        // A sample exactly at `from` is kept; exactly at `to` is not.
        let w = s.window(Nanos::from_nanos(10), Nanos::from_nanos(30));
        assert_eq!(w.iter().map(|(_, v)| v).collect::<Vec<_>>(), [1.0, 2.0]);
        // Degenerate window: from == to selects nothing.
        assert!(s
            .window(Nanos::from_nanos(20), Nanos::from_nanos(20))
            .is_empty());
        // The window keeps the series name for CSV headers.
        assert_eq!(w.name(), "x");
    }

    #[test]
    fn downsample_preserves_mean_roughly() {
        let mut s = TimeSeries::new("x");
        for i in 0..1000u64 {
            s.push(Nanos::from_nanos(i), i as f64);
        }
        let d = s.downsample(10);
        assert_eq!(d.len(), 10);
        assert!((d.mean().unwrap() - s.mean().unwrap()).abs() < 1.0);
    }

    #[test]
    fn csv_format() {
        let s = series(&[(1000, 1.5)]);
        let csv = s.to_csv();
        assert!(csv.starts_with("time_us,x\n"));
        assert!(csv.contains("1.000,1.5000"));
    }

    #[test]
    fn sparkline_has_requested_width() {
        let mut s = TimeSeries::new("x");
        for i in 0..100u64 {
            s.push(Nanos::from_nanos(i), (i % 10) as f64);
        }
        let sl = s.sparkline(20);
        assert_eq!(sl.chars().count(), 20);
    }

    #[test]
    fn empty_series() {
        let s = TimeSeries::new("x");
        assert!(s.is_empty());
        assert_eq!(s.mean(), None);
        assert_eq!(s.sparkline(10), "");
    }

    #[test]
    fn bounded_series_stays_under_cap_and_preserves_endpoints() {
        const N: u64 = 10_000_000;
        const CAP: usize = 1024;
        let mut s = TimeSeries::with_capacity("x", CAP);
        for i in 0..N {
            s.push(Nanos::from_nanos(i), i as f64);
        }
        assert!(s.len() <= CAP, "len {} exceeds cap {}", s.len(), CAP);
        // Stride-doubling must still leave a usable resolution.
        assert!(s.len() >= CAP / 4, "len {} collapsed too far", s.len());
        let first = s.iter().next().unwrap();
        let last = s.iter().last().unwrap();
        assert_eq!(first, (Nanos::from_nanos(0), 0.0));
        assert_eq!(last, (Nanos::from_nanos(N - 1), (N - 1) as f64));
        // Samples stay in order and roughly uniform (a linear ramp keeps
        // its mean under stride downsampling).
        let mut prev = None;
        for (t, _) in s.iter() {
            if let Some(p) = prev {
                assert!(t > p);
            }
            prev = Some(t);
        }
        let mid = (N - 1) as f64 / 2.0;
        assert!((s.mean().unwrap() - mid).abs() / mid < 0.02);
    }

    #[test]
    fn bounded_series_below_cap_keeps_everything() {
        let mut s = TimeSeries::with_capacity("x", 100);
        for i in 0..50u64 {
            s.push(Nanos::from_nanos(i), i as f64);
        }
        assert_eq!(s.len(), 50);
        assert_eq!(s.iter().last(), Some((Nanos::from_nanos(49), 49.0)));
    }

    #[test]
    fn cleared_series_refills_like_a_new_one() {
        let fill = |s: &mut TimeSeries, from: u64| {
            for i in from..from + 1000 {
                s.push(Nanos::from_nanos(i), i as f64);
            }
        };
        let mut reused = TimeSeries::with_capacity("x", 64);
        fill(&mut reused, 0);
        reused.clear();
        assert!(reused.is_empty());
        fill(&mut reused, 5000);
        let mut fresh = TimeSeries::with_capacity("x", 64);
        fill(&mut fresh, 5000);
        assert!(reused.iter().eq(fresh.iter()));
        assert_eq!(reused.name(), "x");
    }

    #[test]
    fn unbounded_default_never_drops() {
        let mut s = TimeSeries::new("x");
        for i in 0..10_000u64 {
            s.push(Nanos::from_nanos(i), 0.0);
        }
        assert_eq!(s.len(), 10_000);
        assert_eq!(s.max_points(), 0);
    }
}
