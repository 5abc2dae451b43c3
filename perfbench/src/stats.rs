//! The benchmark's own arithmetic: medians, tail percentiles, geomeans
//! and `{"cmd":"stats"}` histogram deltas.

use gapbs_telemetry::json::Json;

/// Median of `values` (mean of the two middle values for an even
/// count). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Nearest-rank quantile `q` (0 ≤ q ≤ 1) of `values`: the value at
/// sorted index `ceil(q · n) − 1` (the smallest for `q = 0`). `None`
/// when empty.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// The quantile the gated figures take over repeated measurements of
/// one thing (a cell's trials, a run's windows). CPU steal on a shared
/// host inflates a varying share of samples, and only ever upwards; the
/// lower quartile stays put until three in four samples are hit, where
/// the median moves at one in two.
pub const QUIET_QUANTILE: f64 = 0.25;

/// Geometric mean of strictly positive `values`. `None` when empty or
/// when any value is not positive.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v.is_nan() || v <= 0.0) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The tail statistic: the highest percentile, capped at `cap` (in
/// percent), that still leaves at least [`TAIL_MIN_BEYOND`] samples
/// strictly above its rank. Returns `(percentile, value)`; `None` when
/// there are too few samples for any tail (n ≤ 10).
///
/// The rank is the nearest-rank definition: the value at sorted index
/// `ceil(p/100 · n) − 1`, so `n − index − 1` samples lie beyond it.
pub fn tail(values: &[f64], cap: f64) -> Option<(f64, f64)> {
    let n = values.len();
    if n <= TAIL_MIN_BEYOND {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    // Largest index that leaves TAIL_MIN_BEYOND samples above it.
    let max_index = n - TAIL_MIN_BEYOND - 1;
    let cap_index = ((cap / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1;
    let index = cap_index.min(max_index);
    let percentile = ((index + 1) as f64 / n as f64 * 100.0).min(cap);
    Some((percentile, v[index]))
}

/// One log₂ bucket of a scraped histogram: its upper bound and the
/// number of recordings in it (not cumulative).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bucket {
    /// Exclusive upper bound (`le` in the scrape).
    pub le: f64,
    /// Recordings in this bucket alone.
    pub count: u64,
}

/// A histogram as scraped from `{"cmd":"stats"}`: per-bucket counts
/// reconstructed from the cumulative `{"le","count"}` table, plus the
/// total count and sum.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Histogram {
    /// Non-empty buckets in ascending `le` order.
    pub buckets: Vec<Bucket>,
    /// Total recordings.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: f64,
}

impl Histogram {
    /// Parses one histogram object (`{"count","sum","buckets":[{"le","count"}]}`
    /// with cumulative counts). A missing histogram parses as empty: the
    /// daemon registers some series lazily, on first use.
    pub fn from_json(h: Option<&Json>) -> Result<Histogram, String> {
        let Some(h) = h else {
            return Ok(Histogram::default());
        };
        let count = h
            .get("count")
            .and_then(Json::as_u64)
            .ok_or("histogram without a count")?;
        let sum = h.get("sum").and_then(Json::as_f64).unwrap_or(0.0);
        let mut buckets = Vec::new();
        let mut prev = 0u64;
        if let Some(Json::Arr(table)) = h.get("buckets") {
            for entry in table {
                let le = entry
                    .get("le")
                    .and_then(Json::as_f64)
                    .ok_or("bucket without le")?;
                let cumulative = entry
                    .get("count")
                    .and_then(Json::as_u64)
                    .ok_or("bucket without count")?;
                let own = cumulative
                    .checked_sub(prev)
                    .ok_or("cumulative bucket counts decrease")?;
                prev = cumulative;
                buckets.push(Bucket { le, count: own });
            }
        }
        if prev != count {
            return Err(format!("bucket table sums to {prev}, count is {count}"));
        }
        Ok(Histogram {
            buckets,
            count,
            sum,
        })
    }

    /// The recordings made between `earlier` and `self` (both scrapes of
    /// one monotone histogram).
    pub fn delta(&self, earlier: &Histogram) -> Result<Histogram, String> {
        let mut buckets = Vec::new();
        for b in &self.buckets {
            let before = earlier
                .buckets
                .iter()
                .find(|e| e.le == b.le)
                .map_or(0, |e| e.count);
            let count = b
                .count
                .checked_sub(before)
                .ok_or_else(|| format!("bucket le={} shrank between scrapes", b.le))?;
            if count > 0 {
                buckets.push(Bucket { le: b.le, count });
            }
        }
        for e in &earlier.buckets {
            if e.count > 0 && !self.buckets.iter().any(|b| b.le == e.le) {
                return Err(format!("bucket le={} vanished between scrapes", e.le));
            }
        }
        let count = self
            .count
            .checked_sub(earlier.count)
            .ok_or("histogram count shrank between scrapes")?;
        Ok(Histogram {
            buckets,
            count,
            sum: self.sum - earlier.sum,
        })
    }

    /// Upper bound of the bucket holding the `q` quantile (nearest
    /// rank); `None` when empty. Log₂ buckets make this at most 2× the
    /// true value.
    pub fn quantile_le(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for b in &self.buckets {
            seen += b.count;
            if seen >= rank {
                return Some(b.le);
            }
        }
        self.buckets.last().map(|b| b.le)
    }

    /// Mean recorded value; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Recordings in the bucket whose upper bound is `le`.
    pub fn bucket_count(&self, le: f64) -> u64 {
        self.buckets
            .iter()
            .find(|b| b.le == le)
            .map_or(0, |b| b.count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<f64> = (1..=8).rev().map(f64::from).collect();
        assert_eq!(quantile(&v, 0.25), Some(2.0));
        assert_eq!(quantile(&v, 0.75), Some(6.0));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(8.0));
        // Five trials: the lower quartile is the second smallest.
        assert_eq!(
            quantile(&[9.0, 3.0, 7.0, 1.0, 5.0], QUIET_QUANTILE),
            Some(3.0)
        );
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn geomean_of_powers_and_rejects_non_positive() {
        let g = geomean(&[1.0, 4.0, 16.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, -2.0]), None);
    }

    #[test]
    fn tail_is_p99_with_enough_samples() {
        // 1000 samples 1..=1000: p99 by nearest rank is 990, leaving 10
        // samples (991..=1000) beyond it.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (p, x) = tail(&v, 99.0).unwrap();
        assert_eq!(p, 99.0);
        assert_eq!(x, 990.0);
        assert_eq!(v.iter().filter(|&&y| y > x).count(), 10);
    }

    #[test]
    fn tail_drops_below_p99_to_keep_ten_beyond() {
        // 200 samples: p99 would leave only 2 beyond, so the rule falls
        // back to p95 (index 189, value 190, 10 samples beyond).
        let v: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let (p, x) = tail(&v, 99.0).unwrap();
        assert_eq!(x, 190.0);
        assert!((p - 95.0).abs() < 1e-9);
        assert_eq!(v.iter().filter(|&&y| y > x).count(), TAIL_MIN_BEYOND);
        // Eleven samples: only the smallest leaves ten beyond.
        let v: Vec<f64> = (0..11).map(f64::from).collect();
        assert_eq!(tail(&v, 99.0).unwrap().1, 0.0);
        assert_eq!(tail(&v[..10], 99.0), None);
    }

    fn hist(json: &str) -> Histogram {
        Histogram::from_json(Some(&Json::parse(json).unwrap())).unwrap()
    }

    #[test]
    fn histogram_delta_recovers_the_window() {
        let before =
            hist(r#"{"count":5,"sum":50,"buckets":[{"le":4,"count":2},{"le":16,"count":5}]}"#);
        let after = hist(
            r#"{"count":12,"sum":150,"buckets":[{"le":4,"count":2},{"le":8,"count":6},{"le":16,"count":9},{"le":64,"count":12}]}"#,
        );
        assert_eq!(after.bucket_count(8.0), 4);
        let d = after.delta(&before).unwrap();
        assert_eq!(d.count, 7);
        assert_eq!(d.sum, 100.0);
        // le=4 saw no new recordings, le=8 four, le=16 none, le=64 three.
        assert_eq!(
            d.buckets,
            vec![Bucket { le: 8.0, count: 4 }, Bucket { le: 64.0, count: 3 }]
        );
        assert_eq!(d.quantile_le(0.5), Some(8.0));
        assert_eq!(d.quantile_le(0.99), Some(64.0));
        assert_eq!(d.mean(), Some(100.0 / 7.0));
        assert!(before.delta(&after).is_err(), "reversed scrapes shrink");
    }

    #[test]
    fn histogram_rejects_incoherent_tables() {
        let bad = Json::parse(r#"{"count":3,"buckets":[{"le":4,"count":2},{"le":8,"count":1}]}"#)
            .unwrap();
        assert!(Histogram::from_json(Some(&bad)).is_err());
        let short = Json::parse(r#"{"count":3,"buckets":[{"le":4,"count":2}]}"#).unwrap();
        assert!(Histogram::from_json(Some(&short)).is_err());
        assert_eq!(Histogram::from_json(None).unwrap().count, 0);
        assert_eq!(Histogram::default().quantile_le(0.5), None);
    }
}
