//! Sampling and statistics.
//!
//! The paper's system collects "rough data statistics" with a sampling
//! pass at load time (§6.3) and uses selectivity estimation to set the
//! map/reduce output ratios α and β of the cost model (§4.1). This module
//! provides: reservoir sampling, per-column min/max/distinct estimates,
//! equi-depth histograms, and theta-selectivity estimation between two
//! sampled columns.

use crate::relation::Relation;
use crate::value::Value;
use rand::Rng;
use std::cmp::Ordering;
use std::collections::HashSet;

/// Classic reservoir sampler (Algorithm R) over a stream of items.
#[derive(Debug, Clone)]
pub struct Sampler<T> {
    capacity: usize,
    seen: usize,
    reservoir: Vec<T>,
}

impl<T> Sampler<T> {
    /// Create a sampler holding at most `capacity` items.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "sampler capacity must be positive");
        Sampler {
            capacity,
            seen: 0,
            reservoir: Vec::with_capacity(capacity),
        }
    }

    /// Offer one item from the stream.
    pub fn offer(&mut self, item: T, rng: &mut impl Rng) {
        self.seen += 1;
        if self.reservoir.len() < self.capacity {
            self.reservoir.push(item);
        } else {
            let j = rng.gen_range(0..self.seen);
            if j < self.capacity {
                self.reservoir[j] = item;
            }
        }
    }

    /// Number of items offered so far.
    pub fn seen(&self) -> usize {
        self.seen
    }

    /// The current sample.
    pub fn sample(&self) -> &[T] {
        &self.reservoir
    }
}

/// Equi-depth histogram over sampled numeric values.
#[derive(Debug, Clone)]
pub struct Histogram {
    /// Bucket boundaries, ascending; bucket i covers
    /// `[bounds[i], bounds[i+1])`, last bucket closed on the right.
    bounds: Vec<f64>,
    /// Fraction of values in each bucket (sums to 1 for non-empty input).
    fractions: Vec<f64>,
}

impl Histogram {
    /// Build from a sample with `buckets` equi-depth buckets.
    pub fn equi_depth(mut values: Vec<f64>, buckets: usize) -> Self {
        assert!(buckets > 0);
        if values.is_empty() {
            return Histogram {
                bounds: vec![0.0, 0.0],
                fractions: vec![0.0],
            };
        }
        values.sort_by(f64::total_cmp);
        let n = values.len();
        let buckets = buckets.min(n);
        let mut bounds = Vec::with_capacity(buckets + 1);
        let mut fractions = Vec::with_capacity(buckets);
        bounds.push(values[0]);
        for b in 1..=buckets {
            let hi = (b * n) / buckets;
            let lo = ((b - 1) * n) / buckets;
            bounds.push(values[hi - 1]);
            fractions.push((hi - lo) as f64 / n as f64);
        }
        Histogram { bounds, fractions }
    }

    /// Estimated fraction of values `< x`.
    pub fn fraction_below(&self, x: f64) -> f64 {
        let mut acc = 0.0;
        for i in 0..self.fractions.len() {
            let lo = self.bounds[i];
            let hi = self.bounds[i + 1];
            if x <= lo {
                return acc;
            }
            if x >= hi {
                acc += self.fractions[i];
            } else {
                let width = hi - lo;
                let part = if width > 0.0 { (x - lo) / width } else { 0.5 };
                return acc + self.fractions[i] * part;
            }
        }
        acc
    }

    /// Bucket boundaries.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }
}

/// Statistics for one column, computed from a sample.
#[derive(Debug, Clone)]
pub struct ColumnStats {
    /// Column name.
    pub name: String,
    /// Sampled minimum (numeric view; strings are skipped).
    pub min: Option<f64>,
    /// Sampled maximum.
    pub max: Option<f64>,
    /// Estimated number of distinct values, scaled from the sample by the
    /// birthday-style estimator `d ≈ d_s / (1 - (1 - d_s/s)^(n/s))`
    /// simplified to linear scaling when the sample looks key-like.
    pub distinct_estimate: f64,
    /// Fraction of NULLs in the sample.
    pub null_fraction: f64,
    /// Equi-depth histogram of the numeric view.
    pub histogram: Histogram,
    /// A small numeric sub-sample (≤ [`SELECTIVITY_SAMPLE`] values),
    /// kept for pairwise theta-selectivity estimation.
    pub sample: Vec<f64>,
}

/// Cap on the per-column numeric sub-sample retained in
/// [`ColumnStats::sample`].
pub const SELECTIVITY_SAMPLE: usize = 256;

/// Statistics for a whole relation.
#[derive(Debug, Clone)]
pub struct RelationStats {
    /// Relation name.
    pub relation: String,
    /// True cardinality (known exactly — counting is free at load).
    pub cardinality: usize,
    /// True total encoded bytes.
    pub bytes: usize,
    /// Per-column stats, in schema order.
    pub columns: Vec<ColumnStats>,
    /// How many rows were sampled.
    pub sample_size: usize,
}

/// Number of histogram buckets used by [`RelationStats::collect`].
pub const HISTOGRAM_BUCKETS: usize = 64;

impl RelationStats {
    /// Run the load-time sampling pass over `rel`, sampling at most
    /// `sample_cap` rows.
    ///
    /// The reservoir samples row *indices* — [`Sampler::offer`]
    /// consumes the rng identically for any item type, so the sampled
    /// index set (and hence every statistic) is bit-identical to the
    /// historical row-cloning pass — and the per-column aggregation
    /// then reads the sampled slots by index.
    pub fn collect(rel: &Relation, sample_cap: usize, rng: &mut impl Rng) -> Self {
        let mut sampler = Sampler::new(sample_cap.max(1));
        for i in 0..rel.len() {
            sampler.offer(i, rng);
        }
        let sample = sampler.sample();
        let n_sample = sample.len();
        let mut columns = Vec::with_capacity(rel.schema().arity());
        for (ci, field) in rel.schema().fields().iter().enumerate() {
            let mut numerics = Vec::with_capacity(n_sample);
            let mut nulls = 0usize;
            let mut distinct: HashSet<Value> = HashSet::with_capacity(n_sample);
            for &ri in sample {
                let v = rel.rows()[ri].get(ci).clone();
                if v.is_null() {
                    nulls += 1;
                    continue;
                }
                if let Some(x) = v.as_numeric() {
                    numerics.push(x);
                }
                distinct.insert(v);
            }
            let (min, max) = numerics
                .iter()
                .fold(None, |acc: Option<(f64, f64)>, &x| match acc {
                    None => Some((x, x)),
                    Some((lo, hi)) => Some((lo.min(x), hi.max(x))),
                })
                .map_or((None, None), |(lo, hi)| (Some(lo), Some(hi)));
            // Scale sample-distinct count to the full relation: if nearly
            // every sampled value is distinct, assume key-like (scale
            // linearly); otherwise assume the domain was mostly covered.
            let d_s = distinct.len() as f64;
            let scale = if n_sample > 0 && d_s / n_sample as f64 > 0.95 {
                rel.len() as f64 / n_sample.max(1) as f64
            } else {
                1.0
            };
            let distinct_estimate = (d_s * scale).min(rel.len() as f64).max(d_s.min(1.0));
            let sample = stride_sample(&numerics, SELECTIVITY_SAMPLE);
            columns.push(ColumnStats {
                name: field.name.clone(),
                min,
                max,
                distinct_estimate,
                null_fraction: if n_sample == 0 {
                    0.0
                } else {
                    nulls as f64 / n_sample as f64
                },
                histogram: Histogram::equi_depth(numerics, HISTOGRAM_BUCKETS),
                sample,
            });
        }
        RelationStats {
            relation: rel.name().to_string(),
            cardinality: rel.len(),
            bytes: rel.encoded_bytes(),
            columns,
            sample_size: n_sample,
        }
    }

    /// Stats for a column by name.
    pub fn column(&self, name: &str) -> Option<&ColumnStats> {
        self.columns.iter().find(|c| c.name == name)
    }
}

/// Estimate the selectivity of `a θ b` between two sampled columns by
/// empirical pair counting over the (sub)samples — the planner's workhorse
/// for the output ratios α and β of the paper's Equations 1 and 5.
///
/// `op` receives the `Ordering` between the two numeric values and says
/// whether the predicate holds.
pub fn estimate_theta_selectivity(
    left_sample: &[f64],
    right_sample: &[f64],
    op: impl Fn(Ordering) -> bool,
) -> f64 {
    // Cap the quadratic pair count at ~250k comparisons.
    const CAP: usize = 500;
    let ls = stride_sample(left_sample, CAP);
    let rs = stride_sample(right_sample, CAP);
    if ls.is_empty() || rs.is_empty() {
        return 0.0;
    }
    let mut hits = 0usize;
    for &a in &ls {
        for &b in &rs {
            if op(a.total_cmp(&b)) {
                hits += 1;
            }
        }
    }
    hits as f64 / (ls.len() * rs.len()) as f64
}

fn stride_sample(xs: &[f64], cap: usize) -> Vec<f64> {
    if xs.len() <= cap {
        return xs.to_vec();
    }
    let stride = xs.len() as f64 / cap as f64;
    (0..cap).map(|i| xs[(i as f64 * stride) as usize]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{DataType, Schema};
    use crate::tuple;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rel(n: usize) -> Relation {
        let schema = Schema::from_pairs("t", &[("k", DataType::Int), ("v", DataType::Int)]);
        let rows = (0..n).map(|i| tuple![i as i64, (i % 10) as i64]).collect();
        Relation::from_rows_unchecked(schema, rows)
    }

    #[test]
    fn reservoir_is_uniformish() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut counts = vec![0usize; 100];
        for _ in 0..2000 {
            let mut s = Sampler::new(10);
            for i in 0..100 {
                s.offer(i, &mut rng);
            }
            for &i in s.sample() {
                counts[i] += 1;
            }
        }
        // Each item should appear ~200 times (2000 trials * 10/100).
        for (i, &c) in counts.iter().enumerate() {
            assert!((100..320).contains(&c), "item {i} sampled {c} times");
        }
    }

    #[test]
    fn reservoir_small_stream_keeps_everything() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut s = Sampler::new(10);
        for i in 0..5 {
            s.offer(i, &mut rng);
        }
        assert_eq!(s.sample().len(), 5);
        assert_eq!(s.seen(), 5);
    }

    #[test]
    fn stats_min_max_distinct() {
        let mut rng = StdRng::seed_from_u64(7);
        let r = rel(1000);
        let st = RelationStats::collect(&r, 200, &mut rng);
        assert_eq!(st.cardinality, 1000);
        let k = st.column("k").unwrap();
        assert!(k.min.unwrap() >= 0.0);
        assert!(k.max.unwrap() <= 999.0);
        // k is key-like: distinct estimate should scale to ~1000.
        assert!(k.distinct_estimate > 500.0, "{}", k.distinct_estimate);
        let v = st.column("v").unwrap();
        // v has 10 distinct values; the sample sees all of them.
        assert!(v.distinct_estimate <= 20.0, "{}", v.distinct_estimate);
    }

    #[test]
    fn histogram_fraction_below() {
        let values: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let h = Histogram::equi_depth(values, 16);
        let f = h.fraction_below(500.0);
        assert!((f - 0.5).abs() < 0.05, "{f}");
        assert!(h.fraction_below(-1.0) == 0.0);
        assert!((h.fraction_below(2000.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_empty_input() {
        let h = Histogram::equi_depth(vec![], 8);
        assert_eq!(h.fraction_below(5.0), 0.0);
    }

    #[test]
    fn theta_selectivity_uniform_less_than() {
        let xs: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        // P(a < b) over two independent uniforms = 0.5 (minus ties).
        let s = estimate_theta_selectivity(&xs, &xs, |o| o == Ordering::Less);
        assert!((s - 0.5).abs() < 0.05, "{s}");
        let eq = estimate_theta_selectivity(&xs, &xs, |o| o == Ordering::Equal);
        assert!(eq < 0.01, "{eq}");
    }

    #[test]
    fn theta_selectivity_empty_sides() {
        assert_eq!(
            estimate_theta_selectivity(&[], &[1.0], |o| o == Ordering::Less),
            0.0
        );
    }
}
