//! Name-keyed counters, gauges and fixed-bucket histograms.
//!
//! Every layer bumps by name: a name is interned on first use and afterwards
//! resolves through one hash lookup to a plain `u64` slot, so steady-state
//! counting never allocates.

use crate::json::JsonValue;
use std::collections::{BTreeMap, HashMap};

/// A fixed-bucket histogram of `u64` samples.
///
/// Bucket 0 holds the value `0`; bucket `k ≥ 1` holds values in
/// `[2^(k-1), 2^k)`. Sixty-five buckets therefore cover the whole `u64`
/// range with no configuration and no allocation after creation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

const BUCKETS: usize = 65;

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    fn bucket_of(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// Upper bound (inclusive) of bucket `index`.
    fn bucket_upper(index: usize) -> u64 {
        if index == 0 {
            0
        } else if index >= 64 {
            u64::MAX
        } else {
            (1u64 << index) - 1
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing the `q`-quantile (`0.0 ..= 1.0`).
    ///
    /// The bound makes the estimate conservative: the true quantile is never
    /// above the returned value by construction of the bucket.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (index, &n) in self.counts.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::bucket_upper(index).min(self.max);
            }
        }
        self.max
    }

    /// Non-empty buckets as `(upper_bound_inclusive, count)` pairs.
    pub fn buckets(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (Self::bucket_upper(i), n))
            .collect()
    }

    /// Clears all samples.
    pub fn reset(&mut self) {
        *self = Histogram::default();
    }

    /// Folds every sample of `other` into `self` (bucket-wise; exact for
    /// count, sum, min and max).
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Snapshot as a JSON object (stable key order).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("count", JsonValue::U64(self.count)),
            ("min", JsonValue::U64(self.min())),
            ("max", JsonValue::U64(self.max)),
            ("mean", JsonValue::F64(self.mean())),
            ("p50", JsonValue::U64(self.quantile(0.50))),
            ("p90", JsonValue::U64(self.quantile(0.90))),
            ("p99", JsonValue::U64(self.quantile(0.99))),
            (
                "buckets",
                JsonValue::Arr(
                    self.buckets()
                        .into_iter()
                        .map(|(le, n)| {
                            JsonValue::obj(vec![
                                ("le", JsonValue::U64(le)),
                                ("n", JsonValue::U64(n)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// The registry: interned counters plus named histograms.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    // PartialEq is implemented manually (by name → value) so two registries
    // that interned the same metrics in different orders still compare equal.
    counter_names: Vec<String>,
    counter_values: Vec<u64>,
    counter_index: HashMap<String, u32>,
    histogram_names: Vec<String>,
    histograms: Vec<Histogram>,
    histogram_index: HashMap<String, u32>,
    gauge_names: Vec<String>,
    gauge_values: Vec<u64>,
    gauge_index: HashMap<String, u32>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Mutable slot of the counter `name` (interning it at 0 if needed).
    pub fn counter_slot(&mut self, name: &str) -> &mut u64 {
        let id = match self.counter_index.get(name) {
            Some(&id) => id,
            None => {
                let id = self.counter_values.len() as u32;
                self.counter_names.push(name.to_owned());
                self.counter_values.push(0);
                self.counter_index.insert(name.to_owned(), id);
                id
            }
        };
        &mut self.counter_values[id as usize]
    }

    /// Current value of a counter by name (0 when never interned).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counter_index
            .get(name)
            .map_or(0, |&id| self.counter_values[id as usize])
    }

    /// All counters as a sorted name → value map (for reports and
    /// determinism comparisons).
    pub fn counters_map(&self) -> BTreeMap<String, u64> {
        self.counter_names
            .iter()
            .cloned()
            .zip(self.counter_values.iter().copied())
            .collect()
    }

    /// Index of histogram `name`, interning it empty on first use.
    fn histogram(&mut self, name: &str) -> usize {
        if let Some(&id) = self.histogram_index.get(name) {
            return id as usize;
        }
        let id = self.histograms.len() as u32;
        self.histogram_names.push(name.to_owned());
        self.histograms.push(Histogram::new());
        self.histogram_index.insert(name.to_owned(), id);
        id as usize
    }

    /// Records `value` into a histogram by name (interning if needed).
    pub fn observe_named(&mut self, name: &str, value: u64) {
        let id = self.histogram(name);
        self.histograms[id].record(value);
    }

    /// Read access to a histogram by name.
    pub fn histogram_get(&self, name: &str) -> Option<&Histogram> {
        self.histogram_index
            .get(name)
            .map(|&id| &self.histograms[id as usize])
    }

    /// Index of gauge `name`, interning it at 0 on first use.
    fn gauge(&mut self, name: &str) -> usize {
        if let Some(&id) = self.gauge_index.get(name) {
            return id as usize;
        }
        let id = self.gauge_values.len() as u32;
        self.gauge_names.push(name.to_owned());
        self.gauge_values.push(0);
        self.gauge_index.insert(name.to_owned(), id);
        id as usize
    }

    /// Sets a gauge by name (interning if needed).
    ///
    /// A gauge is a *point-in-time level* (tree cost, max leaf delay, queue
    /// depth), as opposed to a monotone counter: setting it replaces the
    /// previous value.
    pub fn gauge_set_named(&mut self, name: &str, value: u64) {
        let id = self.gauge(name);
        self.gauge_values[id] = value;
    }

    /// Current value of a gauge by name (0 when never interned).
    pub fn gauge_value(&self, name: &str) -> u64 {
        self.gauge_index
            .get(name)
            .map_or(0, |&id| self.gauge_values[id as usize])
    }

    /// All gauges as a sorted name → value map.
    pub fn gauges_map(&self) -> BTreeMap<String, u64> {
        self.gauge_names
            .iter()
            .cloned()
            .zip(self.gauge_values.iter().copied())
            .collect()
    }

    /// Zeroes every counter and gauge and clears every histogram, keeping
    /// the interned names.
    pub fn reset(&mut self) {
        for value in &mut self.counter_values {
            *value = 0;
        }
        for histogram in &mut self.histograms {
            histogram.reset();
        }
        for value in &mut self.gauge_values {
            *value = 0;
        }
    }

    /// Folds every counter and histogram of `other` into `self`, matching by
    /// name and interning names `self` has not seen yet. Used to aggregate
    /// the registries of many independent runs into one snapshot.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, &value) in other.counter_names.iter().zip(&other.counter_values) {
            *self.counter_slot(name) += value;
        }
        for (name, histogram) in other.histogram_names.iter().zip(&other.histograms) {
            let id = self.histogram(name);
            self.histograms[id].merge(histogram);
        }
        // Gauges are point-in-time levels, not sums: when aggregating many
        // independent runs of a sweep, keep the worst (largest) level seen
        // for each gauge so reports surface the worst-case tree quality.
        for (name, &value) in other.gauge_names.iter().zip(&other.gauge_values) {
            let id = self.gauge(name);
            let slot = &mut self.gauge_values[id];
            *slot = (*slot).max(value);
        }
    }

    /// Full snapshot as a JSON object:
    /// `{"counters": {...}, "gauges": {...}, "histograms": {...}}` with
    /// sorted keys in each section.
    pub fn to_json(&self) -> JsonValue {
        let counters = JsonValue::Obj(
            self.counters_map()
                .into_iter()
                .map(|(name, value)| (name, JsonValue::U64(value)))
                .collect(),
        );
        let mut hist_pairs: Vec<(String, JsonValue)> = self
            .histogram_names
            .iter()
            .zip(&self.histograms)
            .map(|(name, histogram)| (name.clone(), histogram.to_json()))
            .collect();
        hist_pairs.sort_by(|a, b| a.0.cmp(&b.0));
        let gauges = JsonValue::Obj(
            self.gauges_map()
                .into_iter()
                .map(|(name, value)| (name, JsonValue::U64(value)))
                .collect(),
        );
        JsonValue::Obj(vec![
            ("counters".to_owned(), counters),
            ("gauges".to_owned(), gauges),
            ("histograms".to_owned(), JsonValue::Obj(hist_pairs)),
        ])
    }
}

impl PartialEq for MetricsRegistry {
    fn eq(&self, other: &MetricsRegistry) -> bool {
        if self.counters_map() != other.counters_map() {
            return false;
        }
        if self.gauges_map() != other.gauges_map() {
            return false;
        }
        let by_name = |reg: &MetricsRegistry| -> BTreeMap<String, Histogram> {
            reg.histogram_names
                .iter()
                .cloned()
                .zip(reg.histograms.iter().cloned())
                .collect()
        };
        by_name(self) == by_name(other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_slot_interns_once_and_counts() {
        let mut reg = MetricsRegistry::new();
        *reg.counter_slot("x") += 3;
        *reg.counter_slot("x") += 1;
        assert_eq!(reg.counter_value("x"), 4);
        assert_eq!(reg.counters_map().len(), 1);
        assert_eq!(reg.counter_value("never.seen"), 0);
    }

    #[test]
    fn counters_map_is_sorted_by_name() {
        let mut reg = MetricsRegistry::new();
        reg.counter_slot("z");
        reg.counter_slot("a");
        let keys: Vec<String> = reg.counters_map().into_keys().collect();
        assert_eq!(keys, vec!["a".to_owned(), "z".to_owned()]);
    }

    #[test]
    fn histogram_buckets_are_power_of_two() {
        let mut h = Histogram::new();
        for v in [0, 1, 1, 3, 4, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 100);
        // 0 -> le 0; 1,1 -> le 1; 3 -> le 3; 4 -> le 7; 100 -> le 127.
        assert_eq!(h.buckets(), vec![(0, 1), (1, 2), (3, 1), (7, 1), (127, 1)]);
        assert_eq!(h.quantile(0.5), 1);
        assert_eq!(h.quantile(1.0), 100); // clamped to observed max
    }

    #[test]
    fn extreme_samples_stay_in_bounds() {
        // bucket_of(u64::MAX) == 64 — the last of the 65 buckets, not OOB.
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        h.record(1u64 << 63);
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.buckets(), vec![(u64::MAX, 3)]);
        assert_eq!(h.quantile(1.0), u64::MAX);
    }

    #[test]
    fn low_quantiles_never_undershoot_the_min() {
        // The conservative bucket-upper estimate must stay within the
        // observed [min, max] even for q near (or at) 0.
        let mut h = Histogram::new();
        for v in [100u64, 150, 200, 1 << 40] {
            h.record(v);
        }
        for q in [0.0, 1e-9, 0.01, 0.25, 0.5, 0.99, 1.0] {
            let est = h.quantile(q);
            assert!(est >= h.min(), "quantile({q}) = {est} < min {}", h.min());
            assert!(est <= h.max(), "quantile({q}) = {est} > max {}", h.max());
        }
    }

    proptest::proptest! {
        #[test]
        fn bucket_of_and_bucket_upper_are_inverses(v in proptest::prelude::any::<u64>()) {
            let index = Histogram::bucket_of(v);
            proptest::prop_assert!(index < BUCKETS);
            // The bucket's upper bound covers the value...
            proptest::prop_assert!(Histogram::bucket_upper(index) >= v);
            // ...and the previous bucket's does not (v == 0 sits in bucket 0,
            // which has no predecessor).
            if index > 0 {
                proptest::prop_assert!(Histogram::bucket_upper(index - 1) < v);
            }
        }

        #[test]
        fn quantiles_bracket_all_samples(values in proptest::collection::vec(proptest::prelude::any::<u64>(), 1..50)) {
            let mut h = Histogram::new();
            for &v in &values {
                h.record(v);
            }
            let lo = *values.iter().min().unwrap();
            let hi = *values.iter().max().unwrap();
            for q in [0.0, 0.5, 0.9, 1.0] {
                let est = h.quantile(q);
                proptest::prop_assert!(est >= lo && est <= hi);
            }
        }
    }

    #[test]
    fn empty_histogram_is_well_defined() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.99), 0);
        assert!(h.buckets().is_empty());
    }

    #[test]
    fn reset_keeps_names_interned() {
        let mut reg = MetricsRegistry::new();
        *reg.counter_slot("c") += 1;
        reg.observe_named("h", 9);
        reg.reset();
        assert_eq!(reg.counters_map().get("c"), Some(&0));
        assert_eq!(reg.histogram_get("h").unwrap().count(), 0);
        *reg.counter_slot("c") += 1;
        reg.observe_named("h", 2);
        assert_eq!(reg.counter_value("c"), 1);
        assert_eq!(reg.histogram_get("h").unwrap().max(), 2);
    }

    #[test]
    fn merge_aggregates_counters_and_histograms() {
        let mut a = MetricsRegistry::new();
        *a.counter_slot("shared") += 2;
        a.observe_named("lat", 4);
        let mut b = MetricsRegistry::new();
        *b.counter_slot("shared") += 3;
        *b.counter_slot("only_b") += 1;
        b.observe_named("lat", 100);
        b.observe_named("fanout", 2);
        a.merge(&b);
        assert_eq!(a.counter_value("shared"), 5);
        assert_eq!(a.counter_value("only_b"), 1);
        let lat = a.histogram_get("lat").unwrap();
        assert_eq!(lat.count(), 2);
        assert_eq!(lat.min(), 4);
        assert_eq!(lat.max(), 100);
        assert_eq!(a.histogram_get("fanout").unwrap().count(), 1);
    }

    #[test]
    fn merge_is_independent_of_worker_arrival_and_interning_order() {
        // Three "worker" registries that intern overlapping metric sets in
        // adversarial orders: every name gets a different interner id in
        // every registry, and the workers arrive for merging in every
        // possible order. The aggregate must not care: matching is by name
        // (with remapping onto the target's own ids), counter and bucket
        // sums commute, and the JSON snapshot sorts keys.
        let worker = |names: &[&str], weight: u64| {
            let mut reg = MetricsRegistry::new();
            for (i, name) in names.iter().enumerate() {
                *reg.counter_slot(name) += weight + i as u64;
                reg.observe_named(&format!("h.{name}"), weight * 10 + i as u64);
            }
            reg
        };
        let a = worker(&["alpha", "beta", "gamma"], 1);
        let b = worker(&["gamma", "alpha", "delta"], 100);
        let c = worker(&["delta", "beta"], 10_000);
        let orders: [[&MetricsRegistry; 3]; 6] = [
            [&a, &b, &c],
            [&a, &c, &b],
            [&b, &a, &c],
            [&b, &c, &a],
            [&c, &a, &b],
            [&c, &b, &a],
        ];
        let merged: Vec<MetricsRegistry> = orders
            .iter()
            .map(|order| {
                let mut total = MetricsRegistry::new();
                for reg in order {
                    total.merge(reg);
                }
                total
            })
            .collect();
        let reference = merged[0].to_json().to_json();
        assert!(reference.contains(r#""alpha":102"#), "{reference}");
        for (i, total) in merged.iter().enumerate() {
            assert_eq!(&merged[0], total, "arrival order {i} changed the aggregate");
            assert_eq!(
                reference,
                total.to_json().to_json(),
                "arrival order {i} changed the JSON snapshot bytes"
            );
        }
    }

    #[test]
    fn equality_ignores_interning_order() {
        let mut a = MetricsRegistry::new();
        a.counter_slot("x");
        *a.counter_slot("y") += 1;
        a.observe_named("h", 3);
        let mut b = MetricsRegistry::new();
        b.observe_named("h", 3);
        *b.counter_slot("y") += 1;
        b.counter_slot("x");
        assert_eq!(a, b);
        *b.counter_slot("y") += 1;
        assert_ne!(a, b);
    }

    #[test]
    fn json_snapshot_shape_is_stable() {
        let mut reg = MetricsRegistry::new();
        *reg.counter_slot("b") += 2;
        *reg.counter_slot("a") += 1;
        reg.observe_named("lat", 8);
        reg.gauge_set_named("g", 7);
        let json = reg.to_json().to_json();
        assert!(
            json.starts_with(r#"{"counters":{"a":1,"b":2},"gauges":{"g":7},"histograms":{"lat":"#)
        );
        assert!(json.contains(r#""count":1"#));
        assert!(json.contains(r#""p50":8"#));
    }

    #[test]
    fn gauges_set_replace_and_reset() {
        let mut reg = MetricsRegistry::new();
        reg.gauge_set_named("tree.cost", 12);
        reg.gauge_set_named("tree.cost", 9);
        assert_eq!(reg.gauge_value("tree.cost"), 9);
        assert_eq!(reg.gauge_value("never.seen"), 0);
        reg.reset();
        assert_eq!(reg.gauges_map().get("tree.cost"), Some(&0));
        reg.gauge_set_named("tree.cost", 3);
        assert_eq!(reg.gauge_value("tree.cost"), 3);
    }

    #[test]
    fn gauge_merge_keeps_the_worst_level() {
        let mut a = MetricsRegistry::new();
        a.gauge_set_named("delay", 40);
        a.gauge_set_named("only_a", 1);
        let mut b = MetricsRegistry::new();
        b.gauge_set_named("delay", 25);
        b.gauge_set_named("only_b", 2);
        a.merge(&b);
        assert_eq!(a.gauge_value("delay"), 40);
        assert_eq!(a.gauge_value("only_a"), 1);
        assert_eq!(a.gauge_value("only_b"), 2);
        // Merging the other way yields the same aggregate (max commutes).
        let mut c = MetricsRegistry::new();
        c.gauge_set_named("delay", 25);
        c.gauge_set_named("only_b", 2);
        let mut d = MetricsRegistry::new();
        d.gauge_set_named("delay", 40);
        d.gauge_set_named("only_a", 1);
        c.merge(&d);
        assert_eq!(a, c);
    }

    #[test]
    fn equality_covers_gauges() {
        let mut a = MetricsRegistry::new();
        a.gauge_set_named("g", 1);
        let mut b = MetricsRegistry::new();
        b.gauge_set_named("g", 1);
        assert_eq!(a, b);
        b.gauge_set_named("g", 2);
        assert_ne!(a, b);
    }
}
