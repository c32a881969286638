//! Counter, gauge and histogram primitives plus a named registry with the
//! Prometheus text exposition format.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

use bf_model::Fnv1a;
use parking_lot::Mutex;

/// A label set attached to a metric series, kept sorted for a canonical
/// exposition order.
pub type Labels = BTreeMap<String, String>;

/// A monotonically increasing counter.
///
/// ```
/// use bf_metrics::Counter;
///
/// let c = Counter::new();
/// c.inc();
/// c.inc_by(2.5);
/// assert_eq!(c.value(), 3.5);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Counter {
    value: Arc<Mutex<f64>>,
}

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.inc_by(1.0);
    }

    /// Adds `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is negative — counters only go up.
    pub fn inc_by(&self, v: f64) {
        assert!(v >= 0.0, "counters are monotonic; got increment {v}");
        *self.value.lock() += v;
    }

    /// Current value.
    pub fn value(&self) -> f64 {
        *self.value.lock()
    }
}

/// A gauge that can move in either direction.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    value: Arc<Mutex<f64>>,
}

impl Gauge {
    /// Creates a gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the gauge to `v`.
    pub fn set(&self, v: f64) {
        *self.value.lock() = v;
    }

    /// Adds `v` (may be negative).
    pub fn add(&self, v: f64) {
        *self.value.lock() += v;
    }

    /// Current value.
    pub fn value(&self) -> f64 {
        *self.value.lock()
    }
}

/// A fixed-bucket cumulative histogram (Prometheus semantics: each bucket
/// counts observations `<=` its upper bound, plus `+Inf`).
#[derive(Debug, Clone)]
pub struct Histogram {
    histogram: Arc<Mutex<HistogramInner>>,
}

#[derive(Debug)]
struct HistogramInner {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    sum: f64,
    total: u64,
}

impl Histogram {
    /// Creates a histogram with the given ascending bucket upper bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly ascending.
    pub fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "a histogram needs at least one bucket");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Histogram {
            histogram: Arc::new(Mutex::new(HistogramInner {
                bounds: bounds.to_vec(),
                counts: vec![0; bounds.len() + 1],
                sum: 0.0,
                total: 0,
            })),
        }
    }

    /// Default latency buckets (milliseconds): sub-ms to multi-second.
    pub fn latency_ms() -> Self {
        Histogram::new(&[
            0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1_000.0, 2_000.0, 5_000.0,
        ])
    }

    /// Records one observation.
    pub fn observe(&self, v: f64) {
        let mut inner = self.histogram.lock();
        let idx = inner
            .bounds
            .iter()
            .position(|b| v <= *b)
            .unwrap_or(inner.bounds.len());
        // bf-taint: sanitized(idx <= bounds.len() by construction; counts always has bounds.len() + 1 slots)
        inner.counts[idx] += 1;
        inner.sum += v;
        inner.total += 1;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.histogram.lock().total
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.histogram.lock().sum
    }

    /// Mean of observations, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        let inner = self.histogram.lock();
        (inner.total > 0).then(|| inner.sum / inner.total as f64)
    }

    /// Approximate quantile via linear interpolation within the matched
    /// bucket, or `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        let inner = self.histogram.lock();
        if inner.total == 0 {
            return None;
        }
        let rank = q * inner.total as f64;
        let mut seen = 0u64;
        for (i, c) in inner.counts.iter().enumerate() {
            seen += c;
            if seen as f64 >= rank {
                let hi = inner.bounds.get(i).copied().unwrap_or(f64::INFINITY);
                let lo = if i == 0 { 0.0 } else { inner.bounds[i - 1] };
                if hi.is_infinite() {
                    return Some(lo);
                }
                let in_bucket = *c;
                if in_bucket == 0 {
                    return Some(hi);
                }
                let before = seen - in_bucket;
                let frac = (rank - before as f64) / in_bucket as f64;
                return Some(lo + (hi - lo) * frac.clamp(0.0, 1.0));
            }
        }
        inner.bounds.last().copied()
    }

    fn snapshot(&self) -> (Vec<f64>, Vec<u64>, f64, u64) {
        let inner = self.histogram.lock();
        (
            inner.bounds.clone(),
            inner.counts.clone(),
            inner.sum,
            inner.total,
        )
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct SeriesKey {
    name: String,
    labels: Vec<(String, String)>,
}

/// Number of lock shards the series map is split across. Sharding keeps
/// the per-update critical section proportional to `series / SHARDS`
/// instead of the whole catalog: at the scale harness's 10k-function
/// point a single map would put ~9k series behind one lock on the
/// completion hot path.
const SHARDS: usize = 32;

/// A named collection of metric series, scrapeable in the Prometheus text
/// exposition format — the stand-in for the Prometheus service the paper's
/// Metrics Gatherer reads from.
///
/// Internally the series map is split across [`SHARDS`] locks keyed by a
/// deterministic FNV-1a hash of the series identity, so hot-path lookups
/// on different series contend on different locks; [`MetricsRegistry::scrape`]
/// merges the shards back into one canonically ordered exposition.
///
/// ```
/// use bf_metrics::MetricsRegistry;
///
/// let reg = MetricsRegistry::new();
/// let c = reg.counter("bf_requests_total", &[("function", "sobel-1")]);
/// c.inc();
/// let text = reg.scrape();
/// assert!(text.contains("bf_requests_total{function=\"sobel-1\"} 1"));
/// ```
#[derive(Debug, Clone)]
pub struct MetricsRegistry {
    shards: Arc<[Mutex<BTreeMap<SeriesKey, Metric>>; SHARDS]>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry {
            shards: Arc::new(std::array::from_fn(|_| Mutex::new(BTreeMap::new()))),
        }
    }
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn key(name: &str, labels: &[(&str, &str)]) -> SeriesKey {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        SeriesKey {
            name: name.to_string(),
            labels,
        }
    }

    /// Deterministic shard pick: FNV-1a over the series identity (never a
    /// randomized hasher — shard assignment must be identical across runs
    /// so the scale harness's work counters replay exactly).
    fn shard(&self, key: &SeriesKey) -> &Mutex<BTreeMap<SeriesKey, Metric>> {
        let mut h = Fnv1a::new();
        h.write(key.name.as_bytes());
        for (k, v) in &key.labels {
            h.write(&[0xFF]);
            h.write(k.as_bytes());
            h.write(&[0xFE]);
            h.write(v.as_bytes());
        }
        // bf-flow: allow(hot_panic): the modulo keeps the index within
        // the fixed SHARDS-length array
        &self.shards[(h.finish() % SHARDS as u64) as usize]
    }

    /// Returns (registering on first use) the counter series
    /// `name{labels}`.
    ///
    /// # Panics
    ///
    /// Panics if the series already exists with a different metric type.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let key = Self::key(name, labels);
        let mut series = self.shard(&key).lock();
        match series
            .entry(key)
            .or_insert_with(|| Metric::Counter(Counter::new()))
        {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Returns (registering on first use) the gauge series `name{labels}`.
    ///
    /// # Panics
    ///
    /// Panics if the series already exists with a different metric type.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let key = Self::key(name, labels);
        let mut series = self.shard(&key).lock();
        match series
            .entry(key)
            .or_insert_with(|| Metric::Gauge(Gauge::new()))
        {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Returns (registering on first use) a latency histogram series.
    ///
    /// # Panics
    ///
    /// Panics if the series already exists with a different metric type.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        self.histogram_with(name, labels, Histogram::latency_ms)
    }

    /// Returns (registering on first use) a histogram series with custom
    /// buckets: `make` builds the histogram on first registration (e.g.
    /// [`Histogram::batch_size`]); later lookups return the existing
    /// series regardless of `make`.
    ///
    /// # Panics
    ///
    /// Panics if the series already exists with a different metric type.
    pub fn histogram_with(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Histogram,
    ) -> Histogram {
        let key = Self::key(name, labels);
        let mut series = self.shard(&key).lock();
        match series
            .entry(key)
            .or_insert_with(|| Metric::Histogram(make()))
        {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Number of registered series.
    pub fn series_count(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Number of internal shards the series map is split across.
    pub fn shard_count(&self) -> usize {
        SHARDS
    }

    /// Series behind the most loaded shard's lock — the worst-case
    /// critical-section footprint a single hot-path update contends with.
    pub fn max_shard_len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().len())
            .max()
            .unwrap_or(0)
    }

    /// Reads a counter value if the series exists and is a counter.
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        let key = Self::key(name, labels);
        let series = self.shard(&key).lock();
        match series.get(&key) {
            Some(Metric::Counter(c)) => Some(c.value()),
            _ => None,
        }
    }

    /// Renders every series in the Prometheus text exposition format,
    /// merging the shards back into one canonically ordered document.
    pub fn scrape(&self) -> String {
        let mut series: BTreeMap<SeriesKey, Metric> = BTreeMap::new();
        for shard in self.shards.iter() {
            for (key, metric) in shard.lock().iter() {
                series.insert(key.clone(), metric.clone());
            }
        }
        let mut out = String::new();
        for (key, metric) in series.iter() {
            let labels = render_labels(&key.labels);
            match metric {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "{}{} {}", key.name, labels, fmt_f64(c.value()));
                }
                Metric::Gauge(g) => {
                    let _ = writeln!(out, "{}{} {}", key.name, labels, fmt_f64(g.value()));
                }
                Metric::Histogram(h) => {
                    let (bounds, counts, sum, total) = h.snapshot();
                    let mut cumulative = 0u64;
                    for (i, bound) in bounds.iter().enumerate() {
                        cumulative += counts[i];
                        let le = merge_labels(&key.labels, "le", &fmt_f64(*bound));
                        let _ = writeln!(out, "{}_bucket{} {}", key.name, le, cumulative);
                    }
                    cumulative += counts[bounds.len()];
                    let le = merge_labels(&key.labels, "le", "+Inf");
                    let _ = writeln!(out, "{}_bucket{} {}", key.name, le, cumulative);
                    let _ = writeln!(out, "{}_sum{} {}", key.name, labels, fmt_f64(sum));
                    let _ = writeln!(out, "{}_count{} {}", key.name, labels, total);
                }
            }
        }
        out
    }
}

fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn render_labels(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let body: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    format!("{{{}}}", body.join(","))
}

fn merge_labels(labels: &[(String, String)], key: &str, value: &str) -> String {
    let mut all: Vec<(String, String)> = labels.to_vec();
    all.push((key.to_string(), value.to_string()));
    all.sort();
    render_labels(&all)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let c = Counter::new();
        c.inc();
        c.inc_by(4.0);
        assert_eq!(c.value(), 5.0);
    }

    #[test]
    #[should_panic(expected = "monotonic")]
    fn counter_rejects_negative_increment() {
        Counter::new().inc_by(-1.0);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Gauge::new();
        g.set(10.0);
        g.add(-3.0);
        assert_eq!(g.value(), 7.0);
    }

    #[test]
    fn histogram_mean_and_count() {
        let h = Histogram::new(&[1.0, 10.0, 100.0]);
        for v in [0.5, 5.0, 50.0, 500.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.mean(), Some(138.875));
    }

    #[test]
    fn histogram_quantile_is_ordered() {
        let h = Histogram::latency_ms();
        for i in 1..=100 {
            h.observe(i as f64);
        }
        let p50 = h.quantile(0.5).expect("non-empty");
        let p95 = h.quantile(0.95).expect("non-empty");
        assert!(p50 <= p95, "p50 {p50} > p95 {p95}");
        assert!(p50 > 20.0 && p50 < 100.0, "p50 {p50}");
    }

    #[test]
    fn empty_histogram_has_no_stats() {
        let h = Histogram::latency_ms();
        assert_eq!(h.mean(), None);
        assert_eq!(h.quantile(0.9), None);
    }

    #[test]
    fn registry_reuses_series() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x_total", &[("k", "v")]);
        let b = reg.counter("x_total", &[("k", "v")]);
        a.inc();
        b.inc();
        assert_eq!(reg.counter_value("x_total", &[("k", "v")]), Some(2.0));
    }

    #[test]
    fn registry_distinguishes_labels() {
        let reg = MetricsRegistry::new();
        reg.counter("x_total", &[("k", "1")]).inc();
        reg.counter("x_total", &[("k", "2")]).inc_by(2.0);
        assert_eq!(reg.counter_value("x_total", &[("k", "1")]), Some(1.0));
        assert_eq!(reg.counter_value("x_total", &[("k", "2")]), Some(2.0));
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn registry_rejects_type_confusion() {
        let reg = MetricsRegistry::new();
        reg.counter("x", &[]);
        reg.gauge("x", &[]);
    }

    #[test]
    fn scrape_renders_prometheus_text() {
        let reg = MetricsRegistry::new();
        reg.gauge("bf_fpga_utilization", &[("device", "fpga-b")])
            .set(0.42);
        reg.histogram("bf_latency_ms", &[]).observe(3.0);
        let text = reg.scrape();
        assert!(
            text.contains("bf_fpga_utilization{device=\"fpga-b\"} 0.42"),
            "{text}"
        );
        assert!(text.contains("bf_latency_ms_bucket{le=\"5\"} 1"), "{text}");
        assert!(text.contains("bf_latency_ms_count 1"), "{text}");
    }

    #[test]
    fn sharding_spreads_series_and_scrape_stays_canonically_ordered() {
        let reg = MetricsRegistry::new();
        // Register in descending order: the merged scrape must still come
        // out ascending (BTreeMap canonical order across shards).
        for i in (0..200).rev() {
            reg.counter("bf_shard_total", &[("f", &format!("{i:03}"))])
                .inc();
        }
        assert_eq!(reg.series_count(), 200);
        assert_eq!(reg.shard_count(), SHARDS);
        let max = reg.max_shard_len();
        assert!(
            max < 200 && max >= 200 / SHARDS,
            "200 series over {SHARDS} shards, max {max}"
        );
        let text = reg.scrape();
        let lines: Vec<&str> = text.lines().collect();
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted, "scrape order must be canonical");
        assert_eq!(lines.len(), 200);
    }

    #[test]
    fn histogram_bucket_counts_are_cumulative_in_scrape() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat_ms", &[]);
        h.observe(0.4);
        h.observe(1.5);
        h.observe(900.0);
        let text = reg.scrape();
        assert!(text.contains("lat_ms_bucket{le=\"0.5\"} 1"), "{text}");
        assert!(text.contains("lat_ms_bucket{le=\"2\"} 2"), "{text}");
        assert!(text.contains("lat_ms_bucket{le=\"+Inf\"} 3"), "{text}");
    }
}
