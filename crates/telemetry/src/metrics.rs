//! Deterministic cycle-domain metrics: counters, gauges, histograms.
//!
//! All values are integers (cycles, counts) so snapshots are `Eq` and
//! bit-identical across runs and thread counts. Names follow the
//! Prometheus convention and may carry a label set inline, e.g.
//! `rispp_si_executions_total{si="3"}`; the registry itself treats the
//! whole string as an opaque BTree key, which is what makes ordering —
//! and therefore every exposition format — deterministic.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::perfetto::escape_json_into;

/// Default histogram bucket upper bounds (cycles), roughly powers of four:
/// wide enough for single-SI latencies (tens of cycles) through whole
/// reconfiguration stalls (hundreds of thousands).
pub const DEFAULT_BOUNDS: [u64; 11] = [
    1, 4, 16, 64, 256, 1_024, 4_096, 16_384, 65_536, 262_144, 1_048_576,
];

/// A fixed-bound histogram over `u64` observations.
///
/// `counts` has one slot per bound plus a final overflow (`+Inf`) slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<u64>,
    sum: u64,
    count: u64,
}

impl Histogram {
    /// Creates an empty histogram with the given upper bounds (must be
    /// strictly increasing; an implicit `+Inf` bucket is appended).
    #[must_use]
    pub fn new(bounds: &[u64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0,
            count: 0,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        self.observe_n(value, 1);
    }

    /// Records `n` identical observations of `value` in O(buckets): the
    /// burst-segment case, where thousands of executions share one latency.
    pub fn observe_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let slot = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[slot] += n;
        self.sum = self.sum.saturating_add(value.saturating_mul(n));
        self.count += n;
    }

    /// Number of observations recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations (saturating).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Bucket upper bounds (without the implicit `+Inf`).
    #[must_use]
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Per-bucket counts; the final slot is the `+Inf` overflow bucket.
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Upper-bound estimate of the `q`-quantile (`q` clamped to
    /// `[0, 1]`): the upper bound of the first bucket whose cumulative
    /// count reaches `ceil(q * count)`. Observations in the `+Inf`
    /// overflow bucket report the largest finite bound (the histogram
    /// cannot resolve beyond it). Returns `None` for an empty histogram
    /// or one with no finite bounds.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 || self.bounds.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // ceil without floats drifting: rank in [1, count].
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (slot, &c) in self.counts.iter().enumerate() {
            cumulative += c;
            if cumulative >= rank {
                let bound_slot = slot.min(self.bounds.len() - 1);
                return Some(self.bounds[bound_slot]);
            }
        }
        Some(*self.bounds.last().expect("non-empty bounds"))
    }

    /// Adds `other` into `self` bucket-wise. Both histograms must share
    /// the same bounds (they do when both came from the same metric name).
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.bounds, other.bounds,
            "merging histograms with different bucket bounds"
        );
        for (slot, &c) in self.counts.iter_mut().zip(other.counts.iter()) {
            *slot += c;
        }
        self.sum = self.sum.saturating_add(other.sum);
        self.count += other.count;
    }
}

/// One named metric value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Metric {
    /// Monotonically increasing count.
    Counter(u64),
    /// Last-written (or summed, on merge) signed level.
    Gauge(i64),
    /// Distribution of `u64` observations.
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A mutable registry of metrics, written to by observers during a run.
///
/// Writes are keyed by full metric name (including any inline label set);
/// a name is bound to the kind of its first write, and later writes of a
/// different kind panic — that is always a programming error, never a
/// data-dependent condition.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    metrics: BTreeMap<String, Metric>,
    /// Labels stitched into every written metric name (e.g.
    /// `trace_id="7",trace_tenant="0",attempt="1"`); empty means names pass
    /// through untouched, byte-identical to a registry without the
    /// feature.
    base_labels: String,
    /// Reusable buffer for decorated names, so steady-state writes with
    /// base labels do not allocate per sample.
    scratch: String,
}

impl PartialEq for MetricsRegistry {
    fn eq(&self, other: &Self) -> bool {
        // The scratch buffer is transient state, not identity.
        self.metrics == other.metrics && self.base_labels == other.base_labels
    }
}

impl Eq for MetricsRegistry {}

impl MetricsRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Sets the label set stitched into every metric name written from
    /// now on: `name` becomes `name{labels}` and `name{k="v"}` becomes
    /// `name{k="v",labels}`. Used to stamp a causal trace id (request id,
    /// tenant, attempt) onto every series a run produces. Pass an empty
    /// string to stop decorating. Metrics already written keep their
    /// names.
    pub fn set_base_labels(&mut self, labels: &str) {
        self.base_labels = labels.to_owned();
    }

    /// The label set currently stitched into written metric names
    /// (empty when undecorated).
    #[must_use]
    pub fn base_labels(&self) -> &str {
        &self.base_labels
    }

    /// Adds `delta` to the counter `name`, creating it at zero first.
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        match self.entry(name, || Metric::Counter(0)) {
            Metric::Counter(v) => *v += delta,
            other => panic!("metric {name} is a {}, not a counter", other.kind()),
        }
    }

    /// Sets the gauge `name` to `value`.
    pub fn gauge_set(&mut self, name: &str, value: i64) {
        match self.entry(name, || Metric::Gauge(0)) {
            Metric::Gauge(v) => *v = value,
            other => panic!("metric {name} is a {}, not a gauge", other.kind()),
        }
    }

    /// Adds `delta` (possibly negative) to the gauge `name`.
    pub fn gauge_add(&mut self, name: &str, delta: i64) {
        match self.entry(name, || Metric::Gauge(0)) {
            Metric::Gauge(v) => *v += delta,
            other => panic!("metric {name} is a {}, not a gauge", other.kind()),
        }
    }

    /// Records `value` into the histogram `name` with [`DEFAULT_BOUNDS`].
    pub fn observe(&mut self, name: &str, value: u64) {
        self.observe_with_bounds(name, value, &DEFAULT_BOUNDS);
    }

    /// Records `value` into the histogram `name`, creating it with the
    /// given bounds on first use.
    pub fn observe_with_bounds(&mut self, name: &str, value: u64, bounds: &[u64]) {
        match self.entry(name, || Metric::Histogram(Histogram::new(bounds))) {
            Metric::Histogram(h) => h.observe(value),
            other => panic!("metric {name} is a {}, not a histogram", other.kind()),
        }
    }

    /// Records `n` identical observations of `value` into the histogram
    /// `name` with [`DEFAULT_BOUNDS`] (see [`Histogram::observe_n`]).
    pub fn observe_n(&mut self, name: &str, value: u64, n: u64) {
        match self.entry(name, || Metric::Histogram(Histogram::new(&DEFAULT_BOUNDS))) {
            Metric::Histogram(h) => h.observe_n(value, n),
            other => panic!("metric {name} is a {}, not a histogram", other.kind()),
        }
    }

    fn entry(&mut self, name: &str, make: impl FnOnce() -> Metric) -> &mut Metric {
        if self.base_labels.is_empty() {
            if !self.metrics.contains_key(name) {
                self.metrics.insert(name.to_owned(), make());
            }
            return self.metrics.get_mut(name).expect("just inserted");
        }
        // Stitch the base labels into the name via the reusable scratch
        // buffer; the String is only cloned on first sighting of a name.
        self.scratch.clear();
        match name.strip_suffix('}') {
            Some(open) => {
                self.scratch.push_str(open);
                self.scratch.push(',');
            }
            None => {
                self.scratch.push_str(name);
                self.scratch.push('{');
            }
        }
        self.scratch.push_str(&self.base_labels);
        self.scratch.push('}');
        if !self.metrics.contains_key(&self.scratch) {
            self.metrics.insert(self.scratch.clone(), make());
        }
        self.metrics.get_mut(&self.scratch).expect("just inserted")
    }

    /// Freezes the current state into an immutable snapshot.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            metrics: self.metrics.clone(),
        }
    }

    /// Consumes the registry into a snapshot without cloning.
    #[must_use]
    pub fn into_snapshot(self) -> MetricsSnapshot {
        MetricsSnapshot {
            metrics: self.metrics,
        }
    }
}

/// An immutable, mergeable view of a [`MetricsRegistry`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    metrics: BTreeMap<String, Metric>,
}

impl MetricsSnapshot {
    /// Merges `other` into `self`: counters and gauges add, histograms
    /// merge bucket-wise. Merge is associative and commutative over
    /// disjoint-or-matching keys, so folding per-job snapshots in job
    /// order yields the same result at any sweep thread count.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, metric) in &other.metrics {
            match self.metrics.get_mut(name) {
                None => {
                    self.metrics.insert(name.clone(), metric.clone());
                }
                Some(Metric::Counter(a)) => match metric {
                    Metric::Counter(b) => *a += b,
                    other => panic!("metric {name} merge kind mismatch ({})", other.kind()),
                },
                Some(Metric::Gauge(a)) => match metric {
                    Metric::Gauge(b) => *a += b,
                    other => panic!("metric {name} merge kind mismatch ({})", other.kind()),
                },
                Some(Metric::Histogram(a)) => match metric {
                    Metric::Histogram(b) => a.merge(b),
                    other => panic!("metric {name} merge kind mismatch ({})", other.kind()),
                },
            }
        }
    }

    /// Looks up a metric by full name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.get(name)
    }

    /// The counter `name`, or 0 when absent.
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        match self.metrics.get(name) {
            Some(Metric::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// The gauge `name`, or 0 when absent.
    #[must_use]
    pub fn gauge(&self, name: &str) -> i64 {
        match self.metrics.get(name) {
            Some(Metric::Gauge(v)) => *v,
            _ => 0,
        }
    }

    /// Iterates metrics in deterministic (BTree) name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Metric)> {
        self.metrics.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of metrics in the snapshot.
    #[must_use]
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Whether the snapshot holds no metrics.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Renders the snapshot as a single deterministic JSON object:
    /// `{"schema_version":1,"metrics":{name:{...},...}}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.metrics.len() * 48);
        out.push_str("{\"schema_version\":1,\"metrics\":{");
        for (i, (name, metric)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            escape_json_into(name, &mut out);
            out.push_str("\":");
            match metric {
                Metric::Counter(v) => {
                    let _ = write!(out, "{{\"type\":\"counter\",\"value\":{v}}}");
                }
                Metric::Gauge(v) => {
                    let _ = write!(out, "{{\"type\":\"gauge\",\"value\":{v}}}");
                }
                Metric::Histogram(h) => {
                    let _ = write!(
                        out,
                        "{{\"type\":\"histogram\",\"count\":{},\"sum\":{},\"buckets\":[",
                        h.count(),
                        h.sum()
                    );
                    for (j, &c) in h.counts().iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        match h.bounds().get(j) {
                            Some(b) => {
                                let _ = write!(out, "{{\"le\":{b},\"count\":{c}}}");
                            }
                            None => {
                                let _ = write!(out, "{{\"le\":\"+Inf\",\"count\":{c}}}");
                            }
                        }
                    }
                    out.push_str("]}");
                }
            }
        }
        out.push_str("}}\n");
        out
    }

    /// Renders the snapshot in the Prometheus text exposition format
    /// (one `# TYPE` line per metric family, cumulative histogram
    /// buckets, deterministic ordering).
    #[must_use]
    pub fn to_prometheus_text(&self) -> String {
        let mut out = String::with_capacity(64 + self.metrics.len() * 64);
        let mut last_family = String::new();
        for (name, metric) in &self.metrics {
            let family = name.split('{').next().unwrap_or(name);
            if family != last_family {
                let _ = writeln!(out, "# TYPE {family} {}", metric.kind());
                last_family = family.to_owned();
            }
            match metric {
                Metric::Counter(v) => {
                    let _ = writeln!(out, "{name} {v}");
                }
                Metric::Gauge(v) => {
                    let _ = writeln!(out, "{name} {v}");
                }
                Metric::Histogram(h) => {
                    // `family{labels}` renders as `family_bucket{labels,le=…}`,
                    // `family_sum{labels}` and `family_count{labels}`.
                    let labels = &name[family.len()..];
                    let inner = labels
                        .strip_prefix('{')
                        .and_then(|l| l.strip_suffix('}'))
                        .unwrap_or("");
                    let comma = if inner.is_empty() { "" } else { "," };
                    let mut cumulative = 0u64;
                    for (j, &c) in h.counts().iter().enumerate() {
                        cumulative += c;
                        match h.bounds().get(j) {
                            Some(b) => {
                                let _ = writeln!(
                                    out,
                                    "{family}_bucket{{{inner}{comma}le=\"{b}\"}} {cumulative}"
                                );
                            }
                            None => {
                                let _ = writeln!(
                                    out,
                                    "{family}_bucket{{{inner}{comma}le=\"+Inf\"}} {cumulative}"
                                );
                            }
                        }
                    }
                    let _ = writeln!(out, "{family}_sum{labels} {}", h.sum());
                    let _ = writeln!(out, "{family}_count{labels} {}", h.count());
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let mut r = MetricsRegistry::new();
        r.counter_add("a_total", 2);
        r.counter_add("a_total", 3);
        r.gauge_set("g", 7);
        r.gauge_add("g", -2);
        let s = r.snapshot();
        assert_eq!(s.counter("a_total"), 5);
        assert_eq!(s.gauge("g"), 5);
        assert_eq!(s.counter("missing"), 0);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::new(&[10, 100]);
        h.observe(5);
        h.observe(10);
        h.observe(50);
        h.observe(1_000);
        assert_eq!(h.counts(), &[2, 1, 1]);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 1_065);
    }

    #[test]
    fn merge_is_order_independent() {
        let mut a = MetricsRegistry::new();
        a.counter_add("c", 1);
        a.observe_with_bounds("h", 5, &[10, 100]);
        let mut b = MetricsRegistry::new();
        b.counter_add("c", 2);
        b.counter_add("only_b", 9);
        b.observe_with_bounds("h", 50, &[10, 100]);

        let (sa, sb) = (a.snapshot(), b.snapshot());
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        assert_eq!(ab, ba);
        assert_eq!(ab.counter("c"), 3);
        assert_eq!(ab.counter("only_b"), 9);
        match ab.get("h") {
            Some(Metric::Histogram(h)) => assert_eq!(h.count(), 2),
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn prometheus_text_is_cumulative_and_typed() {
        let mut r = MetricsRegistry::new();
        r.observe_with_bounds("lat", 5, &[10, 100]);
        r.observe_with_bounds("lat", 50, &[10, 100]);
        r.counter_add("runs_total", 1);
        let text = r.snapshot().to_prometheus_text();
        assert!(text.contains("# TYPE lat histogram"));
        assert!(text.contains("lat_bucket{le=\"10\"} 1"));
        assert!(text.contains("lat_bucket{le=\"100\"} 2"));
        assert!(text.contains("lat_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("lat_sum 55"));
        assert!(text.contains("lat_count 2"));
        assert!(text.contains("# TYPE runs_total counter"));
    }

    /// Whether `line` is a sample line of the text exposition format:
    /// `name{label="value",...} integer`, the label set optional and no
    /// label name repeated.
    fn is_sample_line(line: &str) -> bool {
        fn name_len(s: &str, colons: bool) -> usize {
            s.char_indices()
                .find(|&(i, c)| {
                    !(c == '_'
                        || (colons && c == ':')
                        || c.is_ascii_alphabetic()
                        || (i > 0 && c.is_ascii_digit()))
                })
                .map_or(s.len(), |(i, _)| i)
        }
        let Some((series, value)) = line.rsplit_once(' ') else {
            return false;
        };
        let digits = value.strip_prefix('-').unwrap_or(value);
        if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
            return false;
        }
        let name = name_len(series, true);
        if name == 0 {
            return false;
        }
        if name == series.len() {
            return true;
        }
        let Some(mut labels) = series[name..]
            .strip_prefix('{')
            .and_then(|l| l.strip_suffix('}'))
        else {
            return false;
        };
        let mut names = Vec::new();
        loop {
            let key = name_len(labels, false);
            let Some(quoted) = labels[key..].strip_prefix("=\"").filter(|_| key > 0) else {
                return false;
            };
            if names.contains(&&labels[..key]) {
                return false;
            }
            names.push(&labels[..key]);
            let Some(close) = quoted.find('"') else {
                return false;
            };
            labels = &quoted[close + 1..];
            match labels.strip_prefix(',') {
                Some(next) => labels = next,
                None => return labels.is_empty(),
            }
        }
    }

    #[test]
    fn labelled_histograms_render_valid_exposition_lines() {
        let mut r = MetricsRegistry::new();
        r.observe_with_bounds("lat{si=\"3\"}", 5, &[10, 100]);
        r.observe_with_bounds("lat{si=\"3\"}", 50, &[10, 100]);
        r.set_base_labels("trace_id=\"9\",trace_tenant=\"0\",attempt=\"1\"");
        r.observe_with_bounds("lat{si=\"4\"}", 7, &[10, 100]);
        r.observe_with_bounds("wait", 7, &[10, 100]);
        let text = r.snapshot().to_prometheus_text();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert!(is_sample_line(line), "not an exposition line: {line}");
        }
        assert_eq!(text.matches("# TYPE lat histogram").count(), 1);
        assert!(text.contains("lat_bucket{si=\"3\",le=\"10\"} 1\n"));
        assert!(text.contains("lat_bucket{si=\"3\",le=\"+Inf\"} 2\n"));
        assert!(text.contains("lat_sum{si=\"3\"} 55\n"));
        assert!(text.contains("lat_count{si=\"3\"} 2\n"));
        let base = "trace_id=\"9\",trace_tenant=\"0\",attempt=\"1\"";
        assert!(text.contains(&format!("lat_bucket{{si=\"4\",{base},le=\"10\"}} 1\n")));
        assert!(text.contains(&format!("lat_count{{si=\"4\",{base}}} 1\n")));
        assert!(text.contains(&format!("wait_bucket{{{base},le=\"100\"}} 1\n")));
        assert!(text.contains(&format!("wait_sum{{{base}}} 7\n")));
        // The grammar check itself refuses the shapes it must.
        for bad in [
            "lat{si=\"3\"}_bucket{le=\"10\"} 1",
            "lat{si=\"3\"}_sum 55",
            "lat_bucket{le=\"10\",} 1",
            "lat_bucket{=\"10\"} 1",
            "9lat 1",
            "lat 1.5",
            "x_total{tenant=\"1\",trace_id=\"7\",tenant=\"0\"} 9",
        ] {
            assert!(!is_sample_line(bad), "accepted: {bad}");
        }
    }

    #[test]
    fn labelled_families_emit_one_type_line() {
        let mut r = MetricsRegistry::new();
        r.counter_add("x_total{si=\"0\"}", 1);
        r.counter_add("x_total{si=\"1\"}", 2);
        let text = r.snapshot().to_prometheus_text();
        assert_eq!(text.matches("# TYPE x_total counter").count(), 1);
        assert!(text.contains("x_total{si=\"0\"} 1"));
        assert!(text.contains("x_total{si=\"1\"} 2"));
    }

    #[test]
    fn json_is_deterministic() {
        let mut r = MetricsRegistry::new();
        r.gauge_set("b", -4);
        r.counter_add("a", 1);
        let s = r.snapshot();
        assert_eq!(s.to_json(), s.to_json());
        assert!(s.to_json().starts_with("{\"schema_version\":1,\"metrics\":{\"a\""));
    }
    #[test]
    fn quantile_walks_cumulative_buckets() {
        let mut h = Histogram::new(&[10, 100, 1_000]);
        assert_eq!(h.quantile(0.5), None);
        for _ in 0..50 {
            h.observe(5); // bucket <=10
        }
        for _ in 0..40 {
            h.observe(60); // bucket <=100
        }
        for _ in 0..10 {
            h.observe(600); // bucket <=1000
        }
        assert_eq!(h.quantile(0.0), Some(10));
        assert_eq!(h.quantile(0.5), Some(10));
        assert_eq!(h.quantile(0.51), Some(100));
        assert_eq!(h.quantile(0.9), Some(100));
        assert_eq!(h.quantile(0.99), Some(1_000));
        assert_eq!(h.quantile(1.0), Some(1_000));
    }

    #[test]
    fn quantile_clamps_overflow_to_largest_finite_bound() {
        let mut h = Histogram::new(&[10]);
        h.observe(1_000_000); // +Inf bucket
        assert_eq!(h.quantile(0.5), Some(10));
        assert_eq!(h.quantile(1.0), Some(10));
    }

    #[test]
    fn quantile_of_empty_histogram_is_none_at_every_q() {
        let h = Histogram::new(&[10, 100]);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), None, "q={q}");
        }
        // Out-of-range q values clamp, they do not invent answers.
        assert_eq!(h.quantile(-1.0), None);
        assert_eq!(h.quantile(2.0), None);
    }

    #[test]
    fn histogram_with_only_the_inf_bucket_counts_but_cannot_quantile() {
        // No finite bounds: every observation lands in the implicit +Inf
        // overflow slot. Count and sum still accumulate, but no quantile
        // can be resolved — there is no finite bound to report.
        let mut h = Histogram::new(&[]);
        h.observe(7);
        h.observe_n(1_000_000, 3);
        assert_eq!(h.counts(), &[4]);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 3_000_007);
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(h.quantile(q), None, "q={q}");
        }
    }

    #[test]
    #[should_panic(expected = "different bucket bounds")]
    fn merging_disjoint_bucket_layouts_panics() {
        let mut a = Histogram::new(&[10, 100]);
        a.observe(5);
        let mut b = Histogram::new(&[16, 256]);
        b.observe(5);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "different bucket bounds")]
    fn snapshot_merge_panics_on_same_name_disjoint_bounds() {
        let mut a = MetricsRegistry::new();
        a.observe_with_bounds("h", 5, &[10, 100]);
        let mut b = MetricsRegistry::new();
        b.observe_with_bounds("h", 5, &[16]);
        let mut sa = a.snapshot();
        sa.merge(&b.snapshot());
    }

    #[test]
    fn merging_an_empty_snapshot_is_identity() {
        let mut r = MetricsRegistry::new();
        r.counter_add("c", 3);
        r.observe_with_bounds("h", 5, &[10]);
        let mut s = r.snapshot();
        let before = s.clone();
        s.merge(&MetricsSnapshot::default());
        assert_eq!(s, before);
        // And empty-merge-full equals full.
        let mut empty = MetricsSnapshot::default();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn base_labels_decorate_bare_and_labelled_names() {
        let mut r = MetricsRegistry::new();
        r.counter_add("before_total", 1);
        r.set_base_labels("trace_id=\"9\",trace_tenant=\"0\",attempt=\"1\"");
        assert_eq!(r.base_labels(), "trace_id=\"9\",trace_tenant=\"0\",attempt=\"1\"");
        r.counter_add("plain_total", 2);
        r.counter_add("labelled_total{si=\"3\"}", 4);
        r.gauge_set("depth", 5);
        r.observe_with_bounds("lat", 7, &[10]);
        let s = r.snapshot();
        // Metrics written before decoration keep their names.
        assert_eq!(s.counter("before_total"), 1);
        assert_eq!(
            s.counter("plain_total{trace_id=\"9\",trace_tenant=\"0\",attempt=\"1\"}"),
            2
        );
        assert_eq!(
            s.counter("labelled_total{si=\"3\",trace_id=\"9\",trace_tenant=\"0\",attempt=\"1\"}"),
            4
        );
        assert_eq!(s.gauge("depth{trace_id=\"9\",trace_tenant=\"0\",attempt=\"1\"}"), 5);
        assert!(s
            .get("lat{trace_id=\"9\",trace_tenant=\"0\",attempt=\"1\"}")
            .is_some());
        // Clearing the labels restores pass-through names.
        r.set_base_labels("");
        r.counter_add("plain_total", 1);
        assert_eq!(r.snapshot().counter("plain_total"), 1);
    }
}
