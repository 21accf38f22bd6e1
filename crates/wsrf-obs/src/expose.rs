//! Exposition: render a live [`MetricsRegistry`] as Prometheus-style
//! text or flat JSON, straight into a caller-supplied sink — and read
//! the flat JSON back.
//!
//! Mirrors the `XmlSink` pattern from `wsrf-xml`: one render routine is
//! generic over the destination ([`MetricSink`]), so the HTTP scrape
//! path renders into a reused per-connection `Vec<u8>` and a sizing
//! pass can count bytes — in both cases without allocating a single
//! per-metric `String`. Integers are formatted through a stack buffer
//! ([`MetricSink::put_u64`]), metric names are sanitized for Prometheus
//! by streaming the valid runs ([`put_sanitized`]).
//!
//! The flat JSON format has one writer, [`put_json_entry`], behind both
//! the live [`MetricsRegistry::write_json_into`] scrape and the
//! [`MetricsSnapshot::to_json`] dump, and one reader,
//! [`MetricsSnapshot::from_json`], its exact inverse: a scrape and a
//! dump of the same registry are the same bytes and parse to the same
//! snapshot.

use crate::{
    percentile_from_buckets, HistogramStats, Metric, MetricValue, MetricsRegistry, MetricsSnapshot,
};
use std::sync::atomic::Ordering;

/// Destination for rendered metrics. Implemented for `String`,
/// `Vec<u8>` and [`LenSink`] (exact size of a render, no bytes kept).
pub trait MetricSink {
    fn put(&mut self, s: &str);

    /// Append a `u64` without heap allocation (stack `itoa`).
    fn put_u64(&mut self, mut v: u64) {
        let mut buf = [0u8; 20];
        let mut at = buf.len();
        loop {
            at -= 1;
            buf[at] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        // The buffer holds only ASCII digits.
        self.put(std::str::from_utf8(&buf[at..]).unwrap());
    }

    /// Append an `i64` without heap allocation.
    fn put_i64(&mut self, v: i64) {
        if v < 0 {
            self.put("-");
            self.put_u64(v.unsigned_abs());
        } else {
            self.put_u64(v as u64);
        }
    }
}

impl MetricSink for String {
    fn put(&mut self, s: &str) {
        self.push_str(s);
    }
}

impl MetricSink for Vec<u8> {
    fn put(&mut self, s: &str) {
        self.extend_from_slice(s.as_bytes());
    }
}

/// Counts bytes instead of keeping them: `render` into a `LenSink` is
/// an exact sizing pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct LenSink(pub usize);

impl MetricSink for LenSink {
    fn put(&mut self, s: &str) {
        self.0 += s.len();
    }
}

/// True for characters Prometheus accepts in metric names.
fn prom_ok(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b == b':'
}

/// Stream `name` with every Prometheus-invalid character (dots, mostly)
/// replaced by `_`, pushing the valid runs as borrowed slices.
fn put_sanitized(sink: &mut impl MetricSink, name: &str) {
    let bytes = name.as_bytes();
    let mut start = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if !prom_ok(b) {
            if start < i {
                sink.put(&name[start..i]);
            }
            sink.put("_");
            start = i + 1;
        }
    }
    if start < bytes.len() {
        sink.put(&name[start..]);
    }
}

/// Stream `s` as the interior of a JSON string (quotes not included),
/// escaping the JSON-special characters in place. Every other control
/// character is written as its exact `\u00XX`, so any string survives
/// a round trip.
pub(crate) fn put_json_escaped(sink: &mut impl MetricSink, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut start = 0;
    for (i, c) in s.char_indices() {
        let mut code = *b"\\u00XX";
        let esc: &str = match c {
            '"' => "\\\"",
            '\\' => "\\\\",
            '\n' => "\\n",
            '\r' => "\\r",
            '\t' => "\\t",
            c if (c as u32) < 0x20 => {
                code[4] = HEX[c as usize >> 4];
                code[5] = HEX[c as usize & 0xf];
                // Six ASCII bytes.
                std::str::from_utf8(&code).unwrap()
            }
            _ => continue,
        };
        if start < i {
            sink.put(&s[start..i]);
        }
        sink.put(esc);
        start = i + c.len_utf8();
    }
    if start < s.len() {
        sink.put(&s[start..]);
    }
}

/// The one writer of a flat-JSON metric entry:
/// `"name": {"type": ..., ...}`. A histogram's `mean` is derived from
/// `sum / count`, to one decimal rounded half away from zero in exact
/// integer arithmetic.
pub(crate) fn put_json_entry(sink: &mut impl MetricSink, name: &str, value: &MetricValue) {
    sink.put("  \"");
    put_json_escaped(sink, name);
    sink.put("\": ");
    match value {
        MetricValue::Counter(c) => {
            sink.put("{\"type\": \"counter\", \"value\": ");
            sink.put_u64(*c);
        }
        MetricValue::Gauge(g) => {
            sink.put("{\"type\": \"gauge\", \"value\": ");
            sink.put_i64(*g);
        }
        MetricValue::Histogram(h) => {
            let tenths = match h.count {
                0 => 0,
                n => (u128::from(h.sum) * 20 + u128::from(n)) / (u128::from(n) * 2),
            };
            sink.put("{\"type\": \"histogram\"");
            for (key, v) in [
                ("count", h.count),
                ("sum", h.sum),
                ("min", h.min),
                ("max", h.max),
            ] {
                put_field(sink, key, v);
            }
            // `tenths / 10` is `sum / count` rounded, so it fits a u64.
            sink.put(", \"mean\": ");
            sink.put_u64((tenths / 10) as u64);
            sink.put(".");
            sink.put_u64((tenths % 10) as u64);
            for (key, v) in [("p50", h.p50), ("p90", h.p90), ("p99", h.p99)] {
                put_field(sink, key, v);
            }
        }
    }
    sink.put("}");
}

fn put_field(sink: &mut impl MetricSink, key: &str, v: u64) {
    sink.put(", \"");
    sink.put(key);
    sink.put("\": ");
    sink.put_u64(v);
}

/// The whole flat-JSON document: one entry per line inside one object.
pub(crate) fn put_json_doc<'a>(
    sink: &mut impl MetricSink,
    entries: impl Iterator<Item = (&'a str, MetricValue)>,
) {
    sink.put("{");
    for (i, (name, value)) in entries.enumerate() {
        sink.put(if i == 0 { "\n" } else { ",\n" });
        put_json_entry(sink, name, &value);
    }
    sink.put("\n}");
}

impl MetricsRegistry {
    /// Render every metric in Prometheus text-exposition format.
    /// Counters and gauges render as themselves; histograms render as
    /// summaries (`{quantile="..."}` series plus `_sum`/`_count`).
    /// Zero heap allocation per metric: values stream through the
    /// sink's stack formatter, names through [`put_sanitized`].
    pub fn write_prometheus_into<S: MetricSink>(&self, sink: &mut S) {
        let metrics = self.metrics.read();
        for (name, metric) in metrics.iter() {
            match metric {
                Metric::Counter(c) => {
                    sink.put("# TYPE ");
                    put_sanitized(sink, name);
                    sink.put(" counter\n");
                    put_sanitized(sink, name);
                    sink.put(" ");
                    sink.put_u64(c.get());
                    sink.put("\n");
                }
                Metric::Gauge(g) => {
                    sink.put("# TYPE ");
                    put_sanitized(sink, name);
                    sink.put(" gauge\n");
                    put_sanitized(sink, name);
                    sink.put(" ");
                    sink.put_i64(g.get());
                    sink.put("\n");
                }
                Metric::Histogram(h) => {
                    let Some(core) = &h.inner else { continue };
                    let mut buckets = [0u64; crate::BUCKETS];
                    for (slot, b) in buckets.iter_mut().zip(core.buckets.iter()) {
                        *slot = b.load(Ordering::Relaxed);
                    }
                    let count: u64 = buckets.iter().sum();
                    let sum = core.sum.load(Ordering::Relaxed);
                    sink.put("# TYPE ");
                    put_sanitized(sink, name);
                    sink.put(" summary\n");
                    for (q, tag) in [(0.50, "0.5"), (0.90, "0.9"), (0.99, "0.99")] {
                        put_sanitized(sink, name);
                        sink.put("{quantile=\"");
                        sink.put(tag);
                        sink.put("\"} ");
                        sink.put_u64(percentile_from_buckets(&buckets, count, q));
                        sink.put("\n");
                    }
                    put_sanitized(sink, name);
                    sink.put("_sum ");
                    sink.put_u64(sum);
                    sink.put("\n");
                    put_sanitized(sink, name);
                    sink.put("_count ");
                    sink.put_u64(count);
                    sink.put("\n");
                }
            }
        }
    }

    /// Render every metric as the flat JSON that
    /// [`MetricsSnapshot::to_json`] writes, without snapshotting:
    /// values are read live under the registry's read lock and streamed
    /// into `sink` with no per-metric `String`.
    pub fn write_json_into<S: MetricSink>(&self, sink: &mut S) {
        let metrics = self.metrics.read();
        put_json_doc(sink, metrics.iter().map(|(n, m)| (n.as_str(), m.value())));
    }
}

/// Why [`MetricsSnapshot::from_json`] refused its input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsJsonError {
    /// 1-based line the error is on.
    pub line: usize,
    /// That whole line.
    pub text: String,
    pub reason: String,
}

impl std::fmt::Display for MetricsJsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}: {:?}", self.line, self.reason, self.text)
    }
}

impl std::error::Error for MetricsJsonError {}

impl MetricsSnapshot {
    /// Flat JSON: one object keyed by metric name, one metric per line
    /// (what `/metrics.json` serves and `tests/expected_metrics.json` pins).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        put_json_doc(&mut out, self.entries.iter().map(|(n, v)| (n.as_str(), *v)));
        out
    }

    /// The inverse of [`MetricsSnapshot::to_json`]: entries in document
    /// order, histograms whole (the rendered `mean` must be a number and
    /// is otherwise ignored — it is derived). Anything else — a
    /// truncated line, a missing or reordered field, a bad number, an
    /// unknown `type`, an unescaped quote in a name — is an error naming
    /// the line.
    pub fn from_json(text: &str) -> Result<MetricsSnapshot, MetricsJsonError> {
        let lines: Vec<&str> = text.lines().collect();
        let fail = |i: usize, reason: &str| MetricsJsonError {
            line: i + 1,
            text: lines.get(i).copied().unwrap_or_default().to_string(),
            reason: reason.to_string(),
        };
        let last = lines.len().saturating_sub(1);
        if lines.first().map(|l| l.trim()) != Some("{") {
            return Err(fail(0, "expected `{` on a line of its own"));
        }
        if last == 0 || lines[last].trim() != "}" {
            return Err(fail(last, "expected `}` on a line of its own"));
        }
        let entries = (1..last)
            .map(|i| {
                let line = lines[i].trim();
                let entry = if i + 1 == last {
                    Ok(line)
                } else {
                    line.strip_suffix(',')
                        .ok_or_else(|| "expected `,` after the entry".to_string())
                };
                entry
                    .and_then(|e| Cursor { text: e, at: 0 }.entry())
                    .map_err(|reason| fail(i, &reason))
            })
            .collect::<Result<_, _>>()?;
        Ok(MetricsSnapshot { entries })
    }
}

/// A position in one flat-JSON entry line; always on a char boundary.
struct Cursor<'a> {
    text: &'a str,
    at: usize,
}

impl Cursor<'_> {
    /// `"name": {"type": "<kind>", <fields>}`, all of the line.
    fn entry(mut self) -> Result<(String, MetricValue), String> {
        let name = self.string()?;
        self.expect(": {")?;
        self.key("type")?;
        let value = match self.string()?.as_str() {
            "counter" => MetricValue::Counter(self.field("value")?),
            "gauge" => MetricValue::Gauge(self.field("value")?),
            "histogram" => {
                let (count, sum, min, max) = (
                    self.field("count")?,
                    self.field("sum")?,
                    self.field("min")?,
                    self.field("max")?,
                );
                self.field::<f64>("mean")?;
                MetricValue::Histogram(HistogramStats {
                    count,
                    sum,
                    min,
                    max,
                    p50: self.field("p50")?,
                    p90: self.field("p90")?,
                    p99: self.field("p99")?,
                })
            }
            kind => return Err(format!("unknown metric type {kind:?}")),
        };
        self.expect("}")?;
        if self.at != self.text.len() {
            return Err("trailing characters after the entry".to_string());
        }
        Ok((name, value))
    }

    fn expect(&mut self, token: &str) -> Result<(), String> {
        if !self.text[self.at..].starts_with(token) {
            return Err(format!("expected `{token}` at column {}", self.at + 1));
        }
        self.at += token.len();
        Ok(())
    }

    fn key(&mut self, key: &str) -> Result<(), String> {
        self.expect(&format!("\"{key}\": "))
    }

    /// `, "key": <number>`.
    fn field<T: std::str::FromStr>(&mut self, key: &str) -> Result<T, String> {
        self.expect(", ")?;
        self.key(key)?;
        let rest = &self.text[self.at..];
        let len = rest
            .find(|c: char| !(c.is_ascii_digit() || matches!(c, '-' | '.')))
            .unwrap_or(rest.len());
        let v = rest[..len]
            .parse()
            .map_err(|_| format!("`{key}` is not a valid number"))?;
        self.at += len;
        Ok(v)
    }

    /// A JSON string with the escapes [`put_json_escaped`] writes.
    fn string(&mut self) -> Result<String, String> {
        self.expect("\"")?;
        let mut out = String::new();
        let mut chars = self.text[self.at..].char_indices();
        while let Some((i, ch)) = chars.next() {
            out.push(match ch {
                '"' => {
                    self.at += i + 1;
                    return Ok(out);
                }
                '\\' => match chars.next().map(|(_, e)| e) {
                    Some('"') => '"',
                    Some('\\') => '\\',
                    Some('n') => '\n',
                    Some('r') => '\r',
                    Some('t') => '\t',
                    Some('u') => {
                        let hex: String = chars.by_ref().take(4).map(|(_, h)| h).collect();
                        Some(hex.as_str())
                            .filter(|h| h.len() == 4 && h.bytes().all(|b| b.is_ascii_hexdigit()))
                            .and_then(|h| char::from_u32(u32::from_str_radix(h, 16).ok()?))
                            .ok_or("bad \\u escape in a string")?
                    }
                    _ => return Err("bad escape in a string".to_string()),
                },
                c if (c as u32) < 0x20 => {
                    return Err("unescaped control character in a string".to_string())
                }
                c => c,
            });
        }
        Err("unterminated string".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_integer_formatting() {
        let mut s = String::new();
        s.put_u64(0);
        s.put(" ");
        s.put_u64(18_446_744_073_709_551_615);
        s.put(" ");
        s.put_i64(-42);
        assert_eq!(s, "0 18446744073709551615 -42");
    }

    #[test]
    fn sanitized_names_stream_in_runs() {
        let mut s = String::new();
        put_sanitized(&mut s, "container.fss.dispatches");
        assert_eq!(s, "container_fss_dispatches");
        let mut s = String::new();
        put_sanitized(&mut s, "a-b.c");
        assert_eq!(s, "a_b_c");
    }

    #[test]
    fn json_escaping() {
        let mut s = String::new();
        put_json_escaped(&mut s, "a\"b\\c\nd\u{1}e\u{1f}\u{85}");
        assert_eq!(s, "a\\\"b\\\\c\\nd\\u0001e\\u001f\u{85}");
    }

    #[test]
    fn prometheus_covers_all_kinds() {
        let reg = MetricsRegistry::enabled();
        reg.counter("jobs.done").add(3);
        reg.gauge("queue.depth").set(-1);
        reg.histogram("lat.ns").record(500);
        let mut out = String::new();
        reg.write_prometheus_into(&mut out);
        assert!(
            out.contains("# TYPE jobs_done counter\njobs_done 3\n"),
            "{out}"
        );
        assert!(out.contains("# TYPE queue_depth gauge\nqueue_depth -1\n"));
        assert!(out.contains("# TYPE lat_ns summary\n"));
        assert!(out.contains("lat_ns{quantile=\"0.99\"} 384\n"));
        assert!(out.contains("lat_ns_sum 500\n"));
        assert!(out.contains("lat_ns_count 1\n"));
    }

    #[test]
    fn json_render_matches_snapshot_encoding() {
        let plain = MetricsRegistry::enabled();
        plain.counter("c").add(7);
        plain.gauge("g").set(5);
        plain.histogram("h").record(1000);
        // A mean on a tenths tie (1001 / 4 = 250.25) and a name holding
        // U+0085 (broker topic roots come from published messages).
        let tie = MetricsRegistry::enabled();
        for v in [250, 250, 250, 251] {
            tie.histogram("h").record(v);
        }
        let odd = MetricsRegistry::enabled();
        odd.counter("broker.topic.a\u{85}b.publishes").inc();
        for reg in [plain, tie, odd] {
            let mut live = String::new();
            reg.write_json_into(&mut live);
            // The scrape and the dump are one encoding: the metrics pin
            // and the monitor read both with `from_json`.
            let snap = reg.snapshot();
            assert_eq!(live, snap.to_json());
            assert_eq!(MetricsSnapshot::from_json(&live), Ok(snap));
        }
    }

    /// SplitMix64: a seeded, dependency-free case generator.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// Any width, so small and huge values both occur.
        fn wide(&mut self) -> u64 {
            let shift = self.below(64);
            self.next() >> shift
        }

        fn name(&mut self) -> String {
            const HARD: &[char] = &[
                '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1}', '\u{1f}', '\u{7f}', '\u{85}',
                '\u{2028}', 'é', '😀', ' ', ':', ',', '{', '}', '.', 'a', 'Z', '_',
            ];
            (0..self.below(12))
                .map(|_| match self.below(4) {
                    0 => char::from_u32(self.below(0x3000) as u32).unwrap_or('?'),
                    _ => HARD[self.below(HARD.len() as u64) as usize],
                })
                .collect()
        }

        fn value(&mut self) -> MetricValue {
            match self.below(4) {
                0 => MetricValue::Counter(self.wide()),
                1 => MetricValue::Gauge(self.wide() as i64 >> self.below(2)),
                2 => MetricValue::Histogram(HistogramStats::default()),
                _ => MetricValue::Histogram(HistogramStats {
                    count: self.wide(),
                    sum: self.wide(),
                    min: self.wide(),
                    max: self.wide(),
                    p50: self.wide(),
                    p90: self.wide(),
                    p99: self.wide(),
                }),
            }
        }
    }

    #[test]
    fn flat_json_round_trips_any_snapshot_and_any_registry() {
        let mut g = Gen(0x0b5e_12a7);
        for _ in 0..400 {
            // from_json ∘ to_json is the identity on any snapshot.
            let snap = MetricsSnapshot {
                entries: (0..g.below(6)).map(|_| (g.name(), g.value())).collect(),
            };
            let json = snap.to_json();
            assert_eq!(
                MetricsSnapshot::from_json(&json).as_ref(),
                Ok(&snap),
                "{json}"
            );

            // A live scrape is the dump's bytes, whatever was recorded.
            let reg = MetricsRegistry::enabled();
            let mut used = std::collections::HashSet::new();
            for _ in 0..g.below(6) {
                let name = g.name();
                if !used.insert(name.clone()) {
                    continue;
                }
                match g.below(3) {
                    0 => reg.counter(&name).add(g.wide()),
                    1 => reg.gauge(&name).set(g.wide() as i64),
                    _ => {
                        let h = reg.histogram(&name);
                        for _ in 0..g.below(5) {
                            h.record(g.below(1 << 40));
                        }
                    }
                }
            }
            let mut live = String::new();
            reg.write_json_into(&mut live);
            let snap = reg.snapshot();
            assert_eq!(live, snap.to_json());
            assert_eq!(MetricsSnapshot::from_json(&live), Ok(snap));
        }

        // Every kind reads back with its value.
        let reg = MetricsRegistry::enabled();
        reg.counter("a.count").add(7);
        reg.gauge("b.gauge").set(-3);
        let h = reg.histogram("c.hist_ns");
        h.record(100);
        h.record(300);
        let parsed = MetricsSnapshot::from_json(&reg.snapshot().to_json()).unwrap();
        assert_eq!(parsed.counter("a.count"), Some(7));
        assert_eq!(parsed.gauge("b.gauge"), Some(-3));
        let stats = parsed.histogram("c.hist_ns").unwrap();
        assert_eq!((stats.count, stats.sum, stats.mean()), (2, 400, 200.0));
        assert_eq!(
            MetricsSnapshot::from_json("{\n}"),
            Ok(MetricsSnapshot::default())
        );
    }

    #[test]
    fn malformed_flat_json_is_an_error_naming_its_line() {
        let good = "{\n  \"a\": {\"type\": \"counter\", \"value\": 7},\n  \"h\": {\"type\": \"histogram\", \"count\": 2, \"sum\": 400, \"min\": 100, \"max\": 300, \"mean\": 200.0, \"p50\": 96, \"p90\": 384, \"p99\": 384}\n}";
        assert!(MetricsSnapshot::from_json(good).is_ok());
        for (bad, line) in [
            // A truncated line.
            ("{\n  \"a\": {\"type\": \"counter\", \"val".to_string(), 2),
            // A missing field.
            (good.replace("\"sum\": 400, ", ""), 3),
            // Bad numbers: junk, a fraction, a sign, an overflow.
            (good.replace("\"value\": 7", "\"value\": 7x"), 2),
            (good.replace("\"value\": 7", "\"value\": 7.5"), 2),
            (good.replace("\"count\": 2", "\"count\": -2"), 3),
            (
                good.replace("\"value\": 7", "\"value\": 99999999999999999999"),
                2,
            ),
            (good.replace("\"mean\": 200.0", "\"mean\": x"), 3),
            // An unknown type.
            (good.replace("\"counter\"", "\"timer\""), 2),
            // An unescaped quote inside a name, a raw control character.
            (good.replace("\"a\"", "\"a\"b\""), 2),
            (good.replace("\"a\"", "\"a\tb\""), 2),
            (good.replace("\"a\"", "\"\\u00zz\""), 2),
            // Trailing garbage.
            (format!("{good}\nx"), 5),
        ] {
            let err = MetricsSnapshot::from_json(&bad).expect_err(&bad);
            assert_eq!(err.line, line, "{err} in {bad}");
            assert_eq!(err.text, bad.lines().nth(line - 1).unwrap_or(""), "{err}");
        }
        // No prefix of a document parses, and none panics.
        for (cut, _) in good.char_indices().skip(1) {
            assert!(MetricsSnapshot::from_json(&good[..cut]).is_err(), "{cut}");
        }
    }

    #[test]
    fn len_sink_sizes_exactly() {
        let reg = MetricsRegistry::enabled();
        for i in 0..20 {
            reg.counter(&format!("c{i}")).add(i);
            reg.histogram(&format!("h{i}")).record(i * 100);
        }
        let mut text = Vec::new();
        reg.write_prometheus_into(&mut text);
        let mut len = LenSink::default();
        reg.write_prometheus_into(&mut len);
        assert_eq!(len.0, text.len());
        let mut jtext = Vec::new();
        reg.write_json_into(&mut jtext);
        let mut jlen = LenSink::default();
        reg.write_json_into(&mut jlen);
        assert_eq!(jlen.0, jtext.len());
    }
}
