//! The machine-readable run ledger: a versioned JSON snapshot of a
//! session's [`Metrics`] registry.
//!
//! One [`Ledger`] per analysis session; a [`BatchLedger`] wraps the
//! service layer's own registry plus every per-session ledger. The schema
//! is deliberately boring and *stable*: every metric name from the id
//! enums appears in every ledger (zeros included), so CI can validate the
//! exact key set and downstream tooling never has to probe for optional
//! fields. `LEDGER_VERSION` bumps whenever the key set or shape changes.
//!
//! The crate carries its own serializer *and* parser (no serde in this
//! offline workspace); a proptest pins that arbitrary ledgers round-trip
//! field-for-field.

use crate::{CounterId, GaugeId, HistId, Metrics, TimerId, HIST_BUCKETS};
use std::fmt::Write as _;

/// Schema version stamped into every ledger object. Version 4 removed the
/// sharded-analysis keys (`shard.records`, `shard.wall`, `shard.merge`)
/// and the overlapped-ingest keys (`ingest.queue_wait`, `ingest.depth`,
/// `ingest.buffer_bytes`) along with the modes that booked them.
pub const LEDGER_VERSION: u64 = 4;

/// `"ledger"` tag of a per-session object.
pub const SESSION_TAG: &str = "autocheck.session";

/// `"ledger"` tag of a batch (service-layer) object.
pub const BATCH_TAG: &str = "autocheck.batch";

/// Snapshot of one histogram: total of observed values plus per-bucket
/// counts (fixed length [`HIST_BUCKETS`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Sum of every observed value.
    pub sum: u64,
    /// Power-of-two bucket counts (bucket 0 = value 0, bucket *i* =
    /// `[2^(i-1), 2^i)`, last bucket clamps).
    pub buckets: Vec<u64>,
}

/// A point-in-time snapshot of one session's metrics registry. Field
/// vectors are indexed in `*Id::ALL` order — the JSON form keys them by
/// metric name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ledger {
    /// Session name (trace path or app name).
    pub name: String,
    /// Counter values in [`CounterId::ALL`] order.
    pub counters: Vec<u64>,
    /// Gauge `(value, peak)` pairs in [`GaugeId::ALL`] order.
    pub gauges: Vec<(u64, u64)>,
    /// Timer `(cumulative nanos, span count)` pairs in [`TimerId::ALL`]
    /// order.
    pub timers: Vec<(u64, u64)>,
    /// Histogram snapshots in [`HistId::ALL`] order.
    pub hists: Vec<HistSnapshot>,
}

impl Ledger {
    /// Snapshot `metrics` under the given session name. A disabled handle
    /// yields an all-zero ledger (same schema, so the shape never depends
    /// on whether metrics were on).
    pub fn capture(name: &str, metrics: &Metrics) -> Ledger {
        Ledger {
            name: name.to_string(),
            counters: CounterId::ALL
                .iter()
                .map(|&id| metrics.counter(id))
                .collect(),
            gauges: GaugeId::ALL.iter().map(|&id| metrics.gauge(id)).collect(),
            timers: TimerId::ALL.iter().map(|&id| metrics.timer(id)).collect(),
            hists: HistId::ALL
                .iter()
                .map(|&id| metrics.hist_snapshot(id))
                .collect(),
        }
    }

    /// An all-zero ledger (what a disabled session reports).
    pub fn empty(name: &str) -> Ledger {
        Ledger::capture(name, &Metrics::disabled())
    }

    /// Counter value by id.
    pub fn counter(&self, id: CounterId) -> u64 {
        self.counters[id as usize]
    }

    /// Gauge `(value, peak)` by id.
    pub fn gauge(&self, id: GaugeId) -> (u64, u64) {
        self.gauges[id as usize]
    }

    /// Timer `(nanos, count)` by id.
    pub fn timer(&self, id: TimerId) -> (u64, u64) {
        self.timers[id as usize]
    }

    /// Histogram snapshot by id.
    pub fn hist(&self, id: HistId) -> &HistSnapshot {
        &self.hists[id as usize]
    }

    /// Serialize to the versioned JSON object (pretty, two-space indent,
    /// trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_json(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        let inner = "  ".repeat(indent + 1);
        let field = "  ".repeat(indent + 2);
        let _ = write!(
            out,
            "{pad}{{\n{inner}\"ledger\": \"{SESSION_TAG}\",\n{inner}\"version\": {LEDGER_VERSION},\n{inner}\"name\": "
        );
        write_json_string(out, &self.name);
        let _ = write!(out, ",\n{inner}\"counters\": {{");
        for (i, id) in CounterId::ALL.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n{field}\"{}\": {}", id.name(), self.counters[i]);
        }
        let _ = write!(out, "\n{inner}}},\n{inner}\"gauges\": {{");
        for (i, id) in GaugeId::ALL.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let (v, p) = self.gauges[i];
            let _ = write!(
                out,
                "{sep}\n{field}\"{}\": {{\"value\": {v}, \"peak\": {p}}}",
                id.name()
            );
        }
        let _ = write!(out, "\n{inner}}},\n{inner}\"timers\": {{");
        for (i, id) in TimerId::ALL.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let (ns, count) = self.timers[i];
            let _ = write!(
                out,
                "{sep}\n{field}\"{}\": {{\"ns\": {ns}, \"count\": {count}}}",
                id.name()
            );
        }
        let _ = write!(out, "\n{inner}}},\n{inner}\"histograms\": {{");
        for (i, id) in HistId::ALL.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let h = &self.hists[i];
            let _ = write!(
                out,
                "{sep}\n{field}\"{}\": {{\"sum\": {}, \"buckets\": [",
                id.name(),
                h.sum
            );
            for (j, b) in h.buckets.iter().enumerate() {
                let sep = if j == 0 { "" } else { ", " };
                let _ = write!(out, "{sep}{b}");
            }
            let _ = write!(out, "]}}");
        }
        let _ = write!(out, "\n{inner}}}\n{pad}}}");
    }

    /// Parse a session ledger produced by [`to_json`](Self::to_json).
    pub fn from_json(text: &str) -> Result<Ledger, LedgerError> {
        let v = parse_value(text)?;
        ledger_from_value(&v)
    }

    /// Render the human summary table (`--metrics -`). Zero-valued rows
    /// are elided so quick runs stay readable.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== metrics: {} ==", self.name);
        let mut any = false;
        for (i, id) in TimerId::ALL.iter().enumerate() {
            let (ns, count) = self.timers[i];
            if count == 0 {
                continue;
            }
            any = true;
            let _ = writeln!(
                out,
                "  {:<28} {:>12}  ({} span{})",
                id.name(),
                fmt_duration_ns(ns),
                count,
                if count == 1 { "" } else { "s" }
            );
        }
        for (i, id) in CounterId::ALL.iter().enumerate() {
            let v = self.counters[i];
            if v == 0 {
                continue;
            }
            any = true;
            let _ = writeln!(out, "  {:<28} {v:>12}", id.name());
        }
        for (i, id) in GaugeId::ALL.iter().enumerate() {
            let (v, p) = self.gauges[i];
            if v == 0 && p == 0 {
                continue;
            }
            any = true;
            let _ = writeln!(out, "  {:<28} {v:>12}  (peak {p})", id.name());
        }
        for (i, id) in HistId::ALL.iter().enumerate() {
            let h = &self.hists[i];
            let count: u64 = h.buckets.iter().sum();
            if count == 0 {
                continue;
            }
            any = true;
            let _ = writeln!(
                out,
                "  {:<28} {:>12}  (n={count}, mean={})",
                id.name(),
                h.sum,
                h.sum / count.max(1)
            );
        }
        if !any {
            let _ = writeln!(out, "  (no activity recorded)");
        }
        out
    }
}

impl Metrics {
    /// Snapshot one histogram (all-zero when disabled). Lives here so the
    /// registry's cells stay private to the crate.
    pub fn hist_snapshot(&self, id: HistId) -> HistSnapshot {
        HistSnapshot {
            sum: self.hist_sum(id),
            buckets: (0..HIST_BUCKETS).map(|b| self.hist_bucket(id, b)).collect(),
        }
    }
}

/// The service layer's aggregate: its own registry (queue wait, session
/// wall, jobs in flight) plus every per-session ledger, in job order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchLedger {
    /// Number of jobs submitted.
    pub jobs: u64,
    /// Whole-batch wall clock in nanoseconds.
    pub wall_ns: u64,
    /// The batch-level registry snapshot.
    pub batch: Ledger,
    /// One ledger per session, in submission order.
    pub sessions: Vec<Ledger>,
}

impl BatchLedger {
    /// Serialize to the versioned batch JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"ledger\": \"{BATCH_TAG}\",\n  \"version\": {LEDGER_VERSION},\n  \"jobs\": {},\n  \"wall_ns\": {},\n  \"batch\":\n",
            self.jobs, self.wall_ns
        );
        self.batch.write_json(&mut out, 1);
        let _ = write!(out, ",\n  \"sessions\": [");
        for (i, s) in self.sessions.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = writeln!(out, "{sep}");
            s.write_json(&mut out, 2);
        }
        if self.sessions.is_empty() {
            let _ = write!(out, "]\n}}\n");
        } else {
            let _ = write!(out, "\n  ]\n}}\n");
        }
        out
    }

    /// Parse a batch ledger produced by [`to_json`](Self::to_json).
    pub fn from_json(text: &str) -> Result<BatchLedger, LedgerError> {
        let v = parse_value(text)?;
        let obj = v.as_object("batch ledger")?;
        expect_tag(obj, BATCH_TAG)?;
        Ok(BatchLedger {
            jobs: get_u64(obj, "jobs")?,
            wall_ns: get_u64(obj, "wall_ns")?,
            batch: ledger_from_value(get(obj, "batch")?)?,
            sessions: get(obj, "sessions")?
                .as_array("sessions")?
                .iter()
                .map(ledger_from_value)
                .collect::<Result<_, _>>()?,
        })
    }

    /// Render human summaries for the batch and each session.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== batch: {} job{} in {} ==",
            self.jobs,
            if self.jobs == 1 { "" } else { "s" },
            fmt_duration_ns(self.wall_ns)
        );
        out.push_str(&self.batch.render_table());
        for s in &self.sessions {
            out.push_str(&s.render_table());
        }
        out
    }
}

/// Why a ledger failed to parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LedgerError(String);

impl std::fmt::Display for LedgerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ledger: {}", self.0)
    }
}

impl std::error::Error for LedgerError {}

fn err<T>(msg: impl Into<String>) -> Result<T, LedgerError> {
    Err(LedgerError(msg.into()))
}

/// Format nanoseconds the way the rest of the CLI formats durations.
pub fn fmt_duration_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Minimal JSON reader — just enough for the ledger schema (objects, arrays,
// strings with the standard escapes, unsigned integers). Kept private; the
// public surface is from_json on the two ledger types.
// ---------------------------------------------------------------------------

#[derive(Clone, Debug, PartialEq)]
enum Value {
    Object(Vec<(String, Value)>),
    Array(Vec<Value>),
    Str(String),
    Num(u64),
}

impl Value {
    fn as_object(&self, what: &str) -> Result<&[(String, Value)], LedgerError> {
        match self {
            Value::Object(fields) => Ok(fields),
            _ => err(format!("{what}: expected an object")),
        }
    }

    fn as_array(&self, what: &str) -> Result<&[Value], LedgerError> {
        match self {
            Value::Array(items) => Ok(items),
            _ => err(format!("{what}: expected an array")),
        }
    }

    fn as_u64(&self, what: &str) -> Result<u64, LedgerError> {
        match self {
            Value::Num(n) => Ok(*n),
            _ => err(format!("{what}: expected an unsigned integer")),
        }
    }

    fn as_str(&self, what: &str) -> Result<&str, LedgerError> {
        match self {
            Value::Str(s) => Ok(s),
            _ => err(format!("{what}: expected a string")),
        }
    }
}

fn get<'a>(obj: &'a [(String, Value)], key: &str) -> Result<&'a Value, LedgerError> {
    obj.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| LedgerError(format!("missing key \"{key}\"")))
}

fn get_u64(obj: &[(String, Value)], key: &str) -> Result<u64, LedgerError> {
    get(obj, key)?.as_u64(key)
}

fn expect_tag(obj: &[(String, Value)], tag: &str) -> Result<(), LedgerError> {
    let found = get(obj, "ledger")?.as_str("ledger")?;
    if found != tag {
        return err(format!("expected ledger tag \"{tag}\", found \"{found}\""));
    }
    let version = get_u64(obj, "version")?;
    if version != LEDGER_VERSION {
        return err(format!(
            "unsupported ledger version {version} (this build reads {LEDGER_VERSION})"
        ));
    }
    Ok(())
}

fn ledger_from_value(v: &Value) -> Result<Ledger, LedgerError> {
    let obj = v.as_object("session ledger")?;
    expect_tag(obj, SESSION_TAG)?;
    let counters_obj = get(obj, "counters")?.as_object("counters")?;
    let gauges_obj = get(obj, "gauges")?.as_object("gauges")?;
    let timers_obj = get(obj, "timers")?.as_object("timers")?;
    let hists_obj = get(obj, "histograms")?.as_object("histograms")?;

    let counters = CounterId::ALL
        .iter()
        .map(|id| get_u64(counters_obj, id.name()))
        .collect::<Result<_, _>>()?;
    let gauges = GaugeId::ALL
        .iter()
        .map(|id| {
            let g = get(gauges_obj, id.name())?.as_object(id.name())?;
            Ok((get_u64(g, "value")?, get_u64(g, "peak")?))
        })
        .collect::<Result<_, _>>()?;
    let timers = TimerId::ALL
        .iter()
        .map(|id| {
            let t = get(timers_obj, id.name())?.as_object(id.name())?;
            Ok((get_u64(t, "ns")?, get_u64(t, "count")?))
        })
        .collect::<Result<_, _>>()?;
    let hists = HistId::ALL
        .iter()
        .map(|id| {
            let h = get(hists_obj, id.name())?.as_object(id.name())?;
            let buckets: Vec<u64> = get(h, "buckets")?
                .as_array("buckets")?
                .iter()
                .map(|b| b.as_u64("bucket"))
                .collect::<Result<_, _>>()?;
            if buckets.len() != HIST_BUCKETS {
                return err(format!(
                    "{}: expected {HIST_BUCKETS} buckets, found {}",
                    id.name(),
                    buckets.len()
                ));
            }
            Ok(HistSnapshot {
                sum: get_u64(h, "sum")?,
                buckets,
            })
        })
        .collect::<Result<_, _>>()?;

    Ok(Ledger {
        name: get(obj, "name")?.as_str("name")?.to_string(),
        counters,
        gauges,
        timers,
        hists,
    })
}

fn parse_value(text: &str) -> Result<Value, LedgerError> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let v = parse_at(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return err(format!("trailing data at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect_byte(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), LedgerError> {
    skip_ws(bytes, pos);
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        err(format!("expected '{}' at byte {pos}", b as char))
    }
}

fn parse_at(bytes: &[u8], pos: &mut usize) -> Result<Value, LedgerError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Object(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                expect_byte(bytes, pos, b':')?;
                let value = parse_at(bytes, pos)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Object(fields));
                    }
                    _ => return err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                items.push(parse_at(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Array(items));
                    }
                    _ => return err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => Ok(Value::Str(parse_string(bytes, pos)?)),
        Some(b'0'..=b'9') => {
            let start = *pos;
            while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
                *pos += 1;
            }
            let s = std::str::from_utf8(&bytes[start..*pos]).expect("digits are ascii");
            match s.parse::<u64>() {
                Ok(n) => Ok(Value::Num(n)),
                Err(_) => err(format!("integer out of range at byte {start}")),
            }
        }
        _ => err(format!("unexpected input at byte {pos}")),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, LedgerError> {
    if bytes.get(*pos) != Some(&b'"') {
        return err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return err("unterminated string"),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| LedgerError("truncated \\u escape".into()))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| LedgerError("invalid \\u escape".into()))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| LedgerError("invalid \\u escape".into()))?;
                        // The writer only escapes control characters this
                        // way, so bare BMP scalars are all we accept.
                        match char::from_u32(code) {
                            Some(c) => out.push(c),
                            None => return err("\\u escape is not a scalar value"),
                        }
                        *pos += 4;
                    }
                    _ => return err(format!("invalid escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the full UTF-8 sequence starting here.
                let s = std::str::from_utf8(&bytes[*pos..])
                    .map_err(|_| LedgerError("invalid utf-8 in string".into()))?;
                let c = s.chars().next().expect("non-empty by construction");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CounterId, GaugeId, Metrics, TimerId};
    use std::time::Duration;

    fn sample() -> Ledger {
        let m = Metrics::enabled();
        m.count(CounterId::IngestRecordsText, 1234);
        m.count(CounterId::ParseErrors, 2);
        m.gauge_add(GaugeId::LiveRecords, 77);
        m.gauge_sub(GaugeId::LiveRecords, 70);
        m.gauge_set(GaugeId::ArenaBytes, 4096);
        m.record_duration(TimerId::Ingest, Duration::from_micros(1500));
        m.observe(crate::HistId::IterationRecords, 9);
        Ledger::capture("traces/cg.trace", &m)
    }

    #[test]
    fn session_round_trip() {
        let l = sample();
        let json = l.to_json();
        let back = Ledger::from_json(&json).expect("parses");
        assert_eq!(l, back);
        assert_eq!(back.counter(CounterId::IngestRecordsText), 1234);
        assert_eq!(back.gauge(GaugeId::LiveRecords), (7, 77));
        assert_eq!(back.timer(TimerId::Ingest), (1_500_000, 1));
    }

    #[test]
    fn batch_round_trip() {
        let b = BatchLedger {
            jobs: 2,
            wall_ns: 5_000_000,
            batch: Ledger::empty("batch"),
            sessions: vec![sample(), Ledger::empty("quiet \"one\"\n")],
        };
        let json = b.to_json();
        let back = BatchLedger::from_json(&json).expect("parses");
        assert_eq!(b, back);
    }

    #[test]
    fn empty_sessions_batch_round_trips() {
        let b = BatchLedger {
            jobs: 0,
            wall_ns: 0,
            batch: Ledger::empty("batch"),
            sessions: vec![],
        };
        assert_eq!(BatchLedger::from_json(&b.to_json()).unwrap(), b);
    }

    #[test]
    fn schema_is_total_even_when_disabled() {
        let json = Ledger::empty("x").to_json();
        for id in CounterId::ALL {
            assert!(json.contains(id.name()), "missing {}", id.name());
        }
        for id in GaugeId::ALL {
            assert!(json.contains(id.name()), "missing {}", id.name());
        }
        for id in TimerId::ALL {
            assert!(json.contains(id.name()), "missing {}", id.name());
        }
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let json = sample().to_json().replace(
            &format!("\"version\": {LEDGER_VERSION}"),
            "\"version\": 999",
        );
        assert!(Ledger::from_json(&json).is_err());
    }

    #[test]
    fn tag_mismatch_is_rejected() {
        let json = sample().to_json().replace(SESSION_TAG, "something.else");
        assert!(Ledger::from_json(&json).is_err());
    }

    #[test]
    fn garbage_is_rejected_not_panicked() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"ledger\": }",
            "nope",
            "\"open",
            "{}trail",
        ] {
            assert!(Ledger::from_json(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn table_renders_nonzero_rows_only() {
        let t = sample().render_table();
        assert!(t.contains("ingest.records.text"));
        assert!(t.contains("intern.arena_bytes"));
        assert!(
            !t.contains("batch.queue_wait"),
            "zero timer should be elided"
        );
        let quiet = Ledger::empty("q").render_table();
        assert!(quiet.contains("no activity"));
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration_ns(12), "12ns");
        assert_eq!(fmt_duration_ns(1_500), "1.5µs");
        assert_eq!(fmt_duration_ns(2_500_000), "2.50ms");
        assert_eq!(fmt_duration_ns(3_210_000_000), "3.210s");
    }
}
