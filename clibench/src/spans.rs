//! Spans around each layer call of the traced run, kept in memory and
//! written at exit as Chrome Trace Event JSON (opens in Perfetto).

use crate::json::Obj;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

#[derive(Clone, Debug)]
struct Span {
    name: String,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    run: u32,
}

/// Spans of one workload's traced run.
pub struct Spans {
    t0: Instant,
    workload: String,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u32,
}

impl Spans {
    pub fn new(workload: &str) -> Spans {
        Spans {
            t0: Instant::now(),
            workload: workload.to_string(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }

    /// Number later spans with `run` (one pass over the workload).
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    /// Open a span; its parent is the innermost open span.
    pub fn open(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        let start = self.t0.elapsed();
        self.spans.push(Span {
            name: name.to_string(),
            start,
            end: start,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(id);
        id
    }

    /// Close span `id` (the innermost open one) and return its length in
    /// seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let s = &mut self.spans[id];
        s.end = self.t0.elapsed();
        (s.end - s.start).as_secs_f64()
    }

    /// Time `f` as a span named `name`; returns its result and seconds.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.open(name);
        let out = f();
        (out, self.close(id))
    }

    /// Self time per span name in seconds, summed over every span of that
    /// name: each span's length minus what its children cover.
    pub fn self_times(&self) -> BTreeMap<String, f64> {
        let mut child = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            *out.entry(s.name.clone()).or_insert(0.0) += (s.end - s.start - c).as_secs_f64();
        }
        out
    }

    /// Chrome Trace Event JSON: one complete (`X`) event per span, times in
    /// microseconds, the parent, workload and run in `args`.
    pub fn to_chrome_json(&self, meta: Obj) -> String {
        let us = |d: Duration| d.as_nanos() as f64 / 1000.0;
        let events = self.spans.iter().enumerate().map(|(id, s)| {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            Obj::new()
                .str("name", &s.name)
                .str("cat", s.name.split('.').next().unwrap_or("span"))
                .str("ph", "X")
                .num("ts", us(s.start))
                .num("dur", us(s.end - s.start))
                .num("pid", 1.0)
                .num("tid", 1.0)
                .obj(
                    "args",
                    Obj::new()
                        .num("id", id as f64)
                        .raw("parent", parent)
                        .str("workload", &self.workload)
                        .num("run", f64::from(s.run)),
                )
                .render()
        });
        Obj::new()
            .arr("traceEvents", events)
            .str("displayTimeUnit", "ms")
            .obj("otherData", meta)
            .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut s = Spans::new("w");
        let outer = s.open("outer");
        let ((), inner) = s.time("inner", || std::thread::sleep(Duration::from_millis(20)));
        let total = s.close(outer);
        let own = s.self_times();
        assert!(inner >= 0.02);
        assert!((own["outer"] - (total - inner)).abs() < 1e-6);
        assert!((own["inner"] - inner).abs() < 1e-6);
        let json = s.to_chrome_json(Obj::new());
        assert!(json.starts_with(r#"{"traceEvents":[{"name":"outer""#));
        assert!(json.contains(r#""parent":0,"workload":"w""#));
    }
}
