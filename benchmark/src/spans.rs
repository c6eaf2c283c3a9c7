//! The driver's own in-memory spans: one around every call it makes into a
//! layer during the traced passes. Spans inside the program are `hpac-obs`'
//! business; these are recorded from outside, kept in memory, and written
//! out as a Chrome trace when the run ends.

use hpac_tuner::json::Json;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    pub name: &'static str,
    /// The layer the spanned call enters (`harness`, `service`, ...).
    pub layer: &'static str,
    /// Application the call works on; empty when it is not app-specific.
    pub app: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Operation id: spans of one op (config, request) share it.
    pub op: u64,
    pub thread: u32,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// `(pass, app, span name)`: what the attribution table groups by.
pub type SpanKey = (&'static str, &'static str, &'static str);

/// A single thread's span recorder. Client threads record into their own
/// [`SpanLog::child`] and the owner [`SpanLog::absorb`]s them after the join.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    thread: u32,
    pub spans: Vec<SpanRec>,
    open: Vec<usize>,
}

impl Default for SpanLog {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog {
            epoch: Instant::now(),
            thread: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// An empty log on the same clock, for another thread.
    pub fn child(&self, thread: u32) -> SpanLog {
        SpanLog {
            epoch: self.epoch,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one; returns its index.
    pub fn enter(
        &mut self,
        name: &'static str,
        layer: &'static str,
        app: &'static str,
        op: u64,
    ) -> usize {
        let id = self.spans.len();
        let now = self.now();
        self.spans.push(SpanRec {
            name,
            layer,
            app,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            op,
            thread: self.thread,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost-first");
        self.spans[id].end_ns = self.now();
    }

    /// Fold a finished child log in; its root spans become children of
    /// `parent`.
    pub fn absorb(&mut self, child: SpanLog, parent: usize) {
        assert!(child.open.is_empty(), "absorbed log has open spans");
        let base = self.spans.len();
        self.spans.extend(child.spans.into_iter().map(|mut s| {
            s.parent = Some(s.parent.map_or(parent, |p| p + base));
            s
        }));
    }

    /// Per span: its duration minus the part of its interval that its child
    /// spans cover. Overlapping children (client threads under one round)
    /// are counted once.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                kids[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(&mut kids)
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for &(lo, hi) in kids.iter() {
                    let lo = lo.max(reach);
                    let hi = hi.min(s.end_ns);
                    if hi > lo {
                        covered += hi - lo;
                        reach = hi;
                    }
                }
                s.dur_ns().saturating_sub(covered)
            })
            .collect()
    }

    /// Self time summed by `(pass, app, name)`, in first-seen order, where
    /// the pass is the name of the span's outermost ancestor.
    pub fn self_ns_by_pass_app_name(&self) -> Vec<(SpanKey, u64)> {
        let mut out: Vec<(SpanKey, u64)> = Vec::new();
        for (i, (s, ns)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let mut root = i;
            while let Some(p) = self.spans[root].parent {
                root = p;
            }
            let key = (self.spans[root].name, s.app, s.name);
            match out.iter_mut().find(|(k, _)| *k == key) {
                Some((_, total)) => *total += ns,
                None => out.push((key, ns)),
            }
        }
        out
    }

    /// The log as a Chrome trace (`chrome://tracing`, Perfetto): one
    /// complete (`"ph":"X"`) event per span, microsecond timestamps.
    pub fn chrome_trace(&self) -> String {
        let events = self
            .spans
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("name".into(), Json::str(s.name)),
                    ("cat".into(), Json::str(s.layer)),
                    ("ph".into(), Json::str("X")),
                    ("ts".into(), Json::num(s.start_ns as f64 / 1e3)),
                    ("dur".into(), Json::num(s.dur_ns() as f64 / 1e3)),
                    ("pid".into(), Json::num(1.0)),
                    ("tid".into(), Json::num(f64::from(s.thread))),
                    (
                        "args".into(),
                        Json::Obj(vec![
                            ("app".into(), Json::str(s.app)),
                            ("op".into(), Json::num(s.op as f64)),
                            (
                                "parent".into(),
                                s.parent.map_or(Json::Null, |p| Json::num(p as f64)),
                            ),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![("traceEvents".into(), Json::Arr(events))]).render()
    }
}

/// Run `f` inside a leaf span when a log is present; just run it otherwise.
/// Timed rounds pass `None`, so they pay nothing for the tracing they do not
/// do.
pub fn spanned<R>(
    log: Option<&mut SpanLog>,
    name: &'static str,
    layer: &'static str,
    app: &'static str,
    op: u64,
    f: impl FnOnce() -> R,
) -> R {
    match log {
        None => f(),
        Some(log) => {
            let id = log.enter(name, layer, app, op);
            let r = f();
            log.exit(id);
            r
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(start: u64, end: u64, parent: Option<usize>) -> SpanRec {
        SpanRec {
            name: "s",
            layer: "l",
            app: "",
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
            thread: 0,
        }
    }

    fn log_of(spans: Vec<SpanRec>) -> SpanLog {
        SpanLog {
            spans,
            ..SpanLog::new()
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // root [0,100] > a [10,40] > a1 [20,30]; root > b [50,70].
        let log = log_of(vec![
            rec(0, 100, None),
            rec(10, 40, Some(0)),
            rec(20, 30, Some(1)),
            rec(50, 70, Some(0)),
        ]);
        assert_eq!(log.self_ns(), vec![50, 20, 10, 20]);
    }

    #[test]
    fn overlapping_siblings_are_covered_once() {
        // Two client threads under one round: [10,60] and [30,90].
        let log = log_of(vec![
            rec(0, 100, None),
            rec(10, 60, Some(0)),
            rec(30, 90, Some(0)),
        ]);
        assert_eq!(log.self_ns()[0], 20);
    }

    #[test]
    fn enter_exit_nest_and_absorb_reparents() {
        let mut log = SpanLog::new();
        let round = log.enter("round", "bench", "", 0);
        let mut client = log.child(1);
        let c = client.enter("client", "bench", "", 0);
        spanned(Some(&mut client), "submit", "service", "kmeans", 7, || ());
        client.exit(c);
        log.absorb(client, round);
        log.exit(round);
        assert_eq!(log.spans.len(), 3);
        assert_eq!(log.spans[1].parent, Some(round));
        assert_eq!(log.spans[2].parent, Some(1));
        assert_eq!((log.spans[2].thread, log.spans[2].op), (1, 7));
        assert!(log.spans[0].end_ns >= log.spans[2].end_ns);
        let by = log.self_ns_by_pass_app_name();
        assert!(by.iter().any(|(k, _)| *k == ("round", "kmeans", "submit")));
    }

    #[test]
    fn chrome_trace_parses_back() {
        let mut log = SpanLog::new();
        spanned(Some(&mut log), "plan", "harness", "lulesh", 3, || ());
        let parsed = Json::parse(&log.chrome_trace()).expect("valid JSON");
        let events = parsed.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(events[0].get("cat").and_then(Json::as_str), Some("harness"));
    }
}
