//! In-memory spans recorded by the benchmark around each call it makes
//! into a layer. Spans are kept in memory and written out once, as
//! Chrome trace-event JSON, when the traced run ends.

use std::time::Instant;

/// One timed call: a name, start and end on the log's clock, the span
/// that caused it and the connection (or probe batch) it belongs to.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub conn: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An append-only span log; one per recording thread.
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(epoch: Instant) -> Self {
        SpanLog {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Self::end`]. Returns its id.
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, conn: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            conn,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        conn: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, conn);
        let out = f();
        self.end(id);
        out
    }

    /// Record an already-measured interval.
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Move another thread's spans in, re-basing their parent ids.
    pub fn absorb(&mut self, other: SpanLog) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Self time (ns) of every span called `name`: its duration minus
    /// the part of it that its direct children cover. Children of one
    /// span never overlap each other here (each log is one thread), but
    /// the union is taken anyway so the rule holds for any log.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| {
                let kids = &mut children[i];
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(cursor), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
                (s.dur_ns() - covered) as f64
            })
            .collect()
    }

    /// Per-parent sums (ns) of the durations of `child` spans whose
    /// parent is called `parent`, one entry per parent span.
    pub fn child_sums(&self, parent: &str, child: &str) -> Vec<f64> {
        let mut sums: Vec<Option<u64>> = self
            .spans
            .iter()
            .map(|s| (s.name == parent).then_some(0))
            .collect();
        for s in &self.spans {
            if s.name != child {
                continue;
            }
            if let Some(Some(sum)) = s.parent.map(|p| &mut sums[p]) {
                *sum += s.dur_ns();
            }
        }
        sums.into_iter().flatten().map(|v| v as f64).collect()
    }

    /// Chrome trace-event JSON (loadable in Perfetto): one complete
    /// event per span, the connection id as the thread lane.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                s.name,
                s.conn,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            conn: 1,
        }
    }

    #[test]
    fn self_time_subtracts_covered_children() {
        let mut log = SpanLog::new(Instant::now());
        let root = log.push(span("conn", 0, 100, None));
        log.push(span("tls", 10, 30, Some(root)));
        log.push(span("tls", 25, 40, Some(root)));
        log.push(span("tls", 90, 120, Some(root)));
        assert_eq!(log.self_times("conn"), vec![100.0 - 30.0 - 10.0]);
        assert_eq!(log.child_sums("conn", "tls"), vec![20.0 + 15.0 + 30.0]);
    }

    #[test]
    fn absorb_rebases_parents() {
        let mut a = SpanLog::new(Instant::now());
        a.push(span("x", 0, 1, None));
        let mut b = SpanLog::new(Instant::now());
        let r = b.push(span("conn", 0, 10, None));
        b.push(span("tls", 2, 4, Some(r)));
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.self_times("conn"), vec![8.0]);
    }
}
