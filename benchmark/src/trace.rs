//! An in-memory span recorder around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end, the span that was open when it
//! began, and the id of the cell (one closed-loop operation) it belongs to.
//! Spans stay in memory and are written out as Chrome trace JSON when the
//! run ends. A layer's self time is its span's duration minus the part of
//! it that child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub cell: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span begun and not yet ended.
#[must_use = "an open span must be ended"]
pub struct Open {
    idx: Option<usize>,
    start: Instant,
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Opens a span; the spans begun before it is ended become its
    /// children. Pair with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, cell: u64) -> Open {
        let idx = self.on.then(|| {
            self.spans.push(Span {
                name,
                cell,
                parent: self.open.last().copied(),
                start_ns: 0,
                end_ns: 0,
            });
            let i = self.spans.len() - 1;
            self.open.push(i);
            i
        });
        Open {
            idx,
            start: Instant::now(),
        }
    }

    /// Closes the innermost open span and returns its duration.
    pub fn end(&mut self, open: Open) -> Duration {
        let end = Instant::now();
        if let Some(i) = open.idx {
            debug_assert_eq!(self.open.last(), Some(&i), "spans close innermost first");
            self.open.pop();
            let ns = |t: Instant| t.duration_since(self.origin).as_nanos() as u64;
            self.spans[i].start_ns = ns(open.start);
            self.spans[i].end_ns = ns(end);
        }
        end - open.start
    }

    /// Runs `f` inside a span and returns its result and duration.
    ///
    /// The duration is measured whether or not tracing is on, so untraced
    /// runs take their timings from the very same calls; the span itself
    /// is recorded only when tracing is on.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        cell: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, Duration) {
        let open = self.begin(name, cell);
        let out = f(self);
        (out, self.end(open))
    }

    /// Whether span `i` lies inside a span named `root` (or is one).
    pub fn within(&self, mut i: usize, root: &str) -> bool {
        loop {
            if self.spans[i].name == root {
                return true;
            }
            match self.spans[i].parent {
                Some(p) => i = p,
                None => return false,
            }
        }
    }

    /// Self time of every span, in recording order.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(s, kids)| {
                let mut iv: Vec<(u64, u64)> = kids
                    .iter()
                    .map(|&k| {
                        let c = &self.spans[k];
                        (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                    })
                    .filter(|(a, b)| a < b)
                    .collect();
                iv.sort_unstable();
                let mut covered = 0;
                let mut reach = s.start_ns;
                for (a, b) in iv {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.dur_ns() - covered
            })
            .collect()
    }

    /// Self time summed per span name, over the spans inside spans named
    /// `root`.
    pub fn self_ns_by_name(&self, root: &str) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (i, own) in self.self_ns().into_iter().enumerate() {
            if self.within(i, root) {
                *out.entry(self.spans[i].name).or_insert(0) += own;
            }
        }
        out
    }

    /// Total duration of the spans named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .sum()
    }

    /// The spans as Chrome trace-event JSON (complete events, µs).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"cat\":\"benchmark\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i},\"parent\":{parent},\"cell\":{}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.cell,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Measured cost of recording one empty span, for the overhead figure.
pub fn span_cost() -> Duration {
    const N: u32 = 20_000;
    let mut t = Tracer::new(true);
    let start = Instant::now();
    for i in 0..N {
        t.span("calibrate", u64::from(i), |_| ());
    }
    start.elapsed() / N
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(n: u64) -> u64 {
        (0..n).fold(0u64, |a, x| std::hint::black_box(a.wrapping_add(x * x)))
    }

    #[test]
    fn children_nest_and_self_times_sum_to_the_root() {
        let mut t = Tracer::new(true);
        for cell in 0..3 {
            t.span("pass", cell, |t| {
                busy(1_000);
                t.span("engine.new", cell, |_| busy(5_000));
                t.span("engine.run", cell, |t| {
                    t.span("inner", cell, |_| busy(3_000));
                    busy(2_000);
                });
                busy(1_000);
            });
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 12);
        for s in spans {
            assert!(s.start_ns <= s.end_ns);
            if let Some(p) = s.parent {
                let p = &spans[p];
                assert!(
                    p.start_ns <= s.start_ns && s.end_ns <= p.end_ns,
                    "{s:?} escapes {p:?}"
                );
                assert_eq!(p.cell, s.cell, "spans of one cell share its id");
            }
        }
        let own = t.self_ns();
        let roots: Vec<usize> = (0..spans.len())
            .filter(|&i| spans[i].parent.is_none())
            .collect();
        assert_eq!(roots.len(), 3);
        for &r in &roots {
            let in_tree = |mut i: usize| loop {
                if i == r {
                    return true;
                }
                match spans[i].parent {
                    Some(p) => i = p,
                    None => return false,
                }
            };
            let sum: u64 = (0..spans.len())
                .filter(|&i| in_tree(i))
                .map(|i| own[i])
                .sum();
            assert_eq!(sum, spans[r].dur_ns());
        }
        let by_name = t.self_ns_by_name("pass");
        assert_eq!(by_name.values().sum::<u64>(), t.total_ns("pass"));
        assert!(!t.self_ns_by_name("engine.run").contains_key("engine.new"));
    }

    #[test]
    fn untraced_spans_time_but_do_not_record() {
        let mut t = Tracer::new(false);
        let (v, d) = t.span("x", 0, |_| busy(10_000));
        assert_eq!(v, busy(10_000));
        assert!(d > Duration::ZERO);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn chrome_export_lists_every_span() {
        let mut t = Tracer::new(true);
        t.span("a", 7, |t| t.span("b", 7, |_| ()));
        let json = t.chrome_json();
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"name\":\"b\""));
        assert!(json.contains("\"parent\":0,\"cell\":7"));
        crate::json::parse(&json).expect("the trace is valid JSON");
    }
}
