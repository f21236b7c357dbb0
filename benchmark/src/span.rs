//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! The program under test is not instrumented: a span exists only where
//! the benchmark itself calls a crate's public function. Spans stay in
//! memory until the traced run ends and are then written as JSON lines.
//! A layer's *self time* is its span's duration minus the part of that
//! interval its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call, with the span that caused it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index of this span in the tracer (record order = start order).
    pub id: u32,
    /// The enclosing span, if any.
    pub parent: Option<u32>,
    /// `<crate>.<module>.<call>`, the layer being timed.
    pub name: &'static str,
    /// Which replay of the workload body the span belongs to.
    pub pass: u32,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall-clock of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one thread. A tracer made with
/// [`Tracer::noop`] runs the same closures without recording anything,
/// which is how the traced run measures what recording costs.
#[derive(Debug)]
pub struct Tracer {
    recording: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    closed: Option<u32>,
    pass: u32,
}

impl Tracer {
    /// A tracer that keeps every span.
    pub fn recording() -> Self {
        Self {
            recording: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            closed: None,
            pass: 0,
        }
    }

    /// A tracer whose [`span`](Self::span) only calls the closure.
    pub fn noop() -> Self {
        Self {
            recording: false,
            ..Self::recording()
        }
    }

    /// Label the spans that follow with a replay number.
    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    /// Time `f` as a child of the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.recording {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied();
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            name,
            pass: self.pass,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.closed = Some(id);
        self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    /// Rename the span that closed last: for a call whose layer is only
    /// known from its result.
    pub fn rename_last(&mut self, name: &'static str) {
        if let Some(id) = self.closed {
            self.spans[id as usize].name = name;
        }
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span, indexed like `spans`: duration minus the
/// union of its direct children's intervals (clipped to the span, so a
/// child that overlaps a sibling or overruns its parent is not counted
/// twice).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Total duration, per pass, of the spans called `name` (milliseconds).
pub fn total_ms_per_pass(spans: &[Span], name: &str) -> Vec<f64> {
    sum_per_pass(spans, name, Span::duration_ns)
}

/// Self time, per pass, of the spans called `name` (milliseconds).
pub fn self_ms_per_pass(spans: &[Span], name: &str) -> Vec<f64> {
    let selfs = self_times(spans);
    sum_per_pass(spans, name, |s| selfs[s.id as usize])
}

fn sum_per_pass(spans: &[Span], name: &str, ns: impl Fn(&Span) -> u64) -> Vec<f64> {
    let mut by_pass: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        *by_pass.entry(s.pass).or_default() += ns(s);
    }
    by_pass.values().map(|&v| v as f64 / 1e6).collect()
}

/// Durations of the spans called `name`, in microseconds.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect()
}

/// The self/total tree: spans grouped by their path of names from the
/// root, with call count, total and self time summed over all passes.
pub fn render_tree(spans: &[Span]) -> String {
    struct Node {
        name: &'static str,
        depth: usize,
        children: Vec<usize>,
        calls: u64,
        total_ns: u64,
        self_ns: u64,
    }
    let selfs = self_times(spans);
    let mut nodes: Vec<Node> = Vec::new();
    let mut roots: Vec<usize> = Vec::new();
    let mut by_path: BTreeMap<(Option<usize>, &'static str), usize> = BTreeMap::new();
    // Spans arrive in start order, so a parent's node is always known first.
    let mut node_of: Vec<usize> = Vec::with_capacity(spans.len());
    for s in spans {
        let parent = s.parent.map(|p| node_of[p as usize]);
        let idx = *by_path.entry((parent, s.name)).or_insert_with(|| {
            let depth = parent.map_or(0, |p| nodes[p].depth + 1);
            nodes.push(Node {
                name: s.name,
                depth,
                children: Vec::new(),
                calls: 0,
                total_ns: 0,
                self_ns: 0,
            });
            let idx = nodes.len() - 1;
            match parent {
                Some(p) => nodes[p].children.push(idx),
                None => roots.push(idx),
            }
            idx
        });
        nodes[idx].calls += 1;
        nodes[idx].total_ns += s.duration_ns();
        nodes[idx].self_ns += selfs[s.id as usize];
        node_of.push(idx);
    }
    let mut out = format!(
        "{:<58} {:>8} {:>12} {:>12}\n",
        "span", "calls", "total ms", "self ms"
    );
    let mut stack: Vec<usize> = roots.into_iter().rev().collect();
    while let Some(idx) = stack.pop() {
        let n = &nodes[idx];
        out.push_str(&format!(
            "{:<58} {:>8} {:>12.3} {:>12.3}\n",
            format!("{}{}", "  ".repeat(n.depth), n.name),
            n.calls,
            n.total_ns as f64 / 1e6,
            n.self_ns as f64 / 1e6,
        ));
        stack.extend(n.children.iter().rev());
    }
    out
}

/// Write the spans as JSON lines
/// `{id, parent, name, workload, pass, start_ns, end_ns}`.
///
/// # Errors
/// Fails when the file cannot be written.
pub fn write_jsonl(path: &Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"workload\":\"{workload}\",\"pass\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.name, s.pass, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            pass: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once_per_level() {
        // root 0..100 > a 10..60 > b 20..30; root also > c 70..90.
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 60),
            span(2, Some(1), 20, 30),
            span(3, Some(0), 70, 90),
        ];
        // The grandchild is inside `a`, so the root loses only a and c.
        assert_eq!(self_times(&spans), vec![30, 40, 10, 20]);
    }

    #[test]
    fn self_time_counts_overlapping_children_as_their_union() {
        // Children 10..50 and 30..70 overlap by 20; 60..65 is inside the
        // second; 90..120 overruns the parent and is clipped to 90..100.
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 50),
            span(2, Some(0), 30, 70),
            span(3, Some(0), 60, 65),
            span(4, Some(0), 90, 120),
        ];
        assert_eq!(self_times(&spans)[0], 100 - (60 + 10));
    }

    #[test]
    fn tracer_nests_and_noop_records_nothing() {
        let mut t = Tracer::recording();
        t.set_pass(3);
        let v = t.span("outer", |t| t.span("inner", |_| 7) + 1);
        assert_eq!(v, 8);
        let s = t.spans();
        assert_eq!((s[0].name, s[0].parent, s[0].pass), ("outer", None, 3));
        assert_eq!((s[1].name, s[1].parent), ("inner", Some(0)));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);

        t.rename_last("renamed");
        assert_eq!(t.spans()[0].name, "renamed");

        let mut n = Tracer::noop();
        assert_eq!(n.span("outer", |t| t.span("inner", |_| 7)), 7);
        n.rename_last("renamed");
        assert!(n.spans().is_empty());
    }

    #[test]
    fn tree_groups_by_path_and_per_pass_sums_by_name() {
        let mut spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(0), 50, 70),
        ];
        spans[1].name = "child";
        spans[2].name = "child";
        spans[2].pass = 1;
        let tree = render_tree(&spans);
        assert!(tree.contains("  child"), "{tree}");
        assert!(
            tree.lines()
                .any(|l| l.trim_start().starts_with("child") && l.contains(" 2 ")),
            "{tree}"
        );
        assert_eq!(
            total_ms_per_pass(&spans, "child"),
            vec![30.0 / 1e6, 20.0 / 1e6]
        );
        assert_eq!(self_ms_per_pass(&spans, "t"), vec![50.0 / 1e6]);
    }
}
