//! In-memory spans for the traced run.
//!
//! Each thread records into its own [`Tracer`]; a span has a name, the id
//! of the epoch or request it belongs to, its parent and its interval.
//! Spans are merged and written out once the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// The epoch or request id shared by every span of one operation.
    pub id: u64,
    /// Index of the parent span in the same span list.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span recorder. Spans opened while another is open become
/// its children.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    /// Whether spans are recorded at all; an off tracer just runs the code.
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder whose timestamps count from `origin`, shared by every
    /// thread of a run so their spans line up.
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            on: true,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder that records nothing: the untraced run.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            ..Tracer::new(Instant::now())
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` for operation `id`, a child of the
    /// innermost open span; [`Tracer::exit`] closes it.
    pub fn enter(&mut self, name: &'static str, id: u64) {
        if self.on {
            self.open.push(self.spans.len());
            self.spans.push(Span {
                name,
                id,
                parent: self.open.iter().rev().nth(1).copied(),
                start_ns: self.now_ns(),
                end_ns: 0,
            });
        }
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if let Some(idx) = self.open.pop() {
            self.spans[idx].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span named `name` for operation `id`.
    pub fn span<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.enter(name, id);
        let out = f(self);
        self.exit();
        out
    }

    /// Renames the most recently closed span, e.g. once a cache lookup is
    /// known to have hit or missed.
    pub fn rename_last(&mut self, name: &'static str) {
        if let Some(s) = self.spans.last_mut() {
            s.name = name;
        }
    }

    /// Merges per-thread recorders into one list, re-basing parent indices.
    pub fn merge(tracers: Vec<Tracer>) -> Vec<Span> {
        let mut all = Vec::new();
        for t in tracers {
            let base = all.len();
            all.extend(t.spans.into_iter().map(|mut s| {
                s.parent = s.parent.map(|p| p + base);
                s
            }));
        }
        all
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its direct children cover. Overlapping children are counted once;
/// the parts of a child outside its parent are not counted.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Durations in nanoseconds of every span named `name`.
pub fn durations_ns(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64)
        .collect()
}

/// Per span name: (count, total duration, total self time), in ns.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, (usize, u64, u64)> {
    let mut out: BTreeMap<&'static str, (usize, u64, u64)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.duration_ns();
        e.2 += self_ns;
    }
    out
}

/// Writes the spans as tab-separated rows.
pub fn write_tsv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "index\tname\tid\tparent\tstart_ns\tend_ns\tself_ns")?;
    for (i, (s, self_ns)) in spans.iter().zip(self_times(spans)).enumerate() {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{i}\t{}\t{}\t{parent}\t{}\t{}\t{self_ns}",
            s.name, s.id, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "s",
            id: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 30),
            span(Some(0), 50, 60),
        ];
        assert_eq!(self_times(&spans), vec![70, 20, 10]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Children from two threads overlap on 20..30 and 25..28 nests.
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 30),
            span(Some(0), 20, 40),
            span(Some(0), 25, 28),
        ];
        assert_eq!(self_times(&spans)[0], 70);
    }

    #[test]
    fn nested_grandchildren_count_against_their_own_parent_only() {
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 60),
            span(Some(1), 20, 30),
            span(Some(2), 22, 24),
        ];
        assert_eq!(self_times(&spans), vec![50, 40, 8, 2]);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = [
            span(None, 10, 50),
            span(Some(0), 0, 20),
            span(Some(0), 40, 90),
        ];
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn tracer_nests_spans_and_merge_rebases_parents() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin);
        a.span("outer", 1, |t| t.span("inner", 1, |_| ()));
        let mut b = Tracer::new(origin);
        b.span("outer", 2, |t| t.span("inner", 2, |_| ()));
        let spans = Tracer::merge(vec![a, b]);
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!(spans[3].id, 2);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        let t = totals(&spans);
        assert_eq!(t["outer"].0, 2);
        assert!(t["outer"].1 >= t["inner"].1);
    }
}
