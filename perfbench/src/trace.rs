//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only by the benchmark, around its own calls into
//! each layer's public API. Each span carries its name, start, end,
//! parent span and item id; all spans of one item share that id, and
//! the item's root span is named [`ITEM`]. Counts (attempts,
//! rejections, cache hits, ...) are recorded at the same boundaries.
//! Nothing is written until the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Name of every item's root span.
pub const ITEM: &str = "item";

const NO_PARENT: u32 = u32::MAX;

/// One recorded interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, such as `hde.install`.
    pub name: &'static str,
    /// The item this span belongs to.
    pub item: u64,
    /// Index of the enclosing span in [`Tracer::spans`], if any.
    pub parent: Option<u32>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Length of the interval in nanoseconds.
    pub fn len_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle to an open span; inert when tracing is off.
#[derive(Clone, Copy, Debug)]
pub struct SpanId(u32);

/// Span and count recorder. While switched off every call is a no-op,
/// so the untraced path runs the same code without recording.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    base: Instant,
    spans: Vec<Span>,
    counts: BTreeMap<&'static str, u64>,
}

impl Tracer {
    /// A recorder, initially off.
    pub fn new() -> Self {
        Tracer {
            on: false,
            base: Instant::now(),
            spans: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Switch recording on or off.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Whether spans and counts are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.base).as_nanos() as u64
    }

    /// Open a span starting at `start`.
    pub fn open_at(
        &mut self,
        name: &'static str,
        item: u64,
        parent: Option<SpanId>,
        start: Instant,
    ) -> SpanId {
        if !self.on {
            return SpanId(NO_PARENT);
        }
        let start_ns = self.ns(start);
        self.push(Span {
            name,
            item,
            parent: parent.map(|p| p.0).filter(|&p| p != NO_PARENT),
            start_ns,
            end_ns: start_ns,
        })
    }

    /// Open a span starting now.
    pub fn open(&mut self, name: &'static str, item: u64, parent: Option<SpanId>) -> SpanId {
        if !self.on {
            return SpanId(NO_PARENT);
        }
        self.open_at(name, item, parent, Instant::now())
    }

    /// Close `id` at `end`.
    pub fn close_at(&mut self, id: SpanId, end: Instant) {
        if self.on && id.0 != NO_PARENT {
            let end_ns = self.ns(end);
            self.spans[id.0 as usize].end_ns = end_ns;
        }
    }

    /// Close `id` now.
    pub fn close(&mut self, id: SpanId) {
        if self.on && id.0 != NO_PARENT {
            self.close_at(id, Instant::now());
        }
    }

    /// Record a span whose bounds were measured elsewhere (for
    /// example by a worker thread's timestamps).
    pub fn record(
        &mut self,
        name: &'static str,
        item: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let id = self.open_at(name, item, parent, start);
        self.close_at(id, end);
        id
    }

    /// Add `n` to the counter `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.on {
            *self.counts.entry(name).or_insert(0) += n;
        }
    }

    fn push(&mut self, span: Span) -> SpanId {
        let id = self.spans.len() as u32;
        self.spans.push(span);
        SpanId(id)
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> impl Iterator<Item = &Span> + '_ {
        self.spans.iter()
    }

    /// Value of counter `name` (0 if never counted).
    pub fn counter(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Summed length of all spans named `name`.
    pub fn total(&self, name: &str) -> Duration {
        Duration::from_nanos(
            self.spans()
                .filter(|s| s.name == name)
                .map(Span::len_ns)
                .sum(),
        )
    }

    /// Number of spans named `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.spans().filter(|s| s.name == name).count() as u64
    }

    /// Number of traced items (root spans).
    pub fn items(&self) -> u64 {
        self.calls(ITEM)
    }

    /// Self time of all spans named `name`: each span's length minus
    /// the part of it that its direct children cover.
    pub fn self_time(&self, name: &str) -> Duration {
        let children = self.children();
        let total: u64 = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| s.len_ns() - covered_ns(s, &children[i]))
            .sum();
        Duration::from_nanos(total)
    }

    /// Share of item time, in percent, that no span inside the item
    /// covers.
    pub fn unattributed_pct(&self) -> f64 {
        let children = self.children();
        let (mut item_ns, mut bare_ns) = (0u64, 0u64);
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == ITEM {
                item_ns += s.len_ns();
                bare_ns += s.len_ns() - covered_ns(s, &children[i]);
            }
        }
        100.0 * bare_ns as f64 / item_ns.max(1) as f64
    }

    /// Direct children of every span, as intervals.
    fn children(&self) -> Vec<Vec<(u64, u64)>> {
        let mut children = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p as usize].push((s.start_ns, s.end_ns));
            }
        }
        children
    }

    /// Check that every child lies inside its parent and shares its
    /// item id.
    pub fn check_nesting(&self) -> Result<(), String> {
        for s in &self.spans {
            if s.end_ns < s.start_ns {
                return Err(format!("span {} ends before it starts", s.name));
            }
            let Some(p) = s.parent else { continue };
            let parent = &self.spans[p as usize];
            if parent.item != s.item {
                return Err(format!(
                    "span {} of item {} sits under {} of item {}",
                    s.name, s.item, parent.name, parent.item
                ));
            }
            if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                return Err(format!(
                    "span {} [{}, {}] lies outside its parent {} [{}, {}]",
                    s.name, s.start_ns, s.end_ns, parent.name, parent.start_ns, parent.end_ns
                ));
            }
        }
        Ok(())
    }

    /// Write at most `max_spans` spans as tab-separated lines (`id`,
    /// `parent`, `item`, `name`, `start_ns`, `end_ns`), replacing
    /// `path`.
    pub fn write_tsv(&self, path: &Path, max_spans: usize) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\titem\tname\tstart_ns\tend_ns")?;
        for (id, s) in self.spans().take(max_spans).enumerate() {
            let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}",
                s.item, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

/// Nanoseconds of `span` covered by the union of `children`.
fn covered_ns(span: &Span, children: &[(u64, u64)]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|&(a, b)| (a.max(span.start_ns), b.min(span.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let (mut covered, mut reach) = (0u64, 0u64);
    for (a, b) in iv {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::new();
        let id = t.open(ITEM, 0, None);
        t.count("x", 3);
        t.close(id);
        assert_eq!(t.spans().count(), 0);
        assert_eq!(t.counter("x"), 0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new();
        t.set_on(true);
        let b = t.base;
        let at = |ns| b + Duration::from_nanos(ns);
        let root = t.record(ITEM, 7, None, at(0), at(100));
        let d = t.record("delivery.deliver", 7, Some(root), at(10), at(90));
        t.record("hde.apply_delta", 7, Some(d), at(20), at(40));
        t.record("hde.apply_delta", 7, Some(d), at(30), at(60));
        assert_eq!(
            t.self_time("delivery.deliver"),
            Duration::from_nanos(80 - 40)
        );
        assert!((t.unattributed_pct() - 20.0).abs() < 1e-9);
        t.check_nesting().unwrap();
        t.record("hde.install", 8, Some(root), at(5), at(6));
        assert!(t.check_nesting().is_err(), "item ids must agree");
    }
}
