//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its name, start, end, the span that caused it and the
//! window or epoch it belongs to. Spans stay in memory while the replay runs
//! and are written out once at the end. A layer's self time is its span's
//! duration minus the part its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    /// Window sequence number or writer epoch index the span serves.
    id: u64,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// Per-layer totals over every span of one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    pub calls: u64,
    /// Sum of the spans' durations.
    pub total_ns: u64,
    /// Sum of the spans' durations minus the time their children cover.
    pub self_ns: u64,
}

/// A span recorder. A disabled tracer records nothing, so the same replay
/// code runs traced and untraced.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span; pass it back to [`Tracer::exit`].
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str, id: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        Open(Some(index))
    }

    /// Closes `span`, which must be the innermost open span.
    pub fn exit(&mut self, span: Open) {
        let Some(index) = span.0 else { return };
        let end_ns = self.now_ns();
        let innermost = self.open.pop();
        assert_eq!(innermost, Some(index), "spans close innermost first");
        self.spans[index].end_ns = end_ns;
    }

    /// Runs `f` inside a span of its own.
    pub fn span<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name, id);
        let result = f();
        self.exit(open);
        result
    }

    /// Calls, total and self time per span name.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0_u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut layers: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let duration = span.end_ns - span.start_ns;
            let layer = layers.entry(span.name).or_default();
            layer.calls += 1;
            layer.total_ns += duration;
            layer.self_ns += duration.saturating_sub(children);
        }
        layers
    }

    /// Writes every span as one tab-separated line:
    /// `index name id start_ns end_ns parent` (`-` for a root span).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index\tname\tid\tstart_ns\tend_ns\tparent")?;
        for (index, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "-".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{index}\t{}\t{}\t{}\t{}\t{parent}",
                span.name, span.id, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}
