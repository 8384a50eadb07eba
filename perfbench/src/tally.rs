//! Per-cell samples and failure counts of one timed pass.

use std::collections::BTreeMap;

use libpressio::core::trace;

/// Samples of one cell: one (compressor, input, bound), or one serve
/// request kind.
#[derive(Debug, Clone, Default)]
pub struct CellStats {
    pub label: String,
    /// Original bytes per operation.
    pub bytes: usize,
    /// Compressed bytes, summed over the successful compresses.
    pub compressed: usize,
    pub compress_ms: Vec<f64>,
    pub decompress_ms: Vec<f64>,
}

impl CellStats {
    /// Original over compressed bytes of the successful operations.
    pub fn ratio(&self) -> f64 {
        (self.bytes * self.compress_ms.len()) as f64 / self.compressed.max(1) as f64
    }
}

/// Everything one timed pass produced.
#[derive(Debug, Default)]
pub struct Tally {
    pub cells: Vec<CellStats>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the report.
    pub errors: Vec<String>,
    /// Peak live heap bytes of each round.
    pub round_peaks: Vec<usize>,
}

impl Tally {
    pub fn new(labels: impl IntoIterator<Item = (String, usize)>) -> Tally {
        Tally {
            cells: labels
                .into_iter()
                .map(|(label, bytes)| CellStats {
                    label,
                    bytes,
                    ..CellStats::default()
                })
                .collect(),
            ..Tally::default()
        }
    }

    /// Completed operations per second of the timed calls, leaving out the
    /// benchmark's own checks between them.
    pub fn ops_per_s(&self) -> f64 {
        let (mut ops, mut ms) = (0.0, 0.0);
        for c in &self.cells {
            ops += (c.compress_ms.len() + c.decompress_ms.len()) as f64;
            ms += c.compress_ms.iter().chain(&c.decompress_ms).sum::<f64>();
        }
        ops / (ms / 1e3)
    }

    pub fn fail(&mut self, ops: u64, cell: &str, what: String) {
        self.failed += ops;
        if self.errors.len() < 8 {
            self.errors.push(format!("{cell}: {what}"));
        }
    }
}

/// Totals of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Duration less the part covered by child spans on the same thread.
    pub self_ns: u64,
}

/// Spans and counters drained from the program's trace ring.
#[derive(Debug, Default)]
pub struct Tracer {
    pub spans: BTreeMap<String, SpanTotals>,
    pub counters: BTreeMap<&'static str, u64>,
    pub dropped: u64,
}

impl Tracer {
    /// Empty the ring into the totals. Handle spans are keyed by the
    /// compressor they carry as label, every other span by name.
    pub fn drain(&mut self) {
        let report = trace::take();
        self.dropped += report.dropped;
        for c in &report.counters {
            *self.counters.entry(c.name).or_default() += c.value;
        }
        let mut spans = report.spans;
        spans.sort_by_key(|s| (s.tid, s.start_ns, s.depth));
        let mut child_ns = vec![0u64; spans.len()];
        // Per thread, the open ancestors of the current span.
        let mut stack: Vec<usize> = Vec::new();
        for i in 0..spans.len() {
            let s = &spans[i];
            while let Some(&top) = stack.last() {
                let t = &spans[top];
                let same_thread = t.tid == s.tid;
                let encloses = t.start_ns + t.dur_ns >= s.start_ns + s.dur_ns && t.depth < s.depth;
                if same_thread && encloses {
                    break;
                }
                stack.pop();
            }
            if let Some(&parent) = stack.last() {
                if spans[parent].depth + 1 == s.depth {
                    child_ns[parent] += s.dur_ns;
                }
            }
            stack.push(i);
        }
        for (s, child) in spans.iter().zip(child_ns) {
            let key = match (&s.label, s.name.starts_with("handle:")) {
                (Some(l), true) => format!("{}[{l}]", s.name),
                _ => s.name.to_string(),
            };
            let t = self.spans.entry(key).or_default();
            t.count += 1;
            t.total_ns += s.dur_ns;
            t.self_ns += s.dur_ns.saturating_sub(child);
        }
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn total_ns(&self, key: &str) -> u64 {
        self.spans.get(key).map_or(0, |t| t.total_ns)
    }

    /// One line per span name: count, total and self time.
    pub fn render(&self) -> String {
        let mut out = String::from("layer self time (traced pass):\n");
        let mut rows: Vec<(&String, &SpanTotals)> = self.spans.iter().collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.1.self_ns));
        for (name, t) in rows {
            out.push_str(&format!(
                "  {name:<40} n={:<8} total={:>10.3} ms  self={:>10.3} ms\n",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            ));
        }
        for (name, v) in &self.counters {
            out.push_str(&format!("  counter {name:<32} {v}\n"));
        }
        out.push_str(&format!("  dropped spans: {}\n", self.dropped));
        out
    }
}
