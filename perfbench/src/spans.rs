//! The benchmark's own spans: one per public call it makes into a layer
//! (name, start, end, parent), kept in memory and written out at the end.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open) span; times are nanoseconds since the
/// recorder was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `runner.collect`.
    pub name: &'static str,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start offset, ns.
    pub start_ns: u64,
    /// End offset, ns.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records a single-threaded tree of spans.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a child of the innermost open span; returns its index.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        let idx = self.spans.len() - 1;
        self.open.push(idx);
        idx
    }

    /// Close the innermost open span; returns its duration in seconds.
    pub fn exit(&mut self) -> f64 {
        let idx = self.open.pop().expect("exit without enter");
        self.spans[idx].end_ns = self.now_ns();
        self.spans[idx].dur_ns() as f64 / 1e9
    }

    /// Run `f` inside a span named `name`; returns its result and the
    /// span's duration in seconds.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        self.enter(name);
        let out = f();
        (out, self.exit())
    }

    /// Self time of span `idx`: its duration minus what its children cover.
    pub fn self_ns(&self, idx: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(Span::dur_ns)
            .sum();
        self.spans[idx].dur_ns().saturating_sub(children)
    }

    /// Per-name totals over the spans under `root` (excluded), in
    /// seconds of self time.
    pub fn self_by_name(&self, root: usize) -> BTreeMap<&'static str, f64> {
        let mut ns: BTreeMap<&'static str, u64> = BTreeMap::new();
        for idx in self.descendants(root) {
            *ns.entry(self.spans[idx].name).or_default() += self.self_ns(idx);
        }
        ns.into_iter().map(|(k, v)| (k, v as f64 / 1e9)).collect()
    }

    /// Share of `root`'s wall time that its descendant layers cover as
    /// self time, in percent.
    pub fn coverage_pct(&self, root: usize) -> f64 {
        let covered: u64 = self
            .descendants(root)
            .into_iter()
            .map(|i| self.self_ns(i))
            .sum();
        100.0 * covered as f64 / self.spans[root].dur_ns().max(1) as f64
    }

    fn descendants(&self, root: usize) -> Vec<usize> {
        let mut out = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let mut p = s.parent;
            while let Some(pi) = p {
                if pi == root {
                    out.push(i);
                    break;
                }
                p = self.spans[pi].parent;
            }
        }
        out
    }

    /// JSONL export: one span per line.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_coverage_counts_layers() {
        let r = Recorder {
            spans: vec![
                Span {
                    name: "root",
                    parent: None,
                    start_ns: 0,
                    end_ns: 100,
                },
                Span {
                    name: "a",
                    parent: Some(0),
                    start_ns: 0,
                    end_ns: 60,
                },
                Span {
                    name: "b",
                    parent: Some(1),
                    start_ns: 10,
                    end_ns: 30,
                },
                Span {
                    name: "a",
                    parent: Some(0),
                    start_ns: 60,
                    end_ns: 90,
                },
            ],
            ..Recorder::default()
        };
        assert_eq!(r.self_ns(0), 10);
        assert_eq!(r.self_ns(1), 40);
        let by_name = r.self_by_name(0);
        assert_eq!(by_name["a"], 70e-9);
        assert_eq!(by_name["b"], 20e-9);
        assert_eq!(r.coverage_pct(0), 90.0);
        assert!(r.jsonl().lines().count() == 4);
    }
}
