//! In-memory spans recorded by the benchmark around its calls into
//! each crate's public functions.
//!
//! A span has a name, a start, an end and the span that was open when
//! it began (its parent). Names are `layer.what`, so self time can be
//! totalled per layer: a span's self time is its duration minus the
//! durations of its children, which nest inside it and never overlap.
//!
//! Calls made once per record or per probe are too many to keep one by
//! one; [`Tracer::add`] folds them into a count and a total per name
//! and parent, which self time accounts for like individual children.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Interned span name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Name(u16);

#[derive(Debug, Clone, Copy)]
struct Span {
    name: Name,
    /// Index of the parent span, `u32::MAX` for a root.
    parent: u32,
    /// Nanoseconds since the tracer's origin.
    start: u64,
    end: u64,
}

/// Span recorder. Spans stay in memory until [`Tracer::write_tsv`].
pub struct Tracer {
    origin: Instant,
    names: Vec<&'static str>,
    spans: Vec<Span>,
    open: Vec<u32>,
    /// (parent, name) → (total ns, count) of the spans folded by `add`.
    folded: BTreeMap<(u32, u16), (u64, u64)>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            names: Vec::new(),
            spans: Vec::new(),
            open: Vec::new(),
            folded: BTreeMap::new(),
        }
    }

    /// Intern a span name; call once per name, outside hot loops.
    pub fn name(&mut self, name: &'static str) -> Name {
        let idx = match self.names.iter().position(|n| *n == name) {
            Some(i) => i,
            None => {
                self.names.push(name);
                self.names.len() - 1
            }
        };
        Name(u16::try_from(idx).expect("fewer than 65536 span names"))
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn begin(&mut self, name: Name) {
        let parent = self.open.last().copied().unwrap_or(u32::MAX);
        let start = self.now();
        let idx = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            name,
            parent,
            start,
            end: start,
        });
        self.open.push(idx);
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        let now = self.now();
        let idx = self.open.pop().expect("end() matches a begin()");
        self.spans[idx as usize].end = now;
    }

    /// Fold a finished span into its name's count and total under the
    /// innermost open span.
    pub fn add(&mut self, name: Name, start: Instant, end: Instant) {
        let parent = self.open.last().copied().unwrap_or(u32::MAX);
        let slot = self.folded.entry((parent, name.0)).or_default();
        slot.0 += end.saturating_duration_since(start).as_nanos() as u64;
        slot.1 += 1;
    }

    /// Record an already finished span as a child of the innermost open
    /// span (for calls whose span name depends on what they returned).
    pub fn record(&mut self, name: Name, start: Instant, end: Instant) {
        let parent = self.open.last().copied().unwrap_or(u32::MAX);
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent,
            start: at(start),
            end: at(end),
        });
    }

    /// Run `f` inside a folded span (see [`Tracer::add`]).
    pub fn fold<T>(&mut self, name: Name, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.add(name, t0, Instant::now());
        out
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, name: Name, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Total duration (seconds) and count of the spans named `name`.
    pub fn total(&self, name: &str) -> (f64, u64) {
        let Some(id) = self.names.iter().position(|n| *n == name) else {
            return (0.0, 0);
        };
        let mut ns = 0u64;
        let mut n = 0u64;
        for s in self.spans.iter().filter(|s| s.name.0 as usize == id) {
            ns += s.end - s.start;
            n += 1;
        }
        for (_, (total, count)) in self
            .folded
            .iter()
            .filter(|((_, name), _)| *name as usize == id)
        {
            ns += total;
            n += count;
        }
        (ns as f64 * 1e-9, n)
    }

    /// Self time (seconds) per layer — the part of a span's name before
    /// the first `.` — over the spans under the roots named `root`,
    /// the roots included.
    pub fn self_time_by_layer(&self, root: &str) -> BTreeMap<&'static str, f64> {
        let root_id = self.names.iter().position(|n| *n == root);
        // Children always follow their parent, so one forward pass can
        // decide membership and one more can subtract child time.
        let mut inside = vec![false; self.spans.len()];
        let mut self_ns: Vec<i64> = self
            .spans
            .iter()
            .map(|s| (s.end - s.start) as i64)
            .collect();
        for (i, s) in self.spans.iter().enumerate() {
            inside[i] = if s.parent == u32::MAX {
                Some(s.name.0 as usize) == root_id
            } else {
                inside[s.parent as usize]
            };
            if inside[i] && s.parent != u32::MAX {
                self_ns[s.parent as usize] -= (s.end - s.start) as i64;
            }
        }
        let layer = |name: u16| {
            let name = self.names[name as usize];
            name.split('.').next().unwrap_or(name)
        };
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (&(parent, name), &(total, _)) in &self.folded {
            if parent != u32::MAX && inside[parent as usize] {
                self_ns[parent as usize] -= total as i64;
                *out.entry(layer(name)).or_default() += total as f64 * 1e-9;
            }
        }
        for (i, s) in self.spans.iter().enumerate() {
            if inside[i] {
                *out.entry(layer(s.name.0)).or_default() += self_ns[i] as f64 * 1e-9;
            }
        }
        out
    }

    /// Number of spans kept one by one.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write every span as one tab-separated line — `span`, its index,
    /// its parent's index (`-` for a root), name, start and duration in
    /// nanoseconds — then every folded group — `fold`, count, parent,
    /// name, `-`, total duration.
    pub fn write_tsv(&self, out: &mut impl Write) -> std::io::Result<()> {
        let parent = |p: u32| {
            if p == u32::MAX {
                "-".to_string()
            } else {
                p.to_string()
            }
        };
        writeln!(out, "kind\tid_or_count\tparent\tname\tstart_ns\tdur_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let name = self.names[s.name.0 as usize];
            writeln!(
                out,
                "span\t{i}\t{}\t{name}\t{}\t{}",
                parent(s.parent),
                s.start,
                s.end - s.start
            )?;
        }
        for (&(p, name), &(total, count)) in &self.folded {
            let name = self.names[name as usize];
            writeln!(out, "fold\t{count}\t{}\t{name}\t-\t{total}", parent(p))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_groups_by_layer() {
        let mut t = Tracer::new();
        let root = t.name("bench.pass");
        let outer = t.name("core.assess");
        let inner = t.name("core.deliver.stall");
        let other = t.name("features.obs");
        t.begin(root);
        t.begin(outer);
        t.span(inner, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end();
        t.span(other, || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        let push = t.name("telemetry.push");
        for _ in 0..3 {
            t.fold(push, || {
                std::thread::sleep(std::time::Duration::from_millis(1))
            });
        }
        t.end();
        // A second root that the per-layer totals must ignore.
        let stray = t.name("ml.predict");
        t.span(stray, || ());

        let layers = t.self_time_by_layer("bench.pass");
        let (pass, _) = t.total("bench.pass");
        let total: f64 = layers.values().sum();
        assert!((total - pass).abs() < 1e-6, "self times add up to the root");
        assert!(layers["core"] >= 0.002);
        assert!(layers["features"] >= 0.001);
        assert!(layers["telemetry"] >= 0.003);
        assert_eq!(t.total("telemetry.push").1, 3);
        assert!(!layers.contains_key("ml"));
        assert_eq!(t.total("core.deliver.stall").1, 1);
        assert_eq!(t.len(), 5);
    }
}
