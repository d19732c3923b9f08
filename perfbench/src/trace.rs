//! In-memory span recording for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around the calls it
//! makes into each fastbuf layer. A span the program executes out of the
//! benchmark's sight (the DP inside a request, the handler inside the
//! server) is *replayed*: the benchmark makes the same public call again
//! on the same input, times it, and records it as a child of the span
//! that hid it, laid out from the parent's start. A parent's self time is
//! then its duration minus what its children cover, so the self times of
//! one request's spans add up to its measured end-to-end time exactly, and
//! whatever the replayed pieces do not cover stays with the parent.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// `layer.what`; the layer is the part before the first `.`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one request or op.
    pub request: u64,
    /// Whether the span times a replay of a call the program made out of
    /// the benchmark's sight.
    pub replayed: bool,
    /// Nanoseconds of this span already covered by replayed children.
    cursor_ns: u64,
}

impl Span {
    /// The span's duration.
    pub fn duration(&self) -> Duration {
        Duration::from_nanos(self.end_ns.saturating_sub(self.start_ns))
    }

    /// The layer the span belongs to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// A per-thread span buffer.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// An empty recorder; recorders that will be merged share `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Recorder {
            epoch,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span that starts now; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, request: u64, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            request,
            replayed: false,
            cursor_ns: 0,
        });
        self.spans.len() - 1
    }

    /// Ends span `id` now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Times `f` as a span of its own.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let id = self.open(name, request, parent);
        let out = f();
        self.close(id);
        (out, id)
    }

    /// Records a replayed call that took `duration` as the next child of
    /// `parent`, laid out right after the parent's previous replayed
    /// children.
    pub fn replayed(&mut self, name: &'static str, parent: usize, duration: Duration) -> usize {
        let (start, request) = {
            let p = &mut self.spans[parent];
            let start = p.start_ns + p.cursor_ns;
            p.cursor_ns += duration.as_nanos() as u64;
            (start, p.request)
        };
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: start + duration.as_nanos() as u64,
            parent: Some(parent),
            request,
            replayed: true,
            cursor_ns: 0,
        });
        self.spans.len() - 1
    }

    /// Times `f` as a replayed child of `parent`.
    pub fn replay<T>(
        &mut self,
        name: &'static str,
        parent: usize,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let t = Instant::now();
        let out = f();
        let id = self.replayed(name, parent, t.elapsed());
        (out, id)
    }

    /// Appends every span of `other` (parents re-indexed).
    pub fn absorb(&mut self, other: Recorder) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its children's.
    /// Negative when replayed children outlast their parent.
    pub fn self_ms(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self
            .spans
            .iter()
            .map(|s| s.duration().as_secs_f64() * 1e3)
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.duration().as_secs_f64() * 1e3;
            }
        }
        own
    }

    /// Durations in milliseconds of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration().as_secs_f64() * 1e3)
            .collect()
    }

    /// Self times in milliseconds of every span called `name`.
    pub fn self_ms_of(&self, name: &str) -> Vec<f64> {
        let own = self.self_ms();
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t)
            .collect()
    }

    /// Per layer: `(span count, total self milliseconds)`.
    pub fn layers(&self) -> BTreeMap<&'static str, (usize, f64)> {
        let mut out: BTreeMap<&'static str, (usize, f64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ms()) {
            let e = out.entry(s.layer()).or_default();
            e.0 += 1;
            e.1 += own;
        }
        out
    }

    /// Writes at most `limit` spans to `path` as JSON lines.
    pub fn write(&self, path: &Path, limit: usize) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.iter().take(limit) {
            writeln!(
                out,
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \
                 \"request\": {}, \"replayed\": {}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent
                    .map_or_else(|| "null".to_owned(), |p| p.to_string()),
                s.request,
                s.replayed
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_the_root() {
        let mut rec = Recorder::new(Instant::now());
        let root = rec.open("transport.round_trip", 7, None);
        std::thread::sleep(Duration::from_millis(3));
        rec.close(root);
        let h = rec.replayed("server.handle_frame", root, Duration::from_millis(2));
        rec.replayed("api.parse_frame", h, Duration::from_micros(300));
        rec.replayed("api.request", h, Duration::from_micros(900));
        let own = rec.self_ms();
        let total: f64 = own.iter().sum();
        let rtt = rec.spans()[root].duration().as_secs_f64() * 1e3;
        assert!((total - rtt).abs() < 1e-9, "{total} vs {rtt}");
        assert!((own[h] - 0.8).abs() < 1e-9);
        assert_eq!(
            rec.spans()[3].start_ns,
            rec.spans()[root].start_ns + 300_000
        );
        assert!(rec.spans().iter().all(|s| s.request == 7));
        let layers = rec.layers();
        assert_eq!(layers["api"].0, 2);
        assert_eq!(layers["server"].0, 1);
    }

    #[test]
    fn absorb_reindexes_parents() {
        let epoch = Instant::now();
        let mut a = Recorder::new(epoch);
        a.time("op.a", 1, None, || ());
        let mut b = Recorder::new(epoch);
        let (_, root) = b.time("op.b", 2, None, || ());
        b.replayed("core.solve", root, Duration::from_micros(5));
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
    }
}
