//! Measurement plumbing: process memory, the benchmark's own spans,
//! order statistics, a seeded id generator and artifact digests.

use std::path::Path;
use std::time::Instant;

/// Reads one `Vm*` field of this process's status, in KiB.
pub fn vm_kib(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// The faster quartile of a run's durations: their lower quartile.
pub fn fast_time(values: &[f64]) -> f64 {
    quantile(values, 0.25)
}

/// The faster quartile of a run's rates: their upper quartile.
pub fn fast_rate(values: &[f64]) -> f64 {
    quantile(values, 0.75)
}

/// Median of a sample set (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` ∈ [0, 1] of a sample set.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Time of one `HostProbe` measurement on the reference machine when
/// the host leaves it alone, in ns: the lower quartile of the probe's
/// times over a quiet minute.
pub const PROBE_REFERENCE_NS: f64 = 1.1e6;

/// A fixed piece of work owned by the benchmark, timed next to every
/// sample of a timed end-to-end metric. It shares no code with the
/// program, so its time tracks only the speed the shared host gives
/// this process at that moment. Its parts mirror what the program
/// does: hashing over a cache-sized buffer, f32 dot products, touching
/// fresh pages, and formatting, sorting and parsing short strings. It
/// holds about 1.5 MiB per thread at its peak, which `peak_rss_mb`
/// includes.
pub struct HostProbe {
    /// One set of buffers per thread the probe runs on.
    lanes: Vec<ProbeLane>,
}

struct ProbeLane {
    words: Vec<u64>,
    a: Vec<f32>,
    b: Vec<f32>,
}

impl ProbeLane {
    fn new() -> Self {
        ProbeLane {
            words: vec![1; 1 << 15],
            a: vec![1.0001; 1 << 14],
            b: vec![0.9999; 1 << 14],
        }
    }

    /// Runs the fixed work once; returns its slowdown against
    /// `PROBE_REFERENCE_NS`.
    fn run(&mut self) -> f64 {
        let t = Instant::now();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for _ in 0..4 {
            for w in self.words.iter_mut() {
                h = (h ^ *w).wrapping_mul(0x100_0000_01b3);
                *w = h;
            }
        }
        let mut dot = 0f32;
        for _ in 0..40 {
            let (a, b) = (std::hint::black_box(&self.a), std::hint::black_box(&self.b));
            dot += a.iter().zip(b).map(|(x, y)| x * y).sum::<f32>();
        }
        let mut fresh = vec![0u64; 1 << 17];
        for (i, x) in fresh.iter_mut().enumerate().step_by(512) {
            *x = i as u64 ^ h;
        }
        let mut text: Vec<String> = (0..2_000)
            .map(|i| format!("{},{:.3}", i ^ (h as usize & 7), i as f32 * 0.37))
            .collect();
        text.sort();
        for t in &text {
            h = h.wrapping_add(t.parse::<u8>().unwrap_or(1) as u64 + t.len() as u64);
        }
        std::hint::black_box((h, dot, fresh[512]));
        t.elapsed().as_nanos() as f64 / PROBE_REFERENCE_NS
    }
}

impl HostProbe {
    /// A probe for work that runs on `threads` threads. Each lane runs
    /// once before the probe is used, so no measurement is cold.
    pub fn new(threads: usize) -> Self {
        let mut probe = HostProbe {
            lanes: (0..threads.max(1)).map(|_| ProbeLane::new()).collect(),
        };
        probe.slowdown_all(3);
        probe
    }

    /// How many times slower the host is now than the reference machine
    /// at rest, for single-threaded work: one run of the fixed work.
    pub fn slowdown(&mut self) -> f64 {
        self.lanes[0].run()
    }

    /// The same for work on all the probe's threads: the median over
    /// `n` rounds of the mean slowdown of one run on every thread at
    /// once. A single-threaded probe runs on the calling thread.
    pub fn slowdown_all(&mut self, n: usize) -> f64 {
        let rounds: Vec<f64> = (0..n)
            .map(|_| {
                if let [lane] = self.lanes.as_mut_slice() {
                    return lane.run();
                }
                let each: Vec<f64> = std::thread::scope(|s| {
                    let handles: Vec<_> = self
                        .lanes
                        .iter_mut()
                        .map(|lane| s.spawn(move || lane.run()))
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().unwrap_or(f64::NAN))
                        .collect()
                });
                each.iter().sum::<f64>() / each.len() as f64
            })
            .collect();
        median(&rounds)
    }
}

/// SplitMix64: the benchmark's own seeded generator for lookup ids, so
/// the ids depend on `--seed` only.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Files of a run directory that hold campaign results. The event log
/// and the metrics snapshot exist only in traced runs and carry
/// runtime values, so they are left out.
fn is_row_artifact(name: &str) -> bool {
    name != alfi::trace::EVENTS_FILE && name != alfi::metrics::SNAPSHOT_FILE
}

/// Digest and total size of a run directory's result artifacts: an
/// FNV-1a hash over every artifact's name, length and bytes, in name
/// order.
pub fn digest_dir(dir: &Path) -> std::io::Result<(String, u64)> {
    let mut names: Vec<String> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .filter(|e| e.file_type().is_ok_and(|t| t.is_file()))
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| is_row_artifact(n))
        .collect();
    names.sort();
    let mut all = Vec::new();
    let mut bytes = 0u64;
    for name in names {
        let data = std::fs::read(dir.join(&name))?;
        bytes += data.len() as u64;
        all.extend_from_slice(name.as_bytes());
        all.extend_from_slice(&(data.len() as u64).to_le_bytes());
        all.extend_from_slice(&data);
    }
    Ok((alfi::trace::hash_hex(&all), bytes))
}

struct SpanRec {
    name: String,
    parent: Option<usize>,
    ns: u64,
    start: Instant,
}

/// The benchmark's own span tree: wall-clock spans opened around each
/// call into the program, plus synthetic children carrying the
/// engine's phase totals. A span's self time is its duration minus its
/// children's.
pub struct Spans {
    started: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            started: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        self.spans.push(SpanRec {
            name: name.to_string(),
            parent: self.open.last().copied(),
            ns: 0,
            start: Instant::now(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (and anything still open inside it) and
    /// returns its duration in nanoseconds.
    pub fn end(&mut self, id: usize) -> u64 {
        while let Some(top) = self.open.pop() {
            self.spans[top].ns = self.spans[top].start.elapsed().as_nanos() as u64;
            if top == id {
                break;
            }
        }
        self.spans[id].ns
    }

    /// Times `f` as a span named `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> T) -> (T, u64) {
        let id = self.begin(name);
        let out = f(self);
        let ns = self.end(id);
        (out, ns)
    }

    /// Adds a closed child of `parent` with a given duration: the
    /// wall-clock equivalent of a phase the engine measured inside the
    /// parent's interval.
    pub fn add_child(&mut self, parent: usize, name: &str, ns: u64) {
        self.spans.push(SpanRec {
            name: name.to_string(),
            parent: Some(parent),
            ns,
            start: Instant::now(),
        });
    }

    /// Wall time since the span tree was created.
    pub fn wall_ns(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }

    /// Self time per span name, in first-seen order.
    pub fn self_times(&self) -> Vec<(String, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns;
            }
        }
        let mut out: Vec<(String, u64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = s.ns.saturating_sub(child_ns[i]);
            match out.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, ns)) => *ns += own,
                None => out.push((s.name.clone(), own)),
            }
        }
        out
    }

    /// Renders the per-layer table: each span name's self time and its
    /// share of `wall_ns`, closed by an explicit unattributed row, so
    /// the rows sum to the wall time.
    pub fn table(&self, title: &str, wall_ns: u64) -> String {
        let rows = self.self_times();
        let attributed: u64 = rows.iter().map(|(_, ns)| ns).sum();
        let mut out = format!(
            "{title}\n{:<34} {:>12} {:>8}\n",
            "layer / span", "self ms", "share"
        );
        let mut line = |name: &str, ns: u64| {
            out.push_str(&format!(
                "{name:<34} {:>12.3} {:>7.2}%\n",
                ns as f64 / 1e6,
                100.0 * ns as f64 / wall_ns.max(1) as f64
            ));
        };
        for (name, ns) in &rows {
            line(name, *ns);
        }
        line("unattributed", wall_ns.saturating_sub(attributed));
        line("= wall", wall_ns);
        out
    }
}
