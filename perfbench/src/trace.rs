//! Tracing from outside the program: spans around the benchmark's own
//! calls into each layer's public functions, and per-thread CPU time
//! read from `/proc/self/task/*/{comm,stat}` and charged to layers by
//! thread name.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: `name` is `<layer>.<call>`, `id` ties the spans of
/// one request (a chunk, a batch, a read) together, `parent` is the
/// index of the enclosing span on the same log.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A per-thread, in-memory span log. A disabled log records nothing
/// and costs one branch per call.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanLog {
    #[must_use]
    pub fn new(origin: Instant, enabled: bool) -> SpanLog {
        SpanLog {
            origin,
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span; close it with [`SpanLog::end`].
    pub fn begin(&mut self, name: &'static str, id: u64) {
        if !self.enabled {
            return;
        }
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            id,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = self.origin.elapsed().as_nanos() as u64;
        }
    }

    /// Records a span whose bounds the caller already measured.
    pub fn record(&mut self, name: &'static str, id: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            id,
            parent: self.open.last().copied(),
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// Times `f` as one span.
    pub fn time<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        self.begin(name, id);
        let out = f();
        self.end();
        out
    }

    /// Appends another thread's log (re-basing its parent indices).
    pub fn absorb(&mut self, other: SpanLog) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Total and self time (total minus time covered by child spans)
    /// per span name, plus counts.
    #[must_use]
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            let dur = s.end_ns - s.start_ns;
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(child);
        }
        out
    }

    /// The spans as tab-separated lines (`name id parent start_ns end_ns`).
    #[must_use]
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("name\tid\tparent\tstart_ns\tend_ns\n");
        for s in &self.spans {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{}\t{}\t{parent}\t{}\t{}",
                s.name, s.id, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Aggregates of all spans with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// The layer a thread's CPU time is charged to, by its kernel `comm`
/// (thread names are cut to 15 bytes there).
///
/// * `ac-store-applie` — the store's applier thread and the per-shard
///   workers it spawns (unnamed threads inherit their spawner's name):
///   `engine.apply`.
/// * `ckpt-spawner` — the benchmark starts every durable `Store` from a
///   thread of this name, so the checkpointer's unnamed writer and
///   compactor threads inherit it: `engine.checkpointer`.
/// * `ac-ckpt-pool-*` — the checkpoint encode/restore fan-out pool:
///   `engine.checkpointer` too (it serves checkpoint encode and chain
///   restore, wherever they are called from).
/// * `ac-net-sender`, `ac-net-acker` — `NetWriter` I/O: `net.client`.
/// * `ac-net-conn`, `ac-net-accept` — server sessions: `net.server`.
/// * `ac-net-cutter` — the replication chain cutter: `net.cutter`.
/// * `ac-net-replica` — the replica feed and fold: `net.replica`.
/// * everything else (`bench-gen-*`, `bench-read`, the main thread) is
///   the benchmark's own load generation and observation: `bench`.
#[must_use]
pub fn layer_of(comm: &str) -> &'static str {
    match comm {
        "ac-store-applie" | "ac-store-applier" => "engine.apply",
        "ckpt-spawner" => "engine.checkpointer",
        c if c.starts_with("ac-ckpt-pool") => "engine.checkpointer",
        "ac-net-sender" | "ac-net-acker" => "net.client",
        "ac-net-conn" | "ac-net-accept" => "net.server",
        "ac-net-cutter" => "net.cutter",
        "ac-net-replica" => "net.replica",
        _ => "bench",
    }
}

/// Clock ticks per second of `/proc/*/stat` times (`USER_HZ`, 100 on
/// every mainstream Linux configuration).
const USER_HZ: f64 = 100.0;

/// Reads `(tid, comm, cpu seconds)` for every live thread of this
/// process. Returns an empty list where `/proc` is unavailable.
#[must_use]
pub fn thread_cpu() -> Vec<(u64, String, f64)> {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let path = entry.path();
        let (Ok(comm), Ok(stat)) = (
            std::fs::read_to_string(path.join("comm")),
            std::fs::read_to_string(path.join("stat")),
        ) else {
            continue;
        };
        if let Some(secs) = parse_stat_cpu(&stat) {
            out.push((tid, comm.trim_end().to_string(), secs));
        }
    }
    out
}

/// `utime + stime` in seconds from one `stat` line. The command field
/// is parenthesized and may hold spaces, so fields are counted from
/// the last `)`.
#[must_use]
pub fn parse_stat_cpu(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the command come state (field 3) ... utime (14), stime (15).
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// `(steal, total)` jiffies of the whole machine from `/proc/stat`: on
/// a virtual machine, steal is time the hypervisor gave this guest's
/// CPUs to someone else.
#[must_use]
pub fn host_steal() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Accumulates per-layer CPU seconds across repeated samples, counting
/// each thread's growth since it was last seen (so persistent threads
/// are not counted twice and short-lived ones are caught by sampling
/// before they exit).
#[derive(Debug, Default)]
pub struct CpuMeter {
    seen: HashMap<u64, f64>,
    by_layer: BTreeMap<&'static str, f64>,
}

impl CpuMeter {
    /// Marks every live thread's current CPU time as the baseline.
    #[must_use]
    pub fn start() -> CpuMeter {
        let mut m = CpuMeter::default();
        for (tid, _, secs) in thread_cpu() {
            m.seen.insert(tid, secs);
        }
        m
    }

    /// Charges each live thread's growth since its last sample.
    pub fn sample(&mut self) {
        for (tid, comm, secs) in thread_cpu() {
            let prev = self.seen.insert(tid, secs).unwrap_or(0.0);
            *self.by_layer.entry(layer_of(&comm)).or_default() += (secs - prev).max(0.0);
        }
    }

    /// CPU seconds charged to `layer` so far.
    #[must_use]
    pub fn seconds(&self, layer: &str) -> f64 {
        self.by_layer.get(layer).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parsing_counts_fields_after_the_command() {
        let line = "4242 (ac net) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 1 0 100 0 0";
        assert_eq!(parse_stat_cpu(line), Some(3.0));
        assert_eq!(parse_stat_cpu("garbage"), None);
    }

    #[test]
    fn thread_names_map_to_layers() {
        assert_eq!(layer_of("ac-store-applie"), "engine.apply");
        assert_eq!(layer_of("ac-ckpt-pool-3"), "engine.checkpointer");
        assert_eq!(layer_of("ckpt-spawner"), "engine.checkpointer");
        assert_eq!(layer_of("ac-net-acker"), "net.client");
        assert_eq!(layer_of("ac-net-conn"), "net.server");
        assert_eq!(layer_of("ac-net-cutter"), "net.cutter");
        assert_eq!(layer_of("ac-net-replica"), "net.replica");
        assert_eq!(layer_of("bench-gen-0"), "bench");
    }

    #[test]
    fn self_time_subtracts_children() {
        let origin = Instant::now();
        let mut log = SpanLog::new(origin, true);
        log.spans.push(Span {
            name: "outer",
            id: 1,
            parent: None,
            start_ns: 0,
            end_ns: 100,
        });
        log.spans.push(Span {
            name: "inner",
            id: 1,
            parent: Some(0),
            start_ns: 10,
            end_ns: 40,
        });
        let t = log.totals();
        assert_eq!(t["outer"].total_ns, 100);
        assert_eq!(t["outer"].self_ns, 70);
        assert_eq!(t["inner"].self_ns, 30);
        let mut off = SpanLog::new(origin, false);
        off.time("x", 0, || ());
        assert!(off.spans.is_empty());
    }

    #[test]
    fn cpu_meter_reads_this_process() {
        let mut m = CpuMeter::start();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        m.sample();
        assert!(m.seconds("bench") >= 0.0);
        assert!(!thread_cpu().is_empty());
    }
}
