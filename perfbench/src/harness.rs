//! Shared pieces of every workload: the run context, operation and
//! correctness accounting, metric collection, visibility/lag trackers,
//! and the helpers that start stores and measure directories.

use crate::stats::{interquartile_mean, Summary};
use crate::trace::{CpuMeter, SpanLog};
use ac_core::CounterSpec;
use ac_engine::{EngineError, Store, StoreBuilder, StoreReader};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The counter every workload runs: Nelson–Yu at ε = 0.2, δ = 2⁻⁸.
pub const EPS: f64 = 0.2;
pub const DELTA_LOG2: u32 = 8;
pub const SHARDS: usize = 8;

#[must_use]
pub fn spec() -> CounterSpec {
    CounterSpec::NelsonYu {
        eps: EPS,
        delta_log2: DELTA_LOG2,
    }
}

/// What one invocation asked for.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// Shrinks every size; only the tests set it.
    pub tiny: bool,
    /// Working directory for durable stores, inside the checkout.
    pub work: PathBuf,
    /// Where a traced run writes its spans (`None`: not written).
    pub spans_dir: Option<PathBuf>,
}

impl Ctx {
    /// `full` normally, `tiny` in tiny mode.
    #[must_use]
    pub fn size(&self, full: usize, tiny: usize) -> usize {
        if self.tiny {
            tiny
        } else {
            full
        }
    }

    /// A fresh, empty directory under the work area.
    ///
    /// # Panics
    ///
    /// Panics when the directory cannot be created (the benchmark
    /// cannot run without it).
    #[must_use]
    pub fn fresh_dir(&self, name: &str) -> PathBuf {
        let dir = self.work.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create work directory");
        dir
    }

    /// The store seed for this run (engine RNG streams follow `--seed`).
    #[must_use]
    pub fn store_seed(&self) -> u64 {
        ac_randkit::mix64(self.seed ^ 0x5702_E5EE)
    }
}

/// Operations attempted and failed, with the names of failed checks.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Ops {
    /// Counts one operation; a `false` outcome is a failure named `what`.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 32 {
                self.failures.push(what.to_string());
            }
        }
    }

    /// Counts `n` operations of which `failed` failed.
    pub fn bulk(&mut self, what: &str, n: u64, failed: u64) {
        self.attempted += n;
        if failed > 0 {
            self.failed += failed;
            if self.failures.len() < 32 {
                self.failures.push(format!("{what} ({failed} of {n})"));
            }
        }
    }

    /// True when at least one operation ran and none failed.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    pub fn merge(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }
}

/// Named metrics in insertion order, each with its unit.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    pub items: Vec<(&'static str, f64, &'static str)>,
}

impl Metrics {
    /// Copies every metric of `other` in (replacing same-named ones).
    pub fn absorb(&mut self, other: Metrics) {
        for (name, value, unit) in other.items {
            self.put(name, value, unit);
        }
    }

    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        if let Some(slot) = self.items.iter_mut().find(|(n, _, _)| *n == name) {
            *slot = (name, value, unit);
        } else {
            self.items.push((name, value, unit));
        }
    }

    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.items
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|&(_, v, _)| v)
    }
}

/// Realized relative error of merged estimates against the exact
/// totals they estimate, reported against the spec's ε.
#[derive(Debug, Default, Clone)]
pub struct Accuracy {
    pub errors: Vec<f64>,
}

impl Accuracy {
    /// Records one estimate of `exact` events; true when within ε.
    pub fn record(&mut self, estimate: f64, exact: u64) -> bool {
        let exact = exact.max(1) as f64;
        let err = (estimate - exact) / exact;
        self.errors.push(err);
        err.abs() <= EPS
    }

    pub fn extend(&mut self, other: &Accuracy) {
        self.errors.extend_from_slice(&other.errors);
    }

    /// The largest |error| and the count outside ε as per-layer
    /// metrics; the mean signed error goes into `info`.
    pub fn report(&self, info: &mut Info) -> Metrics {
        let max = self.errors.iter().fold(0.0f64, |m, e| m.max(e.abs()));
        let outside = self.errors.iter().filter(|e| e.abs() > EPS).count();
        let mut layer = Metrics::default();
        layer.put("core.merged_rel_err_max", max, "ratio");
        layer.put("core.merged_outside_eps", outside as f64, "count");
        let mean = self.errors.iter().sum::<f64>() / self.errors.len().max(1) as f64;
        info.insert(
            "merged_rel_err".into(),
            format!(
                "n={} mean={mean:+.4} max_abs={max:.4} outside_eps={outside}",
                self.errors.len()
            ),
        );
        layer
    }
}

/// Free-form `key=value` provenance and sample-count notes.
pub type Info = BTreeMap<String, String>;

/// Notes a latency metric's sample count, window counts and pooled
/// tail in `info`.
fn note_latency(info: &mut Info, name: &str, s: &Summary) {
    info.insert(
        format!("samples.{name}"),
        format!(
            "{} in {}/{} p50/p99 windows",
            s.count, s.p50_windows, s.p99_windows
        ),
    );
    info.insert(
        format!("{name}.tail"),
        format!("p{}={:.4}", s.tail_pct, s.tail),
    );
}

/// A workload's end-to-end figures, before they become metrics.
#[derive(Debug)]
pub struct EndToEnd {
    /// Set-up samples (s), reported as their interquartile mean.
    pub setup_s: Vec<f64>,
    pub rate: f64,
    pub ack: Summary,
    pub visible: Summary,
    pub replica_lag: Summary,
    pub read: Summary,
    /// The merged-read figure (ms) and how many reads it summarizes.
    pub merged_read_ms: f64,
    pub merged_reads: usize,
    /// Recovery samples (s), reported as their interquartile mean.
    pub recovery_s: Vec<f64>,
    pub state_bits: f64,
    pub disk_bits: f64,
}

impl EndToEnd {
    /// Every end-to-end metric, plus the p99s the traced report moves
    /// to `tail.*`; sample counts go into `info`.
    pub fn report(&self, info: &mut Info) -> Metrics {
        let mut e2e = Metrics::default();
        e2e.put("setup_s", interquartile_mean(&self.setup_s), "s");
        e2e.put("ingest_events_per_s", self.rate, "events/s");
        e2e.put("ack_p50_ms", self.ack.p50, "ms");
        e2e.put("ack_p99_ms", self.ack.p99, "ms");
        e2e.put("visible_p50_ms", self.visible.p50, "ms");
        e2e.put("visible_p99_ms", self.visible.p99, "ms");
        e2e.put("read_p50_us", self.read.p50, "us");
        e2e.put("read_p99_us", self.read.p99, "us");
        e2e.put("merged_read_p50_ms", self.merged_read_ms, "ms");
        e2e.put("replica_lag_p50_ms", self.replica_lag.p50, "ms");
        e2e.put("recovery_s", interquartile_mean(&self.recovery_s), "s");
        e2e.put("state_bits_per_key", self.state_bits, "bits");
        e2e.put("disk_bits_per_key", self.disk_bits, "bits");
        note_latency(info, "ack", &self.ack);
        note_latency(info, "visible", &self.visible);
        note_latency(info, "replica_lag", &self.replica_lag);
        note_latency(info, "read", &self.read);
        info.insert("samples.merged_read".into(), self.merged_reads.to_string());
        info.insert("samples.recovery".into(), self.recovery_s.len().to_string());
        info.insert("samples.setup".into(), self.setup_s.len().to_string());
        e2e
    }
}

/// Set-up samples, taken in short slices between a workload's phases.
///
/// The host's speed drifts over seconds, and one start takes a
/// millisecond or so: samples taken in one stretch at the start of a
/// run would follow wherever the host happened to be then. Slices
/// spread over the run see its fast and slow periods alike, as the
/// workload's other figures do.
pub struct SetupSampler<'a> {
    /// Starts one fresh instance, stops it untimed, and returns the
    /// start's duration (s); `None` when the start or stop failed.
    start: Box<dyn FnMut() -> Option<f64> + 'a>,
    slice: Duration,
    pub samples: Vec<f64>,
    pub failed: u64,
}

impl<'a> SetupSampler<'a> {
    /// Slices last `slice` (1 ms in tiny mode).
    pub fn new(ctx: &Ctx, slice: Duration, start: impl FnMut() -> Option<f64> + 'a) -> Self {
        SetupSampler {
            start: Box::new(start),
            slice: if ctx.tiny {
                Duration::from_millis(1)
            } else {
                slice
            },
            samples: Vec::new(),
            failed: 0,
        }
    }

    /// Samples starts for one slice (at least one start).
    pub fn slice(&mut self) {
        self.sample_for(self.slice);
    }

    /// Samples starts for `dur` (at least one start).
    pub fn sample_for(&mut self, dur: Duration) {
        let until = Instant::now() + dur;
        loop {
            match (self.start)() {
                Some(s) => self.samples.push(s),
                None => self.failed += 1,
            }
            if Instant::now() >= until {
                break;
            }
        }
    }

    /// Counts the starts in `ops` and returns the samples.
    pub fn finish(self, ops: &mut Ops) -> Vec<f64> {
        ops.bulk(
            "set-up start and stop",
            self.samples.len() as u64 + self.failed,
            self.failed,
        );
        self.samples
    }
}

/// A pending "when does the observer see `target` events" question,
/// asked at `start`.
#[derive(Debug, Clone, Copy)]
struct Pending {
    start: Instant,
    target: u64,
}

/// Resolves count targets against an observed, monotone event total:
/// a target asked at `start` resolves the first time the observer sees
/// a total at or past it, giving a latency sample.
#[derive(Debug, Default)]
pub struct LagTracker {
    pending: Mutex<Vec<Pending>>,
    done_ms: Mutex<Vec<f64>>,
}

impl LagTracker {
    /// Asks when `target` events become visible, counting from `start`.
    pub fn ask(&self, start: Instant, target: u64) {
        self.pending
            .lock()
            .expect("lag tracker")
            .push(Pending { start, target });
    }

    /// Resolves every pending target at or below `total`, seen at `now`.
    pub fn observe(&self, total: u64, now: Instant) {
        let mut resolved = Vec::new();
        self.pending.lock().expect("lag tracker").retain(|p| {
            if p.target <= total {
                resolved.push(now.saturating_duration_since(p.start).as_secs_f64() * 1e3);
                false
            } else {
                true
            }
        });
        if !resolved.is_empty() {
            self.done_ms.lock().expect("lag tracker").extend(resolved);
        }
    }

    /// Targets not yet resolved.
    #[must_use]
    pub fn unresolved(&self) -> usize {
        self.pending.lock().expect("lag tracker").len()
    }

    /// Takes the resolved latencies (ms).
    #[must_use]
    pub fn take(&self) -> Vec<f64> {
        std::mem::take(&mut *self.done_ms.lock().expect("lag tracker"))
    }
}

/// How often an observer polls, asks a lag question, and has its
/// statistics sampled.
pub const POLL: Duration = Duration::from_micros(250);
pub const LAG_EVERY: Duration = Duration::from_millis(10);
pub const STATS_EVERY: Duration = Duration::from_millis(5);

/// What an [`Observer`] saw.
#[derive(Debug)]
pub struct Observed {
    /// When the exit condition first held (`None`: the deadline passed).
    pub t_visible: Option<Instant>,
    /// Traced only: refresh times (µs), published epochs seen, and one
    /// span per refresh.
    pub refresh_us: Vec<f64>,
    pub epochs: u64,
    pub spans: SpanLog,
}

/// The loop that watches a store's published replica while writers run.
#[derive(Debug)]
pub struct Observer<'a> {
    /// Resolved against every refreshed total.
    pub visible: &'a LagTracker,
    /// Asked every [`LAG_EVERY`]; the workload resolves it.
    pub lag: &'a LagTracker,
    pub traced: bool,
    pub deadline: Instant,
}

impl Observer<'_> {
    /// Polls `reader` every [`POLL`] until `done(total)` holds or the
    /// deadline passes. Every [`LAG_EVERY`] it first asks `lag` about
    /// the count `lag_target` returns (if any, and nonzero) — asking
    /// before observing, so a question asked on the last poll is
    /// answered by that poll. Then it refreshes, resolves `visible`
    /// against the new total and calls `on_poll(total, now, stats_due)`,
    /// with `stats_due` true every [`STATS_EVERY`].
    pub fn run(
        &self,
        reader: &mut StoreReader,
        mut lag_target: impl FnMut() -> Option<u64>,
        mut on_poll: impl FnMut(u64, Instant, bool),
        mut done: impl FnMut(u64) -> bool,
    ) -> Observed {
        let mut out = Observed {
            t_visible: None,
            refresh_us: Vec::new(),
            epochs: 0,
            spans: SpanLog::new(crate::harness_origin(), self.traced),
        };
        let start = Instant::now();
        let (mut next_lag, mut next_stats) = (start, start);
        let mut last_epoch = u64::MAX;
        loop {
            std::thread::sleep(POLL);
            let r0 = Instant::now();
            if r0 >= next_lag {
                if let Some(target) = lag_target().filter(|&t| t > 0) {
                    self.lag.ask(r0, target);
                }
                next_lag = r0 + LAG_EVERY;
            }
            reader.refresh();
            let total = reader.total_events();
            let now = Instant::now();
            self.visible.observe(total, now);
            let stats_due = now >= next_stats;
            if stats_due {
                next_stats = now + STATS_EVERY;
            }
            on_poll(total, now, stats_due);
            if self.traced {
                out.spans.record("engine.snapshot.refresh", 0, r0, now);
                out.refresh_us.push((now - r0).as_secs_f64() * 1e6);
                if reader.epoch() != last_epoch {
                    last_epoch = reader.epoch();
                    out.epochs += 1;
                }
            }
            if done(total) {
                out.t_visible = Some(now);
                return out;
            }
            if now > self.deadline {
                return out;
            }
        }
    }
}

/// A local point read costs about as much as reading the clock, so
/// local reads are timed in groups: one sample is the mean time per
/// read (µs) over `READ_GROUP` consecutive `StoreReader::estimate` calls.
pub const READ_GROUP: usize = 16;

/// Reads every key of `keys` (in groups of [`READ_GROUP`]), appending
/// one per-read latency sample per group; returns the keys found.
pub fn timed_reads(reader: &ac_engine::StoreReader, keys: &[u64], out: &mut Vec<f64>) -> u64 {
    let mut hits = 0u64;
    for group in keys.chunks(READ_GROUP) {
        let t0 = Instant::now();
        for &k in group {
            hits +=
                u64::from(std::hint::black_box(reader.estimate(std::hint::black_box(k))).is_some());
        }
        out.push(t0.elapsed().as_secs_f64() * 1e6 / group.len() as f64);
    }
    hits
}

/// Starts a store from a thread named `ckpt-spawner`. The checkpointer's
/// writer and compactor threads are unnamed, so they inherit that name,
/// which is how the CPU meter charges their time to the checkpointer.
///
/// # Errors
///
/// Whatever [`StoreBuilder::start`] returns.
///
/// # Panics
///
/// Panics if the spawner thread cannot be created or panics.
pub fn start_store(builder: StoreBuilder) -> Result<Store, EngineError> {
    std::thread::Builder::new()
        .name("ckpt-spawner".into())
        .spawn(move || builder.start())
        .expect("spawn store starter")
        .join()
        .expect("store starter thread")
}

/// Reopens a durable directory from a `ckpt-spawner` thread (see
/// [`start_store`]).
///
/// # Errors
///
/// Whatever [`Store::open`] returns.
///
/// # Panics
///
/// Panics if the spawner thread cannot be created or panics.
pub fn open_store(dir: &Path) -> Result<Store, EngineError> {
    let dir = dir.to_path_buf();
    std::thread::Builder::new()
        .name("ckpt-spawner".into())
        .spawn(move || Store::open(dir))
        .expect("spawn store opener")
        .join()
        .expect("store opener thread")
}

/// Reopens the closed durable directory `dir` `times` times (each
/// reopened store is killed, so nothing is written), checking that every
/// recovery restores `keys` keys and `events` events; a `setup` slice
/// runs before each reopen. Returns the open times in seconds and the
/// recovery's frame counts as per-layer metrics.
pub fn reopen_timed(
    dir: &Path,
    times: usize,
    (keys, events): (usize, u64),
    ops: &mut Ops,
    spans: &mut SpanLog,
    info: &mut Info,
    setup: &mut SetupSampler<'_>,
) -> (Vec<f64>, Metrics) {
    let mut secs = Vec::with_capacity(times);
    let mut layer = Metrics::default();
    for _ in 0..times {
        setup.slice();
        let t0 = Instant::now();
        let reopened = spans.time("engine.open", 0, || open_store(dir));
        secs.push(t0.elapsed().as_secs_f64());
        let Ok(store) = reopened else {
            ops.check("reopen", false);
            continue;
        };
        let rec = store.recovery().cloned();
        ops.check(
            "reopen restores the closed keys and events",
            rec.as_ref()
                .is_some_and(|r| r.keys == keys && r.events == events),
        );
        if let Some(r) = rec {
            info.insert(
                "recovery.frames".into(),
                format!("{} used, {} skipped", r.frames_used, r.frames_skipped),
            );
            layer.put("recovery.frames_used", r.frames_used as f64, "count");
            layer.put("recovery.frames_skipped", r.frames_skipped as f64, "count");
        }
        store.kill();
    }
    (secs, layer)
}

/// Per-layer figures of a checkpointer's write history.
#[must_use]
pub fn checkpoint_records(records: &[ac_engine::CheckpointRecord]) -> Metrics {
    let mut layer = Metrics::default();
    layer.put("checkpointer.frames", records.len() as f64, "count");
    layer.put(
        "checkpointer.bytes_written",
        records.iter().map(|r| r.bytes_len as f64).sum(),
        "bytes",
    );
    let write_ms: Vec<f64> = records.iter().map(|r| r.write_seconds * 1e3).collect();
    layer.put(
        "checkpointer.write_ms_p50",
        crate::stats::median(&write_ms),
        "ms",
    );
    layer
}

/// Total bytes of the regular files directly inside `dir`.
#[must_use]
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(std::fs::Metadata::is_file)
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Sleeps until `due` (no-op when already past).
pub fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// Everything a traced phase hands the layer replays and the per-layer
/// report, besides its own metrics.
#[derive(Debug)]
pub struct TraceData {
    pub spans: SpanLog,
    pub cpu: CpuMeter,
    /// Per-layer figures measured in the run itself.
    pub layer: Metrics,
    /// Wire-sized `(key, delta)` batches the run actually sent (a
    /// bounded prefix), for the layer replays.
    pub captured: Vec<Vec<(u64, u64)>>,
    /// The run's final state, for checkpoint encode and merge replays.
    pub final_snapshot: Option<ac_engine::EngineSnapshot<ac_engine::CounterFamily>>,
    /// The durable directory whose chain the compaction replay folds
    /// (`None`: the replay folds a chain it cuts itself).
    pub chain_dir: Option<PathBuf>,
}

/// The outcome of one measured phase of a workload.
#[derive(Debug)]
pub struct Phase {
    pub e2e: Metrics,
    pub ops: Ops,
    pub info: Info,
    /// The figure the trace overhead ratio compares, as a cost (higher
    /// is worse): nanoseconds per event for the closed loops, visible
    /// p50 for the open loop.
    pub cost: f64,
    pub trace: Option<TraceData>,
}

/// Splits per-event key slices into wire-sized coalesced batches.
#[must_use]
pub fn capture(slices: &[&[u64]], batch_pairs: usize) -> Vec<Vec<(u64, u64)>> {
    slices
        .iter()
        .flat_map(|slice| {
            crate::streams::coalesce(slice)
                .chunks(batch_pairs)
                .map(<[(u64, u64)]>::to_vec)
                .collect::<Vec<_>>()
        })
        .collect()
}
