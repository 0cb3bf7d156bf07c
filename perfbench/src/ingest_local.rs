//! `ingest-local`: a closed loop of two in-process `StoreWriter`
//! threads pushing Zipf(1.1) keys over a 1M-key space into a store
//! with no durability. The run is a sequence of identical rounds, each
//! on a fresh store, until `--seconds` have passed (after one untimed
//! warm-up round); figures are interquartile means over rounds,
//! latencies are summarized over windows of the pooled samples (see
//! `stats::Summary`).

use crate::harness::{
    capture, spec, timed_reads, Accuracy, Ctx, EndToEnd, Info, LagTracker, Metrics, Observer, Ops,
    Phase, TraceData, SHARDS,
};
use crate::stats::{interquartile_mean, summarize};
use crate::streams::{Inputs, StreamShape};
use crate::trace::{CpuMeter, SpanLog};
use ac_engine::{checkpoint_snapshot, restore_checkpoint, CounterFamily, EngineSnapshot, Store};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// Events per chunk: a writer records this many keys, then `send()`s.
const CHUNK: usize = 4096;

#[must_use]
pub fn shape(ctx: &Ctx) -> StreamShape {
    StreamShape {
        keys: ctx.size(1_000_000, 20_000) as u64,
        zipf_s: 1.1,
        streams: 2,
        events_per_stream: ctx.size(4_000_000, 20_000),
        read_keys: ctx.size(32_768, 256),
    }
}

/// Per-round measurements.
#[derive(Debug, Default)]
struct Round {
    setup_s: f64,
    rate: f64,
    drain_ms: f64,
    merged_ms: f64,
    recovery_s: f64,
    state_bits: f64,
    disk_bits: f64,
    ack_ms: Vec<f64>,
    visible_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    read_us: Vec<f64>,
    /// Traced only.
    writer_ns: f64,
    refresh_us: Vec<f64>,
    backlog: Vec<f64>,
    epochs: u64,
    folded_pairs: u64,
    dropped_events: u64,
    accuracy: Accuracy,
}

/// What a round leaves for the replays.
struct Leftover {
    snapshot: EngineSnapshot<CounterFamily>,
    sent: Vec<usize>,
}

fn round(
    ctx: &Ctx,
    inputs: &Inputs,
    ops: &mut Ops,
    traced: bool,
    spans: &mut SpanLog,
    cpu: &mut CpuMeter,
) -> (Round, Leftover) {
    let mut out = Round::default();
    let generated: u64 = inputs.streams.iter().map(|s| s.len() as u64).sum();

    let t_setup = Instant::now();
    spans.begin("engine.setup", 0);
    let store = Store::builder(spec())
        .with_shards(SHARDS)
        .with_seed(ctx.store_seed())
        .start()
        .expect("in-memory store starts");
    spans.end();
    out.setup_s = t_setup.elapsed().as_secs_f64();

    let accepted = AtomicU64::new(0);
    let visible = LagTracker::default();
    let lag = LagTracker::default();
    let barrier = Barrier::new(inputs.streams.len() + 1);
    let last_flush = Mutex::new(None::<Instant>);
    let mut reader = store.reader();
    let origin = crate::harness_origin();

    let (writer_results, t_first, seen) = std::thread::scope(|s| {
        let handles: Vec<_> = inputs
            .streams
            .iter()
            .enumerate()
            .map(|(g, stream)| {
                let (store, accepted, visible, barrier, last_flush) =
                    (&store, &accepted, &visible, &barrier, &last_flush);
                std::thread::Builder::new()
                    .name(format!("bench-gen-{g}"))
                    .spawn_scoped(s, move || {
                        let mut log = SpanLog::new(origin, traced);
                        let mut w = store.writer();
                        let mut ack = Vec::with_capacity(stream.len() / CHUNK + 1);
                        let mut failed = 0u64;
                        let mut inside_ns = 0u128;
                        barrier.wait();
                        for (i, chunk) in stream.chunks(CHUNK).enumerate() {
                            let t0 = Instant::now();
                            for &k in chunk {
                                w.record(k, 1);
                            }
                            let sent = w.send();
                            let t1 = Instant::now();
                            failed += u64::from(sent.is_err());
                            inside_ns += (t1 - t0).as_nanos();
                            ack.push((t1 - t0).as_secs_f64() * 1e3);
                            log.record("engine.ingest.chunk", (g << 32 | i) as u64, t0, t1);
                            let n = chunk.len() as u64;
                            visible.ask(t0, accepted.fetch_add(n, Ordering::SeqCst) + n);
                        }
                        let t0 = Instant::now();
                        let flushed = w.flush();
                        let t1 = Instant::now();
                        inside_ns += (t1 - t0).as_nanos();
                        let mut lf = last_flush.lock().expect("flush time");
                        *lf = Some(lf.map_or(t1, |prev: Instant| prev.max(t1)));
                        (ack, failed + u64::from(flushed.is_err()), inside_ns, log)
                    })
                    .expect("spawn generator")
            })
            .collect();

        barrier.wait();
        let t_first = Instant::now();
        let observer = Observer {
            visible: &visible,
            lag: &lag,
            traced,
            deadline: t_first + Duration::from_secs(120),
        };
        let backlog = &mut out.backlog;
        let seen = observer.run(
            &mut reader,
            || Some(accepted.load(Ordering::SeqCst)),
            |total, now, stats_due| {
                lag.observe(total, now);
                if traced && stats_due {
                    let st = store.stats();
                    backlog.push(
                        st.ingest
                            .enqueued_events
                            .saturating_sub(st.ingest.applied_events)
                            as f64,
                    );
                }
            },
            |total| total >= generated,
        );
        let results: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("generator thread"))
            .collect();
        // A writer asks about its last chunk after handing it over, so
        // the observer may have seen it before the question arrived.
        if let Some(t) = seen.t_visible {
            visible.observe(generated, t);
        }
        (results, t_first, seen)
    });
    let t_visible = seen.t_visible;
    out.refresh_us = seen.refresh_us;
    out.epochs = seen.epochs;
    spans.absorb(seen.spans);

    let mut writer_ns = 0u128;
    for (ack, failed, inside, log) in writer_results {
        ops.bulk("write chunk send/flush", ack.len() as u64 + 1, failed);
        out.ack_ms.extend(ack);
        writer_ns += inside;
        spans.absorb(log);
    }
    out.writer_ns = writer_ns as f64 / generated as f64;
    ops.check("all generated events visible", t_visible.is_some());
    let t_visible = t_visible.unwrap_or_else(Instant::now);
    out.rate = generated as f64 / (t_visible - t_first).as_secs_f64();
    let flushed_at = last_flush.lock().expect("flush time").unwrap_or(t_visible);
    out.drain_ms = t_visible
        .saturating_duration_since(flushed_at)
        .as_secs_f64()
        * 1e3;
    ops.check(
        "lag targets resolved",
        visible.unresolved() == 0 && lag.unresolved() == 0,
    );
    out.visible_ms = visible.take();
    out.lag_ms = lag.take();

    // Reads on the final state.
    reader.refresh();
    ops.check(
        "exactly-once: applied == generated",
        reader.total_events() == generated,
    );
    let t0 = Instant::now();
    let merged = spans.time("engine.snapshot.merged_estimate", 0, || {
        reader.merged_estimate()
    });
    out.merged_ms = t0.elapsed().as_secs_f64() * 1e3;
    ops.check(
        "merged estimate within eps of the exact total",
        merged.is_ok_and(|est| out.accuracy.record(est, generated)),
    );
    spans.begin("engine.snapshot.point_reads", 0);
    let hits = timed_reads(&reader, &inputs.read_keys, &mut out.read_us);
    spans.end();
    ops.bulk("point read", inputs.read_keys.len() as u64, 0);
    ops.check("hot point reads hit", hits > 0);

    // No durability here: recovery is restoring a checkpoint of the
    // final state from memory, and "disk" is that checkpoint's size.
    let snapshot = reader.snapshot().clone();
    let ckpt = checkpoint_snapshot(&snapshot);
    let t0 = Instant::now();
    let restored = spans.time("engine.checkpoint.restore", 0, || {
        restore_checkpoint(&spec().build().expect("spec builds"), ckpt.bytes())
    });
    out.recovery_s = t0.elapsed().as_secs_f64();
    ops.check(
        "restore reproduces keys and events",
        restored
            .as_ref()
            .is_ok_and(|e| e.len() == snapshot.len() && e.total_events() == generated),
    );
    let keys = snapshot.len().max(1) as f64;
    out.disk_bits = ckpt.bytes().len() as f64 * 8.0 / keys;

    let st = store.stats();
    out.folded_pairs = st.ingest.folded_pairs;
    out.dropped_events = st.ingest.dropped_events;
    if traced {
        cpu.sample();
    }
    let report = spans.time("engine.close", 0, || store.close());
    match report {
        Ok(r) => {
            out.state_bits = r.stats.bits_per_key();
            ops.check("close reports every event", r.stats.events == generated);
            ops.check("no dropped events", r.stats.dropped_events == 0);
        }
        Err(_) => ops.check("close", false),
    }
    let sent = inputs.streams.iter().map(Vec::len).collect();
    (out, Leftover { snapshot, sent })
}

/// Runs warm-up plus timed rounds for `ctx.seconds`.
#[must_use]
pub fn run(ctx: &Ctx, inputs: &Inputs, traced: bool) -> Phase {
    let mut ops = Ops::default();
    let mut spans = SpanLog::new(crate::harness_origin(), traced);
    let mut warmup_spans = SpanLog::new(crate::harness_origin(), false);
    let mut warmup_cpu = CpuMeter::default();
    // Warm-up: first-touch allocation and cold caches are not what a
    // long-running ingest path pays per event.
    let mut warm_ops = Ops::default();
    let _ = round(
        ctx,
        inputs,
        &mut warm_ops,
        false,
        &mut warmup_spans,
        &mut warmup_cpu,
    );
    ops.merge(warm_ops);
    let mut cpu = CpuMeter::start();

    let start = Instant::now();
    let mut rounds = Vec::new();
    let mut leftover = None;
    while rounds.len() < 3 || start.elapsed().as_secs_f64() < ctx.seconds {
        let (r, left) = round(ctx, inputs, &mut ops, traced, &mut spans, &mut cpu);
        rounds.push(r);
        leftover = Some(left);
    }
    let leftover = leftover.expect("at least one round");

    let col = |f: fn(&Round) -> f64| interquartile_mean(&rounds.iter().map(f).collect::<Vec<_>>());
    let pool = |f: fn(&Round) -> &Vec<f64>| rounds.iter().flat_map(f).copied().collect::<Vec<_>>();
    let rate = col(|r| r.rate);
    let mut info = Info::new();
    let e2e = EndToEnd {
        setup_s: rounds.iter().map(|r| r.setup_s).collect(),
        rate,
        ack: summarize(&pool(|r| &r.ack_ms)),
        visible: summarize(&pool(|r| &r.visible_ms)),
        replica_lag: summarize(&pool(|r| &r.lag_ms)),
        read: summarize(&pool(|r| &r.read_us)),
        merged_read_ms: col(|r| r.merged_ms),
        merged_reads: rounds.len(),
        recovery_s: rounds.iter().map(|r| r.recovery_s).collect(),
        state_bits: col(|r| r.state_bits),
        disk_bits: col(|r| r.disk_bits),
    }
    .report(&mut info);
    info.insert("rounds".into(), rounds.len().to_string());
    info.insert(
        "events_per_round".into(),
        (inputs.streams.len() * inputs.streams[0].len()).to_string(),
    );
    info.insert(
        "rate_relative_iqr_over_rounds".into(),
        format!(
            "{:.4}",
            crate::stats::relative_iqr(&rounds.iter().map(|r| r.rate).collect::<Vec<_>>())
                .unwrap_or(0.0)
        ),
    );

    let mut accuracy = Accuracy::default();
    for r in &rounds {
        accuracy.extend(&r.accuracy);
    }
    let accuracy_layer = accuracy.report(&mut info);
    let trace = traced.then(|| {
        let mut layer = Metrics::default();
        let events: f64 =
            rounds.len() as f64 * inputs.streams.iter().map(Vec::len).sum::<usize>() as f64;
        layer.put("ingest.writer_ns_per_event", col(|r| r.writer_ns), "ns");
        layer.put(
            "ingest.folded_pair_ratio",
            rounds.iter().map(|r| r.folded_pairs as f64).sum::<f64>() / events,
            "ratio",
        );
        layer.put(
            "ingest.backlog_events_p99",
            summarize(&pool(|r| &r.backlog)).p99,
            "events",
        );
        layer.put(
            "ingest.dropped_events",
            rounds.iter().map(|r| r.dropped_events as f64).sum(),
            "events",
        );
        layer.put("apply.drain_ms", col(|r| r.drain_ms), "ms");
        layer.put(
            "snapshot.publishes",
            rounds.iter().map(|r| r.epochs as f64).sum(),
            "count",
        );
        layer.put(
            "snapshot.refresh_us_p50",
            summarize(&pool(|r| &r.refresh_us)).p50,
            "us",
        );
        layer.absorb(accuracy_layer);
        layer.put("recovery.frames_used", 1.0, "count");
        layer.put("recovery.frames_skipped", 0.0, "count");
        let half = crate::replay::CAPTURE_EVENTS / leftover.sent.len();
        let slices: Vec<&[u64]> = inputs
            .streams
            .iter()
            .zip(&leftover.sent)
            .map(|(s, &n)| &s[..n.min(half)])
            .collect();
        TraceData {
            spans,
            cpu,
            layer,
            captured: capture(&slices, crate::replay::WIRE_BATCH_PAIRS),
            final_snapshot: Some(leftover.snapshot),
            chain_dir: None,
        }
    });

    Phase {
        e2e,
        ops,
        info,
        cost: 1e9 / rate,
        trace,
    }
}
