//! `durable-serve`: an open loop into an in-process durable store. One
//! generator thread sends fixed-size write batches on a fixed schedule
//! (an offered rate far below what `ingest-local` sustains) while a
//! reader thread refreshes, reads point estimates on the same key
//! distribution and periodically takes the merged estimate. Checkpoints
//! are cut on a tight cadence and the chain is compacted. Then comes
//! `close()` and repeated `Store::open` of the directory, and last,
//! closed-loop bursts into a fresh durable store for the throughput
//! figure.

use crate::harness::{
    checkpoint_records, dir_bytes, reopen_timed, sleep_until, spec, start_store, timed_reads,
    Accuracy, Ctx, EndToEnd, Info, LagTracker, Metrics, Observer, Ops, Phase, SetupSampler,
    TraceData, POLL, READ_GROUP, SHARDS,
};
use crate::replay::{CAPTURE_EVENTS, WIRE_BATCH_PAIRS};
use crate::stats::{interquartile_mean, relative_iqr, summarize};
use crate::streams::{Inputs, StreamShape};
use crate::trace::{CpuMeter, SpanLog};
use ac_engine::{Store, StoreBuilder};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Offered load: `BATCH` events every `PERIOD` (500k events/s).
const BATCH: usize = 2_500;
const PERIOD: Duration = Duration::from_millis(5);
/// Checkpoint cadence (events) and compaction trigger (chain length).
const CHECKPOINT_EVERY: u64 = 500_000;
const MAX_CHAIN_LEN: usize = 4;
/// Point reads per reader pass, pause between passes, merged cadence.
const READS_PER_PASS: usize = 32;
const READER_PAUSE: Duration = Duration::from_millis(1);
const MERGED_EVERY: Duration = Duration::from_millis(500);
/// How long each set-up slice samples store starts (a slice runs before
/// the open loop, before each reopen and before each burst), and the
/// reopens per run for the recovery figure.
const SETUP_SLICE: Duration = Duration::from_millis(200);
const REOPENS: usize = 15;
/// Closed-loop bursts for the throughput figure (after one warm-up
/// burst): each sends this many events in chunks as fast as one writer
/// can, into a fresh durable store with the same checkpoint cadence.
const BURSTS: usize = 8;
const BURST_EVENTS: usize = 2_000_000;
const BURST_CHUNK: usize = 4_096;

#[must_use]
pub fn shape(ctx: &Ctx) -> StreamShape {
    StreamShape {
        keys: ctx.size(1_000_000, 20_000) as u64,
        zipf_s: 1.1,
        streams: 1,
        events_per_stream: ctx.size(4_000_000, 20_000),
        read_keys: ctx.size(8_192, 256),
    }
}

fn builder(ctx: &Ctx, dir: &Path) -> StoreBuilder {
    Store::builder(spec())
        .with_shards(SHARDS)
        .with_seed(ctx.store_seed())
        .with_durability(dir)
        .with_checkpoint_every_events(if ctx.tiny { 5_000 } else { CHECKPOINT_EVERY })
        .with_max_chain_len(MAX_CHAIN_LEN)
}

/// Events per second of each burst, from its first `record` until the
/// store's published replica shows all of it; a `setup` slice runs
/// before each burst.
fn burst_rates(ctx: &Ctx, stream: &[u64], ops: &mut Ops, setup: &mut SetupSampler<'_>) -> Vec<f64> {
    let dir = ctx.fresh_dir("burst");
    let store = start_store(builder(ctx, &dir)).expect("burst store starts");
    let (mut w, mut r) = (store.writer(), store.reader());
    let n = ctx.size(BURST_EVENTS, 10_000).min(stream.len());
    let mut rates = Vec::with_capacity(BURSTS);
    let mut sent = 0u64;
    // The first burst lands on an empty store and runs about twice as
    // fast as the rest: it is a warm-up, and not reported.
    for (i, burst) in stream.chunks_exact(n).cycle().take(BURSTS + 1).enumerate() {
        setup.slice();
        let t0 = Instant::now();
        for chunk in burst.chunks(BURST_CHUNK) {
            for &k in chunk {
                w.record(k, 1);
            }
            ops.check("burst send", w.send().is_ok());
        }
        ops.check("burst flush", w.flush().is_ok());
        sent += n as u64;
        let deadline = t0 + Duration::from_secs(60);
        while r.total_events() < sent && Instant::now() < deadline {
            std::thread::sleep(POLL);
            r.refresh();
        }
        if i > 0 {
            rates.push(n as f64 / t0.elapsed().as_secs_f64());
        }
        ops.check("burst visible", r.total_events() == sent);
    }
    drop((w, r));
    let report = store.close();
    ops.check(
        "burst store closes with every event",
        report.is_ok_and(|rep| rep.stats.events == sent),
    );
    let _ = std::fs::remove_dir_all(&dir);
    rates
}

/// What the reader thread measured.
#[derive(Debug, Default)]
struct ReaderOut {
    read_us: Vec<f64>,
    merged_ms: Vec<f64>,
    merged_failed: u64,
    /// Merged reads under writes are accuracy observations, not gates
    /// (see the README's accuracy note).
    accuracy: Accuracy,
}

/// What the generator thread measured.
#[derive(Debug, Default)]
struct GenOut {
    ack_ms: Vec<f64>,
    late_ms: Vec<f64>,
    failed: u64,
    generated: u64,
    inside_ns: u128,
    last_send: Option<Instant>,
    spans: Option<SpanLog>,
}

#[must_use]
pub fn run(ctx: &Ctx, inputs: &Inputs, traced: bool) -> Phase {
    let mut ops = Ops::default();
    let mut info = Info::new();
    let mut spans = SpanLog::new(crate::harness_origin(), traced);

    // Set-up: fresh durable stores, each killed untimed (so no
    // close-time frame is written), in slices between the phases.
    let mut setup = SetupSampler::new(ctx, SETUP_SLICE, || {
        let dir = ctx.fresh_dir("setup");
        let t0 = Instant::now();
        let store = start_store(builder(ctx, &dir)).ok()?;
        let took = t0.elapsed().as_secs_f64();
        store.kill();
        Some(took)
    });
    setup.slice();
    let dir = ctx.fresh_dir("store");
    let t0 = Instant::now();
    let store = spans.time("engine.setup", 0, || start_store(builder(ctx, &dir)));
    setup.samples.push(t0.elapsed().as_secs_f64());
    let store = store.expect("durable store starts");
    let mut cpu = CpuMeter::start();

    let stream = &inputs.streams[0];
    let accepted = AtomicU64::new(0);
    let gen_done = AtomicBool::new(false);
    let stop_reader = AtomicBool::new(false);
    let visible = LagTracker::default();
    let lag = LagTracker::default();
    let barrier = Barrier::new(3);
    let origin = crate::harness_origin();
    let run_for = Duration::from_secs_f64(ctx.seconds);
    let mut backlog = Vec::new();
    let mut ckpt_lag = Vec::new();

    let (gen, reader_out, seen) = std::thread::scope(|s| {
        let (store_ref, accepted, visible, barrier, gen_done, stop_reader) = (
            &store,
            &accepted,
            &visible,
            &barrier,
            &gen_done,
            &stop_reader,
        );
        let generator = std::thread::Builder::new()
            .name("bench-gen-0".into())
            .spawn_scoped(s, move || {
                let mut out = GenOut::default();
                let mut log = SpanLog::new(origin, traced);
                let mut w = store_ref.writer();
                let batches = stream.chunks(BATCH).cycle();
                barrier.wait();
                let start = Instant::now();
                for (i, batch) in batches.enumerate() {
                    let due = start + PERIOD * i as u32;
                    if due.duration_since(start) >= run_for {
                        break;
                    }
                    sleep_until(due);
                    let t0 = Instant::now();
                    out.late_ms
                        .push(t0.saturating_duration_since(due).as_secs_f64() * 1e3);
                    for &k in batch {
                        w.record(k, 1);
                    }
                    let sent = w.send();
                    let t1 = Instant::now();
                    out.failed += u64::from(sent.is_err());
                    out.inside_ns += (t1 - t0).as_nanos();
                    // From the send's start, not its due time: how late
                    // the generator woke is the host's scheduling, kept
                    // in `late_ms` (the visibility clock still starts at
                    // the due time).
                    out.ack_ms.push((t1 - t0).as_secs_f64() * 1e3);
                    log.record("engine.ingest.batch", i as u64, t0, t1);
                    let n = batch.len() as u64;
                    out.generated += n;
                    visible.ask(due, accepted.fetch_add(n, Ordering::SeqCst) + n);
                    out.last_send = Some(t1);
                }
                out.failed += u64::from(w.flush().is_err());
                gen_done.store(true, Ordering::SeqCst);
                out.spans = Some(log);
                out
            })
            .expect("spawn generator");
        let reader = std::thread::Builder::new()
            .name("bench-read".into())
            .spawn_scoped(s, move || {
                let mut out = ReaderOut::default();
                let mut r = store_ref.reader();
                let keys = &inputs.read_keys;
                let mut next_key = 0usize;
                barrier.wait();
                let mut next_merged = Instant::now() + MERGED_EVERY / 2;
                while !stop_reader.load(Ordering::SeqCst) {
                    r.refresh();
                    let start = next_key % (keys.len() - READS_PER_PASS + 1);
                    next_key += READS_PER_PASS;
                    timed_reads(&r, &keys[start..start + READS_PER_PASS], &mut out.read_us);
                    if Instant::now() >= next_merged {
                        let t0 = Instant::now();
                        let est = r.merged_estimate();
                        out.merged_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                        match est {
                            Ok(e) => {
                                out.accuracy.record(e, r.total_events());
                            }
                            Err(_) => out.merged_failed += 1,
                        }
                        next_merged += MERGED_EVERY;
                    }
                    std::thread::sleep(READER_PAUSE);
                }
                out
            })
            .expect("spawn reader");

        let mut r = store_ref.reader();
        barrier.wait();
        let observer = Observer {
            visible,
            lag: &lag,
            traced,
            deadline: Instant::now() + run_for + Duration::from_secs(60),
        };
        let (backlog, ckpt_lag) = (&mut backlog, &mut ckpt_lag);
        let seen = observer.run(
            &mut r,
            || (!gen_done.load(Ordering::SeqCst)).then(|| accepted.load(Ordering::SeqCst)),
            |_, now, stats_due| {
                // This workload's replica is the one on disk: the lag
                // runs until the newest durable frame covers the noted
                // count. (`Store::stats` takes the ingest registry lock,
                // so it is read on the stats cadence only.)
                if !stats_due {
                    return;
                }
                let st = store_ref.stats();
                let durable = st.checkpointer.map_or(0, |c| c.last_checkpoint_events);
                lag.observe(durable, now);
                if traced {
                    let applied = st.ingest.applied_events;
                    backlog.push(st.ingest.enqueued_events.saturating_sub(applied) as f64);
                    ckpt_lag.push(applied.saturating_sub(durable) as f64);
                }
            },
            |total| gen_done.load(Ordering::SeqCst) && total >= accepted.load(Ordering::SeqCst),
        );
        let gen = generator.join().expect("generator thread");
        stop_reader.store(true, Ordering::SeqCst);
        let reader_out = reader.join().expect("reader thread");
        if let Some(t) = seen.t_visible {
            visible.observe(gen.generated, t);
        }
        (gen, reader_out, seen)
    });
    let t_visible = seen.t_visible;

    let generated = gen.generated;
    ops.bulk(
        "write batch send/flush",
        gen.ack_ms.len() as u64 + 1,
        gen.failed,
    );
    ops.check("all generated events visible", t_visible.is_some());
    ops.check("visibility targets resolved", visible.unresolved() == 0);
    ops.bulk(
        "point read",
        (reader_out.read_us.len() * READ_GROUP) as u64,
        0,
    );
    ops.bulk(
        "merged estimate under writes",
        reader_out.merged_ms.len() as u64,
        reader_out.merged_failed,
    );
    let t_visible = t_visible.unwrap_or_else(Instant::now);

    let mut r = store.reader();
    r.refresh();
    ops.check(
        "exactly-once: applied == generated",
        r.total_events() == generated,
    );
    let mut accuracy = reader_out.accuracy.clone();
    let final_merged = r.merged_estimate();
    ops.check(
        "final merged estimate within eps of the exact total",
        final_merged.is_ok_and(|e| accuracy.record(e, generated)),
    );
    let snapshot = r.snapshot().clone();
    let st = store.stats();
    ops.check("no dropped events", st.ingest.dropped_events == 0);
    if traced {
        cpu.sample();
    }
    let report = spans.time("engine.close", 0, || store.close());
    // The close-time frame makes the stream's tail durable.
    lag.observe(u64::MAX, Instant::now());
    let (keys, closed_events, records) = match &report {
        Ok(rep) => (
            rep.stats.keys,
            rep.stats.events,
            rep.checkpoints
                .as_ref()
                .map_or(Vec::new(), |c| c.records.clone()),
        ),
        Err(_) => (0, 0, Vec::new()),
    };
    ops.check("close", report.is_ok());
    ops.check("close reports every event", closed_events == generated);
    let state_bits = report.as_ref().map_or(0.0, |r| r.stats.bits_per_key());
    let disk_bits = dir_bytes(&dir) as f64 * 8.0 / keys.max(1) as f64;

    // Recovery: reopen the closed directory several times.
    let (recovery_s, recovery_layer) = reopen_timed(
        &dir,
        REOPENS,
        (keys, closed_events),
        &mut ops,
        &mut spans,
        &mut info,
        &mut setup,
    );

    // The open loop's throughput is its offered rate; the rate reported
    // is the store's durable ingest capacity, from closed-loop bursts.
    let rates = burst_rates(ctx, stream, &mut ops, &mut setup);
    let _ = std::fs::remove_dir_all(ctx.work.join("setup"));
    info.insert(
        "burst_rate_relative_iqr".into(),
        format!("{:.4}", relative_iqr(&rates).unwrap_or(0.0)),
    );

    let vis = summarize(&visible.take());
    let late = summarize(&gen.late_ms);
    let e2e = EndToEnd {
        setup_s: setup.finish(&mut ops),
        rate: interquartile_mean(&rates),
        ack: summarize(&gen.ack_ms),
        visible: vis,
        replica_lag: summarize(&lag.take()),
        read: summarize(&reader_out.read_us),
        merged_read_ms: summarize(&reader_out.merged_ms).p50,
        merged_reads: reader_out.merged_ms.len(),
        recovery_s,
        state_bits,
        disk_bits,
    }
    .report(&mut info);

    info.insert(
        "offered_events_per_s".into(),
        format!("{:.0}", BATCH as f64 / PERIOD.as_secs_f64()),
    );
    info.insert("generated".into(), generated.to_string());
    info.insert("keys_at_close".into(), keys.to_string());
    info.insert("checkpoint_frames".into(), records.len().to_string());
    info.insert(
        "gen_late".into(),
        format!("p50={:.4} p99={:.4}", late.p50, late.p99),
    );

    let accuracy_layer = accuracy.report(&mut info);
    let trace = traced.then(|| {
        let mut layer = Metrics::default();
        layer.put(
            "ingest.writer_ns_per_event",
            gen.inside_ns as f64 / generated.max(1) as f64,
            "ns",
        );
        layer.put(
            "ingest.folded_pair_ratio",
            st.ingest.folded_pairs as f64 / generated.max(1) as f64,
            "ratio",
        );
        layer.put(
            "ingest.backlog_events_p99",
            summarize(&backlog).p99,
            "events",
        );
        layer.put(
            "ingest.dropped_events",
            st.ingest.dropped_events as f64,
            "events",
        );
        let drain = gen.last_send.map_or(0.0, |t| {
            t_visible.saturating_duration_since(t).as_secs_f64() * 1e3
        });
        layer.put("apply.drain_ms", drain, "ms");
        layer.put("snapshot.publishes", seen.epochs as f64, "count");
        layer.put(
            "snapshot.refresh_us_p50",
            summarize(&seen.refresh_us).p50,
            "us",
        );
        if let Some(c) = st.checkpointer {
            layer.put("checkpointer.compactions", c.compactions as f64, "count");
        }
        layer.absorb(checkpoint_records(&records));
        layer.put(
            "checkpointer.lag_events_p99",
            summarize(&ckpt_lag).p99,
            "events",
        );
        layer.absorb(recovery_layer);
        layer.put("bench.gen_late_p99_ms", late.p99, "ms");
        layer.absorb(accuracy_layer);
        let mut all = spans;
        all.absorb(seen.spans);
        if let Some(g) = gen.spans {
            all.absorb(g);
        }
        let sent = (generated as usize).min(stream.len()).min(CAPTURE_EVENTS);
        TraceData {
            spans: all,
            cpu,
            layer,
            captured: crate::harness::capture(&[&stream[..sent]], WIRE_BATCH_PAIRS),
            final_snapshot: Some(snapshot),
            chain_dir: Some(dir.clone()),
        }
    });

    Phase {
        e2e,
        ops,
        info,
        cost: vis.p50,
        trace,
    }
}
