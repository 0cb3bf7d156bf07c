//! `net-replicated`: a closed loop of two `NetWriter` clients over
//! loopback into a `StoreServer` fronting a durable store (checkpoint
//! cadence plus chain compaction) with one `ReplicaNode` attached. Each
//! client records a fixed-size chunk, then `flush()`es and waits for the
//! server's ack. After the stream a `RemoteReader` issues point-estimate
//! RPCs; the run ends with shutdown and repeated `Store::open` of the
//! primary's directory.

use crate::harness::{
    checkpoint_records, dir_bytes, reopen_timed, spec, start_store, Accuracy, Ctx, EndToEnd, Info,
    LagTracker, Metrics, Observer, Ops, Phase, SetupSampler, TraceData, POLL, SHARDS, STATS_EVERY,
};
use crate::replay::{CAPTURE_EVENTS, WIRE_BATCH_PAIRS};
use crate::stats::summarize;
use crate::streams::{Inputs, StreamShape};
use crate::trace::{CpuMeter, SpanLog};
use ac_engine::{Manifest, Store, StoreBuilder, StoreReport};
use ac_net::{
    Identity, NetWriter, ReplicaConfig, ReplicaNode, ServerConfig, StoreClient, StoreServer,
    WriterConfig,
};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Events a client records before each `flush()`.
const CHUNK: usize = 4096;
/// The run sends `--seconds` × this many events in total (fixed work,
/// so the checkpoint and replication cadences fire the same number of
/// times in every run; at the measured rate it takes about that long).
const EVENTS_PER_SECOND: f64 = 1_200_000.0;
const CHECKPOINT_EVERY: u64 = 2_000_000;
const TINY_CHECKPOINT_EVERY: u64 = 5_000;
const MAX_CHAIN_LEN: usize = 4;
/// The server cuts a replication delta every this many events.
const DELTA_EVERY: u64 = 2_000_000;
/// Chain length (segments) at which the server and the replica compact
/// their replication chains.
const MAX_SEGMENTS: usize = 4;
/// Merged-estimate RPCs after each read burst (the first of the run is
/// the cold fold).
const MERGED_PER_BURST: usize = 5;
/// `RemoteReader::stats` RPCs for the server round-trip floor.
const FLOOR_RPCS: usize = 1_000;
/// How long the durability directory must stay unchanged before the
/// checkpointer counts as idle.
const QUIET: Duration = Duration::from_millis(1_500);
const REOPENS: usize = 15;
/// Read RPCs per burst. A set-up slice of node starts runs before the
/// stream, after each read burst and before each reopen.
const READ_BURST: usize = 1_000;
const SETUP_SLICE: Duration = Duration::from_millis(100);

#[must_use]
pub fn shape(ctx: &Ctx) -> StreamShape {
    StreamShape {
        keys: ctx.size(1_000_000, 20_000) as u64,
        zipf_s: 1.1,
        streams: 2,
        events_per_stream: ctx.size(3_000_000, 20_000),
        read_keys: ctx.size(40_000, 256),
    }
}

fn identity(ctx: &Ctx) -> Identity {
    Identity {
        spec: spec(),
        shards: SHARDS as u32,
        seed: ctx.store_seed(),
    }
}

fn builder(ctx: &Ctx, dir: &Path) -> StoreBuilder {
    Store::builder(spec())
        .with_shards(SHARDS)
        .with_seed(ctx.store_seed())
        .with_durability(dir)
        .with_checkpoint_every_events(if ctx.tiny {
            TINY_CHECKPOINT_EVERY
        } else {
            CHECKPOINT_EVERY
        })
        .with_max_chain_len(MAX_CHAIN_LEN)
}

/// A started node: the server (owning the store), its replica and two
/// connected writers. (The reader connects once the writers have
/// closed: at most two client connections are open at once.)
struct Node {
    server: StoreServer,
    replica: ReplicaNode,
    writers: Vec<NetWriter>,
}

fn start_node(ctx: &Ctx, dir: &Path) -> Result<Node, String> {
    let store = start_store(builder(ctx, dir)).map_err(|e| e.to_string())?;
    let config = ServerConfig {
        delta_every_events: if ctx.tiny { 4_096 } else { DELTA_EVERY },
        cut_poll: Duration::from_millis(2),
        max_chain_segments: MAX_SEGMENTS,
    };
    let server =
        StoreServer::start_with(store, "127.0.0.1:0", config).map_err(|e| e.to_string())?;
    let addr = server.local_addr();
    let replica = ReplicaNode::connect_with(
        addr,
        identity(ctx),
        ReplicaConfig {
            max_chain_segments: MAX_SEGMENTS,
            retry: Duration::from_millis(200),
        },
    )
    .map_err(|e| e.to_string())?;
    let client = StoreClient::new(addr, identity(ctx)).map_err(|e| e.to_string())?;
    let writers = (0..2)
        .map(|_| client.writer(WriterConfig::default()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    Ok(Node {
        server,
        replica,
        writers,
    })
}

fn stop_node(node: Node) -> Result<StoreReport, String> {
    let Node {
        server,
        mut replica,
        writers,
    } = node;
    for w in writers {
        w.close().map_err(|e| e.to_string())?;
    }
    replica.shutdown();
    server.shutdown().map_err(|e| e.to_string())
}

/// Waits until the manifest in `dir` lists a frame covering `events`
/// and the directory then stays unchanged for [`QUIET`] (a compaction
/// ends by rewriting the manifest). False after a minute.
fn wait_checkpoints_settled(dir: &Path, events: u64) -> bool {
    let deadline = Instant::now() + Duration::from_secs(60);
    let signature = || {
        let covered =
            Manifest::load(dir).is_ok_and(|m| m.frames.iter().any(|f| f.events >= events));
        (
            covered,
            dir_bytes(dir),
            std::fs::read_dir(dir).map_or(0, Iterator::count),
        )
    };
    let mut last = signature();
    let mut since = Instant::now();
    while Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(50));
        let now = signature();
        if now != last {
            last = now;
            since = Instant::now();
        } else if last.0 && since.elapsed() >= QUIET {
            return true;
        }
    }
    false
}

/// What one client thread measured.
#[derive(Debug, Default)]
struct ClientOut {
    ack_ms: Vec<f64>,
    failed: u64,
    sent: usize,
    record_ns: u128,
    last_ack: Option<Instant>,
    spans: Option<SpanLog>,
}

#[must_use]
pub fn run(ctx: &Ctx, inputs: &Inputs, traced: bool) -> Phase {
    let mut ops = Ops::default();
    let mut info = Info::new();
    let mut spans = SpanLog::new(crate::harness_origin(), traced);

    // Set-up: store, server, replica and client connects, each node
    // stopped untimed, in slices between the phases.
    let mut setup = SetupSampler::new(ctx, SETUP_SLICE, || {
        let dir = ctx.fresh_dir("setup");
        let t0 = Instant::now();
        let node = start_node(ctx, &dir).ok()?;
        let took = t0.elapsed().as_secs_f64();
        stop_node(node).ok().map(|_| took)
    });
    setup.slice();
    let dir = ctx.fresh_dir("primary");
    let t0 = Instant::now();
    let node = spans.time("net.setup", 0, || start_node(ctx, &dir));
    setup.samples.push(t0.elapsed().as_secs_f64());
    let Node {
        server,
        mut replica,
        writers,
    } = node.expect("primary node starts");
    let mut cpu = CpuMeter::start();

    let acked = AtomicU64::new(0);
    let running = AtomicUsize::new(writers.len());
    let visible = LagTracker::default();
    let lag = LagTracker::default();
    let barrier = Barrier::new(writers.len() + 1);
    let origin = crate::harness_origin();
    let run_for = Duration::from_secs_f64(ctx.seconds);
    let per_client = if ctx.tiny {
        40_000
    } else {
        (ctx.seconds * EVENTS_PER_SECOND) as usize / 2
    };
    let chunks_per_client = per_client.div_ceil(CHUNK);
    let mut local = server.reader();
    let mut replica_lag_events = Vec::new();

    let (clients, open_writers, t_first, seen, t_replica) = std::thread::scope(|s| {
        let handles: Vec<_> = writers
            .into_iter()
            .zip(&inputs.streams)
            .enumerate()
            .map(|(g, (mut w, stream))| {
                let (acked, running, visible, barrier) = (&acked, &running, &visible, &barrier);
                std::thread::Builder::new()
                    .name(format!("bench-gen-{g}"))
                    .spawn_scoped(s, move || {
                        let mut out = ClientOut::default();
                        let mut log = SpanLog::new(origin, traced);
                        barrier.wait();
                        let chunks = stream.chunks(CHUNK).cycle().take(chunks_per_client);
                        for (i, chunk) in chunks.enumerate() {
                            let id = (g << 32 | i) as u64;
                            let t0 = Instant::now();
                            for &k in chunk {
                                w.record(k, 1);
                            }
                            let t1 = Instant::now();
                            let flushed = w.flush();
                            let t2 = Instant::now();
                            log.record("net.client.record", id, t0, t1);
                            log.record("net.client.flush", id, t1, t2);
                            out.record_ns += (t1 - t0).as_nanos();
                            out.failed += u64::from(flushed.is_err());
                            out.ack_ms.push((t2 - t0).as_secs_f64() * 1e3);
                            out.last_ack = Some(t2);
                            let n = chunk.len() as u64;
                            out.sent += chunk.len();
                            visible.ask(t0, acked.fetch_add(n, Ordering::SeqCst) + n);
                        }
                        running.fetch_sub(1, Ordering::SeqCst);
                        out.spans = Some(log);
                        // Closed after the CPU sample, so the writer's
                        // I/O threads are still there to be read.
                        (out, w)
                    })
                    .expect("spawn client")
            })
            .collect();

        // The replica is watched from its own thread: a replica read
        // blocks while a segment folds, which must not stall the
        // primary's visibility clock.
        let replica_ref = &replica;
        let (lag_ref, running_ref, acked_ref) = (&lag, &running, &acked);
        let watcher = std::thread::Builder::new()
            .name("bench-replica-obs".into())
            .spawn_scoped(s, move || {
                let mut lag_events = Vec::new();
                let mut next_stats = Instant::now();
                let deadline = Instant::now() + run_for + Duration::from_secs(90);
                loop {
                    std::thread::sleep(POLL);
                    let mirrored = replica_ref.total_events();
                    let now = Instant::now();
                    lag_ref.observe(mirrored, now);
                    if traced && now >= next_stats {
                        let a = acked_ref.load(Ordering::SeqCst);
                        lag_events.push(a.saturating_sub(mirrored) as f64);
                        next_stats = now + STATS_EVERY;
                    }
                    if running_ref.load(Ordering::SeqCst) == 0
                        && mirrored >= acked_ref.load(Ordering::SeqCst)
                    {
                        break (Some(now), lag_events);
                    }
                    if now > deadline {
                        break (None, lag_events);
                    }
                }
            })
            .expect("spawn replica watcher");

        barrier.wait();
        let t_first = Instant::now();
        let observer = Observer {
            visible: &visible,
            lag: &lag,
            traced,
            deadline: t_first + run_for + Duration::from_secs(90),
        };
        let seen = observer.run(
            &mut local,
            || Some(acked.load(Ordering::SeqCst)),
            |_, _, _| {},
            |total| running.load(Ordering::SeqCst) == 0 && total >= acked.load(Ordering::SeqCst),
        );
        let (clients, open_writers): (Vec<ClientOut>, Vec<NetWriter>) = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .unzip();
        let (t_replica, lag_events) = watcher.join().expect("replica watcher");
        replica_lag_events = lag_events;
        let all = acked.load(Ordering::SeqCst);
        if let Some(t) = seen.t_visible {
            visible.observe(all, t);
        }
        if let Some(t) = t_replica {
            lag.observe(all, t);
        }
        (clients, open_writers, t_first, seen, t_replica)
    });
    let t_visible = seen.t_visible;

    let generated: u64 = clients.iter().map(|c| c.sent as u64).sum();
    for c in &clients {
        ops.bulk("chunk flush acked", c.ack_ms.len() as u64 + 1, c.failed);
    }
    ops.check(
        "all generated events visible on the primary",
        t_visible.is_some(),
    );
    ops.check(
        "all generated events folded on the replica",
        t_replica.is_some(),
    );
    ops.check(
        "lag targets resolved",
        visible.unresolved() == 0 && lag.unresolved() == 0,
    );
    let t_visible = t_visible.unwrap_or_else(Instant::now);
    let rate = generated as f64 / (t_visible - t_first).as_secs_f64();

    // Exactly-once, replica convergence, and reads after the stream.
    local.refresh();
    ops.check(
        "exactly-once: primary applied == generated",
        local.total_events() == generated,
    );
    let converged = replica.wait_for_events(generated, Duration::from_secs(60))
        && replica.wait_for_chain(server.tip_chain(), Duration::from_secs(60));
    ops.check(
        "exactly-once: replica total == generated",
        replica.total_events() == generated,
    );
    ops.check(
        "replica chain digest == primary tip chain",
        converged && replica.chain_digest() == server.tip_chain(),
    );
    let mut accuracy = Accuracy::default();
    ops.check(
        "replica merged estimate within eps of the exact total",
        replica
            .merged_estimate()
            .is_ok_and(|e| accuracy.record(e, generated)),
    );
    let folds = replica.folds();
    // CPU is read while the writers' and the replica's threads still
    // exist. Then they go: the writers make room for the reader's
    // connection, and the replica's feed would otherwise keep waking
    // beside the read RPCs.
    if traced {
        cpu.sample();
    }
    for w in open_writers {
        ops.check("writer close", w.close().is_ok());
    }
    replica.shutdown();
    // The primary's checkpointer runs behind the stream; let it write
    // the last cadence frame and finish compacting, so the reads measure
    // the RPC path rather than a race with that backlog.
    let checkpoint_every = if ctx.tiny {
        TINY_CHECKPOINT_EVERY
    } else {
        CHECKPOINT_EVERY
    };
    ops.check(
        "primary checkpointer drains after the stream",
        wait_checkpoints_settled(&dir, generated / checkpoint_every * checkpoint_every),
    );
    let mut reader = StoreClient::new(server.local_addr(), identity(ctx))
        .and_then(|c| c.reader())
        .expect("reader connects to the primary");
    let mut read_us = Vec::with_capacity(inputs.read_keys.len());
    let mut mismatched = 0u64;
    let mut merged_ms = Vec::new();
    // Bursts of back-to-back point RPCs, each followed by a few merged
    // RPCs and a set-up slice, so the reads span several seconds of the
    // host's fast and slow periods; each burst is one p99 window.
    for burst in inputs.read_keys.chunks(READ_BURST) {
        spans.begin("net.reader.estimate_rpcs", 0);
        for &k in burst {
            let t0 = Instant::now();
            let got = reader.estimate(k);
            read_us.push(t0.elapsed().as_secs_f64() * 1e6);
            let same_epoch = reader.epoch() == local.epoch();
            let ok = got.is_ok_and(|e| !same_epoch || e == local.estimate(k));
            mismatched += u64::from(!ok);
        }
        spans.end();
        for _ in 0..MERGED_PER_BURST {
            let t0 = Instant::now();
            let est = spans.time("net.reader.merged_estimate", 0, || reader.merged_estimate());
            merged_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            // The state is quiesced, so every answer is the same
            // estimate: gate (and count) the first, check the rest
            // answer at all.
            if merged_ms.len() == 1 {
                ops.check(
                    "merged estimate RPC within eps of the exact total",
                    est.is_ok_and(|e| accuracy.record(e, generated)),
                );
            } else {
                ops.check("merged estimate RPC", est.is_ok());
            }
        }
        setup.slice();
    }
    ops.bulk(
        "estimate RPC agrees with the primary",
        read_us.len() as u64,
        mismatched,
    );
    let mut floor_us = Vec::new();
    if traced {
        for _ in 0..FLOOR_RPCS {
            let t0 = Instant::now();
            let st = reader.stats();
            floor_us.push(t0.elapsed().as_secs_f64() * 1e6);
            ops.check("stats RPC", st.is_ok_and(|(_, events)| events == generated));
        }
    }
    let snapshot = local.snapshot().clone();
    reader.close();
    let report = spans.time("net.shutdown", 0, || server.shutdown());
    ops.check("server shutdown", report.is_ok());
    let (keys, closed_events, state_bits, records) =
        report.as_ref().map_or((0, 0, 0.0, Vec::new()), |r| {
            (
                r.stats.keys,
                r.stats.events,
                r.stats.bits_per_key(),
                r.checkpoints
                    .as_ref()
                    .map_or(Vec::new(), |c| c.records.clone()),
            )
        });
    ops.check("shutdown reports every event", closed_events == generated);
    ops.check(
        "no dropped events",
        report.as_ref().is_ok_and(|r| r.stats.dropped_events == 0),
    );
    let disk_bits = dir_bytes(&dir) as f64 * 8.0 / keys.max(1) as f64;

    let (recovery_s, recovery_layer) = reopen_timed(
        &dir,
        REOPENS,
        (keys, closed_events),
        &mut ops,
        &mut spans,
        &mut info,
        &mut setup,
    );
    let _ = std::fs::remove_dir_all(ctx.work.join("setup"));

    info.insert("generated".into(), generated.to_string());
    info.insert("keys_at_close".into(), keys.to_string());
    let e2e = EndToEnd {
        setup_s: setup.finish(&mut ops),
        rate,
        ack: summarize(
            &clients
                .iter()
                .flat_map(|c| c.ack_ms.iter().copied())
                .collect::<Vec<_>>(),
        ),
        visible: summarize(&visible.take()),
        replica_lag: summarize(&lag.take()),
        read: summarize(&read_us),
        merged_read_ms: summarize(&merged_ms).p50,
        merged_reads: merged_ms.len(),
        recovery_s,
        state_bits,
        disk_bits,
    }
    .report(&mut info);
    info.insert("checkpoint_frames".into(), records.len().to_string());
    info.insert("replica_folds".into(), folds.to_string());

    let accuracy_layer = accuracy.report(&mut info);
    let trace = traced.then(|| {
        let mut layer = Metrics::default();
        layer.put(
            "client.record_ns_per_event",
            clients.iter().map(|c| c.record_ns as f64).sum::<f64>() / generated.max(1) as f64,
            "ns",
        );
        let last_ack = clients.iter().filter_map(|c| c.last_ack).max();
        let drain = last_ack.map_or(0.0, |t| {
            t_visible.saturating_duration_since(t).as_secs_f64() * 1e3
        });
        layer.put("apply.drain_ms", drain, "ms");
        layer.put("snapshot.publishes", seen.epochs as f64, "count");
        layer.put(
            "snapshot.refresh_us_p50",
            summarize(&seen.refresh_us).p50,
            "us",
        );
        layer.absorb(checkpoint_records(&records));
        layer.absorb(recovery_layer);
        layer.put("server.rpc_floor_us_p50", summarize(&floor_us).p50, "us");
        layer.put("replica.folds", folds as f64, "count");
        layer.absorb(accuracy_layer);
        layer.put(
            "replica.lag_events_p99",
            summarize(&replica_lag_events).p99,
            "events",
        );
        let mut all = spans;
        all.absorb(seen.spans);
        let mut sent = Vec::new();
        for c in clients {
            sent.push(c.sent);
            if let Some(log) = c.spans {
                all.absorb(log);
            }
        }
        let per = CAPTURE_EVENTS / inputs.streams.len();
        let slices: Vec<&[u64]> = inputs
            .streams
            .iter()
            .zip(&sent)
            .map(|(s, &n)| &s[..n.min(per).min(s.len())])
            .collect();
        TraceData {
            spans: all,
            cpu,
            layer,
            captured: crate::harness::capture(&slices, WIRE_BATCH_PAIRS),
            final_snapshot: Some(snapshot),
            chain_dir: Some(dir.clone()),
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
