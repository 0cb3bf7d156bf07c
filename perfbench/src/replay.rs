//! Layer replays: after a traced phase, the batches the run sent are
//! pushed again through each layer's public entry point on its own, so
//! every layer gets a cost per event or per operation measured without
//! the other layers competing for the cores.

use crate::harness::{spec, Ctx, Info, Metrics, Ops, TraceData, EPS, SHARDS};
use crate::stats::median;
use ac_core::CounterFamily;
use ac_engine::{
    checkpoint_delta, checkpoint_snapshot, compact_chain, restore_checkpoint, CheckpointKind,
    CounterEngine, EngineConfig, EngineSnapshot, Manifest,
};
use ac_net::{Frame, FrameConn};
use ac_randkit::Xoshiro256PlusPlus;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::Instant;

/// Events of captured input the replays push through each layer.
pub const CAPTURE_EVENTS: usize = 1_000_000;
/// Pairs per replayed batch: the `NetWriter` default batch size, so the
/// wire replays carry the frames the network path actually sends.
pub const WIRE_BATCH_PAIRS: usize = 256;
/// Timed repetitions per replay; the median is reported.
const REPEATS: usize = 3;

fn template() -> CounterFamily {
    spec().build().expect("spec builds")
}

/// Median wall time of `REPEATS` runs of `f` (after one untimed run),
/// in seconds, plus the last run's output.
fn timed<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut out = f();
    let mut secs = Vec::with_capacity(REPEATS);
    for _ in 0..REPEATS {
        let t0 = Instant::now();
        out = std::hint::black_box(f());
        secs.push(t0.elapsed().as_secs_f64());
    }
    (median(&secs), out)
}

/// The newest base + delta chain in a durable directory, oldest first,
/// as recovery would fold it.
fn newest_chain(dir: &Path) -> Option<Vec<Vec<u8>>> {
    let manifest = Manifest::load(dir).ok()?;
    let frames = &manifest.frames;
    let mut i = frames.len().checked_sub(1)?;
    let mut picked = vec![i];
    while frames[i].kind != CheckpointKind::Full {
        let parent = frames[i].parent_chain;
        // A delta cites its parent's digest; a compacted base stands in
        // for the tip it folded by recording that digest as its own
        // parent pin.
        i = (0..i).rev().find(|&j| {
            frames[j].chain == parent
                || (frames[j].kind == CheckpointKind::Full && frames[j].parent_chain == parent)
        })?;
        picked.push(i);
    }
    picked
        .iter()
        .rev()
        .map(|&j| std::fs::read(dir.join(&frames[j].file)).ok())
        .collect()
}

/// Runs every replay and returns the per-layer figures.
#[must_use]
pub fn replay(ctx: &Ctx, data: &TraceData, ops: &mut Ops, info: &mut Info) -> Metrics {
    let mut m = Metrics::default();
    let batches = &data.captured;
    let events: u64 = batches.iter().flatten().map(|&(_, d)| d).sum();
    let pairs: usize = batches.iter().map(Vec::len).sum();
    let per_event = |secs: f64| secs * 1e9 / events.max(1) as f64;
    let config = EngineConfig::new()
        .with_shards(SHARDS)
        .with_seed(ctx.store_seed());

    // engine.apply: the serial oracle path, one batch at a time.
    let (apply_s, engine) = timed(|| {
        let mut engine = CounterEngine::new(template(), config);
        for b in batches {
            engine.apply(b);
        }
        engine
    });
    ops.check(
        "replay apply keeps every event",
        engine.total_events() == events,
    );
    m.put("apply.serial_ns_per_event", per_event(apply_s), "ns");

    // engine.checkpoint: encode the run's final state, and fold a chain.
    if let Some(snap) = &data.final_snapshot {
        let (encode_s, ckpt) = timed(|| checkpoint_snapshot(snap));
        m.put("checkpoint.encode_ms", encode_s * 1e3, "ms");
        m.put(
            "checkpoint.bits_per_key",
            ckpt.bytes().len() as f64 * 8.0 / snap.len().max(1) as f64,
            "bits",
        );
        // core: merge every counter of the restored final state.
        match restore_checkpoint(&template(), ckpt.bytes()) {
            Ok(engine) => {
                let total = engine.total_events() as f64;
                let (merge_s, merged) = timed(|| {
                    let mut rng = Xoshiro256PlusPlus::seed_from_u64(ctx.seed);
                    engine.merged_total(&mut rng)
                });
                m.put("core.merge_ms", merge_s * 1e3, "ms");
                let est = merged.map(|c| ac_core::ApproxCounter::estimate(&c));
                ops.check(
                    "replay merged_total within eps",
                    est.is_ok_and(|e| (e - total).abs() <= EPS * total),
                );
            }
            Err(_) => ops.check("replay restore of the final state", false),
        }
    }
    let chain: Option<Vec<Vec<u8>>> = match &data.chain_dir {
        Some(dir) => newest_chain(dir),
        None => Some(cut_chain(&chain_steps(batches, config))),
    };
    match chain {
        Some(chain) => {
            let segs: Vec<&[u8]> = chain.iter().map(Vec::as_slice).collect();
            let (compact_s, folded) = timed(|| compact_chain(&template(), &segs));
            ops.check("replay compact_chain folds the run's chain", folded.is_ok());
            m.put("checkpoint.compact_ms", compact_s * 1e3, "ms");
            info.insert("replay.chain_segments".into(), segs.len().to_string());
        }
        None => ops.check("replay finds the run's chain", false),
    }

    // net.wire: encode and parse every captured batch as a Batch frame.
    let frames: Vec<Frame> = batches
        .iter()
        .enumerate()
        .map(|(i, b)| Frame::Batch {
            seq: i as u64 + 1,
            pairs: b.clone(),
        })
        .collect();
    let (enc_s, encoded) = timed(|| frames.iter().map(Frame::encode).collect::<Vec<_>>());
    let wire_bytes: usize = encoded.iter().map(Vec::len).sum();
    let (dec_s, decoded) = timed(|| {
        encoded
            .iter()
            .map(|b| Frame::parse_body(&b[4..]))
            .collect::<Vec<_>>()
    });
    let round_trips = decoded
        .iter()
        .zip(&frames)
        .filter(|(d, f)| d.as_ref().is_ok_and(|d| d == *f))
        .count();
    ops.check(
        "replay wire round-trips every frame",
        round_trips == frames.len(),
    );
    m.put("wire.encode_ns_per_event", per_event(enc_s), "ns");
    m.put("wire.decode_ns_per_event", per_event(dec_s), "ns");
    m.put(
        "wire.bytes_per_event",
        wire_bytes as f64 / events.max(1) as f64,
        "bytes",
    );
    info.insert("replay.events".into(), events.to_string());
    info.insert("replay.pairs".into(), pairs.to_string());
    info.insert("replay.frames".into(), frames.len().to_string());

    // net.conn: the same frames through a loopback FrameConn pair.
    match conn_replay(&frames) {
        Some((secs, received)) => {
            ops.check("replay conn delivers every frame", received == frames.len());
            m.put(
                "conn.ns_per_frame",
                secs * 1e9 / frames.len().max(1) as f64,
                "ns",
            );
        }
        None => ops.check("replay loopback connection", false),
    }
    m
}

fn chain_steps(
    batches: &[Vec<(u64, u64)>],
    config: EngineConfig,
) -> Vec<EngineSnapshot<CounterFamily>> {
    // Four cut points: a base after the first quarter, deltas after each
    // later quarter — the shape of a cadence-cut chain.
    let mut engine = CounterEngine::new(template(), config);
    let mut steps = Vec::new();
    let quarter = batches.len().div_ceil(4).max(1);
    for part in batches.chunks(quarter) {
        for b in part {
            engine.apply(b);
        }
        steps.push(engine.snapshot());
    }
    steps
}

/// A base + delta chain over the replay's cut points.
fn cut_chain(steps: &[EngineSnapshot<CounterFamily>]) -> Vec<Vec<u8>> {
    let mut out: Vec<Vec<u8>> = Vec::new();
    let mut parent = None;
    for snap in steps {
        let ckpt = match &parent {
            None => checkpoint_snapshot(snap),
            Some(header) => checkpoint_delta(snap, header).expect("delta against own parent"),
        };
        parent = Some(ckpt.header());
        out.push(ckpt.into_bytes());
    }
    out
}

/// Sends `frames` over a loopback connection and times until the last
/// one is parsed on the far side. Returns `(seconds, frames received)`.
fn conn_replay(frames: &[Frame]) -> Option<(f64, usize)> {
    let listener = TcpListener::bind("127.0.0.1:0").ok()?;
    let addr = listener.local_addr().ok()?;
    let t0 = Instant::now();
    std::thread::scope(|s| {
        let sender = std::thread::Builder::new()
            .name("bench-conn-tx".into())
            .spawn_scoped(s, move || -> Option<()> {
                let mut conn = FrameConn::new(TcpStream::connect(addr).ok()?).ok()?;
                for f in frames {
                    conn.send(f).ok()?;
                }
                conn.send(&Frame::Bye).ok()?;
                Some(())
            })
            .ok()?;
        let (stream, _) = listener.accept().ok()?;
        let mut conn = FrameConn::new(stream).ok()?;
        let mut received = 0usize;
        loop {
            match conn.recv() {
                Ok(Frame::Bye) | Err(_) => break,
                Ok(_) => received += 1,
            }
        }
        let secs = t0.elapsed().as_secs_f64();
        sender.join().ok()??;
        Some((secs, received))
    })
}
