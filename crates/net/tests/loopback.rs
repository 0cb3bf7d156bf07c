//! Loopback integration: exactly-once ingest over TCP, epoch-pinned
//! read RPCs, identity-checked handshakes, and delta-checkpoint
//! replication converging to the primary's chain digests.

use ac_core::{ApproxCounter, CounterSpec};
use ac_engine::{checkpoint_snapshot, IngestConfig, Store};
use ac_net::wire::NEW_PRODUCER;
use ac_net::{
    Frame, FrameConn, Identity, NetError, RefuseCode, ReplStats, ReplicaNode, Role, ServerConfig,
    StoreClient, StoreServer, WriterConfig, PROTO_VERSION,
};
use std::net::TcpStream;
use std::time::Duration;

fn ny_spec() -> CounterSpec {
    CounterSpec::NelsonYu {
        eps: 0.2,
        delta_log2: 8,
    }
}

fn start_server(spec: CounterSpec, seed: u64) -> StoreServer {
    start_server_with(
        spec,
        seed,
        ServerConfig {
            delta_every_events: 512,
            cut_poll: Duration::from_millis(2),
            max_chain_segments: 4,
        },
    )
}

fn start_server_with(spec: CounterSpec, seed: u64, config: ServerConfig) -> StoreServer {
    let store = Store::builder(spec)
        .with_shards(4)
        .with_seed(seed)
        .with_ingest(IngestConfig::new().with_batch_pairs(256))
        // Publish a read replica at every batch boundary so RPCs and
        // the replication cutter see progress without close().
        .with_snapshot_every_events(1)
        .start()
        .expect("store starts");
    StoreServer::start_with(store, "127.0.0.1:0", config).expect("server starts")
}

fn hello(identity: &Identity, role: Role, producer: u64) -> Frame {
    Frame::Hello {
        proto: PROTO_VERSION,
        role,
        fingerprint: identity.fingerprint(),
        identity: identity.clone(),
        producer,
        acked_chain: 0,
    }
}

fn dial(server: &StoreServer) -> FrameConn {
    FrameConn::new(TcpStream::connect(server.local_addr()).expect("connect")).expect("frame conn")
}

#[test]
fn writers_readers_and_replicas_agree_over_loopback() {
    let server = start_server(ny_spec(), 99);
    let identity = server.identity();
    let client = StoreClient::new(server.local_addr(), identity.clone()).expect("client");

    let replica_a = ReplicaNode::connect(server.local_addr(), identity.clone()).expect("replica a");
    let replica_b = ReplicaNode::connect(server.local_addr(), identity.clone()).expect("replica b");

    // Three remote writers, each its own producer, concurrently.
    let mut expected = 0u64;
    let handles: Vec<_> = (0..3u64)
        .map(|w| {
            let client = client.clone();
            std::thread::spawn(move || {
                let mut writer = client.writer(WriterConfig::default()).expect("writer");
                for round in 0..40u64 {
                    for key in 0..25u64 {
                        writer.record(w * 1_000 + key, 1 + (round + key) % 5);
                    }
                }
                writer.close().expect("clean close");
            })
        })
        .collect();
    for w in 0..3u64 {
        for round in 0..40u64 {
            for key in 0..25u64 {
                let _ = w;
                expected += 1 + (round + key) % 5;
            }
        }
    }
    for h in handles {
        h.join().expect("writer thread");
    }

    // Read RPCs see the exact totals once the pipeline drains.
    let mut remote = client.reader().expect("reader");
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    while remote.total_events().expect("total") < expected {
        assert!(
            std::time::Instant::now() < deadline,
            "pipeline never drained"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(remote.total_events().expect("total"), expected);
    assert_eq!(remote.len().expect("len"), 75);
    assert_eq!(remote.stats().expect("stats"), (75, expected));

    // The merged aggregate is within the NelsonYu (eps, delta) band —
    // and the shipped merged counter state agrees with the estimate.
    let merged = remote.merged_estimate().expect("merged estimate");
    let rel = (merged - expected as f64).abs() / expected as f64;
    assert!(rel < 0.2, "merged estimate off by {rel}");
    let shipped = remote.merged_total().expect("merged total");
    assert!(
        (shipped.estimate() - merged).abs() < 1e-6 * merged.abs(),
        "shipped state disagrees with served estimate"
    );

    // Per-key reads agree with the in-process reader at the same epoch.
    let local = server.reader();
    let key = 1_007;
    assert_eq!(
        remote.estimate(key).expect("estimate"),
        local.estimate(key),
        "remote and local estimates diverge"
    );
    assert!(remote.estimate(999_999).expect("estimate").is_none());

    // Replicas fold the delta stream to the primary's exact digest and
    // serve the same totals.
    assert!(
        replica_a.wait_for_events(expected, Duration::from_secs(20)),
        "replica a never converged: {:?}",
        replica_a.failed()
    );
    assert!(
        replica_b.wait_for_events(expected, Duration::from_secs(20)),
        "replica b never converged: {:?}",
        replica_b.failed()
    );
    let tip = server.tip_chain();
    assert_ne!(tip, 0, "primary cut no chain");
    assert!(
        replica_a.wait_for_chain(tip, Duration::from_secs(20)),
        "replica a digest {} != primary tip {tip}",
        replica_a.chain_digest()
    );
    assert!(
        replica_b.wait_for_chain(tip, Duration::from_secs(20)),
        "replica b digest {} != primary tip {tip}",
        replica_b.chain_digest()
    );
    assert_eq!(replica_a.total_events(), expected);
    assert_eq!(replica_b.total_events(), expected);
    assert_eq!(replica_a.len(), 75);
    let merged_a = replica_a.merged_estimate().expect("replica merge");
    let merged_b = replica_b.merged_estimate().expect("replica merge");
    assert_eq!(merged_a, merged_b, "replicas at one digest must agree");
    let rel_a = (merged_a - expected as f64).abs() / expected as f64;
    assert!(rel_a < 0.2, "replica estimate off by {rel_a}");

    drop(replica_a);
    drop(replica_b);
    let report = server.shutdown().expect("shutdown");
    assert_eq!(report.stats.events, expected);
}

#[test]
fn reconnect_replays_exactly_once() {
    let server = start_server(ny_spec(), 7);
    let identity = server.identity();

    // Speak the protocol by hand for precise control over sequence
    // numbers: apply batches 1..=3, "crash", then replay 2..=6 — the
    // replayed 2 and 3 must be acknowledged without being re-applied.
    let batch = |seq: u64| Frame::Batch {
        seq,
        pairs: vec![(seq, 10), (100 + seq, 1)],
    };
    let mut conn = dial(&server);
    conn.send(&hello(&identity, Role::Ingest, NEW_PRODUCER))
        .expect("send hello");
    let Frame::HelloOk {
        producer,
        resume_after,
        ..
    } = conn.recv().expect("hello ok")
    else {
        panic!("expected HelloOk");
    };
    assert_eq!(resume_after, 0);
    for seq in 1..=3u64 {
        conn.send(&batch(seq)).expect("send");
        assert_eq!(conn.recv().expect("ack"), Frame::BatchAck { seq });
    }
    conn.shutdown(); // crash: no Bye, acks for nothing lost here

    // Reclaim the producer. The server may need a moment to notice the
    // dead connection and park the writer.
    let mut conn = loop {
        let mut retry = dial(&server);
        retry
            .send(&hello(&identity, Role::Ingest, producer))
            .expect("send hello");
        match retry.recv().expect("handshake") {
            Frame::HelloOk {
                producer: got,
                resume_after,
                ..
            } => {
                assert_eq!(got, producer);
                assert_eq!(resume_after, 3, "server holds exactly batches 1..=3");
                break retry;
            }
            Frame::Refused {
                code: RefuseCode::Busy,
                ..
            } => std::thread::sleep(Duration::from_millis(20)),
            other => panic!("unexpected handshake reply: {other:?}"),
        }
    };
    for seq in 2..=6u64 {
        conn.send(&batch(seq)).expect("send");
        let Frame::BatchAck { seq: acked } = conn.recv().expect("ack") else {
            panic!("expected ack");
        };
        assert!(acked >= seq.min(3), "ack regressed");
    }
    conn.send(&Frame::Bye).expect("bye");

    // Exactly the six distinct batches, no duplicates: 6 * 11 events.
    let mut local = server.reader();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        local.refresh();
        if local.total_events() == 66 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "events settled at {} != 66",
            local.total_events()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    server.shutdown().expect("shutdown");
}

#[test]
fn sequence_gaps_are_refused() {
    let server = start_server(ny_spec(), 11);
    let identity = server.identity();
    let mut conn = dial(&server);
    conn.send(&hello(&identity, Role::Ingest, NEW_PRODUCER))
        .expect("send hello");
    assert!(matches!(
        conn.recv().expect("handshake"),
        Frame::HelloOk { .. }
    ));
    // Skipping seq 1 is a protocol error: batches may repeat, never
    // skip or reorder.
    conn.send(&Frame::Batch {
        seq: 2,
        pairs: vec![(1, 1)],
    })
    .expect("send");
    match conn.recv().expect("refusal") {
        Frame::Refused {
            code: RefuseCode::Protocol,
            ..
        } => {}
        other => panic!("expected protocol refusal, got {other:?}"),
    }
    server.shutdown().expect("shutdown");
}

#[test]
fn mismatched_identities_are_refused_at_hello() {
    let server = start_server(ny_spec(), 5);
    let good = server.identity();

    // A different spec (different parameters) is turned away with the
    // identity code — counters would not be interchangeable.
    let mut wrong_spec = good.clone();
    wrong_spec.spec = CounterSpec::Morris { a: 1.0 };
    let mut conn = dial(&server);
    conn.send(&hello(&wrong_spec, Role::Ingest, NEW_PRODUCER))
        .expect("send");
    match conn.recv().expect("reply") {
        Frame::Refused {
            code: RefuseCode::Identity,
            ..
        } => {}
        other => panic!("expected identity refusal, got {other:?}"),
    }

    // Same spec, different shard count: also identity.
    let mut wrong_shards = good.clone();
    wrong_shards.shards += 1;
    let mut conn = dial(&server);
    conn.send(&hello(&wrong_shards, Role::Reader, NEW_PRODUCER))
        .expect("send");
    match conn.recv().expect("reply") {
        Frame::Refused {
            code: RefuseCode::Identity,
            ..
        } => {}
        other => panic!("expected identity refusal, got {other:?}"),
    }

    // A wrong protocol version is refused before identity is examined.
    let mut conn = dial(&server);
    conn.send(&Frame::Hello {
        proto: PROTO_VERSION + 1,
        role: Role::Reader,
        fingerprint: good.fingerprint(),
        identity: good.clone(),
        producer: NEW_PRODUCER,
        acked_chain: 0,
    })
    .expect("send");
    match conn.recv().expect("reply") {
        Frame::Refused {
            code: RefuseCode::Version,
            ..
        } => {}
        other => panic!("expected version refusal, got {other:?}"),
    }

    // The high-level client surfaces the refusal as a typed error.
    let client = StoreClient::new(server.local_addr(), wrong_spec).expect("client");
    match client.writer(WriterConfig::default()) {
        Err(NetError::Refused {
            code: RefuseCode::Identity,
            ..
        }) => {}
        other => panic!("expected refusal, got {other:?}"),
    }
    server.shutdown().expect("shutdown");
}

/// Replay-after-reconnect must land the store in *byte-identical*
/// checkpoint state for every counter family: the stream with a crash,
/// a reconnect, and duplicate re-sends serializes to the same full
/// checkpoint as the clean run (epochs normalized — flush cadence may
/// differ, state may not).
#[test]
fn replayed_streams_checkpoint_byte_identical_across_families() {
    let families = [
        CounterSpec::Exact,
        CounterSpec::Morris { a: 8.0 },
        CounterSpec::MorrisPlus {
            eps: 0.2,
            delta_log2: 8,
        },
        ny_spec(),
        CounterSpec::Csuros { mantissa_bits: 8 },
    ];
    for spec in families {
        let batch = |seq: u64| Frame::Batch {
            seq,
            pairs: vec![(seq % 7, 3 + seq), (50 + seq, 1)],
        };

        // Clean run: batches 1..=6 on one connection.
        let clean = start_server(spec, 4242);
        let identity = clean.identity();
        let mut conn = dial(&clean);
        conn.send(&hello(&identity, Role::Ingest, NEW_PRODUCER))
            .expect("hello");
        assert!(matches!(conn.recv().expect("ok"), Frame::HelloOk { .. }));
        for seq in 1..=6u64 {
            conn.send(&batch(seq)).expect("send");
            conn.recv().expect("ack");
        }
        conn.send(&Frame::Bye).expect("bye");
        let clean_bytes = settled_checkpoint(&clean, spec);
        clean.shutdown().expect("shutdown");

        // Crashy run: 1..=3, drop the socket, reclaim, replay 2..=6.
        let crashy = start_server(spec, 4242);
        let identity = crashy.identity();
        let mut conn = dial(&crashy);
        conn.send(&hello(&identity, Role::Ingest, NEW_PRODUCER))
            .expect("hello");
        let Frame::HelloOk { producer, .. } = conn.recv().expect("ok") else {
            panic!("expected HelloOk");
        };
        for seq in 1..=3u64 {
            conn.send(&batch(seq)).expect("send");
            conn.recv().expect("ack");
        }
        conn.shutdown();
        let mut conn = loop {
            let mut retry = dial(&crashy);
            retry
                .send(&hello(&identity, Role::Ingest, producer))
                .expect("hello");
            match retry.recv().expect("handshake") {
                Frame::HelloOk { resume_after, .. } => {
                    assert_eq!(resume_after, 3);
                    break retry;
                }
                Frame::Refused {
                    code: RefuseCode::Busy,
                    ..
                } => std::thread::sleep(Duration::from_millis(20)),
                other => panic!("unexpected handshake reply: {other:?}"),
            }
        };
        for seq in 2..=6u64 {
            conn.send(&batch(seq)).expect("send");
            conn.recv().expect("ack");
        }
        conn.send(&Frame::Bye).expect("bye");
        let crashy_bytes = settled_checkpoint(&crashy, spec);
        crashy.shutdown().expect("shutdown");

        assert_eq!(
            clean_bytes, crashy_bytes,
            "family {spec:?}: replayed stream is not byte-identical"
        );
    }
}

/// Waits for the applied stream to settle, then serializes the final
/// snapshot with its epoch normalized to 0 (epochs count flushes, which
/// legitimately differ between a clean and a crashy run).
fn settled_checkpoint(server: &StoreServer, spec: CounterSpec) -> Vec<u8> {
    let expected: u64 = (1..=6u64).map(|seq| 3 + seq + 1).sum();
    let mut reader = server.reader();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        reader.refresh();
        if reader.total_events() == expected {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "family {spec:?}: events settled at {} != {expected}",
            reader.total_events()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let snap = reader.snapshot().clone().with_epoch(0);
    checkpoint_snapshot(&snap).into_bytes()
}

fn cuts(stats: ReplStats) -> u64 {
    stats.deltas_cut + stats.fulls_cut
}

#[test]
fn replica_survives_primary_chain_restarts() {
    // A chain cap of 4 segments makes every fourth cut a full frame
    // that restarts the chain. The stream advances in steps of more
    // than `delta_every_events`, each waiting for its cut, so at least
    // eleven cuts (the first base included) and therefore at least two
    // restarts provably happen. A replica connected from the start and
    // one connecting mid-stream must both converge to the same digest.
    let server = start_server(ny_spec(), 31);
    let identity = server.identity();
    let early = ReplicaNode::connect(server.local_addr(), identity.clone()).expect("early replica");

    let client = StoreClient::new(server.local_addr(), identity.clone()).expect("client");
    let mut writer = client.writer(WriterConfig::default()).expect("writer");
    let mut expected = 0u64;
    let mut late = None;
    for step in 0..10u64 {
        if step == 5 {
            late = Some(ReplicaNode::connect(server.local_addr(), identity.clone()).expect("late"));
        }
        let before = cuts(server.repl_stats());
        // 16 rounds of 40 keys carry at least 640 > 512 events.
        for round in 0..16u64 {
            for key in 0..40u64 {
                let n = 1 + (step * 16 + round + key) % 3;
                writer.record(key, n);
                expected += n;
            }
            writer.flush().expect("flush");
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(20);
        while cuts(server.repl_stats()) == before {
            assert!(
                std::time::Instant::now() < deadline,
                "step {step} cut nothing"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    writer.close().expect("close");
    let late = late.expect("late replica");

    assert!(
        early.wait_for_events(expected, Duration::from_secs(20)),
        "early replica stalled: {:?}",
        early.failed()
    );
    assert!(
        late.wait_for_events(expected, Duration::from_secs(20)),
        "late replica stalled: {:?}",
        late.failed()
    );
    let tip = server.tip_chain();
    assert!(early.wait_for_chain(tip, Duration::from_secs(20)));
    assert!(late.wait_for_chain(tip, Duration::from_secs(20)));
    let stats = server.repl_stats();
    assert!(stats.restarts >= 2, "too few chain restarts: {stats:?}");
    assert_eq!(stats.fulls_cut, stats.restarts + 1, "{stats:?}");
    assert_eq!(early.total_events(), late.total_events());
    assert_eq!(
        early.merged_estimate().expect("merge"),
        late.merged_estimate().expect("merge")
    );
    drop(early);
    drop(late);
    server.shutdown().expect("shutdown");
}

#[test]
fn cutter_ships_on_the_event_cadence_not_on_every_pause() {
    // Many small flushes with short pauses, each far below the cut
    // cadence. A cutter that cuts whenever two polls see the same total
    // would ship (and the replica fold) a delta per pause; on the
    // cadence, the replica folds about one segment per
    // `delta_every_events`, plus the first base and any restarts.
    const EVERY: u64 = 2_000;
    let server = start_server_with(
        ny_spec(),
        77,
        ServerConfig {
            delta_every_events: EVERY,
            cut_poll: Duration::from_millis(2),
            max_chain_segments: 4,
        },
    );
    let identity = server.identity();
    let replica = ReplicaNode::connect(server.local_addr(), identity.clone()).expect("replica");
    let client = StoreClient::new(server.local_addr(), identity).expect("client");
    let mut writer = client.writer(WriterConfig::default()).expect("writer");
    let mut written = 0u64;
    for flush in 0..150u64 {
        for key in 0..20u64 {
            let n = 1 + (flush + key) % 3;
            writer.record(key, n);
            written += n;
        }
        writer.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(4));
        let folds = replica.folds();
        let bound = written / EVERY + server.repl_stats().restarts + 2;
        assert!(
            folds <= bound,
            "after {written} events the replica folded {folds} segments (bound {bound}): {:?}",
            server.repl_stats()
        );
    }
    writer.close().expect("close");

    // The tail below the cadence still ships once the stream goes quiet.
    assert!(
        replica.wait_for_events(written, Duration::from_secs(20)),
        "tail never shipped: {:?}",
        replica.failed()
    );
    let tip = server.tip_chain();
    assert!(replica.wait_for_chain(tip, Duration::from_secs(20)));
    assert_eq!(replica.chain_digest(), server.tip_chain());
    assert_eq!(replica.total_events(), written);
    drop(replica);
    server.shutdown().expect("shutdown");
}
