//! The repository benchmark. One invocation runs one workload:
//!
//! ```text
//! perfbench --workload <ingest-local|net-replicated|durable-serve>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it measures the workload with tracing off and
//! reports every end-to-end metric; with `--trace 1` it runs the same
//! untraced phase, then a traced phase and the layer replays, and
//! reports every per-layer metric. Either way every correctness gate
//! runs, and the last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Lines before it that
//! start with `#` carry provenance and sample counts. Any failed
//! operation or gate, or a run that attempted none, makes the exit code
//! 1. See `perfbench/README.md`.

mod durable_serve;
mod harness;
mod ingest_local;
mod net_replicated;
mod replay;
mod stats;
mod streams;
mod trace;

use harness::{Ctx, Info, Metrics, Ops, Phase};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::Instant;
use streams::Inputs;

/// The instant every span of the process is measured from.
pub(crate) fn harness_origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

/// Every end-to-end metric, in report order, with its unit.
pub(crate) const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ingest_events_per_s", "events/s"),
    ("ack_p50_ms", "ms"),
    ("visible_p50_ms", "ms"),
    ("read_p50_us", "us"),
    ("merged_read_p50_ms", "ms"),
    ("replica_lag_p50_ms", "ms"),
    ("recovery_s", "s"),
    ("state_bits_per_key", "bits"),
    ("disk_bits_per_key", "bits"),
];

/// Every per-layer metric, in report order, with its unit. A layer a
/// workload leaves idle reports 0 (see the README's layer table).
pub(crate) const PER_LAYER: &[(&str, &str)] = &[
    ("core.merge_ms", "ms"),
    ("core.merged_rel_err_max", "ratio"),
    ("core.merged_outside_eps", "count"),
    ("ingest.pipeline_ns_per_event", "ns"),
    ("ingest.writer_ns_per_event", "ns"),
    ("ingest.folded_pair_ratio", "ratio"),
    ("ingest.backlog_events_p99", "events"),
    ("ingest.dropped_events", "events"),
    ("apply.serial_ns_per_event", "ns"),
    ("apply.drain_ms", "ms"),
    ("cpu.applier_s", "s"),
    ("snapshot.publishes", "count"),
    ("snapshot.refresh_us_p50", "us"),
    ("tail.ack_p99_ms", "ms"),
    ("tail.visible_p99_ms", "ms"),
    ("tail.read_p99_us", "us"),
    ("checkpoint.encode_ms", "ms"),
    ("checkpoint.compact_ms", "ms"),
    ("checkpoint.bits_per_key", "bits"),
    ("checkpointer.frames", "count"),
    ("checkpointer.bytes_written", "bytes"),
    ("checkpointer.write_ms_p50", "ms"),
    ("checkpointer.compactions", "count"),
    ("checkpointer.lag_events_p99", "events"),
    ("cpu.ckpt_s", "s"),
    ("recovery.frames_used", "count"),
    ("recovery.frames_skipped", "count"),
    ("wire.encode_ns_per_event", "ns"),
    ("wire.decode_ns_per_event", "ns"),
    ("wire.bytes_per_event", "bytes"),
    ("conn.ns_per_frame", "ns"),
    ("client.record_ns_per_event", "ns"),
    ("cpu.client_s", "s"),
    ("server.rpc_floor_us_p50", "us"),
    ("cpu.server_conn_s", "s"),
    ("cpu.cutter_s", "s"),
    ("replica.folds", "count"),
    ("replica.lag_events_p99", "events"),
    ("cpu.replica_s", "s"),
    ("bench.gen_late_p99_ms", "ms"),
    ("bench.trace_overhead_ratio", "ratio"),
];

pub(crate) const WORKLOADS: &[&str] = &["ingest-local", "net-replicated", "durable-serve"];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                );
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// The checked-out commit, read from `.git` in the working directory
/// only (never from a parent directory).
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(r) => read(r)
            .map(|s| s.trim().to_string())
            .or_else(|| {
                read("packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next().map(str::to_string))
            })
            .unwrap_or_else(|| "unknown".into()),
    }
}

fn shape_of(workload: &str, ctx: &Ctx) -> streams::StreamShape {
    match workload {
        "ingest-local" => ingest_local::shape(ctx),
        "net-replicated" => net_replicated::shape(ctx),
        _ => durable_serve::shape(ctx),
    }
}

fn run_phase(workload: &str, ctx: &Ctx, inputs: &Inputs, traced: bool) -> Phase {
    match workload {
        "ingest-local" => ingest_local::run(ctx, inputs, traced),
        "net-replicated" => net_replicated::run(ctx, inputs, traced),
        _ => durable_serve::run(ctx, inputs, traced),
    }
}

/// The result of one invocation.
#[derive(Debug)]
pub(crate) struct Outcome {
    pub metrics: Metrics,
    pub ops: Ops,
    pub info: Info,
}

/// Runs `workload` once: the untraced phase, and with `traced` also the
/// traced phase and the replays.
pub(crate) fn run_workload(workload: &str, ctx: &Ctx, traced: bool) -> Outcome {
    let mut info = Info::new();
    let shape = shape_of(workload, ctx);
    let inputs = Inputs::draw(shape, ctx.seed);
    info.insert("input.keys".into(), shape.keys.to_string());
    info.insert("input.zipf_s".into(), shape.zipf_s.to_string());
    info.insert("input.streams".into(), shape.streams.to_string());
    info.insert(
        "input.events_per_stream".into(),
        shape.events_per_stream.to_string(),
    );
    info.insert(
        "input.distinct_keys".into(),
        inputs.distinct_keys().to_string(),
    );
    info.insert("input.digest".into(), format!("{:016x}", inputs.digest()));

    let untraced = run_phase(workload, ctx, &inputs, false);
    let mut ops = untraced.ops;
    info.extend(untraced.info);
    if !traced {
        return Outcome {
            metrics: complete(untraced.e2e, END_TO_END),
            ops,
            info,
        };
    }

    let phase = run_phase(workload, ctx, &inputs, true);
    ops.merge(phase.ops);
    for (k, v) in phase.info {
        info.insert(format!("traced.{k}"), v);
    }
    let data = phase.trace.expect("a traced phase returns trace data");
    let mut layer = data.layer.clone();
    layer.absorb(replay::replay(ctx, &data, &mut ops, &mut info));
    for (metric, group) in [
        ("cpu.applier_s", "engine.apply"),
        ("cpu.ckpt_s", "engine.checkpointer"),
        ("cpu.client_s", "net.client"),
        ("cpu.server_conn_s", "net.server"),
        ("cpu.cutter_s", "net.cutter"),
        ("cpu.replica_s", "net.replica"),
    ] {
        layer.put(metric, data.cpu.seconds(group), "s");
    }
    info.insert(
        "traced.cpu.bench_s".into(),
        format!("{:.2}", data.cpu.seconds("bench")),
    );
    // The p99s carry no bound: on the measuring host they are set by
    // the hypervisor's scheduling more than by the program (see the
    // README), so they are reported here, from the traced phase.
    for (tail, e2e, unit) in [
        ("tail.ack_p99_ms", "ack_p99_ms", "ms"),
        ("tail.visible_p99_ms", "visible_p99_ms", "ms"),
        ("tail.read_p99_us", "read_p99_us", "us"),
    ] {
        layer.put(tail, phase.e2e.get(e2e).unwrap_or(0.0), unit);
    }
    let rate = phase.e2e.get("ingest_events_per_s").unwrap_or(0.0);
    layer.put(
        "ingest.pipeline_ns_per_event",
        if rate > 0.0 { 1e9 / rate } else { 0.0 },
        "ns",
    );
    layer.put(
        "bench.trace_overhead_ratio",
        phase.cost / untraced.cost,
        "ratio",
    );
    for (name, t) in data.spans.totals() {
        info.insert(
            format!("span.{name}"),
            format!(
                "count={} total_ms={:.3} self_ms={:.3}",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            ),
        );
    }
    if let Some(dir) = ctx
        .spans_dir
        .as_ref()
        .filter(|d| std::fs::create_dir_all(d).is_ok())
    {
        let path = dir.join(format!("spans-{workload}-seed{}.tsv", ctx.seed));
        if std::fs::write(&path, data.spans.to_tsv()).is_ok() {
            info.insert("spans_file".into(), path.display().to_string());
        }
    }
    Outcome {
        metrics: complete(layer, PER_LAYER),
        ops,
        info,
    }
}

/// Keeps exactly the metrics of `names`, in that order; a missing one
/// reads 0 (a layer the workload leaves idle).
fn complete(got: Metrics, names: &[(&'static str, &'static str)]) -> Metrics {
    let mut out = Metrics::default();
    for &(name, unit) in names {
        out.put(name, got.get(name).unwrap_or(0.0), unit);
    }
    out
}

fn result_json(outcome: &Outcome) -> String {
    let mut metrics = String::new();
    for (i, (name, value, unit)) in outcome.metrics.items.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.ops.passed(),
        outcome.ops.attempted,
        outcome.ops.failed
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let _ = harness_origin();
    let work =
        PathBuf::from(".bench_work").join(format!("{}-{}", args.workload, std::process::id()));
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        tiny: false,
        work: work.clone(),
        spans_dir: Some(PathBuf::from("bench-out/perfbench")),
    };
    let steal_before = trace::host_steal();
    let mut outcome = run_workload(&args.workload, &ctx, args.trace);
    if let (Some((s0, t0)), Some((s1, t1))) = (steal_before, trace::host_steal()) {
        // Share of the machine's CPU time the hypervisor stole during
        // the run: a run taken while neighbours were busy shows here.
        let share = (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        outcome
            .info
            .insert("host_steal_share".into(), format!("{share:.4}"));
    }
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");

    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "# provenance workload={} seed={} seconds={} trace={} cores={cores} commit={} profile={profile}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_commit()
    );
    for (k, v) in &outcome.info {
        println!("# {k}={v}");
    }
    for f in &outcome.ops.failures {
        println!("# FAILED {f}");
    }
    println!("{}", result_json(&outcome));
    if !outcome.ops.passed() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_ctx(name: &str) -> Ctx {
        Ctx {
            seed: 3,
            seconds: 0.5,
            tiny: true,
            work: PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("target")
                .join(format!("test-work-{name}")),
            spans_dir: None,
        }
    }

    fn passes_every_gate(workload: &str) {
        let ctx = tiny_ctx(workload);
        let out = run_workload(workload, &ctx, true);
        let _ = std::fs::remove_dir_all(&ctx.work);
        assert_eq!(
            out.ops.failed, 0,
            "{workload} failures: {:?}",
            out.ops.failures
        );
        assert!(out.ops.attempted > 0);
        let names: Vec<&str> = out.metrics.items.iter().map(|m| m.0).collect();
        let want: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names, want);
        let json = result_json(&out);
        assert!(json.starts_with("{\"correct\": true"), "{json}");
    }

    #[test]
    fn a_run_that_attempted_nothing_is_not_correct() {
        let out = Outcome {
            metrics: Metrics::default(),
            ops: Ops::default(),
            info: Info::new(),
        };
        assert!(!out.ops.passed());
        assert_eq!(
            result_json(&out),
            "{\"correct\": false, \"attempted\": 0, \"failed\": 0, \"metrics\": {}}"
        );
    }

    #[test]
    fn tiny_ingest_local_passes_every_gate() {
        passes_every_gate("ingest-local");
    }

    #[test]
    fn tiny_net_replicated_passes_every_gate() {
        passes_every_gate("net-replicated");
    }

    #[test]
    fn tiny_durable_serve_passes_every_gate() {
        passes_every_gate("durable-serve");
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut metrics = Metrics::default();
        metrics.put("setup_s", 0.25, "s");
        let out = Outcome {
            metrics,
            ops: Ops {
                attempted: 3,
                failed: 0,
                failures: Vec::new(),
            },
            info: Info::new(),
        };
        assert_eq!(
            result_json(&out),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
