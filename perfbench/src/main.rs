//! `perfbench`: the safereg benchmark.
//!
//! ```text
//! perfbench --workload <bsr_honest|bcsr_coded|bsr_silent> --seed <n> \
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Starts an in-process `TcpKvCluster`, preloads the key space, runs a
//! discarded warm-up, then drives two closed-loop clients for the timed
//! window and checks every recorded op. With `--trace 0` it prints the
//! end-to-end metrics, their times taken at a reference host speed (see
//! `speed`); with `--trace 1` it also runs the same load through
//! a timing wrapper around the transport, replays it in process, and
//! prints the per-layer metrics. The last line of standard output is one
//! JSON object; the line before it records the run's environment. Exits
//! nonzero when the correctness gate fails.

mod layers;
mod load;
mod speed;
mod stats;
mod sys;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use safereg_kv::{InMemKvCluster, KvMode};
use safereg_obs::names;

use crate::layers::{Tally, Timed};
use crate::load::{Ctx, Lane, Phase, Until, Values};
use crate::workload::{Workload, CLIENTS};

/// Set-ups per run: at least `SETUPS`, more until they have taken
/// `SETUP_TIME` together, at most `MAX_SETUPS`. `setup_s` is their median,
/// so a workload whose set-up is short takes the median of many. The
/// first one carries the load.
const SETUPS: usize = 5;
const SETUP_TIME: Duration = Duration::from_secs(8);
const MAX_SETUPS: usize = 40;

/// The timed window runs in slices this long, with a gauge sample before
/// each and after the last.
const SLICE: Duration = Duration::from_millis(250);

/// How long the ops are replayed against the in-process cluster.
const INPROC: Duration = Duration::from_millis(500);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::by_name(&value).ok_or(format!(
                    "unknown workload {value:?}; one of {:?}",
                    workload::NAMES
                ))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds must be in (0, 120], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workload::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(out) => {
            println!("{}", out.record);
            println!("{}", out.result);
            if out.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

struct Output {
    record: String,
    result: String,
    correct: bool,
}

/// Program counters read around the timed window.
struct Counters {
    fast: u64,
    slow: u64,
    unreachable: u64,
    wakeups: u64,
    events: u64,
}

impl Counters {
    fn read(shards: u16) -> Counters {
        let reg = safereg_obs::global();
        let sum = |path: &str| -> u64 {
            (0..shards)
                .map(|g| reg.counter(&names::shard_reads_counter(g, path)).get())
                .sum()
        };
        Counters {
            fast: sum("fast"),
            slow: sum("slow"),
            unreachable: reg.counter(names::KV_EXCHANGE_UNREACHABLE).get(),
            wakeups: reg.counter(names::REACTOR_WAKEUPS).get(),
            events: reg.counter(names::REACTOR_EVENTS).get(),
        }
    }
}

struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

fn run(args: &Args) -> Result<Output, String> {
    let w = &args.workload;
    let keys = load::keys(w);
    let values = Values::new(w.value_len, args.seed);
    let ctx = Ctx {
        w,
        keys: &keys,
        values: &values,
    };
    let steal_before = sys::steal_ticks();

    // Two gauges (see `speed`): one read around the set-ups, with no
    // cluster alive, and one between slices of the timed window, each
    // taking the host's speed out of the times measured beside it.
    let gauge_err = |e: std::io::Error| format!("gauge: {e}");
    let mut setup_gauge = speed::Gauge::new().map_err(gauge_err)?;
    let mut window_gauge = speed::Gauge::new().map_err(gauge_err)?;

    // Set-up: cluster start until load can begin. This deployment
    // carries the load; the other set-ups are timed after it is torn down.
    setup_gauge.burst();
    let mut setup_s = Vec::with_capacity(MAX_SETUPS);
    let mut dep = timed_deploy(&ctx, args.seed, &mut setup_s)?;
    let shards = dep.cluster.map().shards().count() as u16;

    // The warm-up goes through the timing wrapper, so the gate can see
    // which replicas the workload asks, without a wrapper in the window.
    let mut warm: Vec<Timed<'_, _>> = dep.transports.iter_mut().map(Timed::new).collect();
    load::run_phase(
        &mut dep.lanes,
        &mut warm,
        &ctx,
        Phase::Warmup,
        Until::Ops(w.warmup_ops),
    );
    let mut warm_tally = Tally::default();
    for t in warm {
        warm_tally.merge(t.tally);
    }
    // Memory is read after a fixed amount of work (one set-up, the warm-up),
    // before the timed window, whose op count varies with the machine.
    let peak_rss_kib = sys::peak_rss_kib();

    // The traced run splits the window between an untraced and a traced
    // leg, so that both see the same machine state.
    let window = Duration::from_secs_f64(if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    });
    let before = Counters::read(shards);
    let slices = ((window.as_secs_f64() / SLICE.as_secs_f64()).round() as u32).max(1);
    let mut window_ns = 0u64;
    let mut cpu_ns = 0u64;
    for _ in 0..slices {
        window_gauge.sample();
        let cpu_before = sys::process_cpu_ns();
        let spans = load::run_phase(
            &mut dep.lanes,
            &mut dep.transports,
            &ctx,
            Phase::Measure,
            Until::Elapsed(window / slices),
        );
        cpu_ns += sys::process_cpu_ns() - cpu_before;
        window_ns += load::window_ns(&spans);
    }
    window_gauge.sample();
    let after = Counters::read(shards);

    let measured: Vec<&load::OpRec> = dep
        .lanes
        .iter()
        .flat_map(|l| &l.log)
        .filter(|r| r.phase == Phase::Measure)
        .collect();
    let attempted = measured.len();
    let completed = measured.iter().filter(|r| r.ok).count();
    let failed = attempted - completed;
    if completed == 0 {
        return Err("no op completed in the timed window".into());
    }
    let latencies = |write: bool| -> Vec<u64> {
        measured
            .iter()
            .filter(|r| r.ok && r.write == write)
            .map(|r| r.latency_ns())
            .collect()
    };
    let puts = stats::summarize(&mut latencies(true)).ok_or("no put completed")?;
    let gets = stats::summarize(&mut latencies(false)).ok_or("no get completed")?;
    let ops_s = completed as f64 / (window_ns as f64 / 1e9);
    let cpu_us_per_op = cpu_ns as f64 / 1e3 / completed as f64;
    let reads = (after.fast - before.fast) + (after.slow - before.slow);
    let unreachable = after.unreachable - before.unreachable;

    let stall_overlap = w
        .silent
        .map(|_| load::stall_overlap(&dep.lanes, w.tconfig.io_timeout / 2));
    let fast_read_frac = (after.fast - before.fast) as f64 / reads.max(1) as f64;

    let mut failures: Vec<String> = Vec::new();
    if failed > 0 {
        failures.push(format!(
            "{failed} of {attempted} ops in the timed window failed"
        ));
    }
    if let Some(sid) = w.silent {
        if warm_tally.per_server.get(&sid).copied().unwrap_or(0) == 0 {
            failures.push(format!("the warm-up sent no exchange to {sid}"));
        }
        if unreachable == 0 {
            failures.push("no exchange in the timed window was unreachable".into());
        }
    }

    let mut per_layer = Vec::new();
    let mut traced_ops = 0;
    if args.trace {
        let mut timed: Vec<Timed<'_, _>> = dep.transports.iter_mut().map(Timed::new).collect();
        let traced_spans = load::run_phase(
            &mut dep.lanes,
            &mut timed,
            &ctx,
            Phase::Traced,
            Until::Elapsed(window),
        );
        let mut tally = Tally::default();
        for t in timed {
            tally.merge(t.tally);
        }
        traced_ops = tally.ops;
        if let Some(sid) = w.silent {
            if tally.per_server.get(&sid).copied().unwrap_or(0) == 0 {
                failures.push(format!("the traced run sent no exchange to {sid}"));
            }
        }
        let traced_ops_s = tally.ops as f64 / (load::window_ns(&traced_spans) as f64 / 1e9);
        let inproc = inproc_tally(w, &ctx, args.seed);
        let micro = layers::micro(
            w,
            dep.cluster.chain(),
            dep.transports[0].stamp(),
            &tally.samples,
        );
        per_layer = layer_metrics(&tally, &inproc, &micro);
        let exchanges_per_op = tally.exchanges.len() as f64 / tally.ops as f64;
        let est_us_per_op = exchanges_per_op * micro.crypto_us_per_exchange();
        per_layer.extend([
            m("crypto.est_us_per_op", "us", est_us_per_op),
            m(
                "crypto.est_cpu_share",
                "ratio",
                est_us_per_op / cpu_us_per_op,
            ),
            m(
                "kv.reactor.wakeups_per_op",
                "count/op",
                (after.wakeups - before.wakeups) as f64 / completed as f64,
            ),
            m(
                "kv.reactor.events_per_op",
                "count/op",
                (after.events - before.events) as f64 / completed as f64,
            ),
            m("trace.overhead_frac", "ratio", 1.0 - traced_ops_s / ops_s),
        ]);
    }

    let failed_elsewhere = dep
        .lanes
        .iter()
        .flat_map(|l| &l.log)
        .filter(|r| !r.ok && r.phase != Phase::Measure)
        .count();
    if failed_elsewhere > 0 {
        failures.push(format!(
            "{failed_elsewhere} ops failed outside the timed window"
        ));
    }
    let verdict = load::check(&dep.lanes, w.keys);
    drop(dep);
    setup_gauge.burst();
    while setup_s.len() < SETUPS
        || (setup_s.iter().sum::<f64>() < SETUP_TIME.as_secs_f64() && setup_s.len() < MAX_SETUPS)
    {
        drop(timed_deploy(&ctx, args.seed, &mut setup_s)?);
        setup_gauge.burst();
    }
    if window_gauge.foreign_share() > speed::MAX_FOREIGN_SHARE {
        return Err(format!(
            "the gauge shared the CPU with the rest of the process ({:.2} of its own time): \
             the cluster did not idle between slices, so the host's speed is unknown",
            window_gauge.foreign_share()
        ));
    }
    // Times at the reference host speed: measured time ÷ slowdown.
    let slowdown = window_gauge.slowdown();
    let setup_slowdown = setup_gauge.slowdown();
    let ms = |ns: u64| ns as f64 / 1e6 / slowdown;
    let end_to_end = vec![
        m(
            "setup_s",
            "s",
            stats::median(&mut setup_s.clone()) / setup_slowdown,
        ),
        m("ops_s", "1/s", ops_s * slowdown),
        m("put_p50_ms", "ms", ms(puts.p50)),
        m("put_p90_ms", "ms", ms(puts.p90)),
        m("get_p50_ms", "ms", ms(gets.p50)),
        m("get_p90_ms", "ms", ms(gets.p90)),
        m("cpu_ms_per_op", "ms", cpu_us_per_op / 1e3 / slowdown),
        m("ok_frac", "ratio", completed as f64 / attempted as f64),
        m("fast_read_frac", "ratio", fast_read_frac),
        m("peak_rss_mb", "MiB", peak_rss_kib as f64 / 1024.0),
    ];
    let reg = safereg_obs::global();
    let false_accusations = reg.counter(names::KV_AUDIT_FALSE_ACCUSATIONS).get();
    let convictions = reg.counter(names::KV_AUDIT_CONVICTIONS).get();
    for v in verdict.violations.iter().take(5) {
        failures.push(format!("checker: {v}"));
    }
    if verdict.violations.len() > 5 {
        failures.push(format!(
            "checker: {} violations in all",
            verdict.violations.len()
        ));
    }
    if verdict.foreign_values > 0 {
        failures.push(format!(
            "{} gets returned a value no put of that key wrote",
            verdict.foreign_values
        ));
    }
    if false_accusations > 0 || convictions > 0 {
        failures.push(format!(
            "audit: {convictions} convictions, {false_accusations} false accusations"
        ));
    }
    per_layer.extend([
        m(
            "kv.audit.false_accusations",
            "count",
            false_accusations as f64,
        ),
        m("kv.audit.convictions", "count", convictions as f64),
        m(
            "checker.violations",
            "count",
            verdict.violations.len() as f64,
        ),
        m(
            "checker.us_per_op",
            "us",
            verdict.check_ns as f64 / 1e3 / verdict.ops_checked.max(1) as f64,
        ),
    ]);
    for f in &failures {
        eprintln!("perfbench: correctness gate: {f}");
    }

    let metrics = if args.trace { &per_layer } else { &end_to_end };
    if let Some(bad) = metrics.iter().find(|x| !x.value.is_finite()) {
        return Err(format!("{} is not a finite number", bad.name));
    }
    let correct = failures.is_empty();
    let list = |v: &[f64]| format!("{v:?}");
    let mut record = vec![
        ("workload", format!("\"{}\"", w.name)),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("nproc", sys::nproc().to_string()),
        ("clients", CLIENTS.to_string()),
        (
            "steal_ticks",
            sys::steal_ticks().saturating_sub(steal_before).to_string(),
        ),
        ("setup_s", list(&setup_s)),
        ("put_samples", puts.count.to_string()),
        ("put_beyond_p90", puts.beyond_p90.to_string()),
        ("get_samples", gets.count.to_string()),
        ("get_beyond_p90", gets.beyond_p90.to_string()),
        ("reads", reads.to_string()),
        ("unreachable", unreachable.to_string()),
        ("traced_ops", traced_ops.to_string()),
        ("ops_checked", verdict.ops_checked.to_string()),
        ("gauge_samples", window_gauge.samples.len().to_string()),
        ("gauge_median_ns", window_gauge.median_ns().to_string()),
        (
            "gauge_foreign_share",
            window_gauge.foreign_share().to_string(),
        ),
        ("setup_gauge_median_ns", setup_gauge.median_ns().to_string()),
        ("setup_slowdown", setup_slowdown.to_string()),
        ("slowdown", slowdown.to_string()),
        // The end-to-end times as measured, before the slowdown is taken out.
        ("measured_ops_s", ops_s.to_string()),
        (
            "measured_ms",
            list(&[puts.p50, puts.p90, gets.p50, gets.p90].map(|ns| ns as f64 / 1e6)),
        ),
        ("measured_cpu_ms_per_op", (cpu_us_per_op / 1e3).to_string()),
    ];
    if let Some(overlap) = stall_overlap {
        // Near 1 when the clients stall in phase, near 0 when they take
        // turns: the two modes `bsr_silent` runs fall into.
        record.push(("stall_overlap", overlap.to_string()));
    }
    let record = format!(
        "{{\"record\": {{{}}}}}",
        record
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name, x.value, x.unit
            )
        })
        .collect();
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(Output {
        record,
        result,
        correct,
    })
}

/// Deploys the workload's cluster and records how long that took.
fn timed_deploy(
    ctx: &Ctx<'_>,
    seed: u64,
    setup_s: &mut Vec<f64>,
) -> Result<load::Deployment, String> {
    let started = Instant::now();
    let dep = load::deploy(ctx, seed).map_err(|e| format!("deploy: {e}"))?;
    setup_s.push(started.elapsed().as_secs_f64());
    Ok(dep)
}

/// The workload's ops replayed through the timing wrapper over an
/// `InMemKvCluster`: the same `KvServer`s, no sockets, no MACs. A silent
/// replica is a crashed one there.
fn inproc_tally(w: &Workload, ctx: &Ctx<'_>, seed: u64) -> Tally {
    let mut cluster = match w.mode {
        KvMode::Replicated => InMemKvCluster::new(w.quorum),
        KvMode::Coded => InMemKvCluster::new_coded(w.quorum),
    };
    if let Some(sid) = w.silent {
        cluster.crash(sid);
    }
    let mut lanes: Vec<Lane> = (0..CLIENTS).map(|i| Lane::new(w, i, seed)).collect();
    for lane in &mut lanes {
        load::preload(lane, &mut cluster, ctx);
    }
    let mut timed = Timed::new(&mut cluster);
    load::run_serial(&mut lanes, &mut timed, ctx, INPROC);
    timed.tally
}

fn layer_metrics(tcp: &Tally, inproc: &Tally, micro: &layers::Micro) -> Vec<Metric> {
    let ops = tcp.ops.max(1) as f64;
    let mut exchanges = tcp.exchanges.clone();
    let exch = stats::summarize(&mut exchanges).expect("the traced run made exchanges");
    let inproc_p50 = stats::summarize(&mut inproc.exchanges.clone())
        .expect("the in-process replay made exchanges")
        .p50;
    let unaccounted = tcp.op_ns as f64 - tcp.self_ns as f64 - tcp.exch_ns as f64;
    vec![
        m("kv.client.op_us", "us", tcp.op_ns as f64 / 1e3 / ops),
        m(
            "kv.client.self_us_per_op",
            "us",
            tcp.self_ns as f64 / 1e3 / ops,
        ),
        m(
            "kv.tcp.exchange_us_per_op",
            "us",
            tcp.exch_ns as f64 / 1e3 / ops,
        ),
        m(
            "kv.client.unaccounted_share",
            "ratio",
            unaccounted / tcp.op_ns.max(1) as f64,
        ),
        m(
            "kv.client.exchanges_per_op",
            "count/op",
            tcp.exchanges.len() as f64 / ops,
        ),
        m(
            "kv.client.unreachable_per_op",
            "count/op",
            tcp.unreachable as f64 / ops,
        ),
        m("kv.tcp.exchange_us_p50", "us", exch.p50 as f64 / 1e3),
        m("kv.tcp.exchange_us_p90", "us", exch.p90 as f64 / 1e3),
        m(
            "kv.tcp.wait_share",
            "ratio",
            tcp.exch_ns as f64 / tcp.op_ns.max(1) as f64,
        ),
        m(
            "kv.tcp.stall_ms_per_op",
            "ms",
            tcp.stall_ns as f64 / 1e6 / ops,
        ),
        m(
            "kv.tcp.replicas_asked",
            "count",
            tcp.per_server.len() as f64,
        ),
        m(
            "kv.server.inproc_exchange_us",
            "us",
            inproc_p50 as f64 / 1e3,
        ),
        m(
            "kv.wire.overhead_us",
            "us",
            (exch.p50 as f64 - inproc_p50 as f64) / 1e3,
        ),
        m("crypto.pair_key_us", "us", micro.pair_key_us),
        m("crypto.seal_us", "us", micro.seal_us),
        m("crypto.open_us", "us", micro.open_us),
        m("crypto.sha256_mb_s", "MB/s", micro.sha256_mb_s),
        m("crypto.chain_append_us", "us", micro.chain_append_us),
        m("crypto.chain_verify_us", "us", micro.chain_verify_us),
        m("crypto.frame_bytes", "B", micro.frame_len as f64),
        m("mds.encode_us", "us", micro.mds_encode_us),
        m("mds.decode_us", "us", micro.mds_decode_us),
        m(
            "common.codec.encode_request_us",
            "us",
            micro.encode_request_us,
        ),
    ]
}
