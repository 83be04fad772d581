//! Deployment and closed-loop load: an in-process `TcpKvCluster`, one
//! `KvClient` per client thread, every op's invoke/response time recorded
//! for the safety checker.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

use safereg_checker::check_safety;
use safereg_common::history::History;
use safereg_common::ids::{ReaderId, WriterId};
use safereg_common::msg::OpId;
use safereg_common::rng::DetRng;
use safereg_common::tag::Tag;
use safereg_common::value::Value;
use safereg_core::behavior::ByzRole;
use safereg_kv::{InMemKvCluster, KvClient, KvMode, KvTransport, TcpKvCluster, TcpKvTransport};

use crate::workload::{Mix, Workload, CLIENTS};

/// Nanoseconds on one monotonic clock shared by every thread, so the
/// invoke/response stamps of different clients order in real time.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A transport the load loop can drive, with hooks around each client
/// operation. Plain transports ignore them; the timing wrapper uses them
/// to split an op into client self time and exchange time.
pub trait Probe: KvTransport {
    fn op_start(&mut self, _at: u64) {}
    fn op_end(&mut self, _at: u64) {}
}

impl Probe for TcpKvTransport {}
impl Probe for InMemKvCluster {}

/// Which part of a run an op belongs to. Only `Measure` ops feed the
/// end-to-end metrics; every phase feeds the checker, since a warm-up put
/// is what a later get may legitimately return.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Preload,
    Warmup,
    Measure,
    Traced,
}

#[derive(Debug, Clone)]
pub struct OpRec {
    pub phase: Phase,
    pub key: u32,
    pub write: bool,
    /// The value put, or the value a successful get returned.
    pub value: Option<Value>,
    pub tag: Tag,
    pub invoked: u64,
    pub done: u64,
    pub ok: bool,
}

impl OpRec {
    pub fn latency_ns(&self) -> u64 {
        self.done - self.invoked
    }
}

/// Values carry their writer and sequence number in the first 10 bytes,
/// so every put writes a distinct value and a get can be traced back to
/// the put it returned. The rest is seeded filler.
pub struct Values {
    base: Vec<u8>,
}

const VALUE_ID_LEN: usize = 10;

impl Values {
    pub fn new(len: usize, seed: u64) -> Self {
        assert!(len >= VALUE_ID_LEN, "values hold their writer and sequence");
        let mut base = vec![0u8; len];
        DetRng::seed_from(seed ^ 0x7661_6c75_6573).fill_bytes(&mut base);
        Values { base }
    }

    fn make(&self, writer: WriterId, seq: u64) -> Value {
        let mut v = self.base.clone();
        v[..2].copy_from_slice(&writer.0.to_le_bytes());
        v[2..VALUE_ID_LEN].copy_from_slice(&seq.to_le_bytes());
        Value::from(v)
    }

    fn id_of(value: &Value) -> Option<(u16, u64)> {
        let b = value.as_bytes();
        if b.len() < VALUE_ID_LEN {
            return None;
        }
        let writer = u16::from_le_bytes([b[0], b[1]]);
        let seq = u64::from_le_bytes(b[2..VALUE_ID_LEN].try_into().ok()?);
        Some((writer, seq))
    }
}

/// One closed-loop client: a `KvClient` with one op outstanding at a time,
/// its own seeded op stream, and the log of everything it did.
pub struct Lane {
    idx: usize,
    client: KvClient,
    writer: WriterId,
    reader: ReaderId,
    rng: DetRng,
    seq: u64,
    pub log: Vec<OpRec>,
}

impl Lane {
    pub fn new(w: &Workload, idx: usize, seed: u64) -> Self {
        let writer = WriterId(idx as u16 + 1);
        let reader = ReaderId(idx as u16 + 1);
        let mut client = match w.mode {
            KvMode::Replicated => KvClient::new(w.quorum, writer, reader),
            KvMode::Coded => KvClient::new_coded(w.quorum, writer, reader),
        };
        client.set_policy(w.tconfig);
        Lane {
            idx,
            client,
            writer,
            reader,
            rng: DetRng::seed_from(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ idx as u64),
            seq: 0,
            log: Vec::new(),
        }
    }

    pub fn writer(&self) -> WriterId {
        self.writer
    }

    /// The keys this lane preloads: all of them for the single writer,
    /// an interleaved share when every lane writes.
    fn preload_keys(&self, w: &Workload) -> Vec<usize> {
        match w.mix {
            Mix::Mixed => (self.idx..w.keys).step_by(CLIENTS).collect(),
            Mix::WriterReader if self.idx == 0 => (0..w.keys).collect(),
            Mix::WriterReader => Vec::new(),
        }
    }

    /// The next op of this lane's seeded stream: `(key, is_put)`.
    fn next_op(&mut self, w: &Workload) -> (usize, bool) {
        let key = self.rng.index(w.keys);
        let write = match w.mix {
            Mix::Mixed => self.rng.next_u64() & 1 == 0,
            Mix::WriterReader => self.idx == 0,
        };
        (key, write)
    }

    /// Runs one op to completion and logs it.
    fn step<T: Probe>(&mut self, t: &mut T, ctx: &Ctx<'_>, key: usize, write: bool, phase: Phase) {
        let invoked = now_ns();
        t.op_start(invoked);
        let (ok, value, tag) = if write {
            self.seq += 1;
            let value = ctx.values.make(self.writer, self.seq);
            match self.client.put(t, &ctx.keys[key], value.clone()) {
                Ok(tag) => (true, Some(value), tag),
                Err(_) => (false, Some(value), Tag::ZERO),
            }
        } else {
            match self.client.get_with_tag(t, &ctx.keys[key]) {
                Ok((value, tag)) => (true, Some(value), tag),
                Err(_) => (false, None, Tag::ZERO),
            }
        };
        let done = now_ns();
        t.op_end(done);
        self.log.push(OpRec {
            phase,
            key: key as u32,
            write,
            value,
            tag,
            invoked,
            done,
            ok,
        });
    }
}

/// The generated inputs every lane draws from.
pub struct Ctx<'a> {
    pub w: &'a Workload,
    pub keys: &'a [Vec<u8>],
    pub values: &'a Values,
}

pub fn keys(w: &Workload) -> Vec<Vec<u8>> {
    (0..w.keys)
        .map(|i| format!("key/{i:05}").into_bytes())
        .collect()
}

/// A running cluster with its connected, preloaded clients.
pub struct Deployment {
    pub cluster: TcpKvCluster,
    pub lanes: Vec<Lane>,
    pub transports: Vec<TcpKvTransport>,
}

/// Starts the cluster, connects one client per lane and preloads the key
/// space: everything that must happen before load can begin.
pub fn deploy(ctx: &Ctx<'_>, seed: u64) -> std::io::Result<Deployment> {
    let w = ctx.w;
    let mut builder = TcpKvCluster::builder(w.mode, format!("perfbench/{seed}").as_bytes())
        .quorum(w.quorum)
        .config(w.tconfig);
    if let Some(sid) = w.silent {
        builder = builder.role(sid, ByzRole::Silent, seed);
    }
    let cluster = builder.start()?;
    let audit = cluster.audit_log();
    let mut lanes: Vec<Lane> = (0..CLIENTS).map(|i| Lane::new(w, i, seed)).collect();
    audit.register_writers(lanes.iter().map(Lane::writer));
    let mut transports: Vec<TcpKvTransport> = lanes
        .iter()
        .map(|_| {
            let mut t = cluster.transport_with(w.tconfig);
            t.set_audit(audit.clone());
            t
        })
        .collect();
    std::thread::scope(|s| {
        for (lane, t) in lanes.iter_mut().zip(transports.iter_mut()) {
            s.spawn(move || preload(lane, t, ctx));
        }
    });
    Ok(Deployment {
        cluster,
        lanes,
        transports,
    })
}

/// Per-lane `[first invoke, last response]` of one closed-loop phase.
pub type Spans = Vec<(u64, u64)>;

/// When a closed-loop phase stops issuing ops.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// At a deadline this long after the lanes start.
    Elapsed(Duration),
    /// Once the lanes together have issued this many ops.
    Ops(usize),
}

/// Drives every lane closed-loop until `until`: each issues its next op
/// only once the previous one has returned. The lanes start together
/// behind a barrier.
pub fn run_phase<T: Probe + Send>(
    lanes: &mut [Lane],
    transports: &mut [T],
    ctx: &Ctx<'_>,
    phase: Phase,
    until: Until,
) -> Spans {
    let barrier = Barrier::new(lanes.len());
    let issued = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let handles: Vec<_> = lanes
            .iter_mut()
            .zip(transports.iter_mut())
            .map(|(lane, t)| {
                let (barrier, issued) = (&barrier, &issued);
                s.spawn(move || {
                    barrier.wait();
                    let start = now_ns();
                    let more = || match until {
                        Until::Elapsed(dur) => now_ns() - start < dur.as_nanos() as u64,
                        Until::Ops(n) => issued.fetch_add(1, Ordering::Relaxed) < n,
                    };
                    let mut last = start;
                    while more() {
                        let (key, write) = lane.next_op(ctx.w);
                        lane.step(t, ctx, key, write, phase);
                        last = lane.log.last().map_or(last, |r| r.done);
                    }
                    (start, last)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    })
}

/// The window a phase's throughput is measured over: first start to last
/// response across all lanes, so an op that straddles the deadline is
/// paid for in full.
pub fn window_ns(spans: &Spans) -> u64 {
    let start = spans.iter().map(|s| s.0).min().unwrap_or(0);
    let end = spans.iter().map(|s| s.1).max().unwrap_or(start);
    end.saturating_sub(start).max(1)
}

/// Preloads the lane's share of the key space through `t`.
pub fn preload<T: Probe>(lane: &mut Lane, t: &mut T, ctx: &Ctx<'_>) {
    for key in lane.preload_keys(ctx.w) {
        lane.step(t, ctx, key, true, Phase::Preload);
    }
}

/// Replays the lanes' op streams through one shared transport from a
/// single thread, alternating lanes, for `dur`.
pub fn run_serial<T: Probe>(lanes: &mut [Lane], t: &mut T, ctx: &Ctx<'_>, dur: Duration) {
    let deadline = now_ns() + dur.as_nanos() as u64;
    while now_ns() < deadline {
        for lane in lanes.iter_mut() {
            let (key, write) = lane.next_op(ctx.w);
            lane.step(t, ctx, key, write, Phase::Traced);
        }
    }
}

/// Of the time at least one lane sat in a timed-window op slower than
/// `stall`, the share all lanes did at once; 0 when no op stalled.
pub fn stall_overlap(lanes: &[Lane], stall: Duration) -> f64 {
    let min = stall.as_nanos() as u64;
    // Sweep the stalls' start (+1) and end (-1) points in time order.
    let mut edges: Vec<(u64, i32)> = lanes
        .iter()
        .flat_map(|l| &l.log)
        .filter(|r| r.phase == Phase::Measure && r.latency_ns() >= min)
        .flat_map(|r| [(r.invoked, 1), (r.done, -1)])
        .collect();
    edges.sort_unstable();
    let (mut depth, mut last, mut any, mut all) = (0i32, 0u64, 0u64, 0u64);
    for (at, step) in edges {
        if depth > 0 {
            any += at - last;
        }
        if depth as usize == lanes.len() {
            all += at - last;
        }
        depth += step;
        last = at;
    }
    all as f64 / any.max(1) as f64
}

/// What the correctness gate found in a run's recorded history.
pub struct Verdict {
    /// Definition 1 violations from `check_safety`, rendered.
    pub violations: Vec<String>,
    /// Gets whose value no put of that key wrote (preload included).
    pub foreign_values: usize,
    pub ops_checked: usize,
    pub check_ns: u64,
}

/// Checks every recorded op: per-key safety (Definition 1) over the
/// invoke/response times, and that every get returned a value some put
/// of the same key wrote.
pub fn check(lanes: &[Lane], keys: usize) -> Verdict {
    let started = Instant::now();
    let mut histories: Vec<History> = (0..keys).map(|_| History::new()).collect();
    let mut written: HashMap<(u16, u64), (u32, &Value)> = HashMap::new();
    let mut ops_checked = 0;
    for lane in lanes {
        for (i, rec) in lane.log.iter().enumerate() {
            let h = &mut histories[rec.key as usize];
            match (&rec.value, rec.write) {
                (Some(value), true) => {
                    let op = OpId::new(lane.writer, i as u64);
                    let handle = h.begin_write(op, value.clone(), rec.invoked);
                    if rec.ok {
                        h.complete_write(handle, rec.tag, rec.done);
                    }
                    if let Some(id) = Values::id_of(value) {
                        written.insert(id, (rec.key, value));
                    }
                }
                (Some(value), false) => {
                    let op = OpId::new(lane.reader, i as u64);
                    let handle = h.begin_read(op, rec.invoked);
                    h.complete_read(handle, value.clone(), rec.tag, rec.done);
                }
                (None, _) => continue,
            }
            ops_checked += 1;
        }
    }
    let violations = histories
        .iter()
        .flat_map(check_safety)
        .map(|v| v.to_string())
        .collect();
    let foreign_values = lanes
        .iter()
        .flat_map(|l| &l.log)
        .filter(|r| !r.write && r.ok)
        .filter(|r| {
            let value = r.value.as_ref().expect("successful gets hold a value");
            let wrote = Values::id_of(value).and_then(|id| written.get(&id));
            !matches!(wrote, Some((key, v)) if *key == r.key && *v == value)
        })
        .count();
    Verdict {
        violations,
        foreign_values,
        ops_checked,
        check_ns: started.elapsed().as_nanos() as u64,
    }
}
