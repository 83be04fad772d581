//! Per-layer timings taken from outside the program: a timing wrapper
//! around any `KvTransport`, and micro-timings of the crypto, mds and
//! codec entry points at each workload's own frame and value sizes.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use safereg_common::epoch::ConfigStamp;
use safereg_common::ids::{ClientId, NodeId, ReaderId, ServerId, WriterId};
use safereg_common::msg::{ClientToServer, OpId, ServerToClient};
use safereg_common::shard::ShardId;
use safereg_common::tag::Tag;
use safereg_common::trace::TraceCtx;
use safereg_common::value::Value;
use safereg_crypto::{AuthCodec, KeyChain, LinkKind, ResponseChain, Sha256};
use safereg_kv::{encode_request, KvTransport, Unreachable};
use safereg_mds::{decode_elements, encode_value, ElementView, ReedSolomon};

use crate::load::{now_ns, Probe};
use crate::stats::median;
use crate::workload::Workload;

/// One request the wrapper saw, kept to price the codec and the MACs at
/// the sizes the workload really sends.
pub struct Sample {
    from: ClientId,
    to: ServerId,
    shard: ShardId,
    key: Vec<u8>,
    msg: ClientToServer,
}

/// Every `SAMPLE_EVERY`-th exchange is sampled, up to `MAX_SAMPLES`.
const SAMPLE_EVERY: usize = 16;
const MAX_SAMPLES: usize = 256;

/// What the wrapper counted and timed. Per op, `op_ns` splits exactly
/// into `self_ns` (client code between exchanges), `exch_ns` (inside the
/// wrapped transport) and the wrapper's own bookkeeping, which is what
/// remains.
#[derive(Default)]
pub struct Tally {
    pub ops: u64,
    pub op_ns: u64,
    pub self_ns: u64,
    pub exch_ns: u64,
    /// Duration of every exchange.
    pub exchanges: Vec<u64>,
    pub unreachable: u64,
    /// Time inside exchanges that ended `Unreachable`.
    pub stall_ns: u64,
    pub per_server: BTreeMap<ServerId, u64>,
    pub samples: Vec<Sample>,
    op_start: u64,
    last_exit: u64,
}

impl Tally {
    pub fn merge(&mut self, other: Tally) {
        self.ops += other.ops;
        self.op_ns += other.op_ns;
        self.self_ns += other.self_ns;
        self.exch_ns += other.exch_ns;
        self.exchanges.extend(other.exchanges);
        self.unreachable += other.unreachable;
        self.stall_ns += other.stall_ns;
        for (sid, n) in other.per_server {
            *self.per_server.entry(sid).or_default() += n;
        }
        self.samples.extend(other.samples);
    }
}

/// A `KvTransport` that times each call into the transport it wraps.
pub struct Timed<'a, T> {
    inner: &'a mut T,
    pub tally: Tally,
}

impl<'a, T: KvTransport> Timed<'a, T> {
    pub fn new(inner: &'a mut T) -> Self {
        Timed {
            inner,
            tally: Tally::default(),
        }
    }
}

impl<T: KvTransport> KvTransport for Timed<'_, T> {
    fn exchange(
        &mut self,
        from: ClientId,
        to: ServerId,
        shard: ShardId,
        key: &[u8],
        msg: &ClientToServer,
        trace: TraceCtx,
    ) -> Result<Vec<ServerToClient>, Unreachable> {
        let enter = now_ns();
        let t = &mut self.tally;
        t.self_ns += enter - t.last_exit;
        if t.exchanges.len().is_multiple_of(SAMPLE_EVERY) && t.samples.len() < MAX_SAMPLES {
            t.samples.push(Sample {
                from,
                to,
                shard,
                key: key.to_vec(),
                msg: msg.clone(),
            });
        }
        let begin = now_ns();
        let out = self.inner.exchange(from, to, shard, key, msg, trace);
        let end = now_ns();
        let t = &mut self.tally;
        t.exch_ns += end - begin;
        t.exchanges.push(end - begin);
        *t.per_server.entry(to).or_default() += 1;
        if out.is_err() {
            t.unreachable += 1;
            t.stall_ns += end - begin;
        }
        t.last_exit = now_ns();
        out
    }

    fn reconfigure(&mut self, config: &safereg_common::epoch::EpochConfig) {
        self.inner.reconfigure(config);
    }

    fn suspect(&mut self, server: ServerId) {
        self.inner.suspect(server);
    }
}

impl<T: KvTransport> Probe for Timed<'_, T> {
    fn op_start(&mut self, at: u64) {
        self.tally.op_start = at;
        self.tally.last_exit = at;
    }

    fn op_end(&mut self, at: u64) {
        let t = &mut self.tally;
        t.self_ns += at - t.last_exit;
        t.op_ns += at - t.op_start;
        t.ops += 1;
    }
}

/// Nanoseconds per call of `f`: the median of seven batches, each sized
/// to run for at least `batch`.
fn per_call_ns(batch: Duration, mut f: impl FnMut()) -> f64 {
    let mut iters = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        if t.elapsed() >= batch {
            break;
        }
        iters *= 2;
    }
    let mut per_call: Vec<f64> = (0..7)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&mut per_call)
}

const BATCH: Duration = Duration::from_millis(4);

/// Unit costs of the layers under the wire path, in microseconds unless
/// the name says otherwise.
pub struct Micro {
    /// Mean sealed request frame length, in bytes, over the sampled
    /// requests.
    pub frame_len: usize,
    pub pair_key_us: f64,
    pub seal_us: f64,
    pub open_us: f64,
    pub sha256_mb_s: f64,
    pub chain_append_us: f64,
    pub chain_verify_us: f64,
    pub encode_request_us: f64,
    pub mds_encode_us: f64,
    pub mds_decode_us: f64,
}

impl Micro {
    /// Crypto cost of one exchange: four frame MACs (client seal, server
    /// open, server seal, client open), each keyed by a fresh `pair_key`
    /// as every call site does, plus the server's attestation link and
    /// the client audit log's check of it.
    pub fn crypto_us_per_exchange(&self) -> f64 {
        4.0 * self.pair_key_us
            + 2.0 * (self.seal_us + self.open_us)
            + self.chain_append_us
            + self.chain_verify_us
    }
}

pub fn micro(w: &Workload, chain: &KeyChain, stamp: ConfigStamp, samples: &[Sample]) -> Micro {
    assert!(!samples.is_empty(), "the traced run sampled no requests");
    let frames: Vec<Vec<u8>> = samples
        .iter()
        .map(|s| encode_request(chain, stamp, s.from, s.to, s.shard, &s.key, &s.msg))
        .collect();
    // Wire bytes minus the 4-byte length prefix and the trailing MAC: the
    // payload a seal covers.
    let frame_len = frames.iter().map(Vec::len).sum::<usize>() / frames.len();
    let payload = vec![0x5au8; frame_len.saturating_sub(4 + 32)];

    let client = NodeId::Client(ClientId::Writer(WriterId(1)));
    let server = NodeId::Server(ServerId(0));
    let pair_key_us = per_call_ns(BATCH, || {
        black_box(chain.pair_key(black_box(client), black_box(server)));
    }) / 1e3;
    let key = chain.pair_key(client, server);
    // The transport seals with `mac_of_parts` over the frame's parts.
    let seal_us = per_call_ns(BATCH, || {
        black_box(AuthCodec::new(key).mac_of_parts(&[black_box(&payload)]));
    }) / 1e3;
    let sealed = AuthCodec::new(key).seal(&payload);
    let open_us = per_call_ns(BATCH, || {
        let codec = AuthCodec::new(key);
        black_box(codec.open(black_box(&sealed)).is_ok());
    }) / 1e3;

    let block = vec![0xa5u8; 16 * 1024];
    let sha_ns = per_call_ns(BATCH, || {
        black_box(Sha256::digest(black_box(&block)));
    });
    let sha256_mb_s = block.len() as f64 / sha_ns * 1e3;

    let op = OpId::new(ReaderId(1), 1);
    let mut responses = ResponseChain::new(chain, ServerId(0), 1);
    let tag = Tag::new(1, WriterId(1));
    let chain_append_us = per_call_ns(BATCH, || {
        black_box(responses.append(op, LinkKind::DataResp, 7, tag, 11));
    }) / 1e3;
    let link = responses.append(op, LinkKind::DataResp, 7, tag, 11);
    let chain_verify_us = per_call_ns(BATCH, || {
        black_box(black_box(&link).verify(chain));
    }) / 1e3;

    let mut next = 0;
    let encode_request_us = per_call_ns(BATCH, || {
        let s = &samples[next % samples.len()];
        next += 1;
        black_box(encode_request(
            chain, stamp, s.from, s.to, s.shard, &s.key, &s.msg,
        ));
    }) / 1e3;

    let (mds_encode_us, mds_decode_us) = mds(w);
    Micro {
        frame_len,
        pair_key_us,
        seal_us,
        open_us,
        sha256_mb_s,
        chain_append_us,
        chain_verify_us,
        encode_request_us,
        mds_encode_us,
        mds_decode_us,
    }
}

/// `encode_value` / `decode_elements` at the workload's value size. A
/// coded workload uses its own `[m, m − 5f]` code and decodes from the
/// `m − f` elements a read collects; a replicated one, which never calls
/// the coder, prices the smallest code its `f` would need, `[5f + 1, 1]`.
fn mds(w: &Workload) -> (f64, f64) {
    let f = w.quorum.f();
    let code = match w.code_k() {
        Some(k) => ReedSolomon::new(w.quorum.n(), k),
        None => ReedSolomon::new(5 * f + 1, 1),
    }
    .expect("valid code");
    let value = Value::from(vec![0x3cu8; w.value_len]);
    let encode_us = per_call_ns(BATCH, || {
        black_box(encode_value(&code, black_box(&value)));
    }) / 1e3;
    let elements = encode_value(&code, &value);
    let views: Vec<ElementView<'_>> = elements[..code.n() - f]
        .iter()
        .map(ElementView::of)
        .collect();
    let decode_us = per_call_ns(BATCH, || {
        black_box(decode_elements(&code, w.value_len, black_box(&views)).is_ok());
    }) / 1e3;
    (encode_us, decode_us)
}
