//! Fault behaviour of the TCP deployment at the socket level: forged and
//! garbage frames, a silent replica, concurrent clients on one register,
//! heavy frame loss, and a blackholed replica's circuit breaker.

use std::io::Write;
use std::net::TcpStream;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use safereg_common::config::{QuorumConfig, ServerRuntime, TransportConfig};
use safereg_common::epoch::EpochConfig;
use safereg_common::ids::{ClientId, ReaderId, ServerId, WriterId};
use safereg_common::msg::{ClientToServer, OpId};
use safereg_common::shard::ShardId;
use safereg_common::tag::Tag;
use safereg_core::behavior::ByzRole;
use safereg_crypto::keychain::KeyChain;
use safereg_kv::{encode_request, KvClient, KvMode, KvServerHost, TcpKvCluster, TcpKvTransport};
use safereg_obs::names;
use safereg_transport::chaos::{ChaosNet, FaultPlan, FaultSpec};
use safereg_transport::read_frame;

/// The `kv.*` healing counters are process-global: a test asserting that
/// one moved would be satisfied by another test's faults. Every test here
/// that drives a `TcpKvTransport` holds this lock.
static KV_COUNTERS: Mutex<()> = Mutex::new(());

fn kv_counters() -> MutexGuard<'static, ()> {
    KV_COUNTERS.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The wire bytes of one authenticated `QueryTag` request to replica 0 of
/// a freshly spawned single-shard deployment.
fn query_tag(chain: &KeyChain, cfg: QuorumConfig, seq: u64) -> Vec<u8> {
    let from = ClientId::Reader(ReaderId(1));
    encode_request(
        chain,
        EpochConfig::genesis(cfg.servers()).stamp(),
        from,
        ServerId(0),
        ShardId(0),
        b"k",
        &ClientToServer::QueryTag {
            op: OpId::new(from, seq),
        },
    )
}

/// Garbage and MAC-forged frames are dropped without an answer, and the
/// connection survives them: a genuine request on the same stream is still
/// served, on either runtime.
#[test]
fn forged_frame_is_dropped_and_the_connection_survives() {
    let cfg = QuorumConfig::minimal_bsr(1).unwrap();
    for runtime in [ServerRuntime::Reactor, ServerRuntime::Threaded] {
        let chain = KeyChain::from_master_seed(b"forged");
        let host = KvServerHost::builder(ServerId(0), cfg, KvMode::Replicated, chain.clone())
            .runtime(runtime)
            .spawn()
            .unwrap();
        let mut stream = TcpStream::connect(host.addr()).unwrap();
        let garbage = b"not a kv frame at all";
        stream
            .write_all(&(garbage.len() as u32).to_le_bytes())
            .unwrap();
        stream.write_all(garbage).unwrap();
        let mut forged = query_tag(&chain, cfg, 1);
        *forged.last_mut().unwrap() ^= 0xFF; // break the MAC
        stream.write_all(&forged).unwrap();
        stream.write_all(&query_tag(&chain, cfg, 2)).unwrap();

        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let reply = read_frame(&mut stream).unwrap();
        assert!(
            !reply.is_empty(),
            "{runtime:?}: the genuine request is served"
        );
        stream
            .set_read_timeout(Some(Duration::from_millis(300)))
            .unwrap();
        assert!(
            read_frame(&mut stream).is_err(),
            "{runtime:?}: exactly one reply — the forged frames went unanswered"
        );
    }
}

/// A Byzantine silent replica accepts connections and reads requests but
/// never answers.
#[test]
fn silent_host_accepts_but_never_answers() {
    let cfg = QuorumConfig::minimal_bsr(1).unwrap();
    let chain = KeyChain::from_master_seed(b"byz-silent");
    let host = KvServerHost::builder(ServerId(0), cfg, KvMode::Replicated, chain.clone())
        .role(ByzRole::Silent, 1)
        .spawn()
        .unwrap();
    let mut stream = TcpStream::connect(host.addr()).unwrap();
    stream.write_all(&query_tag(&chain, cfg, 1)).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_millis(300)))
        .unwrap();
    assert!(
        read_frame(&mut stream).is_err(),
        "silent replica must not reply"
    );
}

/// Stopping a host twice (and then dropping it) neither blocks nor
/// panics.
#[test]
fn host_stop_is_idempotent() {
    let cfg = QuorumConfig::minimal_bsr(1).unwrap();
    let chain = KeyChain::from_master_seed(b"stop");
    let mut host = KvServerHost::builder(ServerId(0), cfg, KvMode::Replicated, chain)
        .spawn()
        .unwrap();
    host.stop();
    host.stop();
}

/// Three writers and three readers hammer one key from separate threads,
/// each with its own transport. Every writer's tags grow, every read
/// returns a written value (or the initial one), each reader's tags never
/// regress, and a quiescent read afterwards returns the highest-tagged
/// write.
#[test]
fn concurrent_writers_and_readers_share_one_key() {
    let _counters = kv_counters();
    let cfg = QuorumConfig::minimal_bsr(1).unwrap();
    let cluster = TcpKvCluster::builder(KvMode::Replicated, b"concurrency")
        .quorum(cfg)
        .start()
        .unwrap();
    let written = |v: &[u8]| {
        v.is_empty() || (0..3).any(|w| (0..5).any(|i| v == format!("w{w}-i{i}").as_bytes()))
    };

    let max_tag = std::thread::scope(|s| {
        let writers: Vec<_> = (0..3u16)
            .map(|w| {
                let cluster = &cluster;
                s.spawn(move || {
                    let mut transport = cluster.transport();
                    let mut client = KvClient::new(cfg, WriterId(w), ReaderId(w));
                    let mut last = Tag::ZERO;
                    for i in 0..5 {
                        let tag = client
                            .put(&mut transport, b"shared", format!("w{w}-i{i}").into_bytes())
                            .unwrap();
                        assert!(tag > last, "writer {w}: tags must grow");
                        last = tag;
                    }
                    last
                })
            })
            .collect();
        for r in 0..3u16 {
            let cluster = &cluster;
            s.spawn(move || {
                let mut transport = cluster.transport();
                let mut client = KvClient::new(cfg, WriterId(10 + r), ReaderId(r));
                let mut last = Tag::ZERO;
                for _ in 0..5 {
                    let (value, tag) = client.get_with_tag(&mut transport, b"shared").unwrap();
                    assert!(written(value.as_bytes()), "reader {r}: unwritten {value:?}");
                    assert!(tag >= last, "reader {r}: regressed");
                    last = tag;
                }
            });
        }
        writers
            .into_iter()
            .map(|w| w.join().expect("writer thread"))
            .max()
            .unwrap()
    });

    let mut transport = cluster.transport();
    let mut client = KvClient::new(cfg, WriterId(20), ReaderId(9));
    let (_, tag) = client.get_with_tag(&mut transport, b"shared").unwrap();
    assert_eq!(
        tag, max_tag,
        "final read returns the newest committed write"
    );
}

/// Severe chaos (heavy loss, frequent kills) on every link: requests and
/// replies vanish constantly, and only reconnects plus the client's retry
/// passes let operations complete. Every write must still finish within a
/// few attempts, and unreachable exchanges must have been retried.
#[test]
fn heavy_frame_loss_is_masked_by_retries() {
    let _counters = kv_counters();
    let reg = safereg_obs::global();
    let unreachable_before = reg.counter(names::KV_EXCHANGE_UNREACHABLE).get();

    let cfg = QuorumConfig::minimal_bsr(1).unwrap();
    let cluster = TcpKvCluster::builder(KvMode::Replicated, b"chaos-retry")
        .quorum(cfg)
        .start()
        .unwrap();
    let net = ChaosNet::wrap(&cluster.addrs(), &FaultPlan::new(11, FaultSpec::severe())).unwrap();
    let mut config = TransportConfig::aggressive();
    config.io_timeout = Duration::from_millis(200);
    config.retry_budget = 8;
    let mut transport = TcpKvTransport::connect_with(&net.addrs(), cluster.chain().clone(), config);
    let mut client = KvClient::new(cfg, WriterId(3), ReaderId(3));
    client.set_policy(config);

    for i in 0..10 {
        let value = format!("lossy-{i}").into_bytes();
        let mut attempts = 0;
        while let Err(e) = client.put(&mut transport, b"lossy", value.clone()) {
            attempts += 1;
            assert!(attempts < 5, "write {i} never completed: {e}");
        }
    }
    assert!(
        reg.counter(names::KV_EXCHANGE_UNREACHABLE).get() > unreachable_before,
        "severe loss must have sent at least one exchange into a retry pass"
    );
}

/// Drives writes and reads through calm proxies while replicas are severed
/// and blackholed: the transport reconnects, a blackholed replica's
/// breaker trips Open and closes again once frames flow, and no operation
/// is lost.
#[test]
fn breaker_opens_on_a_blackhole_and_closes_after() {
    let _counters = kv_counters();
    let reg = safereg_obs::global();
    let reconnects_before = reg.counter(names::KV_RECONNECTS).get();
    let transitions_before = reg.counter(names::KV_BREAKER_TRANSITIONS).get();

    let cfg = QuorumConfig::minimal_bsr(1).unwrap();
    let cluster = TcpKvCluster::builder(KvMode::Replicated, b"chaos-it")
        .quorum(cfg)
        .start()
        .unwrap();
    // Calm spec: the only faults are the targeted sever/blackhole below.
    let net = ChaosNet::wrap(&cluster.addrs(), &FaultPlan::new(7, FaultSpec::calm())).unwrap();
    let config = TransportConfig::aggressive();
    let mut transport = TcpKvTransport::connect_with(&net.addrs(), cluster.chain().clone(), config);
    let mut client = KvClient::new(cfg, WriterId(0), ReaderId(0));
    client.set_policy(config);
    client.put(&mut transport, b"k", "before faults").unwrap();

    // Kill every live connection to two replicas: the next operations
    // reconnect without losing anything.
    net.sever(ServerId(1));
    net.sever(ServerId(2));
    client.put(&mut transport, b"k", "after sever").unwrap();
    assert_eq!(
        client.get(&mut transport, b"k").unwrap().as_bytes(),
        b"after sever"
    );
    assert!(
        reg.counter(names::KV_RECONNECTS).get() > reconnects_before,
        "severed links must have been re-established"
    );

    // Blackhole one replica (<= f): connects succeed, frames vanish. Its
    // breaker must trip Open while writes keep completing on the others.
    net.set_blackhole(ServerId(2), true);
    let deadline = Instant::now() + Duration::from_secs(10);
    while transport.link_state(ServerId(2)) != Some(2) {
        assert!(
            Instant::now() < deadline,
            "breaker never opened for the blackholed replica"
        );
        client
            .put(&mut transport, b"k", "during blackhole")
            .unwrap();
    }
    assert_eq!(
        client.get(&mut transport, b"k").unwrap().as_bytes(),
        b"during blackhole"
    );
    assert!(
        reg.counter(names::KV_BREAKER_TRANSITIONS).get() > transitions_before,
        "the blackhole must have moved a breaker"
    );

    // Lift it: the breaker only closes once a real frame is delivered,
    // which needs traffic — keep writing until it heals.
    net.set_blackhole(ServerId(2), false);
    let deadline = Instant::now() + Duration::from_secs(10);
    while transport.link_state(ServerId(2)) != Some(0) {
        assert!(
            Instant::now() < deadline,
            "breaker never closed after the blackhole lifted"
        );
        client.put(&mut transport, b"k", "healing").unwrap();
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        (0..5).all(|s| transport.link_state(ServerId(s)) == Some(0)),
        "all links healthy after recovery"
    );
}
