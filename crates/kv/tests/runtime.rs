//! Reactor-runtime integration tests: the readiness-driven serving path
//! (`ServerRuntime::Reactor`, the default) must behave exactly like the
//! thread-per-connection runtime under chaos, backpressure and idleness,
//! and the builders must start working deployments.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use safereg_common::config::{QuorumConfig, ServerRuntime, TransportConfig};
use safereg_common::epoch::EpochConfig;
use safereg_common::ids::{ClientId, ReaderId, ServerId, WriterId};
use safereg_common::msg::{ClientToServer, OpId};
use safereg_common::shard::{ShardId, ShardMap};
use safereg_common::sync::channel::ShedPolicy;
use safereg_crypto::keychain::KeyChain;
use safereg_kv::{encode_request, KvClient, KvMode, KvServerHost, TcpKvCluster};
use safereg_obs::names;
use safereg_transport::chaos::{ChaosNet, FaultPlan, FaultSpec};
use safereg_transport::poll::PollBackend;

fn roundtrip(cluster: &TcpKvCluster, who: u16, key: &[u8], value: &str) {
    let mut transport = cluster.transport();
    let mut client = KvClient::new(cluster.map().shard_config(), WriterId(who), ReaderId(who));
    client.put(&mut transport, key, value).unwrap();
    assert_eq!(
        client.get(&mut transport, key).unwrap().as_bytes(),
        value.as_bytes()
    );
}

/// The builders are the one construction path: a built cluster serves a
/// roundtrip, built hosts bind distinct ephemeral ports, and a cluster
/// builder with neither a quorum nor a placement refuses to start.
#[test]
fn builders_start_working_deployments() {
    let cfg = QuorumConfig::minimal_bsr(1).unwrap();
    let cluster = TcpKvCluster::builder(KvMode::Replicated, b"rt-equiv")
        .quorum(cfg)
        .start()
        .unwrap();
    roundtrip(&cluster, 1, b"equiv", "via builder");
    drop(cluster);

    let chain = KeyChain::from_master_seed(b"rt-equiv-host");
    let a = KvServerHost::builder(ServerId(0), cfg, KvMode::Replicated, chain.clone())
        .spawn()
        .unwrap();
    let b = KvServerHost::builder(ServerId(0), cfg, KvMode::Replicated, chain)
        .spawn()
        .unwrap();
    assert_ne!(a.addr(), b.addr());

    let err = TcpKvCluster::builder(KvMode::Replicated, b"rt-equiv")
        .start()
        .unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
}

/// Chaos over the reactor runtime: with every link fronted by a fault
/// proxy, one replica severed and then blackholed (`<= f`), the register
/// must keep serving and the reactor must report the connections it
/// adopted.
#[test]
fn reactor_cluster_survives_sever_and_blackhole() {
    let cfg = QuorumConfig::minimal_bsr(1).unwrap();
    let cluster = TcpKvCluster::builder(KvMode::Replicated, b"rt-chaos")
        .quorum(cfg)
        .runtime(ServerRuntime::Reactor)
        .start()
        .unwrap();
    let plan = FaultPlan::new(0x0EAC_0EAC, FaultSpec::calm());
    let net = ChaosNet::wrap(&cluster.addrs(), &plan).unwrap();
    let mut transport = safereg_kv::TcpKvTransport::connect_with(
        &net.addrs(),
        cluster.chain().clone(),
        TransportConfig::aggressive(),
    );
    let mut client = KvClient::new(cfg, WriterId(3), ReaderId(3));
    client.set_policy(TransportConfig::aggressive());

    client.put(&mut transport, b"chaos", "calm").unwrap();

    // Cut one replica's established sessions outright.
    net.sever(ServerId(4));
    client.put(&mut transport, b"chaos", "severed").unwrap();
    assert_eq!(
        client.get(&mut transport, b"chaos").unwrap().as_bytes(),
        b"severed"
    );

    // Blackhole the same replica: new sessions connect but deliver nothing.
    net.set_blackhole(ServerId(4), true);
    client.put(&mut transport, b"chaos", "blackholed").unwrap();
    assert_eq!(
        client.get(&mut transport, b"chaos").unwrap().as_bytes(),
        b"blackholed"
    );
    net.set_blackhole(ServerId(4), false);

    let reg = safereg_obs::global();
    assert!(
        reg.gauge(names::REACTOR_THREADS).get() > 0,
        "reactor threads must be live while the cluster serves"
    );
    assert!(
        reg.counter(names::REACTOR_HANDOFFS).get() > 0,
        "accepted connections must have been handed to reactors"
    );
}

/// Builds the wire bytes of one authenticated `QueryData` request against
/// a single freshly-spawned replica (genesis epoch, single shard).
fn canned_query(chain: &KeyChain, cfg: QuorumConfig, who: u16, seq: u64) -> Vec<u8> {
    let stamp = EpochConfig::genesis(cfg.servers()).stamp();
    let from = ClientId::Reader(ReaderId(who));
    encode_request(
        chain,
        stamp,
        from,
        ServerId(0),
        ShardId(0),
        b"flood",
        &ClientToServer::QueryData {
            op: OpId::new(from, seq),
        },
    )
}

/// A peer that sends requests but never drains its replies must be stall
/// evicted by the reactor once the write side has been blocked for the
/// stall budget. The replies are made large (reads of a 1 MiB value) so
/// the kernel's generous loopback buffers cannot mask the jam.
#[test]
fn slow_reader_is_stall_evicted_by_the_reactor() {
    let tconfig = TransportConfig {
        chan_capacity: 4,
        shed_policy: ShedPolicy::Block,
        adaptive_outbox: false,
        stall_timeout: Duration::from_millis(300),
        idle_timeout: Duration::from_secs(30),
        ..TransportConfig::default()
    };
    // A one-replica deployment (n = 1, f = 0): a real client can complete
    // the seeding put against the same host the flood targets.
    let cfg = QuorumConfig::new(1, 0).unwrap();
    let chain = KeyChain::from_master_seed(b"rt-stall");
    let host = KvServerHost::builder(ServerId(0), cfg, KvMode::Replicated, chain.clone())
        .config(tconfig)
        .runtime(ServerRuntime::Reactor)
        .spawn()
        .unwrap();
    let addrs: std::collections::BTreeMap<ServerId, std::net::SocketAddr> =
        [(ServerId(0), host.addr())].into_iter().collect();
    let mut transport =
        safereg_kv::TcpKvTransport::connect_with(&addrs, chain.clone(), TransportConfig::default());
    let mut client = KvClient::new(cfg, WriterId(7), ReaderId(7));
    let blob: Vec<u8> = (0..1_048_576u32).map(|i| (i % 251) as u8).collect();
    client.put(&mut transport, b"flood", blob).unwrap();

    let reg = safereg_obs::global();
    let before = reg.counter(&names::eviction_counter("stall")).get();

    // Ask for the megabyte 300 times and read nothing: four queued replies
    // already exceed the socket buffers, so the reactor's write side jams
    // at once and the stall clock runs uninterrupted.
    let conn = TcpStream::connect(host.addr()).unwrap();
    for seq in 0..300u64 {
        let request = canned_query(&chain, cfg, 7, seq + 1);
        conn.set_write_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        if (&conn).write_all(&request).is_err() {
            break;
        }
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while std::time::Instant::now() < deadline
        && reg.counter(&names::eviction_counter("stall")).get() == before
    {
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(
        reg.counter(&names::eviction_counter("stall")).get() > before,
        "the reactor must have evicted the stalled connection"
    );
}

/// Idle eviction must survive the move to nonblocking sockets: a silent
/// connection is closed once the idle budget elapses, on the reactor path
/// specifically.
#[test]
fn idle_connection_is_evicted_on_the_reactor_path() {
    let tconfig = TransportConfig {
        idle_timeout: Duration::from_millis(250),
        ..TransportConfig::default()
    };
    let cfg = QuorumConfig::minimal_bsr(1).unwrap();
    let chain = KeyChain::from_master_seed(b"rt-idle");
    let host = KvServerHost::builder(ServerId(0), cfg, KvMode::Replicated, chain)
        .config(tconfig)
        .runtime(ServerRuntime::Reactor)
        .spawn()
        .unwrap();
    let before = safereg_obs::global()
        .counter(&names::eviction_counter("idle"))
        .get();
    let mut conn = TcpStream::connect(host.addr()).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut buf = [0u8; 1];
    assert_eq!(
        conn.read(&mut buf).unwrap(),
        0,
        "server closed the idle link"
    );
    assert!(
        safereg_obs::global()
            .counter(&names::eviction_counter("idle"))
            .get()
            > before
    );
}

/// Under a sustained shed storm the adaptive outbox must grow its
/// capacity (and count doing so): flood a tiny `DropNewest` outbox from a
/// client that never reads.
#[test]
fn adaptive_outbox_grows_under_a_shed_storm() {
    let tconfig = TransportConfig {
        chan_capacity: 2,
        chan_capacity_max: 64,
        shed_policy: ShedPolicy::DropNewest,
        adaptive_outbox: true,
        stall_timeout: Duration::from_secs(30),
        idle_timeout: Duration::from_secs(30),
        ..TransportConfig::default()
    };
    let cfg = QuorumConfig::minimal_bsr(1).unwrap();
    let chain = KeyChain::from_master_seed(b"rt-adaptive");
    let host = KvServerHost::builder(ServerId(0), cfg, KvMode::Replicated, chain.clone())
        .config(tconfig)
        .runtime(ServerRuntime::Reactor)
        .spawn()
        .unwrap();

    let reg = safereg_obs::global();
    let grow_before = reg.counter(names::CHAN_ADAPTIVE_GROW).get();

    let conn = TcpStream::connect(host.addr()).unwrap();
    conn.set_nonblocking(true).unwrap();
    let request = canned_query(&chain, cfg, 8, 1);
    // Keep the shed rate above the growth threshold across at least one
    // full adaptation window; DropNewest keeps the reactor reading (and
    // shedding) even while the reply path is jammed.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let mut off = 0usize;
    while std::time::Instant::now() < deadline {
        match (&conn).write(&request[off..]) {
            Ok(n) => {
                off += n;
                if off == request.len() {
                    off = 0;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => break,
        }
        if reg.counter(names::CHAN_ADAPTIVE_GROW).get() > grow_before {
            break;
        }
    }
    assert!(
        reg.counter(names::CHAN_ADAPTIVE_GROW).get() > grow_before,
        "a sustained shed storm must have grown the adaptive outbox"
    );
}

/// First-class `m < n` placement: an 8-server fleet serving 4 shards with
/// 5 replicas each (`f = 1`) must roundtrip keys across every shard over
/// the reactor runtime.
#[test]
fn m_of_n_sharded_cluster_roundtrips_on_the_reactor() {
    let fleet: Vec<ServerId> = (0..8).map(ServerId).collect();
    let map = ShardMap::with_replicas(0x5AFE_0008, 4, fleet, 5, 1).unwrap();
    let cluster = TcpKvCluster::builder(KvMode::Replicated, b"rt-mofn")
        .shards(map.clone())
        .runtime(ServerRuntime::Reactor)
        .start()
        .unwrap();
    let mut transport = cluster.transport();
    let mut client = KvClient::sharded(map.clone(), WriterId(5), ReaderId(5));
    for k in 0..16u32 {
        let key = format!("mofn-{k}");
        let value = format!("value-{k}");
        client
            .put(&mut transport, key.as_bytes(), value.clone().into_bytes())
            .unwrap();
        assert_eq!(
            client
                .get(&mut transport, key.as_bytes())
                .unwrap()
                .as_bytes(),
            value.as_bytes()
        );
    }
}

/// The portable `poll(2)` backend must serve identically to epoll.
#[test]
fn poll_backend_serves_roundtrips() {
    let cfg = QuorumConfig::minimal_bsr(1).unwrap();
    let cluster = TcpKvCluster::builder(KvMode::Replicated, b"rt-pollfd")
        .quorum(cfg)
        .poll_backend(PollBackend::Poll)
        .start()
        .unwrap();
    roundtrip(&cluster, 6, b"backend", "portable poll");
}
