//! The same protocols on real sockets: an authenticated TCP cluster on
//! loopback, serving a BSR (replicated) and a BCSR (erasure-coded)
//! register — each a one-key KV store.
//!
//! Every frame is HMAC-authenticated with a per-link key (the paper's
//! signed-channel assumption, §II-A); a crashed server is tolerated
//! transparently by the quorum logic.
//!
//! ```text
//! cargo run --example tcp_cluster
//! ```

use std::time::Instant;

use safereg::common::config::QuorumConfig;
use safereg::common::ids::{ReaderId, ServerId, WriterId};
use safereg::kv::{KvClient, KvMode, TcpKvCluster};

/// The one key each cluster's register lives under.
const REGISTER: &[u8] = b"register";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- BSR over TCP -----------------------------------------------------
    let cfg = QuorumConfig::minimal_bsr(1)?;
    let mut cluster = TcpKvCluster::builder(KvMode::Replicated, b"tcp-demo-secret")
        .quorum(cfg)
        .start()?;
    println!("BSR cluster up: {cfg} on {:?} ports", cluster.addrs().len());

    let mut transport = cluster.transport();
    let mut writer = KvClient::new(cfg, WriterId(0), ReaderId(0));
    let started = Instant::now();
    let tag = writer.put(&mut transport, REGISTER, "replicated over tcp")?;
    println!("write committed as tag {tag} in {:?}", started.elapsed());

    let mut reader = KvClient::new(cfg, WriterId(1), ReaderId(1));
    let started = Instant::now();
    let (value, tag) = reader.get_with_tag(&mut transport, REGISTER)?;
    println!(
        "one-shot read -> {:?} (tag {tag}) in {:?}",
        String::from_utf8_lossy(value.as_bytes()),
        started.elapsed()
    );

    // Crash one server (= f) and keep going.
    cluster.crash(ServerId(2));
    println!("crashed s2; operations continue against the remaining quorum");
    writer.put(&mut transport, REGISTER, "still writable")?;
    let value = reader.get(&mut transport, REGISTER)?;
    println!("read -> {:?}", String::from_utf8_lossy(value.as_bytes()));

    // --- BCSR over TCP ----------------------------------------------------
    let cfg = QuorumConfig::minimal_bcsr(1)?;
    let coded = TcpKvCluster::builder(KvMode::Coded, b"tcp-demo-coded")
        .quorum(cfg)
        .start()?;
    println!(
        "\nBCSR cluster up: {cfg} (erasure-coded, k = n - 5f = {})",
        cfg.mds_k().unwrap()
    );

    let mut transport = coded.transport();
    let mut writer = KvClient::new_coded(cfg, WriterId(0), ReaderId(0));
    let payload = vec![0xAB; 32 * 1024];
    let started = Instant::now();
    writer.put(&mut transport, REGISTER, payload.clone())?;
    println!("coded 32 KiB write committed in {:?}", started.elapsed());

    let mut reader = KvClient::new_coded(cfg, WriterId(1), ReaderId(1));
    let started = Instant::now();
    let value = reader.get(&mut transport, REGISTER)?;
    assert_eq!(value.as_bytes(), &payload[..]);
    println!(
        "coded one-shot read verified ({} bytes) in {:?}",
        payload.len(),
        started.elapsed()
    );

    Ok(())
}
