//! Self-healing in action: a TCP register cluster (a one-key KV store)
//! behind seeded chaos proxies, with a server severed, a server
//! blackholed, and everything recovering — narrated by the client's
//! breaker states and healing counters.
//!
//! The fault plan is a pure function of its seed: run this twice and the
//! proxies roll the identical drop/delay/corrupt/truncate/kill schedule.
//!
//! ```text
//! cargo run --example chaos_recovery
//! ```

use std::time::{Duration, Instant};

use safereg::common::config::{QuorumConfig, TransportConfig};
use safereg::common::ids::{ReaderId, ServerId, WriterId};
use safereg::kv::{KvClient, KvMode, TcpKvCluster, TcpKvTransport};
use safereg::obs::names;
use safereg::transport::chaos::{ChaosNet, FaultPlan, FaultSpec};

/// The one key the register lives under.
const REGISTER: &[u8] = b"register";

fn breaker_states(transport: &TcpKvTransport, n: u16) -> String {
    (0..n)
        .map(|s| match transport.link_state(ServerId(s)) {
            Some(0) => 'C', // Closed: healthy
            Some(1) => 'H', // HalfOpen: probing
            Some(2) => 'O', // Open: shedding
            _ => '?',
        })
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let reg = safereg::obs::global();
    let reconnects_before = reg.counter(names::KV_RECONNECTS).get();

    let cfg = QuorumConfig::minimal_bsr(1)?;
    let cluster = TcpKvCluster::builder(KvMode::Replicated, b"chaos-demo")
        .quorum(cfg)
        .start()?;

    // A mildly hostile, seeded adversary in front of every server.
    let plan = FaultPlan::new(0xC0FFEE, FaultSpec::mild());
    let net = ChaosNet::wrap(&cluster.addrs(), &plan)?;
    println!("cluster {cfg} wrapped in chaos proxies (seed 0xC0FFEE, mild faults)");

    let config = TransportConfig::aggressive();
    let mut wt = TcpKvTransport::connect_with(&net.addrs(), cluster.chain().clone(), config);
    let mut rt = TcpKvTransport::connect_with(&net.addrs(), cluster.chain().clone(), config);
    let mut writer = KvClient::new(cfg, WriterId(0), ReaderId(0));
    let mut reader = KvClient::new(cfg, WriterId(1), ReaderId(1));
    writer.set_policy(config);
    reader.set_policy(config);

    writer.put(&mut wt, REGISTER, "calm seas")?;
    println!("write ok      breakers={}", breaker_states(&wt, 5));

    // Kill every live connection to s1: the transports reconnect on the
    // next exchange.
    net.sever(ServerId(1));
    writer.put(&mut wt, REGISTER, "severed s1")?;
    let value = reader.get(&mut rt, REGISTER)?;
    println!(
        "post-sever    breakers={}  read -> {:?}",
        breaker_states(&wt, 5),
        String::from_utf8_lossy(value.as_bytes())
    );

    // Blackhole s2 (<= f down): connects succeed, frames vanish. Each
    // exchange times out until the breaker trips Open and fails fast.
    net.set_blackhole(ServerId(2), true);
    let deadline = Instant::now() + Duration::from_secs(10);
    while wt.link_state(ServerId(2)) != Some(2) && Instant::now() < deadline {
        writer.put(&mut wt, REGISTER, "during blackhole")?;
    }
    let value = reader.get(&mut rt, REGISTER)?;
    println!(
        "blackhole s2  breakers={}  read -> {:?}",
        breaker_states(&wt, 5),
        String::from_utf8_lossy(value.as_bytes())
    );

    // Lift it: the breaker only closes once a real authenticated frame is
    // delivered, so keep a little traffic flowing while it heals.
    net.set_blackhole(ServerId(2), false);
    let deadline = Instant::now() + Duration::from_secs(10);
    while wt.link_state(ServerId(2)) != Some(0) && Instant::now() < deadline {
        writer.put(&mut wt, REGISTER, "healing")?;
        std::thread::sleep(Duration::from_millis(20));
    }
    let healthy = (0..5)
        .filter(|s| wt.link_state(ServerId(*s)) == Some(0))
        .count();
    println!(
        "healed        breakers={}  healthy_links={healthy}",
        breaker_states(&wt, 5),
    );

    let reconnects = reg.counter(names::KV_RECONNECTS).get() - reconnects_before;
    println!("transports reconnected {reconnects} times; no operation was lost");
    Ok(())
}
