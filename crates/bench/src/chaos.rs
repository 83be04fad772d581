//! Self-healing chaos scenario: the real TCP stack under a seeded
//! adversary.
//!
//! A loopback register cluster (a one-key KV store) is wrapped in
//! [`safereg_transport::chaos::ChaosNet`] proxies driven by a seeded
//! [`FaultPlan`] (frames dropped, delayed, corrupted, truncated,
//! connections killed), while the run also severs and blackholes up to
//! `f` servers mid-workload. The clients' reconnects, retry passes and
//! circuit breakers must mask all of it: every operation completes, the
//! recorded history passes the checker's safety predicates, and the
//! metrics dump shows the healing actually happened (nonzero reconnects
//! and breaker transitions). The same seed always yields the same fault
//! schedule — asserted via [`FaultPlan::fingerprint`].

use safereg_checker::CheckSummary;
use safereg_common::config::{QuorumConfig, TransportConfig};
use safereg_common::history::History;
use safereg_common::ids::{ClientId, ReaderId, ServerId, WriterId};
use safereg_common::msg::OpId;
use safereg_common::value::Value;
use safereg_kv::{KvClient, KvMode, TcpKvCluster, TcpKvTransport};
use safereg_obs::names;
use safereg_obs::trace::wall_micros;
use safereg_transport::chaos::{ChaosNet, Direction, FaultPlan, FaultSpec};

/// The one key the register lives under.
const REGISTER: &[u8] = b"register";

/// Outcome of one seeded chaos run.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The adversary seed.
    pub seed: u64,
    /// Operations attempted (writes + reads).
    pub ops_attempted: usize,
    /// Operations that completed (possibly after client-level retries).
    pub ops_completed: usize,
    /// Lazy link reconnections the client transports performed.
    pub reconnects: u64,
    /// Circuit-breaker state changes during the run.
    pub breaker_transitions: u64,
    /// Exchanges that found their server unreachable; each one puts the
    /// envelope into the operation's next retry pass.
    pub unreachable: u64,
    /// Frames the proxies forwarded untouched.
    pub frames_forwarded: u64,
    /// Frames the proxies faulted (dropped/delayed/corrupted/truncated)
    /// plus connections killed at a frame boundary.
    pub faults_injected: u64,
    /// Every completed op passed the checker's safety predicates.
    pub safe: bool,
    /// Write-order violations found by the checker.
    pub order_violations: usize,
    /// Rebuilding the plan from the same seed reproduced the identical
    /// fault schedule bytes.
    pub schedule_reproducible: bool,
}

impl ChaosReport {
    /// The acceptance predicate the CI smoke run greps for.
    pub fn self_healing_ok(&self) -> bool {
        self.ops_completed == self.ops_attempted
            && self.safe
            && self.order_violations == 0
            && self.reconnects > 0
            && self.breaker_transitions > 0
            && self.schedule_reproducible
    }
}

const FAULT_KINDS: [&str; 5] = ["dropped", "delayed", "corrupted", "truncated", "killed"];

fn chaos_fault_total() -> u64 {
    let reg = safereg_obs::global();
    FAULT_KINDS
        .iter()
        .map(|k| {
            reg.counter(&format!("{}.{k}", names::CHAOS_FAULT_PREFIX))
                .get()
        })
        .sum()
}

/// Runs the scenario: 24 alternating write/read operations against an
/// `n = 5, f = 1` BSR cluster behind mildly hostile chaos proxies, with
/// one server severed and one blackholed-and-restored mid-run (never more
/// than `f = 1` down at once).
///
/// # Panics
///
/// Panics when the cluster or its proxies cannot be started —
/// environment failures, not scenario outcomes.
pub fn chaos_run(seed: u64) -> ChaosReport {
    let reg = safereg_obs::global();
    let reconnects_before = reg.counter(names::KV_RECONNECTS).get();
    let transitions_before = reg.counter(names::KV_BREAKER_TRANSITIONS).get();
    let unreachable_before = reg.counter(names::KV_EXCHANGE_UNREACHABLE).get();
    let forwarded_before = reg.counter(names::CHAOS_FORWARDED).get();
    let faults_before = chaos_fault_total();

    let cfg = QuorumConfig::minimal_bsr(1).expect("n = 5, f = 1 is valid");
    let cluster = TcpKvCluster::builder(KvMode::Replicated, b"chaos-bench")
        .quorum(cfg)
        .start()
        .expect("start cluster");
    let plan = FaultPlan::new(seed, FaultSpec::mild());
    let net = ChaosNet::wrap(&cluster.addrs(), &plan).expect("start chaos proxies");

    let config = TransportConfig::aggressive();
    let mut wt = TcpKvTransport::connect_with(&net.addrs(), cluster.chain().clone(), config);
    let mut rt = TcpKvTransport::connect_with(&net.addrs(), cluster.chain().clone(), config);
    let mut writer = KvClient::new(cfg, WriterId(0), ReaderId(0));
    let mut reader = KvClient::new(cfg, WriterId(1), ReaderId(1));
    writer.set_policy(config);
    reader.set_policy(config);
    let mut history = History::new();

    let rounds = 12usize;
    let mut attempted = 0usize;
    let mut completed = 0usize;
    for i in 0..rounds {
        // Fault timeline, never more than f = 1 server down at once:
        // round 2 severs s1 (live connections die, transports reconnect);
        // round 4 blackholes s2 (breakers trip Open); round 8 restores it.
        match i {
            2 => net.sever(ServerId(1)),
            4 => net.set_blackhole(ServerId(2), true),
            8 => net.set_blackhole(ServerId(2), false),
            _ => {}
        }
        let seq = i as u64 + 1;

        attempted += 1;
        let value = Value::from(format!("chaos-{seed}-{i}").into_bytes());
        let op = OpId::new(ClientId::Writer(WriterId(0)), seq);
        let h = history.begin_write(op, value.clone(), wall_micros());
        for _ in 0..3 {
            if let Ok(tag) = writer.put(&mut wt, REGISTER, value.clone()) {
                history.complete_write(h, tag, wall_micros());
                completed += 1;
                break;
            }
        }

        attempted += 1;
        let op = OpId::new(ClientId::Reader(ReaderId(1)), seq);
        let h = history.begin_read(op, wall_micros());
        for _ in 0..3 {
            if let Ok((value, tag)) = reader.get_with_tag(&mut rt, REGISTER) {
                history.complete_read(h, value, tag, wall_micros());
                completed += 1;
                break;
            }
        }
    }

    let summary = CheckSummary::check_all(&history);
    let dir = Direction::ClientToServer;
    let rebuilt = FaultPlan::new(seed, FaultSpec::mild());
    let schedule_reproducible = (0..cfg.n() as u16).all(|s| {
        plan.fingerprint(ServerId(s), 0, dir, 128) == rebuilt.fingerprint(ServerId(s), 0, dir, 128)
            && plan.fingerprint(ServerId(s), 1, Direction::ServerToClient, 128)
                == rebuilt.fingerprint(ServerId(s), 1, Direction::ServerToClient, 128)
    });

    ChaosReport {
        seed,
        ops_attempted: attempted,
        ops_completed: completed,
        reconnects: reg.counter(names::KV_RECONNECTS).get() - reconnects_before,
        breaker_transitions: reg.counter(names::KV_BREAKER_TRANSITIONS).get() - transitions_before,
        unreachable: reg.counter(names::KV_EXCHANGE_UNREACHABLE).get() - unreachable_before,
        frames_forwarded: reg.counter(names::CHAOS_FORWARDED).get() - forwarded_before,
        faults_injected: chaos_fault_total() - faults_before,
        safe: summary.is_safe(),
        order_violations: summary.order.len(),
        schedule_reproducible,
    }
}
