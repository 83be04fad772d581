//! The benchmark's workloads. `NOTES.md` beside this crate says why each
//! one exists and which layers it is meant to expose.

use safereg_common::config::{QuorumConfig, TransportConfig};
use safereg_common::ids::ServerId;
use safereg_kv::KvMode;

/// What the two closed-loop clients do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Both clients put and get 50/50, each with its own writer and reader
    /// identity (BSR is multi-writer).
    Mixed,
    /// Client 0 only puts, client 1 only gets (BCSR is single-writer), so
    /// reads overlap writes of the same keys.
    WriterReader,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub quorum: QuorumConfig,
    pub mode: KvMode,
    /// Keys preloaded before the load starts; ops pick among them
    /// uniformly.
    pub keys: usize,
    pub value_len: usize,
    pub mix: Mix,
    /// A replica that plays `ByzRole::Silent` for the whole run.
    pub silent: Option<ServerId>,
    /// Transport policy of hosts and clients alike.
    pub tconfig: TransportConfig,
    /// Ops of the discarded warm-up, about two seconds' worth. A fixed
    /// count rather than a fixed time, so that the memory the warm-up
    /// leaves behind does not depend on how fast the machine ran.
    pub warmup_ops: usize,
}

/// Closed-loop client threads: one per core of the two-core box the
/// benchmark is sized for, never more.
pub const CLIENTS: usize = 2;

pub const NAMES: [&str; 3] = ["bsr_honest", "bcsr_coded", "bsr_silent"];

pub fn by_name(name: &str) -> Option<Workload> {
    let bsr = QuorumConfig::minimal_bsr(1).expect("n = 5, f = 1 is a BSR config");
    let honest = Workload {
        name: "bsr_honest",
        quorum: bsr,
        mode: KvMode::Replicated,
        keys: 4096,
        value_len: 64,
        mix: Mix::Mixed,
        silent: None,
        tconfig: TransportConfig::default(),
        warmup_ops: 8192,
    };
    match name {
        "bsr_honest" => Some(honest),
        "bcsr_coded" => Some(Workload {
            name: "bcsr_coded",
            quorum: QuorumConfig::new(11, 2).expect("n = 11, f = 2 is a BCSR config"),
            mode: KvMode::Coded,
            keys: 16,
            value_len: 16 * 1024,
            mix: Mix::WriterReader,
            warmup_ops: 256,
            ..honest
        }),
        // `ServerId(4)` is the replica the client's serial quorum walk
        // asks first, so its silence is paid for rather than skipped.
        "bsr_silent" => Some(Workload {
            name: "bsr_silent",
            silent: Some(ServerId(4)),
            tconfig: TransportConfig::aggressive(),
            warmup_ops: 2048,
            ..honest
        }),
        _ => None,
    }
}

impl Workload {
    /// The erasure code the workload's coded client would use,
    /// `[m, m − 5f]`; replicated workloads have none.
    pub fn code_k(&self) -> Option<usize> {
        match self.mode {
            KvMode::Coded => self.quorum.mds_k(),
            KvMode::Replicated => None,
        }
    }
}
