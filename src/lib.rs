//! # safereg — Byzantine-tolerant semi-fast safe registers
//!
//! Facade crate re-exporting the `safereg` workspace: a reproduction of
//! *Semi-Fast Byzantine-tolerant Shared Register without Reliable Broadcast*
//! (Konwar, Kumar, Tseng — ICDCS 2020).
//!
//! See the individual crates for the pieces:
//!
//! * [`common`] — ids, tags, values, messages, quorum math, wire codec.
//! * [`crypto`] — from-scratch SHA-256 / HMAC channel authentication.
//! * [`mds`] — GF(2⁸) Reed–Solomon MDS code with error-and-erasure decoding.
//! * [`core`] — the paper's protocols: BSR, BSR-H, BSR-2P, BCSR.
//! * [`rb`] — Bracha reliable broadcast + the `n ≥ 3f+1` baseline register.
//! * [`simnet`] — deterministic simulator, Byzantine behaviors, scenarios.
//! * [`checker`] — safety / regularity / ordering checkers.
//! * [`obs`] — zero-dependency metrics registry, structured tracing and
//!   semi-fast-path accounting.
//! * [`transport`] — authenticated wire frames, readiness polling and
//!   seeded chaos proxies.
//! * [`kv`] — a key-value store layered on the registers, and the one TCP
//!   client, server host and loopback cluster (a bare register is a
//!   one-key store).

pub use safereg_checker as checker;
pub use safereg_common as common;
pub use safereg_core as core;
pub use safereg_crypto as crypto;
pub use safereg_kv as kv;
pub use safereg_mds as mds;
pub use safereg_obs as obs;
pub use safereg_rb as rb;
pub use safereg_simnet as simnet;
pub use safereg_transport as transport;
