//! Wire plumbing shared by every real-socket deployment of the `safereg`
//! protocols.
//!
//! [`frame`] provides length-prefixed, HMAC-authenticated framing (the
//! paper's authenticated channels, §II-A): the one blocking frame reader,
//! the one vectored writer, and the sealing of bare envelopes. [`poll`] is
//! the readiness backend (epoll, or portable `poll`) the KV reactor runs
//! on. [`chaos`] is the simulator's fault bestiary ported to real sockets —
//! seeded, reproducible proxies that drop, delay, corrupt, truncate and
//! kill connections so the client's retries and circuit breakers can be
//! exercised deterministically.
//!
//! The TCP client, server host and loopback cluster live in
//! `safereg-kv`: a bare register is a one-key KV store. The RB baseline is
//! deliberately not given a TCP runtime — it exists to be *measured
//! against* under controlled delays, which the simulator does better; see
//! DESIGN.md.
//!
//! # Examples
//!
//! ```
//! use safereg_common::ids::{ClientId, ReaderId, ServerId};
//! use safereg_common::msg::{ClientToServer, Envelope, OpId};
//! use safereg_crypto::keychain::KeyChain;
//! use safereg_transport::frame::{open_envelope, read_frame, seal_envelope};
//! use safereg_transport::write_all_vectored;
//!
//! let chain = KeyChain::from_master_seed(b"demo-secret");
//! let env = Envelope::to_server(
//!     ClientId::Reader(ReaderId(0)),
//!     ServerId(0),
//!     ClientToServer::QueryData { op: OpId::new(ReaderId(0), 1) },
//! );
//! let sealed = seal_envelope(&chain, &env).to_bytes();
//!
//! // Frame it onto a "socket" and read it back.
//! let mut wire = Vec::new();
//! let header = (sealed.len() as u32).to_le_bytes();
//! write_all_vectored(&mut wire, &mut [&header[..], sealed.as_ref()])?;
//! let frame = read_frame(&mut wire.as_slice())?;
//! assert_eq!(open_envelope(&chain, &frame)?, env);
//!
//! // A different deployment secret cannot forge or open the frame.
//! let stranger = KeyChain::from_master_seed(b"other-secret");
//! assert!(open_envelope(&stranger, &frame).is_err());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod chaos;
pub mod frame;
pub mod poll;

pub use chaos::{
    ChaosNet, ChaosProxy, Direction, FaultAction, FaultPlan, FaultSchedule, FaultSpec,
};
pub use frame::{read_frame, write_all_vectored, FrameError, MAX_FRAME};
pub use poll::{Interest, PollBackend, PollEvent, Poller, Waker};
