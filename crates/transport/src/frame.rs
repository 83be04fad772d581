//! Length-prefixed, MAC-authenticated frames over zero-copy [`Bytes`].
//!
//! Wire layout per frame: `u32` little-endian length, then `length` bytes
//! of payload. [`read_frame`] is the one blocking frame reader and
//! [`write_all_vectored`] the one vectored writer; the KV transport and
//! host both frame their traffic through them, and the reactor enforces
//! the same [`MAX_FRAME`] cap.
//!
//! For a bare authenticated envelope the payload is
//! `encode(envelope) || HMAC(pair_key(src, dst), …)`, sealed by
//! [`seal_envelope`] into a [`SealedFrame`] and opened by
//! [`open_envelope`], which derive the link key from the envelope's own
//! endpoints. A frame whose MAC does not verify under the claimed
//! endpoints' key is rejected, which is exactly the authentication
//! guarantee the paper's model assumes (§II-A).
//!
//! # Zero-copy discipline
//!
//! Sealing never materializes the full frame: [`Envelope::encode_parts`]
//! splits the encoding into a small serialized head and an O(1) clone of
//! the payload's [`Bytes`] tail, and the MAC is streamed over both parts
//! ([`AuthCodec::mac_of_parts`]). Opening borrows: [`read_frame`] returns
//! the payload as [`Bytes`] and [`open_envelope`] decodes it with the
//! borrowing decoder, so payload fields are O(1) slices of the received
//! buffer. The [`wire.bytes_copied`](safereg_obs::names::WIRE_BYTES_COPIED)
//! counter observes any payload memcpy the copying fallback performs; on
//! this path it stays at zero.

use std::io::{ErrorKind, IoSlice, Read, Write};
use std::sync::{Arc, OnceLock};

use safereg_common::buf::Bytes;
use safereg_common::codec::{payload_bytes_copied, Wire, WireError};
use safereg_common::msg::Envelope;
use safereg_crypto::auth::{AuthCodec, AuthError};
use safereg_crypto::keychain::KeyChain;
use safereg_crypto::sha256::DIGEST_LEN;
use safereg_obs::metrics::Counter;
use safereg_obs::names;

/// Cached handle into the global registry so the open path pays one
/// atomic instead of a name lookup.
fn bytes_copied_counter() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| safereg_obs::global().counter(names::WIRE_BYTES_COPIED))
}

/// Maximum accepted frame length (64 MiB + MAC headroom).
pub const MAX_FRAME: usize = (64 << 20) + 64;

/// Errors while reading or authenticating frames.
#[derive(Debug)]
pub enum FrameError {
    /// Underlying socket error.
    Io(std::io::Error),
    /// The peer announced an oversized frame.
    TooLarge {
        /// Claimed length.
        claimed: usize,
    },
    /// The payload failed to decode as an envelope.
    Codec(WireError),
    /// The MAC did not verify for the claimed endpoints.
    Auth(AuthError),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "socket error: {e}"),
            FrameError::TooLarge { claimed } => write!(f, "frame of {claimed} bytes refused"),
            FrameError::Codec(e) => write!(f, "malformed envelope: {e}"),
            FrameError::Auth(e) => write!(f, "authentication failure: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Drives `Write::write_vectored` to completion across short writes,
/// advancing through `parts` in place, so a caller can flush a length
/// header plus a frame's parts (or a whole batch of frames) with one
/// vectored write instead of a `write_all` per part.
///
/// # Errors
///
/// Propagates socket errors; a zero-length vectored write becomes
/// [`ErrorKind::WriteZero`].
pub fn write_all_vectored<W: Write>(w: &mut W, parts: &mut [&[u8]]) -> std::io::Result<()> {
    let mut idx = 0;
    while idx < parts.len() {
        if parts[idx].is_empty() {
            idx += 1;
            continue;
        }
        let bufs: Vec<IoSlice<'_>> = parts[idx..].iter().map(|p| IoSlice::new(p)).collect();
        let mut n = match w.write_vectored(&bufs) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    ErrorKind::WriteZero,
                    "failed to write whole frame",
                ))
            }
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        while idx < parts.len() && n >= parts[idx].len() {
            n -= parts[idx].len();
            idx += 1;
        }
        if idx < parts.len() {
            parts[idx] = &parts[idx][n..];
        }
    }
    Ok(())
}

/// Reads one frame, returning its payload as an immutable [`Bytes`]
/// buffer ready for O(1) slicing by the decode path.
///
/// # Errors
///
/// Propagates socket errors; refuses frames larger than [`MAX_FRAME`].
pub fn read_frame<R: Read>(r: &mut R) -> Result<Bytes, FrameError> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(FrameError::TooLarge { claimed: len });
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Bytes::from(payload))
}

/// An envelope sealed for one link: the serialized head, the payload
/// tail (an O(1) clone of the sender's value buffer) and the MAC over
/// their concatenation.
///
/// The three parts are kept separate so sealing never concatenates them:
/// the tail stays an alias of the sender's buffer.
#[derive(Debug, Clone)]
pub struct SealedFrame {
    head: Vec<u8>,
    tail: Bytes,
    mac: [u8; DIGEST_LEN],
}

impl SealedFrame {
    /// Total payload length of the frame (head + tail + MAC), i.e. the
    /// value the `u32` length header carries.
    pub fn payload_len(&self) -> usize {
        self.head.len() + self.tail.len() + DIGEST_LEN
    }

    /// Materializes the sealed payload contiguously, as [`read_frame`]
    /// would return it on the receiving side.
    pub fn to_bytes(&self) -> Bytes {
        let mut joined = Vec::with_capacity(self.payload_len());
        joined.extend_from_slice(&self.head);
        joined.extend_from_slice(self.tail.as_ref());
        joined.extend_from_slice(&self.mac);
        Bytes::from(joined)
    }
}

/// Seals an envelope under the link key of its `(src, dst)` pair.
///
/// The encoding is split by [`Envelope::encode_parts`]: the payload tail
/// is an O(1) clone of the envelope's value buffer, never copied, and the
/// MAC is streamed over `head ++ tail` without concatenating them.
pub fn seal_envelope(chain: &KeyChain, env: &Envelope) -> SealedFrame {
    let (head, tail) = env.encode_parts();
    let tail = tail.unwrap_or_default();
    let mac =
        AuthCodec::new(chain.pair_key(env.src, env.dst)).mac_of_parts(&[&head, tail.as_ref()]);
    SealedFrame { head, tail, mac }
}

/// Opens a sealed envelope: decodes with the borrowing decoder (payload
/// fields are O(1) slices of `frame`), then verifies the MAC under the
/// key of the *claimed* endpoints — a forger who lacks that pair key
/// cannot produce a frame that passes.
///
/// Accepts anything convertible into [`Bytes`]; pass `&Bytes` (an O(1)
/// clone) to keep the relay path copy-free. Any payload bytes the decode
/// does copy are surfaced on the
/// [`wire.bytes_copied`](names::WIRE_BYTES_COPIED) counter.
///
/// # Errors
///
/// [`FrameError::Codec`] for malformed bytes, [`FrameError::Auth`] for MAC
/// failures.
pub fn open_envelope(chain: &KeyChain, frame: impl Into<Bytes>) -> Result<Envelope, FrameError> {
    let frame = frame.into();
    let copied_before = payload_bytes_copied();
    let result = open_envelope_inner(chain, &frame);
    // Global delta: exact on the wire path, where only this open runs; a
    // concurrent copying decode elsewhere can only inflate it, never hide
    // a copy — safe for a "must be zero" gate.
    bytes_copied_counter().add(payload_bytes_copied() - copied_before);
    result
}

fn open_envelope_inner(chain: &KeyChain, frame: &Bytes) -> Result<Envelope, FrameError> {
    if frame.len() < DIGEST_LEN {
        return Err(FrameError::Auth(AuthError::TooShort { len: frame.len() }));
    }
    let payload = frame.slice(..frame.len() - DIGEST_LEN);
    let env = Envelope::from_bytes(&payload).map_err(FrameError::Codec)?;
    AuthCodec::new(chain.pair_key(env.src, env.dst))
        .open(frame.as_ref())
        .map_err(FrameError::Auth)?;
    Ok(env)
}

#[cfg(test)]
mod tests {
    use super::*;
    use safereg_common::ids::{ClientId, ReaderId, ServerId, WriterId};
    use safereg_common::msg::{ClientToServer, Message, OpId, Payload};
    use safereg_common::tag::Tag;
    use safereg_common::value::Value;

    fn env() -> Envelope {
        Envelope::to_server(
            ClientId::Reader(ReaderId(1)),
            ServerId(0),
            ClientToServer::QueryData {
                op: OpId::new(ReaderId(1), 7),
            },
        )
    }

    /// Frames `parts` the way every sender does: a length header plus the
    /// parts, handed to [`write_all_vectored`] as one vectored write.
    fn write_framed<W: Write>(w: &mut W, parts: &[&[u8]]) {
        let len: usize = parts.iter().map(|p| p.len()).sum();
        let header = (len as u32).to_le_bytes();
        let mut slices: Vec<&[u8]> = vec![&header];
        slices.extend_from_slice(parts);
        write_all_vectored(w, &mut slices).unwrap();
    }

    #[test]
    fn frame_roundtrip_over_a_buffer() {
        let mut buf = Vec::new();
        write_framed(&mut buf, &[b"hello"]);
        write_framed(&mut buf, &[b"wor", b"", b"ld!"]);
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap().as_ref(), b"hello");
        assert_eq!(read_frame(&mut cursor).unwrap().as_ref(), b"world!");
    }

    #[test]
    fn vectored_write_survives_short_writes() {
        /// A writer that accepts one byte per call.
        struct OneByte(Vec<u8>);
        impl Write for OneByte {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if buf.is_empty() {
                    return Ok(0);
                }
                self.0.push(buf[0]);
                Ok(1)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut w = OneByte(Vec::new());
        write_framed(&mut w, &[b"ab", b"cde"]);
        let mut cursor = std::io::Cursor::new(w.0);
        assert_eq!(read_frame(&mut cursor).unwrap().as_ref(), b"abcde");
    }

    #[test]
    fn oversized_frames_are_refused() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut cursor = std::io::Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(FrameError::TooLarge { .. })
        ));
    }

    #[test]
    fn sealed_envelope_roundtrips() {
        let chain = KeyChain::from_master_seed(b"seed");
        let sealed = seal_envelope(&chain, &env());
        let frame = sealed.to_bytes();
        assert_eq!(frame.len(), sealed.payload_len());
        let back = open_envelope(&chain, &frame).unwrap();
        assert_eq!(back, env());
    }

    #[test]
    fn sealing_shares_the_payload_buffer() {
        // The sealed tail aliases the value's allocation: encode-once,
        // slice-per-destination.
        let chain = KeyChain::from_master_seed(b"seed");
        let value = Value::from(vec![7u8; 512]);
        let payload_ptr = value.bytes().as_ref().as_ptr();
        let e = Envelope::to_server(
            ClientId::Writer(WriterId(0)),
            ServerId(0),
            ClientToServer::PutData {
                op: OpId::new(WriterId(0), 1),
                tag: Tag::new(1, WriterId(0)),
                payload: Payload::Full(value),
            },
        );
        let sealed = seal_envelope(&chain, &e);
        assert_eq!(sealed.tail.as_ref().as_ptr(), payload_ptr);
        let back = open_envelope(&chain, sealed.to_bytes()).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn opening_copies_no_payload_bytes() {
        let chain = KeyChain::from_master_seed(b"seed");
        let e = Envelope::to_server(
            ClientId::Writer(WriterId(0)),
            ServerId(0),
            ClientToServer::PutData {
                op: OpId::new(WriterId(0), 1),
                tag: Tag::new(1, WriterId(0)),
                payload: Payload::Full(Value::from(vec![9u8; 4096])),
            },
        );
        let frame = seal_envelope(&chain, &e).to_bytes();
        let before = payload_bytes_copied();
        let back = open_envelope(&chain, &frame).unwrap();
        assert_eq!(payload_bytes_copied(), before, "open must not memcpy");
        // And the decoded payload aliases the received frame.
        match back.msg {
            Message::ToServer(ClientToServer::PutData {
                payload: Payload::Full(v),
                ..
            }) => {
                let frame_range = frame.as_ref().as_ptr() as usize
                    ..frame.as_ref().as_ptr() as usize + frame.len();
                assert!(frame_range.contains(&(v.bytes().as_ref().as_ptr() as usize)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn tampered_envelope_is_rejected() {
        let chain = KeyChain::from_master_seed(b"seed");
        let mut frame = seal_envelope(&chain, &env()).to_bytes().to_vec();
        frame[4] ^= 0xFF;
        assert!(matches!(
            open_envelope(&chain, frame),
            Err(FrameError::Auth(_)) | Err(FrameError::Codec(_))
        ));
    }

    #[test]
    fn wrong_keychain_is_rejected() {
        let chain = KeyChain::from_master_seed(b"seed");
        let other = KeyChain::from_master_seed(b"other");
        let frame = seal_envelope(&chain, &env()).to_bytes();
        assert!(matches!(
            open_envelope(&other, &frame),
            Err(FrameError::Auth(_))
        ));
    }

    #[test]
    fn spoofed_source_fails_authentication() {
        // A malicious server re-labels an envelope as coming from another
        // process; the MAC was made under the wrong pair key and fails.
        let chain = KeyChain::from_master_seed(b"seed");
        let mut e = env();
        let frame = seal_envelope(&chain, &e).to_bytes();
        // Forge: claim the same payload came from server 5 instead.
        e.src = ServerId(5).into();
        let mut forged = Vec::new();
        e.encode_to(&mut forged);
        forged.extend_from_slice(&frame.as_ref()[frame.len() - DIGEST_LEN..]); // reuse old MAC
        assert!(matches!(
            open_envelope(&chain, forged),
            Err(FrameError::Auth(_))
        ));
    }
}
