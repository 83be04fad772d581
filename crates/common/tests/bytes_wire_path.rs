//! Property suite for the zero-copy wire path: for every `Envelope` variant,
//! the borrowing decode ([`Wire::from_bytes`]) must be byte-for-byte
//! identical to the copying decode ([`Wire::decode_from`]), the
//! `encode_parts` head/tail split must concatenate to the full encoding, and
//! payload fields decoded borrowingly must alias the input buffer (no copy).
//!
//! DetRng-driven in the PR 1 style: fixed seeds, fixed case counts, failures
//! reproducible from the case index.

use std::sync::{Mutex, MutexGuard, PoisonError};

use safereg_common::buf::Bytes;
use safereg_common::codec::{payload_bytes_copied, Wire, WireError, WireReader};
use safereg_common::ids::{ClientId, ReaderId, ServerId, WriterId};
use safereg_common::msg::{
    BroadcastId, ClientToServer, CodedElement, Envelope, Message, OpId, Payload, PeerMessage,
    ServerToClient,
};
use safereg_common::rng::DetRng;
use safereg_common::tag::Tag;
use safereg_common::value::Value;

/// `payload_bytes_copied()` is a process-global odometer: the copying
/// decode in one test bumps it while another asserts it stands still, so
/// both hold this lock.
static COPY_ODOMETER: Mutex<()> = Mutex::new(());

fn odometer() -> MutexGuard<'static, ()> {
    COPY_ODOMETER.lock().unwrap_or_else(PoisonError::into_inner)
}

fn copying_decode<T: Wire>(buf: &[u8]) -> Result<T, WireError> {
    let mut r = WireReader::new(buf);
    let v = T::decode_from(&mut r)?;
    if !r.is_empty() {
        return Err(WireError::TrailingBytes {
            count: r.remaining(),
        });
    }
    Ok(v)
}

fn random_op(rng: &mut DetRng) -> OpId {
    let client: ClientId = if rng.index(2) == 0 {
        WriterId(rng.index(8) as u16).into()
    } else {
        ReaderId(rng.index(8) as u16).into()
    };
    OpId::new(client, rng.next_u64())
}

fn random_tag(rng: &mut DetRng) -> Tag {
    Tag::new(rng.next_u64() >> 1, WriterId(rng.index(8) as u16))
}

fn random_payload(rng: &mut DetRng) -> Payload {
    let len = rng.index(200);
    let mut data = vec![0u8; len];
    rng.fill_bytes(&mut data);
    if rng.index(2) == 0 {
        Payload::Full(Value::from(data))
    } else {
        Payload::Coded(CodedElement {
            index: rng.index(16) as u16,
            value_len: (len * 3) as u32,
            data: Bytes::from(data),
        })
    }
}

/// One envelope per message variant, fields randomized per call.
fn envelope_zoo(rng: &mut DetRng) -> Vec<Envelope> {
    let op = random_op(rng);
    let tag = random_tag(rng);
    let writer = WriterId(rng.index(8) as u16);
    let server = ServerId(rng.index(11) as u16);
    let reader = ReaderId(rng.index(8) as u16);
    let bid = BroadcastId {
        origin: ClientId::Writer(writer),
        seq: rng.next_u64(),
    };
    let mut zoo = Vec::new();
    for msg in [
        ClientToServer::QueryTag { op },
        ClientToServer::PutData {
            op,
            tag,
            payload: random_payload(rng),
        },
        ClientToServer::QueryData { op },
        ClientToServer::QueryHistory { op, above: tag },
        ClientToServer::QueryTagList { op },
        ClientToServer::QueryValueAt { op, tag },
        ClientToServer::QueryDataSub { op },
        ClientToServer::ReadComplete { op },
    ] {
        zoo.push(Envelope::new(writer, server, msg));
    }
    for msg in [
        ServerToClient::TagResp { op, tag },
        ServerToClient::PutAck { op, tag },
        ServerToClient::DataResp {
            op,
            tag,
            payload: random_payload(rng),
        },
        ServerToClient::HistoryResp {
            op,
            entries: vec![
                (random_tag(rng), random_payload(rng)),
                (random_tag(rng), random_payload(rng)),
            ],
        },
        ServerToClient::TagListResp {
            op,
            tags: vec![random_tag(rng), random_tag(rng)],
        },
        ServerToClient::ValueAtResp {
            op,
            tag,
            payload: Some(random_payload(rng)),
        },
        ServerToClient::ValueAtResp {
            op,
            tag,
            payload: None,
        },
    ] {
        zoo.push(Envelope::new(server, reader, msg));
    }
    for msg in [
        PeerMessage::RbEcho {
            bid,
            tag,
            payload: random_payload(rng),
        },
        PeerMessage::RbReady {
            bid,
            tag,
            payload: random_payload(rng),
        },
    ] {
        zoo.push(Envelope::new(server, ServerId(rng.index(11) as u16), msg));
    }
    zoo
}

/// Byte range of `buf`'s backing slice, for alias checks.
fn span(b: &Bytes) -> (usize, usize) {
    let p = b.as_ref().as_ptr() as usize;
    (p, p + b.len())
}

#[test]
fn borrowing_decode_matches_copying_decode_for_every_variant() {
    let _odometer = odometer();
    let mut rng = DetRng::seed_from(0x000B_0220_5EED);
    for case in 0..128u32 {
        for env in envelope_zoo(&mut rng) {
            let buf = env.to_bytes();
            let borrowed = Envelope::from_bytes(&buf)
                .unwrap_or_else(|e| panic!("case {case}: borrowing decode failed: {e} ({env:?})"));
            let copied = copying_decode::<Envelope>(&buf)
                .unwrap_or_else(|e| panic!("case {case}: copying decode failed: {e}"));
            assert_eq!(borrowed, copied, "case {case}: decode paths disagree");
            assert_eq!(borrowed, env, "case {case}: roundtrip changed the envelope");
            // Canonical re-encode from both results.
            assert_eq!(borrowed.to_bytes(), buf, "case {case}");
        }
    }
}

#[test]
fn encode_parts_concats_to_the_full_encoding_for_every_variant() {
    let mut rng = DetRng::seed_from(0x5EA1_2205);
    for case in 0..128u32 {
        for env in envelope_zoo(&mut rng) {
            let full = env.to_bytes();
            let (head, tail) = env.encode_parts();
            let mut joined = head;
            if let Some(t) = &tail {
                joined.extend_from_slice(t);
            }
            assert_eq!(
                Bytes::from(joined),
                full,
                "case {case}: head++tail != to_bytes for {env:?}"
            );
        }
    }
}

#[test]
fn borrowed_payloads_alias_the_frame_and_copy_nothing() {
    let _odometer = odometer();
    let mut rng = DetRng::seed_from(0x0C0F_FEE0);
    for case in 0..64u32 {
        for env in envelope_zoo(&mut rng) {
            let buf = env.to_bytes();
            let (lo, hi) = span(&buf);
            let before = payload_bytes_copied();
            let decoded = Envelope::from_bytes(&buf).unwrap();
            assert_eq!(
                payload_bytes_copied(),
                before,
                "case {case}: borrowing decode moved payload bytes for {env:?}"
            );
            // Every payload in the decoded envelope points into `buf`.
            let check = |p: &Payload| {
                let b = match p {
                    Payload::Full(v) => v.bytes(),
                    Payload::Coded(c) => &c.data,
                };
                if b.is_empty() {
                    return;
                }
                let (plo, phi) = span(b);
                assert!(
                    lo <= plo && phi <= hi,
                    "case {case}: decoded payload does not alias the frame"
                );
            };
            match &decoded.msg {
                Message::ToServer(ClientToServer::PutData { payload, .. }) => check(payload),
                Message::ToClient(ServerToClient::DataResp { payload, .. }) => check(payload),
                Message::ToClient(ServerToClient::HistoryResp { entries, .. }) => {
                    entries.iter().for_each(|(_, p)| check(p))
                }
                Message::ToClient(ServerToClient::ValueAtResp {
                    payload: Some(p), ..
                }) => check(p),
                Message::Peer(
                    PeerMessage::RbEcho { payload, .. } | PeerMessage::RbReady { payload, .. },
                ) => check(payload),
                _ => {}
            }
        }
    }
}
