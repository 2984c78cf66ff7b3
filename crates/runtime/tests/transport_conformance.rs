//! Transport conformance suite.
//!
//! One shared harness run against every [`Transport`] implementation —
//! `per_datagram`, `batched`, and `uring:multishot` where the host's
//! capability probe validates it — so future transports cannot silently
//! diverge on the contracts the serve loop leans on:
//!
//! * **exact-length frames**: a delivered frame's `len` equals the bytes
//!   the peer actually sent (no padding, no truncation below
//!   `MAX_FRAME`), and payload bytes survive the trip in order;
//! * **nonblocking empty recv**: `recv_batch` on an idle socket returns
//!   `Ok(0)` promptly — the caller owns all waiting;
//! * **stats agree with frames moved**: `recv_frames`/`send_frames`
//!   count exactly the frames the harness saw cross;
//! * **shutdown drain**: frames accepted by `send_batch` reach the wire
//!   even when the transport is dropped immediately afterwards.
//!
//! Where the probe reports io_uring unavailable it is skipped *loudly*
//! (the skip and its reason are printed) rather than silently passing.

use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};
use tq_runtime::transport::{Frame, Transport, UdpTransport, MAX_BATCH, MAX_FRAME};
use tq_runtime::uring::{self, IoUringTransport};

/// A (transport, peer socket, transport address) triple for one run.
struct Pair {
    name: String,
    transport: Box<dyn Transport + Send>,
    peer: UdpSocket,
    addr: SocketAddr,
}

/// Builds every available transport, each with its own bound socket and
/// a peer socket to talk to it.
fn build_pairs() -> Vec<Pair> {
    let mut pairs = Vec::new();
    let caps = uring::probe();
    println!("conformance probe: {}", caps.summary());

    let fresh = || {
        let s = UdpSocket::bind("127.0.0.1:0").expect("bind");
        let addr = s.local_addr().unwrap();
        (s, addr)
    };
    let peer = || {
        let s = UdpSocket::bind("127.0.0.1:0").expect("bind peer");
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s
    };

    {
        let (s, addr) = fresh();
        pairs.push(Pair {
            name: "per_datagram".into(),
            transport: Box::new(UdpTransport::per_datagram(s).expect("per_datagram")),
            peer: peer(),
            addr,
        });
    }
    {
        let (s, addr) = fresh();
        pairs.push(Pair {
            name: "batched".into(),
            transport: Box::new(UdpTransport::batched(s).expect("batched")),
            peer: peer(),
            addr,
        });
    }
    if caps.available {
        let (s, addr) = fresh();
        pairs.push(Pair {
            name: "uring:multishot".into(),
            transport: Box::new(IoUringTransport::server(s).expect("probe said io_uring works")),
            peer: peer(),
            addr,
        });
    } else {
        println!("SKIP uring:multishot — probe: {}", caps.reason);
    }
    pairs
}

/// Polls `recv_batch` until `want` frames arrive or the deadline passes.
fn recv_all(t: &mut dyn Transport, want: usize) -> Vec<Frame> {
    let mut got = Vec::new();
    let mut scratch = vec![Frame::empty(); MAX_BATCH];
    let deadline = Instant::now() + Duration::from_secs(10);
    while got.len() < want {
        let n = t.recv_batch(&mut scratch).expect("recv_batch");
        got.extend_from_slice(&scratch[..n]);
        if n == 0 {
            assert!(Instant::now() < deadline, "timed out at {}/{want}", got.len());
            std::thread::yield_now();
        }
    }
    got
}

#[test]
fn frames_arrive_with_exact_lengths_and_payloads() {
    for pair in build_pairs() {
        let Pair {
            name,
            mut transport,
            peer,
            addr,
        } = pair;
        // One datagram per length 1..=MAX_FRAME, payload = length marker
        // bytes, so both length and content corruption are detectable.
        for len in 1..=MAX_FRAME {
            let payload: Vec<u8> = (0..len).map(|i| (len ^ i) as u8).collect();
            peer.send_to(&payload, addr).expect("peer send");
        }
        let frames = recv_all(transport.as_mut(), MAX_FRAME);
        let mut seen = [false; MAX_FRAME + 1];
        for f in &frames {
            let len = f.len as usize;
            assert!(
                (1..=MAX_FRAME).contains(&len),
                "[{name}] frame length {len} was never sent"
            );
            assert!(!seen[len], "[{name}] length {len} delivered twice");
            seen[len] = true;
            let expect: Vec<u8> = (0..len).map(|i| (len ^ i) as u8).collect();
            assert_eq!(f.payload(), &expect[..], "[{name}] payload corrupted at len {len}");
            assert_eq!(
                f.addr,
                peer.local_addr().unwrap(),
                "[{name}] source address wrong"
            );
        }
        assert!(seen[1..].iter().all(|&s| s), "[{name}] a length went missing");
    }
}

#[test]
fn empty_recv_is_nonblocking_and_returns_zero() {
    for pair in build_pairs() {
        let Pair {
            name, mut transport, ..
        } = pair;
        let mut scratch = vec![Frame::empty(); MAX_BATCH];
        let start = Instant::now();
        for _ in 0..32 {
            let n = transport.recv_batch(&mut scratch).expect("recv_batch");
            assert_eq!(n, 0, "[{name}] frames out of nowhere");
        }
        // Generous bound: 32 idle polls must not take anywhere near a
        // blocking read's timeout. Catches an accidentally-blocking
        // socket, not scheduler jitter.
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "[{name}] recv_batch appears to block on an empty socket"
        );
    }
}

#[test]
fn stats_counters_agree_with_frames_moved() {
    const IN: usize = 96; // > MAX_BATCH so batching paths engage
    const OUT: usize = 80;
    for pair in build_pairs() {
        let Pair {
            name,
            mut transport,
            peer,
            addr,
        } = pair;
        let peer_addr = peer.local_addr().unwrap();
        for i in 0..IN {
            peer.send_to(&[i as u8; 8], addr).expect("peer send");
        }
        let frames = recv_all(transport.as_mut(), IN);
        assert_eq!(frames.len(), IN, "[{name}]");

        let out: Vec<Frame> = (0..OUT)
            .map(|i| Frame::new(&[i as u8; 24], peer_addr))
            .collect();
        transport.send_batch(&out).expect("send_batch");
        let mut buf = [0u8; MAX_FRAME];
        for _ in 0..OUT {
            peer.recv_from(&mut buf).expect("peer recv");
        }

        let stats = transport.stats();
        assert_eq!(
            stats.recv_frames, IN as u64,
            "[{name}] recv_frames disagrees with frames delivered"
        );
        assert_eq!(
            stats.send_frames, OUT as u64,
            "[{name}] send_frames disagrees with frames sent"
        );
        assert!(
            stats.recv_calls > 0 && stats.recv_calls <= stats.recv_frames,
            "[{name}] recv_calls {} out of range",
            stats.recv_calls
        );
        assert!(
            stats.send_calls > 0 && stats.send_calls <= stats.send_frames,
            "[{name}] send_calls {} out of range",
            stats.send_calls
        );
        assert!(
            stats.rcvbuf_bytes > 0 && stats.sndbuf_bytes > 0,
            "[{name}] achieved socket buffer sizes not surfaced"
        );
    }
}

#[test]
fn frames_accepted_by_send_batch_survive_immediate_drop() {
    const OUT: usize = 48;
    for pair in build_pairs() {
        let Pair {
            name,
            mut transport,
            peer,
            addr: _,
        } = pair;
        let peer_addr = peer.local_addr().unwrap();
        let out: Vec<Frame> = (0..OUT)
            .map(|i| Frame::new(&[i as u8; 16], peer_addr))
            .collect();
        transport.send_batch(&out).expect("send_batch");
        drop(transport); // drain-on-drop must flush in-flight sends
        let mut buf = [0u8; MAX_FRAME];
        let mut got = 0usize;
        while got < OUT {
            match peer.recv_from(&mut buf) {
                Ok((len, _)) => {
                    assert_eq!(len, 16, "[{name}] truncated frame after drop");
                    got += 1;
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    panic!("[{name}] only {got}/{OUT} frames survived the drop")
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => panic!("[{name}] peer recv: {e}"),
            }
        }
    }
}
