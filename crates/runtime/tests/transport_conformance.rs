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
//!   even when the transport is dropped immediately afterwards;
//! * **trains**: consecutive frames of one peer and one non-zero length
//!   share a message (`send_msgs` counts them — 64 segments at most),
//!   nothing else does, and no frame is reordered, merged or resized by
//!   it; a socket on which the kernel refuses to segment (`SO_NO_CHECK`)
//!   delivers the same frames as single datagrams, without an error;
//! * **coalesced receives**: a train arriving at a batched transport is
//!   one message (`recv_msgs` counts them) handed out as exactly the
//!   datagrams a plain socket would have read — one frame per segment,
//!   in order, a short tail its own length, an oversized segment cut to
//!   `MAX_FRAME` — through output slices of any size and with sends in
//!   between; `per_datagram` never asks for one and reads 64 datagrams.
//!
//! Where the probe reports io_uring unavailable it is skipped *loudly*
//! (the skip and its reason are printed) rather than silently passing.

use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};
use tq_runtime::transport::{
    set_socket_buffers, Frame, Transport, UdpTransport, MAX_BATCH, MAX_FRAME,
};
use tq_runtime::uring::{self, IoUringTransport};

#[cfg(target_os = "linux")]
mod common;

/// A (transport, peer socket, transport address) triple for one run.
struct Pair {
    name: String,
    transport: Box<dyn Transport + Send>,
    /// A second handle on the transport's own socket (socket options).
    sock: UdpSocket,
    peer: UdpSocket,
    addr: SocketAddr,
}

impl Pair {
    /// Whether this transport builds trains (`per_datagram` is the
    /// baseline arm: one `send_to` per frame, always).
    fn trains(&self) -> bool {
        self.name != "per_datagram"
    }
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
        (s.try_clone().expect("dup"), s, addr)
    };

    {
        let (sock, s, addr) = fresh();
        pairs.push(Pair {
            sock,
            name: "per_datagram".into(),
            transport: Box::new(UdpTransport::per_datagram(s).expect("per_datagram")),
            peer: peer(),
            addr,
        });
    }
    {
        let (sock, s, addr) = fresh();
        pairs.push(Pair {
            sock,
            name: "batched".into(),
            transport: Box::new(UdpTransport::batched(s).expect("batched")),
            peer: peer(),
            addr,
        });
    }
    if caps.available {
        let (sock, s, addr) = fresh();
        pairs.push(Pair {
            sock,
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

/// A receiving socket with its buffers sized before any traffic (a train
/// segment is charged more against `SO_RCVBUF` than a lone datagram).
fn peer() -> UdpSocket {
    let s = UdpSocket::bind("127.0.0.1:0").expect("bind peer");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    set_socket_buffers(&s, 1 << 20).expect("peer buffers");
    s
}

/// Reads `want` datagrams off `peer`, in arrival order.
fn peer_recv(name: &str, peer: &UdpSocket, want: usize) -> Vec<Vec<u8>> {
    let mut buf = [0u8; 2 * MAX_FRAME];
    let mut got = Vec::with_capacity(want);
    while got.len() < want {
        match peer.recv_from(&mut buf) {
            Ok((len, _)) => got.push(buf[..len].to_vec()),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => panic!("[{name}] peer recv after {}/{want}: {e}", got.len()),
        }
    }
    got
}

/// `n` eight-byte frames for `to`, tagged `first..first + n`.
fn tagged(first: u64, n: usize, to: SocketAddr) -> Vec<Frame> {
    (first..first + n as u64).map(|i| Frame::new(&i.to_le_bytes(), to)).collect()
}

fn tags(datagrams: &[Vec<u8>]) -> Vec<u64> {
    datagrams.iter().map(|d| u64::from_le_bytes(d[..].try_into().expect("8-byte tag"))).collect()
}

/// Polls `recv_batch` until `want` frames arrive or the deadline passes.
fn recv_all(t: &mut dyn Transport, want: usize) -> Vec<Frame> {
    recv_in_slices(t, want, MAX_BATCH)
}

/// The same through an output slice of `slice` frames, keeping arrival
/// order.
fn recv_in_slices(t: &mut dyn Transport, want: usize, slice: usize) -> Vec<Frame> {
    let mut got = Vec::new();
    let mut scratch = vec![Frame::empty(); slice];
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
            ..
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
            ..
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
            ..
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

#[test]
fn equal_frames_to_one_peer_share_messages_and_keep_their_order() {
    const OUT: usize = 200; // 64 + 64 + 64 + 8
    for mut pair in build_pairs() {
        let name = pair.name.clone();
        let to = pair.peer.local_addr().unwrap();
        pair.transport.send_batch(&tagged(0, OUT, to)).expect("send_batch");
        let got = tags(&peer_recv(&name, &pair.peer, OUT));
        assert_eq!(got, (0..OUT as u64).collect::<Vec<_>>(), "[{name}] exactly once, in order");
        let stats = pair.transport.stats();
        assert_eq!(stats.send_frames, OUT as u64, "[{name}]");
        let msgs = if pair.trains() { OUT.div_ceil(MAX_BATCH) } else { OUT };
        assert_eq!(stats.send_msgs, msgs as u64, "[{name}] trains of at most {MAX_BATCH}");
    }
}

#[test]
fn interleaved_peers_get_no_train_and_no_reordering() {
    const EACH: usize = 40;
    for mut pair in build_pairs() {
        let name = pair.name.clone();
        let other = peer();
        let (a, b) = (pair.peer.local_addr().unwrap(), other.local_addr().unwrap());
        // A, B, A, B, …: no two consecutive frames share a peer.
        let out: Vec<Frame> = (0..2 * EACH as u64)
            .map(|i| Frame::new(&(i / 2).to_le_bytes(), if i % 2 == 0 { a } else { b }))
            .collect();
        pair.transport.send_batch(&out).expect("send_batch");
        for sock in [&pair.peer, &other] {
            let got = tags(&peer_recv(&name, sock, EACH));
            assert_eq!(got, (0..EACH as u64).collect::<Vec<_>>(), "[{name}] send order per peer");
        }
        let stats = pair.transport.stats();
        assert_eq!(stats.send_frames, 2 * EACH as u64, "[{name}]");
        assert_eq!(stats.send_msgs, stats.send_frames, "[{name}] nothing to coalesce");
    }
}

#[test]
fn mixed_lengths_in_one_batch_arrive_with_their_own_lengths() {
    // Runs of equal length, length changes, zero-length frames (alone and
    // adjacent), the largest frame, and a length that comes back later.
    const M: usize = MAX_FRAME;
    const LENS: [usize; 17] = [18, 18, 18, 0, 0, 1, 1, 24, 24, 24, 24, M, M, 18, 0, M, 1];
    // A message per run of equal non-zero lengths, one per empty frame.
    let runs = 1 + LENS.windows(2).filter(|w| w[0] != w[1] || w[0] == 0).count();
    for mut pair in build_pairs() {
        let name = pair.name.clone();
        let to = pair.peer.local_addr().unwrap();
        let out: Vec<Frame> =
            LENS.iter().enumerate().map(|(i, &len)| Frame::new(&vec![i as u8; len], to)).collect();
        pair.transport.send_batch(&out).expect("send_batch");
        let got = peer_recv(&name, &pair.peer, LENS.len());
        for (i, (d, &len)) in got.iter().zip(&LENS).enumerate() {
            assert_eq!(d, &vec![i as u8; len], "[{name}] frame {i} (length {len})");
        }
        let stats = pair.transport.stats();
        assert_eq!(stats.send_frames, LENS.len() as u64, "[{name}]");
        let msgs = if pair.trains() { runs } else { LENS.len() };
        assert_eq!(stats.send_msgs, msgs as u64, "[{name}] a new length or an empty frame ends a run");
    }
}

#[cfg(target_os = "linux")]
#[test]
fn a_socket_the_kernel_will_not_segment_on_falls_back_to_single_datagrams() {
    const FIRST: usize = 130; // 64 + 64 + 2: three trains, all refused
    const LATER: usize = 70;
    for mut pair in build_pairs() {
        let name = pair.name.clone();
        common::refuse_segmentation(&pair.sock);
        let to = pair.peer.local_addr().unwrap();
        pair.transport.send_batch(&tagged(0, FIRST, to)).expect("a refusal is not an error");
        // Every frame is on the wire when send_batch returns: nothing
        // below touches the transport before the peer has them all.
        let got = tags(&peer_recv(&name, &pair.peer, FIRST));
        assert_eq!(got, (0..FIRST as u64).collect::<Vec<_>>(), "[{name}] exactly once, in order");
        let before = pair.transport.stats();
        assert_eq!(before.send_frames, FIRST as u64, "[{name}] resent frames are not counted twice");
        println!("[{name}] refused burst: {before:?}");
        assert!(before.send_msgs >= FIRST as u64, "[{name}] {} messages", before.send_msgs);

        pair.transport.send_batch(&tagged(FIRST as u64, LATER, to)).expect("not broken");
        let got = tags(&peer_recv(&name, &pair.peer, LATER));
        assert_eq!(got, (FIRST as u64..(FIRST + LATER) as u64).collect::<Vec<_>>(), "[{name}]");
        let after = pair.transport.stats();
        assert_eq!(after.send_frames - before.send_frames, LATER as u64, "[{name}]");
        assert_eq!(after.send_msgs - before.send_msgs, LATER as u64, "[{name}] no train is tried again");
        let mut scratch = vec![Frame::empty(); MAX_BATCH];
        assert_eq!(pair.transport.recv_batch(&mut scratch).expect("not broken"), 0, "[{name}]");
        // Nothing arrives twice.
        pair.peer.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
        assert!(pair.peer.recv_from(&mut [0u8; MAX_FRAME]).is_err(), "[{name}] a duplicate arrived");
    }
}

/// Segment `i` of a test train: `len` bytes of `i`.
#[cfg(target_os = "linux")]
fn train_of(n: usize, len: usize) -> Vec<u8> {
    (0..n).flat_map(|i| std::iter::repeat_n(i as u8, len)).collect()
}

#[cfg(target_os = "linux")]
#[test]
fn a_train_arrives_as_its_segments_in_one_message() {
    let coalesces = common::kernel_coalesces();
    for mut pair in build_pairs() {
        let name = pair.name.clone();
        let from = pair.peer.local_addr().unwrap();
        let mut handed_out = 0u64;
        for n in [1usize, 2, 63, 64, 128] {
            for len in [1usize, 18, 24, MAX_FRAME] {
                let before = pair.transport.stats();
                match common::send_train(&pair.peer, pair.addr, &train_of(n, len), len as u16) {
                    Ok(()) => {}
                    Err(e) if n > MAX_BATCH && e.kind() == std::io::ErrorKind::InvalidInput => {
                        println!("SKIP [{name}] {n} x {len}: above this kernel's UDP_MAX_SEGMENTS");
                        continue;
                    }
                    Err(e) => panic!("[{name}] sending {n} x {len}: {e}"),
                }
                let got = recv_all(pair.transport.as_mut(), n);
                for (i, f) in got.iter().enumerate() {
                    assert_eq!(
                        f.payload(),
                        &vec![i as u8; len][..],
                        "[{name}] {n} x {len}, segment {i}"
                    );
                    assert_eq!(f.addr, from, "[{name}] {n} x {len}, segment {i}");
                }
                handed_out += n as u64;
                let after = pair.transport.stats();
                assert_eq!(after.recv_frames, handed_out, "[{name}] {n} x {len}");
                // The receiver that never asked reads the datagrams the
                // kernel cut for it; the ones that did, the train.
                let msgs = if pair.trains() && coalesces { 1 } else { n };
                assert_eq!(after.recv_msgs - before.recv_msgs, msgs as u64, "[{name}] {n} x {len}");
            }
        }
        let mut scratch = vec![Frame::empty(); MAX_BATCH];
        assert_eq!(pair.transport.recv_batch(&mut scratch).expect("recv_batch"), 0, "[{name}]");
    }
}

#[cfg(target_os = "linux")]
#[test]
fn a_short_tail_keeps_its_length_and_long_segments_are_each_cut_to_max_frame() {
    for mut pair in build_pairs() {
        let name = pair.name.clone();
        // Five 18-byte segments and a 10-byte tail.
        common::send_train(&pair.peer, pair.addr, &train_of(6, 18)[..5 * 18 + 10], 18)
            .expect("send");
        let got = recv_all(pair.transport.as_mut(), 6);
        for (i, f) in got.iter().enumerate() {
            let len = if i < 5 { 18 } else { 10 };
            assert_eq!(f.payload(), &vec![i as u8; len][..], "[{name}] segment {i}");
        }
        // Segments twice a frame's capacity: one frame each, the first
        // MAX_FRAME bytes of its own segment, as a lone oversized
        // datagram is truncated.
        let n = MAX_BATCH;
        let long = train_of(n, 2 * MAX_FRAME);
        common::send_train(&pair.peer, pair.addr, &long, 2 * MAX_FRAME as u16).expect("send");
        let got = recv_all(pair.transport.as_mut(), n);
        for (i, f) in got.iter().enumerate() {
            assert_eq!(f.payload(), &[i as u8; MAX_FRAME][..], "[{name}] long segment {i}");
        }
        let frames = pair.transport.stats().recv_frames;
        assert_eq!(frames, 6 + n as u64, "[{name}] one frame a segment");
    }
}

#[cfg(target_os = "linux")]
#[test]
fn trains_and_lone_datagrams_from_two_peers_keep_their_addresses_and_order() {
    // Per round, how many 8-byte tags each peer's message carries.
    const SHAPES: [[usize; 2]; 4] = [[1, 3], [5, 1], [1, 40], [64, 1]];
    for mut pair in build_pairs() {
        let name = pair.name.clone();
        let peers = [pair.peer.try_clone().unwrap(), peer()];
        let mut next = [0u64; 2];
        for shape in SHAPES {
            for ((p, sock), n) in peers.iter().enumerate().zip(shape) {
                let bytes: Vec<u8> =
                    (next[p]..next[p] + n as u64).flat_map(u64::to_le_bytes).collect();
                next[p] += n as u64;
                if n == 1 {
                    sock.send_to(&bytes, pair.addr).expect("lone datagram");
                } else {
                    common::send_train(sock, pair.addr, &bytes, 8).expect("train");
                }
            }
        }
        let got = recv_all(pair.transport.as_mut(), (next[0] + next[1]) as usize);
        for (p, sock) in peers.iter().enumerate() {
            let from = sock.local_addr().unwrap();
            let mine: Vec<Vec<u8>> =
                got.iter().filter(|f| f.addr == from).map(|f| f.payload().to_vec()).collect();
            assert_eq!(tags(&mine), (0..next[p]).collect::<Vec<_>>(), "[{name}] peer {p}");
        }
    }
}

/// The receive queue a partial `recv_batch` leaves behind shares nothing
/// with the send path: a burst sent between two partial receives neither
/// loses, repeats, reorders nor readdresses what is still queued.
#[cfg(target_os = "linux")]
#[test]
fn a_send_between_partial_receives_loses_and_repeats_nothing() {
    const N: usize = MAX_BATCH;
    const SLICE: usize = 7;
    const OWN: usize = 10;
    for mut pair in build_pairs() {
        let name = pair.name.clone();
        let from = pair.peer.local_addr().unwrap();
        let other = peer();
        for round in 0..3u64 {
            let bytes: Vec<u8> =
                (0..N as u64).flat_map(|i| (round << 32 | i).to_le_bytes()).collect();
            common::send_train(&pair.peer, pair.addr, &bytes, 8).expect("train");
            // The first slice's worth (one frame, for per_datagram) ...
            let mut scratch = vec![Frame::empty(); SLICE];
            let mut got = Vec::new();
            let deadline = Instant::now() + Duration::from_secs(10);
            while got.is_empty() {
                let k = pair.transport.recv_batch(&mut scratch).expect("recv_batch");
                got.extend_from_slice(&scratch[..k]);
                assert!(Instant::now() < deadline, "[{name}] the train never arrived");
            }
            // ... then a burst of the transport's own, to someone else ...
            let to = other.local_addr().unwrap();
            pair.transport.send_batch(&tagged(round * 100, OWN, to)).expect("send_batch");
            // ... then the rest, a slice at a time.
            let rest = N - got.len();
            got.extend(recv_in_slices(pair.transport.as_mut(), rest, SLICE));
            let seen: Vec<Vec<u8>> = got.iter().map(|f| f.payload().to_vec()).collect();
            let want: Vec<u64> = (0..N as u64).map(|i| round << 32 | i).collect();
            assert_eq!(tags(&seen), want, "[{name}] round {round}: exactly once, in send order");
            assert!(got.iter().all(|f| f.addr == from), "[{name}] round {round}: source address");
            assert_eq!(pair.transport.recv_batch(&mut scratch).expect("recv_batch"), 0, "[{name}]");
            let own = tags(&peer_recv(&name, &other, OWN));
            let sent = round * 100..round * 100 + OWN as u64;
            assert_eq!(own, sent.collect::<Vec<_>>(), "[{name}]");
        }
        assert_eq!(pair.transport.stats().recv_frames, 3 * N as u64, "[{name}]");
    }
}
