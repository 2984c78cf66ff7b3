//! Hostile wire-input tests for the batched socket front end.
//!
//! The serve loop's contract (see `net.rs` module docs) is that the
//! *ledger* survives anything a UDP peer can do: duplicate tags,
//! interleaved clients, clients that stop reading, floods past the
//! in-flight bound, a socket on which the kernel refuses segmented sends,
//! a train with a malformed segment in it, and a stop request while jobs
//! are mid-service. None
//! of these may lose a datagram unaccounted — `received == responded +
//! malformed + shed` always — and shutdown must drain every admitted
//! job over the socket rather than wedging or dropping it.
//!
//! Every test runs a real `TinyQuanta` server on loopback with the
//! invariant auditor on, once per available wire — the batched
//! `recvmmsg`/`sendmmsg` transport always, and the io_uring transport
//! wherever the capability probe validates it (skipped loudly, with the
//! probe's reason, elsewhere). Timing assertions are avoided (CI hosts
//! are shared); the assertions are all counting and conservation.

use std::collections::HashSet;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use tq_core::Nanos;
use tq_runtime::net::{decode_response, encode_request, serve, NetConfig, ServeOutcome};
use tq_runtime::transport::{set_socket_buffers, Transport, UdpTransport};
use tq_runtime::uring::{self, IoUringTransport};
use tq_runtime::{ServerConfig, SpinJob, TinyQuanta, TscClock};

#[cfg(target_os = "linux")]
mod common;

/// Which transport carries a scenario's wire traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Wire {
    Batched,
    Uring,
}

/// The wires this host can run; io_uring's absence is loud, never a
/// silent pass.
fn wires() -> Vec<Wire> {
    let caps = uring::probe();
    if caps.available {
        vec![Wire::Batched, Wire::Uring]
    } else {
        println!("SKIP io_uring wire — probe: {}", caps.reason);
        vec![Wire::Batched]
    }
}

struct Served {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: JoinHandle<std::io::Result<ServeOutcome>>,
}

impl Served {
    /// Spawns an audited spin-job server behind the given wire's
    /// transport.
    fn start(workers: usize, net_config: NetConfig, wire: Wire) -> Served {
        let socket = UdpSocket::bind("127.0.0.1:0").expect("bind server");
        Served::start_on(socket, workers, net_config, wire)
    }

    /// The same, on a socket the caller has already bound (and set
    /// options on).
    fn start_on(socket: UdpSocket, workers: usize, net_config: NetConfig, wire: Wire) -> Served {
        let clock = TscClock::calibrated();
        let job_clock = clock.clone();
        let server = TinyQuanta::start_with_clock(
            ServerConfig {
                workers,
                quantum: Nanos::from_micros(10),
                audit: true,
                ..ServerConfig::default()
            },
            clock,
            move |req| Box::new(SpinJob::with_clock(req, &job_clock)),
        );
        set_socket_buffers(&socket, 1 << 20).expect("socket buffers");
        let addr = socket.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut transport: Box<dyn Transport + Send> = match wire {
                Wire::Batched => Box::new(UdpTransport::batched(socket).expect("transport")),
                Wire::Uring => Box::new(IoUringTransport::server(socket).expect("uring")),
            };
            serve(server, &mut transport, &stop2, &net_config)
        });
        Served { addr, stop, handle }
    }

    /// Stops the loop and returns the audited outcome; asserts both the
    /// net ledger and the server's internal report are clean.
    fn finish(self) -> ServeOutcome {
        self.stop.store(true, Ordering::Release);
        let outcome = self
            .handle
            .join()
            .expect("serve thread")
            .expect("serve result");
        let net_report = outcome.net.audit();
        assert!(net_report.is_clean(), "net audit: {net_report}");
        let server_report = outcome.server.audit.as_ref().expect("audit enabled");
        assert!(server_report.is_clean(), "server audit: {server_report}");
        outcome
    }
}

fn client() -> UdpSocket {
    let sock = UdpSocket::bind("127.0.0.1:0").expect("bind client");
    sock.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    sock
}

fn recv_response(sock: &UdpSocket) -> Option<(u64, Nanos, u64)> {
    let mut buf = [0u8; 64];
    loop {
        match sock.recv_from(&mut buf) {
            Ok((len, _)) => {
                return Some(decode_response(&buf[..len]).expect("server sent a malformed response"))
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return None
            }
            // EINTR under a loaded test host is weather, not a verdict.
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => panic!("client recv: {e}"),
        }
    }
}

/// The tag is the client's correlation token, not a key: a peer that
/// reuses one gets every request it paid for answered (two requests,
/// two responses, same tag), because in-flight state is keyed by the
/// server-assigned `JobId`, never by wire input.
#[test]
fn duplicate_tags_are_both_answered() {
    wires().into_iter().for_each(duplicate_tags_scenario);
}

fn duplicate_tags_scenario(wire: Wire) {
    let served = Served::start(1, NetConfig::default(), wire);
    let sock = client();
    for _ in 0..2 {
        sock.send_to(&encode_request(0, Nanos::from_micros(1), 42), served.addr)
            .unwrap();
    }
    for i in 0..2 {
        let (tag, _, _) = recv_response(&sock).unwrap_or_else(|| panic!("response {i} timed out"));
        assert_eq!(tag, 42);
    }
    let outcome = served.finish();
    assert_eq!(outcome.net.received, 2);
    assert_eq!(outcome.net.responded, 2);
}

/// Two clients with overlapping tag spaces interleave requests; each
/// must get exactly its own responses back (addressing is by source
/// socket, so even identical tags from different peers cannot cross).
#[test]
fn interleaved_clients_receive_only_their_own_responses() {
    wires().into_iter().for_each(interleaved_clients_scenario);
}

fn interleaved_clients_scenario(wire: Wire) {
    const PER_CLIENT: u64 = 32;
    let served = Served::start(2, NetConfig::default(), wire);
    let a = client();
    let b = client();
    for tag in 0..PER_CLIENT {
        // Same tag values from both peers, interleaved on the wire.
        a.send_to(&encode_request(0, Nanos::from_micros(1), tag), served.addr)
            .unwrap();
        b.send_to(&encode_request(1, Nanos::from_micros(1), tag), served.addr)
            .unwrap();
    }
    for sock in [&a, &b] {
        let mut seen = HashSet::new();
        for _ in 0..PER_CLIENT {
            let (tag, _, _) = recv_response(sock).expect("response timed out");
            assert!(tag < PER_CLIENT, "tag {tag} was never sent by this client");
            assert!(seen.insert(tag), "tag {tag} answered twice to one client");
        }
    }
    let outcome = served.finish();
    assert_eq!(outcome.net.received, 2 * PER_CLIENT);
    assert_eq!(outcome.net.responded, 2 * PER_CLIENT);
}

/// A server socket on which the kernel refuses `UDP_SEGMENT` (here:
/// `SO_NO_CHECK`, see `common::refuse_segmentation`) still answers every
/// request exactly once: the first train of responses comes back
/// `EINVAL`, the transport resends its frames singly and builds no train
/// again. Four clients queue their requests in chunks before the server
/// polls, so responses to one client come in runs (trains to refuse)
/// that interleave with the other clients'.
#[cfg(target_os = "linux")]
#[test]
fn refused_segmentation_falls_back_without_losing_a_response() {
    wires().into_iter().for_each(refused_segmentation_scenario);
}

#[cfg(target_os = "linux")]
fn refused_segmentation_scenario(wire: Wire) {
    const PER_CLIENT: u64 = 64;
    const CHUNK: u64 = 16;
    let socket = UdpSocket::bind("127.0.0.1:0").expect("bind server");
    let addr = socket.local_addr().unwrap();
    common::refuse_segmentation(&socket);
    set_socket_buffers(&socket, 1 << 20).expect("room for all 256 requests");
    let clients: Vec<UdpSocket> = (0..4).map(|_| client()).collect();
    for first in (0..PER_CLIENT).step_by(CHUNK as usize) {
        for sock in &clients {
            for tag in first..first + CHUNK {
                sock.send_to(&encode_request(0, Nanos::ZERO, tag), addr).unwrap();
            }
        }
    }
    let served = Served::start_on(socket, 2, NetConfig::default(), wire);
    for sock in &clients {
        let mut seen = HashSet::new();
        for _ in 0..PER_CLIENT {
            let (tag, _, _) = recv_response(sock).expect("response timed out");
            assert!(tag < PER_CLIENT && seen.insert(tag), "tag {tag} unknown or answered twice");
        }
    }
    let outcome = served.finish();
    let net = &outcome.net;
    println!("{wire:?} refused segmentation: {:?}", net.transport);
    assert_eq!(net.received, 4 * PER_CLIENT);
    assert_eq!(net.received, net.responded + net.malformed + net.shed);
    assert_eq!(net.responded, 4 * PER_CLIENT, "{wire:?}: nothing shed, nothing malformed");
    // Every response that went out went out alone (refused trains are
    // the surplus the io_uring wire counts).
    assert!(net.transport.send_msgs >= net.transport.send_frames, "{wire:?}: {:?}", net.transport);
}

/// A raw client's train of 63 well-formed requests and a 10-byte tail:
/// the server's socket takes it as one coalesced message, and the split
/// hands the serve loop 64 datagrams — 63 answered, the tail counted as
/// malformed like any lone runt. The 63 are in the server at once, so
/// this is also where the wire's batching shows in the transport's
/// counters: frames outnumber receive calls and sent messages.
#[cfg(target_os = "linux")]
#[test]
fn a_runt_at_the_end_of_a_train_is_the_only_malformed_datagram() {
    wires().into_iter().for_each(runt_tail_scenario);
}

#[cfg(target_os = "linux")]
fn runt_tail_scenario(wire: Wire) {
    const GOOD: u64 = 63;
    let served = Served::start(2, NetConfig::default(), wire);
    let sock = client();
    // A first round trip: the transport exists (and has asked for
    // coalesced receives) before the train is sent.
    sock.send_to(&encode_request(0, Nanos::ZERO, GOOD), served.addr).unwrap();
    recv_response(&sock).expect("first response timed out");
    let mut train: Vec<u8> =
        (0..GOOD).flat_map(|tag| encode_request(0, Nanos::ZERO, tag)).collect();
    train.extend([0xEE; 10]);
    common::send_train(&sock, served.addr, &train, 18).expect("send train");
    let mut seen = HashSet::new();
    for _ in 0..GOOD {
        let (tag, _, _) = recv_response(&sock).expect("response timed out");
        assert!(tag < GOOD && seen.insert(tag), "tag {tag} unknown or answered twice");
    }
    let outcome = served.finish();
    let net = &outcome.net;
    println!("{wire:?} runt tail: {:?}", net.transport);
    assert_eq!(net.received, GOOD + 2);
    assert_eq!(net.responded, GOOD + 1);
    assert_eq!(net.malformed, 1);
    assert_eq!(net.received, net.responded + net.malformed + net.shed);
    // A lost batch path, seen as a count: a receive or send loop that
    // moves one datagram per call makes each pair equal.
    let t = &net.transport;
    assert!(t.recv_frames > t.recv_calls, "{wire:?}: no receive took two frames: {t:?}");
    assert!(t.send_frames > t.send_msgs, "{wire:?}: no two responses shared a message: {t:?}");
    if common::kernel_coalesces() {
        assert_eq!(t.recv_msgs, 2, "{wire:?}: a lone datagram and one train");
    }
}

/// A client that stops reading its socket must not corrupt the server's
/// ledger: the server answers (or sheds) everything it received and the
/// conservation identity holds regardless of what the peer does with
/// the responses.
#[test]
fn lossy_client_leaves_the_server_ledger_conserved() {
    wires().into_iter().for_each(lossy_client_scenario);
}

fn lossy_client_scenario(wire: Wire) {
    const SENT: u64 = 64;
    const READ: u64 = 16;
    let served = Served::start(1, NetConfig::default(), wire);
    let sock = client();
    for tag in 0..SENT {
        sock.send_to(&encode_request(0, Nanos::ZERO, tag), served.addr)
            .unwrap();
    }
    // Read a prefix, then abandon the rest in the socket buffer.
    for _ in 0..READ {
        recv_response(&sock).expect("response timed out");
    }
    let outcome = served.finish();
    // `finish` audits conservation (received == responded + shed +
    // malformed); on top of that the server must have answered at least
    // what the client actually saw, and nothing was malformed.
    assert!(outcome.net.responded >= READ);
    assert_eq!(outcome.net.malformed, 0);
    assert_eq!(outcome.net.received, outcome.net.responded + outcome.net.shed);
}

/// Stop raised while jobs are mid-service: every admitted request must
/// still be answered over the socket before the loop exits (the drain
/// contract), and the join must not wedge.
#[test]
fn shutdown_while_requests_in_flight_drains_over_the_socket() {
    wires().into_iter().for_each(shutdown_in_flight_scenario);
}

fn shutdown_in_flight_scenario(wire: Wire) {
    const SENT: u64 = 4;
    let served = Served::start(1, NetConfig::default(), wire);
    let sock = client();
    // 50 ms of spinning each on one worker: the first response proves
    // admission; the rest are guaranteed still in flight behind it.
    for tag in 0..SENT {
        sock.send_to(
            &encode_request(0, Nanos::from_millis(50), tag),
            served.addr,
        )
        .unwrap();
    }
    let mut got = 1u64;
    recv_response(&sock).expect("first response timed out");
    served.stop.store(true, Ordering::Release);
    // Keep reading: the drain must deliver every admitted job's
    // response even though stop is already up.
    sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    while got < SENT {
        match recv_response(&sock) {
            Some(_) => got += 1,
            None => break, // timeout: compare against the ledger below
        }
    }
    let outcome = served.finish();
    assert_eq!(
        got, outcome.net.responded,
        "client saw {got} responses but the server claims {}",
        outcome.net.responded
    );
    assert_eq!(outcome.net.responded + outcome.net.shed, SENT);
    assert!(
        outcome.net.responded >= 1,
        "at least the observed first response was admitted"
    );
}

/// Flooding past the in-flight bound sheds the excess — counted, not
/// lost: the ledger still balances and the auditor stays clean.
#[test]
fn overload_sheds_past_the_in_flight_bound() {
    wires().into_iter().for_each(overload_shed_scenario);
}

fn overload_shed_scenario(wire: Wire) {
    const SENT: u64 = 32;
    let served = Served::start(1, NetConfig { max_in_flight: 4 }, wire);
    let sock = client();
    // Long jobs so no slot frees while the flood is being admitted.
    for tag in 0..SENT {
        sock.send_to(
            &encode_request(0, Nanos::from_millis(20), tag),
            served.addr,
        )
        .unwrap();
    }
    // Read until the server goes quiet: everything admitted, answered.
    sock.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    let mut got = 0u64;
    while recv_response(&sock).is_some() {
        got += 1;
    }
    let outcome = served.finish();
    assert_eq!(got, outcome.net.responded);
    assert_eq!(outcome.net.received, SENT);
    assert!(
        outcome.net.shed > 0,
        "a 32-deep flood against a bound of 4 must shed"
    );
    assert_eq!(outcome.net.responded + outcome.net.shed, SENT);
    assert!(outcome.net.max_in_flight <= 4, "bound was exceeded");
}
