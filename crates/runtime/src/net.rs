//! The socket front end: serving [`TinyQuanta`] over a batched datagram
//! [`Transport`].
//!
//! The paper's client "transmits requests … over UDP" (§5.1). This module
//! provides the matching wire interface, rebuilt around bursts so that
//! the batched dispatch pipeline's wins survive the socket boundary
//! (DESIGN.md "The socket front end"):
//!
//! * one `recvmmsg` drains up to a burst of request datagrams per
//!   syscall ([`Transport::recv_batch`]);
//! * the whole burst is decoded and submitted through
//!   [`TinyQuanta::submit_burst`] — one clock read, one id-range
//!   reservation, and one ledger snapshot per burst. The serve loop *is*
//!   the dispatcher core: it forwards the burst into the worker rings
//!   itself;
//! * in-flight `tag`/`addr` bookkeeping lives in a preallocated
//!   [`InFlightSlab`] keyed by the server's *sequential* [`JobId`]s —
//!   no hashing, no per-request allocation;
//! * completions are coalesced per poll iteration and flushed with one
//!   `sendmmsg` ([`Transport::send_batch`]) — never one `send_to` per
//!   completion, in either transport mode.
//!
//! Workers publish completions to per-worker rings, which the serve loop
//! drains between bursts: it plays the per-worker TX queues' role (§3.2)
//! as well as the dispatcher's, since worker threads must not block on
//! sockets.
//!
//! ## Wire format
//!
//! Request datagram (little-endian): `class: u16 | service_ns: u64 |
//! tag: u64` — exactly 18 bytes. Response: `tag: u64 | sojourn_ns: u64 |
//! quanta: u64` — exactly 24 bytes. Any other length — truncated *or*
//! oversized — is malformed and counted, never parsed. The tag is opaque
//! to the server and lets the client match responses to requests.
//!
//! ## Backpressure and drain contract
//!
//! A well-formed request is *shed* (counted in [`NetStats::shed`], no
//! response ever sent) in exactly two cases: the in-flight bound
//! ([`NetConfig::max_in_flight`]) is reached, or a stop has been
//! requested — after `stop` the loop only drains, so shutdown cannot be
//! postponed indefinitely by new arrivals. Every datagram is accounted:
//! `received == responded + malformed + shed` holds on every exit path
//! ([`NetStats::audit`] checks it, plus the frame-counter agreement with
//! the transport).

use crate::server::{Completion, ServerStats, TinyQuanta};
use crate::transport::{Frame, Transport, TransportStats, UdpTransport, MAX_BATCH};
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tq_audit::{AuditReport, DropReason, InvariantAuditor};
use tq_core::Nanos;

/// Size of a request datagram.
pub const REQUEST_BYTES: usize = 18;
/// Size of a response datagram.
pub const RESPONSE_BYTES: usize = 24;

/// Encodes a request datagram.
pub fn encode_request(class: u16, service: Nanos, tag: u64) -> [u8; REQUEST_BYTES] {
    let mut buf = [0u8; REQUEST_BYTES];
    buf[0..2].copy_from_slice(&class.to_le_bytes());
    buf[2..10].copy_from_slice(&service.as_nanos().to_le_bytes());
    buf[10..18].copy_from_slice(&tag.to_le_bytes());
    buf
}

/// Decodes a request datagram; `None` if malformed. Only exactly
/// [`REQUEST_BYTES`]-byte datagrams are well-formed: a truncated *or*
/// oversized frame is rejected (pre-fix, trailing garbage was silently
/// ignored, so corrupt framing could smuggle through as a valid
/// request).
pub fn decode_request(buf: &[u8]) -> Option<(u16, Nanos, u64)> {
    if buf.len() != REQUEST_BYTES {
        return None;
    }
    let class = u16::from_le_bytes(buf[0..2].try_into().ok()?);
    let service = u64::from_le_bytes(buf[2..10].try_into().ok()?);
    let tag = u64::from_le_bytes(buf[10..18].try_into().ok()?);
    Some((class, Nanos::from_nanos(service), tag))
}

/// Encodes a response datagram.
pub fn encode_response(tag: u64, sojourn: Nanos, quanta: u64) -> [u8; RESPONSE_BYTES] {
    let mut buf = [0u8; RESPONSE_BYTES];
    buf[0..8].copy_from_slice(&tag.to_le_bytes());
    buf[8..16].copy_from_slice(&sojourn.as_nanos().to_le_bytes());
    buf[16..24].copy_from_slice(&quanta.to_le_bytes());
    buf
}

/// Decodes a response datagram; `None` if malformed (exact length only,
/// like [`decode_request`]).
pub fn decode_response(buf: &[u8]) -> Option<(u64, Nanos, u64)> {
    if buf.len() != RESPONSE_BYTES {
        return None;
    }
    let tag = u64::from_le_bytes(buf[0..8].try_into().ok()?);
    let sojourn = u64::from_le_bytes(buf[8..16].try_into().ok()?);
    let quanta = u64::from_le_bytes(buf[16..24].try_into().ok()?);
    Some((tag, Nanos::from_nanos(sojourn), quanta))
}

/// Socket serving-loop configuration.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Most requests admitted but not yet answered at any instant; a
    /// well-formed request arriving at the bound is shed. Bounds the
    /// slab (and the server's queues as seen from the wire).
    pub max_in_flight: usize,
}

/// Idle backoff of the serving loop: consecutive empty poll iterations
/// spent spinning before yielding. (Unlike this loop, an idle worker
/// never spins; it yields, then sleeps.)
const IDLE_SPINS: u32 = 64;
/// Empty iterations spent yielding before sleeping.
const IDLE_YIELDS: u32 = 64;
/// Sleep length once spins and yields are exhausted — the worst-case
/// added latency for a datagram arriving at a deeply idle server.
const IDLE_SLEEP: Duration = Duration::from_micros(50);

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            max_in_flight: 8192,
        }
    }
}

/// Statistics of a finished serving session. Every received datagram is
/// in exactly one of the three outcome buckets:
/// `received == responded + malformed + shed`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NetStats {
    /// Datagrams received (well-formed or not).
    pub received: u64,
    /// Responses sent.
    pub responded: u64,
    /// Malformed datagrams dropped (wrong length).
    pub malformed: u64,
    /// Well-formed requests shed: in-flight bound reached, or arrival
    /// after a stop was requested.
    pub shed: u64,
    /// Highest in-flight occupancy observed.
    pub max_in_flight: u64,
    /// The transport's syscall/frame counters.
    pub transport: TransportStats,
}

impl NetStats {
    /// Drops by named reason, for the conservation ledger.
    pub fn drops(&self) -> Vec<(DropReason, u64)> {
        let mut drops = Vec::new();
        if self.malformed > 0 {
            drops.push((DropReason::Malformed, self.malformed));
        }
        if self.shed > 0 {
            drops.push((DropReason::NetShed, self.shed));
        }
        drops
    }

    /// Audits the session ledger: datagram conservation
    /// (`received == responded + malformed + shed`) and agreement with
    /// the transport's frame counters.
    pub fn audit(&self) -> AuditReport {
        let mut a = InvariantAuditor::new("net");
        a.check_conservation(self.received, self.responded, &self.drops());
        a.check(
            "net_recv_frames_agree",
            self.transport.recv_frames == self.received,
            || {
                format!(
                    "transport received {} frames but the loop accounted {}",
                    self.transport.recv_frames, self.received
                )
            },
        );
        a.check(
            "net_send_frames_agree",
            self.transport.send_frames == self.responded,
            || {
                format!(
                    "transport sent {} frames but the loop responded {}",
                    self.transport.send_frames, self.responded
                )
            },
        );
        a.finish()
    }
}

/// What [`serve`] returns: the session ledger plus the shut-down
/// server's internal statistics (and audit report, if enabled).
#[derive(Debug)]
pub struct ServeOutcome {
    /// The socket session's ledger.
    pub net: NetStats,
    /// The server's dispatcher/worker counters and optional audit
    /// report, exactly as [`TinyQuanta::shutdown_with_stats`] returns
    /// them.
    pub server: ServerStats,
}

/// In-flight bookkeeping (`JobId` → client `tag`/`addr`), exploiting the
/// server's *sequential* id assignment: slot `id & (capacity-1)` in a
/// preallocated power-of-two table. Collisions are only possible when
/// two in-flight ids are ≥ `capacity` apart (a straggler pinned while
/// the id stream laps it), in which case the table doubles — amortized
/// O(1), zero steady-state allocation, no hashing. Replaces the old
/// per-request `HashMap` entry (hash + allocate per request).
#[derive(Debug)]
pub struct InFlightSlab {
    slots: Vec<Option<(u64, u64, SocketAddr)>>, // (id, tag, addr)
    len: usize,
}

impl InFlightSlab {
    /// A slab with at least `capacity` slots (rounded up to a power of
    /// two).
    pub fn with_capacity(capacity: usize) -> InFlightSlab {
        let cap = capacity.max(2).next_power_of_two();
        InFlightSlab {
            slots: vec![None; cap],
            len: 0,
        }
    }

    /// Entries currently in flight.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn slot(&self, id: u64) -> usize {
        (id as usize) & (self.slots.len() - 1)
    }

    /// Records an in-flight job.
    ///
    /// # Panics
    ///
    /// Panics if `id` is already present (the server never reissues an
    /// id).
    pub fn insert(&mut self, id: u64, tag: u64, addr: SocketAddr) {
        loop {
            let s = self.slot(id);
            match self.slots[s] {
                None => {
                    self.slots[s] = Some((id, tag, addr));
                    self.len += 1;
                    return;
                }
                Some((other, _, _)) => {
                    assert_ne!(other, id, "JobId {id} inserted twice");
                    // A straggler more than `capacity` ids old still
                    // occupies this slot: double and re-home everything.
                    self.grow();
                }
            }
        }
    }

    /// Removes and returns the entry for `id`, if present.
    pub fn remove(&mut self, id: u64) -> Option<(u64, SocketAddr)> {
        let s = self.slot(id);
        match self.slots[s] {
            Some((stored, tag, addr)) if stored == id => {
                self.slots[s] = None;
                self.len -= 1;
                Some((tag, addr))
            }
            _ => None,
        }
    }

    fn grow(&mut self) {
        let mut bigger = InFlightSlab {
            slots: vec![None; self.slots.len() * 2],
            len: 0,
        };
        for slot in self.slots.drain(..).flatten() {
            let (id, tag, addr) = slot;
            // Re-homing cannot collide: all ids were distinct.
            let s = (id as usize) & (bigger.slots.len() - 1);
            debug_assert!(bigger.slots[s].is_none());
            bigger.slots[s] = Some((id, tag, addr));
            bigger.len += 1;
        }
        *self = bigger;
    }
}

/// Serves `server` over `transport` until `stop` is set *and* every
/// admitted request has been answered, then shuts the server down.
/// Returns the session ledger and the server's statistics.
///
/// The loop runs in the calling thread; spawn it yourself if you need it
/// in the background (see `examples/udp_server.rs`). See the module docs
/// for the burst pipeline and the backpressure/drain contract.
///
/// # Errors
///
/// Propagates transport errors (the server is still shut down cleanly
/// first).
pub fn serve<T: Transport>(
    server: TinyQuanta,
    transport: &mut T,
    stop: &AtomicBool,
    config: &NetConfig,
) -> io::Result<ServeOutcome> {
    /// Full receive batches drained back-to-back per poll iteration.
    /// With the completion-driven io_uring transport the kernel keeps
    /// filling the armed receive pool *while* the loop decodes and
    /// submits, so going straight back for the backlog overlaps
    /// submission with reception; the bound keeps completions (and the
    /// response flush) from starving under sustained overload.
    const RECV_ROUNDS_PER_POLL: usize = 4;

    let burst = transport.max_batch().max(1);
    let mut stats = NetStats::default();
    let mut rx: Vec<Frame> = vec![Frame::empty(); burst];
    let mut tx: Vec<Frame> = Vec::with_capacity(burst.max(256));
    let mut submit: Vec<(u16, Nanos)> = Vec::with_capacity(burst);
    let mut meta: Vec<(u64, SocketAddr)> = Vec::with_capacity(burst);
    let mut completions: Vec<Completion> = Vec::with_capacity(1024);
    let mut slab = InFlightSlab::with_capacity(config.max_in_flight.clamp(64, 8192));
    let mut idle_iters: u32 = 0;

    let result = 'serve: loop {
        // Read `stop` before receiving: every datagram drained after this
        // sees a consistent stopping decision, and any datagram racing in
        // after a `true` load is picked up by the next iteration's recv
        // (the loop only breaks once the *slab* is empty, after a recv
        // that returned nothing admissible).
        let stopping = stop.load(Ordering::Acquire);
        let mut received = 0usize;
        for _ in 0..RECV_ROUNDS_PER_POLL {
            let n = match transport.recv_batch(&mut rx) {
                Ok(n) => n,
                Err(e) => break 'serve Err(e),
            };
            stats.received += n as u64;
            received += n;
            submit.clear();
            meta.clear();
            for f in &rx[..n] {
                match decode_request(f.payload()) {
                    None => stats.malformed += 1,
                    Some((class, service, tag)) => {
                        if stopping || slab.len() + submit.len() >= config.max_in_flight {
                            stats.shed += 1;
                        } else {
                            submit.push((class, service));
                            meta.push((tag, f.addr));
                        }
                    }
                }
            }
            if !submit.is_empty() {
                // One burst: one clock read, one id-range reservation,
                // one load snapshot per 64 requests, forwarded by this
                // thread straight into the worker rings.
                let first = server.submit_burst(&submit).0;
                for (i, &(tag, addr)) in meta.iter().enumerate() {
                    slab.insert(first + i as u64, tag, addr);
                }
                stats.max_in_flight = stats.max_in_flight.max(slab.len() as u64);
            }
            if n < burst {
                break; // backlog drained; don't poll an empty queue again
            }
        }
        completions.clear();
        server.drain_completions_into(&mut completions);
        if !completions.is_empty() {
            tx.clear();
            for c in &completions {
                let (tag, addr) = slab
                    .remove(c.id.0)
                    .expect("every completion has an in-flight entry");
                tx.push(Frame::new(
                    &encode_response(tag, c.sojourn(), c.quanta),
                    addr,
                ));
            }
            // One coalesced flush per poll iteration — in *both*
            // transport modes the loop hands the whole burst down at
            // once (the fallback loops internally; it no longer hides a
            // per-completion send in the delivery path).
            if let Err(e) = transport.send_batch(&tx) {
                break Err(e);
            }
            stats.responded += tx.len() as u64;
        }
        if stopping && slab.is_empty() {
            break Ok(());
        }
        // Idle backoff (spin → yield → sleep): a hot serving loop answers
        // in microseconds, an idle one must not monopolize an
        // oversubscribed host.
        if received == 0 && completions.is_empty() {
            idle_iters += 1;
            if idle_iters <= IDLE_SPINS {
                std::hint::spin_loop();
            } else if idle_iters <= IDLE_SPINS + IDLE_YIELDS {
                std::thread::yield_now();
            } else {
                std::thread::sleep(IDLE_SLEEP);
            }
        } else {
            idle_iters = 0;
        }
    };

    // Shut the server down whatever happened above; on the clean path
    // the slab is empty, so remaining completions (from jobs submitted
    // by other handles, if any) have no wire destination and are
    // dropped here by construction — `shutdown_with_stats` still
    // accounts them in the server's own ledger.
    let (rest, server_stats) = server.shutdown_with_stats();
    if result.is_ok() {
        tx.clear();
        for c in &rest {
            if let Some((tag, addr)) = slab.remove(c.id.0) {
                tx.push(Frame::new(
                    &encode_response(tag, c.sojourn(), c.quanta),
                    addr,
                ));
            }
        }
        if !tx.is_empty() {
            transport.send_batch(&tx)?;
            stats.responded += tx.len() as u64;
        }
    }
    stats.transport = transport.stats();
    result.map(|()| ServeOutcome {
        net: stats,
        server: server_stats,
    })
}

/// Serves `server` over `socket` with the batched UDP transport and
/// default [`NetConfig`] until `stop` is set and all in-flight work has
/// drained — the convenience wrapper the examples and tests use.
///
/// # Errors
///
/// Propagates socket errors.
pub fn serve_udp(
    server: TinyQuanta,
    socket: UdpSocket,
    stop: Arc<AtomicBool>,
) -> io::Result<NetStats> {
    let mut transport = UdpTransport::batched(socket)?;
    serve(server, &mut transport, &stop, &NetConfig::default()).map(|o| o.net)
}

/// Builds the server-side transport the host supports: io_uring
/// (`uring:multishot`) when the startup capability probe validated it,
/// the batched `recvmmsg`/`sendmmsg` transport (`udp:mmsg`) otherwise.
/// The io_uring send pool is sized to the config's in-flight bound plus
/// one burst of slack, capped at 1024. The receive pool stays at
/// [`UringConfig`](crate::uring::UringConfig)'s default: a posted buffer
/// holds one *message* — a lone datagram or a whole train — so it covers
/// bursts, not requests, and is not scaled by `max_in_flight`; what
/// outruns it between two reaps waits in the socket's receive buffer, as
/// the excess over the pool always did. The choice is observable through
/// [`Transport::label`]; callers that need the fallback *reason* print
/// [`crate::uring::probe`]'s summary.
///
/// # Errors
///
/// Propagates socket/ring setup errors (a probe-validated host failing
/// ring setup for this particular socket is a real error, not a
/// fallback case).
pub fn server_transport(
    socket: UdpSocket,
    config: &NetConfig,
) -> io::Result<Box<dyn Transport + Send>> {
    if crate::uring::probe().available {
        // The in-flight bound plus one burst of slack; past it
        // `send_batch` waits for a completion.
        let send_pool = config.max_in_flight.saturating_add(MAX_BATCH).min(1024);
        let transport = crate::uring::IoUringTransport::server_with(
            socket,
            crate::uring::UringConfig { send_pool, ..Default::default() },
        )?;
        Ok(Box::new(transport))
    } else {
        Ok(Box::new(UdpTransport::batched(socket)?))
    }
}

/// Serves `server` over the probe-selected transport (io_uring where
/// available, batched mmsg otherwise — see [`server_transport`]) until
/// `stop` is set and all in-flight work has drained.
///
/// # Errors
///
/// Propagates socket/ring errors.
pub fn serve_auto(
    server: TinyQuanta,
    socket: UdpSocket,
    stop: Arc<AtomicBool>,
) -> io::Result<NetStats> {
    let mut transport = server_transport(socket, &NetConfig::default())?;
    serve(server, &mut transport, &stop, &NetConfig::default()).map(|o| o.net)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ServerConfig, SpinJob, TscClock};

    #[test]
    fn wire_format_round_trips() {
        let req = encode_request(3, Nanos::from_micros(7), 0xDEAD_BEEF);
        assert_eq!(
            decode_request(&req),
            Some((3, Nanos::from_micros(7), 0xDEAD_BEEF))
        );
        let resp = encode_response(0xDEAD_BEEF, Nanos::from_micros(11), 4);
        assert_eq!(
            decode_response(&resp),
            Some((0xDEAD_BEEF, Nanos::from_micros(11), 4))
        );
    }

    #[test]
    fn truncated_datagrams_rejected() {
        let req = encode_request(1, Nanos::from_micros(1), 7);
        for n in 0..REQUEST_BYTES {
            assert_eq!(decode_request(&req[..n]), None, "len {n} accepted");
        }
        let resp = encode_response(7, Nanos::from_micros(1), 1);
        for n in 0..RESPONSE_BYTES {
            assert_eq!(decode_response(&resp[..n]), None, "len {n} accepted");
        }
    }

    #[test]
    fn oversized_datagrams_rejected() {
        // Exactly-sized frames with trailing garbage must NOT decode:
        // pre-fix, any length >= the message size was accepted.
        let mut req = [0u8; REQUEST_BYTES + 1];
        req[..REQUEST_BYTES].copy_from_slice(&encode_request(1, Nanos::from_micros(1), 7));
        assert_eq!(decode_request(&req), None, "oversized request accepted");
        let mut resp = [0u8; RESPONSE_BYTES + 8];
        resp[..RESPONSE_BYTES].copy_from_slice(&encode_response(7, Nanos::from_micros(1), 1));
        assert_eq!(decode_response(&resp), None, "oversized response accepted");
    }

    #[test]
    fn exact_frames_accepted() {
        assert!(decode_request(&encode_request(0, Nanos::ZERO, 0)).is_some());
        assert!(decode_response(&encode_response(0, Nanos::ZERO, 0)).is_some());
    }

    #[test]
    fn slab_insert_remove_round_trip() {
        let addr: SocketAddr = "127.0.0.1:9".parse().unwrap();
        let mut slab = InFlightSlab::with_capacity(64);
        for id in 0..50u64 {
            slab.insert(id, id * 10, addr);
        }
        assert_eq!(slab.len(), 50);
        for id in (0..50u64).rev() {
            assert_eq!(slab.remove(id), Some((id * 10, addr)));
        }
        assert!(slab.is_empty());
        assert_eq!(slab.remove(7), None, "double remove");
    }

    #[test]
    fn slab_grows_past_straggler_collisions() {
        let addr: SocketAddr = "127.0.0.1:9".parse().unwrap();
        let mut slab = InFlightSlab::with_capacity(4);
        // Id 0 stays in flight while the id stream laps the table
        // multiple times: every lap would collide without growth.
        slab.insert(0, 1000, addr);
        for id in 1..1000u64 {
            slab.insert(id, id, addr);
            if id >= 3 {
                assert_eq!(slab.remove(id - 2), Some((id - 2, addr)));
            }
        }
        assert_eq!(slab.remove(0), Some((1000, addr)), "straggler survives growth");
    }

    #[test]
    #[should_panic(expected = "inserted twice")]
    fn slab_rejects_duplicate_ids() {
        let addr: SocketAddr = "127.0.0.1:9".parse().unwrap();
        let mut slab = InFlightSlab::with_capacity(8);
        slab.insert(3, 1, addr);
        slab.insert(3, 2, addr);
    }

    fn spin_server(workers: usize) -> TinyQuanta {
        let clock = TscClock::calibrated();
        TinyQuanta::start_with_clock(
            ServerConfig {
                workers,
                quantum: Nanos::from_micros(10),
                ..ServerConfig::default()
            },
            clock.clone(),
            move |req| Box::new(SpinJob::with_clock(req, &clock)),
        )
    }

    #[test]
    fn udp_round_trip_against_live_server() {
        let server = spin_server(1);
        let srv_sock = UdpSocket::bind("127.0.0.1:0").expect("bind server");
        let srv_addr = srv_sock.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::spawn(move || serve_udp(server, srv_sock, stop2));

        let client = UdpSocket::bind("127.0.0.1:0").expect("bind client");
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let n = 32u64;
        for tag in 0..n {
            let req = encode_request((tag % 2) as u16, Nanos::from_micros(5), tag);
            client.send_to(&req, srv_addr).unwrap();
        }
        let mut seen = std::collections::HashSet::new();
        let mut buf = [0u8; 64];
        while seen.len() < n as usize {
            let (len, _) = client.recv_from(&mut buf).expect("response");
            let (tag, sojourn, quanta) = decode_response(&buf[..len]).expect("well-formed");
            assert!(tag < n);
            assert!(sojourn >= Nanos::from_micros(3), "sojourn {sojourn}");
            assert!(quanta >= 1);
            seen.insert(tag);
        }
        stop.store(true, Ordering::Release);
        let stats = handle.join().unwrap().expect("serve ok");
        assert_eq!(stats.received, n);
        assert_eq!(stats.responded, n);
        assert_eq!(stats.malformed, 0);
        assert_eq!(stats.shed, 0);
        let report = stats.audit();
        assert!(report.is_clean(), "net audit: {report}");
    }

    #[test]
    fn auto_transport_round_trip_against_live_server() {
        // On io_uring-capable hosts this exercises the full serve loop
        // over the completion-driven transport; elsewhere it degrades to
        // a second batched-mmsg round trip (the fallback is the point).
        let caps = crate::uring::probe();
        println!("server_transport probe: {}", caps.summary());
        let chosen = server_transport(
            UdpSocket::bind("127.0.0.1:0").expect("bind"),
            &NetConfig::default(),
        )
        .expect("server transport");
        let expected = if caps.available { "uring:multishot" } else { "udp:mmsg" };
        assert_eq!(chosen.label(), expected, "the probe alone decides the wire");
        drop(chosen);
        let server = spin_server(1);
        let srv_sock = UdpSocket::bind("127.0.0.1:0").expect("bind server");
        let srv_addr = srv_sock.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::spawn(move || serve_auto(server, srv_sock, stop2));

        let client = UdpSocket::bind("127.0.0.1:0").expect("bind client");
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let n = 48u64;
        for tag in 0..n {
            let req = encode_request((tag % 2) as u16, Nanos::from_micros(2), tag);
            client.send_to(&req, srv_addr).unwrap();
        }
        let mut seen = std::collections::HashSet::new();
        let mut buf = [0u8; 64];
        while seen.len() < n as usize {
            let (len, _) = match client.recv_from(&mut buf) {
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                r => r.expect("response"),
            };
            let (tag, _, _) = decode_response(&buf[..len]).expect("well-formed");
            seen.insert(tag);
        }
        stop.store(true, Ordering::Release);
        let stats = handle.join().unwrap().expect("serve ok");
        assert_eq!(stats.received, n);
        assert_eq!(stats.responded, n);
        if caps.available {
            assert!(
                stats.transport.rcvbuf_bytes > 0,
                "achieved socket buffer sizes flow through the uring transport"
            );
        }
        let report = stats.audit();
        assert!(report.is_clean(), "net audit: {report}");
    }

    #[test]
    fn malformed_and_oversized_datagrams_are_counted_not_parsed() {
        let server = spin_server(1);
        let srv_sock = UdpSocket::bind("127.0.0.1:0").expect("bind server");
        let srv_addr = srv_sock.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::spawn(move || serve_udp(server, srv_sock, stop2));

        let client = UdpSocket::bind("127.0.0.1:0").expect("bind client");
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        // One valid, one truncated, one oversized (valid prefix + junk).
        client.send_to(&[1, 2, 3], srv_addr).unwrap();
        let mut oversized = [0u8; REQUEST_BYTES + 4];
        oversized[..REQUEST_BYTES]
            .copy_from_slice(&encode_request(0, Nanos::from_micros(1), 99));
        client.send_to(&oversized, srv_addr).unwrap();
        client
            .send_to(&encode_request(0, Nanos::from_micros(1), 7), srv_addr)
            .unwrap();

        let mut buf = [0u8; 64];
        let (len, _) = client.recv_from(&mut buf).expect("response to the valid one");
        let (tag, _, _) = decode_response(&buf[..len]).expect("well-formed");
        assert_eq!(tag, 7, "only the exact-length request is served");
        stop.store(true, Ordering::Release);
        let stats = handle.join().unwrap().expect("serve ok");
        assert_eq!(stats.received, 3);
        assert_eq!(stats.responded, 1);
        assert_eq!(stats.malformed, 2);
        assert!(stats.audit().is_clean());
    }
}
