//! Batched datagram transport: the socket analogue of the batched
//! dispatch pipeline.
//!
//! The paper's clients "transmit requests … over UDP" (§5.1) into a DPDK
//! NIC that hands the dispatcher *bursts* of frames. A kernel socket has
//! no burst API per syscall — unless you use Linux's `recvmmsg`/
//! `sendmmsg`, which move up to [`MAX_BATCH`] datagrams per syscall. The
//! [`Transport`] trait abstracts exactly that: a nonblocking
//! batch-in/batch-out frame interface, so the serving loop
//! (`crate::net::serve`) amortizes syscall cost over a burst the same
//! way the dispatcher amortizes its snapshot and ring publishes
//! (DESIGN.md "Batched dispatch pipeline").
//!
//! Two implementations:
//!
//! * [`UdpTransport::batched`] — `recvmmsg`/`sendmmsg` on Linux (bound
//!   via a local `extern "C"` declaration: the build environment vendors
//!   no `libc` crate, but std already links the platform libc), one
//!   message per run of frames both ways ("Trains" below), falling back
//!   to a `recv_from`/`send_to` drain loop on other targets.
//! * [`UdpTransport::per_datagram`] — one syscall per datagram: the
//!   portable fallback (`recv_from`/`send_to` only), and the arm the
//!   benchmark's micro pass times as
//!   `transport.echo_ns_per_frame.per_datagram` beside `.mmsg` and
//!   `.uring`.
//!
//! Sockets are switched to nonblocking mode by the constructors; *waiting*
//! is the caller's job (the serve loop owns a spin → yield → sleep
//! backoff), which keeps the
//! transport itself allocation- and policy-free.
//!
//! ## Trains
//!
//! `sendmmsg` amortizes the *syscall*; each datagram in it still walks
//! the kernel's UDP send path on its own, and that walk is most of a
//! send (EXPERIMENTS.md "Segmented sends"). So `send_batch` — here and
//! in [`crate::uring`] — sends every maximal run of *consecutive* frames
//! with the same peer and the same non-zero length as **one** message:
//! payloads back to back, one `msghdr`, one `SOL_UDP`/`UDP_SEGMENT`
//! control message carrying the length. The kernel walks its send path
//! once and cuts the datagrams apart at the far end; the peer receives
//! exactly the datagrams it would have, in order — the nearer analogue
//! of a DPDK TX burst. A train is capped at [`MAX_BATCH`] segments (≤
//! `UDP_MAX_SEGMENTS` wherever the option exists) and at the payload
//! buffer; a run of one is the same message minus the control message.
//! Consecutive only: bucketing by peer would reorder frames.
//! [`train_len`] is the whole policy; [`TransportStats::send_msgs`]
//! counts its result.
//!
//! One fallback, decided by the kernel's answer alone: a message that
//! *carried the control message* and fails with `EINVAL`/`EIO`
//! (`udp_send_skb` refusing to segment: `SO_NO_CHECK`, an IPsec route,
//! on older kernels a device without checksum offload) delivered
//! nothing, so the transport sends that run's frames singly and builds
//! no train for the rest of its life. The same errno on a message
//! *without* it (destination port 0, say) is the error it always was.
//!
//! The receive half: a socket that has not asked gets a train cut back
//! into datagrams — an skb, an enqueue and a wake-up each, on loopback
//! inside the *sender's* syscall. Both batched transports ask
//! (`SOL_UDP`/`UDP_GRO`, at construction), so a train arrives as **one**
//! message with a control message carrying the segment length — the
//! nearer analogue of an RX burst. They receive into buffers of their
//! own with room for that control message and the longest train whose
//! segments fit a [`Frame`] (`UDP_MAX_SEGMENTS` = 128 × [`MAX_FRAME`] =
//! 8 KiB: no well-formed request or response is truncated away), and
//! hand out `⌈len / gso_size⌉` frames of `gso_size` bytes, the last as
//! short as the train's tail, each cut to [`MAX_FRAME`] as a lone
//! oversized datagram is. A message *without* the control message is a
//! train of one through the same split (`segment_len`, `segments`) —
//! there is no second path. On mmsg those buffers are also the spill
//! queue: the messages of the last `recvmmsg` stay where the kernel put
//! them and a cursor (message, byte offset) survives across `recv_batch`
//! calls, so no call returns more than `out.len()`, nothing is copied
//! twice or allocated, and the next syscall waits until the cursor has
//! run out. `recv_frames / recv_msgs` ([`TransportStats`]) is what
//! coalescing achieved.
//!
//! [`UdpTransport::per_datagram`] never asks — `recv_from` into one frame
//! would keep only a train's head — so, like any plain socket, it reads
//! the datagrams the kernel cut for it. One
//! fallback, again the kernel's: where the `setsockopt` fails
//! (`ENOPROTOOPT` before 5.0) the error is dropped, no message carries
//! the control message and every receive is a train of one; nothing
//! records which happened.
//!
//! Against `SO_RCVBUF` a coalesced train is charged as the one skb it is
//! (64 × 18 bytes ≈ 2 KB: the default 212 992 bytes hold 107); cut for a
//! plain socket it still costs ≈841 B a segment against a lone
//! datagram's 832 B: 253 against 256. Size buffers before traffic.

use std::io;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, SocketAddrV4, SocketAddrV6, UdpSocket};

/// Most frames a single `recvmmsg`/`sendmmsg` call will move. 64 matches
/// the dispatcher's burst, so one syscall's worth of datagrams flows
/// through the dispatch pipeline as one burst.
pub const MAX_BATCH: usize = 64;

/// Payload capacity of a [`Frame`]. Both wire messages (18-byte request,
/// 24-byte response) fit with room to spare; longer datagrams are
/// truncated by the kernel and rejected as malformed by the exact-length
/// decoders in [`crate::net`].
pub const MAX_FRAME: usize = 64;

/// One datagram: payload bytes plus the peer address (source on receive,
/// destination on send). Fixed-size so batches are flat preallocated
/// arrays with no per-frame allocation.
#[derive(Debug, Clone, Copy)]
pub struct Frame {
    /// Valid payload length (`<= MAX_FRAME`).
    pub len: u16,
    /// Peer address: source of a received frame, destination of a frame
    /// to send.
    pub addr: SocketAddr,
    /// Payload storage; only `buf[..len]` is meaningful.
    pub buf: [u8; MAX_FRAME],
}

impl Frame {
    /// An empty frame with a placeholder address (overwritten on
    /// receive).
    pub fn empty() -> Frame {
        Frame {
            len: 0,
            addr: SocketAddr::V4(SocketAddrV4::new(Ipv4Addr::UNSPECIFIED, 0)),
            buf: [0u8; MAX_FRAME],
        }
    }

    /// A frame carrying `payload` for `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `payload` exceeds [`MAX_FRAME`].
    pub fn new(payload: &[u8], addr: SocketAddr) -> Frame {
        assert!(payload.len() <= MAX_FRAME, "frame payload too large");
        let mut f = Frame::empty();
        f.len = payload.len() as u16;
        f.addr = addr;
        f.buf[..payload.len()].copy_from_slice(payload);
        f
    }

    /// The valid payload bytes.
    pub fn payload(&self) -> &[u8] {
        &self.buf[..self.len as usize]
    }
}

/// Syscall/frame counters a transport accumulates over its lifetime —
/// what lets the benchmark report achieved batch sizes
/// (`transport.frames_per_{recv,send}`), `net_hostile.rs` fail a wire
/// that moved one frame per call, and the audit tie frame counts to
/// request counts.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TransportStats {
    /// Receive syscalls that returned at least one frame. For the
    /// completion-driven io_uring transport this counts *reap passes*
    /// that yielded a frame — receives there cost no syscall at all
    /// (see `enter_calls`).
    pub recv_calls: u64,
    /// Frames received.
    pub recv_frames: u64,
    /// Messages that carried them (`mmsghdr` entries filled, multishot
    /// completions with a buffer, `recv_from` calls), the mirror of
    /// `send_msgs`: `recv_frames / recv_msgs` is the coalescing factor.
    pub recv_msgs: u64,
    /// Send syscalls issued (`io_uring_enter` calls that carried send
    /// SQEs, for the io_uring transport).
    pub send_calls: u64,
    /// Frames sent.
    pub send_frames: u64,
    /// Messages that carried them (`mmsghdr` entries, `SENDMSG` SQEs,
    /// `send_to` calls): `send_frames / send_msgs` is the train length.
    pub send_msgs: u64,
    /// `io_uring_enter` syscalls issued over the transport's lifetime
    /// (0 for the mmsg/per-datagram transports — they have no ring).
    pub enter_calls: u64,
    /// Effective `SO_RCVBUF` as the kernel reports it after any
    /// `rmem_max` clamp (0 = unknown). The kernel clamps silently, so
    /// this is read back at construction rather than assumed.
    pub rcvbuf_bytes: u64,
    /// Effective `SO_SNDBUF` after any `wmem_max` clamp (0 = unknown).
    pub sndbuf_bytes: u64,
}

impl TransportStats {
    /// Mean frames moved per receive syscall (1.0 = no batching won).
    pub fn frames_per_recv_call(&self) -> f64 {
        self.recv_frames as f64 / self.recv_calls.max(1) as f64
    }

    /// Mean frames moved per send syscall.
    pub fn frames_per_send_call(&self) -> f64 {
        self.send_frames as f64 / self.send_calls.max(1) as f64
    }

    /// Mean frames carried per message (1.0 = no train was built).
    pub fn frames_per_msg(&self) -> f64 {
        self.send_frames as f64 / self.send_msgs.max(1) as f64
    }

    /// Mean frames cut out of a received message (1.0 = none coalesced).
    pub fn frames_per_recv_msg(&self) -> f64 {
        self.recv_frames as f64 / self.recv_msgs.max(1) as f64
    }
}

/// A nonblocking batched datagram transport.
pub trait Transport {
    /// Receives up to `out.len()` frames without blocking. Returns how
    /// many frames were filled; `0` means nothing was pending (the
    /// caller owns backoff).
    fn recv_batch(&mut self, out: &mut [Frame]) -> io::Result<usize>;

    /// Sends every frame, in order, retrying transient backpressure
    /// (`WouldBlock`) internally with a yield — UDP send buffers drain to
    /// loopback quickly, so this never spins long. Frames refused by the
    /// peer's stack (e.g. `ECONNREFUSED` bounced off a closed port) are
    /// counted as sent: UDP gives no delivery guarantee either way.
    fn send_batch(&mut self, frames: &[Frame]) -> io::Result<()>;

    /// Most frames a single receive call will return (the burst bound).
    fn max_batch(&self) -> usize;

    /// Human-readable implementation label (lands in result JSON).
    fn label(&self) -> &'static str;

    /// Lifetime syscall/frame counters.
    fn stats(&self) -> TransportStats;
}

// Lets `net::server_transport` hand back a probe-selected transport as
// `Box<dyn Transport + Send>` that still plugs into `serve<T: Transport>`.
impl<T: Transport + ?Sized> Transport for Box<T> {
    fn recv_batch(&mut self, out: &mut [Frame]) -> io::Result<usize> {
        (**self).recv_batch(out)
    }

    fn send_batch(&mut self, frames: &[Frame]) -> io::Result<()> {
        (**self).send_batch(frames)
    }

    fn max_batch(&self) -> usize {
        (**self).max_batch()
    }

    fn label(&self) -> &'static str {
        (**self).label()
    }

    fn stats(&self) -> TransportStats {
        (**self).stats()
    }
}

// ---------------------------------------------------------------------------
// Linux recvmmsg/sendmmsg bindings.
//
// The vendored dependency set has no `libc` crate, so the few pieces of
// ABI this module needs are declared locally. Layouts match the x86-64 /
// aarch64 glibc definitions (pointer-sized `msg_iovlen`/`msg_controllen`,
// 4-byte trailing padding supplied by `repr(C)` field alignment).
// ---------------------------------------------------------------------------
#[cfg(target_os = "linux")]
pub(crate) mod sys {
    use std::net::SocketAddr;
    use std::os::fd::RawFd;

    pub const AF_INET: u16 = 2;
    pub const AF_INET6: u16 = 10;
    pub const MSG_DONTWAIT: i32 = 0x40;
    pub const SOL_SOCKET: i32 = 1;
    pub const SO_SNDBUF: i32 = 7;
    pub const SO_RCVBUF: i32 = 8;
    pub const SOL_UDP: i32 = 17;
    pub const UDP_SEGMENT: i32 = 103;
    pub const UDP_GRO: i32 = 104;
    pub const EIO: i32 = 5;
    pub const EINVAL: i32 = 22;

    /// Payload room of one receive buffer: `UDP_MAX_SEGMENTS` (128; 64 on
    /// older kernels) segments of [`super::MAX_FRAME`] bytes. Longer ones
    /// are malformed already; truncation only shortens garbage.
    pub const RECV_PAYLOAD: usize = 128 * super::MAX_FRAME;
    /// Control room of one receive buffer: `CMSG_SPACE(sizeof(int))`, the
    /// one `SOL_UDP`/`UDP_GRO` message a coalesced receive carries.
    pub const RECV_CONTROL: usize = CMSG_HDR + 8;
    /// `struct cmsghdr`: `cmsg_len` (itself included), level, type.
    pub const CMSG_HDR: usize = std::mem::size_of::<usize>() + 8;

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct IoVec {
        pub iov_base: *mut u8,
        pub iov_len: usize,
    }

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct MsgHdr {
        pub msg_name: *mut u8,
        pub msg_namelen: u32,
        pub msg_iov: *mut IoVec,
        pub msg_iovlen: usize,
        pub msg_control: *mut u8,
        pub msg_controllen: usize,
        pub msg_flags: i32,
    }

    impl MsgHdr {
        pub fn zeroed() -> Self {
            MsgHdr {
                msg_name: std::ptr::null_mut(),
                msg_namelen: 0,
                msg_iov: std::ptr::null_mut(),
                msg_iovlen: 0,
                msg_control: std::ptr::null_mut(),
                msg_controllen: 0,
                msg_flags: 0,
            }
        }
    }

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct MMsgHdr {
        pub msg_hdr: MsgHdr,
        pub msg_len: u32,
    }

    /// Big enough for any `sockaddr_*` the kernel writes (the real
    /// `sockaddr_storage` is 128 bytes, 8-aligned).
    #[repr(C, align(8))]
    #[derive(Clone, Copy)]
    pub struct SockAddrStorage {
        pub bytes: [u8; 128],
    }

    impl SockAddrStorage {
        pub fn zeroed() -> Self {
            SockAddrStorage { bytes: [0u8; 128] }
        }
    }

    /// `SOL_UDP`/`UDP_SEGMENT` control message carrying the segment length:
    /// `struct cmsghdr` + `u16`, padded by the alignment to `CMSG_SPACE(2)`.
    #[repr(C, align(8))]
    #[derive(Clone, Copy)]
    pub struct SegmentCmsg {
        cmsg_len: usize,
        cmsg_level: i32,
        cmsg_type: i32,
        pub gso_size: u16,
    }

    /// What one `msghdr` points at besides its payload: peer address,
    /// iovec and (sends only) the segmentation cmsg.
    #[derive(Clone, Copy)]
    pub struct MsgMeta {
        pub addr: SockAddrStorage,
        pub iov: IoVec,
        pub cmsg: SegmentCmsg,
    }

    impl MsgMeta {
        pub fn zeroed() -> Self {
            MsgMeta {
                addr: SockAddrStorage::zeroed(),
                iov: IoVec { iov_base: std::ptr::null_mut(), iov_len: 0 },
                cmsg: SegmentCmsg {
                    // CMSG_LEN(2): header plus payload, unpadded.
                    cmsg_len: std::mem::offset_of!(SegmentCmsg, gso_size) + 2,
                    cmsg_level: SOL_UDP,
                    cmsg_type: UDP_SEGMENT,
                    gso_size: 0,
                },
            }
        }

        /// The header that sends `payload` to `to`: one datagram, or — when
        /// `payload` is longer than `seg` — a train of `seg`-byte ones (a
        /// zero `msg_controllen` hides the cmsg otherwise). It points into
        /// `self` and `payload`: both stay put until the send has completed.
        pub fn send_hdr(&mut self, to: &SocketAddr, payload: &mut [u8], seg: u16) -> MsgHdr {
            let train = payload.len() > seg as usize;
            let msg_namelen = super::encode_sockaddr(to, &mut self.addr);
            self.iov = IoVec { iov_base: payload.as_mut_ptr(), iov_len: payload.len() };
            self.cmsg.gso_size = seg;
            MsgHdr {
                msg_name: self.addr.bytes.as_mut_ptr(),
                msg_namelen,
                msg_iov: &mut self.iov,
                msg_iovlen: 1,
                msg_control: &mut self.cmsg as *mut SegmentCmsg as *mut u8,
                msg_controllen: if train { std::mem::size_of::<SegmentCmsg>() } else { 0 },
                msg_flags: 0,
            }
        }
    }

    extern "C" {
        pub fn recvmmsg(
            sockfd: RawFd,
            msgvec: *mut MMsgHdr,
            vlen: u32,
            flags: i32,
            timeout: *mut u8, // struct timespec*; always null here
        ) -> i32;
        pub fn sendmmsg(sockfd: RawFd, msgvec: *mut MMsgHdr, vlen: u32, flags: i32) -> i32;
        pub fn setsockopt(
            sockfd: RawFd,
            level: i32,
            optname: i32,
            optval: *const u8,
            optlen: u32,
        ) -> i32;
        pub fn getsockopt(
            sockfd: RawFd,
            level: i32,
            optname: i32,
            optval: *mut u8,
            optlen: *mut u32,
        ) -> i32;
    }
}

/// Requests larger kernel socket buffers (both directions) and returns
/// the sizes the kernel actually granted as `(rcvbuf, sndbuf)`.
///
/// The kernel clamps the request to `rmem_max`/`wmem_max` *silently* —
/// `setsockopt` succeeds even when the effective size is a fraction of
/// what was asked for (and the value `getsockopt` reports is doubled by
/// the kernel to account for bookkeeping overhead). Pre-fix this helper
/// returned `()` and every caller assumed the request took; now the
/// achieved sizes are read back and surfaced so a clamped buffer shows
/// up in [`TransportStats`] and the tq-run/v1 `net` block instead of
/// masquerading as mysterious loopback loss. Off Linux the request is a
/// no-op and `(0, 0)` is returned (unknown).
pub fn set_socket_buffers(socket: &UdpSocket, bytes: usize) -> io::Result<(usize, usize)> {
    #[cfg(target_os = "linux")]
    {
        let val: i32 = bytes.min(i32::MAX as usize) as i32;
        set_int_option(socket, sys::SOL_SOCKET, sys::SO_RCVBUF, val)?;
        set_int_option(socket, sys::SOL_SOCKET, sys::SO_SNDBUF, val)?;
        effective_socket_buffers(socket)
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = (socket, bytes);
        Ok((0, 0))
    }
}

/// `setsockopt` for an option whose value is one `int`.
#[cfg(target_os = "linux")]
fn set_int_option(socket: &UdpSocket, level: i32, name: i32, val: i32) -> io::Result<()> {
    use std::os::fd::AsRawFd;
    let ptr = &val as *const i32 as *const u8;
    // SAFETY: fd is a live socket owned by `socket`; optval points at a
    // 4-byte int, which is what every option passed here takes.
    match unsafe { sys::setsockopt(socket.as_raw_fd(), level, name, ptr, 4) } {
        0 => Ok(()),
        _ => Err(io::Error::last_os_error()),
    }
}

/// Reads back the effective `(SO_RCVBUF, SO_SNDBUF)` sizes. Returns
/// `(0, 0)` off Linux (unknown).
pub fn effective_socket_buffers(socket: &UdpSocket) -> io::Result<(usize, usize)> {
    #[cfg(target_os = "linux")]
    {
        use std::os::fd::AsRawFd;
        let read_back = |optname: i32| -> io::Result<usize> {
            let mut val: i32 = 0;
            let mut len = std::mem::size_of::<i32>() as u32;
            // SAFETY: optval points at a 4-byte int and optlen at its
            // size, as SO_RCVBUF/SO_SNDBUF getsockopt requires.
            let rc = unsafe {
                sys::getsockopt(
                    socket.as_raw_fd(),
                    sys::SOL_SOCKET,
                    optname,
                    &mut val as *mut i32 as *mut u8,
                    &mut len,
                )
            };
            if rc != 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(val.max(0) as usize)
        };
        Ok((read_back(sys::SO_RCVBUF)?, read_back(sys::SO_SNDBUF)?))
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = socket;
        Ok((0, 0))
    }
}

#[cfg(target_os = "linux")]
pub(crate) fn decode_sockaddr(storage: &sys::SockAddrStorage, len: u32) -> Option<SocketAddr> {
    let b = &storage.bytes;
    let family = u16::from_ne_bytes([b[0], b[1]]);
    match family {
        sys::AF_INET if len as usize >= 8 => {
            // sockaddr_in: family u16 | port u16 (BE) | addr u32 (BE).
            let port = u16::from_be_bytes([b[2], b[3]]);
            let ip = Ipv4Addr::new(b[4], b[5], b[6], b[7]);
            Some(SocketAddr::V4(SocketAddrV4::new(ip, port)))
        }
        sys::AF_INET6 if len as usize >= 28 => {
            // sockaddr_in6: family u16 | port u16 (BE) | flowinfo u32 |
            // addr [u8;16] | scope u32.
            let port = u16::from_be_bytes([b[2], b[3]]);
            let flowinfo = u32::from_ne_bytes([b[4], b[5], b[6], b[7]]);
            let mut ip = [0u8; 16];
            ip.copy_from_slice(&b[8..24]);
            let scope = u32::from_ne_bytes([b[24], b[25], b[26], b[27]]);
            Some(SocketAddr::V6(SocketAddrV6::new(
                Ipv6Addr::from(ip),
                port,
                flowinfo,
                scope,
            )))
        }
        _ => None,
    }
}

#[cfg(target_os = "linux")]
pub(crate) fn encode_sockaddr(addr: &SocketAddr, storage: &mut sys::SockAddrStorage) -> u32 {
    let b = &mut storage.bytes;
    match addr {
        SocketAddr::V4(v4) => {
            b[0..2].copy_from_slice(&sys::AF_INET.to_ne_bytes());
            b[2..4].copy_from_slice(&v4.port().to_be_bytes());
            b[4..8].copy_from_slice(&v4.ip().octets());
            b[8..16].fill(0);
            16 // sizeof(sockaddr_in)
        }
        SocketAddr::V6(v6) => {
            b[0..2].copy_from_slice(&sys::AF_INET6.to_ne_bytes());
            b[2..4].copy_from_slice(&v6.port().to_be_bytes());
            b[4..8].copy_from_slice(&v6.flowinfo().to_ne_bytes());
            b[8..24].copy_from_slice(&v6.ip().octets());
            b[24..28].copy_from_slice(&v6.scope_id().to_ne_bytes());
            28 // sizeof(sockaddr_in6)
        }
    }
}

/// How many leading frames of `frames` go down as one message: those
/// that share the first one's peer and non-zero length, at most `cap`
/// (1 from a transport the kernel has refused a train).
#[cfg(target_os = "linux")]
pub(crate) fn train_len(frames: &[Frame], cap: usize) -> usize {
    let (len, addr) = (frames[0].len, frames[0].addr);
    let cap = if len == 0 { 1 } else { cap.max(1) };
    frames.iter().take(cap).take_while(|f| f.len == len && f.addr == addr).count()
}

/// Opts `socket` into coalesced receives (module docs, "Trains"). A
/// kernel without the option refuses, and the refusal is dropped on
/// purpose: every receive is then a train of one.
#[cfg(target_os = "linux")]
pub(crate) fn accept_trains(socket: &UdpSocket) {
    let _ = set_int_option(socket, sys::SOL_UDP, sys::UDP_GRO, 1);
}

/// The segment length of a received message: what the `UDP_GRO` cmsg in
/// `control` (the filled part of the control buffer) says, or — without
/// one — the whole payload, a train of one. A `cmsg_len` shorter than its
/// header or running past `control`, or a length ≤ 0: no split. Never 0.
#[cfg(target_os = "linux")]
pub(crate) fn segment_len(control: &[u8], payload_len: usize) -> usize {
    const WORD: usize = std::mem::size_of::<usize>();
    let int = |b: &[u8]| i32::from_ne_bytes(b.try_into().expect("4 bytes"));
    let mut rest = control;
    while let Some(hdr) = rest.get(..sys::CMSG_HDR) {
        let len = usize::from_ne_bytes(hdr[..WORD].try_into().expect("a word"));
        let Some(data) = rest.get(sys::CMSG_HDR..len) else { break };
        if (int(&hdr[WORD..WORD + 4]), int(&hdr[WORD + 4..])) == (sys::SOL_UDP, sys::UDP_GRO) {
            match data.get(..4).map(int) {
                Some(seg) if seg > 0 => return seg as usize,
                _ => break,
            }
        }
        let Some(next) = rest.get(len.next_multiple_of(WORD)..) else { break };
        rest = next;
    }
    payload_len.max(1)
}

/// The datagrams of a received message of `seg`-byte segments, each cut
/// to [`MAX_FRAME`] exactly as a lone oversized datagram is:
/// `⌈len / seg⌉` of them, the last as short as the train's tail was —
/// and one, empty, for an empty datagram.
#[cfg(target_os = "linux")]
pub(crate) fn segments(payload: &[u8], seg: usize) -> impl Iterator<Item = &[u8]> {
    (0..payload.len().div_ceil(seg).max(1)).map(move |i| {
        let rest = &payload[i * seg..];
        &rest[..rest.len().min(seg).min(MAX_FRAME)]
    })
}

/// What one receive header points at besides its payload buffer: source
/// address, iovec and room for the `UDP_GRO` control message.
#[cfg(target_os = "linux")]
#[derive(Clone, Copy)]
struct RecvMeta {
    addr: sys::SockAddrStorage,
    iov: sys::IoVec,
    control: [u8; sys::RECV_CONTROL],
}

/// The receive half of the mmsg scratch, which is also the spill queue
/// (module docs). The headers are wired to `meta` and `bufs` once; none
/// of it is shared with the send half, so a send between two partial
/// receives disturbs nothing.
#[cfg(target_os = "linux")]
struct MmsgRecv {
    hdrs: Vec<sys::MMsgHdr>,
    meta: Vec<RecvMeta>,
    /// [`sys::RECV_PAYLOAD`] bytes per header (mapped, not populated).
    bufs: Vec<u8>,
    /// Messages the last `recvmmsg` filled.
    filled: usize,
    /// The cursor: next message, and the byte its next frame starts at.
    msg: usize,
    at: usize,
}

#[cfg(target_os = "linux")]
impl MmsgRecv {
    fn new(batch: usize) -> Self {
        let mut rx = MmsgRecv {
            hdrs: vec![sys::MMsgHdr { msg_hdr: sys::MsgHdr::zeroed(), msg_len: 0 }; batch],
            meta: vec![
                RecvMeta {
                    addr: sys::SockAddrStorage::zeroed(),
                    iov: sys::IoVec { iov_base: std::ptr::null_mut(), iov_len: 0 },
                    control: [0u8; sys::RECV_CONTROL],
                };
                batch
            ],
            bufs: vec![0u8; batch * sys::RECV_PAYLOAD],
            filled: 0,
            msg: 0,
            at: 0,
        };
        let bufs = rx.bufs.chunks_exact_mut(sys::RECV_PAYLOAD);
        for ((hdr, meta), buf) in rx.hdrs.iter_mut().zip(&mut rx.meta).zip(bufs) {
            meta.iov = sys::IoVec { iov_base: buf.as_mut_ptr(), iov_len: buf.len() };
            hdr.msg_hdr = sys::MsgHdr {
                msg_name: meta.addr.bytes.as_mut_ptr(),
                msg_namelen: std::mem::size_of::<sys::SockAddrStorage>() as u32,
                msg_iov: &mut meta.iov,
                msg_iovlen: 1,
                msg_control: meta.control.as_mut_ptr(),
                msg_controllen: sys::RECV_CONTROL,
                msg_flags: 0,
            };
        }
        rx
    }

    /// Replaces the (used-up) queue with whatever one `recvmmsg` finds;
    /// false when nothing was pending.
    fn refill(&mut self, socket: &UdpSocket) -> io::Result<bool> {
        use std::os::fd::AsRawFd;
        // The two in/out fields (`msg_flags` is only ever written) of the
        // headers the last call filled; the rest reads as `new` left it.
        for hdr in &mut self.hdrs[..self.filled] {
            hdr.msg_hdr.msg_namelen = std::mem::size_of::<sys::SockAddrStorage>() as u32;
            hdr.msg_hdr.msg_controllen = sys::RECV_CONTROL;
        }
        (self.filled, self.msg, self.at) = (0, 0, 0);
        // SAFETY: every header points at `meta` and `bufs` storage of the
        // lengths it states: heap memory this struct owns and never
        // resizes, so `new`'s wiring holds wherever the struct has moved.
        let rc = unsafe {
            sys::recvmmsg(
                socket.as_raw_fd(),
                self.hdrs.as_mut_ptr(),
                self.hdrs.len() as u32,
                sys::MSG_DONTWAIT,
                std::ptr::null_mut(),
            )
        };
        if rc < 0 {
            let err = io::Error::last_os_error();
            use io::ErrorKind::{ConnectionRefused, Interrupted, WouldBlock};
            return match err.kind() {
                WouldBlock | Interrupted | ConnectionRefused => Ok(false),
                _ => Err(err),
            };
        }
        self.filled = rc as usize;
        Ok(true)
    }
}

/// Preallocated scratch for the mmsg syscalls. Send half: a header and
/// its address/iovec/cmsg per message, plus one flat buffer payloads are
/// packed into (a train must be contiguous), all rebuilt per call.
/// Receive half: [`MmsgRecv`].
#[cfg(target_os = "linux")]
struct MmsgScratch {
    hdrs: Vec<sys::MMsgHdr>,
    meta: Vec<sys::MsgMeta>,
    payloads: Vec<u8>,
    /// Frames carried by each message of the `sendmmsg` being built.
    runs: Vec<usize>,
    /// [`MAX_BATCH`] until the kernel refuses a train, 1 from then on.
    max_train: usize,
    rx: MmsgRecv,
}

#[cfg(target_os = "linux")]
impl MmsgScratch {
    fn new(batch: usize) -> Self {
        let zero_hdr = sys::MMsgHdr { msg_hdr: sys::MsgHdr::zeroed(), msg_len: 0 };
        MmsgScratch {
            hdrs: vec![zero_hdr; batch],
            meta: vec![sys::MsgMeta::zeroed(); batch],
            payloads: vec![0u8; batch * MAX_FRAME],
            runs: vec![0; batch],
            max_train: MAX_BATCH,
            rx: MmsgRecv::new(batch),
        }
    }
}

/// The UDP implementation of [`Transport`]. See the module docs for the
/// two modes.
pub struct UdpTransport {
    socket: UdpSocket,
    batch: usize,
    stats: TransportStats,
    #[cfg(target_os = "linux")]
    scratch: Option<MmsgScratch>,
}

// SAFETY: the raw pointers inside `MmsgScratch` point into heap storage
// the same scratch owns and never resizes (the send half's for one call,
// the receive half's for the transport's life): they follow the
// transport to whichever thread owns it and alias no other's data.
#[cfg(target_os = "linux")]
unsafe impl Send for UdpTransport {}

impl std::fmt::Debug for UdpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UdpTransport")
            .field("label", &self.label())
            .field("batch", &self.batch)
            .field("stats", &self.stats)
            .finish()
    }
}

impl UdpTransport {
    /// The batched transport: `recvmmsg`/`sendmmsg` bursts of up to
    /// [`MAX_BATCH`] frames on Linux, a nonblocking drain loop elsewhere.
    /// The socket is switched to nonblocking mode.
    pub fn batched(socket: UdpSocket) -> io::Result<UdpTransport> {
        Self::with_batch(socket, MAX_BATCH)
    }

    /// One syscall per datagram: the portable fallback, and the arm
    /// the benchmark's micro pass times beside the batched ones
    /// (`transport.echo_ns_per_frame.per_datagram`).
    pub fn per_datagram(socket: UdpSocket) -> io::Result<UdpTransport> {
        Self::with_batch(socket, 1)
    }

    /// A transport moving up to `batch` (clamped to `1..=MAX_BATCH`)
    /// frames per syscall.
    pub fn with_batch(socket: UdpSocket, batch: usize) -> io::Result<UdpTransport> {
        let batch = batch.clamp(1, MAX_BATCH);
        socket.set_nonblocking(true)?;
        let mut stats = TransportStats::default();
        // Record the *achieved* socket buffer sizes (the kernel clamps
        // setsockopt requests silently) so they surface in the stats.
        if let Ok((rcv, snd)) = effective_socket_buffers(&socket) {
            stats.rcvbuf_bytes = rcv as u64;
            stats.sndbuf_bytes = snd as u64;
        }
        // `per_datagram` never asks: `recv_from` would keep a train's head.
        #[cfg(target_os = "linux")]
        if batch > 1 {
            accept_trains(&socket);
        }
        Ok(UdpTransport {
            socket,
            batch,
            stats,
            #[cfg(target_os = "linux")]
            scratch: (batch > 1).then(|| MmsgScratch::new(batch)),
        })
    }

    /// The local address of the underlying socket.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.socket.local_addr()
    }

    /// Borrows the underlying socket (e.g. to tune buffer sizes).
    pub fn socket(&self) -> &UdpSocket {
        &self.socket
    }

    /// Fallback receive: drain with one `recv_from` per frame.
    fn recv_batch_syscall(&mut self, out: &mut [Frame]) -> io::Result<usize> {
        let mut n = 0;
        while n < out.len().min(self.batch) {
            match self.socket.recv_from(&mut out[n].buf) {
                Ok((len, addr)) => {
                    out[n].len = len.min(MAX_FRAME) as u16;
                    out[n].addr = addr;
                    n += 1;
                    self.stats.recv_frames += 1;
                    self.stats.recv_msgs += 1;
                    self.stats.recv_calls += 1;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                // A stray ICMP bounce surfaced on an unconnected socket:
                // not a frame, not fatal.
                Err(e) if e.kind() == io::ErrorKind::ConnectionRefused => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(n)
    }

    /// Fallback send: one `send_to` per frame, yielding through transient
    /// backpressure.
    fn send_batch_syscall(&mut self, frames: &[Frame]) -> io::Result<()> {
        for f in frames {
            loop {
                match self.socket.send_to(f.payload(), f.addr) {
                    Ok(_) => break,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::yield_now();
                    }
                    Err(e) if e.kind() == io::ErrorKind::ConnectionRefused => break,
                    Err(e) => return Err(e),
                }
            }
            self.stats.send_calls += 1;
            self.stats.send_msgs += 1;
            self.stats.send_frames += 1;
        }
        Ok(())
    }

    #[cfg(target_os = "linux")]
    fn recv_batch_mmsg(&mut self, out: &mut [Frame]) -> io::Result<usize> {
        let rx = &mut self.scratch.as_mut().expect("batched mode has scratch").rx;
        let mut n = 0;
        while n < out.len() {
            if rx.msg == rx.filled {
                if !rx.refill(&self.socket)? {
                    break;
                }
                self.stats.recv_calls += 1;
                self.stats.recv_msgs += rx.filled as u64;
            }
            let (hdr, meta) = (&rx.hdrs[rx.msg], &rx.meta[rx.msg]);
            let payload = &rx.bufs[rx.msg * sys::RECV_PAYLOAD..][..hdr.msg_len as usize];
            let seg = segment_len(&meta.control[..hdr.msg_hdr.msg_controllen], payload.len());
            // An unknown address family: the message is skipped whole.
            let Some(addr) = decode_sockaddr(&meta.addr, hdr.msg_hdr.msg_namelen) else {
                rx.msg += 1;
                continue;
            };
            for chunk in segments(&payload[rx.at..], seg).take(out.len() - n) {
                out[n] = Frame::new(chunk, addr);
                n += 1;
                rx.at += seg;
            }
            if rx.at >= payload.len() {
                (rx.msg, rx.at) = (rx.msg + 1, 0);
            }
        }
        self.stats.recv_frames += n as u64;
        Ok(n)
    }

    #[cfg(target_os = "linux")]
    fn send_batch_mmsg(&mut self, frames: &[Frame]) -> io::Result<()> {
        use std::os::fd::AsRawFd;
        let mut sent = 0usize;
        while sent < frames.len() {
            let scratch = self.scratch.as_mut().expect("batched mode has scratch");
            // One message per run (module docs, "Trains") until headers,
            // frames or payload buffer run out; payloads are copied so no
            // header borrows the caller's frames across the retry loop.
            let (mut msgs, mut staged, mut used) = (0usize, sent, 0usize);
            while msgs < self.batch && staged < frames.len() {
                let rest = &frames[staged..];
                let len = rest[0].len as usize;
                let room = (scratch.payloads.len() - used) / len.max(1);
                if room == 0 {
                    break;
                }
                let n = train_len(rest, scratch.max_train.min(room));
                let payload = &mut scratch.payloads[used..used + n * len];
                for (chunk, f) in payload.chunks_exact_mut(len.max(1)).zip(rest) {
                    chunk.copy_from_slice(f.payload());
                }
                scratch.hdrs[msgs] = sys::MMsgHdr {
                    msg_hdr: scratch.meta[msgs].send_hdr(&rest[0].addr, payload, rest[0].len),
                    msg_len: 0,
                };
                scratch.runs[msgs] = n;
                (msgs, staged, used) = (msgs + 1, staged + n, used + n * len);
            }
            // SAFETY: as in recv — headers reference scratch initialized
            // above (cmsgs and payload ranges included) and untouched
            // until the call returns; vlen bounds the initialized prefix.
            let rc = unsafe {
                sys::sendmmsg(
                    self.socket.as_raw_fd(),
                    scratch.hdrs.as_mut_ptr(),
                    msgs as u32,
                    sys::MSG_DONTWAIT,
                )
            };
            if rc < 0 {
                let err = io::Error::last_os_error();
                let refused = matches!(err.raw_os_error(), Some(sys::EINVAL | sys::EIO));
                match err.kind() {
                    io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted => {
                        std::thread::yield_now();
                    }
                    // ICMP bounce from a vanished peer: skip the message.
                    io::ErrorKind::ConnectionRefused => {
                        sent += scratch.runs[0];
                        self.stats.send_frames += scratch.runs[0] as u64;
                    }
                    // The kernel refused to segment and sent nothing of
                    // the train: no more trains; the next pass rebuilds
                    // the run as single datagrams. Without a cmsg the
                    // same errno is a real error.
                    _ if refused && scratch.runs[0] > 1 => scratch.max_train = 1,
                    _ => return Err(err),
                }
                continue;
            }
            let pushed = (rc as usize).min(msgs);
            let moved: usize = scratch.runs[..pushed].iter().sum();
            self.stats.send_calls += 1;
            self.stats.send_msgs += pushed as u64;
            self.stats.send_frames += moved as u64;
            sent += moved;
            if pushed < msgs {
                std::thread::yield_now();
            }
        }
        Ok(())
    }
}

impl Transport for UdpTransport {
    fn recv_batch(&mut self, out: &mut [Frame]) -> io::Result<usize> {
        if out.is_empty() {
            return Ok(0);
        }
        #[cfg(target_os = "linux")]
        if self.scratch.is_some() {
            return self.recv_batch_mmsg(out);
        }
        self.recv_batch_syscall(out)
    }

    fn send_batch(&mut self, frames: &[Frame]) -> io::Result<()> {
        if frames.is_empty() {
            return Ok(());
        }
        #[cfg(target_os = "linux")]
        if self.scratch.is_some() {
            return self.send_batch_mmsg(frames);
        }
        self.send_batch_syscall(frames)
    }

    fn max_batch(&self) -> usize {
        self.batch
    }

    fn label(&self) -> &'static str {
        #[cfg(target_os = "linux")]
        if self.scratch.is_some() {
            return "udp:mmsg";
        }
        "udp:syscall"
    }

    fn stats(&self) -> TransportStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(batch_a: usize, batch_b: usize) -> (UdpTransport, UdpTransport) {
        let a = UdpSocket::bind("127.0.0.1:0").expect("bind a");
        let b = UdpSocket::bind("127.0.0.1:0").expect("bind b");
        (
            UdpTransport::with_batch(a, batch_a).unwrap(),
            UdpTransport::with_batch(b, batch_b).unwrap(),
        )
    }

    fn recv_all(t: &mut UdpTransport, n: usize) -> Vec<Frame> {
        let mut out = vec![Frame::empty(); MAX_BATCH];
        let mut got = Vec::new();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while got.len() < n {
            let k = t.recv_batch(&mut out).expect("recv");
            got.extend_from_slice(&out[..k]);
            if k == 0 {
                assert!(std::time::Instant::now() < deadline, "timed out at {}", got.len());
                std::thread::yield_now();
            }
        }
        got
    }

    #[test]
    fn batched_round_trip_many_frames() {
        let (mut tx, mut rx) = pair(MAX_BATCH, MAX_BATCH);
        let dst = rx.local_addr().unwrap();
        let n = 200usize; // > MAX_BATCH: exercises send chunking
        let frames: Vec<Frame> =
            (0..n).map(|i| Frame::new(&(i as u64).to_le_bytes(), dst)).collect();
        tx.send_batch(&frames).expect("send");
        let got = recv_all(&mut rx, n);
        let seen: Vec<u64> = got
            .iter()
            .map(|f| u64::from_le_bytes(f.payload().try_into().unwrap()))
            .collect();
        assert_eq!(seen, (0..n as u64).collect::<Vec<_>>(), "exactly once, in send order");
        assert_eq!(rx.stats().recv_frames, n as u64);
        assert_eq!(tx.stats().send_frames, n as u64);
        // 200 equal frames to one peer: trains of 64, 64, 64 and 8.
        if tx.label() == "udp:mmsg" {
            assert_eq!(tx.stats().send_msgs, 4);
            assert_eq!(tx.stats().send_calls, 1, "and one sendmmsg carries all four");
        }
        // Batching must actually batch: far fewer syscalls than frames.
        if rx.label() == "udp:mmsg" {
            assert!(
                rx.stats().recv_calls < n as u64 / 2,
                "recvmmsg made {} calls for {} frames",
                rx.stats().recv_calls,
                n
            );
        }
    }

    #[test]
    fn per_datagram_mode_moves_one_frame_per_call() {
        let (mut tx, mut rx) = pair(1, 1);
        let dst = rx.local_addr().unwrap();
        let frames: Vec<Frame> = (0..8u64).map(|i| Frame::new(&i.to_le_bytes(), dst)).collect();
        tx.send_batch(&frames).expect("send");
        let got = recv_all(&mut rx, 8);
        assert_eq!(got.len(), 8);
        assert_eq!(rx.stats().recv_calls, 8, "per-datagram arm must not batch");
        assert_eq!(tx.stats().send_calls, 8);
        assert_eq!(rx.label(), "udp:syscall");
    }

    #[test]
    fn source_addresses_are_reported() {
        let (mut tx, mut rx) = pair(MAX_BATCH, MAX_BATCH);
        let dst = rx.local_addr().unwrap();
        let src = tx.local_addr().unwrap();
        tx.send_batch(&[Frame::new(b"hello", dst)]).expect("send");
        let got = recv_all(&mut rx, 1);
        assert_eq!(got[0].payload(), b"hello");
        assert_eq!(got[0].addr, src, "reply address must be the sender");
    }

    #[test]
    fn replies_reach_the_original_sender() {
        let (mut client, mut server) = pair(MAX_BATCH, MAX_BATCH);
        let srv = server.local_addr().unwrap();
        client.send_batch(&[Frame::new(b"ping", srv)]).expect("send");
        let req = recv_all(&mut server, 1);
        server
            .send_batch(&[Frame::new(b"pong", req[0].addr)])
            .expect("reply");
        let resp = recv_all(&mut client, 1);
        assert_eq!(resp[0].payload(), b"pong");
    }

    #[test]
    fn empty_batches_are_noops() {
        let (mut t, _keep) = pair(MAX_BATCH, MAX_BATCH);
        assert_eq!(t.recv_batch(&mut []).unwrap(), 0);
        t.send_batch(&[]).unwrap();
        let s = t.stats();
        assert_eq!(
            (s.recv_calls, s.recv_frames, s.send_calls, s.send_frames),
            (0, 0, 0, 0),
            "no frames moved, no calls counted"
        );
        // Nothing pending: nonblocking receive returns 0, not an error.
        let mut out = vec![Frame::empty(); 4];
        assert_eq!(t.recv_batch(&mut out).unwrap(), 0);
    }

    #[test]
    fn oversized_datagrams_are_truncated_to_max_frame() {
        let (tx, mut rx) = pair(MAX_BATCH, MAX_BATCH);
        let dst = rx.local_addr().unwrap();
        // Send straight on the socket: Frame::new would (rightly) panic.
        let big = [0xABu8; 2 * MAX_FRAME];
        tx.socket().send_to(&big, dst).expect("send oversized");
        let got = recv_all(&mut rx, 1);
        assert_eq!(got[0].len as usize, MAX_FRAME, "kernel-truncated to capacity");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn sockaddr_round_trips() {
        let mut storage = sys::SockAddrStorage::zeroed();
        let v4: SocketAddr = "192.168.7.9:4711".parse().unwrap();
        let len = encode_sockaddr(&v4, &mut storage);
        assert_eq!(decode_sockaddr(&storage, len), Some(v4));
        let v6: SocketAddr = "[2001:db8::17]:9000".parse().unwrap();
        let len = encode_sockaddr(&v6, &mut storage);
        assert_eq!(decode_sockaddr(&storage, len), Some(v6));
        // Unknown family: rejected, not misparsed.
        storage.bytes[0..2].copy_from_slice(&77u16.to_ne_bytes());
        assert_eq!(decode_sockaddr(&storage, 16), None);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn only_a_well_formed_gro_cmsg_splits_a_message() {
        // One control message as the kernel lays it out: header, data,
        // padding to the next word.
        fn cmsg(len: usize, level: i32, ty: i32, data: &[u8]) -> Vec<u8> {
            let mut b = len.to_ne_bytes().to_vec();
            b.extend(level.to_ne_bytes());
            b.extend(ty.to_ne_bytes());
            b.extend(data);
            b.resize(b.len().next_multiple_of(8), 0);
            b
        }
        let gro = |seg: i32| cmsg(sys::CMSG_HDR + 4, sys::SOL_UDP, sys::UDP_GRO, &seg.to_ne_bytes());
        assert_eq!(gro(18).len(), sys::RECV_CONTROL, "the room a receive reserves");
        assert_eq!(segment_len(&gro(18), 1152), 18);
        assert_eq!(segment_len(&[], 40), 40, "no cmsg: a train of one");
        assert_eq!(segment_len(&[], 0), 1, "never 0, even for an empty datagram");
        assert_eq!(segment_len(&gro(0), 40), 40);
        assert_eq!(segment_len(&gro(-18), 40), 40);
        // Found behind a control message of another kind ...
        let other = cmsg(sys::CMSG_HDR + 4, sys::SOL_SOCKET, 29, &7i32.to_ne_bytes());
        assert_eq!(segment_len(&[other.clone(), gro(24)].concat(), 96), 24);
        assert_eq!(segment_len(&other, 96), 96);
        // ... but not past one whose length is a lie, or in a cut buffer.
        let short = cmsg(sys::CMSG_HDR - 1, sys::SOL_SOCKET, 29, &[0; 4]);
        assert_eq!(segment_len(&[short, gro(24)].concat(), 96), 96);
        let long = cmsg(4096, sys::SOL_UDP, sys::UDP_GRO, &24i32.to_ne_bytes());
        assert_eq!(segment_len(&long, 96), 96);
        for cut in 0..sys::CMSG_HDR + 4 {
            assert_eq!(segment_len(&gro(24)[..cut], 96), 96, "cut at {cut}");
        }
        let no_data = cmsg(sys::CMSG_HDR + 2, sys::SOL_UDP, sys::UDP_GRO, &[24, 0]);
        assert_eq!(segment_len(&no_data, 96), 96);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_message_splits_into_one_slice_per_datagram() {
        let cut = |p: &'static [u8], seg| segments(p, seg).collect::<Vec<_>>();
        assert_eq!(cut(b"aabbcc", 2), [b"aa", b"bb", b"cc"]);
        assert_eq!(cut(b"aabbc", 2), [&b"aa"[..], b"bb", b"c"], "the tail keeps its length");
        assert_eq!(cut(b"abc", 3), [b"abc"]);
        assert_eq!(cut(b"abc", 4096), [b"abc"]);
        assert_eq!(cut(b"", 1), [b""], "an empty datagram is still a datagram");
        let long = [7u8; 5 * MAX_FRAME];
        let got: Vec<&[u8]> = segments(&long, 2 * MAX_FRAME).collect();
        assert_eq!(got.iter().map(|c| c.len()).collect::<Vec<_>>(), [MAX_FRAME; 3]);
    }

    #[test]
    fn socket_buffer_tuning_is_accepted() {
        let s = UdpSocket::bind("127.0.0.1:0").unwrap();
        let (rcv, snd) = set_socket_buffers(&s, 1 << 20).expect("setsockopt");
        #[cfg(target_os = "linux")]
        {
            // The kernel may clamp far below the request, but the
            // achieved sizes must be real (non-zero) and agree with an
            // independent read-back.
            assert!(rcv > 0 && snd > 0, "achieved sizes must be read back");
            assert_eq!(effective_socket_buffers(&s).unwrap(), (rcv, snd));
        }
        #[cfg(not(target_os = "linux"))]
        assert_eq!((rcv, snd), (0, 0));
    }

    #[test]
    fn achieved_buffer_sizes_land_in_transport_stats() {
        let s = UdpSocket::bind("127.0.0.1:0").unwrap();
        set_socket_buffers(&s, 1 << 20).expect("setsockopt");
        let t = UdpTransport::batched(s).unwrap();
        #[cfg(target_os = "linux")]
        {
            assert!(t.stats().rcvbuf_bytes > 0);
            assert!(t.stats().sndbuf_bytes > 0);
        }
        let _ = t;
    }
}
