//! Raw-socket helpers shared by the wire test suites: a sender that
//! builds `UDP_SEGMENT` trains itself, so what a transport is shown to
//! receive does not depend on this crate's own `send_batch`, and the
//! socket options the suites set behind a transport's back.
#![cfg(target_os = "linux")]
#![allow(dead_code)] // each suite uses its own subset

use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::os::fd::AsRawFd;

const SOL_SOCKET: i32 = 1;
const SO_NO_CHECK: i32 = 11;
const SOL_UDP: i32 = 17;
const UDP_SEGMENT: i32 = 103;
const UDP_GRO: i32 = 104;

#[repr(C)]
struct IoVec {
    base: *const u8,
    len: usize,
}

#[repr(C)]
struct MsgHdr {
    name: *const u8,
    namelen: u32,
    iov: *const IoVec,
    iovlen: usize,
    control: *const u8,
    controllen: usize,
    flags: i32,
}

/// `struct cmsghdr` + the `u16` segment length, padded to `CMSG_SPACE(2)`.
#[repr(C, align(8))]
struct SegmentCmsg {
    len: usize,
    level: i32,
    ty: i32,
    seg: u16,
}

extern "C" {
    fn sendmsg(fd: i32, msg: *const MsgHdr, flags: i32) -> isize;
    fn setsockopt(fd: i32, level: i32, name: i32, val: *const i32, len: u32) -> i32;
}

/// Sends `payload` from `sock` to the IPv4 address `to` as one message
/// the kernel cuts every `seg` bytes (a last, shorter segment keeps its
/// length). `EINVAL` is the kernel saying the train has more segments
/// than its `UDP_MAX_SEGMENTS`.
pub fn send_train(sock: &UdpSocket, to: SocketAddr, payload: &[u8], seg: u16) -> io::Result<()> {
    let SocketAddr::V4(to) = to else { panic!("send_train speaks IPv4") };
    // sockaddr_in: family | port (BE) | addr | 8 bytes of padding.
    let mut name = [0u8; 16];
    name[0..2].copy_from_slice(&2u16.to_ne_bytes());
    name[2..4].copy_from_slice(&to.port().to_be_bytes());
    name[4..8].copy_from_slice(&to.ip().octets());
    let iov = IoVec { base: payload.as_ptr(), len: payload.len() };
    let cmsg = SegmentCmsg {
        len: std::mem::offset_of!(SegmentCmsg, seg) + 2, // CMSG_LEN(2)
        level: SOL_UDP,
        ty: UDP_SEGMENT,
        seg,
    };
    let msg = MsgHdr {
        name: name.as_ptr(),
        namelen: name.len() as u32,
        iov: &iov,
        iovlen: 1,
        control: &cmsg as *const SegmentCmsg as *const u8,
        controllen: std::mem::size_of::<SegmentCmsg>(),
        flags: 0,
    };
    // SAFETY: a live fd; the header and everything it points at (name,
    // one iovec over `payload`, one cmsg) outlive the call.
    let rc = unsafe { sendmsg(sock.as_raw_fd(), &msg, 0) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    assert_eq!(rc as usize, payload.len(), "short sendmsg");
    Ok(())
}

/// `SO_NO_CHECK` (no UDP checksum on transmit) is one of the conditions
/// under which `udp_send_skb` refuses a segmented send with `EINVAL`
/// while lone datagrams still go — the real kernel's refusal, no mock.
pub fn refuse_segmentation(sock: &UdpSocket) {
    let on: i32 = 1;
    // SAFETY: a live fd and a 4-byte int, as SO_NO_CHECK requires.
    let rc = unsafe { setsockopt(sock.as_raw_fd(), SOL_SOCKET, SO_NO_CHECK, &on, 4) };
    assert_eq!(rc, 0, "SO_NO_CHECK: {}", io::Error::last_os_error());
}

/// Whether this kernel lets a socket opt into coalesced receives
/// (`UDP_GRO`, 5.0+) — asked of a throwaway socket, printed loudly when
/// not, so a suite knows whether a batched transport sees a train as one
/// message or as its datagrams.
pub fn kernel_coalesces() -> bool {
    let probe = UdpSocket::bind("127.0.0.1:0").expect("bind");
    let on: i32 = 1;
    // SAFETY: a live fd and a 4-byte int, as UDP_GRO requires.
    let ok = unsafe { setsockopt(probe.as_raw_fd(), SOL_UDP, UDP_GRO, &on, 4) } == 0;
    if !ok {
        println!("NOTE kernel refuses UDP_GRO: every receive is a train of one");
    }
    ok
}
