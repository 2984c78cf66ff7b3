//! Completion-driven io_uring transport: the closest a kernel socket
//! gets to the paper's DPDK datapath.
//!
//! The mmsg transport ([`crate::transport::UdpTransport`]) already
//! amortizes syscall cost over 64-frame bursts, but every burst still
//! pays two syscalls (one `recvmmsg`, one `sendmmsg`). io_uring removes
//! the receive syscall entirely: the server keeps one receive armed over
//! a pool of pre-posted buffers, and on loopback the *sender's* syscall
//! context posts completion CQEs straight into the server's completion
//! ring — the serve loop reaps frames from shared memory without
//! entering the kernel at all. Only responses need an `io_uring_enter`,
//! and one `enter` carries the whole response burst plus any receive
//! re-arm staged since the last poll (DESIGN.md "DPDK substitution").
//!
//! One configuration, validated once per process by a live loopback
//! self-test ([`probe`]); a host that fails any step of it serves over
//! the mmsg transport instead ([`crate::net::server_transport`]):
//!
//! * **in** — a registered provided-buffer ring
//!   (`IORING_REGISTER_PBUF_RING`) feeds one *multishot* `RECVMSG` that
//!   keeps producing a CQE per *message* without re-arming — the io_uring
//!   analogue of a DPDK mempool backing an RX queue. The socket asks for
//!   coalesced receives, so a peer's train is one buffer and one CQE,
//!   split on delivery as the mmsg transport splits it
//!   ([`crate::transport`] "Trains");
//! * **out** — one `SENDMSG` per *run* of frames (a train: consecutive
//!   frames of one peer and one length leave as a single `UDP_SEGMENT`
//!   message — [`crate::transport`] "Trains") from a fixed pool of send
//!   slots, a whole burst per `io_uring_enter`;
//! * both on a registered file (`IORING_REGISTER_FILES`), so no op pays
//!   the `fget`/`fput` refcount pair.
//!
//! A provided buffer is laid out as the kernel fills it: the 16-byte
//! `io_uring_recvmsg_out` header, 128 bytes of name and 24 of control
//! space (one `UDP_GRO` cmsg; the multishot template's `msg_namelen` and
//! `msg_controllen` reserve them), then 8 KiB of payload — any train
//! whose segments fit a frame. The pool is mapped, never populated, and
//! its depth counts messages: [`crate::net::server_transport`] posts
//! [`UringConfig::default`]'s 128 (1 MiB) whatever the in-flight bound,
//! since a burst is one. Arrivals that outrun them between two reaps end
//! the arm with `ENOBUFS` and wait in the socket's receive buffer; the
//! reap that recycles the buffers re-arms.
//!
//! A send's payload lives in one flat arena of `send_pool × MAX_FRAME`
//! bytes, handed out front to back (a train's segments must be
//! contiguous, and the arena caps its length) and rewound whenever no
//! send is in flight — which UDP sends, completing inside the `enter`
//! that submits them, almost always satisfy by the next `send_batch`;
//! when arena or slots run out mid-burst it waits for a completion. If
//! the kernel refuses to segment (`-EINVAL`/`-EIO` on a message that
//! carried the control message; without one the errno latches the
//! transport broken, as before), the reap that sees the completion
//! resends the train's frames singly out of the arena and no train is
//! built again; until one train has succeeded `send_batch` reaps its
//! trains' completions before returning, so a refusal is repaired by the
//! call that caused it.
//!
//! That needs a 6.0 kernel, which is why setup asks for everything such
//! a kernel has (`COOP_TASKRUN`, the single ring mapping) without
//! fallbacks of its own: older kernels already have a complete transport
//! in mmsg. The socket is unconnected and every frame carries its peer
//! address, so the same transport serves both roles — the server behind
//! [`crate::net::serve`] and the `tq-loadgen --transport io_uring`
//! client. Its label is `uring:multishot`.
//!
//! Everything is hand-rolled FFI in the repo's house style: raw
//! `syscall(425/426/427)` plus `mmap`, no liburing, no new crates. The
//! SQ/CQ rings are the kernel's shared-memory layout mapped directly
//! (`io_uring_setup(2)`), and struct layouts are declared locally
//! exactly like the `recvmmsg` bindings in [`crate::transport`].

use crate::transport::MAX_BATCH;

/// Pool sizing for [`IoUringTransport`].
#[derive(Debug, Clone, Copy)]
pub struct UringConfig {
    /// Provided buffers kept posted for the multishot receive — the
    /// receive depth in *messages*: a buffer takes a lone datagram or a
    /// whole coalesced train. Clamped to `1..=1024`.
    pub recv_pool: usize,
    /// Send slots that may be in flight at once; `send_batch` reclaims
    /// completed slots when the pool is exhausted. Clamped to `1..=1024`.
    pub send_pool: usize,
}

impl Default for UringConfig {
    fn default() -> Self {
        UringConfig {
            // Twice the burst bound: lone datagrams keep finding a buffer
            // while a burst of them is reaped; a train needs just one.
            recv_pool: 2 * MAX_BATCH,
            send_pool: 2 * MAX_BATCH,
        }
    }
}

/// What the startup capability probe established, cached per process.
#[derive(Debug, Clone)]
pub struct UringCaps {
    /// The shipping configuration passed its live loopback self-test:
    /// ring setup, file and buffer-ring registration, and a datagram
    /// each way. When false, the caller must fall back to the mmsg
    /// transport.
    pub available: bool,
    /// `"ok"` when available, otherwise the step that failed and its
    /// error (errno from `io_uring_setup` under seccomp, a register op
    /// the kernel lacks, a lost datagram) — recorded so a skipped bench
    /// arm is loud, never silently green.
    pub reason: String,
}

impl UringCaps {
    /// One-line summary for bench/CI logs (printed whether or not the
    /// io_uring arm runs, per the gate contract).
    pub fn summary(&self) -> String {
        if self.available {
            "io_uring: available (multishot recvmsg over a provided-buffer ring)".to_string()
        } else {
            format!("io_uring: UNAVAILABLE — {}", self.reason)
        }
    }
}

/// Probes io_uring support once per process (cached) by running one
/// live loopback self-test of the configuration [`IoUringTransport`]
/// ships: it is reported workable only after real datagrams
/// round-tripped through it.
pub fn probe() -> &'static UringCaps {
    static CAPS: std::sync::OnceLock<UringCaps> = std::sync::OnceLock::new();
    CAPS.get_or_init(|| {
        #[cfg(target_os = "linux")]
        {
            imp::compute_caps()
        }
        #[cfg(not(target_os = "linux"))]
        {
            UringCaps {
                available: false,
                reason: "io_uring is Linux-only".to_string(),
            }
        }
    })
}

#[cfg(target_os = "linux")]
pub use imp::IoUringTransport;
#[cfg(not(target_os = "linux"))]
pub use stub::IoUringTransport;

// ---------------------------------------------------------------------------
// Non-Linux stub: same API surface, constructors always fail so callers
// fall back to the mmsg transport exactly as on a seccomp-blocked host.
// ---------------------------------------------------------------------------
#[cfg(not(target_os = "linux"))]
mod stub {
    use super::*;
    use crate::transport::{Frame, Transport, TransportStats};
    use std::io;
    use std::net::{SocketAddr, UdpSocket};

    /// Stub [`Transport`]: io_uring is Linux-only, every constructor
    /// returns [`io::ErrorKind::Unsupported`].
    #[derive(Debug)]
    pub struct IoUringTransport {
        never: std::convert::Infallible,
    }

    impl IoUringTransport {
        /// Always fails off Linux.
        pub fn server(_socket: UdpSocket) -> io::Result<IoUringTransport> {
            Err(io::Error::new(io::ErrorKind::Unsupported, "io_uring is Linux-only"))
        }

        /// Always fails off Linux.
        pub fn server_with(_socket: UdpSocket, _cfg: UringConfig) -> io::Result<IoUringTransport> {
            Self::server(_socket)
        }

        /// Unreachable (no instance can exist).
        pub fn local_addr(&self) -> io::Result<SocketAddr> {
            match self.never {}
        }
    }

    impl Transport for IoUringTransport {
        fn recv_batch(&mut self, _out: &mut [Frame]) -> io::Result<usize> {
            match self.never {}
        }
        fn send_batch(&mut self, _frames: &[Frame]) -> io::Result<()> {
            match self.never {}
        }
        fn max_batch(&self) -> usize {
            match self.never {}
        }
        fn label(&self) -> &'static str {
            match self.never {}
        }
        fn stats(&self) -> TransportStats {
            match self.never {}
        }
    }
}

// ---------------------------------------------------------------------------
// Linux implementation.
// ---------------------------------------------------------------------------
#[cfg(target_os = "linux")]
mod imp {
    use super::{UringCaps, UringConfig};
    use crate::transport::{
        accept_trains, decode_sockaddr, effective_socket_buffers, segment_len, segments,
        sys as tsys, train_len, Frame, Transport, TransportStats, MAX_BATCH, MAX_FRAME,
    };
    use std::collections::VecDeque;
    use std::io;
    use std::mem::ManuallyDrop;
    use std::net::{SocketAddr, UdpSocket};
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
    use std::sync::atomic::{AtomicU16, AtomicU32, Ordering};

    // -----------------------------------------------------------------------
    // Raw ABI: syscall numbers, mmap, ring structs and constants. Declared
    // locally (no libc crate vendored) exactly like transport::sys; layouts
    // match the x86-64/aarch64 kernel uapi.
    // -----------------------------------------------------------------------
    pub(super) mod sys {
        pub const SYS_IO_URING_SETUP: i64 = 425;
        pub const SYS_IO_URING_ENTER: i64 = 426;
        pub const SYS_IO_URING_REGISTER: i64 = 427;

        pub const PROT_READ: i32 = 1;
        pub const PROT_WRITE: i32 = 2;
        pub const MAP_SHARED: i32 = 1;
        pub const MAP_PRIVATE: i32 = 2;
        pub const MAP_ANONYMOUS: i32 = 0x20;
        pub const MAP_POPULATE: i32 = 0x8000;

        pub const IORING_OFF_SQ_RING: i64 = 0;
        pub const IORING_OFF_SQES: i64 = 0x10000000;

        pub const IORING_SETUP_CQSIZE: u32 = 1 << 3;
        /// Run completion task work on kernel transitions instead of
        /// interrupting the task with `TWA_SIGNAL` IPIs (5.19+).
        pub const IORING_SETUP_COOP_TASKRUN: u32 = 1 << 8;
        /// With COOP: raise `IORING_SQ_TASKRUN` in the SQ flags when
        /// completions are stuck behind pending task work, so a
        /// userspace reaper knows one flush enter is needed (5.19+).
        pub const IORING_SETUP_TASKRUN_FLAG: u32 = 1 << 9;
        pub const IORING_FEAT_SINGLE_MMAP: u32 = 1;
        pub const IORING_ENTER_GETEVENTS: u32 = 1;
        pub const IORING_SQ_CQ_OVERFLOW: u32 = 1 << 1;
        pub const IORING_SQ_TASKRUN: u32 = 1 << 2;

        pub const IORING_OP_SENDMSG: u8 = 9;
        pub const IORING_OP_RECVMSG: u8 = 10;
        pub const IORING_OP_ASYNC_CANCEL: u8 = 14;

        pub const IORING_REGISTER_FILES: u32 = 2;
        pub const IORING_REGISTER_PBUF_RING: u32 = 22;

        pub const IOSQE_FIXED_FILE: u8 = 1 << 0;
        pub const IOSQE_BUFFER_SELECT: u8 = 1 << 5;
        pub const IORING_RECV_MULTISHOT: u16 = 1 << 1;
        pub const IORING_CQE_F_BUFFER: u32 = 1;
        pub const IORING_CQE_F_MORE: u32 = 2;
        pub const IORING_CQE_BUFFER_SHIFT: u32 = 16;
        pub const IORING_ASYNC_CANCEL_ALL: u32 = 1;
        pub const IORING_ASYNC_CANCEL_ANY: u32 = 4;

        pub const EINTR: i32 = 4;
        pub const EAGAIN: i32 = 11;
        pub const EBUSY: i32 = 16;
        pub const ENOBUFS: i32 = 105;
        pub const ECONNREFUSED: i32 = 111;
        pub const ECANCELED: i32 = 125;

        /// 64-byte submission queue entry (`struct io_uring_sqe`). The
        /// kernel's unions are flattened to the fields this module uses:
        /// `off`/`addr`/`len`/`op_flags` cover the msg/cancel shapes,
        /// `buf_index` doubles as `buf_group` for buffer select.
        #[repr(C)]
        #[derive(Clone, Copy)]
        pub struct Sqe {
            pub opcode: u8,
            pub flags: u8,
            pub ioprio: u16,
            pub fd: i32,
            pub off: u64,
            pub addr: u64,
            pub len: u32,
            pub op_flags: u32,
            pub user_data: u64,
            pub buf_index: u16,
            pub personality: u16,
            pub splice_fd_in: i32,
            pub addr3: u64,
            pub pad2: u64,
        }

        impl Sqe {
            pub fn zeroed() -> Sqe {
                // SAFETY: Sqe is plain-old-data; all-zero is the kernel's
                // own "unused field" convention for SQEs.
                unsafe { std::mem::zeroed() }
            }
        }

        /// 16-byte completion queue entry (`struct io_uring_cqe`).
        #[repr(C)]
        #[derive(Clone, Copy, Debug)]
        pub struct Cqe {
            pub user_data: u64,
            pub res: i32,
            pub flags: u32,
        }

        #[repr(C)]
        #[derive(Clone, Copy, Default)]
        pub struct SqringOffsets {
            pub head: u32,
            pub tail: u32,
            pub ring_mask: u32,
            pub ring_entries: u32,
            pub flags: u32,
            pub dropped: u32,
            pub array: u32,
            pub resv1: u32,
            pub user_addr: u64,
        }

        #[repr(C)]
        #[derive(Clone, Copy, Default)]
        pub struct CqringOffsets {
            pub head: u32,
            pub tail: u32,
            pub ring_mask: u32,
            pub ring_entries: u32,
            pub overflow: u32,
            pub cqes: u32,
            pub flags: u32,
            pub resv1: u32,
            pub user_addr: u64,
        }

        #[repr(C)]
        #[derive(Clone, Copy, Default)]
        pub struct IoUringParams {
            pub sq_entries: u32,
            pub cq_entries: u32,
            pub flags: u32,
            pub sq_thread_cpu: u32,
            pub sq_thread_idle: u32,
            pub features: u32,
            pub wq_fd: u32,
            pub resv: [u32; 3],
            pub sq_off: SqringOffsets,
            pub cq_off: CqringOffsets,
        }

        /// `struct io_uring_buf_reg` for `IORING_REGISTER_PBUF_RING`.
        #[repr(C)]
        pub struct BufReg {
            pub ring_addr: u64,
            pub ring_entries: u32,
            pub bgid: u16,
            pub flags: u16,
            pub resv: [u64; 3],
        }

        /// One provided-buffer ring descriptor (`struct io_uring_buf`).
        /// The ring header overlays entry 0; its tail is the u16 at byte
        /// offset 14.
        #[repr(C)]
        #[derive(Clone, Copy)]
        pub struct PbufEntry {
            pub addr: u64,
            pub len: u32,
            pub bid: u16,
            pub resv: u16,
        }

        extern "C" {
            pub fn syscall(num: i64, ...) -> i64;
            pub fn mmap(
                addr: *mut u8,
                len: usize,
                prot: i32,
                flags: i32,
                fd: i32,
                offset: i64,
            ) -> *mut u8;
            pub fn munmap(addr: *mut u8, len: usize) -> i32;
        }
    }

    /// Owned `mmap` region, unmapped on drop. Used for the kernel-shared
    /// ring mappings and for anonymous buffer pools.
    struct Mmap {
        ptr: *mut u8,
        len: usize,
    }

    // SAFETY: the mapping is process-global memory; Mmap is only ever
    // accessed through the owning transport (one thread at a time).
    unsafe impl Send for Mmap {}

    impl Mmap {
        fn map(len: usize, flags: i32, fd: RawFd, offset: i64) -> io::Result<Mmap> {
            // SAFETY: plain mmap with arguments validated by the kernel;
            // a MAP_FAILED return is checked before use.
            let ptr = unsafe {
                sys::mmap(
                    std::ptr::null_mut(),
                    len,
                    sys::PROT_READ | sys::PROT_WRITE,
                    flags,
                    fd,
                    offset,
                )
            };
            if ptr as usize == usize::MAX {
                return Err(io::Error::last_os_error());
            }
            Ok(Mmap { ptr, len })
        }

        /// Maps one of the kernel's ring regions of an io_uring fd.
        fn ring(fd: RawFd, len: usize, offset: i64) -> io::Result<Mmap> {
            Mmap::map(len, sys::MAP_SHARED | sys::MAP_POPULATE, fd, offset)
        }

        /// Anonymous zeroed memory (buffer pools, pbuf rings).
        fn anon(len: usize) -> io::Result<Mmap> {
            Mmap::map(len, sys::MAP_PRIVATE | sys::MAP_ANONYMOUS, -1, 0)
        }
    }

    impl Drop for Mmap {
        fn drop(&mut self) {
            // SAFETY: ptr/len are the exact values mmap returned.
            unsafe {
                sys::munmap(self.ptr, self.len);
            }
        }
    }

    /// Names the setup step an error came from, so the probe's `reason`
    /// (and a constructor's error) says which part of the one verdict
    /// failed.
    fn step(what: &str, e: io::Error) -> io::Error {
        io::Error::new(e.kind(), format!("{what}: {e}"))
    }

    /// Loads a kernel-shared ring index with acquire ordering.
    ///
    /// # Safety
    /// `p` must point into a live ring mapping.
    unsafe fn load_acq(p: *const u32) -> u32 {
        (*(p as *const AtomicU32)).load(Ordering::Acquire)
    }

    /// Publishes a ring index with release ordering.
    ///
    /// # Safety
    /// `p` must point into a live ring mapping.
    unsafe fn store_rel(p: *mut u32, v: u32) {
        (*(p as *const AtomicU32)).store(v, Ordering::Release)
    }

    /// One io_uring instance: the fd, the two mmap'd regions, and the
    /// raw head/tail pointers into them. SQEs are staged locally
    /// (`push`) and published+submitted in batches (`submit`), so a
    /// whole response burst plus its receive re-arms ride one
    /// `io_uring_enter`.
    struct Ring {
        fd: OwnedFd,
        _rings: Mmap,
        _sqe_mem: Mmap,
        sq_khead: *const u32,
        sq_ktail: *mut u32,
        sq_kflags: *const u32,
        sq_array: *mut u32,
        sq_mask: u32,
        sq_entries: u32,
        cq_khead: *mut u32,
        cq_ktail: *const u32,
        cqes: *const sys::Cqe,
        cq_mask: u32,
        sqe_base: *mut sys::Sqe,
        /// Next SQE slot to stage (not yet visible to the kernel).
        local_tail: u32,
        /// Tail as of the last successful submit.
        submitted_tail: u32,
        /// `io_uring_enter` syscalls issued over the ring's lifetime.
        enter_calls: u64,
    }

    // SAFETY: all raw pointers target the ring mappings owned by this
    // struct; a Ring is driven by one thread at a time (the transport is
    // `&mut self` throughout).
    unsafe impl Send for Ring {}

    impl Ring {
        /// `io_uring_setup` + the two mmaps. `cq_entries` oversizes the
        /// completion ring (multishot posts many CQEs per armed SQE).
        fn new(sq_entries: u32, cq_entries: u32) -> io::Result<Ring> {
            // Cooperative task running: completions are batched onto the
            // next kernel transition instead of costing a `TWA_SIGNAL`
            // interrupt each, and `IORING_SQ_TASKRUN` tells the reaper
            // when one flush enter is owed. A kernel too old for these
            // flags is too old for multishot `RECVMSG` as well, so the
            // EINVAL is the verdict, not something to retry around.
            let mut params = sys::IoUringParams {
                flags: sys::IORING_SETUP_CQSIZE
                    | sys::IORING_SETUP_COOP_TASKRUN
                    | sys::IORING_SETUP_TASKRUN_FLAG,
                cq_entries: cq_entries.next_power_of_two(),
                ..Default::default()
            };
            // SAFETY: params is a valid zero-initialized io_uring_params;
            // the kernel fills in the offsets on success.
            let rc = unsafe {
                sys::syscall(
                    sys::SYS_IO_URING_SETUP,
                    sq_entries.next_power_of_two() as i64,
                    &mut params as *mut sys::IoUringParams,
                )
            };
            if rc < 0 {
                return Err(step(
                    "io_uring_setup (seccomp filter or kernel < 5.19?)",
                    io::Error::last_os_error(),
                ));
            }
            // SAFETY: rc is a fresh fd we own exclusively.
            let fd = unsafe { OwnedFd::from_raw_fd(rc as i32) };
            let raw = fd.as_raw_fd();
            if params.features & sys::IORING_FEAT_SINGLE_MMAP == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::Unsupported,
                    "io_uring_setup: kernel lacks IORING_FEAT_SINGLE_MMAP",
                ));
            }

            // One mapping covers both rings (`IORING_FEAT_SINGLE_MMAP`).
            let sq_size = params.sq_off.array as usize + params.sq_entries as usize * 4;
            let cq_size =
                params.cq_off.cqes as usize + params.cq_entries as usize * std::mem::size_of::<sys::Cqe>();
            let rings = Mmap::ring(raw, sq_size.max(cq_size), sys::IORING_OFF_SQ_RING)
                .map_err(|e| step("mmap of the SQ/CQ rings", e))?;
            let sqe_mem = Mmap::ring(
                raw,
                params.sq_entries as usize * std::mem::size_of::<sys::Sqe>(),
                sys::IORING_OFF_SQES,
            )
            .map_err(|e| step("mmap of the SQE array", e))?;

            let base = rings.ptr;
            // SAFETY: every offset below comes from the kernel's params
            // for these freshly created mappings.
            unsafe {
                Ok(Ring {
                    sq_khead: base.add(params.sq_off.head as usize) as *const u32,
                    sq_ktail: base.add(params.sq_off.tail as usize) as *mut u32,
                    sq_kflags: base.add(params.sq_off.flags as usize) as *const u32,
                    sq_array: base.add(params.sq_off.array as usize) as *mut u32,
                    sq_mask: *(base.add(params.sq_off.ring_mask as usize) as *const u32),
                    sq_entries: params.sq_entries,
                    cq_khead: base.add(params.cq_off.head as usize) as *mut u32,
                    cq_ktail: base.add(params.cq_off.tail as usize) as *const u32,
                    cqes: base.add(params.cq_off.cqes as usize) as *const sys::Cqe,
                    cq_mask: *(base.add(params.cq_off.ring_mask as usize) as *const u32),
                    sqe_base: sqe_mem.ptr as *mut sys::Sqe,
                    local_tail: load_acq(base.add(params.sq_off.tail as usize) as *const u32),
                    submitted_tail: load_acq(base.add(params.sq_off.tail as usize) as *const u32),
                    fd,
                    _rings: rings,
                    _sqe_mem: sqe_mem,
                    enter_calls: 0,
                })
            }
        }

        /// Stages one SQE locally. Returns false when the SQ is full (the
        /// caller submits and retries — after a submit the kernel has
        /// consumed every staged SQE, so a retry always succeeds).
        fn push(&mut self, sqe: sys::Sqe) -> bool {
            // SAFETY: ring pointers are valid for the ring's lifetime.
            let head = unsafe { load_acq(self.sq_khead) };
            if self.local_tail.wrapping_sub(head) >= self.sq_entries {
                return false;
            }
            let idx = self.local_tail & self.sq_mask;
            // SAFETY: idx < sq_entries bounds both arrays.
            unsafe {
                *self.sqe_base.add(idx as usize) = sqe;
                *self.sq_array.add(idx as usize) = idx;
            }
            self.local_tail = self.local_tail.wrapping_add(1);
            true
        }

        /// SQEs staged but not yet handed to the kernel.
        fn staged(&self) -> u32 {
            self.local_tail.wrapping_sub(self.submitted_tail)
        }

        /// Publishes staged SQEs and calls `io_uring_enter` until all are
        /// consumed; waits for `wait` completions when nonzero. A no-op
        /// when nothing is staged and no wait is requested.
        ///
        /// Every enter carries `GETEVENTS` even with `wait == 0`: at
        /// `min_complete = 0` it returns immediately but still runs the
        /// ring's pending task work, so the submit syscall doubles as
        /// the completion flush and the next [`Self::reap_into`] stays
        /// on the shared-memory fast path.
        fn submit(&mut self, wait: u32) -> io::Result<()> {
            let mut to_submit = self.staged();
            if to_submit == 0 && wait == 0 {
                return Ok(());
            }
            // SAFETY: publishing our staged tail; the slots below it were
            // fully written by push().
            unsafe { store_rel(self.sq_ktail, self.local_tail) };
            loop {
                let flags = sys::IORING_ENTER_GETEVENTS;
                // SAFETY: plain io_uring_enter on our fd; null sigset.
                let rc = unsafe {
                    sys::syscall(
                        sys::SYS_IO_URING_ENTER,
                        self.fd.as_raw_fd() as i64,
                        to_submit as i64,
                        wait as i64,
                        flags as i64,
                        std::ptr::null::<u8>(),
                        0usize,
                    )
                };
                self.enter_calls += 1;
                if rc >= 0 {
                    self.submitted_tail = self.submitted_tail.wrapping_add(rc as u32);
                    to_submit = self.staged();
                    if to_submit == 0 {
                        return Ok(());
                    }
                    // Partial submit (CQ pressure): keep pushing.
                    continue;
                }
                let err = io::Error::last_os_error();
                match err.raw_os_error() {
                    Some(sys::EINTR) => continue,
                    // CQ backlog: force a completion flush, then retry.
                    Some(sys::EBUSY) | Some(sys::EAGAIN) => {
                        self.enter_getevents()?;
                        std::thread::yield_now();
                        continue;
                    }
                    _ => return Err(err),
                }
            }
        }

        /// `io_uring_enter(0, 0, GETEVENTS)`: returns immediately, but
        /// runs the ring's pending task work and flushes any overflowed
        /// CQEs back into the ring.
        fn enter_getevents(&mut self) -> io::Result<()> {
            loop {
                // SAFETY: as in submit().
                let rc = unsafe {
                    sys::syscall(
                        sys::SYS_IO_URING_ENTER,
                        self.fd.as_raw_fd() as i64,
                        0i64,
                        0i64,
                        sys::IORING_ENTER_GETEVENTS as i64,
                        std::ptr::null::<u8>(),
                        0usize,
                    )
                };
                self.enter_calls += 1;
                if rc >= 0 {
                    return Ok(());
                }
                let err = io::Error::last_os_error();
                match err.raw_os_error() {
                    Some(sys::EINTR) => continue,
                    _ => return Err(err),
                }
            }
        }

        /// Drains every pending CQE into `out` (cleared first). Reaping
        /// is pure shared-memory reads — no syscall — unless the kernel
        /// flagged a CQ overflow or (under `COOP_TASKRUN`) completions
        /// stuck behind pending task work, in which case one flush enter
        /// covers the whole batch.
        fn reap_into(&mut self, out: &mut Vec<sys::Cqe>) -> io::Result<()> {
            out.clear();
            // SAFETY: ring pointers valid for the ring's lifetime.
            unsafe {
                if load_acq(self.sq_kflags)
                    & (sys::IORING_SQ_CQ_OVERFLOW | sys::IORING_SQ_TASKRUN)
                    != 0
                {
                    self.enter_getevents()?;
                }
                let mut head = load_acq(self.cq_khead as *const u32);
                let tail = load_acq(self.cq_ktail);
                while head != tail {
                    out.push(*self.cqes.add((head & self.cq_mask) as usize));
                    head = head.wrapping_add(1);
                }
                store_rel(self.cq_khead, head);
            }
            Ok(())
        }

        /// Registers `fd` as fixed-file index 0 (`IORING_REGISTER_FILES`):
        /// SQEs flagged `IOSQE_FIXED_FILE` then address the socket by
        /// index and skip the per-op `fget`/`fput` refcount pair.
        fn register_files(&self, fd: i32) -> io::Result<()> {
            let fds = [fd];
            self.register(sys::IORING_REGISTER_FILES, fds.as_ptr() as *const u8, 1)
        }

        /// `io_uring_register` wrapper.
        fn register(&self, op: u32, arg: *const u8, nr: u32) -> io::Result<()> {
            // SAFETY: arg/nr validity is each call site's contract with
            // the specific register op.
            let rc = unsafe {
                sys::syscall(
                    sys::SYS_IO_URING_REGISTER,
                    self.fd.as_raw_fd() as i64,
                    op as i64,
                    arg,
                    nr as i64,
                )
            };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }
    }

    /// Buffer group id for the provided-buffer ring (arbitrary tag).
    const BGID: u16 = 0xBEEF_u16 & 0x7FFF;
    /// Header the kernel writes at the front of each provided buffer a
    /// multishot `RECVMSG` consumes (`struct io_uring_recvmsg_out`): four
    /// `u32`s — `namelen`, `controllen`, `payloadlen`, `flags`.
    const PBUF_HDR: usize = 16;
    /// Name space reserved per buffer (`msg_namelen` of the multishot
    /// template); the control space after it is `msg_controllen`.
    const PBUF_NAME: usize = 128;
    /// Offset of the control message inside a provided buffer.
    const PBUF_CONTROL_OFF: usize = PBUF_HDR + PBUF_NAME;
    /// Offset of the payload inside a provided buffer.
    const PBUF_PAYLOAD_OFF: usize = PBUF_CONTROL_OFF + tsys::RECV_CONTROL;
    /// Size of one provided buffer: header, name, control, and room for
    /// any train whose segments fit a frame (longer payloads truncate
    /// exactly like the mmsg transport's iovec).
    const PBUF_SIZE: usize = PBUF_PAYLOAD_OFF + tsys::RECV_PAYLOAD;

    /// A registered provided-buffer ring (`IORING_REGISTER_PBUF_RING`):
    /// the DPDK-mempool analogue feeding the multishot receive. Buffers
    /// are handed back to the kernel by appending their ids at the tail.
    struct BufRing {
        ring: Mmap,
        bufs: Mmap,
        mask: u32,
        tail: u16,
    }

    impl BufRing {
        fn new(ring: &Ring, entries: u32) -> io::Result<BufRing> {
            let entries = entries.next_power_of_two();
            let rm = Mmap::anon(entries as usize * std::mem::size_of::<sys::PbufEntry>())?;
            let bm = Mmap::anon(entries as usize * PBUF_SIZE)?;
            let reg = sys::BufReg {
                ring_addr: rm.ptr as u64,
                ring_entries: entries,
                bgid: BGID,
                flags: 0,
                resv: [0; 3],
            };
            ring.register(
                sys::IORING_REGISTER_PBUF_RING,
                &reg as *const sys::BufReg as *const u8,
                1,
            )?;
            let mut br = BufRing { ring: rm, bufs: bm, mask: entries - 1, tail: 0 };
            for bid in 0..entries as u16 {
                br.recycle(bid);
            }
            Ok(br)
        }

        /// Start address of buffer `bid`.
        fn buf_ptr(&self, bid: u16) -> *const u8 {
            // SAFETY: bid < entries by construction; offset stays in-bounds.
            unsafe { self.bufs.ptr.add(bid as usize * PBUF_SIZE) }
        }

        /// Returns buffer `bid` to the kernel (descriptor write + tail
        /// publish; the tail is the u16 at byte offset 14 of the ring).
        fn recycle(&mut self, bid: u16) {
            let idx = (self.tail as u32 & self.mask) as usize;
            // SAFETY: idx < entries bounds the descriptor array; the tail
            // u16 lives inside the ring mapping at offset 14.
            unsafe {
                *(self.ring.ptr as *mut sys::PbufEntry).add(idx) = sys::PbufEntry {
                    addr: self.buf_ptr(bid) as u64,
                    len: PBUF_SIZE as u32,
                    bid,
                    resv: 0,
                };
                self.tail = self.tail.wrapping_add(1);
                (*(self.ring.ptr.add(14) as *const AtomicU16)).store(self.tail, Ordering::Release);
            }
        }
    }

    // user_data encoding: kind in the high 32 bits, slot index below.
    const KIND_TX: u64 = 2;
    const KIND_MS: u64 = 3;
    const KIND_CANCEL: u64 = 4;

    /// Per-slot scratch for `SENDMSG` ops: sockaddr, iovec, cmsg and
    /// msghdr at stable heap addresses (the Vec is sized once and never
    /// grown — the kernel holds pointers into it while an op is in
    /// flight). The payload bytes are a range of [`KernelMem::arena`].
    #[derive(Clone, Copy)]
    struct MsgSlot {
        meta: tsys::MsgMeta,
        hdr: tsys::MsgHdr,
    }

    /// Everything the kernel holds pointers into while ops are in
    /// flight. Freed only after a successful drain (see `Drop`).
    struct KernelMem {
        send_slots: Vec<MsgSlot>,
        /// Payload bytes of the sends in flight, `send_pool × MAX_FRAME`:
        /// one contiguous range per message, handed out front to back
        /// and rewound whenever no send is in flight.
        arena: Vec<u8>,
        bufring: BufRing,
        /// Template msghdr of the multishot receive: name and control
        /// space only (the kernel reserves `msg_namelen` and
        /// `msg_controllen` bytes per provided buffer for the source
        /// address and the `UDP_GRO` cmsg); no iov, payload comes from
        /// the buffer group.
        ms_hdr: Box<tsys::MsgHdr>,
    }

    /// The io_uring implementation of [`Transport`]: provided-buffer
    /// multishot `RECVMSG` in, `SENDMSG` out, on a registered file (see
    /// the module docs). Construct via [`IoUringTransport::server`] on an
    /// unconnected socket; addresses are decoded per received frame and
    /// taken from each sent one.
    pub struct IoUringTransport {
        ring: Ring,
        socket: UdpSocket,
        recv_pool: usize,
        send_pool: usize,
        mem: ManuallyDrop<KernelMem>,
        free_send: Vec<u32>,
        /// Arena bytes handed out since the last rewind.
        arena_used: usize,
        /// Sends staged or submitted whose CQE has not been reaped.
        sends_in_flight: u32,
        /// [`MAX_BATCH`] until the kernel refuses a train, 1 from then on.
        max_train: usize,
        /// A train has succeeded (until then `send_batch` awaits verdicts).
        train_proven: bool,
        /// Frames of refused trains, waiting to go out again singly.
        resend: Vec<Frame>,
        pending_rx: VecDeque<Frame>,
        /// While `recv_batch` reaps, these describe the caller's output
        /// slice so completed receives land in it directly instead of
        /// bouncing through `pending_rx`; null/0 outside that window.
        out_ptr: *mut Frame,
        out_cap: usize,
        out_len: usize,
        cq_scratch: Vec<sys::Cqe>,
        in_flight: u32,
        tx_since_enter: bool,
        draining: bool,
        broken: Option<io::ErrorKind>,
        stats: TransportStats,
    }

    // SAFETY: every raw pointer the kernel holds targets heap storage
    // owned by `mem` (the slot Vec, the Box'd msghdr template, mmap
    // regions) whose addresses survive moves of the struct itself; the
    // transport is driven through `&mut self` by one thread at a time.
    unsafe impl Send for IoUringTransport {}

    impl std::fmt::Debug for IoUringTransport {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("IoUringTransport")
                .field("label", &self.label())
                .field("recv_pool", &self.recv_pool)
                .field("send_pool", &self.send_pool)
                .field("in_flight", &self.in_flight)
                .field("stats", &self.stats())
                .finish()
        }
    }

    impl IoUringTransport {
        /// Transport on an unconnected socket with default pools. Errors
        /// with [`io::ErrorKind::Unsupported`] where [`super::probe`]
        /// failed.
        pub fn server(socket: UdpSocket) -> io::Result<IoUringTransport> {
            Self::server_with(socket, UringConfig::default())
        }

        /// Transport with explicit pool sizes.
        pub fn server_with(socket: UdpSocket, cfg: UringConfig) -> io::Result<IoUringTransport> {
            let caps = super::probe();
            if !caps.available {
                return Err(io::Error::new(
                    io::ErrorKind::Unsupported,
                    format!("io_uring unavailable: {}", caps.reason),
                ));
            }
            Self::build(socket, cfg)
        }

        /// Sets the transport up without consulting the probe (the probe's
        /// self-test is built on it).
        fn build(socket: UdpSocket, cfg: UringConfig) -> io::Result<IoUringTransport> {
            let recv_pool = cfg.recv_pool.clamp(1, 1024);
            let send_pool = cfg.send_pool.clamp(1, 1024);
            // SQ holds one slot per possible in-flight op plus cancel
            // slack; CQ is oversized so bursts don't overflow.
            let sq = ((recv_pool + send_pool + 8) as u32).next_power_of_two().min(4096);
            let cq = (sq * 4).min(16384);
            let ring = Ring::new(sq, cq)?;
            let mut stats = TransportStats::default();
            if let Ok((rcv, snd)) = effective_socket_buffers(&socket) {
                stats.rcvbuf_bytes = rcv as u64;
                stats.sndbuf_bytes = snd as u64;
            }
            accept_trains(&socket);
            ring.register_files(socket.as_raw_fd())
                .map_err(|e| step("IORING_REGISTER_FILES", e))?;
            let bufring = BufRing::new(&ring, recv_pool as u32)
                .map_err(|e| step("IORING_REGISTER_PBUF_RING (kernel < 5.19?)", e))?;
            let mut ms_hdr = Box::new(tsys::MsgHdr::zeroed());
            ms_hdr.msg_namelen = PBUF_NAME as u32;
            ms_hdr.msg_controllen = tsys::RECV_CONTROL;
            let mut t = IoUringTransport {
                ring,
                socket,
                recv_pool,
                send_pool,
                mem: ManuallyDrop::new(KernelMem {
                    send_slots: vec![
                        MsgSlot { meta: tsys::MsgMeta::zeroed(), hdr: tsys::MsgHdr::zeroed() };
                        send_pool
                    ],
                    arena: vec![0u8; send_pool * MAX_FRAME],
                    bufring,
                    ms_hdr,
                }),
                free_send: (0..send_pool as u32).rev().collect(),
                arena_used: 0,
                sends_in_flight: 0,
                max_train: MAX_BATCH,
                train_proven: false,
                resend: Vec::new(),
                pending_rx: VecDeque::with_capacity(recv_pool),
                out_ptr: std::ptr::null_mut(),
                out_cap: 0,
                out_len: 0,
                cq_scratch: Vec::with_capacity(cq as usize),
                in_flight: 0,
                tx_since_enter: false,
                draining: false,
                broken: None,
                stats,
            };
            t.arm_multishot()?;
            t.ring.submit(0).map_err(|e| step("arming the multishot RECVMSG", e))?;
            Ok(t)
        }

        /// The local address of the underlying socket.
        pub fn local_addr(&self) -> io::Result<SocketAddr> {
            self.socket.local_addr()
        }

        /// Borrows the underlying socket (e.g. to tune buffer sizes).
        pub fn socket(&self) -> &UdpSocket {
            &self.socket
        }

        /// Stages one SQE, flushing first if the SQ is full; tracks the
        /// in-flight count the drop-path drain relies on.
        fn stage(&mut self, sqe: sys::Sqe) -> io::Result<()> {
            if !self.ring.push(sqe) {
                self.flush(0)?;
                if !self.ring.push(sqe) {
                    return Err(io::Error::other("io_uring SQ full after submit"));
                }
            }
            self.in_flight += 1;
            Ok(())
        }

        /// Publishes staged SQEs with one `io_uring_enter` (waiting for
        /// `wait` completions when nonzero) and maintains the
        /// send-syscall counter.
        fn flush(&mut self, wait: u32) -> io::Result<()> {
            let carried_tx = self.tx_since_enter && self.ring.staged() > 0;
            if self.ring.staged() == 0 && wait == 0 {
                return Ok(());
            }
            self.ring.submit(wait)?;
            if carried_tx {
                self.stats.send_calls += 1;
                self.tx_since_enter = false;
            }
            Ok(())
        }

        /// An SQE for `opcode` on the socket, addressed as registered
        /// file index 0.
        fn socket_sqe(opcode: u8) -> sys::Sqe {
            let mut sqe = sys::Sqe::zeroed();
            sqe.opcode = opcode;
            sqe.fd = 0;
            sqe.flags = sys::IOSQE_FIXED_FILE;
            sqe
        }

        /// Arms (or re-arms) the multishot receive.
        fn arm_multishot(&mut self) -> io::Result<()> {
            let mut sqe = Self::socket_sqe(sys::IORING_OP_RECVMSG);
            sqe.addr = &*self.mem.ms_hdr as *const tsys::MsgHdr as u64;
            // len stays 0: the provided buffer dictates capacity (a
            // nonzero len would clamp the buffer-select length below the
            // recvmsg_out header and fail).
            sqe.ioprio = sys::IORING_RECV_MULTISHOT;
            sqe.flags |= sys::IOSQE_BUFFER_SELECT;
            sqe.buf_index = BGID; // buf_group in this SQE shape
            sqe.user_data = KIND_MS << 32;
            self.stage(sqe)
        }

        /// Lands a decoded frame: straight into the output slice
        /// `recv_batch` registered when one is live and has room,
        /// spilling into `pending_rx` otherwise (reaps triggered from
        /// the send path, or a burst larger than the caller's slice).
        fn deliver(&mut self, f: Frame) {
            if self.out_len < self.out_cap {
                // SAFETY: out_ptr/out_cap describe the `&mut [Frame]`
                // recv_batch holds exclusively for the duration of
                // this reap; out_len < out_cap keeps us in bounds.
                unsafe { *self.out_ptr.add(self.out_len) = f };
                self.out_len += 1;
            } else {
                self.pending_rx.push_back(f);
            }
        }

        /// Reaps every pending CQE and processes it (frames delivered,
        /// send slots freed, receive re-arms staged).
        fn reap_and_process(&mut self) -> io::Result<()> {
            let mut cqes = std::mem::take(&mut self.cq_scratch);
            self.ring.reap_into(&mut cqes)?;
            let mut result = Ok(());
            for cqe in &cqes {
                if let Err(e) = self.handle_cqe(*cqe) {
                    result = Err(e);
                    break;
                }
            }
            self.cq_scratch = cqes;
            result?;
            // A refused train delivered nothing: its frames go out again,
            // singly now that `max_train` is 1.
            if !self.resend.is_empty() {
                for f in &std::mem::take(&mut self.resend) {
                    self.stage_send(std::slice::from_ref(f))?;
                }
                self.flush(0)?;
            }
            Ok(())
        }

        fn handle_cqe(&mut self, cqe: sys::Cqe) -> io::Result<()> {
            let kind = cqe.user_data >> 32;
            let idx = (cqe.user_data & 0xffff_ffff) as usize;
            match kind {
                KIND_MS => {
                    if cqe.res >= 0 {
                        if cqe.flags & sys::IORING_CQE_F_BUFFER != 0 {
                            let bid = (cqe.flags >> sys::IORING_CQE_BUFFER_SHIFT) as u16;
                            self.stats.recv_msgs += 1;
                            self.deliver_pbuf(bid, cqe.res as usize);
                            self.mem.bufring.recycle(bid);
                        }
                        if cqe.flags & sys::IORING_CQE_F_MORE == 0 {
                            // Terminal CQE: the arm is gone, restore it.
                            self.in_flight -= 1;
                            if !self.draining {
                                self.arm_multishot()?;
                            }
                        }
                    } else {
                        self.in_flight -= 1;
                        match -cqe.res {
                            sys::ECANCELED => {}
                            // Buffer-ring exhaustion or transient error:
                            // buffers were recycled above, re-arm.
                            sys::ENOBUFS | sys::EINTR | sys::EAGAIN | sys::ECONNREFUSED => {
                                if !self.draining {
                                    self.arm_multishot()?;
                                }
                            }
                            _ => {
                                self.broken =
                                    Some(io::Error::from_raw_os_error(-cqe.res).kind());
                            }
                        }
                    }
                    Ok(())
                }
                KIND_TX => {
                    self.in_flight -= 1;
                    self.sends_in_flight -= 1;
                    self.free_send.push(idx as u32);
                    let slot = &self.mem.send_slots[idx];
                    let train = slot.hdr.msg_controllen != 0;
                    if cqe.res >= 0 {
                        self.train_proven |= train;
                    } else {
                        match -cqe.res {
                            // Matches the mmsg transport: a refused UDP
                            // send still counts as sent.
                            sys::ECONNREFUSED | sys::ECANCELED | sys::EINTR => {}
                            // The kernel refused to segment and sent
                            // nothing of the train: no more trains, and
                            // this one's frames are read back out of the
                            // arena bytes the slot owned until now.
                            tsys::EINVAL | tsys::EIO if train => {
                                self.max_train = 1;
                                let to = decode_sockaddr(&slot.meta.addr, slot.hdr.msg_namelen)
                                    .expect("stage_send encoded it");
                                let at = slot.meta.iov.iov_base as usize - self.mem.arena.as_ptr() as usize;
                                let bytes = &self.mem.arena[at..at + slot.meta.iov.iov_len];
                                let seg = slot.meta.cmsg.gso_size as usize;
                                self.resend.extend(bytes.chunks(seg).map(|p| Frame::new(p, to)));
                            }
                            _ => {
                                self.broken =
                                    Some(io::Error::from_raw_os_error(-cqe.res).kind());
                            }
                        }
                    }
                    Ok(())
                }
                _ => {
                    // KIND_CANCEL (or unknown): just balance the ledger.
                    self.in_flight -= 1;
                    Ok(())
                }
            }
        }

        /// Delivers every datagram of a multishot completion out of
        /// provided buffer `bid`: recvmsg_out header, source address,
        /// control message, then the payload — one datagram, or a train
        /// the control message says where to cut.
        fn deliver_pbuf(&mut self, bid: u16, total: usize) {
            if !(PBUF_PAYLOAD_OFF..=PBUF_SIZE).contains(&total) {
                return;
            }
            // SAFETY: the kernel wrote `total <= PBUF_SIZE` bytes into
            // buffer `bid` of the pool mapping (alive as long as `self.mem`)
            // and the CQE makes it ours alone until the caller's recycle().
            let buf = unsafe { std::slice::from_raw_parts(self.mem.bufring.buf_ptr(bid), total) };
            let word = |at: usize| u32::from_ne_bytes(buf[at..at + 4].try_into().expect("4 bytes"));
            let (namelen, controllen, payloadlen) = (word(0), word(4) as usize, word(8) as usize);
            let mut name = tsys::SockAddrStorage::zeroed();
            name.bytes.copy_from_slice(&buf[PBUF_HDR..PBUF_CONTROL_OFF]);
            let Some(addr) = decode_sockaddr(&name, namelen) else { return };
            let control = &buf[PBUF_CONTROL_OFF..PBUF_PAYLOAD_OFF];
            let control = &control[..control.len().min(controllen)];
            // What landed in the buffer or the message's size, if shorter.
            let payload = &buf[PBUF_PAYLOAD_OFF..];
            let payload = &payload[..payload.len().min(payloadlen)];
            for chunk in segments(payload, segment_len(control, payload.len())) {
                self.deliver(Frame::new(chunk, addr));
            }
        }

        /// Stages one outbound message carrying `run` (one peer, one
        /// length, no larger than the arena), reclaiming a send slot and
        /// arena room (waiting on completions) if either is exhausted.
        fn stage_send(&mut self, run: &[Frame]) -> io::Result<()> {
            let len = run[0].len as usize;
            let bytes = run.len() * len;
            let slot_idx = loop {
                if self.sends_in_flight == 0 {
                    self.arena_used = 0;
                }
                if self.arena_used + bytes <= self.mem.arena.len() {
                    if let Some(i) = self.free_send.pop() {
                        break i as usize;
                    }
                }
                // Exhausted, so sends are in flight (with none the arena
                // is rewound and the pool full): put staged work on the
                // wire, wait for one completion, reclaim.
                self.flush(1)?;
                self.reap_and_process()?;
                if let Some(k) = self.broken {
                    return Err(io::Error::from(k));
                }
            };
            let mem = &mut *self.mem;
            let payload = &mut mem.arena[self.arena_used..self.arena_used + bytes];
            for (chunk, f) in payload.chunks_exact_mut(len.max(1)).zip(run) {
                chunk.copy_from_slice(f.payload());
            }
            let slot = &mut mem.send_slots[slot_idx];
            slot.hdr = slot.meta.send_hdr(&run[0].addr, payload, run[0].len);
            let mut sqe = Self::socket_sqe(sys::IORING_OP_SENDMSG);
            sqe.addr = &slot.hdr as *const tsys::MsgHdr as u64;
            sqe.len = 1;
            sqe.user_data = (KIND_TX << 32) | slot_idx as u64;
            self.stage(sqe)?;
            self.arena_used += bytes;
            self.sends_in_flight += 1;
            self.tx_since_enter = true;
            self.stats.send_msgs += 1;
            Ok(())
        }

        /// Cancels everything in flight and drains the CQ with a bounded
        /// deadline. On success `in_flight == 0` and all slot memory is
        /// safe to free.
        fn cancel_and_drain(&mut self) -> io::Result<()> {
            if self.in_flight == 0 {
                return Ok(());
            }
            let mut sqe = sys::Sqe::zeroed();
            sqe.opcode = sys::IORING_OP_ASYNC_CANCEL;
            sqe.fd = -1;
            sqe.op_flags = sys::IORING_ASYNC_CANCEL_ALL | sys::IORING_ASYNC_CANCEL_ANY;
            sqe.user_data = KIND_CANCEL << 32;
            self.stage(sqe)?;
            self.ring.submit(0)?;
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(1);
            while self.in_flight > 0 {
                self.reap_and_process()?;
                if self.in_flight == 0 {
                    break;
                }
                if std::time::Instant::now() > deadline {
                    return Err(io::ErrorKind::TimedOut.into());
                }
                // Entering the kernel runs the ring's task work, which
                // is what retires the cancelled ops.
                self.ring.enter_getevents()?;
                std::thread::yield_now();
            }
            Ok(())
        }
    }

    impl Transport for IoUringTransport {
        fn recv_batch(&mut self, out: &mut [Frame]) -> io::Result<usize> {
            if out.is_empty() {
                return Ok(0);
            }
            if let Some(k) = self.broken {
                return Err(io::Error::from(k));
            }
            // Spillover from earlier reaps drains first (FIFO order),
            // then the reap writes fresh completions into the remainder
            // of `out` directly via deliver().
            let spill = out.len().min(self.pending_rx.len());
            for slot in out.iter_mut().take(spill) {
                *slot = self.pending_rx.pop_front().expect("bounded by queue len");
            }
            self.out_ptr = out.as_mut_ptr();
            self.out_cap = out.len();
            self.out_len = spill;
            let reaped = self.reap_and_process();
            let n = self.out_len;
            self.out_ptr = std::ptr::null_mut();
            self.out_cap = 0;
            self.out_len = 0;
            reaped?;
            if let Some(k) = self.broken {
                return Err(io::Error::from(k));
            }
            if n == 0 {
                // Idle poll: flush a staged re-arm so the receive stays
                // armed even when no send traffic carries it.
                self.flush(0)?;
            } else {
                self.stats.recv_calls += 1;
                self.stats.recv_frames += n as u64;
            }
            Ok(n)
        }

        fn send_batch(&mut self, frames: &[Frame]) -> io::Result<()> {
            if frames.is_empty() {
                return Ok(());
            }
            if let Some(k) = self.broken {
                return Err(io::Error::from(k));
            }
            // Reclaim completed send slots (and pick up any received
            // frames) before staging the burst.
            self.reap_and_process()?;
            // One message per run, none larger than the arena.
            let (mut rest, mut tried) = (frames, false);
            while !rest.is_empty() {
                let room = self.mem.arena.len() / (rest[0].len as usize).max(1);
                let n = train_len(rest, self.max_train.min(room));
                self.stage_send(&rest[..n])?;
                self.stats.send_frames += n as u64;
                tried |= n > 1;
                rest = &rest[n..];
            }
            // One enter for the whole burst — response SQEs plus any
            // receive re-arm staged since the last poll.
            self.flush(0)?;
            // Until the kernel has taken one train, see this burst's
            // verdicts before returning (module docs); sends complete in
            // the enter above, so the first reap normally ends it.
            while tried && !self.train_proven {
                self.reap_and_process()?;
                if self.train_proven || self.sends_in_flight == 0 {
                    break;
                }
                self.flush(1)?;
            }
            Ok(())
        }

        fn max_batch(&self) -> usize {
            MAX_BATCH
        }

        fn label(&self) -> &'static str {
            "uring:multishot"
        }

        fn stats(&self) -> TransportStats {
            let mut s = self.stats;
            s.enter_calls = self.ring.enter_calls;
            s
        }
    }

    impl Drop for IoUringTransport {
        fn drop(&mut self) {
            self.draining = true;
            if self.cancel_and_drain().is_ok() && self.in_flight == 0 {
                // SAFETY: dropped exactly once, here, and never touched
                // again; with nothing in flight the kernel no longer
                // reads or writes any of it.
                unsafe { ManuallyDrop::drop(&mut self.mem) };
            }
            // Otherwise the kernel may still write these buffers while
            // the ring tears down; leaking them is the only safe exit.
        }
    }

    /// Builds the process-wide [`UringCaps`] from the one self-test.
    pub(super) fn compute_caps() -> UringCaps {
        match self_test() {
            Ok(()) => UringCaps { available: true, reason: "ok".to_string() },
            Err(e) => UringCaps { available: false, reason: format!("self-test failed at {e}") },
        }
    }

    /// Sets the shipping configuration up on a loopback socket and
    /// round-trips two datagrams into it and one response back out.
    fn self_test() -> io::Result<()> {
        let srv_sock = UdpSocket::bind("127.0.0.1:0")?;
        let srv_addr = srv_sock.local_addr()?;
        let mut t = IoUringTransport::build(srv_sock, UringConfig { recv_pool: 8, send_pool: 8 })?;
        let client = UdpSocket::bind("127.0.0.1:0")?;
        let client_addr = client.local_addr()?;
        client.send_to(b"probe-a", srv_addr)?;
        client.send_to(b"probe-b", srv_addr)?;
        let mut receive = || -> io::Result<()> {
            let mut out = vec![Frame::empty(); 8];
            let mut got = 0usize;
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
            while got < 2 {
                let n = t.recv_batch(&mut out)?;
                for f in out.iter().take(n) {
                    if f.addr != client_addr {
                        return Err(io::Error::other(format!(
                            "source address decoded as {} instead of {client_addr}",
                            f.addr
                        )));
                    }
                    if !f.payload().starts_with(b"probe-") {
                        return Err(io::Error::other("payload corrupted in transit"));
                    }
                }
                got += n;
                if n == 0 {
                    if std::time::Instant::now() > deadline {
                        return Err(io::ErrorKind::TimedOut.into());
                    }
                    std::thread::yield_now();
                }
            }
            Ok(())
        };
        receive().map_err(|e| step("multishot RECVMSG receive", e))?;
        // Exercise the tx path too.
        let mut reply = || -> io::Result<()> {
            t.send_batch(&[Frame::new(b"pong", client_addr)])?;
            client.set_read_timeout(Some(std::time::Duration::from_secs(2)))?;
            let mut buf = [0u8; 16];
            let (n, _) = client.recv_from(&mut buf)?;
            if &buf[..n] != b"pong" {
                return Err(io::Error::other("response payload corrupted"));
            }
            Ok(())
        };
        reply().map_err(|e| step("SENDMSG reply", e))
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use crate::transport::{Frame, Transport, MAX_FRAME};
    use std::net::UdpSocket;
    use std::time::{Duration, Instant};

    /// Every test prints the probe verdict so a skipped environment is
    /// loud in `cargo test -- --nocapture` and CI logs.
    fn caps_or_skip() -> Option<&'static UringCaps> {
        let caps = probe();
        eprintln!("{}", caps.summary());
        caps.available.then_some(caps)
    }

    /// Polls `recv_batch` with a `slice`-frame output until `n` frames
    /// arrived, keeping arrival order.
    fn recv_in_slices(t: &mut IoUringTransport, n: usize, slice: usize) -> Vec<Frame> {
        let mut out = vec![Frame::empty(); slice];
        let mut got = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        while got.len() < n {
            let k = t.recv_batch(&mut out).expect("recv");
            got.extend_from_slice(&out[..k]);
            if k == 0 {
                assert!(Instant::now() < deadline, "timed out at {}", got.len());
                std::thread::yield_now();
            }
        }
        got
    }

    fn recv_all(t: &mut IoUringTransport, n: usize) -> Vec<Frame> {
        recv_in_slices(t, n, MAX_BATCH)
    }

    fn tags(frames: &[Frame]) -> Vec<u64> {
        frames.iter().map(|f| u64::from_le_bytes(f.payload().try_into().unwrap())).collect()
    }

    fn transport_with(cfg: UringConfig) -> IoUringTransport {
        let s = UdpSocket::bind("127.0.0.1:0").expect("bind");
        IoUringTransport::server_with(s, cfg).expect("transport")
    }

    fn server() -> IoUringTransport {
        transport_with(UringConfig::default())
    }

    #[test]
    fn probe_is_cached_and_reports() {
        let a = probe();
        let b = probe();
        assert!(std::ptr::eq(a, b), "probe result must be cached");
        eprintln!("{}", a.summary());
        assert!(!a.reason.is_empty());
    }

    #[test]
    fn multishot_server_round_trip() {
        let Some(_) = caps_or_skip() else { return };
        let mut t = server();
        assert_eq!(t.label(), "uring:multishot");
        let dst = t.local_addr().unwrap();
        let client = UdpSocket::bind("127.0.0.1:0").unwrap();
        // More datagrams than posted buffers before the first reap: the
        // arm runs out (ENOBUFS) with the rest still queued on the
        // socket, and must be restored once buffers are recycled.
        let n = UringConfig::default().recv_pool + 72;
        for i in 0..n {
            client.send_to(&(i as u64).to_le_bytes(), dst).unwrap();
        }
        let mut seen = tags(&recv_all(&mut t, n));
        // The restored arm keeps receiving after the backlog is gone.
        client.send_to(&(n as u64).to_le_bytes(), dst).unwrap();
        seen.extend(tags(&recv_all(&mut t, 1)));
        seen.sort_unstable();
        assert_eq!(seen, (0..=n as u64).collect::<Vec<_>>(), "each datagram exactly once");
        let mut out = vec![Frame::empty(); MAX_BATCH];
        assert_eq!(t.recv_batch(&mut out).expect("not broken"), 0, "nothing delivered twice");
        let s = t.stats();
        assert_eq!(s.recv_frames, n as u64 + 1);
        assert!(
            s.recv_calls <= s.recv_frames,
            "reap passes can't outnumber frames delivered"
        );
    }

    #[test]
    fn server_round_trip_and_reply() {
        let Some(_) = caps_or_skip() else { return };
        let mut t = server();
        let dst = t.local_addr().unwrap();
        let client = UdpSocket::bind("127.0.0.1:0").unwrap();
        let client_addr = client.local_addr().unwrap();
        for i in 0..100u64 {
            client.send_to(&i.to_le_bytes(), dst).unwrap();
        }
        let got = recv_all(&mut t, 100);
        assert!(got.iter().all(|f| f.addr == client_addr));
        // Reply path: one burst, one enter.
        let replies: Vec<Frame> =
            (0..10u64).map(|i| Frame::new(&i.to_le_bytes(), client_addr)).collect();
        let enters_before = t.stats().enter_calls;
        t.send_batch(&replies).expect("send burst");
        let s = t.stats();
        assert_eq!(s.send_frames, 10);
        assert_eq!(
            s.enter_calls - enters_before,
            1,
            "a response burst must coalesce into one io_uring_enter"
        );
        client.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let mut buf = [0u8; MAX_FRAME];
        for _ in 0..10 {
            client.recv_from(&mut buf).expect("reply arrives");
        }
    }

    #[test]
    fn receives_cost_no_syscall_once_armed() {
        let Some(_) = caps_or_skip() else { return };
        let mut t = server();
        let dst = t.local_addr().unwrap();
        let client = UdpSocket::bind("127.0.0.1:0").unwrap();
        // Poll the (already armed) transport once so any startup flushes
        // are behind us.
        let mut out = vec![Frame::empty(); MAX_BATCH];
        let _ = t.recv_batch(&mut out).unwrap();
        let enters_before = t.stats().enter_calls;
        for i in 0..8u64 {
            client.send_to(&i.to_le_bytes(), dst).unwrap();
        }
        let got = recv_all(&mut t, 8);
        assert_eq!(got.len(), 8);
        // The loopback sender posted our CQEs; reaping them is pure
        // shared-memory reads, and the multishot arm needs no re-arm, so
        // at most the trailing empty polls entered.
        let enters_after = t.stats().enter_calls;
        assert!(
            enters_after - enters_before <= got.len() as u64,
            "receive path entered the kernel {} times for 8 frames",
            enters_after - enters_before,
        );
    }

    #[test]
    fn client_and_server_roles_round_trip() {
        // Two transports talking to each other as `tq-loadgen --transport
        // io_uring` runs them: both on unconnected sockets, the client's
        // frames addressed to the server, the server's replies addressed
        // to whatever source each request decoded to.
        let Some(_) = caps_or_skip() else { return };
        let mut srv = server();
        let mut cli = server();
        let srv_addr = srv.local_addr().unwrap();
        let cli_addr = cli.local_addr().unwrap();
        let requests: Vec<Frame> =
            (0..50u64).map(|i| Frame::new(&i.to_le_bytes(), srv_addr)).collect();
        cli.send_batch(&requests).unwrap();
        let got = recv_all(&mut srv, 50);
        assert!(got.iter().all(|f| f.addr == cli_addr), "client address decoded");
        let replies: Vec<Frame> = got.iter().map(|f| Frame::new(f.payload(), f.addr)).collect();
        srv.send_batch(&replies).unwrap();
        let echoed = recv_all(&mut cli, 50);
        assert!(echoed.iter().all(|f| f.addr == srv_addr), "server address decoded");
        let mut seen = tags(&echoed);
        seen.sort_unstable();
        assert_eq!(seen, (0..50u64).collect::<Vec<_>>());
        for s in [srv.stats(), cli.stats()] {
            assert_eq!((s.recv_frames, s.send_frames), (50, 50));
        }
    }

    #[test]
    fn send_bursts_larger_than_the_pool_reclaim_slots() {
        let Some(_) = caps_or_skip() else { return };
        let dst_sock = UdpSocket::bind("127.0.0.1:0").unwrap();
        let dst = dst_sock.local_addr().unwrap();
        dst_sock.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        // A 256-byte arena: 8-byte frames ride trains of 32 (the arena,
        // not MAX_BATCH, is the cap), full-size ones trains of 4, and
        // every burst after the first finds the arena used up with
        // nothing in flight — it must rewind, not wait.
        let mut t = transport_with(UringConfig { recv_pool: 4, send_pool: 4 });
        let n = 64usize; // 16x the send pool
        for len in [8usize, MAX_FRAME, 8] {
            let frames: Vec<Frame> = (0..n).map(|i| Frame::new(&vec![i as u8; len], dst)).collect();
            t.send_batch(&frames).expect("send with slot and arena reclaim");
            let mut buf = [0u8; MAX_FRAME];
            for f in &frames {
                let (got, _) = dst_sock.recv_from(&mut buf).expect("frame delivered");
                assert_eq!(&buf[..got], f.payload(), "length {len}, in send order");
            }
        }
        assert_eq!(t.stats().send_frames, 3 * n as u64);
        assert_eq!(t.stats().send_msgs, 2 + 16 + 2, "trains sized by the arena");
    }

    #[test]
    fn a_failed_send_surfaces_on_the_next_call() {
        let Some(_) = caps_or_skip() else { return };
        let mut t = server();
        // UDP refuses destination port 0 with EINVAL. The SQE stages and
        // submits fine; the refusal comes back as a completion.
        let unsendable = Frame::new(b"x", "127.0.0.1:0".parse().unwrap());
        t.send_batch(&[unsendable]).expect("the error arrives as a completion");
        let mut out = vec![Frame::empty(); MAX_BATCH];
        let deadline = Instant::now() + Duration::from_secs(5);
        let err = loop {
            match t.recv_batch(&mut out) {
                Err(e) => break e,
                Ok(_) => assert!(Instant::now() < deadline, "send error never surfaced"),
            }
        };
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        let again = t.send_batch(&[unsendable]).expect_err("the transport stays broken");
        assert_eq!(again.kind(), err.kind());
    }

    #[test]
    fn bursts_larger_than_the_output_slice_spill_in_send_order() {
        let Some(_) = caps_or_skip() else { return };
        let mut t = server();
        let dst = t.local_addr().unwrap();
        let client = UdpSocket::bind("127.0.0.1:0").unwrap();
        let n = 40u64;
        for i in 0..n {
            client.send_to(&i.to_le_bytes(), dst).unwrap();
        }
        // The first reap takes every completion off the CQ; all but
        // three of the frames wait in the spill queue for later calls.
        let got = recv_in_slices(&mut t, n as usize, 3);
        assert_eq!(tags(&got), (0..n).collect::<Vec<_>>(), "send order, none lost");
        assert_eq!(t.stats().recv_frames, n);
    }

    #[test]
    fn oversized_datagrams_truncate_to_max_frame() {
        let Some(_) = caps_or_skip() else { return };
        let mut t = server();
        let dst = t.local_addr().unwrap();
        let client = UdpSocket::bind("127.0.0.1:0").unwrap();
        let big = [0xA5u8; 2 * MAX_FRAME];
        client.send_to(&big, dst).unwrap();
        let got = recv_all(&mut t, 1);
        assert_eq!(got[0].len as usize, MAX_FRAME);
        assert!(got[0].payload().iter().all(|&b| b == 0xA5));
    }

    #[test]
    fn empty_batches_are_noops() {
        let Some(_) = caps_or_skip() else { return };
        let mut t = server();
        assert_eq!(t.recv_batch(&mut []).unwrap(), 0);
        t.send_batch(&[]).unwrap();
        let s = t.stats();
        assert_eq!(
            (s.recv_calls, s.recv_frames, s.send_calls, s.send_frames),
            (0, 0, 0, 0),
            "no frames moved, no calls counted"
        );
        let mut out = vec![Frame::empty(); 4];
        assert_eq!(t.recv_batch(&mut out).unwrap(), 0, "idle poll returns 0");
    }

    #[test]
    fn achieved_buffer_sizes_land_in_stats() {
        let Some(_) = caps_or_skip() else { return };
        let s = UdpSocket::bind("127.0.0.1:0").unwrap();
        crate::transport::set_socket_buffers(&s, 1 << 20).unwrap();
        let t = IoUringTransport::server(s).unwrap();
        assert!(t.stats().rcvbuf_bytes > 0);
        assert!(t.stats().sndbuf_bytes > 0);
    }

    #[test]
    fn drop_with_inflight_receives_does_not_hang() {
        let Some(_) = caps_or_skip() else { return };
        // A freshly armed transport has its receive in flight and no
        // traffic; drop must cancel + drain within its deadline.
        let start = Instant::now();
        drop(server());
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "shutdown drain took {:?}",
            start.elapsed()
        );
    }
}
