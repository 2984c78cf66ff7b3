//! What is recorded about the host with every result, and the process
//! CPU clock.

use crate::json::Json;
use tq_runtime::{uring, TscClock};

/// User plus system CPU time this process has used, all threads, in
/// nanoseconds.
pub fn cpu_time_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux target, the only ones this benchmark
    // builds for) and the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The CPUs this thread may run on (the first 64 at most).
fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is 128 writable bytes, the size passed; pid 0 is the
    // calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..64).filter(|c| mask[0] & (1 << c) != 0).collect()
}

/// Restricts the calling thread, and every thread it spawns from now on,
/// to `cpus`. Returns whether the kernel accepted it.
fn run_on(cpus: &[usize]) -> bool {
    let mut mask = [0u64; 16];
    for &c in cpus.iter().filter(|&&c| c < 64) {
        mask[0] |= 1 << c;
    }
    // SAFETY: `mask` is 128 readable bytes, the size passed; pid 0 is the
    // calling thread.
    mask[0] != 0
        && unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) } == 0
}

/// Where the threads of a pass run: the first CPU the process is allowed
/// belongs to the generator of an open loop, every other CPU to the
/// server's threads and to a closed loop's client, which is part of the
/// cycle it measures. A closed loop leaves the first CPU idle.
///
/// With fewer cores than busy-polling threads, where the scheduler puts
/// them decides the result: on the two-core host the benchmark was sized
/// on, free placement moved the same binary's closed-loop p99 threefold
/// between runs, and an open-loop generator sharing the server's core
/// starved it whenever it fell behind.
pub struct Placement {
    all: Vec<usize>,
    split: bool,
}

impl Placement {
    /// Moves the calling thread, and the threads it spawns from now on,
    /// to the server's CPUs. With one CPU allowed, or if the kernel
    /// refuses, nothing is pinned.
    pub fn server_side() -> Placement {
        let all = allowed_cpus();
        let split = all.len() >= 2 && run_on(&all[1..]);
        Placement { all, split }
    }

    /// Moves the calling thread to the generator's CPU.
    pub fn to_generator(&self) {
        if self.split {
            run_on(&self.all[..1]);
        }
    }

    /// Moves the calling thread back to the server's CPUs.
    pub fn to_server(&self) {
        if self.split {
            run_on(&self.all[1..]);
        }
    }

    pub fn describe(&self) -> String {
        if self.split {
            format!(
                "server threads and closed-loop clients on CPUs {:?}, open-loop generator on CPU {}",
                &self.all[1..],
                self.all[0]
            )
        } else {
            "threads are placed by the scheduler (one CPU allowed, or pinning refused)".into()
        }
    }
}

impl Drop for Placement {
    fn drop(&mut self) {
        if self.split {
            run_on(&self.all);
        }
    }
}

/// Cores available to the process, as seen on the first call: call it
/// before any [`Placement`] narrows the calling thread's CPUs.
pub fn host_cores() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// The host block of a result: core count, which clock the runtime reads,
/// the io_uring probe's verdict, and that traffic never leaves loopback.
pub fn describe(clock: &TscClock) -> Json {
    let caps = uring::probe();
    Json::obj([
        ("host_cores", Json::Num(host_cores() as f64)),
        ("clock_uses_tsc", Json::Bool(clock.uses_tsc())),
        ("clock_ghz", Json::Num(clock.freq().hz() / 1e9)),
        ("uring_probe", Json::str(caps.summary())),
        (
            "network",
            Json::str("host loopback interface, no link crossed"),
        ),
        (
            "generator",
            Json::str("one thread in the benchmark process, one client socket"),
        ),
    ])
}
