//! The forced-multitasking job model.
//!
//! A TQ job is a *stackless coroutine*: [`Job::run`] executes real work,
//! polling [`QuantumCtx::probe`] at probe points; when the probe observes
//! quantum expiry the job saves its progress in `self` and returns
//! [`JobStatus::Yielded`]. The scheduler later calls `run` again and the
//! job resumes where it left off.
//!
//! In the paper these probe points are inserted by an LLVM pass over C
//! code; the Rust toolchain offers no equivalent plug-in point, so a job
//! expresses them directly through this API (the placement *policy* — how
//! sparse probes may be — is studied faithfully in `tq-instrument`).
//! The probe semantics are identical: read the physical clock, compare
//! against the quantum deadline, yield cooperatively.
//!
//! Critical sections are supported the way §4 describes: a flag that
//! makes probes report "keep running" until the section exits.
//!
//! A quantum is armed from a reading already taken, as TQ reads the TSC
//! once per switch: the completion stamp that ended the previous slice,
//! or the reading of the probe that found its quantum expired. When a
//! slice ended without one (a voluntary yield, or the worker went idle),
//! the next quantum is armed lazily: it starts at the next slice's first
//! probe, from that probe's own reading, at most one probe interval
//! after the switch.

use crate::clock::TscClock;
use tq_core::Cycles;

/// What a quantum of execution produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// The job saved its state and gave up the core. Either a probe found
    /// the quantum expired, and the next slice (of whichever job runs
    /// next) is armed from that probe's reading; or the job yielded of its
    /// own accord with no probe fired (a voluntary yield), and the next
    /// slice's quantum starts at that slice's first probe.
    Yielded,
    /// The job finished; its slot can be recycled.
    Done,
}

/// A preemptible job.
pub trait Job: Send {
    /// Runs until a probe observes quantum expiry or the job chooses to
    /// give up the core (return [`JobStatus::Yielded`]), or the work
    /// completes (return [`JobStatus::Done`]). Implementations must call
    /// [`QuantumCtx::probe`] frequently enough to honor the quantum —
    /// the equivalent of being compiled with TQ's pass.
    fn run(&mut self, ctx: &mut QuantumCtx) -> JobStatus;
}

/// The deadline of a slice whose quantum has not started: every reading
/// is at or past it, so the slice's first probe takes the cold path,
/// which arms the quantum from that probe's reading.
const UNARMED: Cycles = Cycles(0);

/// Per-quantum execution context handed to jobs: the physical clock, the
/// quantum deadline, and the critical-section flag.
#[derive(Debug)]
pub struct QuantumCtx {
    clock: TscClock,
    deadline: Cycles,
    /// The quantum an [`UNARMED`] slice's first probe arms.
    lazy_quantum: Cycles,
    /// The reading of the last probe that found the quantum expired. The
    /// cold path pins the deadline to it, so it ended the current slice
    /// while the two are equal: any re-arm moves the deadline away, and
    /// so voids it without a store of its own.
    expired_at: Option<Cycles>,
    critical_depth: u32,
    probes: u64,
}

impl QuantumCtx {
    /// Creates a context (one per worker; the deadline is re-armed before
    /// every resume). Until the first arm, every probe reports expiry.
    pub fn new(clock: TscClock) -> Self {
        QuantumCtx {
            clock,
            deadline: UNARMED,
            lazy_quantum: Cycles::ZERO,
            expired_at: None,
            critical_depth: 0,
            probes: 0,
        }
    }

    /// Arms the deadline `quantum_cycles` after a fresh clock reading:
    /// the API for code that drives a job directly (tests, benchmarks).
    /// The worker never reads the clock to arm (module docs).
    pub fn arm(&mut self, quantum_cycles: Cycles) {
        self.arm_from(self.clock.now(), quantum_cycles);
    }

    /// Arms the deadline `quantum_cycles` after `start`, a reading the
    /// caller already holds (the worker's completion stamp, or the
    /// expired probe's reading), instead of reading the clock again.
    #[inline]
    pub fn arm_from(&mut self, start: Cycles, quantum_cycles: Cycles) {
        self.deadline = Cycles(start.0.wrapping_add(quantum_cycles.0));
    }

    /// Arms a quantum of `quantum_cycles` that starts at the slice's first
    /// probe outside a critical section, from that probe's own reading:
    /// a slice that never probes costs no clock read.
    #[inline]
    pub(crate) fn arm_lazily(&mut self, quantum_cycles: Cycles) {
        self.deadline = UNARMED;
        self.lazy_quantum = quantum_cycles;
    }

    /// The reading of the probe that found this slice's quantum expired,
    /// or `None` if the slice ended without one (a voluntary yield).
    #[inline]
    pub(crate) fn take_expiry(&mut self) -> Option<Cycles> {
        self.expired_at.take().filter(|&at| at == self.deadline)
    }

    /// The probe: reads the cycle counter and reports whether the job
    /// should yield. Always `false` inside a critical section.
    #[inline]
    pub fn probe(&mut self) -> bool {
        self.probes += 1;
        if self.critical_depth > 0 {
            return false;
        }
        let now = self.clock.now();
        if (now.0.wrapping_sub(self.deadline.0) as i64) < 0 {
            return false;
        }
        self.due(now)
    }

    /// The probe's cold path, at or past the deadline: an unarmed slice
    /// starts its quantum at `now`; an armed one has expired, and `now`
    /// is kept as the slice's end, for the next quantum to start from.
    #[cold]
    fn due(&mut self, now: Cycles) -> bool {
        if self.deadline == UNARMED {
            self.arm_from(now, self.lazy_quantum);
            if self.lazy_quantum > Cycles::ZERO {
                return false;
            }
        }
        self.deadline = now;
        self.expired_at = Some(now);
        true
    }

    /// Enters a critical section: probes stop requesting yields until the
    /// matching [`QuantumCtx::exit_critical`] (§4). Nestable.
    pub fn enter_critical(&mut self) {
        self.critical_depth += 1;
    }

    /// Leaves a critical section.
    ///
    /// # Panics
    ///
    /// Panics if called without a matching [`QuantumCtx::enter_critical`].
    pub fn exit_critical(&mut self) {
        assert!(self.critical_depth > 0, "unbalanced critical section");
        self.critical_depth -= 1;
    }

    /// The clock, for jobs that time their own work.
    pub fn clock(&self) -> &TscClock {
        &self.clock
    }

    /// Probes executed so far (diagnostics).
    pub fn probes(&self) -> u64 {
        self.probes
    }
}

/// A CPU-bound job that spins for a requested service time, probing at a
/// fine grain — the synthetic-workload job used by the examples, tests,
/// and benches (the stand-in for the paper's spin-server requests).
#[derive(Debug)]
pub struct SpinJob {
    remaining_cycles: u64,
    /// Work between probes, in cycles (~50 ns at 2 GHz: far finer than
    /// any quantum, as TQ's instrumentation guarantees).
    grain_cycles: u64,
}

impl SpinJob {
    /// A job that will consume `service_cycles` of CPU.
    pub fn new(service_cycles: Cycles) -> Self {
        SpinJob {
            remaining_cycles: service_cycles.0,
            grain_cycles: 100,
        }
    }

    /// Builds from a server request whose payload carries the service
    /// time in nanoseconds (see [`crate::server::RtRequest::service`]),
    /// converted by `clock`: the server's, shared by its job factory.
    pub fn with_clock(req: &crate::server::RtRequest, clock: &TscClock) -> Self {
        SpinJob::new(clock.to_cycles(req.service))
    }
}

impl Job for SpinJob {
    fn run(&mut self, ctx: &mut QuantumCtx) -> JobStatus {
        // Grain by grain (no clock read at all for zero service): spin on
        // the cycle counter, then charge every cycle since the last read.
        if self.remaining_cycles == 0 {
            return JobStatus::Done;
        }
        let mut last = ctx.clock().now().0;
        while self.remaining_cycles > 0 {
            let mut now = last;
            while now.wrapping_sub(last) < self.grain_cycles.min(self.remaining_cycles) {
                std::hint::spin_loop();
                now = ctx.clock().now().0;
            }
            self.remaining_cycles = self.remaining_cycles.saturating_sub(now.wrapping_sub(last));
            last = now;
            if self.remaining_cycles > 0 && ctx.probe() {
                return JobStatus::Yielded;
            }
        }
        JobStatus::Done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tq_core::Nanos;

    fn ctx() -> QuantumCtx {
        QuantumCtx::new(TscClock::calibrated())
    }

    #[test]
    fn probe_false_before_deadline_true_after() {
        let mut c = ctx();
        let q = c.clock.to_cycles(Nanos::from_millis(50));
        c.arm(q);
        assert!(!c.probe(), "deadline 50ms away");
        c.arm(Cycles(0));
        // Deadline is "now": the next read must be at or past it.
        assert!(c.probe());
    }

    #[test]
    fn arm_from_sets_the_deadline_a_quantum_after_the_given_start() {
        let mut c = ctx();
        c.arm_from(Cycles(1_000), Cycles(250));
        assert_eq!(c.deadline, Cycles(1_250));
        // Wrapping, as the probe's comparison does.
        c.arm_from(Cycles(u64::MAX), Cycles(2));
        assert_eq!(c.deadline, Cycles(1));
        // A start in the past arms a deadline already due.
        let past = c.clock.now();
        c.arm_from(past, Cycles(0));
        assert!(c.probe());
    }

    #[test]
    fn a_lazily_armed_quantum_starts_at_the_first_probe() {
        let mut c = ctx();
        let q = c.clock.to_cycles(Nanos::from_millis(50));
        c.arm_lazily(q);
        let before = c.clock.now();
        assert!(!c.probe(), "the first probe starts the quantum");
        let after = c.clock.now();
        let start = c.deadline.wrapping_sub(q);
        assert!(
            before <= start && start <= after,
            "armed from {start}, not the probe's reading in [{before}, {after}]"
        );
        assert_eq!(c.take_expiry(), None, "the quantum has not expired");
    }

    #[test]
    fn an_expired_probe_leaves_its_reading_for_the_next_quantum() {
        let mut c = ctx();
        let q = c.clock.to_cycles(Nanos::from_micros(20));
        c.arm_lazily(q);
        assert!(!c.probe());
        let deadline = c.deadline;
        while (c.clock.now().wrapping_sub(deadline).0 as i64) < 0 {
            std::hint::spin_loop();
        }
        assert!(c.probe(), "a probe one quantum later expires");
        let after = c.clock.now();
        let end = c.take_expiry().expect("the expired probe's reading");
        assert!(
            deadline <= end && end <= after,
            "expiry {end} outside [{deadline}, {after}]"
        );
        assert_eq!(c.take_expiry(), None, "a reading is taken once");
    }

    #[test]
    fn arming_voids_a_pending_lazy_arm_and_a_stale_expiry() {
        let mut c = ctx();
        let long = c.clock.to_cycles(Nanos::from_millis(50));
        // A slice ends on an expired probe whose reading nobody takes (a
        // completion); the next slice is armed and yields voluntarily.
        c.arm(Cycles(0));
        assert!(c.probe());
        c.arm(long);
        assert!(!c.probe());
        assert_eq!(c.take_expiry(), None, "arm kept a stale expiry");
        c.arm(Cycles(0));
        assert!(c.probe());
        c.arm_from(c.clock.now(), long);
        assert_eq!(c.take_expiry(), None, "arm_from kept a stale expiry");
        // A pending lazy arm gives way to an explicit one, either way.
        c.arm_lazily(long);
        c.arm(Cycles(0));
        assert!(c.probe(), "arm left the lazy arm pending");
        c.arm_lazily(long);
        c.arm_from(c.clock.now(), Cycles(0));
        assert!(c.probe(), "arm_from left the lazy arm pending");
        c.arm_lazily(Cycles(0));
        c.arm_from(c.clock.now(), long);
        assert!(!c.probe(), "arm_from left the lazy arm pending");
    }

    #[test]
    fn a_lazily_armed_slice_never_yields_inside_a_critical_section() {
        let mut c = ctx();
        c.arm_lazily(Cycles(0));
        c.enter_critical();
        for _ in 0..1_000 {
            assert!(!c.probe(), "critical section must not yield");
        }
        c.exit_critical();
        assert_eq!(c.take_expiry(), None);
        // A zero quantum starts and expires at the first probe outside.
        assert!(c.probe());
    }

    #[test]
    fn critical_section_suppresses_yields() {
        let mut c = ctx();
        c.arm(Cycles(0));
        c.enter_critical();
        assert!(!c.probe(), "critical section must not yield");
        c.enter_critical();
        c.exit_critical();
        assert!(!c.probe(), "still nested");
        c.exit_critical();
        assert!(c.probe(), "yieldable again");
    }

    #[test]
    #[should_panic(expected = "unbalanced critical section")]
    fn unbalanced_exit_panics() {
        ctx().exit_critical();
    }

    #[test]
    fn spin_job_yields_on_small_quantum_and_finishes() {
        let mut c = ctx();
        let service = c.clock.to_cycles(Nanos::from_micros(200));
        let mut job = SpinJob::new(service);
        let quantum = c.clock.to_cycles(Nanos::from_micros(10));
        let mut quanta = 0;
        loop {
            c.arm(quantum);
            match job.run(&mut c) {
                JobStatus::Yielded => quanta += 1,
                JobStatus::Done => break,
            }
            assert!(quanta < 10_000, "job never finishes");
        }
        // 200µs of work at 10µs quanta: needs many quanta (scheduling
        // noise on a busy CI box allows slack, but ≫ 1).
        assert!(quanta >= 5, "only {quanta} quanta for a 20-quantum job");
    }

    #[test]
    fn spin_job_runs_to_completion_with_huge_quantum() {
        let mut c = ctx();
        let mut job = SpinJob::new(c.clock.to_cycles(Nanos::from_micros(50)));
        c.arm(c.clock.to_cycles(Nanos::from_millis(100)));
        assert_eq!(job.run(&mut c), JobStatus::Done);
    }

    /// A 200 µs job run to completion on this thread takes 1.0–1.1× its
    /// service, in one quantum or in forty: each grain must be charged
    /// its clock reads and the probe, not its nominal 100 cycles. The
    /// best of five runs is taken, so one preemption between two quanta
    /// does not count against the job.
    #[test]
    fn spin_job_serves_what_it_is_asked_for() {
        let mut c = ctx();
        let service = c.clock.to_cycles(Nanos::from_micros(200));
        for quantum in [Nanos::from_millis(100), Nanos::from_micros(5)] {
            let q = c.clock.to_cycles(quantum);
            let ratio = (0..5)
                .map(|_| {
                    let mut job = SpinJob::new(service);
                    let start = c.clock.now();
                    c.arm(q);
                    while job.run(&mut c) == JobStatus::Yielded {
                        c.arm(q);
                    }
                    c.clock.now().wrapping_sub(start).0 as f64 / service.0 as f64
                })
                .fold(f64::INFINITY, f64::min);
            assert!(
                (1.0..=1.1).contains(&ratio),
                "200µs at a {quantum} quantum ran {ratio:.3}× its service"
            );
        }
    }
}
