//! The physical clock behind forced multitasking.
//!
//! TQ's probes read the hardware cycle counter (`RDTSC` on x86, §3.1).
//! [`TscClock`] wraps that read and a calibration of cycles per
//! nanosecond, measured once per process; on non-x86 targets it falls
//! back to `Instant`, preserving semantics at a coarser cost. Which clock
//! stamps what:
//! - Quantum deadlines and probes ([`TscClock::now`]) read the bare TSC:
//!   a probe only ever compares against its own worker's deadline.
//! - Request timestamps ([`TscClock::wall_nanos`]) are compared across
//!   threads. They read `LFENCE; RDTSC` only where the kernel's
//!   clocksource is `tsc` (it picks that only after checking the TSCs are
//!   synchronized across CPUs), and `Instant` everywhere else.
//! - A completion ([`TscClock::stamp`]) is one reading of both, which the
//!   worker stamps `finished` with and arms the next quantum from.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;
use tq_core::{CpuFreq, Cycles, Nanos};

/// A calibrated cycle clock.
///
/// # Example
///
/// ```
/// use tq_runtime::TscClock;
///
/// let clock = TscClock::calibrated();
/// let a = clock.now();
/// let b = clock.now();
/// assert!(b >= a, "cycle counter must be monotonic");
/// ```
#[derive(Debug, Clone)]
pub struct TscClock {
    freq: CpuFreq,
    origin: Instant,
    source: Source,
}

/// What `now()` and `wall_nanos()` read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    /// `Instant` for both, as a 1 GHz counter (non-x86, failed calibration).
    Instant,
    /// The TSC for cycles, `Instant` for wall time.
    Tsc,
    /// The TSC for both: wall time is `(tsc - base) × ns_per_cycle`, 32.32.
    TscWall { base: u64, ns_per_cycle: u64 },
}

/// Calibration windows this process has spun: one, after the first
/// [`TscClock::calibrated`].
static WINDOWS: AtomicUsize = AtomicUsize::new(0);

impl TscClock {
    /// Calibrates the cycle counter against the monotonic clock: one
    /// ~10 ms window per process, on first use. Every clock, the first
    /// included, takes its own origin after it, so its wall time starts
    /// near zero; only the frequency and the fallback decision are shared.
    pub fn calibrated() -> Self {
        static CALIBRATION: OnceLock<TscClock> = OnceLock::new();
        Self::from_cache(&CALIBRATION, Self::calibration_window)
    }

    /// The clock `cache` holds, measured by `window` on first use, with a
    /// fresh origin (and TSC base, where wall time is TSC time).
    fn from_cache(cache: &OnceLock<TscClock>, window: impl FnOnce() -> TscClock) -> Self {
        let calibrated = cache.get_or_init(window);
        let mut clock = TscClock {
            origin: Instant::now(),
            ..calibrated.clone()
        };
        #[cfg(target_arch = "x86_64")]
        if let Source::TscWall { base, .. } = &mut clock.source {
            *base = rdtsc::<true>();
        }
        clock
    }

    /// Busy-waits one calibration window and reads the kernel's clocksource.
    fn calibration_window() -> Self {
        WINDOWS.fetch_add(1, Ordering::Relaxed);
        let origin = Instant::now();
        #[cfg(target_arch = "x86_64")]
        {
            const FILE: &str = "/sys/devices/system/clocksource/clocksource0/current_clocksource";
            let base = rdtsc::<true>();
            while origin.elapsed().as_millis() < 10 {
                std::hint::spin_loop();
            }
            let hz = rdtsc::<true>().wrapping_sub(base) as f64 / origin.elapsed().as_secs_f64();
            let source = std::fs::read_to_string(FILE).ok();
            if let Some(clock) = Self::from_calibration(hz, origin, base, source.as_deref()) {
                return clock;
            }
        }
        Self::instant_fallback_at(origin)
    }

    /// Accepts a calibration result if it is sane; `None` sends the
    /// caller to the [`TscClock::instant_fallback`] path. Wall time moves
    /// to the TSC only if `clocksource` (the kernel's, `None` if
    /// unreadable) is `tsc`. Split out so both decisions are testable.
    fn from_calibration(
        hz: f64,
        origin: Instant,
        base: u64,
        clocksource: Option<&str>,
    ) -> Option<Self> {
        let source = match clocksource.map(str::trim) {
            Some("tsc") => Source::TscWall {
                base,
                ns_per_cycle: (1e9 * (1u64 << 32) as f64 / hz) as u64,
            },
            _ => Source::Tsc,
        };
        (hz.is_finite() && hz > 1e8).then(|| TscClock {
            freq: CpuFreq::from_hz(hz),
            origin,
            source,
        })
    }

    /// A clock that never touches the TSC: the monotonic clock is read as
    /// a 1 GHz cycle counter (1 cycle == 1 ns), keeping every conversion
    /// exact by construction. Used when calibration fails and on non-x86
    /// targets; public so tests and non-TSC hosts can opt in directly.
    pub fn instant_fallback() -> Self {
        Self::instant_fallback_at(Instant::now())
    }

    fn instant_fallback_at(origin: Instant) -> Self {
        TscClock {
            freq: CpuFreq::from_ghz(1.0),
            origin,
            source: Source::Instant,
        }
    }

    /// The calibrated frequency.
    pub fn freq(&self) -> CpuFreq {
        self.freq
    }

    /// Whether `now()` reads the hardware TSC (false: monotonic-clock
    /// fallback at 1 GHz).
    pub fn uses_tsc(&self) -> bool {
        self.source != Source::Instant
    }

    /// Reads the cycle counter (the probe's `RDTSC`), or the fallback
    /// nanosecond counter when the TSC is unavailable/uncalibrated —
    /// always in the units `freq()` describes.
    #[inline]
    pub fn now(&self) -> Cycles {
        #[cfg(target_arch = "x86_64")]
        if !matches!(self.source, Source::Instant) {
            return Cycles(rdtsc::<false>());
        }
        Cycles(self.origin.elapsed().as_nanos() as u64)
    }

    /// Converts a cycle delta to nanoseconds.
    #[inline]
    pub fn to_nanos(&self, delta: Cycles) -> Nanos {
        self.freq.cycles_to_nanos(delta)
    }

    /// Converts a duration to cycles (e.g. the quantum).
    #[inline]
    pub fn to_cycles(&self, d: Nanos) -> Cycles {
        self.freq.nanos_to_cycles(d)
    }

    /// Elapsed wall time since the clock was created, for request
    /// timestamps (one clock is shared server-wide): a fenced TSC read
    /// and a multiply where the clocksource is `tsc`, else `Instant`.
    #[inline]
    pub fn wall_nanos(&self) -> Nanos {
        match self.source {
            #[cfg(target_arch = "x86_64")]
            Source::TscWall { base, ns_per_cycle } => {
                tsc_nanos(rdtsc::<true>(), base, ns_per_cycle)
            }
            _ => Nanos(self.origin.elapsed().as_nanos() as u64),
        }
    }

    /// One reading as cycles (to arm a quantum from) and wall time (to
    /// stamp a completion with): one fenced TSC read where wall time is
    /// TSC time, one `Instant` read on the 1 GHz fallback, and `now()`
    /// plus an `Instant` read, two readings, in between.
    #[inline]
    pub fn stamp(&self) -> (Cycles, Nanos) {
        match self.source {
            #[cfg(target_arch = "x86_64")]
            Source::TscWall { base, ns_per_cycle } => {
                let c = rdtsc::<true>();
                (Cycles(c), tsc_nanos(c, base, ns_per_cycle))
            }
            Source::Tsc => (self.now(), self.wall_nanos()),
            _ => {
                let ns = self.wall_nanos();
                (Cycles(ns.0), ns)
            }
        }
    }
}

/// TSC wall time, multiplied in `u128`: a `u64` product overflows after
/// ≈ 4 s of cycles.
#[inline]
fn tsc_nanos(cycles: u64, base: u64, ns_per_cycle: u64) -> Nanos {
    Nanos(((cycles.saturating_sub(base) as u128 * ns_per_cycle as u128) >> 32) as u64)
}

/// `RDTSC`, behind an `LFENCE` when `FENCED`: a fenced read waits for
/// every earlier load, so a stamp taken after an Acquire hand-over is
/// never older than the one the previous holder published.
#[cfg(target_arch = "x86_64")]
#[inline]
fn rdtsc<const FENCED: bool>() -> u64 {
    // SAFETY: LFENCE and RDTSC have no memory effects beyond ordering and
    // are available on all x86-64.
    unsafe {
        if FENCED {
            core::arch::x86_64::_mm_lfence();
        }
        core::arch::x86_64::_rdtsc()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn calibration_is_sane() {
        let clock = TscClock::calibrated();
        let ghz = clock.freq().hz() / 1e9;
        assert!(
            (0.5..=7.0).contains(&ghz),
            "calibrated {ghz} GHz looks wrong"
        );
    }

    #[test]
    fn cycle_deltas_track_wall_time() {
        let clock = TscClock::calibrated();
        let a = clock.now();
        std::thread::sleep(Duration::from_millis(5));
        let b = clock.now();
        let measured = clock.to_nanos(b.wrapping_sub(a)).as_nanos();
        assert!(
            (3_000_000..60_000_000).contains(&measured),
            "5ms sleep measured as {measured}ns"
        );
    }

    /// Regression test for the calibration-failure fallback: a bogus
    /// calibration (NaN / 0 / absurdly low hz) must yield a clock whose
    /// `now()` and `freq()` agree — i.e. the Instant-based counter at
    /// 1 GHz — not raw RDTSC paired with a made-up frequency.
    #[test]
    fn failed_calibration_falls_back_coherently() {
        for bad_hz in [f64::NAN, f64::INFINITY, 0.0, 1e7, -3.0e9] {
            assert!(
                TscClock::from_calibration(bad_hz, Instant::now(), 0, Some("tsc")).is_none(),
                "calibration accepted bogus {bad_hz} hz"
            );
        }
        let clock = TscClock::instant_fallback();
        assert!(!clock.uses_tsc());
        assert!((clock.freq().hz() - 1e9).abs() < 1.0);
        // The decisive check: a measured wall-clock interval converted
        // through the clock's own freq must come out as wall time. With
        // the pre-fix behavior (raw RDTSC at 1 GHz nominal) this is off
        // by the host's real GHz (~3x on typical hardware).
        let a = clock.now();
        std::thread::sleep(Duration::from_millis(5));
        let b = clock.now();
        let measured = clock.to_nanos(b.wrapping_sub(a)).as_nanos();
        assert!(
            (4_000_000..60_000_000).contains(&measured),
            "5ms sleep measured as {measured}ns through the fallback clock"
        );
    }

    #[test]
    fn fallback_quantum_conversion_is_exact() {
        let clock = TscClock::instant_fallback();
        let q = Nanos::from_micros(2);
        // 1 cycle == 1 ns by construction: conversions are identities.
        assert_eq!(clock.to_cycles(q).0, q.as_nanos());
        assert_eq!(clock.to_nanos(clock.to_cycles(q)), q);
    }

    #[test]
    fn quantum_conversion_round_trips() {
        let clock = TscClock::calibrated();
        let q = Nanos::from_micros(2);
        let cycles = clock.to_cycles(q);
        let back = clock.to_nanos(cycles);
        let err = back.as_nanos().abs_diff(q.as_nanos());
        assert!(err <= 2, "round trip error {err}ns");
    }

    /// However many clocks a process makes, it spins one window.
    #[test]
    fn a_process_spins_one_calibration_window() {
        for _ in 0..8 {
            TscClock::calibrated();
        }
        assert_eq!(WINDOWS.load(Ordering::Relaxed), 1);
    }

    /// Clocks share the calibration bit for bit: frequency, source and
    /// wall-time multiplier.
    #[test]
    fn every_clock_shares_the_calibration() {
        let (a, b) = (TscClock::calibrated(), TscClock::calibrated());
        assert_eq!(a.freq().hz().to_bits(), b.freq().hz().to_bits());
        match (a.source, b.source) {
            (
                Source::TscWall {
                    ns_per_cycle: x, ..
                },
                Source::TscWall {
                    ns_per_cycle: y, ..
                },
            ) => assert_eq!(x, y),
            (x, y) => assert_eq!(x, y),
        }
    }

    /// A clock made 20 ms after another has its own origin, whatever its
    /// wall time reads: read just before the older one, it is at least
    /// 20 ms behind.
    #[test]
    fn a_later_clock_starts_its_own_wall_time() {
        let process = TscClock::calibrated();
        let sources = [
            process.clone(),
            TscClock {
                source: Source::Tsc,
                ..process
            },
            TscClock::instant_fallback(),
        ];
        for calibration in sources {
            let cache = OnceLock::new();
            let first = TscClock::from_cache(&cache, || calibration.clone());
            std::thread::sleep(Duration::from_millis(20));
            let later = TscClock::from_cache(&cache, || unreachable!());
            let (later, earlier) = (later.wall_nanos().0, first.wall_nanos().0);
            // 19 ms: the TSC's rate is calibrated to well under 5%.
            assert!(
                earlier.saturating_sub(later) >= 19_000_000,
                "{:?}: the later clock reads {later} ns, the one made 20 ms before it {earlier} ns",
                calibration.source
            );
        }
    }

    /// A rejected calibration is the cached verdict: every clock after is
    /// the `Instant` fallback, and the window is not spun again.
    #[test]
    fn a_rejected_calibration_is_cached_as_the_fallback() {
        let cache = OnceLock::new();
        let mut windows = 0;
        for _ in 0..3 {
            let clock = TscClock::from_cache(&cache, || {
                windows += 1;
                TscClock::from_calibration(f64::NAN, Instant::now(), 0, Some("tsc"))
                    .unwrap_or_else(TscClock::instant_fallback)
            });
            assert!(!clock.uses_tsc());
            assert!((clock.freq().hz() - 1e9).abs() < 1.0);
        }
        assert_eq!(windows, 1);
    }

    /// A clock calibrated at 2 GHz, created now, under `clocksource`.
    fn clock_under(clocksource: Option<&str>) -> TscClock {
        let origin = Instant::now();
        TscClock::from_calibration(2e9, origin, 0, clocksource).expect("sane calibration")
    }

    /// Only a clocksource of `tsc` (after trimming: the file ends in a
    /// newline) moves wall time to the TSC; the cycle counter is the TSC
    /// either way.
    #[test]
    fn only_the_tsc_clocksource_moves_wall_time_to_the_tsc() {
        for source in [Some("tsc"), Some("tsc\n"), Some(" tsc ")] {
            let clock = clock_under(source);
            assert!(matches!(clock.source, Source::TscWall { .. }), "{source:?}");
        }
        for source in [
            Some("kvm-clock\n"),
            Some("hpet"),
            Some(""),
            Some("tsc2"),
            None,
        ] {
            let clock = clock_under(source);
            assert_eq!(clock.source, Source::Tsc, "{source:?}");
            assert!(clock.uses_tsc());
        }
    }

    /// Off a `tsc` clocksource, wall time is `Instant`'s and nothing
    /// else: every stamp lies between the two `Instant` reads around it,
    /// and `stamp`'s cycles are a separate, raw TSC read.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn off_a_tsc_clocksource_wall_time_is_instant() {
        let clock = clock_under(Some("kvm-clock"));
        for _ in 0..1000 {
            let before = clock.origin.elapsed().as_nanos() as u64;
            let cycles_before = rdtsc::<false>();
            let wall = clock.wall_nanos().0;
            let (cycles, stamped) = clock.stamp();
            let after = clock.origin.elapsed().as_nanos() as u64;
            assert!((before..=after).contains(&wall), "{before} {wall} {after}");
            assert!((before..=after).contains(&stamped.0));
            assert!(cycles.0 >= cycles_before, "cycles are the raw TSC");
        }
    }

    /// `stamp()`'s two halves come from one reading in every mode.
    #[test]
    fn a_stamp_is_one_reading_in_every_mode() {
        let fallback = TscClock::instant_fallback();
        for _ in 0..1000 {
            let (cycles, ns) = fallback.stamp();
            assert_eq!(cycles.0, ns.0, "1 GHz fallback: cycles are ns");
        }
        #[cfg(target_arch = "x86_64")]
        {
            let clock = clock_under(Some("tsc"));
            let Source::TscWall { base, ns_per_cycle } = clock.source else {
                unreachable!()
            };
            for _ in 0..1000 {
                let (cycles, ns) = clock.stamp();
                assert_eq!(ns, tsc_nanos(cycles.0, base, ns_per_cycle));
            }
        }
    }

    /// The 32.32 multiply is done in `u128`: a `u64` product overflows
    /// after ≈ 4 s of cycles at 2 GHz.
    #[test]
    fn tsc_wall_time_survives_hours_of_cycles() {
        let Source::TscWall { ns_per_cycle, .. } = clock_under(Some("tsc")).source else {
            unreachable!()
        };
        let hour = 3_600_000_000_000u64;
        let ns = tsc_nanos(7 + 2 * hour, 7, ns_per_cycle).0;
        assert!(ns.abs_diff(hour) < hour / 1_000_000, "{ns}");
    }

    /// Four threads hand a turn round through an atomic 20 000 times
    /// while a fifth busy-loops; each holder's `wall_nanos()` must be at
    /// least the previous holder's. A bare `RDTSC` fails this on a
    /// shared host (EXPERIMENTS.md "One clock read per completion").
    #[test]
    fn wall_time_never_goes_backwards_across_threads() {
        const HOLDERS: u64 = 4;
        const TURNS: u64 = 20_000;
        let clock = TscClock::calibrated();
        let turn = Arc::new(AtomicU64::new(0));
        let last = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let spinner = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            })
        };
        let holders: Vec<_> = (0..HOLDERS)
            .map(|me| {
                let (clock, turn, last) = (clock.clone(), Arc::clone(&turn), Arc::clone(&last));
                std::thread::spawn(move || {
                    let mut backwards = Vec::new();
                    loop {
                        let t = turn.load(Ordering::Acquire);
                        if t >= TURNS {
                            return backwards;
                        }
                        if t % HOLDERS != me {
                            std::thread::yield_now();
                            continue;
                        }
                        let now = clock.wall_nanos().0;
                        let prev = last.load(Ordering::Relaxed);
                        if now < prev {
                            backwards.push(prev - now);
                        }
                        last.store(now, Ordering::Relaxed);
                        turn.store(t + 1, Ordering::Release);
                    }
                })
            })
            .collect();
        let backwards: Vec<u64> = holders
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        stop.store(true, Ordering::Relaxed);
        spinner.join().unwrap();
        assert!(
            backwards.is_empty(),
            "{} of {TURNS} hand-overs went backwards, by up to {} ns",
            backwards.len(),
            backwards.iter().max().unwrap()
        );
    }

    /// Wall time keeps `Instant`'s rate within 0.1% over a 20 ms sleep
    /// (best of five, so one preemption between paired reads does not
    /// count).
    #[test]
    fn wall_time_tracks_instant() {
        let clock = TscClock::calibrated();
        let err = (0..5)
            .map(|_| {
                let (w0, i0) = (clock.wall_nanos().0, Instant::now());
                std::thread::sleep(Duration::from_millis(20));
                let (w1, i1) = (clock.wall_nanos().0, Instant::now());
                let real = (i1 - i0).as_nanos() as f64;
                ((w1 - w0) as f64 - real).abs() / real
            })
            .fold(f64::INFINITY, f64::min);
        assert!(err < 1e-3, "wall time off Instant's rate by {err:.5}");
    }
}
