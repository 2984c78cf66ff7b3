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
//!
//! A clock holds its rate in one representation: two 32.32 fixed-point
//! factors, cycles per nanosecond and nanoseconds per cycle, derived once
//! from the calibrated frequency. Every conversion ([`TscClock::to_cycles`],
//! [`TscClock::to_nanos`]) and TSC wall time is one `u128` multiply by
//! one of them, rounded to nearest and saturating at `u64::MAX`: no float
//! and no divide on a request's path. [`CpuFreq`]'s f64 conversions stay
//! the simulators' and agree with these to a unit or two (tests below).

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
    /// Cycles per nanosecond, 32.32 fixed point (`1 << 32` is 1 GHz).
    cycles_per_ns: u64,
    /// Nanoseconds per cycle, 32.32 fixed point.
    ns_per_cycle: u64,
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
    /// The TSC for both: wall time is `(tsc - base) × ns_per_cycle`.
    TscWall { base: u64 },
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
            Some("tsc") => Source::TscWall { base },
            _ => Source::Tsc,
        };
        (hz.is_finite() && hz > 1e8).then(|| TscClock {
            freq: CpuFreq::from_hz(hz),
            cycles_per_ns: fixed_point(hz / 1e9),
            ns_per_cycle: fixed_point(1e9 / hz),
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
            cycles_per_ns: ONE,
            ns_per_cycle: ONE,
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

    /// Converts a cycle delta to nanoseconds: rounded to nearest,
    /// saturating at `u64::MAX`.
    #[inline]
    pub fn to_nanos(&self, delta: Cycles) -> Nanos {
        Nanos(scale(delta.0, self.ns_per_cycle))
    }

    /// Converts a duration to cycles (e.g. the quantum): rounded to
    /// nearest, saturating at `u64::MAX`.
    #[inline]
    pub fn to_cycles(&self, d: Nanos) -> Cycles {
        Cycles(scale(d.0, self.cycles_per_ns))
    }

    /// Elapsed wall time since the clock was created, for request
    /// timestamps (one clock is shared server-wide): a fenced TSC read
    /// and a multiply where the clocksource is `tsc`, else `Instant`.
    #[inline]
    pub fn wall_nanos(&self) -> Nanos {
        match self.source {
            #[cfg(target_arch = "x86_64")]
            Source::TscWall { base } => self.tsc_nanos(rdtsc::<true>(), base),
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
            Source::TscWall { base } => {
                let c = rdtsc::<true>();
                (Cycles(c), self.tsc_nanos(c, base))
            }
            Source::Tsc => (self.now(), self.wall_nanos()),
            _ => {
                let ns = self.wall_nanos();
                (Cycles(ns.0), ns)
            }
        }
    }

    /// TSC wall time: the cycles since `base`, converted.
    #[cfg(target_arch = "x86_64")]
    #[inline]
    fn tsc_nanos(&self, cycles: u64, base: u64) -> Nanos {
        self.to_nanos(Cycles(cycles.saturating_sub(base)))
    }
}

/// 1.0 in 32.32 fixed point.
const ONE: u64 = 1 << 32;

/// `ratio` in 32.32 fixed point, rounded to nearest (saturating).
fn fixed_point(ratio: f64) -> u64 {
    (ratio * ONE as f64).round() as u64
}

/// `x × factor` for a 32.32 `factor`, rounded to nearest and saturating
/// at `u64::MAX`. The product is taken in `u128`: in `u64` it overflows
/// after ≈ 4 s of cycles.
#[inline]
fn scale(x: u64, factor: u64) -> u64 {
    let product = (x as u128 * factor as u128 + (ONE as u128 >> 1)) >> 32;
    u64::try_from(product).unwrap_or(u64::MAX)
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
        // Its factors are exactly one, so they are over the whole range.
        let spread = (0..4000u64).map(|k| k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        for x in (0..1000).chain(spread).chain([u64::MAX - 1, u64::MAX]) {
            assert_eq!(clock.to_cycles(Nanos(x)), Cycles(x));
            assert_eq!(clock.to_nanos(Cycles(x)), Nanos(x));
        }
    }

    /// A clock calibrated at `ghz`, its wall time on the TSC.
    fn clock_at(ghz: f64) -> TscClock {
        TscClock::from_calibration(ghz * 1e9, Instant::now(), 0, Some("tsc")).expect("sane")
    }

    /// Durations from 0 to `top`: every value below 1000, `top` itself,
    /// and 4000 spread over the range by a fixed stride.
    fn durations(top: u64) -> impl Iterator<Item = u64> {
        (0..1000)
            .chain((0..4000u64).map(move |k| (k * 2_654_435_761) % top))
            .chain([top])
    }

    /// The fixed-point conversions agree with `CpuFreq`'s f64 ones within
    /// one unit up to 1 s and two up to 10 s; over an hour, within the
    /// error of factors rounded to nearest (half a unit in the last of
    /// their 32 fraction bits), which a factor rounded down exceeds at
    /// 2.1 and 3.3 GHz.
    #[test]
    fn fixed_point_conversions_agree_with_cpu_freq() {
        const SEC: u64 = 1_000_000_000;
        for ghz in [1.0, 2.0, 2.1, 3.3] {
            let clock = clock_at(ghz);
            let freq = clock.freq();
            let cycles_per_sec = (ghz * 1e9) as u64;
            for (secs, tolerance) in [(1, 1), (10, 2)] {
                for ns in durations(secs * SEC) {
                    let (got, want) = (
                        clock.to_cycles(Nanos(ns)).0,
                        freq.nanos_to_cycles(Nanos(ns)).0,
                    );
                    assert!(
                        got.abs_diff(want) <= tolerance,
                        "{ghz} GHz: {ns} ns -> {got} cycles, f64 {want}"
                    );
                }
                for c in durations(secs * cycles_per_sec) {
                    let (got, want) = (
                        clock.to_nanos(Cycles(c)).0,
                        freq.cycles_to_nanos(Cycles(c)).0,
                    );
                    assert!(
                        got.abs_diff(want) <= tolerance,
                        "{ghz} GHz: {c} cycles -> {got} ns, f64 {want}"
                    );
                }
            }
            let hour = 3600 * SEC;
            let bound = |units: u64| units as f64 / (1u64 << 33) as f64 + 1.0;
            let cycles = clock.to_cycles(Nanos(hour)).0;
            let err = cycles.abs_diff(freq.nanos_to_cycles(Nanos(hour)).0) as f64;
            assert!(
                err <= bound(hour),
                "{ghz} GHz: an hour is {cycles} cycles, off by {err}"
            );
            let c = 3600 * cycles_per_sec;
            let ns = clock.to_nanos(Cycles(c)).0;
            let err = ns.abs_diff(freq.cycles_to_nanos(Cycles(c)).0) as f64;
            assert!(
                err <= bound(c),
                "{ghz} GHz: {c} cycles are {ns} ns, off by {err}"
            );
        }
    }

    /// Past `u64::MAX` a conversion saturates: it never wraps to a short
    /// duration.
    #[test]
    fn fixed_point_conversions_saturate() {
        let fast = clock_at(3.3);
        for ns in [u64::MAX, u64::MAX / 2, u64::MAX / 3 + 1] {
            assert_eq!(
                fast.to_cycles(Nanos(ns)),
                Cycles(u64::MAX),
                "{ns} ns at 3.3 GHz"
            );
        }
        let near = u64::MAX / 4;
        assert!(
            fast.to_cycles(Nanos(near)).0 > near,
            "no saturation below the top"
        );
        let slow = clock_at(0.5);
        for c in [u64::MAX, u64::MAX / 2 + 1] {
            assert_eq!(
                slow.to_nanos(Cycles(c)),
                Nanos(u64::MAX),
                "{c} cycles at 0.5 GHz"
            );
        }
        assert_eq!(slow.to_nanos(Cycles(u64::MAX / 4)).0, u64::MAX / 4 * 2);
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
    /// both fixed-point factors.
    #[test]
    fn every_clock_shares_the_calibration() {
        let (a, b) = (TscClock::calibrated(), TscClock::calibrated());
        assert_eq!(a.freq().hz().to_bits(), b.freq().hz().to_bits());
        assert_eq!(a.cycles_per_ns, b.cycles_per_ns);
        assert_eq!(a.ns_per_cycle, b.ns_per_cycle);
        match (a.source, b.source) {
            (Source::TscWall { .. }, Source::TscWall { .. }) => {}
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
            let Source::TscWall { base } = clock.source else {
                unreachable!()
            };
            for _ in 0..1000 {
                let (cycles, ns) = clock.stamp();
                assert_eq!(ns, clock.tsc_nanos(cycles.0, base));
            }
        }
    }

    /// The 32.32 multiply is done in `u128`: a `u64` product overflows
    /// after ≈ 4 s of cycles at 2 GHz.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn tsc_wall_time_survives_hours_of_cycles() {
        let clock = clock_under(Some("tsc"));
        let hour = 3_600_000_000_000u64;
        let ns = clock.tsc_nanos(7 + 2 * hour, 7).0;
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
