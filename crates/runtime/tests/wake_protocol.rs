//! The dispatcher's sleep/wake handshake: an exhaustive interleaving
//! check of the protocol, and a stress test of the code.
//!
//! The submit side publishes to the RX ring and wakes the dispatcher only
//! if its `parked` flag is up; the dispatcher raises the flag, re-checks
//! the ring, and parks (`ShutdownSignal::{wake_if_parked, park_unless}`
//! in crates/runtime/src/server.rs, the poll loop in dispatcher.rs). Each
//! side stores to one location and then loads the other — the
//! store-buffering shape, which loses a wake-up on real hardware unless
//! both sides put a `SeqCst` fence between their store and their load.
//!
//! The model is the same hand-rolled DFS as `ring_interleavings.rs`, with
//! the same notion of weak memory: a load may return any value of its
//! location no older than the newest this thread is known to have seen.
//! What a thread "has seen" advances by reading a value, by a `SeqCst`
//! fence (everything stored before an earlier fence of the other thread —
//! here, simply everything stored so far: a store reaches memory when its
//! step runs), by an Acquire load of `closed` (what the closer had
//! published), and by consuming an unpark token (what the unparker had
//! published when it called `unpark`).
//!
//! Checked in every reachable state:
//! * the dispatcher is never blocked in `park` with no token pending while
//!   the ring holds a request and the submitter is between submits (it
//!   may stay there forever: that is a lost wake-up),
//! * the dispatcher never exits with a published request unconsumed,
//! * the state where everything was consumed and both threads have ended
//!   is reachable.
//!
//! Each rule the proof leans on is then removed in turn — either fence,
//! and reading `closed` before the poll — and the checker must trip.

use std::collections::HashSet;
use std::time::{Duration, Instant};
use tq_core::Nanos;
use tq_runtime::{ServerConfig, SpinJob, TinyQuanta, TscClock};

/// What an unparker had published when it called `unpark`; the parker
/// that consumes the token has seen at least this.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct View {
    tail: u8,
    closed: bool,
}

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct State {
    // Shared memory. `tail` counts published requests (only the submitter
    // writes it, so its history is 0..=tail). `parked` is the suffix of
    // the flag's modification order the submitter — its only reader — may
    // still observe; the last entry is the current value.
    tail: u8,
    parked: Vec<bool>,
    closed: bool,
    token: Option<View>,
    // Submitter: program counter (table in `submitter_step`).
    s_pc: u8,
    // Dispatcher: program counter (table in `dispatcher_step`), requests
    // consumed, the newest `tail`/`closed` it is known to have seen, the
    // value of `closed` it read at the top of the loop, spurious returns
    // from `park` used up, and whether it has exited.
    d_pc: u8,
    d_consumed: u8,
    d_tail_seen: u8,
    d_closed_seen: bool,
    d_closed_reg: bool,
    d_spurious: u8,
    d_exited: bool,
}

const S_DONE: u8 = 7;

struct Model {
    /// Requests the submitter publishes before closing.
    n_items: u8,
    /// Spurious returns from `park` allowed per run (each one appends to
    /// the flag's history, so the count must be bounded).
    spurious_max: u8,
    /// The submitter fences between its publish and its load of `parked`.
    submit_fence: bool,
    /// The dispatcher fences between raising `parked` and its re-check.
    park_fence: bool,
    /// The dispatcher reads `closed` before it polls the ring (and not
    /// after finding it empty).
    closed_before_poll: bool,
}

impl Model {
    fn sound() -> Model {
        Model {
            n_items: 3,
            spurious_max: 2,
            submit_fence: true,
            park_fence: true,
            closed_before_poll: true,
        }
    }

    fn initial(&self) -> State {
        State {
            tail: 0,
            parked: vec![false],
            closed: false,
            token: None,
            s_pc: 0,
            d_pc: 0,
            d_consumed: 0,
            d_tail_seen: 0,
            d_closed_seen: false,
            d_closed_reg: false,
            d_spurious: 0,
            d_exited: false,
        }
    }

    /// `try_submit_burst` then `wake_if_parked`, per request; then
    /// `ShutdownSignal::close`:
    ///   pc0: ring publish (tail Release store) — or, after the last
    ///        request, go to pc5
    ///   pc1: fence(SeqCst)
    ///   pc2: parked.load(Relaxed) — may be stale; false → pc0
    ///   pc3: parked.store(false)
    ///   pc4: unpark → pc0
    ///   pc5: closed.store(true, Release)
    ///   pc6: unpark (unconditional) → done
    fn submitter_step(&self, s: &State) -> Vec<State> {
        let mut n = s.clone();
        let unpark = |n: &mut State| {
            // A second unpark before the first is consumed merges into
            // the one token; the view can only have grown.
            n.token = Some(View {
                tail: n.tail,
                closed: n.closed,
            });
        };
        match s.s_pc {
            0 if s.tail == self.n_items => n.s_pc = 5,
            0 => {
                n.tail += 1;
                n.s_pc = if self.submit_fence { 1 } else { 2 };
            }
            1 => {
                n.parked = vec![*s.parked.last().expect("never empty")];
                n.s_pc = 2;
            }
            2 => {
                return (0..s.parked.len())
                    .map(|i| {
                        let mut n = s.clone();
                        n.parked.drain(..i); // coherence: never older again
                        n.s_pc = if s.parked[i] { 3 } else { 0 };
                        n
                    })
                    .collect();
            }
            3 => {
                n.parked = vec![false];
                n.s_pc = 4;
            }
            4 => {
                unpark(&mut n);
                n.s_pc = 0;
            }
            5 => {
                n.closed = true;
                n.s_pc = 6;
            }
            6 => {
                unpark(&mut n);
                n.s_pc = S_DONE;
            }
            _ => return Vec::new(),
        }
        vec![n]
    }

    /// Every value a dispatcher load of `closed` may return.
    fn closed_reads(s: &State) -> impl Iterator<Item = bool> {
        let stale = !s.closed || !s.d_closed_seen;
        let fresh = s.closed;
        [(false, stale), (true, fresh)]
            .into_iter()
            .filter_map(|(v, possible)| possible.then_some(v))
    }

    /// Records that the dispatcher read `closed == true` with Acquire:
    /// every publish precedes the close, so it has seen them all.
    fn saw_closed(&self, n: &mut State) {
        n.d_closed_seen = true;
        n.d_tail_seen = self.n_items;
    }

    fn exit(&self, n: &mut State) {
        assert_eq!(
            n.d_consumed, self.n_items,
            "dispatcher exited with {} of {} requests consumed",
            n.d_consumed, self.n_items
        );
        n.d_exited = true;
    }

    /// `run_dispatcher`'s poll loop and `park_unless`:
    ///   pc0: closed.load(Acquire) into a register — may be stale
    ///   pc1: pop_batch (tail Acquire load, may be stale); got some → pc0;
    ///        empty: register says closed → exit; else spin (pc0) or pc2
    ///   pc2: parked.store(true)
    ///   pc3: fence(SeqCst)
    ///   pc4: re-check ring (tail load); non-empty → pc7
    ///   pc5: re-check closed; closed → pc7
    ///   pc6: park — consumes a token, or blocks (or returns spuriously)
    ///   pc7: parked.store(false) → pc0
    /// With `closed_before_poll` off (the seeded bug) pc0 is skipped and
    /// an empty poll goes to pc8, which loads `closed` *then*.
    fn dispatcher_step(&self, s: &State) -> Vec<State> {
        let mut out = Vec::new();
        if s.d_exited {
            return out;
        }
        let mut n = s.clone();
        match s.d_pc {
            0 if !self.closed_before_poll => n.d_pc = 1,
            0 => {
                for c in Self::closed_reads(s) {
                    let mut n = s.clone();
                    n.d_closed_reg = c;
                    if c {
                        self.saw_closed(&mut n);
                    }
                    n.d_pc = 1;
                    out.push(n);
                }
                return out;
            }
            1 => {
                for t in s.d_tail_seen..=s.tail {
                    let mut n = s.clone();
                    n.d_tail_seen = t;
                    if t > s.d_consumed {
                        n.d_consumed = t;
                        n.d_pc = 0;
                    } else if !self.closed_before_poll {
                        n.d_pc = 8;
                    } else if s.d_closed_reg {
                        self.exit(&mut n);
                    } else {
                        n.d_pc = 2;
                        let mut spin = n.clone();
                        spin.d_pc = 0;
                        out.push(spin);
                    }
                    out.push(n);
                }
                return out;
            }
            2 => {
                n.parked.push(true);
                n.d_pc = if self.park_fence { 3 } else { 4 };
            }
            3 => {
                n.d_tail_seen = s.tail;
                n.d_closed_seen = s.closed;
                n.d_pc = 4;
            }
            4 => {
                for t in s.d_tail_seen..=s.tail {
                    let mut n = s.clone();
                    n.d_tail_seen = t;
                    n.d_pc = if t > s.d_consumed { 7 } else { 5 };
                    out.push(n);
                }
                return out;
            }
            5 => {
                for c in Self::closed_reads(s) {
                    let mut n = s.clone();
                    if c {
                        self.saw_closed(&mut n);
                    }
                    n.d_pc = if c { 7 } else { 6 };
                    out.push(n);
                }
                return out;
            }
            6 => match s.token {
                Some(view) => {
                    n.token = None;
                    n.d_tail_seen = s.d_tail_seen.max(view.tail);
                    if view.closed {
                        self.saw_closed(&mut n);
                    }
                    n.d_pc = 7;
                }
                None if s.d_spurious < self.spurious_max => {
                    n.d_spurious += 1;
                    n.d_pc = 7;
                }
                None => return out, // blocked
            },
            7 => {
                n.parked.push(false);
                n.d_pc = 0;
            }
            8 => {
                for c in Self::closed_reads(s) {
                    let mut n = s.clone();
                    if c {
                        self.saw_closed(&mut n);
                        self.exit(&mut n);
                    } else {
                        n.d_pc = 2;
                    }
                    out.push(n);
                }
                return out;
            }
            _ => unreachable!(),
        }
        vec![n]
    }

    /// The dispatcher is asleep, nobody is about to wake it, and there is
    /// something for it to do.
    fn lost_wakeup(&self, s: &State) -> bool {
        let asleep = !s.d_exited && s.d_pc == 6 && s.token.is_none();
        let nobody_will_wake = s.s_pc == 0 || s.s_pc == S_DONE;
        let work = s.tail > s.d_consumed || s.s_pc == S_DONE;
        asleep && nobody_will_wake && work
    }

    /// Explores every reachable interleaving; returns the number of
    /// states and whether the clean end state was among them. Panics on
    /// the first violated invariant.
    fn explore(&self) -> (usize, bool) {
        let mut seen: HashSet<State> = HashSet::new();
        let mut stack = vec![self.initial()];
        let mut completed = false;
        while let Some(s) = stack.pop() {
            if !seen.insert(s.clone()) {
                continue;
            }
            assert!(!self.lost_wakeup(&s), "lost wake-up: {s:?}");
            if s.d_exited && s.s_pc == S_DONE {
                completed = true;
                continue;
            }
            stack.extend(self.submitter_step(&s));
            stack.extend(self.dispatcher_step(&s));
        }
        (seen.len(), completed)
    }

    fn trips(self) -> bool {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.explore())).is_err()
    }
}

#[test]
fn wake_protocol_loses_no_wakeup_under_any_interleaving() {
    let (states, completed) = Model::sound().explore();
    assert!(completed, "no interleaving ran to a clean exit");
    assert!(states > 1000, "only {states} states explored");
}

#[test]
fn wake_protocol_holds_without_spurious_wakeups() {
    // With no spurious returns a blocked `park` stays blocked, so a lost
    // wake-up would also show as the clean exit being unreachable.
    let m = Model {
        spurious_max: 0,
        ..Model::sound()
    };
    let (_, completed) = m.explore();
    assert!(completed, "no interleaving ran to a clean exit");
}

#[test]
fn model_detects_a_missing_submit_side_fence() {
    let m = Model {
        submit_fence: false,
        ..Model::sound()
    };
    assert!(m.trips(), "a stale `parked` load went unnoticed");
}

#[test]
fn model_detects_a_missing_park_side_fence() {
    let m = Model {
        park_fence: false,
        ..Model::sound()
    };
    assert!(m.trips(), "a stale ring re-check went unnoticed");
}

#[test]
fn model_detects_closed_read_after_the_poll() {
    let m = Model {
        closed_before_poll: false,
        ..Model::sound()
    };
    assert!(m.trips(), "an exit that strands a request went unnoticed");
}

/// Single requests with the dispatcher asleep between every two: each
/// round waits for its completion before submitting again, and the
/// dispatcher parks at its first empty poll, as soon as it has forwarded
/// the one request. Every submit therefore races a dispatcher that is
/// parking or parked, on any host. A lost wake-up is a missed deadline,
/// not a hang.
#[test]
fn single_requests_against_a_parking_dispatcher_all_complete() {
    const ROUNDS: u64 = 50_000;
    let clock = TscClock::calibrated();
    let mut parks = 0;
    for server_round in 0..4 {
        let job_clock = clock.clone();
        let server = TinyQuanta::start_with_clock(
            ServerConfig {
                workers: 1,
                // The worker must not add its own sleeps to every round.
                idle_yields: u32::MAX,
                ..ServerConfig::default()
            },
            clock.clone(),
            move |req| Box::new(SpinJob::with_clock(req, &job_clock)),
        );
        let mut done = Vec::new();
        for round in 0..ROUNDS / 4 {
            let id = server.submit(0, Nanos::ZERO);
            let deadline = Instant::now() + Duration::from_secs(20);
            done.clear();
            while done.is_empty() {
                assert!(
                    Instant::now() < deadline,
                    "server {server_round}, round {round}: no completion — lost wake-up"
                );
                server.drain_completions_into(&mut done);
                std::thread::yield_now();
            }
            assert_eq!(done.len(), 1);
            assert_eq!(done[0].id, id);
        }
        let (rest, stats) = server.shutdown_with_stats();
        assert!(rest.is_empty());
        assert_eq!(stats.dispatcher.forwarded, ROUNDS / 4);
        parks += stats.dispatcher.parks;
    }
    assert!(
        parks >= ROUNDS / 2,
        "the dispatcher went to sleep only {parks} times in {ROUNDS} rounds"
    );
}
