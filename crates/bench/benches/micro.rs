//! Criterion micro-benchmarks of the hot-path mechanisms: the probe, the
//! clock's duration conversion, the SPSC ring, the JSQ decision, the event queue, the PDES inter-shard
//! channel, the skip list, and the reuse-distance analyzer. These are
//! the costs the paper's §3 argues must be tiny for tiny quanta to pay
//! off.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use tq_core::policy::{DispatchPolicy, Dispatcher, TieBreak, WorkerLoad};
use tq_core::{Cycles, Nanos};
use tq_harness::{run_to_record, RunSpec, SimEngine};
use tq_runtime::job::{Job, JobStatus, QuantumCtx};
use tq_runtime::{SpinJob, TscClock};
use tq_sim::{EventQueue, SimRng, TagQueue};

fn bench_probe(c: &mut Criterion) {
    let clock = TscClock::calibrated();
    let mut ctx = QuantumCtx::new(clock.clone());
    ctx.arm(clock.to_cycles(Nanos::from_secs(1)));
    c.bench_function("probe_no_yield", |b| {
        b.iter(|| black_box(ctx.probe()));
    });
}

fn bench_clock_to_cycles(c: &mut Criterion) {
    // A job factory's one conversion: a request's service time to cycles,
    // a fixed-point multiply.
    let clock = TscClock::calibrated();
    c.bench_function("clock_to_cycles", |b| {
        b.iter(|| black_box(clock.to_cycles(black_box(Nanos(2_500)))));
    });
}

fn bench_yield_roundtrip(c: &mut Criterion) {
    // One quantum of a spin job at a tiny quantum: run + yield + re-arm.
    let clock = TscClock::calibrated();
    let mut ctx = QuantumCtx::new(clock.clone());
    let quantum = clock.to_cycles(Nanos::from_micros(1));
    let mut job = SpinJob::new(Cycles(u64::MAX / 2));
    c.bench_function("quantum_run_yield_1us", |b| {
        b.iter(|| {
            ctx.arm(quantum);
            assert_eq!(job.run(&mut ctx), JobStatus::Yielded);
        });
    });
}

fn bench_spsc_ring(c: &mut Criterion) {
    let (p, consumer) = tq_runtime::ring::spsc::<u64>(1024);
    c.bench_function("spsc_push_pop", |b| {
        b.iter(|| {
            p.push(black_box(7)).unwrap();
            black_box(consumer.pop().unwrap());
        });
    });

    // The same 64-item transfer through per-item ops vs the batched API:
    // singles pay an Acquire/Release pair per item, the batch one cached
    // refresh and one publish per side per burst.
    let (p, consumer) = tq_runtime::ring::spsc::<u64>(1024);
    let items: Vec<u64> = (0..64).collect();
    let mut out: Vec<u64> = Vec::with_capacity(64);
    c.bench_function("spsc_transfer_64_singles", |b| {
        b.iter(|| {
            for &i in &items {
                p.push(black_box(i)).unwrap();
            }
            for _ in 0..items.len() {
                black_box(consumer.pop().unwrap());
            }
        });
    });
    c.bench_function("spsc_transfer_64_batched", |b| {
        b.iter(|| {
            assert_eq!(p.push_batch_copy(black_box(&items)), items.len());
            out.clear();
            assert_eq!(consumer.pop_batch(&mut out, items.len()), items.len());
            black_box(out.last().copied())
        });
    });
}

fn bench_spsc_four_hops(c: &mut Criterion) {
    // A request's four ring hops on `rt_admit`, 64 items an iteration: a
    // burst push, 64 single pops, a batch push, a batch pop (per item,
    // divide the time by 64). At a capacity that is not a power of two a
    // `%` would be a hardware divide; the wrapped slots need none at any.
    for cap in [1024, 1000] {
        let (p, consumer) = tq_runtime::ring::spsc::<u64>(cap);
        let items: Vec<u64> = (0..64).collect();
        let mut out: Vec<u64> = Vec::with_capacity(64);
        c.bench_function(&format!("spsc_four_hops_cap_{cap}"), |b| {
            b.iter(|| {
                assert_eq!(p.push_batch_copy(black_box(&items)), items.len());
                for _ in 0..items.len() {
                    out.push(consumer.pop().unwrap());
                }
                assert_eq!(p.push_batch_copy(black_box(&out)), items.len());
                out.clear();
                assert_eq!(consumer.pop_batch(&mut out, items.len()), items.len());
                black_box(out.last().copied());
                out.clear();
            });
        });
    }
}

fn bench_dispatch_snapshot(c: &mut Criterion) {
    // The dispatcher's per-request decision cost under the two pipelines:
    // a fresh n-worker atomic load snapshot before every pick (the
    // per-item pipeline) vs one snapshot per 64-request burst maintained
    // incrementally as picks assign (the batched pipeline).
    use tq_core::counters::{DispatcherLedger, SharedCounters};
    let n = 16;
    let shared: Vec<SharedCounters> = (0..n).map(|_| SharedCounters::new()).collect();
    for (i, s) in shared.iter().enumerate() {
        for _ in 0..(i % 5) {
            s.on_quantum();
        }
    }
    let mut d = Dispatcher::new(DispatchPolicy::Jsq(TieBreak::MaxServicedQuanta), n, 1);
    let ledger = DispatcherLedger::new(n);
    let mut loads: Vec<WorkerLoad> = Vec::with_capacity(n);
    c.bench_function("dispatch64_snapshot_per_pick_16w", |b| {
        b.iter(|| {
            for i in 0..64u64 {
                ledger.snapshot(&shared, &mut loads);
                black_box(d.pick(&loads, black_box(i)));
            }
        });
    });
    c.bench_function("dispatch64_snapshot_per_burst_16w", |b| {
        b.iter(|| {
            ledger.snapshot(&shared, &mut loads);
            for i in 0..64u64 {
                let w = d.pick(&loads, black_box(i));
                loads[w].queued_jobs = loads[w].queued_jobs.wrapping_add(1);
                black_box(w);
            }
        });
    });
}

fn bench_jsq_pick(c: &mut Criterion) {
    let mut d = Dispatcher::new(DispatchPolicy::Jsq(TieBreak::MaxServicedQuanta), 16, 1);
    let loads: Vec<WorkerLoad> = (0..16)
        .map(|i| WorkerLoad {
            queued_jobs: (i % 5) as u64,
            serviced_quanta: (i * 3) as u64,
        })
        .collect();
    c.bench_function("jsq_msq_pick_16_workers", |b| {
        b.iter(|| black_box(d.pick(&loads, 12345)));
    });

    // The engines' struct-of-arrays variant: the argmin scans flat u64
    // arrays, at the worker counts the paper's figures use.
    for n in [16usize, 64] {
        let mut d = Dispatcher::new(DispatchPolicy::Jsq(TieBreak::MaxServicedQuanta), n, 1);
        let queued: Vec<u64> = (0..n).map(|i| (i % 5) as u64).collect();
        let quanta: Vec<u64> = (0..n).map(|i| (i * 3) as u64).collect();
        c.bench_function(&format!("jsq_msq_pick_split_{n}_workers"), |b| {
            b.iter(|| black_box(d.pick_split(&queued, &quanta, 12345)));
        });
    }
}

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_push_pop_1k", |b| {
        b.iter(|| {
            let mut q = EventQueue::with_capacity(1024);
            for i in 0..1_000u64 {
                q.push(Nanos::from_nanos((i * 7919) % 100_000 + 100_000), i);
            }
            while let Some(e) = q.pop() {
                black_box(e);
            }
        });
    });

    // Steady-state pop-then-push at a fixed fill level — the engines'
    // regime (the queue holds at most one event per worker/dispatcher:
    // 18 in `sim_sweep`'s servers). In `*_steady_*` each payload jumps
    // ahead by its own fixed step, so the pop order is periodic and a
    // branch predictor learns the heap's sifts; `tag_queue_random_*`
    // draws each step from xorshift64, as an engine's service times do.
    // At 512 the sorted array's O(n) shift loses to the heap: it is
    // there to show where.
    for fill in [8u64, 18, 64, 512] {
        let mut q = EventQueue::with_capacity(fill as usize);
        for i in 0..fill {
            q.push(Nanos::from_nanos(1_000 + (i * 7919) % 4_096), i);
        }
        c.bench_function(&format!("event_queue_steady_fill_{fill}"), |b| {
            b.iter(|| {
                let (t, payload) = q.pop().expect("steady queue never empties");
                q.push(t + Nanos::from_nanos((payload * 7919) % 4_096 + 1), payload);
                black_box(payload)
            });
        });

        let mut q = TagQueue::with_capacity(fill as usize);
        for i in 0..fill {
            q.push(Nanos::from_nanos(1_000 + (i * 7919) % 4_096), i as u16);
        }
        c.bench_function(&format!("tag_queue_steady_fill_{fill}"), |b| {
            b.iter(|| {
                let (t, tag) = q.pop().expect("steady queue never empties");
                q.push(t + Nanos::from_nanos((u64::from(tag) * 7919) % 4_096 + 1), tag);
                black_box(tag)
            });
        });

        let mut q = TagQueue::with_capacity(fill as usize);
        for i in 0..fill {
            q.push(Nanos::from_nanos(1_000 + (i * 7919) % 4_096), i as u16);
        }
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        c.bench_function(&format!("tag_queue_random_fill_{fill}"), |b| {
            b.iter(|| {
                let (t, tag) = q.pop().expect("steady queue never empties");
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                q.push(t + Nanos::from_nanos(x % 4_096 + 1), tag);
                black_box(tag)
            });
        });
    }
}

/// Inter-shard message transfer in the PDES barrier: a sender's window
/// of timestamped messages landing in a receiver's inbox one `push` at a
/// time versus through the sorted bulk path (`extend_sorted`), which is
/// what `Shard::deliver_batch` uses. Window sizes bracket the real
/// regime (a handful of jobs per lookahead window up to a burst).
fn bench_pdes_channel(c: &mut Criterion) {
    for window in [8usize, 64, 256] {
        let batch: Vec<(Nanos, u64)> = (0..window as u64)
            .map(|i| (Nanos::from_nanos(10_000 + i * 13), i))
            .collect();
        c.bench_function(&format!("pdes_channel_single_{window}"), |b| {
            b.iter(|| {
                let mut inbox = EventQueue::with_capacity(window);
                for &(at, msg) in &batch {
                    inbox.push(at, msg);
                }
                black_box(inbox.len())
            });
        });
        c.bench_function(&format!("pdes_channel_batched_{window}"), |b| {
            b.iter(|| {
                let mut inbox = EventQueue::with_capacity(window);
                inbox.extend_sorted(batch.iter().copied());
                black_box(inbox.len())
            });
        });
    }
}

fn bench_skiplist(c: &mut Criterion) {
    let mut store = tq_kv::KvStore::new(5);
    store.populate(100_000, 100);
    let mut rng = SimRng::new(9);
    c.bench_function("kv_get_100k_entries", |b| {
        b.iter(|| {
            let key = tq_kv::KvStore::nth_key(rng.u64() % 100_000);
            black_box(store.get(&key));
        });
    });
    c.bench_function("kv_scan_100", |b| {
        b.iter(|| {
            let start = tq_kv::KvStore::nth_key(rng.u64() % 99_000);
            black_box(store.scan(&start, 100).len());
        });
    });
    // A SCAN's walk and checksum, as the SCAN job runs them, on
    // `wire_kv`'s store (8192 keys, 64-byte values), loaded in key order
    // (its level-0 links one run, read and folded eight at a time) and
    // with the same entries inserted in a seeded shuffle (a run breaks at
    // almost every link, so the walk hops and folds one entry a step): the
    // first is the array's cost, the second the hop's. A seek on the same
    // two stores: a binary search of the arena on the first, the descent
    // on the second.
    let mut keys: Vec<u64> = (0..8_192).collect();
    let mut shuffle = SimRng::new(17);
    for i in (1..keys.len()).rev() {
        keys.swap(i, (shuffle.u64() % (i as u64 + 1)) as usize);
    }
    let mut ordered = tq_kv::KvStore::new(42);
    ordered.populate(8_192, 64);
    let mut shuffled = tq_kv::KvStore::new(42);
    for &i in &keys {
        shuffled.put(tq_kv::KvStore::nth_key(i), vec![(i % 251) as u8; 64]);
    }
    for (name, store) in [("ordered", &ordered), ("shuffled", &shuffled)] {
        c.bench_function(&format!("kv_walk_2000_{name}"), |b| {
            b.iter(|| {
                let start = tq_kv::KvStore::nth_key_bytes(rng.u64() % 4_096);
                let mut cur = store.cursor_before(&start);
                let mut sum = tq_runtime::kv::Checksum::default();
                store.walk(&mut cur, 2_000, &mut sum);
                black_box(sum)
            });
        });
        c.bench_function(&format!("kv_seek_{name}"), |b| {
            b.iter(|| {
                let start = tq_kv::KvStore::nth_key_bytes(rng.u64() % 8_192);
                black_box(store.cursor_before(&start))
            });
        });
    }
}

fn bench_reuse_distance(c: &mut Criterion) {
    let mut rng = SimRng::new(4);
    let trace: Vec<u64> = (0..10_000).map(|_| rng.u64() % 512).collect();
    c.bench_function("reuse_distances_10k", |b| {
        b.iter(|| black_box(tq_cache::reuse_distances(&trace).len()));
    });
}

fn bench_summarize(c: &mut Criterion) {
    // Synthetic completions with the extreme-bimodal class/size mix, the
    // shape a simulated point hands to the single-pass metrics pipeline.
    let mut gen = tq_workloads::ArrivalGen::new(
        tq_workloads::table1::extreme_bimodal(),
        4.0e6,
        SimRng::new(7),
    );
    let mut jitter = SimRng::new(0xFEED);
    let completions: Vec<tq_core::job::Completion> = (0..50_000)
        .map(|_| {
            let r = gen.next_request();
            let wait = r.service.scale(20.0 * jitter.f64());
            tq_core::job::Completion {
                id: r.id,
                class: r.class,
                arrival: r.arrival,
                service: r.service,
                finish: r.arrival + r.service + wait,
            }
        })
        .collect();
    c.bench_function("summarize_all_50k_single_pass", |b| {
        b.iter(|| {
            let mut rec = tq_sim::ClassRecorder::with_capacity(0.1, completions.len());
            for c in &completions {
                rec.record(*c);
            }
            black_box(rec.summarize_all(tq_core::costs::NETWORK_RTT))
        });
    });
}

fn bench_twolevel_point(c: &mut Criterion) {
    // One full TQ simulation point at toy horizon: event loop, incremental
    // load tracking, dispatch, and the metrics pipeline end to end.
    let mut engine = SimEngine::new(tq_queueing::presets::tq(8, Nanos::from_micros(2)));
    let wl = tq_workloads::table1::extreme_bimodal();
    let spec = RunSpec {
        rate_rps: wl.rate_for_load(8, 0.6),
        workload: wl,
        process: tq_workloads::ArrivalProcess::Poisson,
        horizon: Nanos::from_millis(2),
        seed: 1,
    };
    c.bench_function("twolevel_point_8w_2ms", |b| {
        b.iter(|| black_box(run_to_record(&mut engine, &spec)));
    });
}

fn bench_instrument_pass(c: &mut Criterion) {
    let p = tq_instrument::programs::by_name("cholesky").unwrap();
    c.bench_function("tq_pass_cholesky", |b| {
        b.iter(|| {
            black_box(tq_instrument::passes::tq::instrument(
                &p,
                tq_instrument::passes::tq::TqPassConfig::default(),
            ))
        });
    });
}

fn quick() -> Criterion {
    // Mechanism costs are nanosecond-scale and stable: short windows keep
    // `cargo bench --workspace` pleasant without hurting precision.
    Criterion::default()
        .sample_size(30)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(800))
}

criterion_group! {
    name = benches;
    config = quick();
    targets = bench_probe,
    bench_clock_to_cycles,
    bench_yield_roundtrip,
    bench_spsc_ring,
    bench_spsc_four_hops,
    bench_dispatch_snapshot,
    bench_jsq_pick,
    bench_event_queue,
    bench_pdes_channel,
    bench_skiplist,
    bench_reuse_distance,
    bench_summarize,
    bench_twolevel_point,
    bench_instrument_pass,
}
criterion_main!(benches);
