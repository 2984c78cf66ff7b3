//! The benchmark's workloads and metrics by name. `BENCHMARK.json` at the
//! root of the repo repeats these tables; a unit test keeps the two equal.

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
    /// Whether `BENCHMARK.json` names it, so that later changes are judged
    /// by it. A workload that is not is run by hand.
    pub gated: bool,
}

pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; per-layer metrics have none.
    pub bound: Option<f64>,
    /// For `list`: what the number is, and for a layer metric which
    /// end-to-end metric on which workload it should move.
    pub what: &'static str,
}

pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "wire_kv",
        why: "closed loop, window 256, kv GET/SCAN mix over loopback UDP: transport, net, job factory, kv store and SCANs preempted behind GETs",
        gated: true,
    },
    WorkloadSpec {
        name: "rt_admit",
        why: "in-process closed loop, window 1024, zero-service jobs: admission and completion paths without any socket",
        gated: true,
    },
    WorkloadSpec {
        name: "rt_slice",
        why: "in-process closed loop, window 64, jobs that yield 255 times: slice rotation with almost no admission",
        gated: true,
    },
    WorkloadSpec {
        name: "sim_sweep",
        why: "single-threaded simulator runs of three engines at two loads: no runtime crate involved, bypasses every live layer",
        gated: true,
    },
    WorkloadSpec {
        name: "wire_flood",
        why: "closed loop, window 256, zero-service 18-byte requests over loopback UDP: cost is all transport/uring/net; by hand, it moves 1.6x with the host's state",
        gated: false,
    },
    WorkloadSpec {
        name: "wire_open",
        why: "open loop, Poisson at a fixed rate, kv GET/SCAN over the wire: queueing and idle wake-ups; by hand, it times the OS scheduler on a 2-core host",
        gated: false,
    },
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    what: &'static str,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
        what,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    what: &'static str,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
        what,
    }
}

use Better::{Higher, Lower};

/// Every workload reports every one of these with tracing off. An
/// operation is a request on the live workloads and one simulated event on
/// `sim_sweep`.
pub const END_TO_END: &[MetricSpec] = &[
    e2e("setup_s", "s", Lower, 0.25, "start of a trial to its first timed operation: inputs, kv store, clock calibration, server, sockets"),
    e2e("wall_ns_per_op", "ns", Lower, 0.25, "trial wall time / completed operations"),
    e2e("cpu_ns_per_op", "ns", Lower, 0.25, "process user+system CPU over the timed window / completed operations"),
];

/// Reported by the traced run. A metric of a layer the workload does not
/// cross reads 0 there; everything under the micro pass is measured on
/// every traced run.
pub const PER_LAYER: &[MetricSpec] = &[
    // The benchmark's own client.
    layer("loadgen.lag_p99_us", "us", Lower, "how late the generator sent (untraced trials) -> validity of lat_* on wire_open"),
    layer("loadgen.send_ns_per_frame", "ns", Lower, "client time inside send calls per frame"),
    layer("loadgen.recv_ns_per_frame", "ns", Lower, "client time inside receive calls that returned frames, per frame"),
    layer("loadgen.slo_miss_share", "share", Lower, "requests slower than the frozen per-class limit, failures included -> lat_p99_us/wire_open"),
    layer("loadgen.short_pmax_us", "us", Lower, "short-class latency at the highest percentile with 10 samples beyond it -> lat_p99_us/wire_open"),
    layer("loadgen.trials_discarded", "count", Lower, "trials the host disturbed (kernel-dropped datagrams, a backlog) that were discarded and repeated; more than 2 fail the pass"),
    layer("lat_p50_us", "us", Lower, "median operation latency (untraced trials): due time (open loop) or hand-over (closed loop) to receipt; GET class on wire_open; did not repeat within a bound"),
    layer("lat_p99_us", "us", Lower, "99th percentile of the same latency; did not repeat within a bound"),
    layer("long_p50_us", "us", Lower, "median SCAN latency from due time -> worker/job on wire_open"),
    // transport / uring
    layer("transport.tier", "code", Higher, "server transport: 1 udp:mmsg, 2 uring:rw, 3 uring:fixed, 4 uring:recvmsg, 5 uring:multishot"),
    layer("transport.recv_ns_per_frame", "ns", Lower, "server time inside recv_batch calls that returned frames -> wall_ns_per_op/wire_flood, none on rt_*"),
    layer("transport.send_ns_per_frame", "ns", Lower, "server time inside send_batch -> wall_ns_per_op/wire_flood"),
    layer("transport.frames_per_recv", "count", Higher, "frames per receive call that returned any"),
    layer("transport.frames_per_send", "count", Higher, "frames per send call"),
    layer("transport.empty_recv_share", "share", Lower, "receive polls that returned nothing / polls -> cpu_ns_per_op/wire_open"),
    layer("transport.enter_calls_per_req", "count", Lower, "io_uring_enter calls per request -> wall_ns_per_op/wire_flood"),
    layer("transport.echo_ns_per_frame.mmsg", "ns", Lower, "micro: bare echo, no server behind, udp:mmsg"),
    layer("transport.echo_ns_per_frame.per_datagram", "ns", Lower, "micro: bare echo, one syscall per frame"),
    layer("transport.echo_ns_per_frame.uring", "ns", Lower, "micro: bare echo over the probe-selected io_uring tier; 0 = skipped"),
    // net
    layer("net.codec_ns_per_req", "ns", Lower, "micro: encode+decode of request and response -> wall_ns_per_op/wire_flood"),
    layer("net.slab_ns_per_req", "ns", Lower, "micro: InFlightSlab insert+remove -> wall_ns_per_op/wire_flood"),
    layer("net.ingest_ns_per_req", "ns", Lower, "mean recv_batch return -> submitted stamp"),
    layer("net.max_in_flight", "count", Lower, "highest slab occupancy"),
    layer("net.shed", "count", Lower, "requests shed (a failure on every workload here)"),
    layer("net.malformed", "count", Lower, "datagrams rejected (a failure on every workload here)"),
    // server
    layer("server.submit_ns_per_req", "ns", Lower, "client time inside submit_burst per request -> wall_ns_per_op/rt_admit"),
    layer("server.drain_ns_per_completion", "ns", Lower, "client time inside drain_completions_into per completion -> wall_ns_per_op/rt_admit"),
    layer("server.start_s", "s", Lower, "micro: start_with_clock of an idle 2-worker server -> setup_s"),
    layer("server.shutdown_s", "s", Lower, "micro: shutdown_with_stats of an idle server"),
    // dispatcher
    layer("dispatcher.busy_ns_per_req", "ns", Lower, "DispatcherStats busy time per forwarded request -> wall_ns_per_op/rt_admit"),
    layer("dispatcher.mean_burst", "count", Higher, "requests per dispatcher burst"),
    layer("dispatcher.ring_full_retries_per_kreq", "count", Lower, "backpressure retries per 1000 requests"),
    // ring
    layer("ring.xfer_ns_per_item", "ns", Lower, "micro: two threads, push_batch/pop_batch of 64 -> wall_ns_per_op/rt_admit"),
    layer("ring.single_ns_per_item", "ns", Lower, "micro: one thread, push then pop"),
    // worker
    layer("worker.quanta_per_req", "count", Lower, "quanta executed per completed request"),
    layer("worker.ns_per_quantum", "ns", Lower, "trial wall x workers / quanta -> wall_ns_per_op/rt_slice"),
    layer("worker.switch_gap_ns_p50", "ns", Lower, "one run() return to the next run() call on that worker -> wall_ns_per_op/rt_slice"),
    layer("worker.switch_gap_ns_p99", "ns", Lower, "99th percentile of the same gap"),
    layer("worker.idle_iter_per_req", "count", Lower, "scheduler-loop iterations that found nothing, per request -> cpu_ns_per_op/wire_open"),
    layer("worker.max_ring_occupancy", "count", Lower, "dispatch-ring high-water mark"),
    layer("worker.imbalance", "ratio", Lower, "most / fewest jobs completed by a worker"),
    // job: measured counterparts of the constants in tq_core::costs
    layer("job.clock_now_ns", "ns", Lower, "micro: TscClock::now"),
    layer("job.probe_ns", "ns", Lower, "micro: QuantumCtx::probe before the deadline"),
    layer("job.arm_ns", "ns", Lower, "micro: QuantumCtx::arm"),
    layer("job.yield_ns", "ns", Lower, "micro: SpinJob through QuantumCtx, (wall - service) / slices -> lat_p50_us/wire_open long class"),
    layer("job.overshoot_p50_ns", "ns", Lower, "micro: slice length - quantum"),
    layer("job.overshoot_p99_ns", "ns", Lower, "micro: 99th percentile of the same"),
    layer("job.factory_ns", "ns", Lower, "micro: one job-factory call (Box<dyn Job>) and drop -> wall_ns_per_op/rt_admit"),
    // kv
    layer("kv.get_ns", "ns", Lower, "micro: KvStore::get on 200k keys -> lat_p50_us/wire_open"),
    layer("kv.scan_ns_per_entry", "ns", Lower, "micro: KvStore::scan per entry -> long_p50_us/wire_open"),
    layer("kv.populate_s", "s", Lower, "micro: kv_store(seed, 200k, 100) -> setup_s/wire_open"),
    // core
    layer("core.pick_ns", "ns", Lower, "micro: JSQ-MSQ Dispatcher::pick over 16 workers -> wall_ns_per_op/sim_sweep"),
    layer("core.controller_ns_per_sample", "ns", Lower, "micro: QuantumController record + advance"),
    // sim
    layer("sim.events.push_pop_ns", "ns", Lower, "micro: EventQueue push+pop at 1k fill -> wall_ns_per_op/sim_sweep"),
    layer("sim.metrics.summarize_ns_per_completion", "ns", Lower, "micro: tq_harness::summarize per completion"),
    layer("sim.pdes.windows", "count", Lower, "micro: lookahead windows of one rack run (exact)"),
    layer("sim.pdes.messages_per_event", "ratio", Lower, "micro: cross-shard messages per event (exact)"),
    layer("sim.pdes.sharded_speedup", "ratio", Higher, "micro: rack run wall, threads 1 / threads 2 (informational on 2 cores)"),
    layer("sim_twolevel_meps", "1/us", Higher, "million sim events per wall second of run_to_record, two-level engine"),
    layer("sim_central_meps", "1/us", Higher, "the same, centralized engine"),
    layer("sim_rack_meps", "1/us", Higher, "the same, rack engine on one thread"),
    // queueing
    layer("queueing.twolevel.ns_per_event", "ns", Lower, "Engine::run only, per event -> sim_twolevel_meps"),
    layer("queueing.centralized.ns_per_event", "ns", Lower, "Engine::run only, per event -> sim_central_meps"),
    layer("queueing.rack.ns_per_event", "ns", Lower, "Engine::run only, per event -> sim_rack_meps"),
    layer("queueing.twolevel.events_per_completion", "count", Lower, "exact count"),
    layer("queueing.centralized.events_per_completion", "count", Lower, "exact count"),
    layer("queueing.rack.events_per_completion", "count", Lower, "exact count"),
    layer("workloads.arrivals_ns_per_arrival", "ns", Lower, "micro: ArrivalGen::until per arrival -> sim_*_meps, setup_s/wire_open"),
    layer("harness.summarize_share", "share", Lower, "summarize time / (run + summarize) over the sweep"),
    // the cost of looking
    layer("audit.overhead_share", "share", Lower, "micro: short wire flood with ServerConfig.audit on / off - 1"),
    layer("trace.overhead_share", "share", Lower, "this workload, median latency of the traced trial / untraced - 1"),
    // stage ledger of the traced trial; the stages of one request sum to its round trip
    layer("stage.gen_lag_p50_ns", "ns", Lower, "due -> send (closed loop: slot free -> hand-over)"),
    layer("stage.gen_lag_p99_ns", "ns", Lower, ""),
    layer("stage.wire_in_p50_ns", "ns", Lower, "client send -> server recv_batch return"),
    layer("stage.wire_in_p99_ns", "ns", Lower, ""),
    layer("stage.ingest_p50_ns", "ns", Lower, "-> submitted stamp (in-process: from the submit_burst call)"),
    layer("stage.ingest_p99_ns", "ns", Lower, ""),
    layer("stage.dispatch_hop_p50_ns", "ns", Lower, "submitted -> job-factory call on a worker -> lat_p50_us/wire_open, wall_ns_per_op/rt_admit"),
    layer("stage.dispatch_hop_p99_ns", "ns", Lower, ""),
    layer("stage.admit_p50_ns", "ns", Lower, "factory call -> first run()"),
    layer("stage.admit_p99_ns", "ns", Lower, ""),
    layer("stage.service_p50_ns", "ns", Lower, "sum of run() durations"),
    layer("stage.service_p99_ns", "ns", Lower, ""),
    layer("stage.preempted_p50_ns", "ns", Lower, "sum of gaps between slices -> wall_ns_per_op/rt_slice, long_p50_us"),
    layer("stage.preempted_p99_ns", "ns", Lower, ""),
    layer("stage.completion_hop_p50_ns", "ns", Lower, "last run() return -> send_batch start (in-process: -> drain return)"),
    layer("stage.completion_hop_p99_ns", "ns", Lower, ""),
    layer("stage.tx_p50_ns", "ns", Lower, "inside send_batch, until the client has the frame"),
    layer("stage.tx_p99_ns", "ns", Lower, ""),
    layer("stage.wire_out_p50_ns", "ns", Lower, "send_batch return -> client recv_batch return"),
    layer("stage.wire_out_p99_ns", "ns", Lower, ""),
];

/// The stages of one request, in order.
pub const STAGES: [&str; 10] = [
    "gen_lag",
    "wire_in",
    "ingest",
    "dispatch_hop",
    "admit",
    "service",
    "preempted",
    "completion_hop",
    "tx",
    "wire_out",
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn metric(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}
