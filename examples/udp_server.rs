//! The paper's full serving loop over real (loopback) UDP.
//!
//! Starts a Tiny Quanta server behind the UDP front-end, then plays the
//! role of the paper's open-loop client: Poisson arrivals of a bimodal
//! request mix sent as datagrams, end-to-end latency measured from the
//! responses — network round trip included, exactly the §5.1 methodology
//! (scaled to loopback and a handful of oversubscribed worker threads).
//!
//! Run with: `cargo run --release --example udp_server`

use std::net::UdpSocket;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tq_core::Nanos;
use tq_runtime::net::{decode_response, encode_request, serve_udp};
use tq_runtime::{ServerConfig, SpinJob, TinyQuanta, TscClock};
use tq_sim::{SimRng, TailStats};

fn main() {
    // --- server side -----------------------------------------------------
    let clock = TscClock::calibrated();
    let server = TinyQuanta::start(
        ServerConfig {
            workers: 2,
            quantum: Nanos::from_micros(5),
            ..ServerConfig::default()
        },
        {
            let clock = clock.clone();
            move |req| Box::new(SpinJob::with_clock(req, &clock))
        },
    );
    let srv_sock = UdpSocket::bind("127.0.0.1:0").expect("bind server socket");
    let srv_addr = srv_sock.local_addr().unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let server_thread = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || serve_udp(server, srv_sock, stop))
    };
    println!("serving on {srv_addr}");

    // --- open-loop client --------------------------------------------------
    let client = UdpSocket::bind("127.0.0.1:0").expect("bind client socket");
    client
        .set_read_timeout(Some(Duration::from_millis(1)))
        .unwrap();
    let mut rng = SimRng::new(7);
    let total: u64 = 1_500;
    let mean_gap_us = 300.0; // ~3.3 krps: gentle for 2 oversubscribed workers
    let mut sent_at = vec![Instant::now(); total as usize];
    let mut lat_by_class: [TailStats; 2] = [TailStats::new(), TailStats::new()];
    let mut received = 0u64;
    let mut buf = [0u8; 64];

    let mut recv_pending = |lat_by_class: &mut [TailStats; 2],
                            received: &mut u64,
                            sent_at: &[Instant]| {
        while let Ok((n, _)) = client.recv_from(&mut buf) {
            if let Some((tag, _sojourn, _quanta)) = decode_response(&buf[..n]) {
                let e2e = sent_at[tag as usize].elapsed();
                let class = if tag % 100 == 99 { 1 } else { 0 };
                lat_by_class[class].record(e2e.as_nanos() as u64);
                *received += 1;
            }
        }
    };

    for tag in 0..total {
        // Poisson arrivals.
        let gap = rng.exp_nanos(mean_gap_us * 1_000.0);
        std::thread::sleep(Duration::from_nanos(gap.as_nanos()));
        let (class, service_us) = if tag % 100 == 99 { (1u16, 500) } else { (0u16, 5) };
        sent_at[tag as usize] = Instant::now();
        let req = encode_request(class, Nanos::from_micros(service_us), tag);
        client.send_to(&req, srv_addr).unwrap();
        recv_pending(&mut lat_by_class, &mut received, &sent_at);
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while received < total && Instant::now() < deadline {
        recv_pending(&mut lat_by_class, &mut received, &sent_at);
    }
    stop.store(true, Ordering::Release);
    let stats = server_thread.join().unwrap().expect("server ok");

    // --- report -----------------------------------------------------------
    println!(
        "server: received {} / responded {} / malformed {} / shed {}",
        stats.received, stats.responded, stats.malformed, stats.shed
    );
    println!(
        "transport: {:.1} frames per recv syscall, {:.1} per send",
        stats.transport.frames_per_recv_call(),
        stats.transport.frames_per_send_call()
    );
    for (class, name) in [(0usize, "short (5us)"), (1usize, "long (500us)")] {
        let s = &mut lat_by_class[class];
        if s.is_empty() {
            continue;
        }
        println!(
            "{name:<14} n={:<5} p50={:<12} p99={:<12} (end-to-end over loopback UDP)",
            s.count(),
            Nanos::from_nanos(s.percentile(50.0)).to_string(),
            Nanos::from_nanos(s.percentile(99.0)).to_string(),
        );
    }
    assert_eq!(received, total, "every request must be answered");
    println!("done: {received} responses matched");
    println!(
        "note: on an oversubscribed host (client + serve loop + workers sharing\n\
         few cores) absolute latencies are dominated by OS thread scheduling;\n\
         the paper's microsecond tails require dedicated physical cores."
    );
}
