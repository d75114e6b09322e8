//! The request path under oversubscription and at its timeout edge. Run it
//! pinned to one core as well (`taskset -c 0 cargo test --release -p
//! volap-net`): requesters, service threads and their mailboxes' poll loops
//! then all share it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use volap_net::{Endpoint, NetError, Network};
use volap_obs::Registry;

fn busy_wait(d: Duration) {
    let until = Instant::now() + d;
    while Instant::now() < until {
        std::hint::spin_loop();
    }
}

/// Answer every request after `delay(i)` until told to stop and the queue is
/// dry; returns how many were answered.
fn serve(ep: &Endpoint, stop: &AtomicBool, delay: impl Fn(u64) -> Duration) -> u64 {
    let mut answered = 0;
    loop {
        match ep.recv(Duration::from_millis(5)) {
            Ok(req) => {
                busy_wait(delay(answered));
                req.reply(req.payload.clone()).unwrap();
                answered += 1;
            }
            Err(_) if stop.load(Ordering::SeqCst) => return answered,
            Err(_) => {}
        }
    }
}

#[test]
fn round_trips_never_time_out_under_oversubscription() {
    const REQUESTERS: usize = 4;
    const ROUND_TRIPS: u32 = 50_000;
    let net = Network::new();
    let reg = Registry::new();
    net.attach_obs(&reg);
    let server = net.endpoint("server");
    let stop = AtomicBool::new(false);
    thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| serve(&server, &stop, |_| Duration::ZERO));
        }
        let requesters: Vec<_> = (0..REQUESTERS)
            .map(|r| {
                let ep = net.endpoint(format!("client-{r}"));
                s.spawn(move || {
                    for i in 0..ROUND_TRIPS {
                        let reply =
                            ep.request("server", i.to_le_bytes().to_vec(), Duration::from_secs(2));
                        assert_eq!(
                            reply,
                            Ok(i.to_le_bytes().to_vec()),
                            "requester {r}, round trip {i}"
                        );
                    }
                    assert_eq!(ep.pending_len(), 0);
                })
            })
            .collect();
        for r in requesters {
            r.join().unwrap();
        }
        stop.store(true, Ordering::SeqCst);
    });
    assert_eq!(
        reg.counter("volap_net_requests_total").get(),
        REQUESTERS as u64 * ROUND_TRIPS as u64
    );
    assert_eq!(reg.counter("volap_net_timeouts_total").get(), 0);
    assert_eq!(reg.counter("volap_net_late_replies_total").get(), 0);
}

/// The documented invariant "a timeout with no late reply means the peer
/// never answered": servers that answer *around* the requester's timeout, so
/// that replies keep landing between the requester's wait giving up and its
/// pending entry going away. Every answered request must come back `Ok` or be
/// counted late — none may vanish.
fn answered_is_ok_plus_late(legs: usize, rounds: u64) {
    const TIMEOUT: Duration = Duration::from_micros(100);
    let net = Network::new();
    let reg = Registry::new();
    net.attach_obs(&reg);
    let client = net.endpoint("client");
    let servers: Vec<Endpoint> = (0..legs).map(|i| net.endpoint(format!("s{i}"))).collect();
    let stop = AtomicBool::new(false);
    let mut ok = 0u64;
    let answered: u64 = thread::scope(|s| {
        let handles: Vec<_> = servers
            .iter()
            .map(|ep| {
                // 60..140 µs in 1 µs steps: the reply sweeps across the deadline.
                let stop = &stop;
                s.spawn(move || serve(ep, stop, |i| Duration::from_micros(60 + i % 81)))
            })
            .collect();
        let reqs: Vec<(String, Vec<u8>)> = (0..legs)
            .map(|i| (format!("s{i}"), vec![i as u8]))
            .collect();
        for _ in 0..rounds {
            let replies = match legs {
                1 => vec![client.request("s0", vec![0], TIMEOUT)],
                _ => client.request_many(&reqs, TIMEOUT),
            };
            for reply in replies {
                match reply {
                    Ok(_) => ok += 1,
                    Err(e) => assert_eq!(e, NetError::Timeout),
                }
            }
        }
        stop.store(true, Ordering::SeqCst);
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    let late = reg.counter("volap_net_late_replies_total").get();
    let timeouts = reg.counter("volap_net_timeouts_total").get();
    assert_eq!(
        answered,
        rounds * legs as u64,
        "every request reaches its server"
    );
    assert_eq!(
        ok + late,
        answered,
        "{} answered replies were dropped uncounted ({timeouts} timeouts)",
        answered - ok - late
    );
    assert_eq!(
        ok + timeouts,
        answered,
        "a request is Ok or a timeout, never both"
    );
    assert_eq!(client.pending_len(), 0);
}

#[test]
fn reply_racing_a_single_timeout_is_ok_or_late_never_lost() {
    answered_is_ok_plus_late(1, 30_000);
}

#[test]
fn reply_racing_a_scatter_timeout_is_ok_or_late_never_lost() {
    answered_is_ok_plus_late(2, 15_000);
}
