//! End-to-end test of `qucad-serve` over real TCP: several concurrent
//! pipelined clients, bit-identity against the direct in-process path,
//! the repository match outcomes, validation errors, counters, and a
//! clean shutdown join.

use std::net::SocketAddr;
use std::sync::Arc;

use qnn::executor::ProgramCacheHandle;
use qucad_serve::client::ServeClient;
use qucad_serve::codec::{Request, Response, WireMatchOutcome};
use qucad_serve::scenario::ServeScenario;
use qucad_serve::server::{serve, ServerConfig};

const DEVICE: &str = "belem";
const DAYS: usize = 2;
const SEED: u64 = 7;

fn start_server() -> (qucad_serve::server::ServerHandle, SocketAddr) {
    let scenario = ServeScenario::build(DEVICE, DAYS, SEED);
    let handle = serve(
        scenario,
        ServerConfig {
            port: 0,
            workers: 2,
            max_batch: 8,
            queue_depth: 64,
        },
    )
    .expect("bind ephemeral port");
    let addr = handle.addr();
    (handle, addr)
}

/// Weight pattern `p` zeroes a prefix: three distinct structure keys
/// shared across clients, so concurrent load actually forms
/// cross-client batches.
fn palette_weights(n: usize, p: usize) -> Vec<f64> {
    (0..n).map(|j| if j < 3 * p { 0.0 } else { 0.9 }).collect()
}

#[test]
fn concurrent_clients_get_bit_identical_scores_and_server_shuts_down_cleanly() {
    let (handle, addr) = start_server();
    let scenario = Arc::new(ServeScenario::build(DEVICE, DAYS, SEED));

    const CLIENTS: u64 = 3;
    const REQUESTS_PER_CLIENT: u64 = 8;

    std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for client_id in 0..CLIENTS {
            let scenario = Arc::clone(&scenario);
            joins.push(scope.spawn(move || {
                let mut client = ServeClient::connect(addr).expect("connect");
                let requests: Vec<Request> = (0..REQUESTS_PER_CLIENT)
                    .map(|i| Request::Eval {
                        request_id: client_id * 1000 + i,
                        client_id,
                        day: (i % DAYS as u64) as u32,
                        stream: 17 * client_id + i,
                        features: vec![0.3 + 0.1 * client_id as f64, 0.8, 1.4, 2.1],
                        weights: palette_weights(scenario.model.n_weights(), (i % 3) as usize),
                    })
                    .collect();
                // Pipelined burst: all requests in flight at once, so the
                // server sees concurrent same-structure work to batch.
                let responses = client.eval_all(&requests).expect("eval burst");
                assert_eq!(responses.len(), requests.len(), "every request answered");

                let direct = scenario.executor(ProgramCacheHandle::new());
                for req in &requests {
                    let Request::Eval {
                        request_id,
                        day,
                        stream,
                        features,
                        weights,
                        ..
                    } = req
                    else {
                        unreachable!()
                    };
                    let want = direct.z_scores_seeded(
                        features,
                        weights,
                        &scenario.snapshots[*day as usize],
                        *stream,
                    );
                    match responses.get(request_id) {
                        Some(Response::Scores { z, .. }) => {
                            assert_eq!(z.len(), want.len());
                            for (a, b) in z.iter().zip(want.iter()) {
                                assert_eq!(
                                    a.to_bits(),
                                    b.to_bits(),
                                    "served {a} != direct {b} (request {request_id})"
                                );
                            }
                        }
                        other => panic!("request {request_id}: unexpected {other:?}"),
                    }
                }
            }));
        }
        for j in joins {
            j.join().expect("client thread");
        }
    });

    // Counters after the load: every admitted request was batched, and
    // the one executor's cache absorbed the repeats. Batches span days,
    // so 3 structures compile once each; the two workers may both miss
    // on a cold structure before either admits it, so at most 6 misses
    // across 24 requests.
    let mut client = ServeClient::connect(addr).expect("connect for stats");
    let stats = client.stats(9000).expect("stats");
    assert_eq!(stats.requests, CLIENTS * REQUESTS_PER_CLIENT);
    assert!(stats.batches >= 1 && stats.batches <= stats.requests);
    assert!(u64::from(stats.peak_batch) <= stats.requests);
    // One structure lookup per batched pass (all probes in a batch share
    // the structure by construction), so the cache counters sum to the
    // batch count, not the request count.
    assert_eq!(stats.cache_hits + stats.cache_misses, stats.batches);
    assert!(
        stats.cache_misses <= 6,
        "at most one miss per structure per worker: {stats:?}"
    );

    client.shutdown(9001).expect("shutdown ack");
    // Clean exit is part of the contract: acceptor joins workers and
    // readers, so join() returning proves nothing leaked or deadlocked.
    handle.join();
}

#[test]
fn match_requests_cover_all_outcomes_and_reject_non_finite() {
    let (handle, addr) = start_server();
    let scenario = ServeScenario::build(DEVICE, DAYS, SEED);
    let dim = scenario.repository.distance_weights().len();
    let mut client = ServeClient::connect(addr).expect("connect");

    // Day-0 centroid → exact hit on entry 0.
    let hit = client
        .call(&Request::MatchModel {
            request_id: 1,
            features: scenario.snapshots[0].feature_vector(),
        })
        .expect("match");
    match hit {
        Response::MatchResult {
            outcome: WireMatchOutcome::Hit { index, distance },
            ..
        } => {
            assert_eq!(index, 0);
            assert_eq!(distance, 0.0);
        }
        other => panic!("expected Hit, got {other:?}"),
    }

    // Day-1 centroid → its entry is the deliberately invalid cluster.
    let invalid = client
        .call(&Request::MatchModel {
            request_id: 2,
            features: scenario.snapshots[1].feature_vector(),
        })
        .expect("match");
    match invalid {
        Response::MatchResult {
            outcome:
                WireMatchOutcome::Invalid {
                    index,
                    predicted_accuracy,
                },
            ..
        } => {
            assert_eq!(index, 1);
            assert_eq!(predicted_accuracy, 0.4);
        }
        other => panic!("expected Invalid, got {other:?}"),
    }

    // Far-away query → miss with a finite nearest distance.
    let miss = client
        .call(&Request::MatchModel {
            request_id: 3,
            features: vec![1e6; dim],
        })
        .expect("match");
    match miss {
        Response::MatchResult {
            outcome: WireMatchOutcome::Miss { nearest_distance },
            ..
        } => assert!(nearest_distance.is_finite() && nearest_distance > 0.0),
        other => panic!("expected Miss, got {other:?}"),
    }

    // Non-finite features come back as an in-band error (the wire carries
    // NaN bit-exactly; the *server* refuses it), not a dropped connection.
    for bad in [f64::NAN, f64::INFINITY] {
        let resp = client
            .call(&Request::MatchModel {
                request_id: 4,
                features: vec![bad; dim],
            })
            .expect("transport survives");
        match resp {
            Response::Error { message, .. } => {
                assert!(message.contains("finite"), "unexpected message: {message}");
            }
            other => panic!("expected Error, got {other:?}"),
        }
    }

    // Wrong dimensionality is also an in-band error.
    let resp = client
        .call(&Request::MatchModel {
            request_id: 5,
            features: vec![0.5; dim + 1],
        })
        .expect("transport survives");
    assert!(matches!(resp, Response::Error { .. }));

    client.shutdown(6).expect("shutdown ack");
    handle.join();
}

#[test]
fn invalid_eval_requests_get_in_band_errors() {
    let (handle, addr) = start_server();
    let scenario = ServeScenario::build(DEVICE, DAYS, SEED);
    let n_weights = scenario.model.n_weights();
    let mut client = ServeClient::connect(addr).expect("connect");

    let cases: Vec<(Request, &str)> = vec![
        (
            Request::Eval {
                request_id: 1,
                client_id: 0,
                day: DAYS as u32, // one past the end
                stream: 0,
                features: vec![0.1; 4],
                weights: vec![0.9; n_weights],
            },
            "out of range",
        ),
        (
            Request::Eval {
                request_id: 2,
                client_id: 0,
                day: 0,
                stream: 0,
                features: vec![0.1; 3],
                weights: vec![0.9; n_weights],
            },
            "features",
        ),
        (
            Request::Eval {
                request_id: 3,
                client_id: 0,
                day: 0,
                stream: 0,
                features: vec![f64::NAN, 0.1, 0.2, 0.3],
                weights: vec![0.9; n_weights],
            },
            "finite",
        ),
    ];
    for (req, needle) in cases {
        match client.call(&req).expect("transport survives") {
            Response::Error { message, .. } => {
                assert!(message.contains(needle), "'{message}' lacks '{needle}'");
            }
            other => panic!("expected Error, got {other:?}"),
        }
    }

    // The connection is still healthy after in-band errors: a valid
    // request on the same stream succeeds.
    let ok = client
        .call(&Request::Eval {
            request_id: 4,
            client_id: 0,
            day: 0,
            stream: 5,
            features: vec![0.1, 0.2, 0.3, 0.4],
            weights: vec![0.9; n_weights],
        })
        .expect("valid request after errors");
    assert!(matches!(ok, Response::Scores { .. }));

    client.shutdown(5).expect("shutdown ack");
    handle.join();
}

#[test]
fn server_side_shutdown_unblocks_idle_connections() {
    let (handle, addr) = start_server();
    // An idle connected client must not prevent a clean join: readers
    // notice the flag at their next read timeout and exit.
    let _idle = ServeClient::connect(addr).expect("connect idle client");
    handle.shutdown();
    handle.join();
}
