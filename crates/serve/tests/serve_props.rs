//! Property tests of the serving path.
//!
//! 1. **Interleaving bit-identity** (the tentpole contract): N clients ×
//!    random arrival orders × random batch caps × both backends, driven
//!    through the real queue/batcher and the serve workers' batch step,
//!    [`qucad_serve::server::evaluate_batch`] — every response must equal
//!    a direct single-process `z_scores_seeded` call bit for bit, and no
//!    batch may ever mix structure keys (a batch may span days).
//! 2. **Codec round-trips**: every f64 — NaN and −0.0 included — crosses
//!    the wire bit-exactly.

use proptest::prelude::*;
use qnn::executor::{ProgramCacheHandle, SimBackend};
use qucad_serve::batch::{BatchQueue, PendingEval};
use qucad_serve::codec::{
    decode_request, decode_response, encode_request, encode_response, Request, Response,
    ServeStats, WireMatchOutcome,
};
use qucad_serve::scenario::ServeScenario;
use qucad_serve::server::evaluate_batch;

/// One logical client request in the generated workload.
#[derive(Debug, Clone)]
struct Workload {
    client: u64,
    day: u32,
    palette: usize,
    stream: u64,
    /// Arrival-order priority (the "random interleaving" knob: requests
    /// are pushed in priority order, so clients interleave arbitrarily).
    priority: u32,
}

fn arb_workload(days: u32) -> impl Strategy<Value = Vec<Workload>> {
    proptest::collection::vec(
        (0u64..3, 0u32..days, 0usize..3, 0u64..1_000_000, 0u32..1000),
        4..12,
    )
    .prop_map(|v| {
        v.into_iter()
            .map(|(client, day, palette, stream, priority)| Workload {
                client,
                day,
                palette,
                stream,
                priority,
            })
            .collect()
    })
}

/// The request palette: weight pattern `p` zeroes the first `3 p`
/// weights (three distinct structure keys), features vary per client
/// (same structure, different values — they must still batch together
/// and come back bit-exact).
fn palette_weights(n: usize, p: usize) -> Vec<f64> {
    (0..n).map(|j| if j < 3 * p { 0.0 } else { 0.9 }).collect()
}

fn client_features(client: u64) -> Vec<f64> {
    vec![
        0.3 + 0.1 * client as f64,
        0.8,
        1.4 - 0.05 * client as f64,
        2.1,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// The full in-process serving pipeline — queue, structure batcher,
    /// the workers' batch step on one executor — against the direct path.
    #[test]
    fn interleaved_batched_serving_is_bit_identical_to_direct(
        workload in arb_workload(2),
        max_batch in prop_oneof![Just(1usize), Just(2), Just(8)],
        eager_drain in any::<bool>(),
        backend_pick in any::<bool>(),
    ) {
        let mut scenario = ServeScenario::build("belem", 2, 11);
        scenario.options.backend = if backend_pick {
            SimBackend::Trajectory
        } else {
            SimBackend::Density
        };
        scenario.options.trajectories = 16;

        let mut ordered = workload.clone();
        ordered.sort_by_key(|w| w.priority);

        // One executor, as the server's workers share it.
        let exec = scenario.executor(ProgramCacheHandle::new());

        let queue: BatchQueue<usize> = BatchQueue::new(64, max_batch);
        let mut responses: Vec<Option<Vec<f64>>> = vec![None; ordered.len()];
        let drain = |queue: &BatchQueue<usize>, responses: &mut Vec<Option<Vec<f64>>>| {
            while !queue.is_empty() {
                let batch = queue.next_batch().expect("open queue");
                // Batch purity: one structure per batch, on any days.
                for p in &batch {
                    prop_assert!(p.key == batch[0].key, "batch crossed structure keys");
                }
                prop_assert!(batch.len() <= max_batch);
                let z = evaluate_batch(&exec, &scenario.snapshots, &batch);
                for (p, z) in batch.iter().zip(z) {
                    responses[p.ctx] = Some(z);
                }
            }
            Ok(())
        };

        for (slot, w) in ordered.iter().enumerate() {
            let features = client_features(w.client);
            let weights = palette_weights(scenario.model.n_weights(), w.palette);
            let key = scenario.group_key(&features, &weights);
            queue
                .push(PendingEval {
                    request_id: slot as u64,
                    client_id: w.client,
                    day: w.day,
                    stream: w.stream,
                    features,
                    weights,
                    key,
                    ctx: slot,
                })
                .expect("open queue");
            // Eager mode drains after every push (max batch pressure 1);
            // lazy mode lets the whole workload pool up first (max
            // cross-client and cross-day grouping). Real serving sits in
            // between.
            if eager_drain {
                drain(&queue, &mut responses)?;
            }
        }
        drain(&queue, &mut responses)?;

        // Direct path: a fresh private-cache executor per request.
        for (slot, w) in ordered.iter().enumerate() {
            let direct = scenario.executor(ProgramCacheHandle::new());
            let features = client_features(w.client);
            let weights = palette_weights(scenario.model.n_weights(), w.palette);
            let want = direct.z_scores_seeded(
                &features,
                &weights,
                &scenario.snapshots[w.day as usize],
                w.stream,
            );
            let got = responses[slot].as_ref().expect("response delivered");
            prop_assert_eq!(got.len(), want.len());
            for (a, b) in got.iter().zip(want.iter()) {
                prop_assert!(
                    a.to_bits() == b.to_bits(),
                    "slot {} {} vs {} (backend={:?}, max_batch={})",
                    slot, a, b, scenario.options.backend, max_batch
                );
            }
        }
    }

    /// Requests round-trip the codec bit-exactly, NaN payloads included.
    #[test]
    fn request_codec_roundtrips_bit_exactly(
        request_id in any::<u64>(),
        client_id in any::<u64>(),
        day in any::<u32>(),
        stream in any::<u64>(),
        features in arb_f64_vec(6),
        weights in arb_f64_vec(12),
    ) {
        let req = Request::Eval {
            request_id, client_id, day, stream,
            features: features.clone(),
            weights: weights.clone(),
        };
        let got = decode_request(&encode_request(&req)).expect("roundtrip");
        let Request::Eval { features: gf, weights: gw, request_id: gid, .. } = got else {
            panic!("wrong variant");
        };
        prop_assert_eq!(gid, request_id);
        for (a, b) in gf.iter().zip(features.iter()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in gw.iter().zip(weights.iter()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Responses round-trip the codec bit-exactly.
    #[test]
    fn response_codec_roundtrips_bit_exactly(
        request_id in any::<u64>(),
        z in arb_f64_vec(5),
        nearest in arb_f64(),
        message_pick in 0usize..3,
    ) {
        let message = ["", "bad day", "weights must be finite"][message_pick].to_string();
        for resp in [
            Response::Scores { request_id, z: z.clone() },
            Response::MatchResult {
                request_id,
                outcome: WireMatchOutcome::Miss { nearest_distance: nearest },
            },
            Response::StatsReport {
                request_id,
                stats: ServeStats {
                    requests: 10, batches: 4, cross_client_batches: 2,
                    peak_batch: 3, cache_hits: 8, cache_misses: 2,
                },
            },
            Response::Error { request_id, message: message.clone() },
            Response::ShuttingDown { request_id },
        ] {
            let got = decode_response(&encode_response(&resp)).expect("roundtrip");
            match (&got, &resp) {
                (Response::Scores { z: a, .. }, Response::Scores { z: b, .. }) => {
                    for (x, y) in a.iter().zip(b.iter()) {
                        prop_assert_eq!(x.to_bits(), y.to_bits());
                    }
                }
                (
                    Response::MatchResult { outcome: WireMatchOutcome::Miss { nearest_distance: a }, .. },
                    Response::MatchResult { outcome: WireMatchOutcome::Miss { nearest_distance: b }, .. },
                ) => prop_assert_eq!(a.to_bits(), b.to_bits()),
                _ => prop_assert_eq!(&got, &resp),
            }
        }
    }
}

/// f64 values including the awkward ones (NaN, infinities, −0.0).
fn arb_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(-0.0),
        Just(0.0),
        -1e300f64..1e300,
    ]
}

fn arb_f64_vec(max: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(arb_f64(), 0..max)
}
