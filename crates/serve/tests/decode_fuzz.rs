//! Seeded byte-string tests of every decode boundary: the wire codec's
//! `decode_request`, `decode_response` and `read_frame`, and the one
//! decoder of outside calibration data, `calibration::io::from_csv`.
//!
//! Each decoder gets 4 000 splitmix64-seeded inputs. Half are random
//! bytes; the other half are valid frames (or CSV) with one to four bytes
//! changed, or cut short. No input may panic, and `read_frame` must
//! refuse a length prefix above `MAX_FRAME_BYTES` from the prefix alone,
//! before it reads, or sizes a buffer for, the body.

use calibration::history::HistoryConfig;
use calibration::io::{from_csv, to_csv};
use calibration::topology::Topology;
use qucad_serve::codec::{
    decode_request, decode_response, encode_request, encode_response, read_frame, write_frame,
    Request, Response, ServeStats, WireMatchOutcome, MAX_FRAME_BYTES,
};
use std::io::{self, Cursor};

const CASES: u64 = 4000;

/// splitmix64: a small, seedable, dependency-free byte source.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn bytes(&mut self, max_len: usize) -> Vec<u8> {
        let len = self.below(max_len + 1);
        (0..len).map(|_| self.next() as u8).collect()
    }

    fn f64s(&mut self, max_len: usize) -> Vec<f64> {
        let len = self.below(max_len + 1);
        (0..len).map(|_| f64::from_bits(self.next())).collect()
    }

    /// `valid` with one to four bytes replaced by `byte()`, or cut short.
    fn corrupt(&mut self, mut valid: Vec<u8>, byte: impl Fn(&mut Self) -> u8) -> Vec<u8> {
        if valid.is_empty() || self.below(3) == 0 {
            let keep = self.below(valid.len() + 1);
            valid.truncate(keep);
            return valid;
        }
        for _ in 0..1 + self.below(4) {
            let at = self.below(valid.len());
            valid[at] = byte(self);
        }
        valid
    }
}

fn random_byte(rng: &mut SplitMix) -> u8 {
    rng.next() as u8
}

fn arb_request(rng: &mut SplitMix) -> Request {
    let request_id = rng.next();
    match rng.below(4) {
        0 => Request::Eval {
            request_id,
            client_id: rng.next(),
            day: rng.next() as u32,
            stream: rng.next(),
            features: rng.f64s(6),
            weights: rng.f64s(40),
        },
        1 => Request::MatchModel {
            request_id,
            features: rng.f64s(12),
        },
        2 => Request::Stats { request_id },
        _ => Request::Shutdown { request_id },
    }
}

fn arb_response(rng: &mut SplitMix) -> Response {
    let request_id = rng.next();
    match rng.below(5) {
        0 => Response::Scores {
            request_id,
            z: rng.f64s(8),
        },
        1 => Response::MatchResult {
            request_id,
            outcome: match rng.below(3) {
                0 => WireMatchOutcome::Hit {
                    index: rng.next() as u32,
                    distance: f64::from_bits(rng.next()),
                },
                1 => WireMatchOutcome::Miss {
                    nearest_distance: f64::from_bits(rng.next()),
                },
                _ => WireMatchOutcome::Invalid {
                    index: rng.next() as u32,
                    predicted_accuracy: f64::from_bits(rng.next()),
                },
            },
        },
        2 => Response::StatsReport {
            request_id,
            stats: ServeStats {
                requests: rng.next(),
                batches: rng.next(),
                cross_client_batches: rng.next(),
                peak_batch: rng.next() as u32,
                cache_hits: rng.next(),
                cache_misses: rng.next(),
            },
        },
        3 => Response::Error {
            request_id,
            message: "é-unicode ".repeat(rng.below(4)),
        },
        _ => Response::ShuttingDown { request_id },
    }
}

#[test]
fn decode_request_never_panics_on_arbitrary_bytes() {
    let mut rng = SplitMix(0x5EED_0001);
    for case in 0..CASES {
        let bytes = if case % 2 == 0 {
            rng.bytes(96)
        } else {
            let valid = encode_request(&arb_request(&mut rng));
            rng.corrupt(valid, random_byte)
        };
        let _ = decode_request(&bytes);
    }
}

#[test]
fn decode_response_never_panics_on_arbitrary_bytes() {
    let mut rng = SplitMix(0x5EED_0002);
    for case in 0..CASES {
        let bytes = if case % 2 == 0 {
            rng.bytes(96)
        } else {
            let valid = encode_response(&arb_response(&mut rng));
            rng.corrupt(valid, random_byte)
        };
        let _ = decode_response(&bytes);
    }
}

#[test]
fn read_frame_never_panics_and_refuses_oversize_prefixes_unread() {
    let mut rng = SplitMix(0x5EED_0003);
    let mut oversize = 0;
    for case in 0..CASES {
        let bytes = if case % 2 == 0 {
            rng.bytes(64)
        } else {
            let mut wire = Vec::new();
            let payload = if rng.below(2) == 0 {
                encode_request(&arb_request(&mut rng))
            } else {
                encode_response(&arb_response(&mut rng))
            };
            write_frame(&mut wire, &payload).expect("write to a Vec");
            rng.corrupt(wire, random_byte)
        };
        let mut reader = Cursor::new(&bytes);
        let result = read_frame(&mut reader);
        let prefix = bytes
            .get(..4)
            .map(|p| u32::from_le_bytes(p.try_into().expect("4 bytes")) as usize);
        match prefix {
            Some(len) if len > MAX_FRAME_BYTES => {
                oversize += 1;
                let err = result.expect_err("an oversize prefix must be refused");
                assert_eq!(err.kind(), io::ErrorKind::InvalidData, "case {case}");
                assert_eq!(
                    reader.position(),
                    4,
                    "case {case}: body read past the prefix"
                );
            }
            _ => {
                if let Ok(Some(payload)) = result {
                    assert!(payload.len() <= MAX_FRAME_BYTES);
                    let _ = decode_request(&payload);
                    let _ = decode_response(&payload);
                }
            }
        }
    }
    assert!(
        oversize > CASES / 4,
        "only {oversize} oversize prefixes drawn"
    );
}

#[test]
fn from_csv_never_panics_on_arbitrary_bytes() {
    // Bytes that reach past the header and into the number parser.
    const CSV_BYTES: &[u8] = b",\n\r -+.0123456789eEinfINFNaN";
    let topo = Topology::ibm_belem();
    let history = HistoryConfig::belem_like(3, 11).generate(&topo);
    let valid_csv = to_csv(&topo, &history).into_bytes();
    let mut rng = SplitMix(0x5EED_0004);
    for case in 0..CASES {
        let bytes = if case % 2 == 0 {
            rng.bytes(128)
        } else {
            let valid = valid_csv.clone();
            if rng.below(2) == 0 {
                rng.corrupt(valid, random_byte)
            } else {
                rng.corrupt(valid, |r| CSV_BYTES[r.below(CSV_BYTES.len())])
            }
        };
        let _ = from_csv(&topo, &String::from_utf8_lossy(&bytes));
    }
}
