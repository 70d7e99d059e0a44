//! `serve-mix`: an in-process `qucad-serve` on `ibm_belem` (density
//! backend) driven open loop.
//!
//! One process holds both ends. The generator uses `nproc` threads, each
//! owning one of `nproc` connections, and sends every request at its due
//! time whether or not earlier replies have come back. About 90% of the
//! requests are `Eval`s spread over a palette of 8 weight structures x 8
//! calibration days; about 10% are `MatchModel`s, which the server answers
//! inline on the connection's reader thread instead of through the batch
//! queue. The structure palette is small, so the shared program cache
//! nearly always hits.
//!
//! After a ramp that brackets the knee, a run repeats one measuring cycle
//! until its window is spent:
//!
//! - **burst**: a fixed mix of requests sent back to back (each
//!   connection keeps a window of requests outstanding); the median burst
//!   wall time is `wall_s`.
//! - **reference window**: two seconds open loop at [`REF_RATE`]
//!   requests/s; `Eval` latency is measured from each request's due time.
//!   `p50_ms` is the median over every window's `Eval`s, `p99_ms` the
//!   median of the windows' p99s.
//! - **staircase step**: one second open loop at the current rate, raised
//!   after a step whose p99 over every request stays within
//!   [`P99_LIMIT_MS`] with no growing backlog and lowered after one that
//!   does not. `rate_per_s` is the median rate visited. A refused or
//!   missing reply counts as a failure and as a miss of the limit.
//!
//! Interleaving spreads each figure's samples over the whole run, so a
//! slow stretch of a shared host moves all of them a little rather than
//! one of them a lot.
//!
//! Every served z-score is checked bit for bit against a direct
//! `z_scores_seeded` call and every match outcome against a direct
//! repository match, after the timed windows.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use qnn::data::Sample;
use qnn::executor::{parallel, ProgramCacheHandle, SimBackend};
use qucad::repository::MatchOutcome;
use qucad_serve::codec::{
    decode_response, encode_request, write_frame, Request, Response, ServeStats, WireMatchOutcome,
};
use qucad_serve::scenario::ServeScenario;
use qucad_serve::server::{serve, ServerConfig, ServerHandle};

use crate::replay::{record_trace, thread_scaling, Replay};
use crate::report::{median, percentile, Outcome};
use crate::trace::{self, span};
use crate::{trace_path, Args, SetupTimes, Values};

const DEVICE: &str = "belem";
const DAYS: u64 = 8;
const PALETTE: u64 = 8;
const FEATURE_SETS: u64 = 4;
const STREAMS: u64 = 16;
/// One request in `MATCH_EVERY` is a `MatchModel`.
const MATCH_EVERY: u64 = 10;
/// Requests in one burst.
const BURST: u64 = 4000;
/// Untimed bursts before the first timed one.
const WARM_BURSTS: usize = 5;
/// Requests each connection keeps outstanding during a burst.
const BURST_WINDOW: usize = 64;
/// Rate of the reference windows, requests/s: far below the knee even
/// when a shared host runs at half speed, so the latency there scales with
/// the host instead of jumping into queueing.
const REF_RATE: f64 = 1000.0;
/// p99 latency limit of the rate steps. Far above the service time, so
/// a scheduling stall of a shared host does not fail a step, while a rate
/// the server cannot sustain (its backlog, and so its latency, grows for
/// the whole step) does.
const P99_LIMIT_MS: f64 = 50.0;
/// Fewest measuring cycles: enough reference windows for 1 000
/// `MatchModel` latencies.
const MIN_CYCLES: usize = 6;
/// Length of one reference window; the reported p99 is the median of the
/// windows' p99s.
const P99_WINDOW_S: f64 = 2.0;
/// Open-loop ramp rates, requests/s: the ramp stops at the first rate
/// that fails, and the staircase starts from the last that passed.
const LADDER: &[f64] = &[
    4000.0, 6000.0, 8000.0, 11000.0, 14000.0, 18000.0, 22000.0, 27000.0, 33000.0, 40000.0, 48000.0,
];
/// Length of one ramp step.
const RAMP_STEP_S: f64 = 0.5;
/// Length of one staircase step.
const STAIR_STEP_S: f64 = 1.0;
/// The staircase raises the rate by this factor after a step that passes
/// and lowers it after one that fails; it settles around the knee, and
/// `rate_per_s` is the median rate it visited.
const STAIR_FACTOR: f64 = 1.06;
/// A step's requests still unanswered this long after the last one was
/// due count as missing.
const DRAIN_LIMIT: Duration = Duration::from_secs(3);
/// Outstanding requests per connection beyond which the generator stops
/// sending until replies arrive (the step has long since failed by then;
/// this only bounds memory).
const MAX_OUTSTANDING: usize = 4096;

/// The deterministic request mix of one seed.
struct Mix {
    seed: u64,
    features: Vec<Vec<f64>>,
    palette: Vec<Vec<f64>>,
}

/// What request `i` of a step asks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Body {
    Eval {
        palette: u64,
        day: u64,
        features: u64,
        stream: u64,
    },
    Match {
        day: u64,
    },
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Mix {
    fn new(seed: u64, n_weights: usize) -> Mix {
        let features = (0..FEATURE_SETS)
            .map(|f| {
                (0..4)
                    .map(|j| (splitmix(seed ^ (f * 4 + j)) % 3000) as f64 / 1000.0 + 0.05)
                    .collect()
            })
            .collect();
        // Structure p zeroes its first p weights (compressed gates drop
        // out of the routed circuit); the rest take generic angles.
        let palette = (0..PALETTE as usize)
            .map(|p| {
                (0..n_weights)
                    .map(|j| if j < p { 0.0 } else { 0.35 + 0.07 * j as f64 })
                    .collect()
            })
            .collect();
        Mix {
            seed,
            features,
            palette,
        }
    }

    fn body(&self, salt: u64, i: u64) -> Body {
        let h = splitmix(splitmix(self.seed ^ salt.rotate_left(32)) ^ i);
        if h.is_multiple_of(MATCH_EVERY) {
            return Body::Match {
                day: (h >> 8) % DAYS,
            };
        }
        let h = h >> 8;
        Body::Eval {
            palette: h % PALETTE,
            day: (h / PALETTE) % DAYS,
            features: (h / (PALETTE * DAYS)) % FEATURE_SETS,
            stream: 1 + (h / (PALETTE * DAYS * FEATURE_SETS)) % STREAMS,
        }
    }

    fn request(&self, scenario: &ServeScenario, body: Body, id: u64, client: u64) -> Request {
        match body {
            Body::Eval {
                palette,
                day,
                features,
                stream,
            } => Request::Eval {
                request_id: id,
                client_id: client,
                day: day as u32,
                stream,
                features: self.features[features as usize].clone(),
                weights: self.palette[palette as usize].clone(),
            },
            Body::Match { day } => Request::MatchModel {
                request_id: id,
                features: scenario.snapshots[day as usize].feature_vector(),
            },
        }
    }
}

fn connect(handle: &ServerHandle, n: usize) -> Vec<TcpStream> {
    (0..n)
        .map(|_| {
            let c = TcpStream::connect(handle.addr()).expect("connect to the local server");
            c.set_nodelay(true).expect("set TCP_NODELAY");
            c.set_nonblocking(true).expect("set non-blocking");
            c
        })
        .collect()
}

/// A running server plus the generator's connections.
struct Rig {
    scenario: ServeScenario,
    handle: ServerHandle,
    conns: Vec<TcpStream>,
    mix: Mix,
}

impl Rig {
    fn start(seed: u64, threads: usize) -> Rig {
        let mut scenario = ServeScenario::build(DEVICE, DAYS as usize, seed);
        scenario.options.backend = SimBackend::Density;
        let mix = Mix::new(seed, scenario.model.n_weights());
        let config = ServerConfig {
            workers: threads,
            ..ServerConfig::default()
        };
        let handle = serve(scenario.clone(), config).expect("bind a local port");
        let conns = connect(&handle, threads);
        let mut rig = Rig {
            scenario,
            handle,
            conns,
            mix,
        };
        // Fill the shared program cache: one request per (structure, day).
        let warm: Vec<Body> = (0..PALETTE)
            .flat_map(|p| {
                (0..DAYS).map(move |d| Body::Eval {
                    palette: p,
                    day: d,
                    features: 0,
                    stream: 1,
                })
            })
            .collect();
        let plan = Plan::burst(warm.len() as u64, 0);
        let res = rig.step(&plan, |i| warm[i as usize]);
        assert_eq!(res.missing(), 0, "warm-up requests went unanswered");
        rig
    }

    /// Replaces every connection, so replies a step gave up on cannot
    /// reach a later step.
    fn reconnect(&mut self) {
        self.conns = connect(&self.handle, self.conns.len());
    }

    fn stop(self) {
        drop(self.conns);
        self.handle.shutdown();
        self.handle.join();
    }

    /// Server counters, read on the first connection between steps.
    fn stats(&mut self) -> ServeStats {
        let conn = &mut self.conns[0];
        conn.set_nonblocking(false).expect("set blocking");
        let mut frame = Vec::new();
        write_frame(
            &mut frame,
            &encode_request(&Request::Stats {
                request_id: u64::MAX,
            }),
        )
        .expect("frame into memory");
        conn.write_all(&frame).expect("send stats request");
        let mut header = [0u8; 4];
        conn.read_exact(&mut header).expect("read stats header");
        let mut payload = vec![0u8; u32::from_le_bytes(header) as usize];
        conn.read_exact(&mut payload).expect("read stats payload");
        conn.set_nonblocking(true).expect("set non-blocking");
        match decode_response(&payload).expect("decode stats") {
            Response::StatsReport { stats, .. } => stats,
            other => panic!("expected a stats report, got {other:?}"),
        }
    }

    /// Runs one step: request `i` has body `body(i)` and is due at
    /// `i / rate` seconds after the start, and goes out on connection
    /// `i % nproc`.
    fn step(&mut self, plan: &Plan, body: impl Fn(u64) -> Body + Sync) -> StepResult {
        let n_conns = self.conns.len() as u64;
        let sent = AtomicU64::new(0);
        let received = AtomicU64::new(0);
        let t0 = Instant::now();
        let parent = trace::current();
        let (mid_inflight, end_inflight, per_thread) = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .conns
                .iter_mut()
                .enumerate()
                .map(|(c, conn)| {
                    let (sent, received, body) = (&sent, &received, &body);
                    let (scenario, mix) = (&self.scenario, &self.mix);
                    scope.spawn(move || {
                        trace::with_parent(parent, || {
                            drive(conn, plan, c as u64, n_conns, t0, sent, received, &|i| {
                                mix.request(scenario, body(i), i, c as u64)
                            })
                        })
                    })
                })
                .collect();
            let inflight = || {
                let s = sent.load(Ordering::SeqCst);
                s - received.load(Ordering::SeqCst).min(s)
            };
            let mut mid = 0;
            let mut end = 0;
            if let Some(rate) = plan.rate {
                let span_s = plan.n as f64 / rate;
                sleep_until(t0, span_s / 2.0);
                mid = inflight();
                sleep_until(t0, span_s);
                end = inflight();
            }
            let per_thread: Vec<ThreadResult> = handles
                .into_iter()
                .map(|h| h.join().expect("generator thread panicked"))
                .collect();
            (mid, end, per_thread)
        });
        let wall_s = t0.elapsed().as_secs_f64();
        let mut res = StepResult {
            n: plan.n,
            rate: plan.rate,
            wall_s,
            mid_inflight,
            end_inflight,
            ..StepResult::default()
        };
        for t in per_thread {
            res.replies.extend(t.replies);
            res.late_ms.extend(t.late_ms);
            res.encode_bytes += t.encode_bytes;
            res.decode_bytes += t.decode_bytes;
        }
        if res.missing() > 0 {
            self.reconnect();
        }
        res
    }
}

fn sleep_until(t0: Instant, at_s: f64) {
    let at = Duration::from_secs_f64(at_s);
    let now = t0.elapsed();
    if at > now {
        std::thread::sleep(at - now);
    }
}

/// One step's schedule.
struct Plan {
    n: u64,
    /// Requests/s; `None` sends back to back with a window outstanding.
    rate: Option<f64>,
    salt: u64,
}

impl Plan {
    fn burst(n: u64, salt: u64) -> Plan {
        Plan {
            n,
            rate: None,
            salt,
        }
    }

    fn open(rate: f64, seconds: f64, salt: u64) -> Plan {
        Plan {
            n: ((rate * seconds).round() as u64).max(1),
            rate: Some(rate),
            salt,
        }
    }

    fn due_s(&self, i: u64) -> f64 {
        self.rate.map_or(0.0, |r| i as f64 / r)
    }
}

/// One reply: request index, the latency from its due time, and the
/// response.
struct Reply {
    index: u64,
    latency_ms: f64,
    response: Response,
}

#[derive(Default)]
struct ThreadResult {
    replies: Vec<Reply>,
    late_ms: Vec<f64>,
    encode_bytes: u64,
    decode_bytes: u64,
}

#[derive(Default)]
struct StepResult {
    n: u64,
    rate: Option<f64>,
    wall_s: f64,
    mid_inflight: u64,
    end_inflight: u64,
    replies: Vec<Reply>,
    late_ms: Vec<f64>,
    encode_bytes: u64,
    decode_bytes: u64,
}

impl StepResult {
    fn missing(&self) -> u64 {
        self.n - self.replies.len() as u64
    }

    /// Latencies of every request (a missing reply reads +inf), or of one
    /// kind only.
    fn latencies(&self, kind: Option<bool>, bodies: &BTreeMap<u64, Body>) -> Vec<f64> {
        let is_match = |i: u64| matches!(bodies[&i], Body::Match { .. });
        let mut v: Vec<f64> = self
            .replies
            .iter()
            .filter(|r| kind.is_none_or(|m| is_match(r.index) == m))
            .map(|r| r.latency_ms)
            .collect();
        if kind.is_none() {
            v.extend((0..self.missing()).map(|_| f64::INFINITY));
        }
        v
    }

    /// Whether in-flight requests grew over the second half of the send
    /// window by more than 5% of the requests sent in it.
    fn backlog_grew(&self) -> bool {
        self.rate.is_some()
            && self.end_inflight as f64 - self.mid_inflight as f64 > 0.05 * (self.n as f64 / 2.0)
    }
}

/// The generator loop of one connection: sends its requests when due,
/// reads replies in between, and stops when every request is answered or
/// [`DRAIN_LIMIT`] after the last was due.
#[allow(clippy::too_many_arguments)]
fn drive(
    conn: &mut TcpStream,
    plan: &Plan,
    client: u64,
    n_conns: u64,
    t0: Instant,
    sent: &AtomicU64,
    received: &AtomicU64,
    make: &dyn Fn(u64) -> Request,
) -> ThreadResult {
    let mut res = ThreadResult::default();
    let mine = plan.n / n_conns + u64::from(client < plan.n % n_conns);
    let mut next = client;
    let mut out: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut out_pos = 0;
    let mut inbuf: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut in_pos = 0;
    let mut chunk = vec![0u8; 1 << 16];
    let mut outstanding = 0usize;
    let mut answered = 0u64;
    let window = if plan.rate.is_some() {
        MAX_OUTSTANDING
    } else {
        BURST_WINDOW
    };
    let last_due = Duration::from_secs_f64(plan.due_s(plan.n.saturating_sub(1)));
    while answered < mine {
        let now = t0.elapsed();
        if now > last_due + DRAIN_LIMIT {
            break;
        }
        // Send everything due.
        while next < plan.n && outstanding < window && plan.due_s(next) <= now.as_secs_f64() {
            let req = make(next);
            let payload = span("codec.encode", || encode_request(&req));
            res.encode_bytes += 4 + payload.len() as u64;
            write_frame(&mut out, &payload).expect("frame into memory");
            res.late_ms
                .push((t0.elapsed().as_secs_f64() - plan.due_s(next)) * 1e3);
            outstanding += 1;
            sent.fetch_add(1, Ordering::SeqCst);
            next += n_conns;
        }
        // Flush what the socket takes.
        while out_pos < out.len() {
            match conn.write(&out[out_pos..]) {
                Ok(0) => panic!("server closed the connection"),
                Ok(k) => out_pos += k,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => panic!("send to server: {e}"),
            }
        }
        if out_pos == out.len() {
            out.clear();
            out_pos = 0;
        }
        // Read what has arrived.
        let mut got = false;
        loop {
            match conn.read(&mut chunk) {
                Ok(0) => panic!("server closed the connection"),
                Ok(k) => {
                    inbuf.extend_from_slice(&chunk[..k]);
                    got = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => panic!("read from server: {e}"),
            }
        }
        let arrived = t0.elapsed().as_secs_f64();
        while inbuf.len() - in_pos >= 4 {
            let len =
                u32::from_le_bytes(inbuf[in_pos..in_pos + 4].try_into().expect("4 bytes")) as usize;
            if inbuf.len() - in_pos < 4 + len {
                break;
            }
            let payload = &inbuf[in_pos + 4..in_pos + 4 + len];
            let response =
                span("codec.decode", || decode_response(payload)).expect("decodable reply");
            res.decode_bytes += 4 + len as u64;
            in_pos += 4 + len;
            let index = response_id(&response);
            res.replies.push(Reply {
                index,
                latency_ms: (arrived - plan.due_s(index)) * 1e3,
                response,
            });
            outstanding -= 1;
            answered += 1;
            received.fetch_add(1, Ordering::SeqCst);
        }
        if in_pos == inbuf.len() {
            inbuf.clear();
            in_pos = 0;
        }
        if !got && out.is_empty() {
            // Idle: sleep until the next due request, at most 100 us so
            // replies are picked up promptly.
            let wait = if next < plan.n && outstanding < window {
                Duration::from_secs_f64(plan.due_s(next)).saturating_sub(t0.elapsed())
            } else {
                Duration::from_micros(100)
            };
            std::thread::sleep(wait.min(Duration::from_micros(100)));
        }
    }
    res
}

fn response_id(r: &Response) -> u64 {
    match r {
        Response::Scores { request_id, .. }
        | Response::MatchResult { request_id, .. }
        | Response::StatsReport { request_id, .. }
        | Response::Error { request_id, .. }
        | Response::ShuttingDown { request_id } => *request_id,
    }
}

/// Checks every reply of a step against the direct path; records one
/// check per request sent (a missing reply fails).
struct Checker {
    direct: qnn::executor::NoisyExecutor,
    memo: BTreeMap<Body, Vec<u64>>,
}

impl Checker {
    fn new(scenario: &ServeScenario) -> Checker {
        Checker {
            direct: scenario.executor(ProgramCacheHandle::new()),
            memo: BTreeMap::new(),
        }
    }

    fn check(
        &mut self,
        rig: &Rig,
        res: &StepResult,
        bodies: &BTreeMap<u64, Body>,
        out: &mut Outcome,
    ) {
        for r in &res.replies {
            let body = bodies[&r.index];
            let ok = match (body, &r.response) {
                (Body::Eval { .. }, Response::Scores { z, .. }) => {
                    let want = self.direct_bits(rig, body);
                    z.len() == want.len() && z.iter().zip(want).all(|(a, b)| a.to_bits() == *b)
                }
                (Body::Match { day }, Response::MatchResult { outcome, .. }) => {
                    let f = rig.scenario.snapshots[day as usize].feature_vector();
                    wire(rig.scenario.repository.match_features(&f)) == *outcome
                }
                _ => false,
            };
            if !ok {
                eprintln!(
                    "serve-mix: request {} ({body:?}) got {:?}",
                    r.index, r.response
                );
            }
            out.check(ok);
        }
        for _ in 0..res.missing() {
            out.check(false);
        }
    }

    fn direct_bits(&mut self, rig: &Rig, body: Body) -> &Vec<u64> {
        let Body::Eval {
            palette,
            day,
            features,
            stream,
        } = body
        else {
            unreachable!("only evals have scores")
        };
        self.memo.entry(body).or_insert_with(|| {
            self.direct
                .z_scores_seeded(
                    &rig.mix.features[features as usize],
                    &rig.mix.palette[palette as usize],
                    &rig.scenario.snapshots[day as usize],
                    stream,
                )
                .iter()
                .map(|z| z.to_bits())
                .collect()
        })
    }
}

fn wire(m: MatchOutcome) -> WireMatchOutcome {
    match m {
        MatchOutcome::Hit { index, distance } => WireMatchOutcome::Hit {
            index: index as u32,
            distance,
        },
        MatchOutcome::Miss { nearest_distance } => WireMatchOutcome::Miss { nearest_distance },
        MatchOutcome::Invalid {
            index,
            predicted_accuracy,
        } => WireMatchOutcome::Invalid {
            index: index as u32,
            predicted_accuracy,
        },
    }
}

/// Runs a step of the seed's mix.
fn mix_step(rig: &mut Rig, plan: &Plan) -> (StepResult, BTreeMap<u64, Body>) {
    let bodies: BTreeMap<u64, Body> = (0..plan.n)
        .map(|i| (i, rig.mix.body(plan.salt, i)))
        .collect();
    let res = rig.step(plan, |i| bodies[&i]);
    (res, bodies)
}

/// Runs a step of the seed's mix and checks every reply.
fn checked_step(
    rig: &mut Rig,
    checker: &mut Checker,
    plan: &Plan,
    out: &mut Outcome,
) -> (StepResult, BTreeMap<u64, Body>) {
    let (res, bodies) = mix_step(rig, plan);
    checker.check(rig, &res, &bodies, out);
    (res, bodies)
}

/// Whether an open-loop step met the latency limit with no growing
/// backlog.
fn passes(res: &StepResult, bodies: &BTreeMap<u64, Body>) -> bool {
    percentile(&res.latencies(None, bodies), 99.0) <= P99_LIMIT_MS && !res.backlog_grew()
}

pub fn run(args: &Args, out: &mut Outcome) -> Values {
    let mut values = Values::new();
    let threads = parallel::worker_threads();
    let (setup, mut rig) = SetupTimes::start(|| Rig::start(args.seed, threads), Rig::stop);
    let mut checker = Checker::new(&rig.scenario);
    out.info("workload.seed", args.seed, "");
    out.info("serve.connections", threads, "count");
    let mut salt = 1u64;
    let mut next_salt = || {
        salt += 1;
        salt
    };

    if args.trace {
        traced(args, &mut rig, &mut checker, &mut values, out);
        rig.stop();
        return values;
    }

    // Warm-up bursts (socket buffers, allocator).
    for _ in 0..WARM_BURSTS {
        checked_step(
            &mut rig,
            &mut checker,
            &Plan::burst(BURST, next_salt()),
            out,
        );
    }

    // Ramp: rising open-loop rates until the first one that fails, to
    // bracket the knee.
    let mut rate = LADDER[0];
    for &r in LADDER {
        let (res, bodies) = checked_step(
            &mut rig,
            &mut checker,
            &Plan::open(r, RAMP_STEP_S, next_salt()),
            out,
        );
        let ok = passes(&res, &bodies);
        ladder_line(out, r, &res, &bodies, ok);
        if !ok {
            break;
        }
        rate = r;
    }

    // Measuring cycles until the window is spent: a burst (`wall_s`), one
    // reference window at a fixed rate (`p50_ms` / `p99_ms`), and one
    // staircase step around the knee (`rate_per_s`). Interleaving spreads
    // every figure's samples over the whole run.
    let (mut bursts, mut eval_ms, mut eval_p99s, mut match_p99s, mut late_ms, mut visited) = (
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
    );
    let t_start = Instant::now();
    while bursts.len() < MIN_CYCLES || t_start.elapsed() < args.window() {
        let (res, _) = checked_step(
            &mut rig,
            &mut checker,
            &Plan::burst(BURST, next_salt()),
            out,
        );
        bursts.push(res.wall_s);

        let plan = Plan::open(REF_RATE, P99_WINDOW_S, next_salt());
        let (res, bodies) = checked_step(&mut rig, &mut checker, &plan, out);
        let evals = res.latencies(Some(false), &bodies);
        eval_p99s.push(percentile(&evals, 99.0));
        match_p99s.push(percentile(&res.latencies(Some(true), &bodies), 99.0));
        eval_ms.extend(evals);
        late_ms.extend(res.late_ms);

        let (res, bodies) = checked_step(
            &mut rig,
            &mut checker,
            &Plan::open(rate, STAIR_STEP_S, next_salt()),
            out,
        );
        let ok = passes(&res, &bodies);
        ladder_line(out, rate, &res, &bodies, ok);
        visited.push(rate);
        rate = if ok {
            rate * STAIR_FACTOR
        } else {
            rate / STAIR_FACTOR
        };
    }
    let max_rps = median(&visited);
    out.info("serve.cycles", bursts.len(), "count");
    out.info("serve.burst_s", format!("{bursts:.4?}"), "s");
    out.info("serve.ref_rate", REF_RATE, "1/s");
    out.info("serve.eval_samples", eval_ms.len(), "count");
    out.info(
        "serve.eval_p50_ms",
        format!("{:.4}", median(&eval_ms)),
        "ms",
    );
    out.info(
        "serve.eval_p99_ms",
        format!("{:.4}", median(&eval_p99s)),
        "ms",
    );
    out.info("serve.window_p99_ms", format!("{eval_p99s:.3?}"), "ms");
    out.info(
        "serve.match_p99_ms",
        format!("{:.4}", median(&match_p99s)),
        "ms",
    );
    out.info(
        "gen.late_p99_ms",
        format!("{:.4}", percentile(&late_ms, 99.0)),
        "ms",
    );
    out.info("serve.max_rps", format!("{max_rps:.1}"), "1/s");
    rig.stop();
    values.insert("setup_s", setup.median());
    values.insert("wall_s", median(&bursts));
    values.insert("rate_per_s", max_rps);
    values
}

fn ladder_line(
    out: &mut Outcome,
    rate: f64,
    res: &StepResult,
    bodies: &BTreeMap<u64, Body>,
    ok: bool,
) {
    out.info(
        &format!("ladder {rate:.0}/s"),
        format!(
            "p99={:.3}ms inflight {}->{} late_p99={:.3}ms missing={} {}",
            percentile(&res.latencies(None, bodies), 99.0),
            res.mid_inflight,
            res.end_inflight,
            percentile(&res.late_ms, 99.0),
            res.missing(),
            if ok { "pass" } else { "FAIL" }
        ),
        "",
    );
}

fn traced(
    args: &Args,
    rig: &mut Rig,
    checker: &mut Checker,
    values: &mut Values,
    out: &mut Outcome,
) {
    // Untraced twin of the traced job, for the overhead figure.
    let untraced = trace::untraced(|| {
        let t0 = Instant::now();
        mix_step(rig, &Plan::burst(BURST, SEGMENT_SALT));
        mix_step(rig, &Plan::open(REF_RATE, P99_WINDOW_S, SEGMENT_SALT + 1));
        t0.elapsed().as_secs_f64()
    });
    let served = serving_segment(rig, checker, "bench.job", values, out);
    values.insert("executor.evals", served.requests as f64);
    values.insert("executor.cache_hits", served.cache_hits as f64);
    values.insert("transpile.compiles", served.cache_misses as f64);
    values.insert(
        "executor.cache_hit_ratio",
        served.cache_hits as f64 / (served.cache_hits + served.cache_misses).max(1) as f64,
    );

    // Replays on batches shaped like the served ones: one structure and
    // day, `max_batch` probes (the batch size a saturated server forms).
    let batch = ServerConfig::default().max_batch;
    let samples: Vec<Sample> = (0..batch)
        .map(|i| Sample {
            features: rig.mix.features[i % FEATURE_SETS as usize].clone(),
            label: 0,
        })
        .collect();
    let exec = rig.scenario.executor(ProgramCacheHandle::new());
    Replay {
        exec: &exec,
        model: &rig.scenario.model,
        topology: &rig.scenario.topology,
        samples: &samples,
        weights: &rig.mix.palette[0],
        snapshot: &rig.scenario.snapshots[0],
        day_stream: 7,
        backend: SimBackend::Density,
        trajectories: rig.scenario.options.trajectories,
    }
    .run(values);
    let snap = &rig.scenario.snapshots[0];
    thread_scaling("evaluate_probes", 5, values, out, |t| {
        let mut probes = qnn::executor::ProbeBatch::with_capacity(samples.len());
        for (i, s) in samples.iter().enumerate() {
            probes.push(&s.features, &rig.mix.palette[0], i as u64);
        }
        exec.evaluate_probes(snap, &probes, t)
            .into_iter()
            .map(|z| z.iter().map(|x| x.to_bits()).collect::<Vec<_>>())
            .collect::<Vec<_>>()
    });

    let summary = trace::summarize(&trace_path(args), &crate::trace_header(args));
    record_trace(args, &summary, untraced, values, out);
    codec_info(&summary, out);
}

/// Salt of the traced serving segment's request mix.
const SEGMENT_SALT: u64 = 1001;

/// Runs one burst and one reference window inside a span named `root`,
/// checks every reply, and records the serving layers' per-layer
/// metrics: server counters, codec bytes, and generator lateness. Returns
/// the server's counter deltas over the segment.
fn serving_segment(
    rig: &mut Rig,
    checker: &mut Checker,
    root: &'static str,
    values: &mut Values,
    out: &mut Outcome,
) -> ServeStats {
    let burst = Plan::burst(BURST, SEGMENT_SALT);
    let reference = Plan::open(REF_RATE, P99_WINDOW_S, SEGMENT_SALT + 1);
    let before = rig.stats();
    let ((b_res, b_bodies), (r_res, r_bodies)) = span(root, || {
        let b = span("gen.burst", || mix_step(rig, &burst));
        let r = span("gen.reference", || mix_step(rig, &reference));
        (b, r)
    });
    let after = rig.stats();
    checker.check(rig, &b_res, &b_bodies, out);
    checker.check(rig, &r_res, &r_bodies, out);

    let served = ServeStats {
        requests: after.requests - before.requests,
        batches: after.batches - before.batches,
        cross_client_batches: after.cross_client_batches - before.cross_client_batches,
        peak_batch: after.peak_batch,
        cache_hits: after.cache_hits - before.cache_hits,
        cache_misses: after.cache_misses - before.cache_misses,
    };
    let batches = served.batches.max(1) as f64;
    values.insert("serve.requests", served.requests as f64);
    values.insert("serve.batches", served.batches as f64);
    values.insert(
        "serve.cross_client_batches",
        served.cross_client_batches as f64,
    );
    values.insert("serve.batch_mean", served.requests as f64 / batches);
    values.insert(
        "serve.cross_client_ratio",
        served.cross_client_batches as f64 / batches,
    );
    values.insert(
        "serve.cache_hit_ratio",
        served.cache_hits as f64 / (served.cache_hits + served.cache_misses).max(1) as f64,
    );
    let replies = (b_res.replies.len() + r_res.replies.len()) as f64;
    values.insert(
        "codec.bytes_per_eval",
        (b_res.encode_bytes + b_res.decode_bytes + r_res.encode_bytes + r_res.decode_bytes) as f64
            / replies.max(1.0),
    );
    let late_ms = &r_res.late_ms;
    values.insert(
        "gen.late_frac",
        late_ms.iter().filter(|&&l| l > 1.0).count() as f64 / late_ms.len().max(1) as f64,
    );
    out.info(
        "gen.late_p99_ms",
        format!("{:.4}", percentile(late_ms, 99.0)),
        "ms",
    );
    out.info(
        "serve.match_p99_ms",
        format!(
            "{:.4}",
            percentile(&r_res.latencies(Some(true), &r_bodies), 99.0)
        ),
        "ms",
    );
    served
}

/// Mean time per codec call, from a finished trace.
pub fn codec_info(summary: &trace::Summary, out: &mut Outcome) {
    for name in ["codec.encode", "codec.decode"] {
        let us = summary.by_name.get(name).map_or(0.0, |a| a.mean_us());
        out.info(&format!("{name}_us"), format!("{us:.3}"), "us");
    }
}

/// The serving layers measured from another workload's traced run: an
/// in-process server on belem with this seed's mix serves one burst and
/// one reference window (outside that workload's job span).
pub fn serving_layers(seed: u64, values: &mut Values, out: &mut Outcome) {
    let mut rig = Rig::start(seed, parallel::worker_threads());
    let mut checker = Checker::new(&rig.scenario);
    serving_segment(&mut rig, &mut checker, "serve.segment", values, out);
    rig.stop();
}
