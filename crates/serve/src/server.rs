//! The long-running `qucad-serve` server.
//!
//! Thread architecture (std only — no async runtime is available):
//!
//! - one **acceptor** thread polls a non-blocking listener, spawning one
//!   reader thread per connection and joining the readers of closed
//!   connections as it goes;
//! - per-connection **reader** threads decode frames, answer
//!   `MatchModel`/`Stats` inline (repository matching is a concurrent
//!   `&self` read), and admit `Eval` requests to the shared
//!   [`BatchQueue`];
//! - N **worker** threads share the server's one [`NoisyExecutor`] — one
//!   warm template cache across all workers and therefore across all
//!   clients — and drain the queue one structure-grouped batch at a time
//!   through [`evaluate_batch`], each batch one engine call over every
//!   day its requests name.
//!
//! Responses carry the client's `request_id` and may return out of
//! submission order (batches complete per structure); each connection's
//! writes go through a mutex so concurrently completing workers never
//! interleave frames.
//!
//! Shutdown: a `Shutdown` request (or [`ServerHandle::shutdown`]) flips
//! one flag; the acceptor stops accepting, the queue closes and drains,
//! workers exit on the drained queue, readers exit on their next read
//! timeout, and [`ServerHandle::join`] returns — so "the process exited
//! cleanly" is an assertable CI condition.

use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use calibration::snapshot::CalibrationSnapshot;
use qnn::executor::{NoisyExecutor, ProbeBatch, ProgramCacheHandle};
use qucad::repository::MatchOutcome;

use crate::batch::{BatchQueue, PendingEval};
use crate::codec::{
    decode_request, encode_response, write_frame, Request, Response, ServeStats, WireMatchOutcome,
};
use crate::scenario::ServeScenario;

/// Acceptor poll interval while idle (no wall-clock reads — just a
/// bounded sleep between non-blocking accept attempts).
const ACCEPT_POLL: Duration = Duration::from_millis(2);

/// Per-connection read timeout: bounds how long a reader thread stays
/// parked before it rechecks the shutdown flag.
const READ_TIMEOUT: Duration = Duration::from_millis(25);

/// Tuning knobs of one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// TCP port to bind on 127.0.0.1 (`0` = OS-assigned ephemeral port;
    /// read the bound address from [`ServerHandle::addr`]).
    pub port: u16,
    /// Worker threads draining the batch queue.
    pub workers: usize,
    /// Largest batch one worker evaluates in one pass.
    pub max_batch: usize,
    /// Bound on concurrently pending evaluations (admission control:
    /// readers park when the queue is full).
    pub queue_depth: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            port: 0,
            workers: 2,
            max_batch: 16,
            queue_depth: 256,
        }
    }
}

/// Mutable serving counters (everything except the cache counters, which
/// the executor's program cache keeps).
#[derive(Debug, Default)]
struct Counters {
    requests: u64,
    batches: u64,
    cross_client_batches: u64,
    peak_batch: u32,
}

/// A connection's write half, shared by its reader thread and every
/// worker completing one of its requests.
type Writer = Arc<Mutex<TcpStream>>;

/// State shared by every thread of one server.
struct Shared {
    scenario: ServeScenario,
    /// The one executor every worker evaluates through.
    exec: NoisyExecutor,
    queue: BatchQueue<Writer>,
    counters: Mutex<Counters>,
    shutdown: AtomicBool,
}

impl Shared {
    fn stats(&self) -> ServeStats {
        let c = self
            .counters
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let cache = self.exec.cache_stats();
        ServeStats {
            requests: c.requests,
            batches: c.batches,
            cross_client_batches: c.cross_client_batches,
            peak_batch: c.peak_batch,
            cache_hits: cache.hits,
            cache_misses: cache.misses,
        }
    }
}

/// A running server: its bound address plus the join handle of its
/// acceptor thread (which in turn joins workers and readers).
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<Shared>,
    acceptor: thread::JoinHandle<()>,
}

impl ServerHandle {
    /// The bound listening address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests shutdown without a client round-trip (the in-process
    /// harness path; remote clients send [`Request::Shutdown`]).
    pub fn shutdown(&self) {
        self.shutdown.shutdown.store(true, Ordering::SeqCst);
    }

    /// Waits for the server to exit (acceptor joined ⇒ workers and
    /// readers joined ⇒ every pending request was answered).
    ///
    /// # Panics
    ///
    /// Panics if a server thread panicked.
    pub fn join(self) {
        self.acceptor.join().expect("server acceptor panicked");
    }
}

/// Starts a server for `scenario` on `127.0.0.1:{config.port}`.
///
/// # Errors
///
/// Returns the bind error if the port is unavailable.
pub fn serve(scenario: ServeScenario, config: ServerConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(("127.0.0.1", config.port))?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(Shared {
        exec: scenario.executor(ProgramCacheHandle::new()),
        queue: BatchQueue::new(config.queue_depth, config.max_batch),
        counters: Mutex::new(Counters::default()),
        scenario,
        shutdown: AtomicBool::new(false),
    });

    let workers: Vec<_> = (0..config.workers.max(1))
        .map(|i| {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name(format!("qucad-serve-worker-{i}"))
                .spawn(move || worker_loop(&shared))
                .expect("spawn worker")
        })
        .collect();

    let shared_for_acceptor = Arc::clone(&shared);
    let acceptor = thread::Builder::new()
        .name("qucad-serve-acceptor".to_string())
        .spawn(move || accept_loop(&listener, &shared_for_acceptor, workers))
        .expect("spawn acceptor");

    Ok(ServerHandle {
        addr,
        shutdown: shared,
        acceptor,
    })
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>, workers: Vec<thread::JoinHandle<()>>) {
    let mut readers = Vec::new();
    let mut panicked_readers = 0;
    while !shared.shutdown.load(Ordering::SeqCst) {
        panicked_readers += reap_finished(&mut readers);
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = Arc::clone(shared);
                readers.push(
                    thread::Builder::new()
                        .name("qucad-serve-conn".to_string())
                        .spawn(move || connection_loop(stream, &shared))
                        .expect("spawn connection reader"),
                );
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(ACCEPT_POLL),
            // A failed accept (e.g. a connection reset mid-handshake)
            // affects that connection only; keep serving.
            Err(_) => thread::sleep(ACCEPT_POLL),
        }
    }
    // Shutdown: stop admitting, drain what's queued, then join everyone.
    shared.queue.close();
    for w in workers {
        w.join().expect("serve worker panicked");
    }
    for r in readers {
        panicked_readers += usize::from(r.join().is_err());
    }
    assert_eq!(panicked_readers, 0, "serve reader panicked");
}

/// Joins the reader threads whose connections have closed and keeps the
/// live ones, so a long-running server holds one thread per open
/// connection rather than one per connection it ever served. Returns how
/// many of the joined readers panicked; the acceptor reports them at
/// shutdown, not mid-run.
fn reap_finished(readers: &mut Vec<thread::JoinHandle<()>>) -> usize {
    readers
        .extract_if(.., |r| r.is_finished())
        .map(|r| usize::from(r.join().is_err()))
        .sum()
}

/// Outcome of one attempted frame read on a connection.
enum FrameRead {
    Frame(Vec<u8>),
    /// Clean close or fatal stream error: drop the connection.
    Closed,
    /// Shutdown observed while idle between frames.
    ShuttingDown,
}

/// Reads one frame, tolerating read timeouts (rechecking the shutdown
/// flag between them). Partial header/payload reads keep accumulating
/// across timeouts so a slow client cannot desync the stream.
fn read_frame_or_shutdown(stream: &mut TcpStream, shared: &Shared) -> FrameRead {
    let mut header = [0u8; 4];
    match read_exact_resumable(stream, &mut header, shared, true) {
        ExactRead::Done => {}
        ExactRead::Closed => return FrameRead::Closed,
        ExactRead::ShuttingDown => return FrameRead::ShuttingDown,
    }
    let len = u32::from_le_bytes(header) as usize;
    if len > crate::codec::MAX_FRAME_BYTES {
        return FrameRead::Closed;
    }
    let mut payload = vec![0u8; len];
    match read_exact_resumable(stream, &mut payload, shared, false) {
        ExactRead::Done => FrameRead::Frame(payload),
        // Mid-frame shutdown or EOF: the frame can never complete.
        ExactRead::Closed | ExactRead::ShuttingDown => FrameRead::Closed,
    }
}

enum ExactRead {
    Done,
    Closed,
    ShuttingDown,
}

fn read_exact_resumable(
    stream: &mut TcpStream,
    buf: &mut [u8],
    shared: &Shared,
    idle_boundary: bool,
) -> ExactRead {
    let mut filled = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => return ExactRead::Closed,
            Ok(n) => filled += n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                // Only bail at a frame boundary with nothing read: a
                // half-received frame still completes during shutdown.
                if shared.shutdown.load(Ordering::SeqCst) && idle_boundary && filled == 0 {
                    return ExactRead::ShuttingDown;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return ExactRead::Closed,
        }
    }
    ExactRead::Done
}

fn respond(writer: &Writer, resp: &Response) {
    let mut stream = writer
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    // A dead connection fails every later write too; the reader notices
    // on its side and drops the connection, so ignore the error here.
    let _ = write_frame(&mut *stream, &encode_response(resp));
}

fn connection_loop(stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(READ_TIMEOUT)).is_err() {
        return;
    }
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let writer: Writer = Arc::new(Mutex::new(write_half));
    let mut read_half = stream;
    loop {
        let payload = match read_frame_or_shutdown(&mut read_half, shared) {
            FrameRead::Frame(p) => p,
            FrameRead::Closed | FrameRead::ShuttingDown => return,
        };
        let request = match decode_request(&payload) {
            Ok(r) => r,
            // An undecodable frame leaves the stream position valid (the
            // frame boundary held) but the session unusable: report on a
            // best-effort id and drop the connection.
            Err(e) => {
                respond(
                    &writer,
                    &Response::Error {
                        request_id: 0,
                        message: format!("bad request frame: {e}"),
                    },
                );
                return;
            }
        };
        match request {
            Request::Eval {
                request_id,
                client_id,
                day,
                stream,
                features,
                weights,
            } => {
                if let Err(message) = shared.scenario.validate_eval(day, &features, &weights) {
                    respond(
                        &writer,
                        &Response::Error {
                            request_id,
                            message,
                        },
                    );
                    continue;
                }
                let key = shared.scenario.group_key(&features, &weights);
                let pending = PendingEval {
                    request_id,
                    client_id,
                    day,
                    stream,
                    features,
                    weights,
                    key,
                    ctx: Arc::clone(&writer),
                };
                if shared.queue.push(pending).is_err() {
                    respond(
                        &writer,
                        &Response::Error {
                            request_id,
                            message: "server is shutting down".to_string(),
                        },
                    );
                } else {
                    let mut c = shared
                        .counters
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    c.requests += 1;
                }
            }
            Request::MatchModel {
                request_id,
                features,
            } => {
                let resp = match shared.scenario.validate_match(&features) {
                    Err(message) => Response::Error {
                        request_id,
                        message,
                    },
                    Ok(()) => {
                        // Concurrent read of the shared repository: pure
                        // `&self`, many readers race freely.
                        let outcome = match shared.scenario.repository.match_features(&features) {
                            MatchOutcome::Hit { index, distance } => WireMatchOutcome::Hit {
                                index: u32::try_from(index).expect("repository fits u32"),
                                distance,
                            },
                            MatchOutcome::Miss { nearest_distance } => {
                                WireMatchOutcome::Miss { nearest_distance }
                            }
                            MatchOutcome::Invalid {
                                index,
                                predicted_accuracy,
                            } => WireMatchOutcome::Invalid {
                                index: u32::try_from(index).expect("repository fits u32"),
                                predicted_accuracy,
                            },
                        };
                        Response::MatchResult {
                            request_id,
                            outcome,
                        }
                    }
                };
                respond(&writer, &resp);
            }
            Request::Stats { request_id } => {
                respond(
                    &writer,
                    &Response::StatsReport {
                        request_id,
                        stats: shared.stats(),
                    },
                );
            }
            Request::Shutdown { request_id } => {
                respond(&writer, &Response::ShuttingDown { request_id });
                shared.shutdown.store(true, Ordering::SeqCst);
                return;
            }
        }
    }
}

/// Scores one batch of pending evaluations, in batch order: each
/// request's probe on its own day of `days` (a request's `day` indexes
/// it), all in one engine call. A batch from [`BatchQueue::next_batch`]
/// holds one structure, so the call is one cache lookup plus per-probe
/// patches; it runs on one thread because the serve workers themselves
/// are the fan-out.
///
/// # Panics
///
/// Panics if a request's day is out of range of `days`.
pub fn evaluate_batch<T>(
    exec: &NoisyExecutor,
    days: &[CalibrationSnapshot],
    batch: &[PendingEval<T>],
) -> Vec<Vec<f64>> {
    let days: Vec<&CalibrationSnapshot> = days.iter().collect();
    let mut probes = ProbeBatch::with_capacity(batch.len());
    for p in batch {
        probes.push_on_day(p.day as usize, &p.features, &p.weights, p.stream);
    }
    exec.evaluate_probes_over_days(&days, &probes, 1)
}

fn worker_loop(shared: &Shared) {
    while let Some(batch) = shared.queue.next_batch() {
        let results = evaluate_batch(&shared.exec, &shared.scenario.snapshots, &batch);
        {
            let mut c = shared
                .counters
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            c.batches += 1;
            c.peak_batch = c
                .peak_batch
                .max(u32::try_from(batch.len()).expect("batch fits u32"));
            let first_client = batch[0].client_id;
            if batch.iter().any(|p| p.client_id != first_client) {
                c.cross_client_batches += 1;
            }
        }
        for (p, z) in batch.iter().zip(results) {
            respond(
                &p.ctx,
                &Response::Scores {
                    request_id: p.request_id,
                    z,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reaping_joins_finished_readers_and_keeps_live_ones() {
        let (release, parked) = std::sync::mpsc::channel::<()>();
        let mut readers = vec![
            thread::spawn(|| {}),
            thread::spawn(move || {
                let _ = parked.recv();
            }),
            thread::spawn(|| panic!("reader fault")),
        ];
        while !(readers[0].is_finished() && readers[2].is_finished()) {
            thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(reap_finished(&mut readers), 1, "one joined reader panicked");
        assert_eq!(readers.len(), 1, "only the live reader is kept");
        assert!(!readers[0].is_finished());
        release.send(()).expect("live reader waits");
        readers
            .pop()
            .expect("live reader")
            .join()
            .expect("clean exit");
        assert_eq!(reap_finished(&mut readers), 0);
    }
}
