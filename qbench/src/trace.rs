//! In-memory span recorder for the traced run.
//!
//! A span is a name, a start, an end, the recording thread, and the id of
//! the span that caused it. Spans are kept in memory while the run works
//! and written out once when it ends ([`write_json`]). Recording is off
//! unless [`enable`] was called, so the untraced run pays one relaxed
//! atomic load per wrapped call.
//!
//! A span's *self time* is its duration minus the part of its interval
//! covered by child spans recorded on the same thread. Children on other
//! threads (the serve generator's codec calls) ran concurrently with their
//! parent, so they are not subtracted; on the main thread the self times
//! of a root's descendants therefore sum to the part of the root its
//! children cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    thread: u64,
    start_ns: u64,
    end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

fn now_ns() -> u64 {
    let epoch = EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
}

/// Turns recording on for the rest of the process.
pub fn enable() {
    now_ns();
    ENABLED.store(true, Ordering::SeqCst);
}

fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Runs `f` with recording off, then restores the previous state.
pub fn untraced<T>(f: impl FnOnce() -> T) -> T {
    let was = ENABLED.swap(false, Ordering::SeqCst);
    let out = f();
    ENABLED.store(was, Ordering::SeqCst);
    out
}

/// Runs `f` inside a span named `name` (a plain call when tracing is off).
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| s.borrow().last().copied());
    STACK.with(|s| s.borrow_mut().push(id));
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    STACK.with(|s| s.borrow_mut().pop());
    let span = Span {
        id,
        parent,
        name,
        thread: THREAD.with(|t| *t),
        start_ns,
        end_ns,
    };
    SPANS.lock().expect("span store poisoned").push(span);
    out
}

/// The innermost open span on this thread, to hand to a spawned thread.
pub fn current() -> Option<u64> {
    STACK.with(|s| s.borrow().last().copied())
}

/// Runs `f` with `parent` as the causing span of every span it opens
/// (used on spawned threads so their spans link back to the spawner's).
pub fn with_parent<T>(parent: Option<u64>, f: impl FnOnce() -> T) -> T {
    let Some(p) = parent else { return f() };
    STACK.with(|s| s.borrow_mut().push(p));
    let out = f();
    STACK.with(|s| s.borrow_mut().pop());
    out
}

/// Removes and returns every recorded span, sorted by id.
fn take() -> Vec<Span> {
    let mut spans = std::mem::take(&mut *SPANS.lock().expect("span store poisoned"));
    spans.sort_by_key(|s| s.id);
    spans
}

/// Self time of every span (same order as `spans`): its duration minus
/// the union of its same-thread children's intervals.
fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: BTreeMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = s.parent.and_then(|p| index.get(&p)) {
            if spans[p].thread == s.thread {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Per-name totals of a span set.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Agg {
    /// Mean duration per span, in microseconds (0 when never recorded).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }
}

fn aggregate(spans: &[Span], selfs: &[u64]) -> BTreeMap<&'static str, Agg> {
    let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
    for (s, &own) in spans.iter().zip(selfs) {
        let a = out.entry(s.name).or_default();
        a.count += 1;
        a.total_ns += s.dur_ns();
        a.self_ns += own;
    }
    out
}

/// Every span of a finished traced run, with its self time.
pub struct Summary {
    spans: Vec<Span>,
    selfs: Vec<u64>,
    /// Per-name totals over every span (jobs and replays).
    pub by_name: BTreeMap<&'static str, Agg>,
}

/// One span tree (a job) split by layer.
pub struct Split {
    /// Duration of the tree's root span, in seconds.
    pub wall_s: f64,
    /// Self time of each layer (the span-name prefix before the first
    /// `.`) inside the tree, as a share of the root's wall time. The root
    /// counts under its own prefix, with the part of it no child covers.
    pub layer_frac: BTreeMap<String, f64>,
    /// Self times of the root's descendants on the root's thread, summed,
    /// as a share of its wall time: 1 when the layer spans tile the job,
    /// less when a call between them was left untraced.
    pub self_sum_frac: f64,
}

/// Takes every recorded span and writes them to `path`.
pub fn summarize(path: &std::path::Path, header: &str) -> Summary {
    let spans = take();
    let selfs = self_times(&spans);
    write_json(path, header, &spans, &selfs);
    Summary {
        by_name: aggregate(&spans, &selfs),
        spans,
        selfs,
    }
}

impl Summary {
    /// Splits the tree under the single span named `root` by layer.
    ///
    /// # Panics
    ///
    /// Panics if no span or more than one is named `root`.
    pub fn split(&self, root: &str) -> Split {
        let spans = &self.spans;
        let roots: Vec<usize> = (0..spans.len())
            .filter(|&i| spans[i].name == root)
            .collect();
        assert_eq!(roots.len(), 1, "expected exactly one '{root}' span");
        let r = &spans[roots[0]];
        let index: BTreeMap<u64, usize> =
            spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
        let in_tree = |mut i: usize| loop {
            if spans[i].id == r.id {
                return true;
            }
            match spans[i].parent.and_then(|p| index.get(&p)) {
                Some(&p) => i = p,
                None => return false,
            }
        };
        let wall = r.dur_ns() as f64;
        let mut layer_ns: BTreeMap<String, u64> = BTreeMap::new();
        let mut covered = 0u64;
        for (i, s) in spans.iter().enumerate() {
            if !in_tree(i) {
                continue;
            }
            let layer = s.name.split('.').next().unwrap_or(s.name).to_string();
            *layer_ns.entry(layer).or_default() += self.selfs[i];
            if s.id != r.id && s.thread == r.thread {
                covered += self.selfs[i];
            }
        }
        Split {
            wall_s: wall / 1e9,
            layer_frac: layer_ns
                .into_iter()
                .map(|(k, v)| (k, v as f64 / wall))
                .collect(),
            self_sum_frac: covered as f64 / wall,
        }
    }
}

/// Writes the spans as one JSON document.
fn write_json(path: &std::path::Path, header: &str, spans: &[Span], selfs: &[u64]) {
    let mut out = String::with_capacity(128 * spans.len() + 256);
    out.push('{');
    out.push_str(header);
    out.push_str(",\"spans\":[\n");
    for (i, (s, own)) in spans.iter().zip(selfs).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"thread\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            s.id, parent, s.name, s.thread, s.start_ns, s.end_ns, own
        );
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push_str("]}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("create trace directory");
    }
    std::fs::write(path, out).expect("write trace file");
}
