//! Direct measurements of single layers, replaying a workload's own
//! request lines on one thread: the request API (`engine::api`) and the
//! system cache (`SharedSystemCache` / `WorkerCache`).

use crate::spans::{SpanId, Spans};
use crate::stats::median;
use crate::traffic::BACKENDS;
use engine::{Request, SharedSystemCache, WorkerCache};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The system allocator, counting live heap bytes while switched on. Only
/// the single-threaded cache-footprint measurement switches it on, so the
/// other phases pay one relaxed load per allocation.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

fn count(delta: i64) {
    // ordering: Relaxed — a statistic read by the same thread that toggles it.
    if COUNTING.load(Ordering::Relaxed) {
        // ordering: Relaxed — statistics counter.
        LIVE_BYTES.fetch_add(delta, Ordering::Relaxed);
    }
}

fn size(layout: Layout) -> i64 {
    i64::try_from(layout.size()).unwrap_or(i64::MAX)
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only adds bookkeeping on an atomic counter.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(size(layout));
        // SAFETY: forwarded contract of `GlobalAlloc::alloc`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(size(layout));
        // SAFETY: forwarded contract of `GlobalAlloc::alloc_zeroed`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-size(layout));
        // SAFETY: forwarded contract of `GlobalAlloc::dealloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(i64::try_from(new_size).unwrap_or(i64::MAX) - size(layout));
        // SAFETY: forwarded contract of `GlobalAlloc::realloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// `engine::api` costs for one workload's lines.
#[derive(Debug, Default)]
pub struct ApiLayer {
    /// Mean `Request::from_line` time per line.
    pub parse_ns: f64,
    /// Mean `Response::to_json_value().render()` time per response.
    pub render_ns: f64,
    /// Median `run_requests` time per batch, per backend in
    /// `traffic::BACKENDS` order; 0 where the lines hold no such backend.
    pub run_requests_us: [f64; 4],
}

fn parse_all(lines: &[Vec<u8>]) -> Vec<Request> {
    lines
        .iter()
        .map(|l| {
            let text = std::str::from_utf8(l).expect("generated lines are UTF-8");
            Request::from_line(text.trim_end()).expect("generated lines parse")
        })
        .collect()
}

fn micros(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}

/// Replays `lines` through the request API on this thread: parse, then
/// `run_requests` per backend in batches of `batch` on a warm worker
/// cache, then render every response.
pub fn api_layer(lines: &[Vec<u8>], batch: usize, spans: &mut Spans) -> ApiLayer {
    let root = spans.open("api.replay", None);
    let mut layer = ApiLayer::default();
    let parse_start = Instant::now();
    let requests: Vec<Request> = spans.time("api.parse", root, None, || parse_all(lines));
    layer.parse_ns = parse_start.elapsed().as_secs_f64() * 1e9 / lines.len().max(1) as f64;

    let batch = batch.max(1);
    let mut cache = WorkerCache::new();
    let mut responses = Vec::new();
    for (b, (backend, _)) in BACKENDS.iter().enumerate() {
        let of_backend: Vec<Request> =
            requests.iter().filter(|r| r.scenario.backend.name() == *backend).cloned().collect();
        if of_backend.is_empty() {
            continue;
        }
        // Warm pass: every system this backend needs is in the cache.
        let _ = engine::api::run_requests(&of_backend, &mut cache);
        let mut per_batch = Vec::new();
        for chunk in of_backend.chunks(batch) {
            let start = Instant::now();
            let out = engine::api::run_requests(chunk, &mut cache);
            per_batch.push(micros(start));
            spans.record("api.run_requests", start, Instant::now(), root, None);
            responses.extend(out);
        }
        layer.run_requests_us[b] = median(&per_batch);
    }
    let render_start = Instant::now();
    let rendered: usize = spans.time("api.render", root, None, || {
        responses.iter().map(|r| r.to_json_value().render().map_or(0, |s| s.len())).sum()
    });
    std::hint::black_box(rendered);
    layer.render_ns = render_start.elapsed().as_secs_f64() * 1e9 / responses.len().max(1) as f64;
    spans.close(root);
    layer
}

/// Lines whose systems the footprint measurement builds.
const FOOTPRINT_LINES: usize = 256;

/// System-cache costs for one workload's lines.
#[derive(Debug, Default)]
pub struct CacheLayer {
    /// Per batch: fresh `WorkerCache::with_shared` on a warm shared cache,
    /// minus a reused worker cache.
    pub clone_us: f64,
    /// Per batch: a fresh shared cache minus a warm one.
    pub build_us: f64,
    /// Live heap bytes a shared cache holds per cached system, in KiB.
    pub kb_per_system: f64,
}

fn run_timed(
    requests: &[Request],
    cache: &mut WorkerCache,
    name: &'static str,
    parent: Option<SpanId>,
    spans: &mut Spans,
) -> f64 {
    let start = Instant::now();
    std::hint::black_box(engine::api::run_requests(requests, cache));
    spans.record(name, start, Instant::now(), parent, None);
    micros(start)
}

/// Measures what the per-batch worker cache and the shared cache cost on
/// batches of `batch` of the workload's lines (at most `max_batches`).
pub fn cache_layer(
    lines: &[Vec<u8>],
    batch: usize,
    max_batches: usize,
    spans: &mut Spans,
) -> CacheLayer {
    let root = spans.open("cache.probe", None);
    let requests = parse_all(lines);
    let batches: Vec<&[Request]> = requests.chunks(batch.max(1)).take(max_batches).collect();
    let shared = Arc::new(SharedSystemCache::new());
    let mut reused = WorkerCache::with_shared(Arc::clone(&shared));
    for chunk in &batches {
        let _ = engine::api::run_requests(chunk, &mut reused);
    }
    let (mut fresh, mut warm, mut cold) = (Vec::new(), Vec::new(), Vec::new());
    for chunk in &batches {
        let mut worker = WorkerCache::with_shared(Arc::clone(&shared));
        fresh.push(run_timed(chunk, &mut worker, "cache.fresh_worker", root, spans));
        warm.push(run_timed(chunk, &mut reused, "cache.reused_worker", root, spans));
        let mut cold_worker = WorkerCache::with_shared(Arc::new(SharedSystemCache::new()));
        cold.push(run_timed(chunk, &mut cold_worker, "cache.cold_shared", root, spans));
    }
    let (fresh, warm, cold) = (median(&fresh), median(&warm), median(&cold));

    // Footprint: build the distinct systems of the first lines into an
    // empty shared cache and count the heap it keeps.
    let sample = &requests[..requests.len().min(FOOTPRINT_LINES)];
    let footprint = Arc::new(SharedSystemCache::new());
    // ordering: Relaxed — single-threaded measurement window.
    LIVE_BYTES.store(0, Ordering::Relaxed);
    // ordering: Relaxed — see `count`.
    COUNTING.store(true, Ordering::Relaxed);
    spans.time("cache.footprint", root, None, || {
        let mut worker = WorkerCache::with_shared(Arc::clone(&footprint));
        std::hint::black_box(engine::api::run_requests(sample, &mut worker));
    });
    // ordering: Relaxed — see `count`.
    COUNTING.store(false, Ordering::Relaxed);
    // ordering: Relaxed — read back on the thread that wrote it.
    let live = LIVE_BYTES.load(Ordering::Relaxed) as f64;
    let systems = footprint.stats().systems.max(1) as f64;
    spans.close(root);
    CacheLayer {
        clone_us: fresh - warm,
        build_us: cold - fresh,
        kb_per_system: live / systems / 1024.0,
    }
}
