//! # d16-serve — the repro as an HTTP/JSON experiment service
//!
//! A long-running daemon that accepts Mini-C source (or a suite
//! workload name) plus [`TargetSpec`] knobs, runs the paper's compile →
//! simulate → sweep pipeline in a bounded worker pool, and answers with
//! a deterministic JSON measurement body. Every request is backed by
//! the [`d16_store`] content-addressed store as a shared response
//! cache, safe for many concurrent daemons because the store commits
//! under per-entry file locks (see `d16-store`).
//!
//! Design rules:
//!
//! 1. **Bounded everything.** A fixed worker pool, a fixed connection
//!    queue (full ⇒ `429`), a request body cap (`400`), a fuel cap on
//!    simulated instructions (`400` when exhausted), and a per-request
//!    deadline checked between pipeline phases (`503`). No request can
//!    hold a worker unboundedly long.
//! 2. **Deterministic bodies.** A response body is a pure function of
//!    the request — no timing, no counters. Wall time and cache
//!    provenance ride in `X-D16-Wall-Ns` / `X-D16-Cache` headers, so
//!    CI byte-diffs replayed bodies against golden answers and a warm
//!    cache can never change an answer.
//! 3. **Typed errors → statuses.** The PR 4 taxonomy maps onto HTTP:
//!    `200` ok, `400` user error (bad request, fuel), `404` unknown
//!    path, `422` compile error, `429` over capacity, `500` internal
//!    (simulator fault), `503` degraded (deadline, store contention,
//!    shutting down).
//! 4. **Observable like the batch pipeline.** Request counters follow
//!    the [`SERVE_SCHEMA`]; phase wall times land in span histograms;
//!    `GET /metrics` and the daemon's `--metrics-json` dump render
//!    them with the store counters through one registry, and CI
//!    reconciles the totals against `d16-loadgen`'s per-status counts.
//!
//! [`TargetSpec`]: d16_cc::TargetSpec

pub mod api;
pub mod http;

pub use api::{ApiError, RunOutcome, RunRequest, DEFAULT_FUEL_CAP, SERVE_KIND, SERVE_TAG};

use d16_bench::json::Json;
use d16_bench::report;
use d16_store::Store;
use d16_telemetry::Registry;
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

d16_telemetry::counter_schema! {
    /// Service request counters. Like the store's, these are *service*
    /// accounting, not experiment measurement: they count with their
    /// own atomics (even with telemetry compiled out) and render
    /// through these names in `/metrics` and `--metrics-json`, where
    /// CI reconciles them against loadgen's per-status totals.
    pub SERVE_SCHEMA / ServeCounter {
        /// `/v1/run` requests that reached routing (excludes shed 429s).
        RunRequests => "run_requests",
        /// Runs answered 200.
        Ok => "ok",
        /// Runs answered 400 (bad request or fuel exhausted).
        UserError => "user_error",
        /// Runs answered 422 (toolchain diagnostics).
        CompileError => "compile_error",
        /// Connections shed with 429 before routing (queue full).
        OverCapacity => "over_capacity",
        /// Runs answered 500 (simulator fault).
        InternalError => "internal_error",
        /// Runs answered 503 (deadline, store contention).
        Degraded => "degraded",
        /// Requests for paths the service does not serve (404).
        NotFound => "not_found",
        /// Connections whose bytes were not parseable HTTP (answered
        /// 400 where possible; never counted as run requests).
        BadHttp => "bad_http",
        /// 200 bodies served from the store.
        CacheHit => "cache_hit",
        /// 200 bodies computed (and, with a store, committed).
        CacheMiss => "cache_miss",
        /// Request body bytes accepted on the run path.
        BytesIn => "bytes_in",
        /// Response body bytes written on the run path.
        BytesOut => "bytes_out",
    }
}

/// Atomic service counters (see [`SERVE_SCHEMA`]).
#[derive(Debug, Default)]
pub struct ServeStats {
    counts: [AtomicU64; 13],
}

impl ServeStats {
    fn bump(&self, c: ServeCounter) {
        self.counts[c as usize].fetch_add(1, Ordering::Relaxed);
    }

    fn add(&self, c: ServeCounter, v: u64) {
        self.counts[c as usize].fetch_add(v, Ordering::Relaxed);
    }

    /// `(name, value)` pairs in [`SERVE_SCHEMA`] order.
    #[must_use]
    pub fn named(&self) -> Vec<(&'static str, u64)> {
        SERVE_SCHEMA
            .names()
            .iter()
            .zip(&self.counts)
            .map(|(name, v)| (*name, v.load(Ordering::Relaxed)))
            .collect()
    }

    /// One counter, by schema name (`None` for unknown names).
    #[must_use]
    pub fn get(&self, name: &str) -> Option<u64> {
        self.named().iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`host:port`; port 0 picks a free port).
    pub addr: String,
    /// Worker threads executing requests.
    pub workers: usize,
    /// Accepted connections allowed to wait for a worker; beyond this
    /// the acceptor sheds with `429`.
    pub queue_cap: usize,
    /// Request body cap in bytes (`400` beyond it).
    pub max_body: usize,
    /// Upper bound on any request's simulated-instruction budget.
    pub fuel_cap: u64,
    /// Per-request deadline, measured from the moment the connection
    /// is queued and checked between pipeline phases.
    pub timeout: Duration,
    /// Response-cache store root (`None` disables caching).
    pub store_root: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism().map_or(4, |n| n.get().min(4));
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers,
            queue_cap: workers * 4,
            max_body: 256 * 1024,
            fuel_cap: DEFAULT_FUEL_CAP,
            timeout: Duration::from_secs(10),
            store_root: None,
        }
    }
}

struct Shared {
    cfg: ServeConfig,
    store: Option<Store>,
    stats: ServeStats,
    spans: Mutex<Registry>,
    queue: Mutex<VecDeque<(TcpStream, Instant)>>,
    available: Condvar,
    shutdown: Arc<AtomicBool>,
}

/// A running service instance.
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    acceptor: std::thread::JoinHandle<Json>,
}

impl Server {
    /// Binds, spawns the acceptor and worker pool, and returns.
    ///
    /// # Errors
    ///
    /// Fails if the address cannot be bound or the store root cannot
    /// be opened.
    pub fn start(cfg: ServeConfig) -> io::Result<Server> {
        let store = match &cfg.store_root {
            Some(root) => Some(Store::open(root.clone())?),
            None => None,
        };
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(Shared {
            cfg,
            store,
            stats: ServeStats::default(),
            spans: Mutex::new(Registry::new()),
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: Arc::clone(&shutdown),
        });
        let acceptor = std::thread::spawn(move || accept_loop(&listener, &shared));
        Ok(Server { addr, shutdown, acceptor })
    }

    /// The bound address (with the actual port when 0 was requested).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle that makes [`Server::join`] return when set (the
    /// daemon's signal handler flips it on SIGTERM/SIGINT).
    #[must_use]
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Requests shutdown and waits; returns the final metrics dump.
    pub fn stop(self) -> Json {
        self.shutdown.store(true, Ordering::SeqCst);
        self.join()
    }

    /// Waits for shutdown (via [`Server::stop`], `POST /shutdown`, or
    /// the shutdown flag) and returns the final metrics dump.
    pub fn join(self) -> Json {
        match self.acceptor.join() {
            Ok(doc) => doc,
            Err(_) => Json::obj()
                .with("schema", "bench_serve/1")
                .with("kind", "metrics")
                .with("error", "server thread panicked"),
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) -> Json {
    let mut workers = Vec::with_capacity(shared.cfg.workers);
    for _ in 0..shared.cfg.workers {
        let shared = Arc::clone(shared);
        workers.push(std::thread::spawn(move || worker_loop(&shared)));
    }
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let deadline = Instant::now() + shared.cfg.timeout;
                let _ = stream.set_read_timeout(Some(shared.cfg.timeout));
                let _ = stream.set_write_timeout(Some(shared.cfg.timeout));
                let mut queue = match shared.queue.lock() {
                    Ok(q) => q,
                    Err(_) => break, // a worker panicked holding the lock
                };
                if queue.len() >= shared.cfg.queue_cap {
                    drop(queue);
                    shed(shared, stream);
                } else {
                    queue.push_back((stream, deadline));
                    drop(queue);
                    shared.available.notify_one();
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
    // Wake everyone; workers drain the queue, then exit.
    shared.available.notify_all();
    for w in workers {
        let _ = w.join();
    }
    build_metrics(shared)
}

/// Queue full: answer `429` from the acceptor thread (bounded by the
/// stream's write timeout) without consuming a worker.
fn shed(shared: &Shared, mut stream: TcpStream) {
    shared.stats.bump(ServeCounter::OverCapacity);
    let body = Json::obj().with("schema", SERVE_TAG).with("ok", false).with(
        "error",
        Json::obj()
            .with("kind", "over_capacity")
            .with("message", "request queue full, retry later"),
    );
    let _ = http::write_response(&mut stream, 429, &[], format!("{body}\n").as_bytes());
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let next = {
            let mut queue = match shared.queue.lock() {
                Ok(q) => q,
                Err(_) => return,
            };
            loop {
                if let Some(item) = queue.pop_front() {
                    break Some(item);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                queue = match shared.available.wait_timeout(queue, Duration::from_millis(50)) {
                    Ok((q, _timed_out)) => q,
                    Err(_) => return,
                };
            }
        };
        let Some((stream, deadline)) = next else { return };
        handle_connection(shared, stream, deadline);
    }
}

fn record_span(shared: &Shared, name: &str, ns: u64) {
    if let Ok(mut reg) = shared.spans.lock() {
        reg.record_span(name, ns);
    }
}

fn handle_connection(shared: &Shared, mut stream: TcpStream, deadline: Instant) {
    let t0 = Instant::now();
    let req = match http::read_request(&mut stream, shared.cfg.max_body) {
        Ok(req) => req,
        Err(e) => {
            shared.stats.bump(ServeCounter::BadHttp);
            let err = ApiError::BadRequest(e.to_string());
            let _ = http::write_response(&mut stream, err.status(), &[], &err.body());
            return;
        }
    };
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/v1/run") => {
            let (status, headers, body) = serve_run(shared, &req.body, deadline, t0);
            let _ = http::write_response(&mut stream, status, &headers, &body);
        }
        ("GET", "/healthz") => {
            let body =
                Json::obj().with("schema", SERVE_TAG).with("ok", true).with("service", "d16-serve");
            let _ = http::write_response(&mut stream, 200, &[], format!("{body}\n").as_bytes());
        }
        ("GET", "/metrics") => {
            let body = build_metrics(shared);
            let _ = http::write_response(&mut stream, 200, &[], format!("{body}\n").as_bytes());
        }
        ("POST", "/shutdown") => {
            shared.shutdown.store(true, Ordering::SeqCst);
            shared.available.notify_all();
            let body =
                Json::obj().with("schema", SERVE_TAG).with("ok", true).with("shutting_down", true);
            let _ = http::write_response(&mut stream, 200, &[], format!("{body}\n").as_bytes());
        }
        (method, path) => {
            shared.stats.bump(ServeCounter::NotFound);
            let body = Json::obj().with("schema", SERVE_TAG).with("ok", false).with(
                "error",
                Json::obj()
                    .with("kind", "not_found")
                    .with("message", format!("no route for {method} {path}")),
            );
            let _ = http::write_response(&mut stream, 404, &[], format!("{body}\n").as_bytes());
        }
    }
}

type RunResponse = (u16, Vec<(&'static str, String)>, Vec<u8>);

fn serve_run(shared: &Shared, body: &[u8], deadline: Instant, t0: Instant) -> RunResponse {
    shared.stats.bump(ServeCounter::RunRequests);
    shared.stats.add(ServeCounter::BytesIn, body.len() as u64);
    let result = RunRequest::parse(body, shared.cfg.fuel_cap)
        .and_then(|req| api::run(&req, shared.store.as_ref(), deadline));
    let wall_ns = t0.elapsed().as_nanos() as u64;
    record_span(shared, "serve.request", wall_ns);
    match result {
        Ok(out) => {
            shared.stats.bump(ServeCounter::Ok);
            shared.stats.bump(if out.cache_hit {
                ServeCounter::CacheHit
            } else {
                ServeCounter::CacheMiss
            });
            shared.stats.add(ServeCounter::BytesOut, out.body.len() as u64);
            if !out.cache_hit {
                record_span(shared, "serve.compile", out.compile_ns);
                record_span(shared, "serve.execute", out.execute_ns);
            }
            let headers = vec![
                ("X-D16-Cache", if out.cache_hit { "hit" } else { "miss" }.to_string()),
                ("X-D16-Wall-Ns", wall_ns.to_string()),
            ];
            (200, headers, out.body)
        }
        Err(err) => {
            shared.stats.bump(match err.status() {
                400 => ServeCounter::UserError,
                422 => ServeCounter::CompileError,
                503 => ServeCounter::Degraded,
                _ => ServeCounter::InternalError,
            });
            let body = err.body();
            shared.stats.add(ServeCounter::BytesOut, body.len() as u64);
            (err.status(), vec![("X-D16-Wall-Ns", wall_ns.to_string())], body)
        }
    }
}

/// The `bench_serve/1` metrics document: serve + store counters and the
/// phase span histograms, rendered through one [`Registry`] exactly
/// like `repro --metrics-json`. Served live on `GET /metrics` and
/// written by the daemon on shutdown (`--metrics-json`).
fn build_metrics(shared: &Shared) -> Json {
    let mut reg = Registry::new();
    for (name, v) in shared.stats.named() {
        reg.add_counter(format!("serve.{name}"), v);
    }
    if let Some(store) = &shared.store {
        store.export_telemetry(&mut reg);
    }
    if let Ok(spans) = shared.spans.lock() {
        reg.merge(&spans);
    }
    Json::obj()
        .with("schema", "bench_serve/1")
        .with("kind", "metrics")
        .with("counters", report::counters_json(&reg))
        .with("span_counts", report::span_counts_json(&reg))
        .with("spans", report::spans_json(&reg))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_schema_names_are_pinned() {
        assert_eq!(
            SERVE_SCHEMA.names(),
            &[
                "run_requests",
                "ok",
                "user_error",
                "compile_error",
                "over_capacity",
                "internal_error",
                "degraded",
                "not_found",
                "bad_http",
                "cache_hit",
                "cache_miss",
                "bytes_in",
                "bytes_out",
            ]
        );
    }

    #[test]
    fn stats_count_in_schema_order() {
        let stats = ServeStats::default();
        stats.bump(ServeCounter::Ok);
        stats.bump(ServeCounter::Ok);
        stats.add(ServeCounter::BytesIn, 7);
        assert_eq!(stats.get("ok"), Some(2));
        assert_eq!(stats.get("bytes_in"), Some(7));
        assert_eq!(stats.get("run_requests"), Some(0));
        assert_eq!(stats.get("nope"), None);
    }

    #[test]
    fn default_config_is_bounded() {
        let cfg = ServeConfig::default();
        assert!(cfg.workers >= 1);
        assert!(cfg.queue_cap >= cfg.workers);
        assert!(cfg.max_body > 0);
        assert!(cfg.timeout > Duration::ZERO);
    }
}
