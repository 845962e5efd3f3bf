//! The SERD online-synthesis service (DESIGN.md §12, §15).
//!
//! A long-running, std-only HTTP/1.1 server over a directory of versioned
//! `.serd` artifacts. The offline phase (`fit`, hours) publishes artifacts
//! into that directory; this crate is the online phase as a service: load
//! artifacts into an in-memory [`cache::ArtifactCache`], answer synthesis
//! requests from a bounded worker pool, and stream records back as chunked
//! CSV or JSON-lines.
//!
//! Endpoints:
//!
//! * `GET /healthz` — liveness + model count;
//! * `GET /models` — the artifact directory's models with fit metadata;
//! * `GET|POST /synthesize?model=<name>&seed=<u64>&format=csv|jsonl&...` —
//!   run one [`serd::api::SynthesisRequest`], streamed chunked;
//! * `GET /metrics` — request counters, per-endpoint latency percentiles,
//!   per-model counters, response-cache and admission stats, and the `obs`
//!   run report.
//!
//! The request path is built for sustained traffic (DESIGN.md §15):
//!
//! 1. **Keep-alive connections.** Workers loop requests over a persistent
//!    stream (HTTP/1.1 default), bounded by a per-connection request budget
//!    (`SERD_SERVE_KEEPALIVE_MAX`) and an idle read timeout
//!    (`SERD_SERVE_IDLE_MS`), reusing the parse buffer across requests.
//! 2. **Response caching.** Bodies are pure functions of
//!    `(artifact bytes, request)` — the determinism contract — so fully
//!    rendered bodies are cached in a byte-bounded LRU
//!    ([`respcache::ResponseCache`], `SERD_SERVE_CACHE_BUDGET`) keyed by
//!    `(etag, wire, canonical request)`. A hot swap changes the etag, so a
//!    stale body can never be served.
//! 3. **Bounded admission.** Accepted connections enter a fixed-depth queue
//!    (`SERD_SERVE_QUEUE_DEPTH`) in front of the workers; when it is full
//!    the connection is answered `503` + `Retry-After` and closed instead
//!    of being accepted without bound.
//! 4. **Artifact watching.** A background thread re-stats every artifact on
//!    a period (`SERD_SERVE_WATCH_MS`) so idle models hot-swap without
//!    waiting for a request; the per-request stat remains as a backstop.
//!
//! Bit-reproducibility under concurrency and zero-downtime hot swap carry
//! over unchanged from the original design (§12): every request derives its
//! own RNG from `seed ^ ONLINE_SEED_SALT`, every worker reads the one
//! parsed model of an artifact version, and in-flight requests finish on
//! the version they started with.

pub mod cache;
pub mod client;
pub mod http;
pub mod metrics;
pub mod respcache;

pub use cache::{ArtifactBlob, ArtifactCache};
pub use metrics::ServerMetrics;
pub use respcache::ResponseCache;

use http::ConnPolicy;
use respcache::CachedResponse;
use serd::api::{ApiError, ModelRef, OnlineOverrides, SynthesisRequest, Table};
use std::collections::VecDeque;
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Streamed response bodies are chunked at line boundaries around this size.
const CHUNK_TARGET: usize = 16 * 1024;

/// Default per-connection request budget (`SERD_SERVE_KEEPALIVE_MAX`).
pub const DEFAULT_KEEPALIVE_MAX: usize = 100;
/// Default idle read timeout in ms (`SERD_SERVE_IDLE_MS`).
pub const DEFAULT_IDLE_MS: u64 = 5_000;
/// Default response-cache byte budget (`SERD_SERVE_CACHE_BUDGET`).
pub const DEFAULT_CACHE_BUDGET: usize = 32 << 20;
/// Default admission queue depth (`SERD_SERVE_QUEUE_DEPTH`).
pub const DEFAULT_QUEUE_DEPTH: usize = 32;
/// Default artifact watch period in ms (`SERD_SERVE_WATCH_MS`; 0 disables).
pub const DEFAULT_WATCH_MS: u64 = 500;

fn env_num<T: std::str::FromStr>(key: &str, default: T) -> T {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// How the server is bound and sized. The serving knobs default from the
/// environment so deployments tune them without code changes.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Directory of `<name>.serd` artifacts.
    pub models_dir: PathBuf,
    /// Listen address, e.g. `127.0.0.1:7878` (port 0 picks an ephemeral one).
    pub addr: String,
    /// Concurrent request workers (each owns one connection at a time).
    pub workers: usize,
    /// Requests served per connection before the server closes it
    /// (`SERD_SERVE_KEEPALIVE_MAX`, default 100). Minimum 1.
    pub keepalive_max: usize,
    /// Idle read timeout between requests on a keep-alive connection, ms
    /// (`SERD_SERVE_IDLE_MS`, default 5000).
    pub idle_ms: u64,
    /// Response-cache budget in body bytes (`SERD_SERVE_CACHE_BUDGET`,
    /// default 32 MiB; 0 disables caching).
    pub cache_budget: usize,
    /// Admission queue depth in connections (`SERD_SERVE_QUEUE_DEPTH`,
    /// default 32). A connection arriving while `queue_depth` others wait
    /// is shed with `503` + `Retry-After`.
    pub queue_depth: usize,
    /// Artifact watch period in ms (`SERD_SERVE_WATCH_MS`, default 500;
    /// 0 disables the watch thread — swaps then wait for a request).
    pub watch_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            models_dir: PathBuf::from("models"),
            addr: "127.0.0.1:7878".to_string(),
            workers: parallel::num_threads(),
            keepalive_max: env_num("SERD_SERVE_KEEPALIVE_MAX", DEFAULT_KEEPALIVE_MAX),
            idle_ms: env_num("SERD_SERVE_IDLE_MS", DEFAULT_IDLE_MS),
            cache_budget: env_num("SERD_SERVE_CACHE_BUDGET", DEFAULT_CACHE_BUDGET),
            queue_depth: env_num("SERD_SERVE_QUEUE_DEPTH", DEFAULT_QUEUE_DEPTH),
            watch_ms: env_num("SERD_SERVE_WATCH_MS", DEFAULT_WATCH_MS),
        }
    }
}

/// The bound server. Share it via `Arc` and call [`Server::run`] on one
/// thread; [`Server::shutdown`] from any other unblocks and drains it.
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    cache: ArtifactCache,
    respcache: ResponseCache,
    metrics: ServerMetrics,
    workers: usize,
    keepalive_max: usize,
    idle_ms: u64,
    queue_depth: usize,
    watch_ms: u64,
    shutdown: AtomicBool,
    queue: Mutex<VecDeque<TcpStream>>,
    queue_cv: Condvar,
}

/// Requested wire format for a synthesis response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Wire {
    Csv(Table),
    Jsonl,
}

impl Wire {
    /// The wire component of the response-cache key.
    fn cache_tag(self) -> &'static str {
        match self {
            Wire::Csv(Table::A) => "csv:a",
            Wire::Csv(Table::B) => "csv:b",
            Wire::Csv(Table::Matches) => "csv:matches",
            Wire::Jsonl => "jsonl",
        }
    }
}

impl Server {
    /// Binds the listener and opens the artifact cache. Fails fast on a
    /// missing models directory or an unbindable address.
    pub fn bind(cfg: &ServeConfig) -> Result<Server, ApiError> {
        let cache = ArtifactCache::new(&cfg.models_dir)?;
        let listener = TcpListener::bind(&cfg.addr)
            .map_err(|e| ApiError::Io(format!("bind {}: {e}", cfg.addr)))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| ApiError::Io(format!("local_addr: {e}")))?;
        Ok(Server {
            listener,
            local_addr,
            cache,
            respcache: ResponseCache::new(cfg.cache_budget),
            metrics: ServerMetrics::new(),
            workers: cfg.workers.max(1),
            keepalive_max: cfg.keepalive_max.max(1),
            idle_ms: cfg.idle_ms.max(1),
            queue_depth: cfg.queue_depth,
            watch_ms: cfg.watch_ms,
            shutdown: AtomicBool::new(false),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
        })
    }

    /// The actually bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The artifact cache (exposed for tests and the bench driver).
    pub fn cache(&self) -> &ArtifactCache {
        &self.cache
    }

    /// The response cache (exposed for tests and the bench driver).
    pub fn response_cache(&self) -> &ResponseCache {
        &self.respcache
    }

    /// Request metrics (exposed for tests and the bench driver).
    pub fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }

    /// Signals [`Server::run`] to stop accepting and drain. Safe to call
    /// from any thread, any number of times.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        self.queue_cv.notify_all();
    }

    fn stopping(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Accepts and serves connections until [`Server::shutdown`]: `workers`
    /// worker threads drain the admission queue (each owning one keep-alive
    /// connection at a time), a watch thread re-stats artifacts on a period,
    /// and the calling thread runs the accept/admission loop. Connections
    /// arriving while the queue is full are shed with `503` + `Retry-After`
    /// instead of being accepted without bound. Returns after in-flight
    /// connections drain.
    pub fn run(&self) {
        std::thread::scope(|s| {
            for _ in 0..self.workers {
                s.spawn(|| self.worker_loop());
            }
            if self.watch_ms > 0 {
                s.spawn(|| self.watch_loop());
            }
            for conn in self.listener.incoming() {
                if self.stopping() {
                    break;
                }
                let stream = match conn {
                    Ok(stream) => stream,
                    Err(_) => continue,
                };
                self.admit(stream);
            }
            // Drain: wake every worker so they observe the flag and exit.
            self.shutdown.store(true, Ordering::Release);
            self.queue_cv.notify_all();
        });
    }

    /// Admission control: enqueue the connection for a worker, or shed it
    /// with `503` + `Retry-After` when the queue is at depth. The shed
    /// response is written from the accept thread — a fixed ~150-byte body
    /// that fits any socket send buffer, so a slow client cannot stall
    /// accepting.
    fn admit(&self, stream: TcpStream) {
        {
            let mut q = self.queue.lock().unwrap();
            if q.len() < self.queue_depth {
                q.push_back(stream);
                drop(q);
                self.metrics.note_queued();
                self.queue_cv.notify_one();
                return;
            }
        }
        self.metrics.note_shed();
        let mut timer = self.metrics.begin("shed");
        timer.set_status(503);
        let err = ApiError::Overloaded(format!(
            "admission queue full ({} connections waiting)",
            self.queue_depth
        ));
        // Drain the request before answering: closing with unread bytes in
        // the receive buffer would RST the connection and could destroy the
        // 503 before the client reads it. Bounded by a short timeout so a
        // silent client cannot stall the accept thread.
        let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
        let mut reader = BufReader::new(&stream);
        let mut scratch = Vec::with_capacity(128);
        let _ = http::read_request(&mut reader, &mut scratch);
        let mut writer = BufWriter::new(&stream);
        let _ = write_error(&mut writer, &err, ConnPolicy::Close);
    }

    /// One worker: pop connections off the admission queue and serve each
    /// until it closes (peer close, idle timeout, request budget, or
    /// shutdown).
    fn worker_loop(&self) {
        loop {
            let stream = {
                let mut q = self.queue.lock().unwrap();
                loop {
                    if let Some(stream) = q.pop_front() {
                        break Some(stream);
                    }
                    if self.stopping() {
                        break None;
                    }
                    let (guard, _) = self
                        .queue_cv
                        .wait_timeout(q, Duration::from_millis(100))
                        .unwrap();
                    q = guard;
                }
            };
            match stream {
                Some(stream) => self.handle_connection(stream),
                None => return,
            }
        }
    }

    /// Background artifact watch: re-stat (and on change, reload) every
    /// model on a period, so a published artifact swaps in even when no
    /// request touches it — and the response cache drops the old version's
    /// entries right away.
    fn watch_loop(&self) {
        let period = Duration::from_millis(self.watch_ms);
        let mut next = Instant::now() + period;
        while !self.stopping() {
            let now = Instant::now();
            if now < next {
                // Sleep in short slices so shutdown is prompt even with a
                // long watch period.
                std::thread::sleep(next.duration_since(now).min(Duration::from_millis(50)));
                continue;
            }
            next = Instant::now() + period;
            for name in self.cache.list_names() {
                if self.stopping() {
                    return;
                }
                if let Ok(blob) = self.cache.get(&name) {
                    self.respcache.note_model_etag(&blob.name, &blob.etag);
                }
            }
            obs::counter("serve.watch.polls", 1);
        }
    }

    /// Serves one connection: loop keep-alive requests over the stream,
    /// reusing the parse buffer, until the peer closes, the idle timeout
    /// fires between requests, the per-connection budget is spent, or the
    /// server is shutting down.
    fn handle_connection(&self, stream: TcpStream) {
        let _ = stream.set_read_timeout(Some(Duration::from_millis(self.idle_ms)));
        let _ = stream.set_nodelay(true);
        let mut reader = BufReader::new(&stream);
        let mut writer = BufWriter::new(&stream);
        let mut scratch = Vec::with_capacity(256);
        let mut served: u64 = 0;
        loop {
            match http::read_request(&mut reader, &mut scratch) {
                Ok(Some(req)) => {
                    served += 1;
                    let close = req.wants_close
                        || served >= self.keepalive_max as u64
                        || self.stopping();
                    let conn = if close {
                        ConnPolicy::Close
                    } else {
                        ConnPolicy::KeepAlive
                    };
                    if self.route(&req, &mut writer, conn).is_err() {
                        break; // peer hung up mid-response
                    }
                    if close {
                        break;
                    }
                }
                Ok(None) => break, // clean close or idle timeout
                Err(e) => {
                    // The request never reached a route; label it as such
                    // and close — the stream state is unknown.
                    let mut timer = self.metrics.begin("malformed");
                    timer.set_status(e.http_status());
                    let _ = write_error(&mut writer, &e, ConnPolicy::Close);
                    break;
                }
            }
        }
        self.metrics.note_connection_done(served);
        obs::gauge("serve.keepalive.requests_per_conn", self.metrics.requests_per_conn());
    }

    fn route(
        &self,
        req: &http::Request,
        w: &mut impl Write,
        conn: ConnPolicy,
    ) -> std::io::Result<()> {
        let label: &'static str = match req.path.as_str() {
            "/healthz" => "/healthz",
            "/models" => "/models",
            "/metrics" => "/metrics",
            "/synthesize" => "/synthesize",
            _ => "other",
        };
        let mut timer = self.metrics.begin(label);
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/healthz") => self.handle_healthz(w, conn),
            ("GET", "/models") => self.handle_models(w, conn),
            ("GET", "/metrics") => self.handle_metrics(w, conn),
            ("GET" | "POST", "/synthesize") => self.handle_synthesize(req, w, conn, &mut timer),
            ("GET" | "POST", _) => {
                timer.set_status(404);
                write_error(
                    w,
                    &ApiError::NotFound(format!("no route for {}", req.path)),
                    conn,
                )
            }
            (method, _) => {
                timer.set_status(405);
                http::write_simple(
                    w,
                    405,
                    "application/json",
                    conn,
                    &[],
                    &format!(
                        "{{\"error\":{{\"kind\":\"method_not_allowed\",\"status\":405,\
                         \"message\":\"method {} is not supported\"}}}}",
                        obs::json_escape(method)
                    ),
                )
            }
        }
    }

    fn handle_healthz(&self, w: &mut impl Write, conn: ConnPolicy) -> std::io::Result<()> {
        let body = format!(
            "{{\"status\":\"ok\",\"models\":{},\"workers\":{}}}\n",
            self.cache.list_names().len(),
            self.workers,
        );
        http::write_simple(w, 200, "application/json", conn, &[], &body)
    }

    fn handle_models(&self, w: &mut impl Write, conn: ConnPolicy) -> std::io::Result<()> {
        let mut entries = Vec::new();
        for name in self.cache.list_names() {
            match self.cache.get(&name) {
                Ok(blob) => {
                    let model = blob.synth.model();
                    entries.push(format!(
                        "{{\"name\":\"{}\",\"version\":{},\"etag\":\"{}\",\"n_a\":{},\
                         \"n_b\":{},\"epsilon\":{},\"rejection\":{},\"backend\":\"{}\",\
                         \"relations\":[\"{}\",\"{}\"]}}",
                        obs::json_escape(&blob.name),
                        blob.version,
                        obs::json_escape(&blob.etag),
                        model.n_a,
                        model.n_b,
                        obs::json_f64(model.epsilon),
                        model.online.reject_by_discriminator || model.online.reject_by_distribution,
                        model.backend.kind().name(),
                        obs::json_escape(&model.names.0),
                        obs::json_escape(&model.names.1),
                    ));
                }
                Err(e) => entries.push(format!(
                    "{{\"name\":\"{}\",\"error\":\"{}\"}}",
                    obs::json_escape(&name),
                    obs::json_escape(&e.to_string()),
                )),
            }
        }
        let body = format!("{{\"models\":[{}]}}\n", entries.join(","));
        http::write_simple(w, 200, "application/json", conn, &[], &body)
    }

    fn handle_metrics(&self, w: &mut impl Write, conn: ConnPolicy) -> std::io::Result<()> {
        let backends = self
            .cache
            .backend_counts()
            .into_iter()
            .map(|(b, n)| format!("\"{b}\":{n}"))
            .collect::<Vec<_>>()
            .join(",");
        let body = format!(
            "{{\"server\":{},\"cache\":{{\"models_loaded\":{},\"swaps_total\":{},\
             \"failed_swaps_total\":{},\"backends\":{{{}}},\"workers\":{}}},\
             \"response_cache\":{},\"obs\":{}}}\n",
            self.metrics.to_json(),
            self.cache.loaded(),
            self.cache.swaps(),
            self.cache.failed_swaps(),
            backends,
            self.workers,
            self.respcache.to_json(),
            obs::report_json(),
        );
        http::write_simple(w, 200, "application/json", conn, &[], &body)
    }

    fn handle_synthesize(
        &self,
        req: &http::Request,
        w: &mut impl Write,
        conn: ConnPolicy,
        timer: &mut metrics::RequestTimer<'_>,
    ) -> std::io::Result<()> {
        match self.synthesize_response(req) {
            Ok((resp, cache_state)) => {
                let headers = vec![
                    ("X-Model-Etag".to_string(), resp.etag.clone()),
                    ("X-Model-Version".to_string(), resp.version.to_string()),
                    ("X-Serd-Seed".to_string(), resp.seed.to_string()),
                    ("X-Cache".to_string(), cache_state.to_string()),
                ];
                http::write_chunked(
                    w,
                    200,
                    resp.content_type,
                    conn,
                    &headers,
                    http::chunk_lines(&resp.body, CHUNK_TARGET).into_iter(),
                )
            }
            Err(e) => {
                timer.set_status(e.http_status());
                write_error(w, &e, conn)
            }
        }
    }

    /// The pure part of `/synthesize`: parse → resolve blob → consult the
    /// response cache → on miss, synthesize from the blob's shared model and
    /// render. Returns the cached-or-fresh body plus `"hit"`/`"miss"` for
    /// the `X-Cache` header. The cache key embeds the blob's etag, so the
    /// etag header and body are consistent by construction — across hot
    /// swaps included.
    fn synthesize_response(
        &self,
        req: &http::Request,
    ) -> Result<(Arc<CachedResponse>, &'static str), ApiError> {
        let (name, sreq, wire) = parse_synthesize_query(req)?;
        let blob = self.cache.get(&name)?;
        self.metrics.note_model_request(&name);
        self.respcache.note_model_etag(&blob.name, &blob.etag);
        let key = ResponseCache::key(&blob.etag, wire.cache_tag(), &sreq.canonical_key());
        if let Some(cached) = self.respcache.get(&key) {
            obs::counter("serve.synthesize", 1);
            return Ok((cached, "hit"));
        }
        let response = serd::api::synthesize(&blob.synth, &sreq)?;
        obs::counter("serve.synthesize", 1);
        let (body, content_type) = match wire {
            Wire::Csv(table) => (response.csv(table), "text/csv"),
            Wire::Jsonl => (response.jsonl(), "application/x-ndjson"),
        };
        let rendered = Arc::new(CachedResponse {
            model: blob.name.clone(),
            etag: blob.etag.clone(),
            version: blob.version,
            seed: sreq.seed,
            content_type,
            body,
        });
        self.respcache.insert(key, Arc::clone(&rendered));
        Ok((rendered, "miss"))
    }
}

fn write_error(w: &mut impl Write, e: &ApiError, conn: ConnPolicy) -> std::io::Result<()> {
    let mut extra = Vec::new();
    if e.http_status() == 503 {
        // Overload is transient by definition; tell well-behaved clients
        // when to come back.
        extra.push(("Retry-After".to_string(), "1".to_string()));
    }
    http::write_simple(
        w,
        e.http_status(),
        "application/json",
        conn,
        &extra,
        &e.to_json(),
    )
}

fn bad(msg: String) -> ApiError {
    ApiError::BadRequest(msg)
}

fn parse_num<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, ApiError> {
    value
        .parse()
        .map_err(|_| bad(format!("cannot parse {key}={value:?}")))
}

/// Parses `/synthesize` query parameters into a typed request. Unknown
/// parameters are rejected outright: a typo'd knob must not silently run
/// with defaults.
fn parse_synthesize_query(
    req: &http::Request,
) -> Result<(String, SynthesisRequest, Wire), ApiError> {
    let mut name: Option<String> = None;
    let mut seed: u64 = 42;
    let mut format: Option<String> = None;
    let mut table: Option<Table> = None;
    let mut n_a: Option<usize> = None;
    let mut n_b: Option<usize> = None;
    let mut overrides = OnlineOverrides::default();

    for (key, value) in &req.query {
        match key.as_str() {
            "model" => name = Some(value.clone()),
            "seed" => seed = parse_num(key, value)?,
            "format" => format = Some(value.clone()),
            "table" => {
                table = Some(match value.as_str() {
                    "a" | "A" => Table::A,
                    "b" | "B" => Table::B,
                    "matches" => Table::Matches,
                    other => {
                        return Err(bad(format!(
                            "table must be one of a|b|matches, got {other:?}"
                        )))
                    }
                })
            }
            "n_a" => n_a = Some(parse_num(key, value)?),
            "n_b" => n_b = Some(parse_num(key, value)?),
            "rejection" => {
                overrides.rejection = Some(match value.as_str() {
                    "on" | "true" | "1" => true,
                    "off" | "false" | "0" => false,
                    other => {
                        return Err(bad(format!(
                            "rejection must be on|off, got {other:?}"
                        )))
                    }
                })
            }
            "alpha" => overrides.alpha = Some(parse_num(key, value)?),
            "beta" => overrides.beta = Some(parse_num(key, value)?),
            "max_retries" => overrides.max_retries = Some(parse_num(key, value)?),
            other => return Err(bad(format!("unknown parameter {other:?}"))),
        }
    }

    let name = name.ok_or_else(|| bad("missing required parameter \"model\"".to_string()))?;
    let wire = match format.as_deref() {
        None | Some("jsonl") => {
            if table.is_some() {
                return Err(bad(
                    "parameter \"table\" only applies to format=csv".to_string(),
                ));
            }
            Wire::Jsonl
        }
        Some("csv") => Wire::Csv(table.ok_or_else(|| {
            bad("format=csv requires table=a|b|matches".to_string())
        })?),
        Some(other) => return Err(bad(format!("format must be csv|jsonl, got {other:?}"))),
    };

    let request = SynthesisRequest {
        model: ModelRef::Name(name.clone()),
        seed,
        n_a,
        n_b,
        overrides,
    };
    Ok((name, request, wire))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn query(q: &str) -> http::Request {
        http::Request {
            method: "GET".to_string(),
            path: "/synthesize".to_string(),
            query: http::parse_query(q),
            wants_close: false,
        }
    }

    #[test]
    fn synthesize_query_full_roundtrip() {
        let (name, req, wire) = parse_synthesize_query(&query(
            "model=restaurant&seed=7&format=csv&table=matches&n_a=10&n_b=20&rejection=off\
             &alpha=0.5&beta=0.9&max_retries=3",
        ))
        .unwrap();
        assert_eq!(name, "restaurant");
        assert_eq!(req.seed, 7);
        assert_eq!(req.n_a, Some(10));
        assert_eq!(req.n_b, Some(20));
        assert_eq!(req.overrides.rejection, Some(false));
        assert_eq!(req.overrides.alpha, Some(0.5));
        assert_eq!(req.overrides.beta, Some(0.9));
        assert_eq!(req.overrides.max_retries, Some(3));
        assert_eq!(wire, Wire::Csv(Table::Matches));
    }

    #[test]
    fn synthesize_query_defaults() {
        let (name, req, wire) = parse_synthesize_query(&query("model=m")).unwrap();
        assert_eq!(name, "m");
        assert_eq!(req.seed, 42);
        assert_eq!(req.n_a, None);
        assert!(req.overrides.is_empty());
        assert_eq!(wire, Wire::Jsonl);
    }

    #[test]
    fn synthesize_query_rejects_bad_input() {
        for q in [
            "",                             // missing model
            "model=m&typo=1",               // unknown parameter
            "model=m&seed=minus-one",       // unparsable number
            "model=m&format=xml",           // unknown format
            "model=m&format=csv",           // csv without table
            "model=m&table=a",              // table without csv
            "model=m&format=jsonl&table=a", // table with jsonl
            "model=m&rejection=maybe",      // bad bool
            "model=m&format=csv&table=c",   // bad table
        ] {
            let err = match parse_synthesize_query(&query(q)) {
                Err(e) => e,
                Ok(_) => panic!("query {q:?} unexpectedly parsed"),
            };
            assert!(matches!(err, ApiError::BadRequest(_)), "{q:?} -> {err}");
        }
    }

    #[test]
    fn query_order_does_not_change_the_cache_key() {
        let (_, a, wire_a) =
            parse_synthesize_query(&query("model=m&n_a=5&seed=1&format=csv&table=a")).unwrap();
        let (_, b, wire_b) =
            parse_synthesize_query(&query("seed=1&format=csv&model=m&table=a&n_a=5")).unwrap();
        assert_eq!(a.canonical_key(), b.canonical_key());
        assert_eq!(wire_a.cache_tag(), wire_b.cache_tag());
        // Equivalent spellings normalize too.
        let (_, c, _) =
            parse_synthesize_query(&query("model=m&n_a=5&seed=1&format=csv&table=A&rejection=off"))
                .unwrap();
        let (_, d, _) =
            parse_synthesize_query(&query("model=m&n_a=5&seed=1&format=csv&table=a&rejection=0"))
                .unwrap();
        assert_eq!(c.canonical_key(), d.canonical_key());
    }

    #[test]
    fn wire_cache_tags_are_distinct() {
        let tags = [
            Wire::Csv(Table::A).cache_tag(),
            Wire::Csv(Table::B).cache_tag(),
            Wire::Csv(Table::Matches).cache_tag(),
            Wire::Jsonl.cache_tag(),
        ];
        for (i, a) in tags.iter().enumerate() {
            for b in &tags[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn serve_config_defaults_are_sane() {
        let cfg = ServeConfig::default();
        assert!(cfg.keepalive_max >= 1);
        assert!(cfg.idle_ms >= 1);
        assert!(cfg.queue_depth >= 1);
    }
}
