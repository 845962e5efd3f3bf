//! End-to-end tests of the serving layer (DESIGN.md §12): boot a real
//! server on an ephemeral port, drive it with the crate's own HTTP client,
//! and pin the three load-bearing properties — byte-parity with the CLI,
//! bit-reproducibility under concurrency, and zero-downtime hot swap.
//!
//! Fitting is expensive, so all tests share one lazily fitted pair of model
//! artifacts (seeds 11 and 12) and the CLI's expected synthesis outputs for
//! them, built once per test process.

use serd_repro::serd::api::{self, ApiError, ModelRef, SynthesisRequest, Table};
use serd_repro::serd::{SerdModel, SerdSynthesizer};
use serd_repro::serve::{client, ServeConfig, Server};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_serd-repro"))
}

/// Shared fixture: two fitted artifact versions plus the CLI's synthesis
/// output for each at seed 11.
struct Fixture {
    base: PathBuf,
    v1: PathBuf,
    v2: PathBuf,
    cli_v1: PathBuf,
    cli_v2: PathBuf,
}

impl Fixture {
    fn cli_csv(&self, version: u32, file: &str) -> String {
        let dir = if version == 1 { &self.cli_v1 } else { &self.cli_v2 };
        std::fs::read_to_string(dir.join(file)).unwrap()
    }
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let base = std::env::temp_dir().join(format!("serd_serve_test_{}", std::process::id()));
        std::fs::create_dir_all(&base).unwrap();
        let v1 = base.join("v1.serd");
        let v2 = base.join("v2.serd");
        let cli_v1 = base.join("cli_v1");
        let cli_v2 = base.join("cli_v2");
        let common = [
            "--dataset",
            "restaurant",
            "--scale",
            "0.02",
            "--min-matches",
            "4",
        ];
        for (seed, path) in [("11", &v1), ("12", &v2)] {
            let out = bin()
                .arg("fit")
                .args(common)
                .args(["--seed", seed, "--out", path.to_str().unwrap()])
                .output()
                .expect("run fit");
            assert!(
                out.status.success(),
                "fit seed {seed}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
        }
        // The CLI's rendering of each artifact at seed 11 — the parity
        // baseline for every server response below.
        for (model, dir) in [(&v1, &cli_v1), (&v2, &cli_v2)] {
            let out = bin()
                .arg("synthesize")
                .args(["--model", model.to_str().unwrap()])
                .args(["--seed", "11", "--out", dir.to_str().unwrap()])
                .output()
                .expect("run synthesize --model");
            assert!(
                out.status.success(),
                "synthesize: {}",
                String::from_utf8_lossy(&out.stderr)
            );
        }
        Fixture {
            base,
            v1,
            v2,
            cli_v1,
            cli_v2,
        }
    })
}

/// An in-process server bound to an ephemeral port, shut down on drop.
struct TestServer {
    server: Arc<Server>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl TestServer {
    fn start(models_dir: &Path, workers: usize) -> TestServer {
        let cfg = ServeConfig {
            models_dir: models_dir.to_path_buf(),
            addr: "127.0.0.1:0".to_string(),
            workers,
            ..ServeConfig::default()
        };
        TestServer::start_cfg(cfg)
    }

    fn start_cfg(cfg: ServeConfig) -> TestServer {
        let server = Arc::new(Server::bind(&cfg).unwrap());
        let runner = Arc::clone(&server);
        let handle = std::thread::spawn(move || runner.run());
        TestServer {
            server,
            handle: Some(handle),
        }
    }

    fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        self.server.shutdown();
        if let Some(h) = self.handle.take() {
            h.join().unwrap();
        }
    }
}

fn get(addr: SocketAddr, path: &str) -> client::Response {
    client::get(addr, path).expect("request failed")
}

#[test]
fn serve_end_to_end_with_hot_swap() {
    let fx = fixture();
    let models = fx.base.join("models_e2e");
    std::fs::create_dir_all(&models).unwrap();
    std::fs::copy(&fx.v1, models.join("restaurant.serd")).unwrap();

    let ts = TestServer::start(&models, 3);
    let addr = ts.addr();

    // Liveness and discovery.
    let health = get(addr, "/healthz");
    assert_eq!(health.status, 200);
    assert!(health.body.contains("\"status\":\"ok\""), "{}", health.body);
    let models_resp = get(addr, "/models");
    assert_eq!(models_resp.status, 200);
    assert!(models_resp.body.contains("\"name\":\"restaurant\""));
    assert!(models_resp.body.contains("\"epsilon\":"));
    assert!(models_resp.body.contains("\"version\":1"));
    assert!(models_resp.body.contains("\"backend\":\"gan\""), "{}", models_resp.body);

    // CSV responses are byte-identical to what `synthesize --model` wrote
    // for the same artifact and seed.
    for (table, file) in [("a", "A_syn.csv"), ("b", "B_syn.csv"), ("matches", "matches_syn.csv")]
    {
        let resp = get(
            addr,
            &format!("/synthesize?model=restaurant&seed=11&format=csv&table={table}"),
        );
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert_eq!(
            resp.body,
            fx.cli_csv(1, file),
            "server response for table={table} differs from the CLI's {file}"
        );
        assert_eq!(resp.header("x-model-version"), Some("1"));
        assert_eq!(resp.header("x-serd-seed"), Some("11"));
        assert!(resp.header("x-model-etag").is_some_and(|e| !e.is_empty()));
        assert_eq!(resp.header("content-type"), Some("text/csv"));
    }

    // JSON-lines: one object per line, summary last, seed echoed.
    let jsonl = get(addr, "/synthesize?model=restaurant&seed=11");
    assert_eq!(jsonl.status, 200);
    let lines: Vec<&str> = jsonl.body.lines().collect();
    assert!(lines.len() > 2);
    assert!(lines.iter().all(|l| l.starts_with('{') && l.ends_with('}')));
    assert!(lines.last().unwrap().contains("\"summary\""));
    assert!(lines.last().unwrap().contains("\"seed\":11"));

    // Bit-reproducibility under concurrency: hammer the server from many
    // threads and byte-compare every response against the serial baseline.
    let serial: Vec<String> = ["a", "b", "matches"]
        .iter()
        .map(|t| {
            get(
                addr,
                &format!("/synthesize?model=restaurant&seed=11&format=csv&table={t}"),
            )
            .body
        })
        .collect();
    std::thread::scope(|s| {
        for worker in 0..8 {
            let serial = &serial;
            s.spawn(move || {
                for round in 0..3 {
                    let idx = (worker + round) % 3;
                    let table = ["a", "b", "matches"][idx];
                    let resp = get(
                        addr,
                        &format!(
                            "/synthesize?model=restaurant&seed=11&format=csv&table={table}"
                        ),
                    );
                    assert_eq!(resp.status, 200);
                    assert_eq!(
                        resp.body, serial[idx],
                        "concurrent replay diverged from serial (table={table})"
                    );
                }
            });
        }
    });

    // Error mapping.
    assert_eq!(get(addr, "/synthesize?model=nope&seed=1").status, 404);
    assert_eq!(
        get(addr, "/synthesize?model=../traversal&seed=1").status,
        400
    );
    let bad = get(addr, "/synthesize?model=restaurant&typo=1");
    assert_eq!(bad.status, 400);
    assert!(bad.body.contains("\"kind\":\"bad_request\""), "{}", bad.body);
    assert_eq!(get(addr, "/nothing-here").status, 404);
    assert_eq!(
        client::request(addr, "DELETE", "/healthz").unwrap().status,
        405
    );

    // Hot swap under load: atomically rename v2 over the served artifact
    // while clients keep requesting. Every response must succeed and be
    // bit-identical to one of the two versions, consistently with its etag.
    let expected_v1 = fx.cli_csv(1, "A_syn.csv");
    let expected_v2 = fx.cli_csv(2, "A_syn.csv");
    let stop = AtomicBool::new(false);
    let swapped = std::thread::scope(|s| {
        let mut clients = Vec::new();
        for _ in 0..4 {
            let stop = &stop;
            clients.push(s.spawn(move || {
                let mut seen = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    let resp = get(
                        addr,
                        "/synthesize?model=restaurant&seed=11&format=csv&table=a",
                    );
                    assert_eq!(resp.status, 200, "request failed during swap");
                    seen.push((resp.header("x-model-etag").unwrap().to_string(), resp.body));
                }
                seen
            }));
        }
        std::thread::sleep(std::time::Duration::from_millis(200));
        // Write-then-rename: readers never observe a half-written artifact.
        let staging = fx.base.join("models_e2e").join("incoming.tmp");
        std::fs::copy(&fx.v2, &staging).unwrap();
        std::fs::rename(&staging, fx.base.join("models_e2e").join("restaurant.serd")).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(200));
        stop.store(true, Ordering::Relaxed);
        clients
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect::<Vec<_>>()
    });
    assert!(!swapped.is_empty());
    for (etag, body) in &swapped {
        assert!(
            *body == expected_v1 || *body == expected_v2,
            "mid-swap response matches neither version (etag {etag})"
        );
        // The etag always matches the body's generation: a cached v1 body
        // can never ride out under a v2 etag (or vice versa).
        let expected = if etag.contains(".v1.") {
            &expected_v1
        } else {
            &expected_v2
        };
        assert_eq!(
            body, expected,
            "etag {etag} served the other generation's body"
        );
    }
    // Same etag => same bytes: the version a request starts on is the
    // version it finishes on.
    for (etag, body) in &swapped {
        for (other_etag, other_body) in &swapped {
            if etag == other_etag {
                assert_eq!(body, other_body, "etag {etag} served two different bodies");
            }
        }
    }
    // After the swap settles, the server serves v2 exclusively.
    let post = get(
        addr,
        "/synthesize?model=restaurant&seed=11&format=csv&table=a",
    );
    assert_eq!(post.body, expected_v2, "post-swap response is not v2");
    assert_eq!(post.header("x-model-version"), Some("2"));

    // Metrics reflect the traffic: per-endpoint latency percentiles and the
    // swap counter.
    let metrics = get(addr, "/metrics");
    assert_eq!(metrics.status, 200);
    for needle in [
        "\"endpoint\":\"/synthesize\"",
        "\"p50_ms\":",
        "\"p99_ms\":",
        "\"buckets\":",
        "\"swaps_total\":1",
        "\"requests_total\":",
        "\"backends\":{\"gan\":1}",
    ] {
        assert!(metrics.body.contains(needle), "missing {needle} in {}", metrics.body);
    }
}

#[test]
fn per_request_overrides_and_conflicts() {
    let fx = fixture();
    // Build a SERD- artifact without another expensive fit: load v1, turn
    // rejection off, re-save.
    let models = fx.base.join("models_conflict");
    std::fs::create_dir_all(&models).unwrap();
    std::fs::copy(&fx.v1, models.join("full.serd")).unwrap();
    let mut norej = SerdModel::load_from(&fx.v1).unwrap();
    norej.online.reject_by_discriminator = false;
    norej.online.reject_by_distribution = false;
    norej.save_to(models.join("norej.serd")).unwrap();

    let ts = TestServer::start(&models, 2);
    let addr = ts.addr();

    // Tuning rejection on a SERD- artifact is a structured conflict...
    for q in [
        "/synthesize?model=norej&seed=1&alpha=0.5",
        "/synthesize?model=norej&seed=1&rejection=on",
    ] {
        let resp = get(addr, q);
        assert_eq!(resp.status, 409, "{q}: {}", resp.body);
        assert!(resp.body.contains("\"kind\":\"conflict\""), "{}", resp.body);
    }
    // ...but running it as fitted, or explicitly without rejection, is fine.
    for q in [
        "/synthesize?model=norej&seed=1",
        "/synthesize?model=norej&seed=1&rejection=off&max_retries=0",
    ] {
        assert_eq!(get(addr, q).status, 200, "{q}");
    }
    // On a full artifact, overrides apply and change the output shape.
    let shaped = get(
        addr,
        "/synthesize?model=full&seed=3&format=csv&table=a&n_a=5&rejection=off",
    );
    assert_eq!(shaped.status, 200);
    // Header row + 5 records.
    assert_eq!(shaped.body.lines().count(), 6, "{}", shaped.body);
    // Out-of-range knobs are bad requests even on a full artifact.
    assert_eq!(
        get(addr, "/synthesize?model=full&seed=1&beta=7").status,
        400
    );
    drop(ts);

    // The same taxonomy through the CLI: conflict exits with code 4...
    let out = bin()
        .args([
            "synthesize",
            "--model",
            models.join("norej.serd").to_str().unwrap(),
            "--alpha",
            "0.5",
            "--out",
            fx.base.join("conflict_out").to_str().unwrap(),
        ])
        .output()
        .expect("run binary");
    assert!(!out.status.success());
    assert_eq!(
        out.status.code(),
        Some(ApiError::Conflict(String::new()).exit_code() as i32)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("conflict"));

    // ...and --no-rejection with --model now actually disables rejection
    // (the pre-redesign CLI silently ignored it).
    let out = bin()
        .args([
            "synthesize",
            "--model",
            models.join("full.serd").to_str().unwrap(),
            "--no-rejection",
            "--seed",
            "11",
            "--out",
            fx.base.join("norej_out").to_str().unwrap(),
        ])
        .output()
        .expect("run binary");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("0 rejected by D, 0 by JSD"),
        "rejection ran despite --no-rejection: {stdout}"
    );
}

/// Same-length republish with no trustworthy mtime: the old `(mtime, len)`
/// stamp degraded to length-only when `modified()` was unavailable (the
/// epoch placeholder), so an overwrite that kept the byte length was never
/// noticed. The content-hash stamp component must catch it.
#[test]
fn same_length_republish_is_detected_without_mtime() {
    let fx = fixture();
    let models = fx.base.join("models_republish");
    std::fs::create_dir_all(&models).unwrap();
    let served = models.join("republish.serd");
    std::fs::copy(&fx.v1, &served).unwrap();
    let drop_mtime = |p: &Path| {
        std::fs::File::options()
            .write(true)
            .open(p)
            .unwrap()
            .set_modified(std::time::SystemTime::UNIX_EPOCH)
            .unwrap();
    };
    drop_mtime(&served);

    let cache = serd_repro::serve::ArtifactCache::new(&models).unwrap();
    let v1 = cache.get("republish").unwrap();
    assert_eq!(v1.version, 1);
    // Unchanged bytes under a degraded mtime: still version 1 (the hash
    // check confirms freshness instead of reloading every request).
    let again = cache.get("republish").unwrap();
    assert_eq!(again.version, 1);
    assert_eq!(again.etag, v1.etag);

    // Republish different content at the same byte length: bump n_a to a
    // value with the same decimal width, re-save, rename over, and zero the
    // mtime again.
    let mut model = SerdModel::load_from(&fx.v1).unwrap();
    let old_len = std::fs::metadata(&served).unwrap().len();
    let bumped = model.n_a + 1;
    model.n_a = if bumped.to_string().len() == model.n_a.to_string().len() {
        bumped
    } else {
        model.n_a - 1
    };
    let republished_n_a = model.n_a;
    let staging = models.join("incoming.tmp");
    model.save_to(&staging).unwrap();
    std::fs::rename(&staging, &served).unwrap();
    drop_mtime(&served);
    assert_eq!(
        std::fs::metadata(&served).unwrap().len(),
        old_len,
        "fixture drift: republish is no longer the same length"
    );

    let v2 = cache.get("republish").unwrap();
    assert_eq!(v2.version, 2, "same-length republish went unnoticed");
    assert_ne!(v2.etag, v1.etag);
    assert_eq!(v2.synth.model().n_a, republished_n_a);
    assert_eq!(cache.swaps(), 1);
}

/// Keep-alive parity: N requests down one persistent connection are
/// byte-identical to the same N requests on fresh connections, the server
/// honors its per-connection request budget with `Connection: close`, and
/// duplicate synthesis requests are answered from the response cache
/// (`X-Cache: hit`) with identical bytes.
#[test]
fn keepalive_requests_match_fresh_connections_and_hit_the_cache() {
    let fx = fixture();
    let models = fx.base.join("models_keepalive");
    std::fs::create_dir_all(&models).unwrap();
    std::fs::copy(&fx.v1, models.join("restaurant.serd")).unwrap();

    let cfg = ServeConfig {
        models_dir: models.clone(),
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        keepalive_max: 4,
        ..ServeConfig::default()
    };
    let ts = TestServer::start_cfg(cfg);
    let addr = ts.addr();

    let paths = [
        "/synthesize?model=restaurant&seed=11&format=csv&table=a",
        "/synthesize?model=restaurant&seed=11",
        "/healthz",
        "/synthesize?model=restaurant&seed=11&format=csv&table=matches",
        "/synthesize?model=restaurant&seed=12&format=csv&table=a",
        "/synthesize?model=restaurant&seed=11&format=csv&table=a",
    ];
    // Baseline: every path on its own fresh connection.
    let fresh: Vec<client::Response> = paths.iter().map(|p| get(addr, p)).collect();
    // The same sequence down one keep-alive client.
    let mut conn = client::Conn::new(addr);
    for (path, baseline) in paths.iter().zip(&fresh) {
        let resp = conn.get(path).expect("keep-alive request failed");
        assert_eq!(resp.status, baseline.status, "{path}");
        assert_eq!(
            resp.body, baseline.body,
            "keep-alive response for {path} differs from a fresh connection"
        );
        assert_eq!(
            resp.header("x-model-etag"),
            baseline.header("x-model-etag"),
            "{path}"
        );
    }
    // Six requests under a budget of four: the server closed the first
    // connection after request 4 and the client rolled onto a second —
    // without a failure-driven reconnect.
    assert_eq!(conn.requests(), paths.len() as u64);
    assert_eq!(conn.connections(), 2, "request budget was not enforced");
    assert_eq!(conn.reconnects(), 0);

    // The duplicate of the first path (sent twice above) was served from
    // the response cache with identical bytes.
    let repeat = conn.get(paths[0]).expect("repeat request");
    assert_eq!(repeat.header("x-cache"), Some("hit"), "expected a cache hit");
    assert_eq!(repeat.body, fresh[0].body);
    // Parameter order does not defeat the cache.
    let reordered = conn
        .get("/synthesize?seed=11&format=csv&model=restaurant&table=a")
        .expect("reordered request");
    assert_eq!(reordered.header("x-cache"), Some("hit"));
    assert_eq!(reordered.body, fresh[0].body);

    let metrics = get(addr, "/metrics");
    for needle in [
        "\"response_cache\":{\"hits\":",
        "\"admission\":{\"queued\":",
        "\"keepalive\":{\"connections_total\":",
        "\"model_requests\":{\"restaurant\":",
    ] {
        assert!(metrics.body.contains(needle), "missing {needle} in {}", metrics.body);
    }
    let hits_field = metrics
        .body
        .split("\"response_cache\":{\"hits\":")
        .nth(1)
        .and_then(|rest| rest.split(',').next())
        .and_then(|n| n.parse::<u64>().ok())
        .expect("response_cache.hits in /metrics");
    assert!(hits_field >= 2, "expected >=2 cache hits, got {hits_field}");
}

/// Admission control: with one worker pinned by an open connection and the
/// depth-1 queue holding another, the next connection is shed with `503`,
/// a `Retry-After` hint, and the structured `overloaded` error body.
#[test]
fn saturated_queue_sheds_with_503_and_retry_after() {
    let fx = fixture();
    let models = fx.base.join("models_overload");
    std::fs::create_dir_all(&models).unwrap();
    std::fs::copy(&fx.v1, models.join("restaurant.serd")).unwrap();

    let cfg = ServeConfig {
        models_dir: models.clone(),
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_depth: 1,
        idle_ms: 30_000, // pinned connections stay pinned for the whole test
        ..ServeConfig::default()
    };
    let ts = TestServer::start_cfg(cfg);
    let addr = ts.addr();

    // Pin the only worker: an admitted connection that never sends a
    // request holds the worker in its read loop until the idle timeout.
    let pin_worker = std::net::TcpStream::connect(addr).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(150));
    // Fill the depth-1 queue with a second idle connection.
    let fill_queue = std::net::TcpStream::connect(addr).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(150));

    // The third connection must be shed — an immediate 503, not a hang.
    let shed = get(addr, "/healthz");
    assert_eq!(shed.status, 503, "{}", shed.body);
    assert_eq!(shed.header("retry-after"), Some("1"));
    assert!(shed.wants_close());
    assert!(
        shed.body.contains("\"kind\":\"overloaded\"") && shed.body.contains("\"status\":503"),
        "shed body is not the structured overload error: {}",
        shed.body
    );
    assert!(ts.server.metrics().shed_total() >= 1);

    // Releasing the pinned connection frees the worker; the queued
    // connection and new traffic proceed normally.
    drop(pin_worker);
    drop(fill_queue);
    std::thread::sleep(std::time::Duration::from_millis(150));
    assert_eq!(get(addr, "/healthz").status, 200);
}

/// A hot swap under keep-alive load with caching on: no request fails, no
/// response ever pairs a v2 etag with a v1 body (or vice versa), and the
/// cache serves the new generation after the swap.
#[test]
fn hot_swap_never_serves_a_stale_cached_body() {
    let fx = fixture();
    let models = fx.base.join("models_swap_cache");
    std::fs::create_dir_all(&models).unwrap();
    std::fs::copy(&fx.v1, models.join("restaurant.serd")).unwrap();

    let ts = TestServer::start(&models, 2);
    let addr = ts.addr();
    let path = "/synthesize?model=restaurant&seed=11&format=csv&table=a";
    let expected_v1 = fx.cli_csv(1, "A_syn.csv");
    let expected_v2 = fx.cli_csv(2, "A_syn.csv");

    // Warm the cache on v1.
    let warm = get(addr, path);
    assert_eq!(warm.body, expected_v1);
    assert_eq!(get(addr, path).header("x-cache"), Some("hit"));

    // Swap to v2 while keep-alive clients replay the same (cacheable)
    // request in a loop.
    let stop = AtomicBool::new(false);
    let seen = std::thread::scope(|s| {
        let mut clients = Vec::new();
        for _ in 0..3 {
            let stop = &stop;
            clients.push(s.spawn(move || {
                let mut conn = client::Conn::new(addr);
                let mut seen = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    let resp = conn.get(path).expect("request during swap");
                    assert_eq!(resp.status, 200, "failed during swap: {}", resp.body);
                    seen.push((
                        resp.header("x-model-etag").unwrap().to_string(),
                        resp.body,
                    ));
                }
                seen
            }));
        }
        std::thread::sleep(std::time::Duration::from_millis(150));
        let staging = models.join("incoming.tmp");
        std::fs::copy(&fx.v2, &staging).unwrap();
        std::fs::rename(&staging, models.join("restaurant.serd")).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(250));
        stop.store(true, Ordering::Relaxed);
        clients
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect::<Vec<_>>()
    });
    assert!(!seen.is_empty());
    let mut saw_v2 = false;
    for (etag, body) in &seen {
        let expected = if etag.contains(".v1.") {
            &expected_v1
        } else {
            saw_v2 = true;
            &expected_v2
        };
        assert_eq!(body, expected, "etag {etag} paired with a stale body");
    }
    assert!(saw_v2, "swap never became visible under load");

    // Settled: v2 bytes, and the second post-swap request hits the cache
    // under the new etag.
    let post = get(addr, path);
    assert_eq!(post.body, expected_v2);
    let post2 = get(addr, path);
    assert_eq!(post2.header("x-cache"), Some("hit"));
    assert_eq!(post2.body, expected_v2);
}

#[test]
fn serve_requires_an_existing_models_dir() {
    let cfg = ServeConfig {
        models_dir: PathBuf::from("/nonexistent-serd-models"),
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        ..ServeConfig::default()
    };
    let err = match Server::bind(&cfg) {
        Err(e) => e,
        Ok(_) => panic!("bind over a missing models dir succeeded"),
    };
    assert!(matches!(err, ApiError::NotFound(_)), "{err}");
}

/// Every serve worker reads the one parsed model of an artifact version by
/// shared reference; this stops compiling if any part of the model (down to
/// the autograd nodes holding its weights) stops being `Send + Sync`.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<serd_repro::neural::Var>();
    assert_send_sync::<SerdModel>();
    assert_send_sync::<SerdSynthesizer>();
};

/// Four threads synthesizing from one shared `&SerdSynthesizer` produce the
/// same bytes as a serial run: inference never writes to the model.
#[test]
fn threads_sharing_one_model_match_the_serial_bytes() {
    let synth = SerdSynthesizer::from_model(SerdModel::load_from(&fixture().v1).unwrap());
    let render = |seed: u64| {
        let req = SynthesisRequest {
            seed,
            ..SynthesisRequest::new(ModelRef::Name("shared".into()))
        };
        let out = api::synthesize(&synth, &req).unwrap();
        [Table::A, Table::B, Table::Matches].map(|t| out.csv(t))
    };
    let serial: Vec<[String; 3]> = (1..=4).map(render).collect();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..4)
            .map(|_| s.spawn(|| (1..=4).map(render).collect::<Vec<_>>()))
            .collect();
        for worker in workers {
            assert_eq!(worker.join().unwrap(), serial, "shared-model run diverged");
        }
    });
}

/// An unchanged artifact is parsed once: repeated lookups hand out the same
/// model instance, and only a republish produces a new one.
#[test]
fn unchanged_artifact_resolves_to_the_same_model() {
    let fx = fixture();
    let models = fx.base.join("models_parse_once");
    std::fs::create_dir_all(&models).unwrap();
    let served = models.join("once.serd");
    std::fs::copy(&fx.v1, &served).unwrap();

    let cache = serd_repro::serve::ArtifactCache::new(&models).unwrap();
    let first = cache.get("once").unwrap();
    let second = cache.get("once").unwrap();
    assert!(
        Arc::ptr_eq(&first, &second),
        "unchanged artifact was re-parsed"
    );

    let staging = models.join("incoming.tmp");
    std::fs::copy(&fx.v2, &staging).unwrap();
    std::fs::rename(&staging, &served).unwrap();
    let swapped = cache.get("once").unwrap();
    assert!(!Arc::ptr_eq(&first, &swapped));
    assert_eq!(swapped.version, 2);
    assert!(Arc::ptr_eq(&swapped, &cache.get("once").unwrap()));
}
