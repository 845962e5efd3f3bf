//! Serving-layer benchmark: sustained request throughput over keep-alive
//! connections, per-class latency percentiles (cache hit vs miss split),
//! hot-swap downtime (expected: zero failed requests), and admission-control
//! load shedding under deliberate overload.
//!
//! Boots an in-process [`serd_repro::serve::Server`] over two freshly fitted
//! artifact versions and drives it from persistent keep-alive clients with a
//! fixed request mix:
//!
//! * `synthesize_csv` — cold synthesis, a unique seed per request so every
//!   one misses the response cache;
//! * `synthesize_cached` — one fixed request replayed, so after warmup it is
//!   answered from the response cache (the hit class);
//! * `synthesize_jsonl`, `healthz`, `models` — the remaining mix.
//!
//! The served artifact is atomically swapped between the two versions while
//! the load runs. A second, deliberately undersized server (one worker,
//! depth-1 queue) is then flooded to exercise load shedding. Emits one JSON
//! document on stdout — `scripts/bench_serve.sh` redirects it to
//! `BENCH_serve.json`.
//!
//! Exits nonzero when any request fails, when the overload phase sheds
//! nothing, when cached and uncached bodies differ, or when the cached p50
//! is not at least 10x faster than cold synthesis.
//!
//! Knobs (environment): `SERVE_BENCH_SECS` (default 3), `SERVE_BENCH_SCALE`
//! (default 0.02), `SERVE_BENCH_WORKERS` (default min(cores, 4)).

use rand::rngs::StdRng;
use rand::SeedableRng;
use serd_repro::prelude::*;
use serd_repro::serve::metrics::percentile;
use serd_repro::serve::{client, ServeConfig, Server};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const CLASSES: [&str; 5] = [
    "synthesize_csv",
    "synthesize_cached",
    "synthesize_jsonl",
    "healthz",
    "models",
];

/// The fixed request behind the `synthesize_cached` class (and its jsonl
/// sibling) — replayed verbatim so it hits the response cache.
const CACHED_PATH: &str = "/synthesize?model=restaurant&seed=1&format=csv&table=a";
const JSONL_PATH: &str = "/synthesize?model=restaurant&seed=1";

fn env_num<T: std::str::FromStr>(key: &str, default: T) -> T {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Request mix per 10-slot round: 1 cold CSV synthesis, 6 cached replays,
/// 1 JSON-lines, 1 health, 1 model listing. Every class appears within the
/// first 10 slots, so even a minimal run reports all classes.
fn class_of(slot: u64) -> usize {
    match slot % 10 {
        0 => 0,
        1..=6 => 1,
        7 => 2,
        8 => 3,
        _ => 4,
    }
}

fn path_of(class: usize, cold_seed: &AtomicU64) -> String {
    match class {
        0 => {
            // A never-repeating seed: every cold request misses the cache.
            let seed = cold_seed.fetch_add(1, Ordering::Relaxed);
            format!("/synthesize?model=restaurant&seed={seed}&format=csv&table=a")
        }
        1 => CACHED_PATH.to_string(),
        2 => JSONL_PATH.to_string(),
        3 => "/healthz".to_string(),
        _ => "/models".to_string(),
    }
}

fn main() {
    let secs: f64 = env_num("SERVE_BENCH_SECS", 3.0);
    let scale: f64 = env_num("SERVE_BENCH_SCALE", 0.02);
    let workers: usize = env_num(
        "SERVE_BENCH_WORKERS",
        serd_repro::parallel::num_threads().min(4),
    );

    // Offline: fit two artifact versions to swap between.
    let dir = std::env::temp_dir().join(format!("serd_bench_serve_{}", std::process::id()));
    let models = dir.join("models");
    std::fs::create_dir_all(&models).expect("create models dir");
    let mut versions = Vec::new();
    for seed in [1u64, 2u64] {
        let mut rng = StdRng::seed_from_u64(seed);
        let sim = serd_repro::datagen::generate_with_min_matches(
            DatasetKind::Restaurant,
            scale,
            8,
            &mut rng,
        );
        let model = SerdSynthesizer::fit(&sim.er, &sim.background, SerdConfig::fast(), &mut rng)
            .expect("fit");
        let path = dir.join(format!("v{seed}.serd"));
        model.save_to(&path).expect("save artifact");
        versions.push(path);
    }
    std::fs::copy(&versions[0], models.join("restaurant.serd")).expect("install v1");

    // Boot the server on an ephemeral port.
    let server = Arc::new(
        Server::bind(&ServeConfig {
            models_dir: models.clone(),
            addr: "127.0.0.1:0".to_string(),
            workers,
            ..ServeConfig::default()
        })
        .expect("bind server"),
    );
    let addr: SocketAddr = server.local_addr();
    let runner = Arc::clone(&server);
    let run_handle = std::thread::spawn(move || runner.run());

    // Warmup + byte-identity proof: the first replay of the fixed request
    // renders fresh (miss), the second is served from the cache (hit), and
    // the bodies must be bit-identical.
    let mut warm = client::Conn::new(addr);
    let miss = warm.get(CACHED_PATH).expect("warmup miss");
    let hit = warm.get(CACHED_PATH).expect("warmup hit");
    assert_eq!(miss.status, 200, "{}", miss.body);
    let cache_bodies_identical = miss.body == hit.body
        && miss.header("x-cache") == Some("miss")
        && hit.header("x-cache") == Some("hit");
    warm.get(JSONL_PATH).expect("warmup jsonl");
    drop(warm);

    // Online: persistent keep-alive clients drive the fixed mix until the
    // deadline; the main thread swaps artifact versions underneath them.
    let stop = Arc::new(AtomicBool::new(false));
    let failed = Arc::new(AtomicU64::new(0));
    let slot_counter = Arc::new(AtomicU64::new(0));
    // Cold seeds start past every fixed seed used anywhere in this bench.
    let cold_seed = Arc::new(AtomicU64::new(1000));
    let xcache_hits = Arc::new(AtomicU64::new(0));
    let xcache_misses = Arc::new(AtomicU64::new(0));
    let conns_opened = Arc::new(AtomicU64::new(0));
    let conn_reconnects = Arc::new(AtomicU64::new(0));
    let latencies: Arc<Vec<Mutex<Vec<f64>>>> =
        Arc::new(CLASSES.iter().map(|_| Mutex::new(Vec::new())).collect());

    let t0 = Instant::now();
    let mut clients = Vec::new();
    for _ in 0..workers {
        let stop = Arc::clone(&stop);
        let failed = Arc::clone(&failed);
        let slots = Arc::clone(&slot_counter);
        let cold_seed = Arc::clone(&cold_seed);
        let xcache_hits = Arc::clone(&xcache_hits);
        let xcache_misses = Arc::clone(&xcache_misses);
        let conns_opened = Arc::clone(&conns_opened);
        let conn_reconnects = Arc::clone(&conn_reconnects);
        let latencies = Arc::clone(&latencies);
        clients.push(std::thread::spawn(move || {
            let mut conn = client::Conn::new(addr);
            while !stop.load(Ordering::Relaxed) {
                let slot = slots.fetch_add(1, Ordering::Relaxed);
                let class = class_of(slot);
                let t = Instant::now();
                match conn.get(&path_of(class, &cold_seed)) {
                    Ok(resp) if resp.status == 200 => {
                        latencies[class]
                            .lock()
                            .unwrap()
                            .push(t.elapsed().as_secs_f64() * 1e3);
                        match resp.header("x-cache") {
                            Some("hit") => {
                                xcache_hits.fetch_add(1, Ordering::Relaxed);
                            }
                            Some("miss") => {
                                xcache_misses.fetch_add(1, Ordering::Relaxed);
                            }
                            _ => {}
                        }
                    }
                    _ => {
                        failed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            conns_opened.fetch_add(conn.connections(), Ordering::Relaxed);
            conn_reconnects.fetch_add(conn.reconnects(), Ordering::Relaxed);
        }));
    }

    let mut swaps = 0u64;
    let mut next_version = 1usize;
    while t0.elapsed().as_secs_f64() < secs {
        std::thread::sleep(Duration::from_millis(500));
        // Write-then-rename, the publisher protocol from DESIGN.md §12.
        let staging = models.join("incoming.tmp");
        if std::fs::copy(&versions[next_version], &staging).is_ok()
            && std::fs::rename(&staging, models.join("restaurant.serd")).is_ok()
        {
            swaps += 1;
            next_version = 1 - next_version;
        }
    }
    stop.store(true, Ordering::Relaxed);
    for c in clients {
        c.join().expect("client thread");
    }
    let elapsed = t0.elapsed().as_secs_f64();

    // One post-load scrape proves /metrics stays coherent under load and
    // carries the new cache/admission/keepalive sections.
    let metrics_ok = client::get(addr, "/metrics")
        .map(|r| {
            r.status == 200
                && r.body.contains("\"p99_ms\":")
                && r.body.contains("\"response_cache\":")
                && r.body.contains("\"admission\":")
                && r.body.contains("\"keepalive\":")
        })
        .unwrap_or(false);
    let observed_swaps = server.cache().swaps();
    let cache_json = server.response_cache().to_json();
    let keepalive_requests_per_conn = server.metrics().requests_per_conn();
    server.shutdown();
    run_handle.join().expect("server thread");

    // Overload phase: a deliberately undersized second server (one worker,
    // depth-1 admission queue) flooded with concurrent cold synthesis
    // requests. 503s here are correct load shedding, not failures.
    let overload_server = Arc::new(
        Server::bind(&ServeConfig {
            models_dir: models.clone(),
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            queue_depth: 1,
            ..ServeConfig::default()
        })
        .expect("bind overload server"),
    );
    let overload_addr = overload_server.local_addr();
    let overload_runner = Arc::clone(&overload_server);
    let overload_handle = std::thread::spawn(move || overload_runner.run());

    let overload_ok = Arc::new(AtomicU64::new(0));
    let overload_shed = Arc::new(AtomicU64::new(0));
    let overload_failed = Arc::new(AtomicU64::new(0));
    let flood_threads = 8usize;
    let flood_requests = 6u64;
    std::thread::scope(|s| {
        for _ in 0..flood_threads {
            let cold_seed = Arc::clone(&cold_seed);
            let ok = Arc::clone(&overload_ok);
            let shed = Arc::clone(&overload_shed);
            let failed = Arc::clone(&overload_failed);
            s.spawn(move || {
                for _ in 0..flood_requests {
                    let path = path_of(0, &cold_seed);
                    match client::get(overload_addr, &path) {
                        Ok(resp) if resp.status == 200 => {
                            ok.fetch_add(1, Ordering::Relaxed);
                        }
                        Ok(resp)
                            if resp.status == 503
                                && resp.header("retry-after").is_some() =>
                        {
                            shed.fetch_add(1, Ordering::Relaxed);
                        }
                        _ => {
                            failed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });
    let shed_observed = overload_server.metrics().shed_total();
    overload_server.shutdown();
    overload_handle.join().expect("overload server thread");

    let total: u64 = latencies
        .iter()
        .map(|m| m.lock().unwrap().len() as u64)
        .sum::<u64>()
        + failed.load(Ordering::Relaxed);

    let mut classes_json = Vec::new();
    let mut p50_of = vec![0.0f64; CLASSES.len()];
    let mut count_of = vec![0usize; CLASSES.len()];
    for (i, name) in CLASSES.iter().enumerate() {
        let mut samples = latencies[i].lock().unwrap().clone();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        p50_of[i] = percentile(&samples, 0.50);
        count_of[i] = samples.len();
        classes_json.push(format!(
            "    {{\"class\":\"{name}\",\"count\":{},\"p50_ms\":{},\"p99_ms\":{}}}",
            samples.len(),
            serd_repro::obs::json_f64(p50_of[i]),
            serd_repro::obs::json_f64(percentile(&samples, 0.99)),
        ));
    }
    let cached_speedup = if p50_of[1] > 0.0 { p50_of[0] / p50_of[1] } else { 0.0 };

    println!("{{");
    println!("  \"runner_cores\": {},", serd_repro::parallel::num_threads());
    println!("  \"workers\": {workers},");
    println!("  \"scale\": {},", serd_repro::obs::json_f64(scale));
    println!("  \"duration_secs\": {},", serd_repro::obs::json_f64(elapsed));
    println!("  \"requests\": {total},");
    println!(
        "  \"sustained_rps\": {},",
        serd_repro::obs::json_f64(total as f64 / elapsed)
    );
    println!("  \"failed_requests\": {},", failed.load(Ordering::Relaxed));
    println!("  \"swaps_performed\": {swaps},");
    println!("  \"swaps_observed\": {observed_swaps},");
    println!("  \"metrics_endpoint_ok\": {metrics_ok},");
    println!("  \"cache_bodies_identical\": {cache_bodies_identical},");
    println!(
        "  \"cached_speedup_p50\": {},",
        serd_repro::obs::json_f64(cached_speedup)
    );
    println!("  \"response_cache\": {cache_json},");
    println!(
        "  \"client_cache\": {{\"hits\":{},\"misses\":{}}},",
        xcache_hits.load(Ordering::Relaxed),
        xcache_misses.load(Ordering::Relaxed),
    );
    println!(
        "  \"keepalive\": {{\"connections\":{},\"reconnects\":{},\"requests_per_conn\":{}}},",
        conns_opened.load(Ordering::Relaxed),
        conn_reconnects.load(Ordering::Relaxed),
        serd_repro::obs::json_f64(keepalive_requests_per_conn),
    );
    println!(
        "  \"overload\": {{\"requests\":{},\"ok\":{},\"shed\":{},\"shed_observed\":{},\
         \"failed\":{}}},",
        flood_threads as u64 * flood_requests,
        overload_ok.load(Ordering::Relaxed),
        overload_shed.load(Ordering::Relaxed),
        shed_observed,
        overload_failed.load(Ordering::Relaxed),
    );
    println!("  \"latency\": [");
    println!("{}", classes_json.join(",\n"));
    println!("  ]");
    println!("}}");

    std::fs::remove_dir_all(&dir).ok();

    // Zero-downtime is the headline claim: every request during the swap
    // window must have succeeded (503s in the overload phase are shedding
    // working as designed — anything else there is a failure).
    let mut bad = false;
    if failed.load(Ordering::Relaxed) > 0 || overload_failed.load(Ordering::Relaxed) > 0 {
        eprintln!("error: requests failed during the run");
        bad = true;
    }
    if !cache_bodies_identical {
        eprintln!("error: cached body differs from the uncached rendering");
        bad = true;
    }
    if overload_shed.load(Ordering::Relaxed) == 0 && shed_observed == 0 {
        eprintln!("error: the overload phase shed nothing — admission control inert");
        bad = true;
    }
    // The cached class must be an order of magnitude faster than cold
    // synthesis (both classes always have samples: slot 0 is cold and slots
    // 1-6 are cached).
    if count_of[0] > 0 && count_of[1] > 0 && p50_of[1] * 10.0 > p50_of[0] {
        eprintln!(
            "error: cached p50 {:.3} ms is not 10x faster than cold p50 {:.3} ms",
            p50_of[1], p50_of[0]
        );
        bad = true;
    }
    if bad {
        std::process::exit(1);
    }
}
