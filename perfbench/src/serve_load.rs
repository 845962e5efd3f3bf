//! Open-loop HTTP load against an in-process `serve::Server`.
//!
//! A seeded schedule fixes, before the run, when each request is due and
//! what it asks for: a cache hit from a small fixed key set, a miss with a
//! fresh seed, or a `/models` listing. At most two client threads, each
//! owning one keep-alive connection, take requests in schedule order and
//! send each at its due time or as soon as they are free; every request is
//! timed from when it was due, so a stall is charged to the requests queued
//! behind it. A swap thread meanwhile publishes a new version of one
//! artifact every few seconds by write-then-rename.
//!
//! Afterwards every body is checked: all bodies for one (artifact version,
//! request) are identical, and the hit keys plus a sample of the misses
//! equal the in-process `serd::api::synthesize` rendering for the artifact
//! version named by the response's `X-Model-Etag`.

use crate::report::{fnv1a, Report};
use crate::trace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serd_repro::serd::api::{self, ModelRef, SynthesisRequest};
use serd_repro::serd::{Persist, SerdModel, SerdSynthesizer};
use serd_repro::serve::{client, ServeConfig, Server};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Client connections (and client threads) the load uses: two, and never
/// more than the worker threads the program is pinned to.
fn clients() -> usize {
    serd_repro::parallel::num_threads().clamp(1, 2)
}

/// One served model: its artifact versions (the first is installed at
/// start; swaps cycle through the rest).
pub struct Target {
    pub name: String,
    pub versions: Vec<String>,
    pub swap: bool,
}

/// A fixed offered rate held for a share of the run.
#[derive(Clone)]
pub struct Phase {
    pub label: &'static str,
    pub rate: f64,
    pub share: f64,
}

pub struct Plan {
    pub phases: Vec<Phase>,
    pub hit_share: f64,
    pub miss_share: f64,
    /// Seeds of the fixed hit keys, requested against every target.
    pub hit_seeds: Vec<u64>,
    /// Target sizes (`n_a` = `n_b`) of every synthesis request.
    pub n: usize,
    pub swap_every_s: f64,
    /// Misses re-synthesized in process for the body check.
    pub miss_checks: usize,
}

/// First seed of the fixed miss sequence (far from the hit keys).
const MISS_SEED_BASE: u64 = 1_000_000;

/// Latency limits per request class, in ms. A request over its limit, a
/// refused (503) or errored request all miss the limit.
pub const HIT_LIMIT_MS: f64 = 25.0;
pub const MISS_LIMIT_MS: f64 = 1500.0;
pub const MODELS_LIMIT_MS: f64 = 25.0;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Hit,
    Miss,
    Models,
}

struct Scheduled {
    due_s: f64,
    phase: usize,
    kind: Kind,
    target: usize,
    seed: u64,
}

struct Outcome {
    idx: usize,
    due: Instant,
    sent: Instant,
    done: Instant,
    status: u16,
    etag: String,
    cache_hit: bool,
    body_fnv: u64,
}

fn path_of(targets: &[Target], s: &Scheduled, n: usize) -> String {
    match s.kind {
        Kind::Models => "/models".to_string(),
        _ => format!(
            "/synthesize?model={}&seed={}&n_a={n}&n_b={n}",
            targets[s.target].name, s.seed
        ),
    }
}

/// The server and everything the load and the body check need.
pub struct Rig {
    pub server: Arc<Server>,
    handle: Option<std::thread::JoinHandle<()>>,
    models_dir: PathBuf,
    pub targets: Vec<Target>,
    /// In-process synthesizers keyed by artifact content hash.
    reference: BTreeMap<u64, (usize, SerdSynthesizer)>,
}

impl Rig {
    /// Installs every target's first version in `dir/models`, binds a
    /// server with the default configuration and `workers` workers, and
    /// warms the response cache with the hit keys.
    pub fn start(
        dir: &Path,
        targets: Vec<Target>,
        workers: usize,
        plan: &Plan,
    ) -> Result<Rig, String> {
        let models_dir = dir.join("models");
        let _ = std::fs::remove_dir_all(&models_dir);
        std::fs::create_dir_all(&models_dir).map_err(|e| e.to_string())?;
        for t in &targets {
            std::fs::write(models_dir.join(format!("{}.serd", t.name)), &t.versions[0])
                .map_err(|e| e.to_string())?;
        }
        let server = Arc::new(
            Server::bind(&ServeConfig {
                models_dir: models_dir.clone(),
                addr: "127.0.0.1:0".to_string(),
                workers,
                ..ServeConfig::default()
            })
            .map_err(|e| e.to_string())?,
        );
        let runner = Arc::clone(&server);
        let handle = std::thread::spawn(move || runner.run());
        let rig = Rig {
            server,
            handle: Some(handle),
            models_dir,
            targets,
            reference: BTreeMap::new(),
        };
        // Warm the response cache: each hit key once fresh, once cached,
        // and the two bodies must be identical.
        let mut conn = client::Conn::new(rig.server.local_addr());
        for (ti, t) in rig.targets.iter().enumerate() {
            for &seed in &plan.hit_seeds {
                let s = Scheduled {
                    due_s: 0.0,
                    phase: 0,
                    kind: Kind::Hit,
                    target: ti,
                    seed,
                };
                let path = path_of(&rig.targets, &s, plan.n);
                let miss = conn.get(&path).map_err(|e| e.to_string())?;
                let hit = conn.get(&path).map_err(|e| e.to_string())?;
                if miss.status != 200 || hit.status != 200 || hit.header("x-cache") != Some("hit") {
                    return Err(format!(
                        "warm-up of {} answered {} then {}",
                        t.name, miss.status, hit.status
                    ));
                }
                if hit.body != miss.body {
                    return Err(format!("cached body of {path} differs from its fresh body"));
                }
            }
        }
        Ok(rig)
    }

    /// Loads the in-process reference synthesizer of every artifact
    /// version (outside any timed region).
    pub fn load_references(&mut self) -> Result<(), String> {
        for (ti, t) in self.targets.iter().enumerate() {
            for text in &t.versions {
                let model = SerdModel::from_persist_str(text).map_err(|e| e.to_string())?;
                self.reference.insert(
                    fnv1a(text.as_bytes()),
                    (ti, SerdSynthesizer::from_model(model)),
                );
            }
        }
        Ok(())
    }

    /// Closed-loop hits on one idle connection, ms each.
    pub fn idle_hits(&self, plan: &Plan, count: usize) -> Result<Vec<f64>, String> {
        let mut conn = client::Conn::new(self.server.local_addr());
        let s = Scheduled {
            due_s: 0.0,
            phase: 0,
            kind: Kind::Hit,
            target: 0,
            seed: plan.hit_seeds[0],
        };
        let path = path_of(&self.targets, &s, plan.n);
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            let t = Instant::now();
            let resp = conn.get(&path).map_err(|e| e.to_string())?;
            if resp.status != 200 || resp.header("x-cache") != Some("hit") {
                return Err(format!(
                    "idle hit answered {} {:?}",
                    resp.status,
                    resp.header("x-cache")
                ));
            }
            out.push(t.elapsed().as_secs_f64() * 1e3);
        }
        Ok(out)
    }
}

impl Drop for Rig {
    /// Stops the server and waits for its thread (and its workers) to end.
    fn drop(&mut self) {
        self.server.shutdown();
        if let Some(h) = self.handle.take() {
            if h.join().is_err() {
                eprintln!("perfbench: server thread panicked");
            }
        }
    }
}

/// Per-run results the workloads turn into metrics.
pub struct LoadResult {
    /// Request latencies from due time, per (phase, class), ms.
    pub latency: BTreeMap<(usize, &'static str), Vec<f64>>,
    /// Requests that finished OK within their class limit, per phase.
    pub good: Vec<u64>,
    pub phase_secs: Vec<f64>,
    pub lag_ms: Vec<f64>,
    pub swap_visible_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Digest over the verified hit-key bodies of each target's first
    /// version (independent of timing).
    pub digest: u64,
    /// Share of the checked misses' latency covered by the generator's
    /// wait plus the in-process synthesis and render of the same request.
    pub miss_coverage: f64,
    pub miss_coverage_n: u64,
}

/// The bodies seen for one (artifact version, request).
struct Group {
    body_fnv: u64,
    hit: bool,
    miss: bool,
    /// Index in the outcomes of the first response.
    first: usize,
}

fn etag_parts(etag: &str) -> Option<(u64, u64)> {
    // `<name>.v<version>.<len>.<fnv hex>`
    let mut it = etag.rsplitn(3, '.');
    let fnv = u64::from_str_radix(it.next()?, 16).ok()?;
    let _len = it.next()?;
    let version = it.next()?.rsplit_once(".v")?.1.parse().ok()?;
    Some((version, fnv))
}

/// Runs `plan` for `seconds` against `rig`, then checks every body.
/// `synth_totals` collects the in-process re-synthesis counters.
pub fn run(
    rig: &Rig,
    plan: &Plan,
    seconds: f64,
    seed: u64,
    rep: &mut Report,
    synth_totals: &mut crate::layers::SynthTotals,
    last_out: &mut Option<(usize, serd_repro::er_core::ErDataset)>,
) -> Result<LoadResult, String> {
    let targets = &rig.targets;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e7e);
    // The schedule, per phase: exactly rate × duration arrivals at uniform
    // random times (a Poisson process conditioned on its count). Misses and
    // `/models` requests take evenly spaced slots from a seeded offset, and
    // the misses use the fixed seed sequence MISS_SEED_BASE + j, alternating
    // targets: every workload seed offers the same requests and the same
    // miss work, at different times. Hits draw a key at random.
    let mut sched = Vec::new();
    let mut phase_secs = Vec::new();
    let mut t0 = 0.0;
    let mut next_miss = 0u64;
    for (pi, p) in plan.phases.iter().enumerate() {
        let secs = seconds * p.share;
        phase_secs.push(secs);
        let count = (p.rate * secs).round() as usize;
        let mut times: Vec<f64> = (0..count).map(|_| t0 + rng.gen::<f64>() * secs).collect();
        times.sort_by(f64::total_cmp);
        let every = |share: f64| {
            if share > 0.0 {
                ((1.0 / share).round() as usize).max(1)
            } else {
                usize::MAX
            }
        };
        let (miss_every, models_every) = (
            every(plan.miss_share),
            every(1.0 - plan.hit_share - plan.miss_share),
        );
        let (miss_at, models_at) = (
            rng.gen_range(0..miss_every.min(count.max(1))),
            rng.gen_range(0..models_every.min(count.max(1))),
        );
        for (slot, t) in times.into_iter().enumerate() {
            let (kind, target, seed) = if miss_every != usize::MAX && slot % miss_every == miss_at {
                next_miss += 1;
                (
                    Kind::Miss,
                    (next_miss % targets.len() as u64) as usize,
                    MISS_SEED_BASE + next_miss,
                )
            } else if models_every != usize::MAX && slot % models_every == models_at {
                (Kind::Models, 0, 0)
            } else {
                let target = rng.gen_range(0..targets.len());
                (
                    Kind::Hit,
                    target,
                    plan.hit_seeds[rng.gen_range(0..plan.hit_seeds.len())],
                )
            };
            sched.push(Scheduled {
                due_s: t,
                phase: pi,
                kind,
                target,
                seed,
            });
        }
        t0 += secs;
    }
    let total_s = t0;
    let paths: Vec<String> = sched.iter().map(|s| path_of(targets, s, plan.n)).collect();

    let addr = rig.server.local_addr();
    let models_dir = &rig.models_dir;
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let outcomes: Mutex<Vec<Outcome>> = Mutex::new(Vec::with_capacity(sched.len()));
    let swaps: Mutex<Vec<(Instant, usize)>> = Mutex::new(Vec::new());
    let swap_error: Mutex<Option<String>> = Mutex::new(None);
    let start = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|s| {
        for _ in 0..clients() {
            s.spawn(|| {
                let mut conn = client::Conn::new(addr);
                let mut local = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    if i >= sched.len() {
                        break;
                    }
                    let due = start + Duration::from_secs_f64(sched[i].due_s);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let sent = Instant::now();
                    let (status, etag, cache_hit, body_fnv) = match conn.get(&paths[i]) {
                        Ok(r) => (
                            r.status,
                            r.header("x-model-etag").unwrap_or("").to_string(),
                            r.header("x-cache") == Some("hit"),
                            fnv1a(r.body.as_bytes()),
                        ),
                        Err(_) => (0, String::new(), false, 0),
                    };
                    local.push(Outcome {
                        idx: i,
                        due,
                        sent,
                        done: Instant::now(),
                        status,
                        etag,
                        cache_hit,
                        body_fnv,
                    });
                }
                outcomes.lock().expect("outcomes lock").extend(local);
            });
        }
        s.spawn(|| {
            // Publish the next version of each swapping target every
            // `swap_every_s`: write beside, then rename over.
            let mut k = 0usize;
            let mut at = plan.swap_every_s;
            while at < total_s {
                let due = start + Duration::from_secs_f64(at);
                while Instant::now() < due {
                    if stop.load(Ordering::SeqCst) {
                        return;
                    }
                    std::thread::sleep((due - Instant::now()).min(Duration::from_millis(20)));
                }
                k += 1;
                for (ti, t) in targets.iter().enumerate().filter(|(_, t)| t.swap) {
                    let text = &t.versions[k % t.versions.len()];
                    let tmp = models_dir.join(format!("{}.serd.tmp", t.name));
                    let dst = models_dir.join(format!("{}.serd", t.name));
                    let res = std::fs::write(&tmp, text).and_then(|_| std::fs::rename(&tmp, &dst));
                    match res {
                        Ok(()) => swaps.lock().expect("swaps lock").push((Instant::now(), ti)),
                        Err(e) => {
                            *swap_error.lock().expect("swap error lock") = Some(e.to_string())
                        }
                    }
                }
                at += plan.swap_every_s;
            }
        });
        // Clients end when the schedule is drained; release the swapper.
        while next.load(Ordering::SeqCst) < sched.len() {
            std::thread::sleep(Duration::from_millis(10));
        }
        stop.store(true, Ordering::SeqCst);
    });
    let mut outcomes = outcomes.into_inner().expect("outcomes lock");
    outcomes.sort_by_key(|o| o.idx);
    let swaps = swaps.into_inner().expect("swaps lock");
    if let Some(e) = swap_error.into_inner().expect("swap error lock") {
        rep.check("serve.swap_write", false, e);
    }

    // Latency, goodput and lateness.
    let mut res = LoadResult {
        latency: BTreeMap::new(),
        good: vec![0; plan.phases.len()],
        phase_secs,
        lag_ms: Vec::with_capacity(outcomes.len()),
        swap_visible_ms: Vec::new(),
        attempted: outcomes.len() as u64,
        failed: 0,
        digest: 0,
        miss_coverage: 0.0,
        miss_coverage_n: 0,
    };
    for o in &outcomes {
        let s = &sched[o.idx];
        let ms = (o.done - o.due).as_secs_f64() * 1e3;
        res.lag_ms.push((o.sent - o.due).as_secs_f64() * 1e3);
        let (class, limit) = match s.kind {
            Kind::Models => ("models", MODELS_LIMIT_MS),
            _ if o.cache_hit => ("hit", HIT_LIMIT_MS),
            _ => ("miss", MISS_LIMIT_MS),
        };
        if o.status != 200 {
            res.failed += 1;
        } else {
            res.latency.entry((s.phase, class)).or_default().push(ms);
            if ms <= limit {
                res.good[s.phase] += 1;
            }
        }
        if trace::enabled() {
            let root = trace::record("serve.request", o.idx as u64, None, o.due, o.done);
            trace::record("client.wait", o.idx as u64, root, o.due, o.sent);
            trace::record("serve.http", o.idx as u64, root, o.sent, o.done);
        }
    }

    // Swap visibility: from the rename to the first body carrying a newer
    // version of that model.
    for &(at, ti) in &swaps {
        let name = &targets[ti].name;
        let before = outcomes
            .iter()
            .filter(|o| o.done < at && o.etag.starts_with(&format!("{name}.v")))
            .filter_map(|o| etag_parts(&o.etag))
            .map(|(v, _)| v)
            .max()
            .unwrap_or(0);
        if let Some(first) = outcomes
            .iter()
            .filter(|o| o.sent >= at && o.etag.starts_with(&format!("{name}.v")))
            .filter(|o| etag_parts(&o.etag).is_some_and(|(v, _)| v > before))
            .map(|o| o.done)
            .min()
        {
            res.swap_visible_ms.push((first - at).as_secs_f64() * 1e3);
        }
    }

    // Body checks. Group synthesize bodies by (artifact hash, target, seed).
    let mut groups: BTreeMap<(u64, usize, u64), Group> = BTreeMap::new();
    let mut bad_etag = 0u64;
    let mut split = 0u64;
    let mut models_ok = true;
    for (at, o) in outcomes.iter().enumerate().filter(|(_, o)| o.status == 200) {
        let s = &sched[o.idx];
        if s.kind == Kind::Models {
            models_ok &= o.body_fnv != 0;
            continue;
        }
        let Some((_, fnv)) = etag_parts(&o.etag) else {
            bad_etag += 1;
            continue;
        };
        match rig.reference.get(&fnv) {
            Some((ti, _)) if *ti == s.target => {}
            _ => {
                bad_etag += 1;
                continue;
            }
        }
        let g = groups.entry((fnv, s.target, s.seed)).or_insert(Group {
            body_fnv: o.body_fnv,
            hit: false,
            miss: false,
            first: at,
        });
        if g.body_fnv != o.body_fnv {
            split += 1;
        }
        g.hit |= o.cache_hit;
        g.miss |= !o.cache_hit;
    }
    rep.check(
        "serve.etag_known",
        bad_etag == 0,
        format!("{bad_etag} bodies with an unknown or mismatched X-Model-Etag"),
    );
    let hit_and_miss = groups.values().filter(|g| g.hit && g.miss).count();
    rep.check(
        "serve.one_body_per_request",
        split == 0,
        format!(
            "{split} bodies differ from another body for the same artifact version and \
             request; {hit_and_miss} requests were answered both cached and fresh"
        ),
    );
    rep.check(
        "serve.models_listing",
        models_ok,
        "every /models answer has a body",
    );

    // In-process re-synthesis: every hit key, plus an even sample of misses.
    let misses: Vec<_> = groups
        .keys()
        .filter(|k| !plan.hit_seeds.contains(&k.2))
        .copied()
        .collect();
    let stride = (misses.len() / plan.miss_checks.max(1)).max(1);
    let mut to_check: Vec<(u64, usize, u64)> = groups
        .keys()
        .filter(|k| plan.hit_seeds.contains(&k.2))
        .copied()
        .collect();
    to_check.extend(misses.iter().step_by(stride).take(plan.miss_checks));
    let mut mismatched = 0;
    let mut digest_parts = Vec::new();
    let (mut cov_num, mut cov_den) = (0.0, 0.0);
    for key in &to_check {
        let (fnv, ti, seed) = *key;
        let (_, synth) = &rig.reference[&fnv];
        let req = SynthesisRequest {
            seed,
            n_a: Some(plan.n),
            n_b: Some(plan.n),
            ..SynthesisRequest::new(ModelRef::Name(targets[ti].name.clone()))
        };
        let t = Instant::now();
        let resp = api::synthesize(synth, &req).map_err(|e| e.to_string())?;
        let synth_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let body = resp.jsonl();
        let render_s = t.elapsed().as_secs_f64();
        synth_totals.add(resp.stats(), synth_s, render_s);
        let group = &groups[key];
        if fnv1a(body.as_bytes()) != group.body_fnv {
            mismatched += 1;
        }
        if !plan.hit_seeds.contains(&seed) {
            let o = &outcomes[group.first];
            cov_num += (o.sent - o.due).as_secs_f64() + synth_s + render_s;
            cov_den += (o.done - o.due).as_secs_f64();
            res.miss_coverage_n += 1;
        }
        if plan.hit_seeds.contains(&seed) && fnv == fnv1a(targets[ti].versions[0].as_bytes()) {
            digest_parts.push(format!("{ti}:{seed}:{:016x}", fnv1a(body.as_bytes())));
        }
        *last_out = Some((ti, resp.out.er));
    }
    rep.check(
        "serve.body_equals_in_process",
        mismatched == 0,
        format!(
            "{mismatched} of {} checked bodies differ from api::synthesize",
            to_check.len()
        ),
    );
    res.miss_coverage = cov_num / cov_den.max(1e-9);
    digest_parts.sort();
    res.digest = fnv1a(digest_parts.join(",").as_bytes());
    Ok(res)
}

/// The in-process reference synthesizer for `target`'s first version.
pub fn reference_of(rig: &Rig, target: usize) -> &SerdSynthesizer {
    let fnv = fnv1a(rig.targets[target].versions[0].as_bytes());
    &rig.reference[&fnv].1
}
