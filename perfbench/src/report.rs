//! The raw per-run report the Rust side hands to `run.py`: sample lists
//! (quantiles are taken in one place, on the Python side), scalar values,
//! correctness checks, output digests and, in a traced run, spans and the
//! program's own `SERD_OBS=json` run reports.

use serd_repro::obs;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// FNV-1a 64 over `bytes`, the digest every output is recorded under.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[derive(Default)]
pub struct Report {
    /// Raw samples per named series, with their unit.
    samples: BTreeMap<String, (String, Vec<f64>)>,
    /// Named single values: (unit, value, n, source).
    values: BTreeMap<String, (String, f64, u64, String)>,
    checks: Vec<(String, bool, String)>,
    digests: BTreeMap<String, String>,
    obs_reports: Vec<(String, String)>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn sample(&mut self, name: &str, unit: &str, v: f64) {
        self.samples
            .entry(name.to_string())
            .or_insert_with(|| (unit.to_string(), Vec::new()))
            .1
            .push(v);
    }

    /// A recorded single value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|(_, v, _, _)| *v)
    }

    /// Records a single value; `source` says how it was obtained
    /// (`measured`, `obs`, `estimate`, `probe`).
    pub fn value(&mut self, name: &str, unit: &str, v: f64, n: u64, source: &str) {
        self.values.insert(
            name.to_string(),
            (unit.to_string(), v, n, source.to_string()),
        );
    }

    /// Records a correctness check. A failed check fails the run.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        let detail = detail.into();
        if !ok {
            eprintln!("perfbench: check {name} FAILED: {detail}");
        }
        self.checks.push((name.to_string(), ok, detail));
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok, _)| *ok) && self.failed == 0
    }

    pub fn digest(&mut self, name: &str, d: u64) {
        self.digests.insert(name.to_string(), format!("{d:016x}"));
    }

    /// Keeps one `obs` run report (JSON text) under `label`.
    pub fn obs_report(&mut self, label: &str, json: String) {
        self.obs_reports.push((label.to_string(), json));
    }

    /// One operation attempted; `ok == false` counts it as failed.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn to_json(&self, workload: &str, seed: u64, traced: bool) -> String {
        let esc = obs::json_escape;
        let num = obs::json_f64;
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"workload\":\"{}\",\"seed\":{seed},\"trace\":{traced},\"correct\":{},\
             \"attempted\":{},\"failed\":{},\"threads\":{},",
            esc(workload),
            self.correct(),
            self.attempted,
            self.failed,
            serd_repro::parallel::num_threads(),
        );
        let samples: Vec<String> = self
            .samples
            .iter()
            .map(|(k, (unit, v))| {
                let vals: Vec<String> = v.iter().map(|x| num(*x)).collect();
                format!(
                    "\"{}\":{{\"unit\":\"{}\",\"values\":[{}]}}",
                    esc(k),
                    esc(unit),
                    vals.join(",")
                )
            })
            .collect();
        let _ = write!(s, "\"samples\":{{{}}},", samples.join(","));
        let values: Vec<String> = self
            .values
            .iter()
            .map(|(k, (unit, v, n, src))| {
                format!(
                    "\"{}\":{{\"unit\":\"{}\",\"value\":{},\"n\":{n},\"source\":\"{}\"}}",
                    esc(k),
                    esc(unit),
                    num(*v),
                    esc(src)
                )
            })
            .collect();
        let _ = write!(s, "\"values\":{{{}}},", values.join(","));
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|(k, ok, d)| {
                format!(
                    "{{\"name\":\"{}\",\"ok\":{ok},\"detail\":\"{}\"}}",
                    esc(k),
                    esc(d)
                )
            })
            .collect();
        let _ = write!(s, "\"checks\":[{}],", checks.join(","));
        let digests: Vec<String> = self
            .digests
            .iter()
            .map(|(k, d)| format!("\"{}\":\"{d}\"", esc(k)))
            .collect();
        let _ = write!(s, "\"digests\":{{{}}},", digests.join(","));
        let _ = write!(s, "\"spans\":{},", crate::trace::to_json());
        let reports: Vec<String> = self
            .obs_reports
            .iter()
            .map(|(k, j)| format!("\"{}\":{}", esc(k), j))
            .collect();
        let _ = write!(s, "\"obs\":{{{}}}}}", reports.join(","));
        s
    }
}
