//! Benchmark runner for one workload: `perfbench --workload <name> --seed
//! <n> --seconds <s> --trace <0|1> --work <dir> [--smoke]`.
//!
//! Prints one raw JSON report as the last line of stdout (samples, values,
//! checks, digests, and in a traced run the spans); `run.py` builds this
//! binary, runs it and turns the report into the benchmark's metrics.
//! Exits 1 when a correctness check fails or the workload errors.

mod layers;
mod report;
mod serve_load;
mod trace;
mod workloads;

use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::Ctx;

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <synth_dblp|fit_dblp_1e5|serve_mix> --seed <u64> \
         --seconds <f64> --trace <0|1> --work <dir> [--smoke]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = false;
    let mut work = None;
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--smoke" {
            smoke = true;
            continue;
        }
        let Some(v) = it.next() else {
            return usage(&format!("missing value for {a}"));
        };
        match a.as_str() {
            "--workload" => workload = Some(v.clone()),
            "--seed" => seed = v.parse::<u64>().ok(),
            "--seconds" => seconds = v.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => traced = v == "1",
            "--work" => work = Some(PathBuf::from(v)),
            _ => return usage(&format!("unknown option {a}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(work)) = (workload, seed, seconds, work)
    else {
        return usage("--workload, --seed, --seconds and --work are required");
    };
    if let Err(e) = std::fs::create_dir_all(&work) {
        return usage(&format!("cannot create {}: {e}", work.display()));
    }
    let ctx = Ctx {
        seed,
        seconds,
        traced,
        smoke,
        work,
    };
    let run = match workload.as_str() {
        "synth_dblp" => workloads::synth_dblp,
        "fit_dblp_1e5" => workloads::fit_dblp_1e5,
        "serve_mix" => workloads::serve_mix,
        other => return usage(&format!("unknown workload {other:?}")),
    };
    let mut rep = Report::default();
    if let Err(e) = run(&ctx, &mut rep) {
        rep.check("workload.completed", false, e);
    }
    rep.value("peak_rss_mb", "MB", report::peak_rss_mb(), 1, "measured");
    println!("{}", rep.to_json(&workload, seed, traced));
    if rep.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
