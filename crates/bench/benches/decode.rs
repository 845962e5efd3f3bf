//! Decoding-path benchmarks: full O(T²) re-decode vs KV-cached incremental
//! steps vs lockstep batched lanes, per prefix length (DESIGN.md §11), plus
//! the guided-repair search that S2 falls back to (DESIGN.md §10.4).
//!
//! Ids carry the step count as a trailing `/len<L>` segment and the lane
//! count in the mode segment (`batch8` = 8 lanes), so `scripts/bench_decode.sh`
//! can convert medians into tokens-per-second.

use std::time::Duration;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serd_repro::transformer::guided::{perturb_toward, TokenPool};
use serd_repro::transformer::model::frame;
use serd_repro::transformer::vocab::BOS;
use serd_repro::transformer::{BatchDecoder, Seq2SeqTransformer, TransformerConfig};

const VOCAB: usize = 40;
const BATCH: usize = 8;

/// A fixed decoder prefix of `l` tokens starting with BOS: deterministic
/// work, no sampling, so the three paths process identical token streams.
fn prefix(l: usize) -> Vec<usize> {
    let mut p = vec![BOS];
    p.extend((1..l).map(|i| 4 + (i % (VOCAB - 4))));
    p
}

fn bench_decode(c: &mut Criterion) {
    let mut g = c.benchmark_group("decode");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(1));
    g.warm_up_time(Duration::from_millis(300));
    let mut rng = StdRng::seed_from_u64(0);
    let model = Seq2SeqTransformer::new(TransformerConfig::tiny(VOCAB), &mut rng);
    let src: Vec<usize> = (0..16).map(|i| 4 + (i % (VOCAB - 4))).collect();
    let memory = model.encode(&frame(&src));
    let enc = model.encode_source(&src);

    for len in [16usize, 32, 48] {
        let p = prefix(len);

        // The historical generation loop: one full re-decode per token.
        g.bench_function(format!("full/len{len}"), |b| {
            b.iter(|| {
                for i in 1..=p.len() {
                    black_box(model.decode(&p[..i], &memory).value());
                }
            })
        });

        // Incremental: one KV-cached step per token on a single lane.
        g.bench_function(format!("kv/len{len}"), |b| {
            b.iter(|| {
                let mut dec = BatchDecoder::new(&model, &enc, 1);
                for &tok in &p {
                    black_box(dec.step(&[(0, tok)]));
                }
            })
        });

        // Lockstep batch: 8 lanes advance through one step per token.
        g.bench_function(format!("batch{BATCH}/len{len}"), |b| {
            b.iter(|| {
                let mut dec = BatchDecoder::new(&model, &enc, BATCH);
                for &tok in &p {
                    let feeds: Vec<(usize, usize)> = (0..BATCH).map(|l| (l, tok)).collect();
                    black_box(dec.step(&feeds));
                }
            })
        });
    }

    // Encoder-memory reuse: the per-call cost prepare() hoists out of the
    // candidate loop.
    g.bench_function("encode_source/len16", |b| {
        b.iter(|| black_box(model.encode_source(&src)))
    });
    g.finish();
}

/// Guided repair from a 220-char title: the S2 fallback that decides most
/// text values at `SerdConfig::fast()` (DESIGN.md §3 item 7). Each
/// iteration runs the same seeded search, so the work is fixed.
fn bench_repair(c: &mut Criterion) {
    let mut g = c.benchmark_group("repair");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(1));
    g.warm_up_time(Duration::from_millis(300));
    let pool = TokenPool::from_corpus([
        "adaptive query processing for data streams",
        "efficient join algorithms in parallel databases",
        "mining frequent patterns without candidate generation",
        "temporal middleware evaluation strategies",
        "incremental view maintenance in distributed systems",
    ]);
    let src = "An efficient and scalable framework for adaptive query processing over \
               distributed data streams with temporal middleware, incremental view \
               maintenance, cost-based join reordering, and approximate aggregation in the cloud";
    let len = src.chars().count();
    // A low target: the seeded search runs 68 rounds of 8 proposals before
    // it lands within 0.03 of it.
    g.bench_function(format!("perturb_toward/len{len}"), |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(7);
            black_box(perturb_toward(black_box(src), 0.05, &pool, 0.03, 300, &mut rng))
        })
    });
    g.finish();
}

criterion_group!(benches, bench_decode, bench_repair);
criterion_main!(benches);
