//! Bit-identity proofs for the KV-cached inference path (DESIGN.md §11).
//!
//! The incremental decoder is only allowed to exist because its logits are
//! `.to_bits()`-identical to the full O(T²) re-decode. These tests pin that
//! claim on randomly initialized models across random prefixes, plus the
//! sampling-stream contracts built on top of it: batched lockstep lanes
//! reproduce serial per-seed generation exactly, single-lane generation
//! reproduces the historical full-redecode loop exactly, and observability
//! being on or off never changes an emitted token.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use transformer::model::frame;
use transformer::vocab::{BOS, EOS, PAD};
use transformer::{BatchDecoder, Seq2SeqTransformer, TransformerConfig};

const VOCAB: usize = 24;

fn tiny_model(seed: u64) -> Seq2SeqTransformer {
    Seq2SeqTransformer::new(TransformerConfig::tiny(VOCAB), &mut StdRng::seed_from_u64(seed))
}

/// Random non-special token ids (specials occupy 0..4).
fn ids_strategy(max_len: usize) -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(4usize..VOCAB, 1..=max_len)
}

/// The sampling rule of `Seq2SeqTransformer::generate`, replicated so the
/// test can drive the historical full-redecode loop independently.
fn sample_reference<R: Rng + ?Sized>(logits: &[f32], temperature: f32, rng: &mut R) -> usize {
    let forbidden = |i: usize| i == PAD || i == BOS;
    if temperature <= 0.0 {
        return logits
            .iter()
            .enumerate()
            .filter(|(i, _)| !forbidden(*i))
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(EOS);
    }
    let scaled: Vec<f32> = logits
        .iter()
        .enumerate()
        .map(|(i, &v)| if forbidden(i) { f32::NEG_INFINITY } else { v / temperature })
        .collect();
    let m = scaled.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = scaled.iter().map(|&v| (v - m).exp()).collect();
    let z: f32 = exps.iter().sum();
    let mut u: f32 = rng.gen::<f32>() * z;
    for (i, &e) in exps.iter().enumerate() {
        if u < e {
            return i;
        }
        u -= e;
    }
    EOS
}

/// The pre-KV-cache generation loop: full re-decode per emitted token.
fn reference_generate<R: Rng + ?Sized>(
    model: &Seq2SeqTransformer,
    src: &[usize],
    max_out: usize,
    temperature: f32,
    rng: &mut R,
) -> Vec<usize> {
    let memory = model.encode(&frame(src));
    let mut out: Vec<usize> = vec![BOS];
    let limit = max_out.min(model.config().max_len - 1);
    for _ in 0..limit {
        let logits = model.decode(&out, &memory);
        let data = logits.value();
        let id = sample_reference(data.row(data.rows() - 1), temperature, rng);
        if id == EOS {
            break;
        }
        out.push(id);
    }
    out.remove(0);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn encoder_memory_is_bit_identical(
        seed in any::<u64>(),
        src in ids_strategy(12),
    ) {
        let model = tiny_model(seed);
        let enc = model.encode_source(&src);
        let full = model.encode(&frame(&src)).value();
        prop_assert_eq!(enc.memory().shape(), full.shape());
        for r in 0..full.rows() {
            for (a, b) in enc.memory().row(r).iter().zip(full.row(r)) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "memory row {}", r);
            }
        }
    }

    #[test]
    fn kv_cached_logits_match_full_decode_bitwise(
        seed in any::<u64>(),
        src in ids_strategy(10),
        tgt in ids_strategy(10),
    ) {
        let model = tiny_model(seed);
        // The decoder prefix the generators actually feed: BOS then tokens.
        let mut prefix = vec![BOS];
        prefix.extend_from_slice(&tgt);

        let memory = model.encode(&frame(&src));
        let full = model.decode(&prefix, &memory).value();

        let enc = model.encode_source(&src);
        let mut dec = BatchDecoder::new(&model, &enc, 1);
        for (i, &tok) in prefix.iter().enumerate() {
            let step = dec.step(&[(0, tok)]);
            prop_assert_eq!(step.cols(), full.cols());
            for (a, b) in step.row(0).iter().zip(full.row(i)) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "prefix position {}", i);
            }
        }
    }

    #[test]
    fn batched_lanes_match_serial_per_seed_generation(
        seed in any::<u64>(),
        src in ids_strategy(10),
        lane_seeds in proptest::collection::vec(any::<u64>(), 1..6),
        temp_idx in 0usize..3,
    ) {
        let temp = [0.0f32, 0.8, 1.5][temp_idx];
        let model = tiny_model(seed);
        let enc = model.encode_source(&src);
        let batched = model.generate_lanes(&enc, &lane_seeds, 16, temp, |_, _, _| true);
        let serial: Vec<Vec<usize>> = lane_seeds
            .iter()
            .map(|&s| model.generate_from(&enc, 16, temp, &mut StdRng::seed_from_u64(s)))
            .collect();
        prop_assert_eq!(batched, serial);
    }

    #[test]
    fn retired_lanes_leave_the_other_lanes_unchanged(
        seed in any::<u64>(),
        src in ids_strategy(10),
        lane_seeds in proptest::collection::vec(any::<u64>(), 1..6),
        retire_mask in 0u32..64,
        retire_at in 1usize..6,
    ) {
        let model = tiny_model(seed);
        let enc = model.encode_source(&src);
        let full = model.generate_lanes(&enc, &lane_seeds, 16, 0.8, |_, _, _| true);
        // Retire the masked lanes once they have emitted `retire_at` ids.
        let mut retired = vec![false; lane_seeds.len()];
        let cut = model.generate_lanes(&enc, &lane_seeds, 16, 0.8, |lane, _, left| {
            let stop = retire_mask >> lane & 1 == 1 && 16 - left >= retire_at;
            retired[lane] |= stop;
            !stop
        });
        for (lane, (full, cut)) in full.iter().zip(&cut).enumerate() {
            if retired[lane] {
                prop_assert!(cut.is_empty(), "retired lane {} kept {:?}", lane, cut);
                prop_assert!(full.len() >= retire_at);
            } else {
                prop_assert_eq!(full, cut, "lane {}", lane);
            }
        }
    }

    #[test]
    fn generate_matches_historical_full_redecode_loop(
        seed in any::<u64>(),
        src in ids_strategy(10),
        rng_seed in any::<u64>(),
        temp_idx in 0usize..2,
    ) {
        let temp = [0.0f32, 0.9][temp_idx];
        let model = tiny_model(seed);
        let fast = model.generate(&src, 16, temp, &mut StdRng::seed_from_u64(rng_seed));
        let slow = reference_generate(&model, &src, 16, temp, &mut StdRng::seed_from_u64(rng_seed));
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn observability_mode_never_changes_tokens(
        seed in any::<u64>(),
        src in ids_strategy(8),
        lane_seeds in proptest::collection::vec(any::<u64>(), 1..4),
    ) {
        let model = tiny_model(seed);
        let enc = model.encode_source(&src);
        obs::set_mode(obs::Mode::Off);
        let off = model.generate_lanes(&enc, &lane_seeds, 12, 0.8, |_, _, _| true);
        obs::set_mode(obs::Mode::Json);
        let on = model.generate_lanes(&enc, &lane_seeds, 12, 0.8, |_, _, _| true);
        obs::set_mode(obs::Mode::Off);
        prop_assert_eq!(off, on);
    }
}

#[test]
fn batch_decoder_counts_kv_steps() {
    obs::set_mode(obs::Mode::Json);
    obs::reset();
    let model = tiny_model(3);
    let enc = model.encode_source(&[4, 5, 6]);
    let mut dec = BatchDecoder::new(&model, &enc, 2);
    dec.step(&[(0, BOS), (1, BOS)]);
    dec.step(&[(0, 4)]);
    let report = obs::report_json();
    obs::set_mode(obs::Mode::Off);
    assert!(
        report.contains("decode.kv_cache_steps"),
        "missing counter in {report}"
    );
}

#[test]
fn forked_lane_continues_bit_identically() {
    // A forked lane must produce exactly the logits the original would.
    let model = tiny_model(9);
    let enc = model.encode_source(&[4, 5, 6, 7]);
    let mut a = BatchDecoder::new(&model, &enc, 1);
    a.step(&[(0, BOS)]);
    a.step(&[(0, 5)]);
    let fork = a.fork_lane(0);
    let la = a.step(&[(0, 6)]);
    let lf = a.step(&[(fork, 6)]);
    for (x, y) in la.row(0).iter().zip(lf.row(0)) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
    // And retain_lanes keeps the surviving cache intact.
    a.retain_lanes(&[fork]);
    assert_eq!(a.n_lanes(), 1);
    assert_eq!(a.lane_len(0), 3);
}
