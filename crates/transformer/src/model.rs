//! The Vaswani-style encoder–decoder transformer, built on `neural`.

use crate::decode::{BatchDecoder, EncodedSource};
use crate::vocab::{BOS, EOS, PAD};
use neural::io::{read_tensor, write_tensor};
use neural::layers::{Embedding, Linear, Module};
use neural::{Tensor, Var};
use persist::{Persist, Reader, Writer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::rc::Rc;

/// Transformer hyperparameters.
#[derive(Debug, Clone)]
pub struct TransformerConfig {
    /// Vocabulary size (character vocab + specials).
    pub vocab: usize,
    /// Model width `d_model`.
    pub d_model: usize,
    /// Number of attention heads.
    pub n_heads: usize,
    /// Encoder layer count.
    pub n_enc_layers: usize,
    /// Decoder layer count.
    pub n_dec_layers: usize,
    /// Feed-forward hidden width.
    pub d_ff: usize,
    /// Maximum sequence length (positional table size).
    pub max_len: usize,
}

impl TransformerConfig {
    /// The paper's configuration (Section VII "Settings"): hidden dimension
    /// 256, 3 encoder/decoder layers, 8 heads. Character tokens.
    pub fn paper(vocab: usize) -> Self {
        TransformerConfig {
            vocab,
            d_model: 256,
            n_heads: 8,
            n_enc_layers: 3,
            n_dec_layers: 3,
            d_ff: 512,
            max_len: 256,
        }
    }

    /// A CPU-friendly configuration used by tests and the default benches.
    pub fn tiny(vocab: usize) -> Self {
        TransformerConfig {
            vocab,
            d_model: 32,
            n_heads: 2,
            n_enc_layers: 1,
            n_dec_layers: 1,
            d_ff: 64,
            max_len: 96,
        }
    }
}

/// Multi-head scaled dot-product attention.
///
/// Fields are crate-visible so the KV-cached inference path
/// (`crate::decode`) can run the same projections graph-free.
pub(crate) struct MultiHeadAttention {
    pub(crate) wq: Linear,
    pub(crate) wk: Linear,
    pub(crate) wv: Linear,
    pub(crate) wo: Linear,
    pub(crate) n_heads: usize,
    pub(crate) d_head: usize,
}

impl MultiHeadAttention {
    fn new<R: Rng + ?Sized>(d_model: usize, n_heads: usize, rng: &mut R) -> Self {
        assert_eq!(d_model % n_heads, 0, "d_model must be divisible by heads");
        MultiHeadAttention {
            wq: Linear::new(d_model, d_model, rng),
            wk: Linear::new(d_model, d_model, rng),
            wv: Linear::new(d_model, d_model, rng),
            wo: Linear::new(d_model, d_model, rng),
            n_heads,
            d_head: d_model / n_heads,
        }
    }

    /// `q_in`: `(Lq, d)`, `k_in`/`v_in`: `(Lk, d)`, optional additive mask
    /// `(Lq, Lk)` (0 = attend, -1e9 = blocked).
    fn forward(&self, q_in: &Var, kv_in: &Var, mask: Option<&Tensor>) -> Var {
        let q = self.wq.forward(q_in);
        let k = self.wk.forward(kv_in);
        let v = self.wv.forward(kv_in);
        let scale = 1.0 / (self.d_head as f32).sqrt();
        let mut heads = Vec::with_capacity(self.n_heads);
        for h in 0..self.n_heads {
            let qs = q.slice_cols(h * self.d_head, self.d_head);
            let ks = k.slice_cols(h * self.d_head, self.d_head);
            let vs = v.slice_cols(h * self.d_head, self.d_head);
            let mut scores = qs.matmul(&ks.transpose()).scale(scale);
            if let Some(m) = mask {
                scores = scores.add_mask(m);
            }
            let attn = scores.softmax_rows();
            heads.push(attn.matmul(&vs));
        }
        let concat = Var::concat_cols(&heads);
        self.wo.forward(&concat)
    }
}

impl Module for MultiHeadAttention {
    fn parameters(&self) -> Vec<Var> {
        [&self.wq, &self.wk, &self.wv, &self.wo]
            .iter()
            .flat_map(|l| l.parameters())
            .collect()
    }
}

pub(crate) struct FeedForward {
    pub(crate) l1: Linear,
    pub(crate) l2: Linear,
}

impl FeedForward {
    fn new<R: Rng + ?Sized>(d_model: usize, d_ff: usize, rng: &mut R) -> Self {
        FeedForward {
            l1: Linear::new(d_model, d_ff, rng),
            l2: Linear::new(d_ff, d_model, rng),
        }
    }

    fn forward(&self, x: &Var) -> Var {
        self.l2.forward(&self.l1.forward(x).gelu())
    }
}

impl Module for FeedForward {
    fn parameters(&self) -> Vec<Var> {
        let mut p = self.l1.parameters();
        p.extend(self.l2.parameters());
        p
    }
}

struct EncoderLayer {
    attn: MultiHeadAttention,
    ff: FeedForward,
    ln1: neural::layers::LayerNorm,
    ln2: neural::layers::LayerNorm,
}

impl EncoderLayer {
    fn new<R: Rng + ?Sized>(cfg: &TransformerConfig, rng: &mut R) -> Self {
        EncoderLayer {
            attn: MultiHeadAttention::new(cfg.d_model, cfg.n_heads, rng),
            ff: FeedForward::new(cfg.d_model, cfg.d_ff, rng),
            ln1: neural::layers::LayerNorm::new(cfg.d_model),
            ln2: neural::layers::LayerNorm::new(cfg.d_model),
        }
    }

    fn forward(&self, x: &Var) -> Var {
        // Pre-norm residual blocks (more stable for small models).
        let a = self.attn.forward(&self.ln1.forward(x), &self.ln1.forward(x), None);
        let x = x.add(&a);
        let f = self.ff.forward(&self.ln2.forward(&x));
        x.add(&f)
    }
}

impl Module for EncoderLayer {
    fn parameters(&self) -> Vec<Var> {
        let mut p = self.attn.parameters();
        p.extend(self.ff.parameters());
        p.extend(self.ln1.parameters());
        p.extend(self.ln2.parameters());
        p
    }
}

pub(crate) struct DecoderLayer {
    pub(crate) self_attn: MultiHeadAttention,
    pub(crate) cross_attn: MultiHeadAttention,
    pub(crate) ff: FeedForward,
    pub(crate) ln1: neural::layers::LayerNorm,
    pub(crate) ln2: neural::layers::LayerNorm,
    pub(crate) ln3: neural::layers::LayerNorm,
}

impl DecoderLayer {
    fn new<R: Rng + ?Sized>(cfg: &TransformerConfig, rng: &mut R) -> Self {
        DecoderLayer {
            self_attn: MultiHeadAttention::new(cfg.d_model, cfg.n_heads, rng),
            cross_attn: MultiHeadAttention::new(cfg.d_model, cfg.n_heads, rng),
            ff: FeedForward::new(cfg.d_model, cfg.d_ff, rng),
            ln1: neural::layers::LayerNorm::new(cfg.d_model),
            ln2: neural::layers::LayerNorm::new(cfg.d_model),
            ln3: neural::layers::LayerNorm::new(cfg.d_model),
        }
    }

    fn forward(&self, x: &Var, memory: &Var, causal_mask: &Tensor) -> Var {
        let n = self.ln1.forward(x);
        let a = self.self_attn.forward(&n, &n, Some(causal_mask));
        let x = x.add(&a);
        let c = self
            .cross_attn
            .forward(&self.ln2.forward(&x), memory, None);
        let x = x.add(&c);
        let f = self.ff.forward(&self.ln3.forward(&x));
        x.add(&f)
    }
}

impl Module for DecoderLayer {
    fn parameters(&self) -> Vec<Var> {
        let mut p = self.self_attn.parameters();
        p.extend(self.cross_attn.parameters());
        p.extend(self.ff.parameters());
        p.extend(self.ln1.parameters());
        p.extend(self.ln2.parameters());
        p.extend(self.ln3.parameters());
        p
    }
}

/// The encoder–decoder transformer for character string synthesis.
pub struct Seq2SeqTransformer {
    pub(crate) cfg: TransformerConfig,
    embed_src: Embedding,
    pub(crate) embed_tgt: Embedding,
    pub(crate) pos: Tensor,
    enc_layers: Vec<EncoderLayer>,
    pub(crate) dec_layers: Vec<DecoderLayer>,
    pub(crate) ln_final: neural::layers::LayerNorm,
    pub(crate) out_proj: Linear,
}

impl Seq2SeqTransformer {
    /// Builds a freshly initialized model.
    pub fn new<R: Rng + ?Sized>(cfg: TransformerConfig, rng: &mut R) -> Self {
        let pos = sinusoidal_positions(cfg.max_len, cfg.d_model);
        Seq2SeqTransformer {
            embed_src: Embedding::new(cfg.vocab, cfg.d_model, rng),
            embed_tgt: Embedding::new(cfg.vocab, cfg.d_model, rng),
            enc_layers: (0..cfg.n_enc_layers)
                .map(|_| EncoderLayer::new(&cfg, rng))
                .collect(),
            dec_layers: (0..cfg.n_dec_layers)
                .map(|_| DecoderLayer::new(&cfg, rng))
                .collect(),
            ln_final: neural::layers::LayerNorm::new(cfg.d_model),
            out_proj: Linear::new(cfg.d_model, cfg.vocab, rng),
            pos,
            cfg,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &TransformerConfig {
        &self.cfg
    }

    fn embed(&self, table: &Embedding, ids: &[usize]) -> Var {
        let ids: Vec<usize> = ids.iter().take(self.cfg.max_len).copied().collect();
        let e = table.forward(&ids).scale((self.cfg.d_model as f32).sqrt());
        let mut pos = Tensor::zeros(ids.len(), self.cfg.d_model);
        for r in 0..ids.len() {
            pos.row_mut(r).copy_from_slice(self.pos.row(r));
        }
        e.add(&Var::constant(pos))
    }

    /// Encodes framed source ids into a memory of shape `(L, d_model)`.
    pub fn encode(&self, src_ids: &[usize]) -> Var {
        let mut h = self.embed(&self.embed_src, src_ids);
        for layer in &self.enc_layers {
            h = layer.forward(&h);
        }
        h
    }

    /// Decodes target-input ids against the encoder memory, returning
    /// `(L, vocab)` logits.
    pub fn decode(&self, tgt_ids: &[usize], memory: &Var) -> Var {
        let l = tgt_ids.len().min(self.cfg.max_len);
        let mask = causal_mask(l);
        let mut h = self.embed(&self.embed_tgt, tgt_ids);
        for layer in &self.dec_layers {
            h = layer.forward(&h, memory, &mask);
        }
        self.out_proj.forward(&self.ln_final.forward(&h))
    }

    /// Teacher-forced training loss for one `(src, tgt)` pair of *unframed*
    /// token id sequences. Returns a scalar `Var`.
    pub fn loss(&self, src: &[usize], tgt: &[usize]) -> Var {
        let src_framed = frame(src);
        // Decoder input: BOS + tgt; targets: tgt + EOS.
        let mut dec_in = Vec::with_capacity(tgt.len() + 1);
        dec_in.push(BOS);
        dec_in.extend_from_slice(tgt);
        let mut targets = tgt.to_vec();
        targets.push(EOS);
        // Truncate both to max_len consistently.
        let l = dec_in.len().min(self.cfg.max_len);
        let memory = self.encode(&src_framed);
        let logits = self.decode(&dec_in[..l], &memory);
        logits.cross_entropy_logits(&targets[..l], Some(PAD))
    }

    /// Encodes an *unframed* source once for reuse across candidates,
    /// retries, and beams (frames it internally, like the generators do).
    pub fn encode_source(&self, src: &[usize]) -> EncodedSource {
        EncodedSource::from_framed(self, &frame(src))
    }

    /// Deterministic beam-search decoding: keeps the `beam_width` highest
    /// log-probability partial sequences, returns the best finished one
    /// (normalized by generated length so shorter outputs aren't unfairly
    /// favored). Complements [`Seq2SeqTransformer::generate`]'s temperature
    /// sampling when a single high-likelihood output is wanted.
    ///
    /// Beams advance in lockstep through one KV-cached [`BatchDecoder`];
    /// surviving beams keep their caches across pruning via lane fork/retain.
    pub fn generate_beam(&self, src: &[usize], max_out: usize, beam_width: usize) -> Vec<usize> {
        struct Beam {
            /// Sequence including the leading BOS.
            seq: Vec<usize>,
            /// Total log-probability.
            score: f32,
            done: bool,
            /// Cache lane holding all but the newest token; None once done.
            lane: Option<usize>,
        }
        let enc = self.encode_source(src);
        let width = beam_width.max(1);
        let mut dec = BatchDecoder::new(self, &enc, 1);
        let mut beams = vec![Beam { seq: vec![BOS], score: 0.0, done: false, lane: Some(0) }];
        let limit = max_out.min(self.cfg.max_len - 1);
        for _ in 0..limit {
            if beams.iter().all(|b| b.done) {
                break;
            }
            // Feed every unfinished beam's newest token in one batched step.
            let feeds: Vec<(usize, usize)> = beams
                .iter()
                .filter(|b| !b.done)
                .map(|b| (b.lane.expect("live beam has a lane"), *b.seq.last().unwrap()))
                .collect();
            let logits = dec.step(&feeds);
            let mut next: Vec<Beam> = Vec::new();
            let mut row = 0;
            for b in &beams {
                if b.done {
                    next.push(Beam { seq: b.seq.clone(), score: b.score, done: true, lane: None });
                    continue;
                }
                let last = logits.row(row);
                row += 1;
                // Log-softmax over the row.
                let m = last.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                let z: f32 = last.iter().map(|&v| (v - m).exp()).sum();
                let log_z = m + z.ln();
                // Top `width` continuations of this beam.
                let mut scored: Vec<(usize, f32)> = last
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != PAD && i != BOS)
                    .map(|(i, &v)| (i, v - log_z))
                    .collect();
                scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
                // The first live continuation inherits the parent's lane;
                // further ones fork it.
                let mut parent_lane_taken = false;
                for &(id, lp) in scored.iter().take(width) {
                    let finished = id == EOS;
                    let mut s = b.seq.clone();
                    if !finished {
                        s.push(id);
                    }
                    let lane = if finished {
                        None
                    } else if !parent_lane_taken {
                        parent_lane_taken = true;
                        b.lane
                    } else {
                        Some(dec.fork_lane(b.lane.expect("live beam has a lane")))
                    };
                    next.push(Beam { seq: s, score: b.score + lp, done: finished, lane });
                }
            }
            // Prune to the global beam width by length-normalized score.
            next.sort_by(|a, b| {
                let na = length_normalized(a.score, a.seq.len());
                let nb = length_normalized(b.score, b.seq.len());
                nb.partial_cmp(&na).unwrap_or(std::cmp::Ordering::Equal)
            });
            next.truncate(width);
            // Drop pruned beams' caches and renumber survivors' lanes.
            let keep: Vec<usize> = next.iter().filter_map(|b| b.lane).collect();
            dec.retain_lanes(&keep);
            let mut li = 0;
            for b in &mut next {
                if b.lane.is_some() {
                    b.lane = Some(li);
                    li += 1;
                }
            }
            beams = next;
        }
        let mut best = beams.remove(0).seq;
        best.remove(0); // strip BOS
        best
    }

    /// Samples an output id sequence (without specials) for an unframed
    /// source, using temperature sampling. Stops at EOS or `max_out` tokens.
    pub fn generate<R: Rng + ?Sized>(
        &self,
        src: &[usize],
        max_out: usize,
        temperature: f32,
        rng: &mut R,
    ) -> Vec<usize> {
        let enc = self.encode_source(src);
        self.generate_from(&enc, max_out, temperature, rng)
    }

    /// [`Seq2SeqTransformer::generate`] against an already-encoded source.
    /// Consumes the same RNG stream and emits the same tokens as the old
    /// full-redecode loop (the KV-cached logits are bit-identical).
    pub fn generate_from<R: Rng + ?Sized>(
        &self,
        enc: &EncodedSource,
        max_out: usize,
        temperature: f32,
        rng: &mut R,
    ) -> Vec<usize> {
        let mut dec = BatchDecoder::new(self, enc, 1);
        let mut out: Vec<usize> = Vec::new();
        let mut last = BOS;
        let limit = max_out.min(self.cfg.max_len - 1);
        for _ in 0..limit {
            let logits = dec.step(&[(0, last)]);
            let id = sample_from_logits(logits.row(0), temperature, rng);
            if id == EOS {
                break;
            }
            out.push(id);
            last = id;
        }
        out
    }

    /// Decodes `n` independent temperature-sampled candidates in lockstep
    /// against one encoded source. Each candidate draws from its own RNG
    /// lane seeded up front from `rng`, so the batch is reproducible and
    /// identical to running [`Seq2SeqTransformer::generate_from`] serially
    /// with the same per-lane seeds; `keep` may retire lanes early (see
    /// [`Seq2SeqTransformer::generate_lanes`]).
    pub fn generate_batch<R: Rng + ?Sized>(
        &self,
        enc: &EncodedSource,
        n: usize,
        max_out: usize,
        temperature: f32,
        rng: &mut R,
        keep: impl FnMut(usize, usize, usize) -> bool,
    ) -> Vec<Vec<usize>> {
        let seeds: Vec<u64> = (0..n).map(|_| rng.gen::<u64>()).collect();
        self.generate_lanes(enc, &seeds, max_out, temperature, keep)
    }

    /// Lockstep batched decoding with one explicit RNG seed per lane.
    ///
    /// `keep(lane, id, left)` sees every non-EOS id a lane emits, with the
    /// number of ids the lane may still emit after it. Returning `false`
    /// retires the lane: it leaves the batch and its output is empty. Every
    /// other lane `i` produces exactly what `generate_from` produces with
    /// `StdRng::seed_from_u64(seeds[i])`: lanes share no randomness and the
    /// batched kernels are row-local (DESIGN.md §11.1).
    pub fn generate_lanes(
        &self,
        enc: &EncodedSource,
        seeds: &[u64],
        max_out: usize,
        temperature: f32,
        mut keep: impl FnMut(usize, usize, usize) -> bool,
    ) -> Vec<Vec<usize>> {
        let n = seeds.len();
        if n == 0 {
            return Vec::new();
        }
        let timer = obs::enabled().then(std::time::Instant::now);
        let mut rngs: Vec<StdRng> = seeds.iter().map(|&s| StdRng::seed_from_u64(s)).collect();
        let mut dec = BatchDecoder::new(self, enc, n);
        let mut outs: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut last: Vec<usize> = vec![BOS; n];
        let mut alive: Vec<usize> = (0..n).collect();
        let limit = max_out.min(self.cfg.max_len - 1);
        let mut tokens = 0u64;
        let mut retired = 0u64;
        for _ in 0..limit {
            if alive.is_empty() {
                break;
            }
            let feeds: Vec<(usize, usize)> = alive.iter().map(|&l| (l, last[l])).collect();
            let logits = dec.step(&feeds);
            let mut still_alive = Vec::with_capacity(alive.len());
            for (r, &lane) in alive.iter().enumerate() {
                let id = sample_from_logits(logits.row(r), temperature, &mut rngs[lane]);
                tokens += 1;
                if id == EOS {
                    continue;
                }
                outs[lane].push(id);
                if !keep(lane, id, limit - outs[lane].len()) {
                    outs[lane].clear();
                    retired += 1;
                    continue;
                }
                last[lane] = id;
                still_alive.push(lane);
            }
            alive = still_alive;
        }
        obs::counter("decode.lanes_retired", retired);
        if let Some(t0) = timer {
            let secs = t0.elapsed().as_secs_f64();
            if secs > 0.0 {
                obs::gauge("decode.tokens_per_sec", tokens as f64 / secs);
            }
        }
        outs
    }
}

/// Length-normalized beam score: total log-probability divided by the number
/// of *generated* tokens. `seq_len_with_bos` counts the leading BOS, which
/// carries no probability mass and must not dilute the average.
fn length_normalized(score: f32, seq_len_with_bos: usize) -> f32 {
    score / seq_len_with_bos.saturating_sub(1).max(1) as f32
}

impl Module for Seq2SeqTransformer {
    fn parameters(&self) -> Vec<Var> {
        let mut p = self.embed_src.parameters();
        p.extend(self.embed_tgt.parameters());
        for l in &self.enc_layers {
            p.extend(l.parameters());
        }
        for l in &self.dec_layers {
            p.extend(l.parameters());
        }
        p.extend(self.ln_final.parameters());
        p.extend(self.out_proj.parameters());
        p
    }
}

/// Caps on persisted architecture hyperparameters: a config outside these
/// bounds cannot come from this workspace and would drive absurd allocations.
const MAX_ARCH_DIM: usize = 1 << 16;
const MAX_ARCH_LAYERS: usize = 64;

impl Persist for Seq2SeqTransformer {
    const MAGIC: &'static str = "serd-transformer-v1";

    fn write_body(&self, w: &mut Writer) {
        w.kv("vocab", self.cfg.vocab);
        w.kv("d_model", self.cfg.d_model);
        w.kv("n_heads", self.cfg.n_heads);
        w.kv("n_enc_layers", self.cfg.n_enc_layers);
        w.kv("n_dec_layers", self.cfg.n_dec_layers);
        w.kv("d_ff", self.cfg.d_ff);
        w.kv("max_len", self.cfg.max_len);
        let params = self.parameters();
        w.kv("params", params.len());
        for p in &params {
            write_tensor(w, "p", &p.value());
        }
    }

    fn read_body(r: &mut Reader<'_>) -> persist::Result<Self> {
        let cfg = TransformerConfig {
            vocab: r.kv_usize("vocab")?,
            d_model: r.kv_usize("d_model")?,
            n_heads: r.kv_usize("n_heads")?,
            n_enc_layers: r.kv_usize("n_enc_layers")?,
            n_dec_layers: r.kv_usize("n_dec_layers")?,
            d_ff: r.kv_usize("d_ff")?,
            max_len: r.kv_usize("max_len")?,
        };
        // Pre-validate everything `Seq2SeqTransformer::new` (and the layers
        // underneath it) would otherwise assert on.
        if cfg.vocab < 4 || cfg.vocab > MAX_ARCH_DIM {
            return Err(r.invalid(format!("implausible vocab size {}", cfg.vocab)));
        }
        if cfg.d_model == 0 || cfg.d_model > MAX_ARCH_DIM {
            return Err(r.invalid(format!("implausible d_model {}", cfg.d_model)));
        }
        if cfg.n_heads == 0 || cfg.d_model % cfg.n_heads != 0 {
            return Err(r.invalid(format!(
                "d_model {} not divisible by n_heads {}",
                cfg.d_model, cfg.n_heads
            )));
        }
        if cfg.n_enc_layers > MAX_ARCH_LAYERS || cfg.n_dec_layers > MAX_ARCH_LAYERS {
            return Err(r.invalid("implausible layer count"));
        }
        if cfg.d_ff == 0 || cfg.d_ff > MAX_ARCH_DIM {
            return Err(r.invalid(format!("implausible d_ff {}", cfg.d_ff)));
        }
        if cfg.max_len < 2 || cfg.max_len > MAX_ARCH_DIM {
            return Err(r.invalid(format!("implausible max_len {}", cfg.max_len)));
        }
        let declared = r.kv_usize("params")?;
        // The architecture is rebuilt with a throwaway RNG, then every
        // parameter tensor is overwritten from the artifact.
        // `Module::parameters` returns leaves in a stable order, so the file
        // order matches the model order.
        let model = Seq2SeqTransformer::new(cfg, &mut StdRng::seed_from_u64(0));
        let params = model.parameters();
        if declared != params.len() {
            return Err(r.invalid(format!(
                "declared {declared} parameter tensors, architecture has {}",
                params.len()
            )));
        }
        for (i, p) in params.iter().enumerate() {
            let t = read_tensor(r, "p")?;
            if t.shape() != p.shape() {
                return Err(r.invalid(format!(
                    "parameter {i}: shape {:?} does not match architecture {:?}",
                    t.shape(),
                    p.shape()
                )));
            }
            p.set_value(t);
        }
        Ok(model)
    }
}

/// Wraps unframed token ids in `BOS … EOS`, the framing every encoder input
/// uses (training, generation, and the KV-cached inference path).
pub fn frame(ids: &[usize]) -> Vec<usize> {
    let mut out = Vec::with_capacity(ids.len() + 2);
    out.push(BOS);
    out.extend_from_slice(ids);
    out.push(EOS);
    out
}

/// `(max_len, d_model)` sinusoidal positional table.
fn sinusoidal_positions(max_len: usize, d_model: usize) -> Tensor {
    let mut t = Tensor::zeros(max_len, d_model);
    for p in 0..max_len {
        for i in 0..d_model {
            let exponent = (2 * (i / 2)) as f32 / d_model as f32;
            let angle = p as f32 / 10000f32.powf(exponent);
            let v = if i % 2 == 0 { angle.sin() } else { angle.cos() };
            t.set(p, i, v);
        }
    }
    t
}

/// `(l, l)` additive causal mask: 0 on/below diagonal, -1e9 above.
///
/// Masks are memoized per thread by length — generation used to rebuild the
/// same O(l²) tensor on every decode call. Lengths above the cache cap fall
/// back to a fresh build so a single oversized request can't pin memory.
fn causal_mask(l: usize) -> Rc<Tensor> {
    const CACHE_MAX_LEN: usize = 512;
    thread_local! {
        static MASKS: RefCell<Vec<Option<Rc<Tensor>>>> = RefCell::new(Vec::new());
    }
    if l > CACHE_MAX_LEN {
        return Rc::new(build_causal_mask(l));
    }
    MASKS.with(|cache| {
        let mut cache = cache.borrow_mut();
        if cache.len() <= l {
            cache.resize(l + 1, None);
        }
        cache[l]
            .get_or_insert_with(|| Rc::new(build_causal_mask(l)))
            .clone()
    })
}

fn build_causal_mask(l: usize) -> Tensor {
    let mut m = Tensor::zeros(l, l);
    for r in 0..l {
        for c in (r + 1)..l {
            m.set(r, c, -1e9);
        }
    }
    m
}

/// Temperature sampling over a logit row; `temperature <= 0` means argmax.
/// `PAD` and `BOS` are never emitted.
fn sample_from_logits<R: Rng + ?Sized>(logits: &[f32], temperature: f32, rng: &mut R) -> usize {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocab::CharVocab;
    use neural::optim::Adam;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn shapes_flow_through() {
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = TransformerConfig::tiny(20);
        let model = Seq2SeqTransformer::new(cfg, &mut rng);
        let memory = model.encode(&[BOS, 4, 5, 6, 7, EOS]);
        assert_eq!(memory.shape(), (6, 32));
        let logits = model.decode(&[1, 4, 5], &memory);
        assert_eq!(logits.shape(), (3, 20));
    }

    #[test]
    fn loss_is_finite_and_positive() {
        let mut rng = StdRng::seed_from_u64(1);
        let model = Seq2SeqTransformer::new(TransformerConfig::tiny(20), &mut rng);
        let loss = model.loss(&[4, 5, 6], &[5, 6, 7]);
        let v = loss.data().get(0, 0);
        assert!(v.is_finite() && v > 0.0);
    }

    #[test]
    fn can_memorize_identity_mapping() {
        // A tiny copy task: the model should learn to echo short sequences.
        let mut rng = StdRng::seed_from_u64(7);
        let vocab = CharVocab::build(["abcd"]);
        let model = Seq2SeqTransformer::new(TransformerConfig::tiny(vocab.len()), &mut rng);
        let pairs: Vec<(Vec<usize>, Vec<usize>)> = ["ab", "cd", "ad", "bc"]
            .iter()
            .map(|s| (vocab.encode(s, false), vocab.encode(s, false)))
            .collect();
        let mut opt = Adam::new(model.parameters(), 3e-3);
        for _ in 0..150 {
            for (src, tgt) in &pairs {
                let loss = model.loss(src, tgt);
                loss.backward();
                opt.step();
            }
        }
        let out = model.generate(&vocab.encode("ab", false), 8, 0.0, &mut rng);
        assert_eq!(vocab.decode(&out), "ab");
    }

    #[test]
    fn beam_search_matches_copy_task_too() {
        let mut rng = StdRng::seed_from_u64(7);
        let vocab = CharVocab::build(["abcd"]);
        let model = Seq2SeqTransformer::new(TransformerConfig::tiny(vocab.len()), &mut rng);
        let pairs: Vec<(Vec<usize>, Vec<usize>)> = ["ab", "cd", "ad", "bc"]
            .iter()
            .map(|s| (vocab.encode(s, false), vocab.encode(s, false)))
            .collect();
        let mut opt = Adam::new(model.parameters(), 3e-3);
        for _ in 0..150 {
            for (src, tgt) in &pairs {
                model.loss(src, tgt).backward();
                opt.step();
            }
        }
        let out = model.generate_beam(&vocab.encode("cd", false), 8, 3);
        assert_eq!(vocab.decode(&out), "cd");
    }

    #[test]
    fn length_normalization_excludes_bos() {
        // One generated token after the BOS divides by 1, not 2.
        assert_eq!(length_normalized(-3.0, 2), -3.0);
        // Three generated tokens divide by 3.
        assert_eq!(length_normalized(-6.0, 4), -2.0);
        // A bare [BOS] beam must not divide by zero.
        assert_eq!(length_normalized(-1.0, 1), -1.0);
    }

    #[test]
    fn beam_order_is_stable_on_trained_model() {
        // Pin the beam ranking on a trained toy copy-task model: every
        // width must agree with greedy decoding on this near-deterministic
        // distribution, i.e. length normalization must not promote a
        // shorter spurious beam over the learned copy.
        let mut rng = StdRng::seed_from_u64(7);
        let vocab = CharVocab::build(["abcd"]);
        let model = Seq2SeqTransformer::new(TransformerConfig::tiny(vocab.len()), &mut rng);
        let pairs: Vec<(Vec<usize>, Vec<usize>)> = ["ab", "cd", "ad", "bc"]
            .iter()
            .map(|s| (vocab.encode(s, false), vocab.encode(s, false)))
            .collect();
        let mut opt = Adam::new(model.parameters(), 3e-3);
        for _ in 0..150 {
            for (src, tgt) in &pairs {
                model.loss(src, tgt).backward();
                opt.step();
            }
        }
        let src = vocab.encode("ad", false);
        let greedy = model.generate(&src, 8, 0.0, &mut rng);
        assert_eq!(vocab.decode(&greedy), "ad");
        for width in 1..=4 {
            let out = model.generate_beam(&src, 8, width);
            assert_eq!(out, greedy, "beam width {width} disagrees with greedy");
        }
    }

    #[test]
    fn beam_search_bounds_and_specials() {
        let mut rng = StdRng::seed_from_u64(3);
        let model = Seq2SeqTransformer::new(TransformerConfig::tiny(20), &mut rng);
        let out = model.generate_beam(&[4, 5], 5, 4);
        assert!(out.len() <= 5);
        assert!(out.iter().all(|&id| id != PAD && id != BOS && id != EOS));
    }

    #[test]
    fn generate_respects_max_out() {
        let mut rng = StdRng::seed_from_u64(3);
        let model = Seq2SeqTransformer::new(TransformerConfig::tiny(20), &mut rng);
        let out = model.generate(&[4, 5], 5, 1.0, &mut rng);
        assert!(out.len() <= 5);
        assert!(out.iter().all(|&id| id != PAD && id != BOS));
    }

    #[test]
    fn causal_mask_shape() {
        let m = causal_mask(3);
        assert_eq!(m.get(0, 1), -1e9);
        assert_eq!(m.get(1, 0), 0.0);
        assert_eq!(m.get(2, 2), 0.0);
    }

    #[test]
    fn sampling_argmax_vs_temperature() {
        let mut rng = StdRng::seed_from_u64(5);
        let logits = vec![0.0, 0.0, 0.1, 0.0, 5.0, 1.0];
        assert_eq!(sample_from_logits(&logits, 0.0, &mut rng), 4);
        // High temperature still never emits PAD/BOS.
        for _ in 0..50 {
            let id = sample_from_logits(&logits, 10.0, &mut rng);
            assert!(id != PAD && id != BOS);
        }
    }

    #[test]
    fn positional_table_values() {
        let pos = sinusoidal_positions(4, 4);
        assert_eq!(pos.get(0, 0), 0.0); // sin(0)
        assert_eq!(pos.get(0, 1), 1.0); // cos(0)
        assert!((pos.get(1, 0) - 1f32.sin()).abs() < 1e-6);
    }
}
