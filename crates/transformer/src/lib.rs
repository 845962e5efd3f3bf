//! Character-level seq2seq transformer for similarity-conditioned string
//! synthesis (paper Section VI).
//!
//! Given a string `s`, a similarity function `f`, and a target similarity
//! `sim`, SERD synthesizes `s'` with `f(s, s') ≈ sim`. The paper trains `k`
//! encoder–decoder transformers `M_1..M_k`, one per similarity bucket
//! `I_1..I_k` partitioning `[0, 1]`; model `M_i` is trained on *background
//! data* string pairs whose similarity falls in `I_i`, using DP-SGD
//! (Algorithm 1). At inference time, the bucket containing `sim` selects the
//! model, several candidates are sampled from the decoder, and the candidate
//! whose similarity to `s` is closest to `sim` wins.
//!
//! Modules:
//!
//! * [`vocab`] — character vocabulary with `PAD`/`BOS`/`EOS` specials.
//! * [`model`] — the Vaswani-style encoder–decoder (multi-head attention,
//!   sinusoidal positions, residual + LayerNorm) built on `neural`.
//! * [`decode`] — the graph-free inference path: per-lane KV caches,
//!   batched lockstep candidate decoding, shared encoder memory. Logits are
//!   bit-identical to [`model`]'s full re-decode (DESIGN.md §11).
//! * [`bucket`] — the bucketed model family: corpus pairing, DP-SGD
//!   training, and candidate-reranking inference.
//! * [`guided`] — a deterministic corpus-guided string perturbation used to
//!   (a) seed training pairs for sparse buckets and (b) repair model
//!   candidates that miss the target similarity badly. This is an
//!   engineering substitution for the authors' GPU-scale models; see
//!   DESIGN.md §3 item 7.

pub mod bucket;
pub mod decode;
pub mod guided;
pub mod model;
pub mod vocab;

pub use bucket::{BucketedSynthesizer, BucketedSynthesizerConfig, PreparedSynthesis};
pub use decode::{BatchDecoder, EncodedSource};
pub use model::{Seq2SeqTransformer, TransformerConfig};
pub use vocab::CharVocab;
