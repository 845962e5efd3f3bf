//! Corpus-guided deterministic string perturbation.
//!
//! Two roles (DESIGN.md §3 item 7):
//!
//! 1. **Training-pair seeding.** Background corpora pair strings by their
//!    natural similarities; some buckets (e.g. `[0.6, 0.7)`) can be sparse.
//!    [`perturb_toward`] manufactures a partner at any target similarity, so
//!    every bucket model has training data.
//! 2. **Repair fallback.** When no plausible model candidate lands within
//!    `repair_tol` of the target similarity, the bucketed synthesizer
//!    discards the candidates and runs [`perturb_toward`] from the *source*
//!    string instead. At `SerdConfig::fast()` this fallback decides almost
//!    every text value (DESIGN.md §3 item 7).
//!
//! The perturbation alternates token-level edits — dropping tokens of `s`,
//! inserting/appending/substituting tokens drawn from the corpus
//! vocabulary — greedily keeping the edit that moves the 3-gram Jaccard
//! similarity closest to the target, so outputs remain domain-plausible
//! (corpus tokens only). Tokens keep their original case and punctuation:
//! the 3-gram similarity is case-sensitive, and a lowercased copy of a
//! mixed-case source would cap the reachable similarity well below 1.

use persist::{Persist, Reader, Writer};
use rand::seq::SliceRandom;
use rand::Rng;
use similarity::{tokenize, Qgram3Keys, Qgram3Splicer};
use std::collections::BTreeSet;

/// A pool of domain tokens harvested from a background corpus.
#[derive(Debug, Clone)]
pub struct TokenPool {
    /// Original-case tokens (deduplicated case-insensitively).
    tokens: Vec<String>,
    /// Lowercased token set for plausibility membership checks.
    lower: BTreeSet<String>,
}

impl TokenPool {
    /// Harvests the distinct tokens of the corpus, preserving their case.
    pub fn from_corpus<'a>(corpus: impl IntoIterator<Item = &'a str>) -> Self {
        let mut lower = BTreeSet::new();
        let mut tokens = Vec::new();
        for s in corpus {
            for t in s.split_whitespace() {
                let key = t.to_lowercase();
                if !key.chars().any(char::is_alphanumeric) {
                    continue;
                }
                if lower.insert(key) {
                    tokens.push(t.to_string());
                }
            }
        }
        if tokens.is_empty() {
            tokens.push("item".to_string());
            lower.insert("item".to_string());
        }
        TokenPool { tokens, lower }
    }

    /// Number of distinct tokens.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// A random token (original case).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> &str {
        self.tokens.choose(rng).map(String::as_str).unwrap_or("item")
    }

    /// Whether the pool contains this token (case-insensitive; punctuation
    /// is stripped the same way [`similarity::tokenize`] does).
    pub fn contains(&self, token: &str) -> bool {
        self.lower.contains(&token.to_lowercase())
            || tokenize(token)
                .iter()
                .all(|t| self.lower.contains(t))
    }

    /// Fraction of `s`'s tokens that are pool tokens — a cheap plausibility
    /// score for model-generated candidates.
    pub fn plausibility(&self, s: &str) -> f64 {
        let tokens = tokenize(s);
        if tokens.is_empty() {
            return 0.0;
        }
        tokens.iter().filter(|t| self.lower.contains(*t)).count() as f64 / tokens.len() as f64
    }

    /// The distinct tokens in harvest order (original case).
    pub fn tokens(&self) -> &[String] {
        &self.tokens
    }
}

/// Upper bound on persisted pool size.
const MAX_PERSISTED_TOKENS: usize = 1 << 22;

impl Persist for TokenPool {
    const MAGIC: &'static str = "serd-pool-v1";

    fn write_body(&self, w: &mut Writer) {
        w.kv("tokens", self.tokens.len());
        for t in &self.tokens {
            w.kv_str("t", t);
        }
    }

    fn read_body(r: &mut Reader<'_>) -> persist::Result<Self> {
        let n = r.kv_usize("tokens")?;
        if n == 0 || n > MAX_PERSISTED_TOKENS {
            return Err(r.invalid(format!("implausible token count {n}")));
        }
        let mut tokens = Vec::with_capacity(n);
        let mut lower = BTreeSet::new();
        for _ in 0..n {
            let t = r.kv_str("t")?;
            // `from_corpus` invariants: whitespace-free, contains an
            // alphanumeric, unique case-insensitively.
            if t.is_empty() || t.chars().any(char::is_whitespace) {
                return Err(r.invalid(format!("malformed pool token {t:?}")));
            }
            let key = t.to_lowercase();
            if !key.chars().any(char::is_alphanumeric) {
                return Err(r.invalid(format!("non-alphanumeric pool token {t:?}")));
            }
            if !lower.insert(key) {
                return Err(r.invalid(format!("duplicate pool token {t:?}")));
            }
            tokens.push(t);
        }
        Ok(TokenPool { tokens, lower })
    }
}

/// Synthesizes `s'` from `s` with 3-gram Jaccard similarity close to
/// `target`, using only tokens of `s` and of the `pool`.
///
/// Greedy local search: propose `width` random single edits per round
/// (drop, insert, replace or append a token), keep the best, stop when
/// within `tol` or after `max_rounds` rounds. Returns the best string found
/// and its achieved similarity.
pub fn perturb_toward<R: Rng + ?Sized>(
    s: &str,
    target: f64,
    pool: &TokenPool,
    tol: f64,
    max_rounds: usize,
    rng: &mut R,
) -> (String, f64) {
    let (out, sim, _) =
        perturb_toward_keys(s, &Qgram3Keys::of(s), target, pool, tol, max_rounds, rng);
    (out, sim)
}

/// [`perturb_toward`] against the precomputed 3-gram keys of `s`, also
/// returning the number of search rounds run.
///
/// Tokens are borrowed from `s` and the pool. Each proposal is kept as an
/// [`Edit`] and scored as a char splice of the space-joined tokens
/// ([`Qgram3Splicer`]), so only the grams around the edited token are
/// looked at; the current string is re-grammed only when a proposal is
/// accepted. Scores are bit-identical to
/// `qgram_jaccard(s, &edited.join(" "), 3)`, so the RNG stream and the
/// result match that formulation exactly.
pub(crate) fn perturb_toward_keys<R: Rng + ?Sized>(
    s: &str,
    src: &Qgram3Keys,
    target: f64,
    pool: &TokenPool,
    tol: f64,
    max_rounds: usize,
    rng: &mut R,
) -> (String, f64, usize) {
    let target = target.clamp(0.0, 1.0);
    // Case- and punctuation-preserving tokens of the source string.
    let mut tokens: Vec<&str> = s.split_whitespace().collect();
    if tokens.is_empty() {
        tokens.push(pool.sample(rng));
    }
    let mut current = EditScorer::new(src, tokens);
    let mut best_sim = current.jaccard();

    // target == 1 means an exact copy is wanted.
    if target >= 1.0 - f64::EPSILON {
        return (s.to_string(), 1.0, 0);
    }

    let width = 8;
    let mut rounds = 0;
    for _ in 0..max_rounds {
        if (best_sim - target).abs() <= tol {
            break;
        }
        rounds += 1;
        let mut best_round: Option<(Edit<'_>, f64)> = None;
        for _ in 0..width {
            let n = current.tokens.len();
            let need_lower = best_sim > target;
            let op = rng.gen_range(0..3);
            let edit = match op {
                // Drop a token (lowers similarity) / insert a corpus token.
                0 => {
                    if need_lower && n > 1 {
                        Edit::Remove(rng.gen_range(0..n))
                    } else {
                        let i = rng.gen_range(0..=n);
                        Edit::Insert(i, pool.sample(rng))
                    }
                }
                // Replace a token with a corpus token.
                1 => {
                    let i = rng.gen_range(0..n);
                    Edit::Replace(i, pool.sample(rng))
                }
                // Append a corpus token (lowers sim when already similar).
                _ => Edit::Append(pool.sample(rng)),
            };
            let sim = current.score(edit);
            let dist = (sim - target).abs();
            if best_round
                .as_ref()
                .map_or(true, |(_, s2)| dist < (s2 - target).abs())
            {
                best_round = Some((edit, sim));
            }
        }
        if let Some((edit, sim)) = best_round {
            if (sim - target).abs() < (best_sim - target).abs() {
                current.apply(edit);
                best_sim = sim;
            }
        }
    }
    (current.tokens.join(" "), best_sim, rounds)
}

/// One single-token edit of a token list. It never empties the list: a
/// list of one token is never shortened.
#[derive(Debug, Clone, Copy)]
enum Edit<'t> {
    /// Drop the token at this index.
    Remove(usize),
    /// Insert a token before this index (at the end when it is the length).
    Insert(usize, &'t str),
    /// Replace the token at this index.
    Replace(usize, &'t str),
    /// Append a token.
    Append(&'t str),
}

/// A non-empty token list whose space-joined string is held by a
/// [`Qgram3Splicer`], so each [`Edit`] is scored as one char splice.
struct EditScorer<'t, 's> {
    tokens: Vec<&'t str>,
    /// Char position of each token in the joined string.
    starts: Vec<usize>,
    joined: Qgram3Splicer<'s>,
}

impl<'t, 's> EditScorer<'t, 's> {
    fn new(src: &'s Qgram3Keys, tokens: Vec<&'t str>) -> Self {
        let mut scorer = EditScorer { tokens, starts: Vec::new(), joined: Qgram3Splicer::new(src) };
        scorer.rejoin();
        scorer
    }

    /// Re-grams the joined string after the token list changed.
    fn rejoin(&mut self) {
        self.joined.set(joined_chars(&self.tokens));
        self.starts.clear();
        let mut at = 0;
        for t in &self.tokens {
            self.starts.push(at);
            at += t.chars().count() + 1;
        }
    }

    /// 3-gram Jaccard of the source and the joined tokens.
    fn jaccard(&self) -> f64 {
        self.joined.jaccard()
    }

    /// 3-gram Jaccard of the source and the joined tokens after `edit`,
    /// leaving the tokens as they are.
    fn score(&mut self, edit: Edit<'_>) -> f64 {
        let n = self.tokens.len();
        let len = self.joined.chars();
        let space = std::iter::once(' ');
        match edit {
            // Drop the token with the space after it, or before it if last.
            Edit::Remove(k) if k + 1 < n => {
                let at = self.starts[k];
                self.joined.splice_jaccard(at, self.starts[k + 1] - at, None)
            }
            Edit::Remove(k) => {
                let at = self.starts[k] - 1;
                self.joined.splice_jaccard(at, len - at, None)
            }
            Edit::Insert(i, t) if i < n => {
                self.joined.splice_jaccard(self.starts[i], 0, t.chars().chain(space))
            }
            Edit::Insert(_, t) | Edit::Append(t) => {
                self.joined.splice_jaccard(len, 0, space.chain(t.chars()))
            }
            Edit::Replace(k, t) => {
                let at = self.starts[k];
                // The token ends before the space that follows it.
                let to = if k + 1 < n { self.starts[k + 1] - 1 } else { len };
                self.joined.splice_jaccard(at, to - at, t.chars())
            }
        }
    }

    /// Applies `edit` to the tokens.
    fn apply(&mut self, edit: Edit<'t>) {
        match edit {
            Edit::Remove(k) => {
                self.tokens.remove(k);
            }
            Edit::Insert(i, t) => self.tokens.insert(i, t),
            Edit::Replace(k, t) => self.tokens[k] = t,
            Edit::Append(t) => self.tokens.push(t),
        }
        self.rejoin();
    }
}

/// The chars of `tokens.join(" ")`, without building the string.
fn joined_chars<'t>(tokens: &'t [&str]) -> impl Iterator<Item = char> + 't {
    tokens
        .iter()
        .enumerate()
        .flat_map(|(i, t)| (i > 0).then_some(' ').into_iter().chain(t.chars()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pool() -> TokenPool {
        TokenPool::from_corpus([
            "adaptive query processing for data streams",
            "efficient join algorithms in parallel databases",
            "mining frequent patterns without candidate generation",
            "temporal middleware evaluation strategies",
        ])
    }

    #[test]
    fn high_target_stays_close_to_source() {
        let mut rng = StdRng::seed_from_u64(1);
        let s = "adaptive query processing in temporal middleware systems";
        let (out, sim) = perturb_toward(s, 0.85, &pool(), 0.05, 200, &mut rng);
        assert!((sim - 0.85).abs() < 0.12, "sim {sim} out {out:?}");
    }

    #[test]
    fn mixed_case_source_reaches_high_similarity() {
        // Regression: a lowercasing perturber capped similarity around 0.5
        // for title-cased sources.
        let mut rng = StdRng::seed_from_u64(9);
        let s = "Forest Family Restaurant";
        let p = TokenPool::from_corpus(["Golden Dragon Diner", "Happy Garden Cafe"]);
        let (out, sim) = perturb_toward(s, 0.73, &p, 0.05, 300, &mut rng);
        assert!((sim - 0.73).abs() < 0.15, "sim {sim} out {out:?}");
    }

    #[test]
    fn low_target_produces_dissimilar_string() {
        let mut rng = StdRng::seed_from_u64(2);
        let s = "adaptive query processing in temporal middleware systems";
        let (out, sim) = perturb_toward(s, 0.05, &pool(), 0.05, 300, &mut rng);
        assert!(sim < 0.25, "sim {sim} out {out:?}");
        assert!(!out.is_empty());
    }

    #[test]
    fn target_one_returns_copy() {
        let mut rng = StdRng::seed_from_u64(3);
        let s = "generalised hash teams";
        let (out, sim) = perturb_toward(s, 1.0, &pool(), 0.01, 50, &mut rng);
        assert_eq!(out, s);
        assert_eq!(sim, 1.0);
    }

    #[test]
    fn mid_targets_across_range() {
        let mut rng = StdRng::seed_from_u64(4);
        let s = "mining frequent patterns from large transaction databases";
        for target in [0.2, 0.4, 0.6, 0.8] {
            let (_, sim) = perturb_toward(s, target, &pool(), 0.05, 400, &mut rng);
            assert!(
                (sim - target).abs() < 0.17,
                "target {target} achieved {sim}"
            );
        }
    }

    #[test]
    fn output_tokens_are_domain_tokens() {
        let mut rng = StdRng::seed_from_u64(5);
        let s = "temporal middleware evaluation";
        let p = pool();
        let (out, _) = perturb_toward(s, 0.5, &p, 0.02, 200, &mut rng);
        let src_tokens: std::collections::HashSet<String> =
            tokenize(s).into_iter().collect();
        for t in tokenize(&out) {
            assert!(
                p.contains(&t) || src_tokens.contains(&t),
                "alien token {t}"
            );
        }
    }

    #[test]
    fn pool_contains_is_case_insensitive() {
        let p = TokenPool::from_corpus(["Golden Dragon"]);
        assert!(p.contains("golden"));
        assert!(p.contains("Golden"));
        assert!(p.contains("DRAGON"));
        assert!(!p.contains("unicorn"));
    }

    #[test]
    fn plausibility_scores() {
        let p = pool();
        assert_eq!(p.plausibility("adaptive query"), 1.0);
        assert_eq!(p.plausibility("zzz qqq"), 0.0);
        assert!((p.plausibility("adaptive zzz") - 0.5).abs() < 1e-12);
        assert_eq!(p.plausibility(""), 0.0);
    }

    #[test]
    fn empty_source_handled() {
        let mut rng = StdRng::seed_from_u64(6);
        let (out, _) = perturb_toward("", 0.5, &pool(), 0.05, 50, &mut rng);
        assert!(!out.is_empty());
    }

    proptest::proptest! {
        #[test]
        fn streamed_token_score_matches_joined_qgram_jaccard(
            s in "[a é日\u{10FFFF}]{0,10}",
            picks in proptest::collection::vec(0usize..6, 1..6),
        ) {
            // Tokens mix pieces of `s` with astral, multi-byte and 1–2 char
            // tokens, as the repair search does.
            let extra = ["ab", "日", "\u{10FFFE}\u{10FFFF}", "aaa", "é", "x"];
            let mut tokens: Vec<&str> = s.split_whitespace().collect();
            tokens.extend(picks.iter().map(|&i| extra[i]));
            let mut keys = Qgram3Keys::default();
            keys.fill(joined_chars(&tokens));
            let streamed = Qgram3Keys::of(&s).jaccard(&keys);
            let reference = similarity::qgram_jaccard(&s, &tokens.join(" "), 3);
            proptest::prop_assert_eq!(streamed.to_bits(), reference.to_bits(), "{:?} {:?}", s, tokens);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(1024))]

        #[test]
        fn spliced_edit_score_matches_joined_qgram_jaccard(
            s in "[a é日\u{10FFFF}]{0,10}",
            picks in proptest::collection::vec(0usize..7, 1..5),
            kind in 0usize..4,
            place in 0usize..3,
            piece in 0usize..7,
        ) {
            // Token lists of 1+ tokens mixing pieces of `s` with empty,
            // 1–3 char, multi-byte and near-U+10FFFF tokens, so edits
            // cross the 3-char threshold both ways.
            let extra = ["ab", "日", "\u{10FFFE}\u{10FFFF}", "aaa", "é", "x", ""];
            let mut tokens: Vec<&str> = s.split_whitespace().collect();
            tokens.extend(picks.iter().map(|&i| extra[i]));
            let n = tokens.len();
            // The first, a middle, or the last token (or gap, for inserts).
            let at = |last: usize| [0, last / 2, last][place];
            let t = extra[piece];
            let edit = match kind {
                0 if n > 1 => Edit::Remove(at(n - 1)),
                0 => return Ok(()),
                1 => Edit::Insert(at(n), t),
                2 => Edit::Replace(at(n - 1), t),
                _ => Edit::Append(t),
            };
            let mut edited = tokens.clone();
            match edit {
                Edit::Remove(k) => {
                    edited.remove(k);
                }
                Edit::Insert(i, t) => edited.insert(i, t),
                Edit::Replace(k, t) => edited[k] = t,
                Edit::Append(t) => edited.push(t),
            }
            let reference = similarity::qgram_jaccard(&s, &edited.join(" "), 3);

            let src = Qgram3Keys::of(&s);
            let mut scorer = EditScorer::new(&src, tokens.clone());
            let spliced = scorer.score(edit);
            proptest::prop_assert_eq!(
                spliced.to_bits(), reference.to_bits(), "{:?} {:?} {:?}", s, tokens, edit
            );
            // Scoring leaves the tokens alone; applying re-grams the edit.
            proptest::prop_assert_eq!(&scorer.tokens, &tokens);
            scorer.apply(edit);
            proptest::prop_assert_eq!(&scorer.tokens, &edited);
            proptest::prop_assert_eq!(scorer.jaccard().to_bits(), reference.to_bits());
        }
    }

    #[test]
    fn empty_corpus_fallback() {
        let p = TokenPool::from_corpus(std::iter::empty::<&str>());
        assert!(!p.is_empty());
    }
}
