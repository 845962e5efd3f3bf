//! Character q-gram similarities (the paper's 3-gram Jaccard lives here).

use std::collections::HashMap;

/// A multiset of character q-grams, stored as gram → count.
///
/// Grams are extracted from the raw character sequence without padding, which
/// matches the conventional `py_stringmatching`-style q-gram tokenizer used by
/// Magellan/ZeroER. Strings shorter than `q` produce a single gram equal to
/// the whole string (so that very short values still compare non-trivially).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QgramProfile {
    grams: HashMap<String, usize>,
    total: usize,
}

impl QgramProfile {
    /// Number of distinct grams.
    pub fn distinct(&self) -> usize {
        self.grams.len()
    }

    /// Total gram count (multiset size).
    pub fn total(&self) -> usize {
        self.total
    }

    /// Multiset intersection size with `other`.
    pub fn intersection(&self, other: &QgramProfile) -> usize {
        let (small, large) = if self.grams.len() <= other.grams.len() {
            (self, other)
        } else {
            (other, self)
        };
        small
            .grams
            .iter()
            .map(|(g, &c)| c.min(large.grams.get(g).copied().unwrap_or(0)))
            .sum()
    }

    /// Multiset Jaccard similarity with `other`.
    pub fn jaccard(&self, other: &QgramProfile) -> f64 {
        if self.total == 0 && other.total == 0 {
            return 1.0;
        }
        let inter = self.intersection(other) as f64;
        let union = (self.total + other.total) as f64 - inter;
        if union == 0.0 {
            1.0
        } else {
            inter / union
        }
    }
}

/// Extracts the q-gram profile of `s`.
///
/// ```
/// use similarity::qgram_profile;
/// let p = qgram_profile("abcd", 3);
/// assert_eq!(p.total(), 2); // "abc", "bcd"
/// ```
pub fn qgram_profile(s: &str, q: usize) -> QgramProfile {
    let q = q.max(1);
    let chars: Vec<char> = s.chars().collect();
    let mut grams: HashMap<String, usize> = HashMap::new();
    let mut total = 0;
    if chars.is_empty() {
        return QgramProfile { grams, total };
    }
    if chars.len() < q {
        grams.insert(chars.iter().collect(), 1);
        return QgramProfile { grams, total: 1 };
    }
    for w in chars.windows(q) {
        *grams.entry(w.iter().collect()).or_insert(0) += 1;
        total += 1;
    }
    QgramProfile { grams, total }
}

/// q-gram Jaccard similarity of two strings (paper default: `q = 3`).
///
/// Comparison is over gram *multisets*: repeated grams count. Two empty
/// strings are defined to have similarity 1.0; an empty vs. non-empty string
/// has similarity 0.0.
///
/// ```
/// use similarity::qgram_jaccard;
/// assert_eq!(qgram_jaccard("database", "database", 3), 1.0);
/// assert_eq!(qgram_jaccard("abc", "xyz", 3), 0.0);
/// ```
pub fn qgram_jaccard(a: &str, b: &str, q: usize) -> f64 {
    qgram_profile(a, q).jaccard(&qgram_profile(b, q))
}

/// Bits per packed character: every Unicode scalar value is ≤ U+10FFFF,
/// which fits in 21 bits.
const CHAR_BITS: u32 = 21;
/// Filler for the unused slots of a string shorter than 3 chars. It is
/// above U+10FFFF, so it can never equal a real char.
const PAD: u64 = 0x1F_FFFF;
/// The low 63 bits: a window of three packed chars.
const WINDOW_MASK: u64 = (1 << (3 * CHAR_BITS)) - 1;

/// The 3-gram multiset of a string as sorted packed `u64` keys: the exact,
/// allocation-free twin of [`qgram_profile`]`(s, 3)`.
///
/// Each gram's three chars are packed 21 bits apiece into one key, so two
/// keys are equal exactly when their grams are (unlike hashed grams, there
/// is no collision to allow for). A string shorter than 3 chars yields one
/// key with its missing slots padded, mirroring the whole-string gram of
/// [`qgram_profile`]. [`Qgram3Keys::jaccard`] is bit-identical to
/// [`qgram_jaccard`] with `q = 3`.
///
/// ```
/// use similarity::{qgram_jaccard, Qgram3Keys};
/// let (a, b) = ("adaptive query", "adaptable queries");
/// let sim = Qgram3Keys::of(a).jaccard(&Qgram3Keys::of(b));
/// assert_eq!(sim.to_bits(), qgram_jaccard(a, b, 3).to_bits());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Qgram3Keys {
    keys: Vec<u64>,
}

impl Qgram3Keys {
    /// The keys of `s`.
    pub fn of(s: &str) -> Self {
        let mut k = Qgram3Keys::default();
        k.fill(s.chars());
        k
    }

    /// Replaces the keys with those of the string spelled by `chars`,
    /// reusing the buffer.
    pub fn fill(&mut self, chars: impl IntoIterator<Item = char>) {
        self.keys.clear();
        let mut window = 0u64;
        let mut n = 0usize;
        for c in chars {
            window = ((window << CHAR_BITS) | c as u64) & WINDOW_MASK;
            n += 1;
            if n >= 3 {
                self.keys.push(window);
            }
        }
        match n {
            1 => self.keys.push((window << (2 * CHAR_BITS)) | (PAD << CHAR_BITS) | PAD),
            2 => self.keys.push((window << CHAR_BITS) | PAD),
            _ => {}
        }
        self.keys.sort_unstable();
    }

    /// Total gram count (multiset size).
    pub fn total(&self) -> usize {
        self.keys.len()
    }

    /// Multiset intersection size with `other` (a two-pointer merge).
    pub fn intersection(&self, other: &Qgram3Keys) -> usize {
        let (a, b) = (&self.keys, &other.keys);
        let (mut i, mut j, mut inter) = (0, 0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    inter += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        inter
    }

    /// Multiset Jaccard similarity with `other`: the formula and edge cases
    /// of [`QgramProfile::jaccard`], so the result has the same bits.
    pub fn jaccard(&self, other: &Qgram3Keys) -> f64 {
        if self.total() == 0 && other.total() == 0 {
            return 1.0;
        }
        let inter = self.intersection(other) as f64;
        let union = (self.total() + other.total()) as f64 - inter;
        if union == 0.0 {
            1.0
        } else {
            inter / union
        }
    }
}

/// q-gram overlap coefficient: `|A ∩ B| / min(|A|, |B|)`.
pub fn qgram_overlap(a: &str, b: &str, q: usize) -> f64 {
    let pa = qgram_profile(a, q);
    let pb = qgram_profile(b, q);
    if pa.total() == 0 && pb.total() == 0 {
        return 1.0;
    }
    let denom = pa.total().min(pb.total());
    if denom == 0 {
        return 0.0;
    }
    pa.intersection(&pb) as f64 / denom as f64
}

/// q-gram Dice coefficient: `2 |A ∩ B| / (|A| + |B|)`.
pub fn qgram_dice(a: &str, b: &str, q: usize) -> f64 {
    let pa = qgram_profile(a, q);
    let pb = qgram_profile(b, q);
    if pa.total() == 0 && pb.total() == 0 {
        return 1.0;
    }
    let denom = (pa.total() + pb.total()) as f64;
    if denom == 0.0 {
        return 0.0;
    }
    2.0 * pa.intersection(&pb) as f64 / denom
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_strings_are_1() {
        assert_eq!(qgram_jaccard("sigmod conference", "sigmod conference", 3), 1.0);
    }

    #[test]
    fn disjoint_strings_are_0() {
        assert_eq!(qgram_jaccard("aaaa", "bbbb", 3), 0.0);
    }

    #[test]
    fn empty_handling() {
        assert_eq!(qgram_jaccard("", "", 3), 1.0);
        assert_eq!(qgram_jaccard("", "abc", 3), 0.0);
    }

    #[test]
    fn short_string_single_gram() {
        let p = qgram_profile("ab", 3);
        assert_eq!(p.total(), 1);
        assert_eq!(qgram_jaccard("ab", "ab", 3), 1.0);
        assert_eq!(qgram_jaccard("ab", "cd", 3), 0.0);
    }

    #[test]
    fn multiset_counts_repeats() {
        // "aaaa" has grams {aaa: 2}; "aaa" has {aaa: 1}.
        // intersection = 1, union = 2 + 1 - 1 = 2 -> 0.5.
        assert!((qgram_jaccard("aaaa", "aaa", 3) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn symmetric() {
        let a = "adaptable query optimization";
        let b = "adaptive query processing";
        assert_eq!(qgram_jaccard(a, b, 3), qgram_jaccard(b, a, 3));
    }

    #[test]
    fn overlap_and_dice_bounds() {
        let a = "generalised hash teams";
        let b = "generalized hash team";
        for v in [
            qgram_overlap(a, b, 3),
            qgram_dice(a, b, 3),
            qgram_jaccard(a, b, 3),
        ] {
            assert!((0.0..=1.0).contains(&v));
        }
        // overlap >= dice >= jaccard for multisets.
        assert!(qgram_overlap(a, b, 3) >= qgram_dice(a, b, 3));
        assert!(qgram_dice(a, b, 3) >= qgram_jaccard(a, b, 3));
    }

    #[test]
    fn unicode_chars_are_single_symbols() {
        // 3 chars each; one gram each; equal -> 1.0
        assert_eq!(qgram_jaccard("日本語", "日本語", 3), 1.0);
        assert!(qgram_jaccard("日本語", "日本人", 3) < 1.0);
    }

    #[test]
    fn profile_of_empty_string_is_empty() {
        let p = qgram_profile("", 3);
        assert_eq!(p.total(), 0);
        assert_eq!(p.distinct(), 0);
        // And it behaves sanely in set operations.
        assert_eq!(p.intersection(&qgram_profile("abc", 3)), 0);
        assert_eq!(p.jaccard(&qgram_profile("", 3)), 1.0);
    }

    #[test]
    fn profile_shorter_than_q_is_whole_string_gram() {
        // A 2-char string with q = 3 yields exactly one gram: the string
        // itself (documented fallback so short values still compare).
        let p = qgram_profile("ab", 3);
        assert_eq!(p.total(), 1);
        assert_eq!(p.distinct(), 1);
        assert_eq!(p.intersection(&qgram_profile("ab", 3)), 1);
        // The fallback gram is the whole string, not a prefix: "a" ≠ "ab".
        assert_eq!(p.intersection(&qgram_profile("a", 3)), 0);
        // q = 1 on the same string tokenizes per character instead.
        assert_eq!(qgram_profile("ab", 1).total(), 2);
    }

    #[test]
    fn profile_unicode_multibyte_counts_chars_not_bytes() {
        // "héllo" is 5 chars / 6 bytes. Windows must be over chars: a
        // byte-window tokenizer would produce 4 grams and could split the
        // 2-byte 'é' in half (invalid UTF-8 boundaries).
        let p = qgram_profile("héllo", 3);
        assert_eq!(p.total(), 3); // hél, éll, llo
        assert_eq!(p.distinct(), 3);
        // 4-char CJK string: 2 grams of 3 chars each.
        let cjk = qgram_profile("日本語学", 3);
        assert_eq!(cjk.total(), 2);
        // Mixed-width comparison stays consistent under symmetry.
        assert_eq!(
            qgram_jaccard("héllo", "hello", 3),
            qgram_jaccard("hello", "héllo", 3)
        );
    }

    #[test]
    fn profile_q_zero_is_clamped_to_one() {
        // q = 0 would make windows() panic; the profile clamps to q = 1.
        let p = qgram_profile("abc", 0);
        assert_eq!(p.total(), 3);
        assert_eq!(p.distinct(), 3);
    }

    #[test]
    fn packed_short_keys_never_equal_full_grams() {
        // "ab" is one padded key; it must not match a real 3-gram that
        // starts with the same chars, nor the 1-char key of "a".
        assert_eq!(Qgram3Keys::of("ab").intersection(&Qgram3Keys::of("abc")), 0);
        assert_eq!(Qgram3Keys::of("a").intersection(&Qgram3Keys::of("ab")), 0);
        // Multiset counts: "aaaa" has "aaa" twice, "aaa" once.
        assert_eq!(Qgram3Keys::of("aaaa").intersection(&Qgram3Keys::of("aaa")), 1);
        assert_eq!(Qgram3Keys::of("aaaaa").intersection(&Qgram3Keys::of("aaaa")), 2);
    }

    #[test]
    fn packed_fill_reuses_and_replaces() {
        let mut k = Qgram3Keys::of("a long first string");
        k.fill("xyz".chars());
        assert_eq!(k, Qgram3Keys::of("xyz"));
        k.fill("".chars());
        assert_eq!(k.total(), 0);
    }

    #[test]
    fn venue_similarity_is_low_like_paper() {
        // Paper Example 2 reports 0.16 for these two venues; exact value
        // depends on tokenizer details, so assert the ballpark.
        let s = qgram_jaccard(
            "SIGMOD Conference",
            "International Conference on Management of Data",
            3,
        );
        assert!(s > 0.02 && s < 0.35, "got {s}");
    }
}
