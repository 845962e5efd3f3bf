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
            window = shift_in(window, c);
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

    /// The position of `key`'s first copy (or where it would go) and its
    /// number of copies.
    fn find(&self, key: u64) -> (usize, usize) {
        let at = self.keys.partition_point(|&k| k < key);
        (at, self.keys[at..].iter().take_while(|&&k| k == key).count())
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
        jaccard_of(self.total(), other.total(), self.intersection(other))
    }
}

/// Appends `c` to a packed window, dropping the window's oldest char.
fn shift_in(window: u64, c: char) -> u64 {
    ((window << CHAR_BITS) | c as u64) & WINDOW_MASK
}

/// The multiset Jaccard of [`QgramProfile::jaccard`] from the two multiset
/// sizes and their intersection size.
fn jaccard_of(a_total: usize, b_total: usize, inter: usize) -> f64 {
    if a_total == 0 && b_total == 0 {
        return 1.0;
    }
    let inter = inter as f64;
    let union = (a_total + b_total) as f64 - inter;
    if union == 0.0 {
        1.0
    } else {
        inter / union
    }
}

/// Scores single-splice edits of a current string by their 3-gram Jaccard
/// against a fixed source, without re-gramming the edited string.
///
/// Replacing `removed` chars at char position `at` with some inserted chars
/// changes only the grams whose window overlaps the splice: those starting
/// in `[at−2, at+removed)` of the current string go, and those starting in
/// `[at−2, at+inserted)` of the edited string come. With `Δ_g` the net
/// change of gram `g`'s count, the edit's intersection with the source is
/// the current one plus `Σ_g min(c_cur(g) + Δ_g, c_src(g)) − min(c_cur(g),
/// c_src(g))`, and its total is the current total plus `Σ_g Δ_g`. These are
/// the integers a full re-gram counts, so [`Qgram3Splicer::splice_jaccard`]
/// has the bits of `qgram_jaccard(source, edited, 3)`. A string shorter than
/// 3 chars has one padded whole-string key instead of windows, so an edit
/// from or to such a string is re-grammed in full.
///
/// ```
/// use similarity::{qgram_jaccard, Qgram3Keys, Qgram3Splicer};
/// let src = Qgram3Keys::of("adaptive query");
/// let mut s = Qgram3Splicer::new(&src);
/// s.set("adaptive queries".chars());
/// // Replace "ies" (chars 13..16) with "y".
/// let sim = s.splice_jaccard(13, 3, "y".chars());
/// assert_eq!(sim.to_bits(), qgram_jaccard("adaptive query", "adaptive query", 3).to_bits());
/// ```
#[derive(Debug, Clone)]
pub struct Qgram3Splicer<'s> {
    src: &'s Qgram3Keys,
    /// The current string's chars, keys, and intersection with `src`.
    chars: Vec<char>,
    keys: Qgram3Keys,
    inter: usize,
    /// Scratch: the edited chars around a splice.
    near: Vec<char>,
    /// Scratch: the keys a splice removes (`-1`) and adds (`+1`).
    delta: Vec<(u64, isize)>,
    /// Scratch: the edited string's keys when it is re-grammed in full.
    full: Qgram3Keys,
}

impl<'s> Qgram3Splicer<'s> {
    /// A splicer against `src` whose current string is empty.
    pub fn new(src: &'s Qgram3Keys) -> Self {
        Qgram3Splicer {
            src,
            chars: Vec::new(),
            keys: Qgram3Keys::default(),
            inter: 0,
            near: Vec::new(),
            delta: Vec::new(),
            full: Qgram3Keys::default(),
        }
    }

    /// Makes the string spelled by `chars` the current one.
    pub fn set(&mut self, chars: impl IntoIterator<Item = char>) {
        self.chars.clear();
        self.chars.extend(chars);
        self.keys.fill(self.chars.iter().copied());
        self.inter = self.src.intersection(&self.keys);
    }

    /// Length of the current string in chars.
    pub fn chars(&self) -> usize {
        self.chars.len()
    }

    /// 3-gram Jaccard of the source and the current string.
    pub fn jaccard(&self) -> f64 {
        jaccard_of(self.src.total(), self.keys.total(), self.inter)
    }

    /// 3-gram Jaccard of the source and the current string with the
    /// `removed` chars at char position `at` replaced by `inserted`. The
    /// current string is unchanged.
    ///
    /// # Panics
    /// If `at + removed` exceeds the current length.
    pub fn splice_jaccard(
        &mut self,
        at: usize,
        removed: usize,
        inserted: impl IntoIterator<Item = char>,
    ) -> f64 {
        let n = self.chars.len();
        assert!(at + removed <= n, "splice {at}+{removed} past length {n}");
        // The edited string is chars[..lo] + near + chars[hi..], where near
        // holds every char of a changed window.
        let lo = at.saturating_sub(2);
        let hi = (at + removed + 2).min(n);
        self.near.clear();
        self.near.extend_from_slice(&self.chars[lo..at]);
        self.near.extend(inserted);
        let added = self.near.len() - (at - lo);
        self.near.extend_from_slice(&self.chars[at + removed..hi]);
        if n < 3 || n - removed + added < 3 {
            let edited = self.chars[..lo].iter().chain(&self.near).chain(&self.chars[hi..]);
            self.full.fill(edited.copied());
            return self.src.jaccard(&self.full);
        }

        self.delta.clear();
        let windows = |chars: &[char], sign: isize, delta: &mut Vec<(u64, isize)>| {
            delta.extend(
                chars
                    .windows(3)
                    .map(|w| (w.iter().fold(0, |k, &c| shift_in(k, c)), sign)),
            );
        };
        windows(&self.chars[lo..hi], -1, &mut self.delta);
        windows(&self.near, 1, &mut self.delta);
        self.delta.sort_unstable();

        let mut inter = self.inter;
        let mut total = self.keys.total();
        for group in self.delta.chunk_by(|a, b| a.0 == b.0) {
            let key = group[0].0;
            let change: isize = group.iter().map(|&(_, s)| s).sum();
            if change == 0 {
                continue;
            }
            total = total.checked_add_signed(change).expect("removed grams are present");
            let (_, in_src) = self.src.find(key);
            if in_src == 0 {
                continue;
            }
            let (_, cur) = self.keys.find(key);
            let edited = cur.checked_add_signed(change).expect("removed grams are present");
            inter = inter + edited.min(in_src) - cur.min(in_src);
        }
        jaccard_of(self.src.total(), total, inter)
    }
}

/// The 3-gram overlap with a fixed source of a string that grows one char
/// at a time, and an upper bound on the Jaccard any extension can reach.
///
/// Once the string has 3 chars, every gram it has stays a gram of every
/// extension, and each further char adds exactly one gram. So with `i`
/// matched grams out of the string's `p` and the source's `S`, an extension
/// by at most `r` chars matches at most `i + x` grams, `x = min(r, S − i)`,
/// against a union of at least `S + p − i`: its Jaccard is at most
/// `(i + x) / (S + p − i)` (see [`Qgram3Prefix::jaccard_bound`]).
#[derive(Debug, Clone)]
pub struct Qgram3Prefix<'s> {
    src: &'s Qgram3Keys,
    window: u64,
    chars: usize,
    /// Matched grams so far.
    inter: usize,
    /// Per run of equal source keys, indexed by the run's first position:
    /// how many of its copies are matched.
    used: Vec<usize>,
}

impl<'s> Qgram3Prefix<'s> {
    /// The empty string's overlap with `src`.
    pub fn new(src: &'s Qgram3Keys) -> Self {
        Qgram3Prefix { src, window: 0, chars: 0, inter: 0, used: vec![0; src.total()] }
    }

    /// Appends one char.
    pub fn push(&mut self, c: char) {
        self.window = shift_in(self.window, c);
        self.chars += 1;
        if self.chars < 3 {
            return;
        }
        let (at, copies) = self.src.find(self.window);
        if copies > 0 && self.used[at] < copies {
            self.used[at] += 1;
            self.inter += 1;
        }
    }

    /// An upper bound on the 3-gram Jaccard with the source of this string
    /// extended by at most `more` chars; `None` while it is shorter than 3
    /// chars (its one padded key is not a gram of longer extensions).
    ///
    /// The bound is the f64 division of two integers whose exact quotient
    /// is at least the exact Jaccard of every such extension. Rounding is
    /// monotone, so it is also at least every extension's
    /// [`Qgram3Keys::jaccard`].
    pub fn jaccard_bound(&self, more: usize) -> Option<f64> {
        if self.chars < 3 {
            return None;
        }
        let (s, p, i) = (self.src.total(), self.chars - 2, self.inter);
        let x = more.min(s - i);
        Some((i + x) as f64 / (s + p - i) as f64)
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
