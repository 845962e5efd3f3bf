//! Property-based tests for similarity functions.

use proptest::prelude::*;
use similarity::*;

fn small_string() -> impl Strategy<Value = String> {
    "[a-z0-9 ]{0,24}"
}

/// Chars that stress the packed 3-gram keys: ASCII, multi-byte, and astral
/// chars up to U+10FFFF (the largest value a 21-bit slot must hold).
const KEY_ALPHABET: [char; 9] =
    ['a', 'b', ' ', 'é', '日', '\u{1F600}', '\u{10FFFD}', '\u{10FFFE}', '\u{10FFFF}'];

/// Strings over [`KEY_ALPHABET`]: empty, shorter than a gram, and long
/// enough to repeat grams.
fn key_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(0..KEY_ALPHABET.len(), 0..12)
        .prop_map(|ix| ix.into_iter().map(|i| KEY_ALPHABET[i]).collect())
}

proptest! {
    #[test]
    fn qgram_jaccard_in_unit_interval(a in small_string(), b in small_string()) {
        let s = qgram_jaccard(&a, &b, 3);
        prop_assert!((0.0..=1.0).contains(&s));
    }

    #[test]
    fn qgram_jaccard_symmetric(a in small_string(), b in small_string()) {
        prop_assert_eq!(qgram_jaccard(&a, &b, 3), qgram_jaccard(&b, &a, 3));
    }

    #[test]
    fn qgram_jaccard_reflexive(a in small_string()) {
        prop_assert_eq!(qgram_jaccard(&a, &a, 3), 1.0);
    }

    #[test]
    fn edit_similarity_in_unit_interval(a in small_string(), b in small_string()) {
        let s = edit_similarity(&a, &b);
        prop_assert!((0.0..=1.0).contains(&s));
    }

    #[test]
    fn levenshtein_triangle(a in small_string(), b in small_string(), c in small_string()) {
        prop_assert!(levenshtein(&a, &c) <= levenshtein(&a, &b) + levenshtein(&b, &c));
    }

    #[test]
    fn levenshtein_identity_of_indiscernibles(a in small_string(), b in small_string()) {
        prop_assert_eq!(levenshtein(&a, &b) == 0, a == b);
    }

    #[test]
    fn token_jaccard_symmetric(a in small_string(), b in small_string()) {
        prop_assert_eq!(token_jaccard(&a, &b), token_jaccard(&b, &a));
    }

    #[test]
    fn numeric_similarity_bounds(a in -1e6f64..1e6, b in -1e6f64..1e6, r in 0.0f64..1e6) {
        let s = numeric_similarity(a, b, r);
        prop_assert!((0.0..=1.0).contains(&s));
    }

    #[test]
    fn numeric_inverse_roundtrip(a in -1e3f64..1e3, sim in 0.0f64..1.0, r in 1.0f64..1e3) {
        let (lo, hi) = numeric_inverse(a, sim, r);
        prop_assert!((numeric_similarity(a, lo, r) - sim).abs() < 1e-9);
        prop_assert!((numeric_similarity(a, hi, r) - sim).abs() < 1e-9);
    }

    #[test]
    fn monge_elkan_bounds(a in small_string(), b in small_string()) {
        let s = monge_elkan(&a, &b);
        prop_assert!((0.0..=1.0).contains(&s));
    }

    #[test]
    fn packed_3gram_keys_match_qgram_jaccard_bitwise(a in key_string(), b in key_string()) {
        let packed = Qgram3Keys::of(&a).jaccard(&Qgram3Keys::of(&b));
        prop_assert_eq!(packed.to_bits(), qgram_jaccard(&a, &b, 3).to_bits(), "{:?} vs {:?}", a, b);
        prop_assert_eq!(Qgram3Keys::of(&a).total(), qgram_profile(&a, 3).total());
    }
}

proptest! {
    // Cheap cases over a 9-char alphabet; enough of them to hit repeated
    // grams, astral chars and the 3-char threshold at every splice place.
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn splice_score_matches_qgram_jaccard_bitwise(
        src in key_string(),
        cur in key_string(),
        inserted in key_string(),
        at_pick in 0usize..64,
        removed_pick in 0usize..64,
    ) {
        // Any splice of any current string, including ones that cross the
        // 3-char threshold either way and empty removals or insertions.
        let chars: Vec<char> = cur.chars().collect();
        let at = at_pick % (chars.len() + 1);
        let removed = removed_pick % (chars.len() - at + 1);
        let edited: String = chars[..at]
            .iter()
            .copied()
            .chain(inserted.chars())
            .chain(chars[at + removed..].iter().copied())
            .collect();
        let src_keys = Qgram3Keys::of(&src);
        let mut splicer = Qgram3Splicer::new(&src_keys);
        splicer.set(cur.chars());
        prop_assert_eq!(splicer.jaccard().to_bits(), qgram_jaccard(&src, &cur, 3).to_bits());
        let spliced = splicer.splice_jaccard(at, removed, inserted.chars());
        prop_assert_eq!(
            spliced.to_bits(),
            qgram_jaccard(&src, &edited, 3).to_bits(),
            "{:?}: {:?} at {}+{} -> {:?}", src, cur, at, removed, edited
        );
        // Scoring leaves the current string as it was.
        prop_assert_eq!(splicer.jaccard().to_bits(), qgram_jaccard(&src, &cur, 3).to_bits());
    }

    #[test]
    fn prefix_bound_is_exact_now_and_covers_every_extension(
        src in key_string(),
        prefix in key_string(),
        ext in key_string(),
        slack in 0usize..3,
    ) {
        let src_keys = Qgram3Keys::of(&src);
        let mut p = Qgram3Prefix::new(&src_keys);
        prefix.chars().for_each(|c| p.push(c));
        let Some(now) = p.jaccard_bound(0) else {
            prop_assert!(prefix.chars().count() < 3);
            return Ok(());
        };
        // With no chars to come the bound is the Jaccard itself.
        prop_assert_eq!(now.to_bits(), qgram_jaccard(&src, &prefix, 3).to_bits());
        let ext: Vec<char> = ext.chars().collect();
        let bound = p.jaccard_bound(ext.len() + slack).expect("3+ chars");
        for k in 0..=ext.len() {
            let longer: String = prefix.chars().chain(ext[..k].iter().copied()).collect();
            let sim = qgram_jaccard(&src, &longer, 3);
            prop_assert!(sim <= bound, "{:?} + {:?}: {} > bound {}", prefix, &ext[..k], sim, bound);
        }
    }

    #[test]
    fn prefix_bound_admits_completing_the_source(src in key_string(), cut in 3usize..12) {
        // A prefix of the source can still become the source itself, so
        // its bound over the remaining chars must reach 1.
        let chars: Vec<char> = src.chars().collect();
        prop_assume!(chars.len() >= 3);
        let cut = cut.min(chars.len());
        let src_keys = Qgram3Keys::of(&src);
        let mut p = Qgram3Prefix::new(&src_keys);
        chars[..cut].iter().for_each(|&c| p.push(c));
        prop_assert_eq!(p.jaccard_bound(chars.len() - cut), Some(1.0), "{:?} cut {}", src, cut);
    }
}
