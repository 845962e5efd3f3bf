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
