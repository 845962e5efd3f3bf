//! Character vocabulary with special tokens.

use persist::{Persist, Reader, Writer};
use std::collections::HashMap;

/// Special token ids.
pub const PAD: usize = 0;
/// Beginning-of-sequence token id.
pub const BOS: usize = 1;
/// End-of-sequence token id.
pub const EOS: usize = 2;
/// Unknown-character token id.
pub const UNK: usize = 3;
const SPECIALS: usize = 4;

/// A character-level vocabulary (the paper tokenizes at character level).
#[derive(Debug, Clone)]
pub struct CharVocab {
    to_id: HashMap<char, usize>,
    to_char: Vec<char>,
}

impl CharVocab {
    /// Builds a vocabulary from the characters occurring in `corpus`.
    pub fn build<'a>(corpus: impl IntoIterator<Item = &'a str>) -> Self {
        let mut chars: Vec<char> = corpus
            .into_iter()
            .flat_map(str::chars)
            .collect::<std::collections::BTreeSet<char>>()
            .into_iter()
            .collect();
        chars.sort_unstable();
        let to_id = chars
            .iter()
            .enumerate()
            .map(|(i, &c)| (c, i + SPECIALS))
            .collect();
        CharVocab { to_id, to_char: chars }
    }

    /// Vocabulary size including the 4 specials.
    pub fn len(&self) -> usize {
        self.to_char.len() + SPECIALS
    }

    /// Whether the vocabulary contains no real characters.
    pub fn is_empty(&self) -> bool {
        self.to_char.is_empty()
    }

    /// Encodes a string to ids (unknown characters map to `UNK`), with
    /// optional BOS/EOS framing.
    pub fn encode(&self, s: &str, frame: bool) -> Vec<usize> {
        let mut out = Vec::with_capacity(s.len() + 2);
        if frame {
            out.push(BOS);
        }
        out.extend(s.chars().map(|c| self.to_id.get(&c).copied().unwrap_or(UNK)));
        if frame {
            out.push(EOS);
        }
        out
    }

    /// Decodes ids back to a string, skipping special tokens.
    pub fn decode(&self, ids: &[usize]) -> String {
        ids.iter().filter_map(|&id| self.char_of(id)).collect()
    }

    /// The char an id decodes to (`None` for special tokens).
    pub fn char_of(&self, id: usize) -> Option<char> {
        id.checked_sub(SPECIALS).and_then(|i| self.to_char.get(i).copied())
    }

    /// Id for a character, if known.
    pub fn id_of(&self, c: char) -> Option<usize> {
        self.to_id.get(&c).copied()
    }
}

/// Upper bound on persisted vocabulary size (Unicode has ~1.1M scalars).
const MAX_PERSISTED_CHARS: usize = 1 << 21;

impl Persist for CharVocab {
    const MAGIC: &'static str = "serd-vocab-v1";

    fn write_body(&self, w: &mut Writer) {
        w.kv("chars", self.to_char.len());
        let joined: String = self.to_char.iter().collect();
        w.kv_str("data", &joined);
    }

    fn read_body(r: &mut Reader<'_>) -> persist::Result<Self> {
        let n = r.kv_usize("chars")?;
        if n > MAX_PERSISTED_CHARS {
            return Err(r.invalid(format!("implausible char count {n}")));
        }
        let data = r.kv_str("data")?;
        let to_char: Vec<char> = data.chars().collect();
        if to_char.len() != n {
            return Err(r.invalid(format!(
                "declared {n} chars, found {}",
                to_char.len()
            )));
        }
        // `build` emits a sorted, deduplicated alphabet; anything else means
        // the file was edited or corrupted and ids would shift.
        if to_char.windows(2).any(|w| w[0] >= w[1]) {
            return Err(r.invalid("vocabulary characters not strictly increasing"));
        }
        let to_id = to_char
            .iter()
            .enumerate()
            .map(|(i, &c)| (c, i + SPECIALS))
            .collect();
        Ok(CharVocab { to_id, to_char })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let v = CharVocab::build(["hello world", "paper title"]);
        let ids = v.encode("hello", true);
        assert_eq!(ids[0], BOS);
        assert_eq!(*ids.last().unwrap(), EOS);
        assert_eq!(v.decode(&ids), "hello");
    }

    #[test]
    fn unknown_chars_map_to_unk() {
        let v = CharVocab::build(["abc"]);
        let ids = v.encode("abz", false);
        assert_eq!(ids[2], UNK);
        assert_eq!(v.decode(&ids), "ab");
    }

    #[test]
    fn specials_reserved() {
        let v = CharVocab::build(["ab"]);
        assert_eq!(v.len(), 6);
        assert!(v.id_of('a').unwrap() >= 4);
    }

    #[test]
    fn persist_roundtrip_preserves_ids() {
        let v = CharVocab::build(["hello wörld", "tab\there"]);
        let back = CharVocab::from_persist_str(&v.to_persist_string()).unwrap();
        assert_eq!(back.len(), v.len());
        for c in "helo wörd\t".chars() {
            assert_eq!(back.id_of(c), v.id_of(c), "{c:?}");
        }
    }

    #[test]
    fn persist_rejects_unsorted_alphabet() {
        let text = "serd-vocab-v1\nchars 2\ndata ba\n";
        assert!(CharVocab::from_persist_str(text).is_err());
        let text = "serd-vocab-v1\nchars 3\ndata ab\n";
        assert!(CharVocab::from_persist_str(text).is_err());
    }

    #[test]
    fn deterministic_ordering() {
        let v1 = CharVocab::build(["ba", "c"]);
        let v2 = CharVocab::build(["c", "ab"]);
        assert_eq!(v1.id_of('a'), v2.id_of('a'));
        assert_eq!(v1.id_of('c'), v2.id_of('c'));
    }
}
