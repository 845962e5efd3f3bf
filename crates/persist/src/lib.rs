//! Versioned, line-oriented persistence for learned model artifacts.
//!
//! The paper's pipeline is explicitly two-phase: an *offline* phase (hours —
//! train DP text models, the GAN, learn `O_real`) and an *online* phase
//! (minutes — synthesize). Section II-D argues the learned distribution
//! parameters are exactly the artifact that is safe to share, so this crate
//! gives every learned component a way to become such an artifact: a plain
//! text format with full-precision hex floats, a magic/version line per
//! component, and strict validation on read. No serialization crates.
//!
//! # Format
//!
//! An artifact is a sequence of `\n`-terminated lines:
//!
//! ```text
//! <magic>            e.g. "serd-gan-v1" — component family + format version
//! <key> <value>      one field per line, in a fixed order
//! ...
//! ```
//!
//! * `f64` values are the 16-hex-digit bit pattern of the float (`f32`: 8
//!   digits), so round-trips are bit-exact, including negative zero and
//!   subnormals. Readers reject NaN/Inf where the model requires finiteness.
//! * Strings are escaped (`\` → `\\`, newline → `\n`, CR → `\r`) so any
//!   value stays on one line.
//! * Composite models embed their children inline: the child's magic line
//!   followed by its body, read back with the same shared line cursor. Every
//!   body is self-describing (explicit counts precede every repeated
//!   section), so no length prefixes or framing are needed.
//!
//! # Error discipline
//!
//! Nothing on a persistence path may panic. Every anomaly — truncation,
//! wrong magic, version skew, malformed hex, non-finite floats, semantic
//! inconsistencies like mismatched tensor shapes — becomes a [`PersistError`]
//! carrying the 1-based line number where it was detected.

use std::fmt;
use std::path::Path;

/// Error raised on any save/load path. Crate error types wrap this.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// Filesystem error while reading or writing an artifact.
    Io {
        /// Path being accessed.
        path: String,
        /// Stringified OS error.
        msg: String,
    },
    /// The first line is not the expected magic (and not a recognizable
    /// other version of the same component family).
    BadMagic {
        /// Magic the reader was looking for.
        expected: String,
        /// What the file actually started with.
        found: String,
    },
    /// The magic names the right component family but a different format
    /// version than this build understands.
    VersionSkew {
        /// Magic this build reads.
        expected: String,
        /// Magic found in the file.
        found: String,
    },
    /// The file ended before the component's body was complete.
    Truncated {
        /// Line number (1-based) where more input was expected.
        line: usize,
        /// What the reader was looking for.
        expected: String,
    },
    /// A line was present but malformed (wrong key, bad hex, bad integer).
    Parse {
        /// Line number (1-based) of the offending line.
        line: usize,
        /// Human-readable description.
        msg: String,
    },
    /// A float field decoded to NaN or ±Inf where the model requires a
    /// finite value.
    NonFinite {
        /// Line number (1-based) of the offending line.
        line: usize,
        /// Key of the offending field.
        key: String,
    },
    /// Fields parsed individually but are inconsistent as a whole
    /// (e.g. a weight matrix whose shape contradicts the declared widths).
    Invalid {
        /// Line number (1-based) where the inconsistency was detected.
        line: usize,
        /// Human-readable description.
        msg: String,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io { path, msg } => write!(f, "io error on {path}: {msg}"),
            PersistError::BadMagic { expected, found } => {
                write!(f, "bad magic: expected {expected:?}, found {found:?}")
            }
            PersistError::VersionSkew { expected, found } => write!(
                f,
                "version skew: this build reads {expected:?}, file is {found:?}"
            ),
            PersistError::Truncated { line, expected } => {
                write!(f, "line {line}: truncated artifact, expected {expected}")
            }
            PersistError::Parse { line, msg } => write!(f, "line {line}: {msg}"),
            PersistError::NonFinite { line, key } => {
                write!(f, "line {line}: non-finite value for {key:?}")
            }
            PersistError::Invalid { line, msg } => write!(f, "line {line}: invalid model: {msg}"),
        }
    }
}

impl std::error::Error for PersistError {}

/// Convenience alias used throughout the persistence impls.
pub type Result<T> = std::result::Result<T, PersistError>;

// ---------------------------------------------------------------------------
// hex float codecs
// ---------------------------------------------------------------------------

/// Encodes an `f64` as its 16-hex-digit bit pattern (bit-exact round-trip).
pub fn f64_to_hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// Decodes a 16-hex-digit `f64` bit pattern. Accepts any bits, including
/// NaN/Inf — finiteness is the caller's policy (see [`Reader::kv_finite_f64`]).
pub fn hex_to_f64(s: &str) -> Option<f64> {
    let s = s.trim();
    if s.len() != 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok().map(f64::from_bits)
}

/// Encodes an `f32` as its 8-hex-digit bit pattern.
pub fn f32_to_hex(v: f32) -> String {
    format!("{:08x}", v.to_bits())
}

/// Decodes an 8-hex-digit `f32` bit pattern.
pub fn hex_to_f32(s: &str) -> Option<f32> {
    let s = s.trim();
    if s.len() != 8 {
        return None;
    }
    u32::from_str_radix(s, 16).ok().map(f32::from_bits)
}

// ---------------------------------------------------------------------------
// string escaping
// ---------------------------------------------------------------------------

/// Escapes a string so it fits on a single artifact line.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            other => out.push(other),
        }
    }
    out
}

/// Inverse of [`escape`]. Returns `None` on a dangling or unknown escape.
pub fn unescape(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            _ => return None,
        }
    }
    Some(out)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Builds an artifact string line by line. Writing is infallible — all
/// validation happens on the read side.
#[derive(Debug, Default)]
pub struct Writer {
    buf: String,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one raw line. The caller must not include newlines.
    pub fn line(&mut self, s: &str) {
        self.buf.push_str(s);
        self.buf.push('\n');
    }

    /// Appends `key value` using the value's `Display` (integers, etc.).
    pub fn kv(&mut self, key: &str, value: impl fmt::Display) {
        self.line(&format!("{key} {value}"));
    }

    /// Appends a bool as `key true|false`.
    pub fn kv_bool(&mut self, key: &str, value: bool) {
        self.kv(key, value);
    }

    /// Appends an escaped string value.
    pub fn kv_str(&mut self, key: &str, value: &str) {
        self.line(&format!("{key} {}", escape(value)));
    }

    /// Appends an `f64` as its hex bit pattern.
    pub fn kv_f64(&mut self, key: &str, value: f64) {
        self.line(&format!("{key} {}", f64_to_hex(value)));
    }

    /// Appends an `f32` as its hex bit pattern.
    pub fn kv_f32(&mut self, key: &str, value: f32) {
        self.line(&format!("{key} {}", f32_to_hex(value)));
    }

    /// Appends a space-separated list of `f64` hex bit patterns.
    pub fn kv_f64s(&mut self, key: &str, values: &[f64]) {
        let joined: Vec<String> = values.iter().map(|&v| f64_to_hex(v)).collect();
        self.line(&format!("{key} {}", joined.join(" ")));
    }

    /// Appends a space-separated list of `f32` hex bit patterns.
    pub fn kv_f32s(&mut self, key: &str, values: &[f32]) {
        let joined: Vec<String> = values.iter().map(|&v| f32_to_hex(v)).collect();
        self.line(&format!("{key} {}", joined.join(" ")));
    }

    /// Embeds a child component inline: its magic line, then its body.
    pub fn child<P: Persist>(&mut self, value: &P) {
        value.write_into(self);
    }

    /// Consumes the writer and returns the artifact text.
    pub fn finish(self) -> String {
        self.buf
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Line cursor over an artifact with 1-based line tracking for errors.
#[derive(Debug)]
pub struct Reader<'a> {
    lines: std::str::Lines<'a>,
    peeked: Option<&'a str>,
    line_no: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over the artifact text.
    pub fn new(text: &'a str) -> Self {
        Self { lines: text.lines(), peeked: None, line_no: 0 }
    }

    /// The 1-based number of the last line consumed.
    pub fn line_no(&self) -> usize {
        self.line_no
    }

    /// Builds an [`PersistError::Invalid`] at the current position — used by
    /// readers for semantic validation after fields parse individually.
    pub fn invalid(&self, msg: impl Into<String>) -> PersistError {
        PersistError::Invalid { line: self.line_no, msg: msg.into() }
    }

    fn next_line(&mut self, expected: &str) -> Result<&'a str> {
        match self.peeked.take().or_else(|| self.lines.next()) {
            Some(l) => {
                self.line_no += 1;
                Ok(l)
            }
            None => Err(PersistError::Truncated {
                line: self.line_no + 1,
                expected: expected.to_string(),
            }),
        }
    }

    /// Returns the next line without consuming it — `None` at end of input.
    /// Composite readers use this to dispatch on an embedded child's magic
    /// line (e.g. choosing which backend section follows) before handing the
    /// cursor to that child's `read_from`.
    pub fn peek_line(&mut self) -> Option<&'a str> {
        if self.peeked.is_none() {
            self.peeked = self.lines.next();
        }
        self.peeked
    }

    /// Consumes the magic line, distinguishing version skew (same component
    /// family, different `-vN` suffix) from an outright wrong file.
    pub fn magic(&mut self, expected: &str) -> Result<()> {
        let found = self.next_line(&format!("magic {expected:?}"))?.trim();
        if found == expected {
            return Ok(());
        }
        if family(found).is_some() && family(found) == family(expected) {
            return Err(PersistError::VersionSkew {
                expected: expected.to_string(),
                found: found.to_string(),
            });
        }
        Err(PersistError::BadMagic {
            expected: expected.to_string(),
            found: found.to_string(),
        })
    }

    /// Consumes a `key value` line, returning the raw value text (which may
    /// itself contain spaces).
    pub fn kv(&mut self, key: &str) -> Result<&'a str> {
        let line = self.next_line(&format!("key {key:?}"))?;
        match line.strip_prefix(key) {
            Some(rest) if rest.is_empty() => Ok(""),
            Some(rest) if rest.starts_with(' ') => Ok(&rest[1..]),
            _ => Err(PersistError::Parse {
                line: self.line_no,
                msg: format!("expected key {key:?}, found {line:?}"),
            }),
        }
    }

    fn parse_err(&self, key: &str, raw: &str, what: &str) -> PersistError {
        PersistError::Parse {
            line: self.line_no,
            msg: format!("bad {what} for {key:?}: {raw:?}"),
        }
    }

    /// Reads a `usize` field.
    pub fn kv_usize(&mut self, key: &str) -> Result<usize> {
        let raw = self.kv(key)?;
        raw.trim().parse().map_err(|_| self.parse_err(key, raw, "integer"))
    }

    /// Reads a `u64` field.
    pub fn kv_u64(&mut self, key: &str) -> Result<u64> {
        let raw = self.kv(key)?;
        raw.trim().parse().map_err(|_| self.parse_err(key, raw, "integer"))
    }

    /// Reads a `true`/`false` field.
    pub fn kv_bool(&mut self, key: &str) -> Result<bool> {
        let raw = self.kv(key)?;
        match raw.trim() {
            "true" => Ok(true),
            "false" => Ok(false),
            _ => Err(self.parse_err(key, raw, "bool")),
        }
    }

    /// Reads an escaped string field.
    pub fn kv_str(&mut self, key: &str) -> Result<String> {
        let raw = self.kv(key)?;
        unescape(raw).ok_or_else(|| self.parse_err(key, raw, "escaped string"))
    }

    /// Reads an `f64` hex field. Accepts any bit pattern, including NaN/Inf.
    pub fn kv_f64(&mut self, key: &str) -> Result<f64> {
        let raw = self.kv(key)?;
        hex_to_f64(raw).ok_or_else(|| self.parse_err(key, raw, "f64 hex"))
    }

    /// Reads an `f64` hex field, rejecting NaN/Inf.
    pub fn kv_finite_f64(&mut self, key: &str) -> Result<f64> {
        let v = self.kv_f64(key)?;
        if v.is_finite() {
            Ok(v)
        } else {
            Err(PersistError::NonFinite { line: self.line_no, key: key.to_string() })
        }
    }

    /// Reads an `f32` hex field. Accepts any bit pattern.
    pub fn kv_f32(&mut self, key: &str) -> Result<f32> {
        let raw = self.kv(key)?;
        hex_to_f32(raw).ok_or_else(|| self.parse_err(key, raw, "f32 hex"))
    }

    /// Reads an `f32` hex field, rejecting NaN/Inf.
    pub fn kv_finite_f32(&mut self, key: &str) -> Result<f32> {
        let v = self.kv_f32(key)?;
        if v.is_finite() {
            Ok(v)
        } else {
            Err(PersistError::NonFinite { line: self.line_no, key: key.to_string() })
        }
    }

    /// Reads a list of exactly `expected` finite `f64`s.
    pub fn kv_finite_f64s(&mut self, key: &str, expected: usize) -> Result<Vec<f64>> {
        let raw = self.kv(key)?;
        let line = self.line_no;
        let mut out = Vec::with_capacity(expected);
        for tok in raw.split_whitespace() {
            let v = hex_to_f64(tok)
                .ok_or_else(|| self.parse_err(key, tok, "f64 hex"))?;
            if !v.is_finite() {
                return Err(PersistError::NonFinite { line, key: key.to_string() });
            }
            out.push(v);
        }
        if out.len() != expected {
            return Err(PersistError::Parse {
                line,
                msg: format!("{key:?}: expected {expected} values, found {}", out.len()),
            });
        }
        Ok(out)
    }

    /// Reads a list of exactly `expected` finite `f32`s.
    pub fn kv_finite_f32s(&mut self, key: &str, expected: usize) -> Result<Vec<f32>> {
        let raw = self.kv(key)?;
        let line = self.line_no;
        let mut out = Vec::with_capacity(expected);
        for tok in raw.split_whitespace() {
            let v = hex_to_f32(tok)
                .ok_or_else(|| self.parse_err(key, tok, "f32 hex"))?;
            if !v.is_finite() {
                return Err(PersistError::NonFinite { line, key: key.to_string() });
            }
            out.push(v);
        }
        if out.len() != expected {
            return Err(PersistError::Parse {
                line,
                msg: format!("{key:?}: expected {expected} values, found {}", out.len()),
            });
        }
        Ok(out)
    }

    /// Reads an embedded child component (magic line + body).
    pub fn child<P: Persist>(&mut self) -> Result<P> {
        P::read_from(self)
    }

    /// Asserts the artifact has no trailing non-empty content. Only called at
    /// the top level — children share the cursor with their parent.
    pub fn expect_eof(&mut self) -> Result<()> {
        while let Some(l) = self.peeked.take().or_else(|| self.lines.next()) {
            self.line_no += 1;
            if !l.trim().is_empty() {
                return Err(PersistError::Parse {
                    line: self.line_no,
                    msg: format!("trailing content after artifact: {l:?}"),
                });
            }
        }
        Ok(())
    }
}

/// `"serd-gan-v1"` → `Some("serd-gan")` when the suffix is `-v<digits>`.
/// Public so composite readers can classify a peeked magic line by component
/// family when dispatching between alternative child sections.
pub fn family(magic: &str) -> Option<&str> {
    let idx = magic.rfind("-v")?;
    let digits = &magic[idx + 2..];
    if !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()) {
        Some(&magic[..idx])
    } else {
        None
    }
}

// ---------------------------------------------------------------------------
// Persist trait
// ---------------------------------------------------------------------------

/// A learned component that can be written to / read from the versioned
/// line-oriented artifact format.
///
/// Implementors provide the magic line and body codecs; the trait supplies
/// string and file round-trips. `read_body` must never panic — all
/// corruption becomes a [`PersistError`].
pub trait Persist: Sized {
    /// Magic line identifying the component family and format version,
    /// e.g. `"serd-gan-v1"`.
    const MAGIC: &'static str;

    /// Writes the body (everything after the magic line).
    fn write_body(&self, w: &mut Writer);

    /// Reads the body (the magic line has already been consumed).
    fn read_body(r: &mut Reader<'_>) -> Result<Self>;

    /// Writes magic + body into an existing writer (child embedding).
    fn write_into(&self, w: &mut Writer) {
        w.line(Self::MAGIC);
        self.write_body(w);
    }

    /// Reads magic + body from a shared cursor (child embedding).
    fn read_from(r: &mut Reader<'_>) -> Result<Self> {
        r.magic(Self::MAGIC)?;
        Self::read_body(r)
    }

    /// Serializes this component as a standalone artifact.
    fn to_persist_string(&self) -> String {
        let mut w = Writer::new();
        self.write_into(&mut w);
        w.finish()
    }

    /// Parses a standalone artifact, rejecting trailing content.
    fn from_persist_str(text: &str) -> Result<Self> {
        let mut r = Reader::new(text);
        let value = Self::read_from(&mut r)?;
        r.expect_eof()?;
        Ok(value)
    }

    /// Saves the artifact to a file.
    fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        let path = path.as_ref();
        std::fs::write(path, self.to_persist_string()).map_err(|e| PersistError::Io {
            path: path.display().to_string(),
            msg: e.to_string(),
        })
    }

    /// Loads an artifact from a file.
    fn load(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| PersistError::Io {
            path: path.display().to_string(),
            msg: e.to_string(),
        })?;
        Self::from_persist_str(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct Demo {
        n: usize,
        x: f64,
        name: String,
        ws: Vec<f32>,
    }

    impl Persist for Demo {
        const MAGIC: &'static str = "serd-demo-v1";
        fn write_body(&self, w: &mut Writer) {
            w.kv("n", self.n);
            w.kv_f64("x", self.x);
            w.kv_str("name", &self.name);
            w.kv("ws", self.ws.len());
            w.kv_f32s("w", &self.ws);
        }
        fn read_body(r: &mut Reader<'_>) -> Result<Self> {
            let n = r.kv_usize("n")?;
            let x = r.kv_finite_f64("x")?;
            let name = r.kv_str("name")?;
            let k = r.kv_usize("ws")?;
            if k > 1 << 20 {
                return Err(r.invalid("implausible ws count"));
            }
            let ws = r.kv_finite_f32s("w", k)?;
            Ok(Demo { n, x, name, ws })
        }
    }

    fn demo() -> Demo {
        Demo {
            n: 7,
            x: -0.0,
            name: "line one\nline \\ two\r".into(),
            ws: vec![1.5, -2.25e-30, 0.0],
        }
    }

    #[test]
    fn roundtrip_bitexact() {
        let d = demo();
        let text = d.to_persist_string();
        let back = Demo::from_persist_str(&text).unwrap();
        assert_eq!(back, d);
        assert_eq!(back.x.to_bits(), d.x.to_bits());
    }

    #[test]
    fn nested_children_share_cursor() {
        #[derive(Debug, PartialEq)]
        struct Pair(Demo, Demo);
        impl Persist for Pair {
            const MAGIC: &'static str = "serd-pair-v1";
            fn write_body(&self, w: &mut Writer) {
                w.child(&self.0);
                w.child(&self.1);
            }
            fn read_body(r: &mut Reader<'_>) -> Result<Self> {
                Ok(Pair(r.child()?, r.child()?))
            }
        }
        let p = Pair(demo(), Demo { n: 0, x: 1.0, name: String::new(), ws: vec![] });
        let back = Pair::from_persist_str(&p.to_persist_string()).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn wrong_magic_is_bad_magic() {
        let err = Demo::from_persist_str("serd-other-v1\n").unwrap_err();
        assert!(matches!(err, PersistError::BadMagic { .. }), "{err:?}");
    }

    #[test]
    fn version_skew_is_detected() {
        let err = Demo::from_persist_str("serd-demo-v9\n").unwrap_err();
        assert!(matches!(err, PersistError::VersionSkew { .. }), "{err:?}");
    }

    #[test]
    fn truncation_is_reported_with_line() {
        let full = demo().to_persist_string();
        let cut: String = full.lines().take(2).map(|l| format!("{l}\n")).collect();
        let err = Demo::from_persist_str(&cut).unwrap_err();
        assert!(matches!(err, PersistError::Truncated { .. }), "{err:?}");
    }

    #[test]
    fn nan_is_rejected_where_finite_required() {
        let text = format!(
            "serd-demo-v1\nn 1\nx {}\nname a\nws 0\nw \n",
            f64_to_hex(f64::NAN)
        );
        let err = Demo::from_persist_str(&text).unwrap_err();
        assert!(matches!(err, PersistError::NonFinite { .. }), "{err:?}");
    }

    #[test]
    fn trailing_content_is_rejected() {
        let mut text = demo().to_persist_string();
        text.push_str("extra junk\n");
        let err = Demo::from_persist_str(&text).unwrap_err();
        assert!(matches!(err, PersistError::Parse { .. }), "{err:?}");
    }

    #[test]
    fn escape_roundtrip() {
        for s in ["", "plain", "a\\b", "x\ny", "\r\n\\", "\\n literal"] {
            assert_eq!(unescape(&escape(s)).as_deref(), Some(s));
        }
        assert_eq!(unescape("dangling\\"), None);
        assert_eq!(unescape("bad\\q"), None);
    }

    #[test]
    fn hex_edge_cases() {
        for v in [0.0f64, -0.0, f64::MIN_POSITIVE, f64::MAX, 1e-310] {
            assert_eq!(hex_to_f64(&f64_to_hex(v)).unwrap().to_bits(), v.to_bits());
        }
        assert_eq!(hex_to_f64("zz"), None);
        assert_eq!(hex_to_f64("0123"), None); // wrong width
        for v in [0.0f32, -0.0, f32::MAX, 1e-44] {
            assert_eq!(hex_to_f32(&f32_to_hex(v)).unwrap().to_bits(), v.to_bits());
        }
    }

    #[test]
    fn peek_line_does_not_consume() {
        let d = demo();
        let text = d.to_persist_string();
        let mut r = Reader::new(&text);
        assert_eq!(r.peek_line(), Some(Demo::MAGIC));
        assert_eq!(r.peek_line(), Some(Demo::MAGIC)); // idempotent
        assert_eq!(r.line_no(), 0); // nothing consumed yet
        let back = Demo::read_from(&mut r).unwrap();
        assert_eq!(back, d);
        assert_eq!(r.peek_line(), None);
        r.expect_eof().unwrap();
    }

    #[test]
    fn family_strips_version_suffix() {
        assert_eq!(family("serd-gan-v1"), Some("serd-gan"));
        assert_eq!(family("serd-marginals-v12"), Some("serd-marginals"));
        assert_eq!(family("serd-gan"), None);
        assert_eq!(family("serd-gan-vx"), None);
    }

    #[test]
    fn empty_value_lines_parse() {
        // A key with an empty value (e.g. empty float list) must round-trip.
        let d = Demo { n: 0, x: 0.0, name: String::new(), ws: vec![] };
        assert_eq!(Demo::from_persist_str(&d.to_persist_string()).unwrap(), d);
    }
}
