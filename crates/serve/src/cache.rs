//! Hot-swappable artifact cache.
//!
//! The unit of sharing is the parsed model. Each [`ArtifactBlob`] holds the
//! one `SerdSynthesizer` parsed from its artifact version behind an `Arc`,
//! and every worker synthesizes from that same instance by shared reference:
//! the model is `Send + Sync` and inference only reads its weights, so a
//! version is parsed once, not once per worker.
//! Requests never mutate the model (each derives its own RNG from its seed),
//! so "which worker answered" can never show through in a response.
//!
//! Hot swap: [`ArtifactCache::get`] stats the backing file on every request
//! and compares a `(mtime, len)` stamp. On change it re-reads and re-parses
//! *outside* the lock, then publishes the new blob with a single `Arc` swap
//! and a bumped version counter. In-flight requests keep their old `Arc` and
//! finish on the model they started with; a reload that fails to parse keeps
//! serving the previous version (counted in `failed_swaps`). Publishers
//! should write a fresh file and `rename(2)` it over the old one so readers
//! never observe a half-written artifact.

use serd::api::ApiError;
use serd::{Persist, SerdModel, SerdSynthesizer};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::SystemTime;

/// Change-detection stamp for an artifact file.
///
/// `mtime` is `None` when the filesystem can't report one (or reports the
/// Unix epoch, the classic "no mtime" placeholder). Freshness then falls
/// back to comparing an FNV-1a hash of the file's bytes instead of
/// degrading to length-only — a same-length republish used to slip past the
/// old `(UNIX_EPOCH, len)` stamp unnoticed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileStamp {
    /// Modification time reported by the filesystem, if it reports one.
    pub mtime: Option<SystemTime>,
    /// File length in bytes.
    pub len: u64,
}

impl FileStamp {
    fn of(path: &Path) -> Result<FileStamp, ApiError> {
        let meta = std::fs::metadata(path)
            .map_err(|e| ApiError::Io(format!("stat {}: {e}", path.display())))?;
        Ok(FileStamp {
            mtime: meta.modified().ok().filter(|&t| t != SystemTime::UNIX_EPOCH),
            len: meta.len(),
        })
    }

    /// True when both stamps carry a trustworthy mtime and agree entirely —
    /// the stat-only fresh fast path. Anything else needs a content check.
    fn same_mtime_and_len(&self, other: &FileStamp) -> bool {
        self.len == other.len && self.mtime.is_some() && self.mtime == other.mtime
    }
}

/// FNV-1a over a byte slice — the artifact content-hash component of the
/// change-detection stamp and the etag.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One loaded artifact version: the parsed model plus its identity.
/// Immutable once published; hot swaps replace the whole blob.
pub struct ArtifactBlob {
    /// Model name (file stem under the models directory).
    pub name: String,
    /// Monotonic per-name version, starting at 1 and bumped on every swap.
    pub version: u64,
    /// Opaque cache validator exposed as the `X-Model-Etag` response header.
    pub etag: String,
    /// The model parsed from this version's artifact, shared by every
    /// worker.
    pub synth: SerdSynthesizer,
    /// The stamp the artifact was read under (stale iff the file's differs).
    pub stamp: FileStamp,
    /// FNV-1a hash of the artifact bytes — the change detector of last
    /// resort when the filesystem's mtime is unavailable or untrustworthy.
    pub content_fnv: u64,
}

/// The server-wide artifact registry: name → current [`ArtifactBlob`].
pub struct ArtifactCache {
    dir: PathBuf,
    entries: RwLock<HashMap<String, Arc<ArtifactBlob>>>,
    swaps: AtomicU64,
    failed_swaps: AtomicU64,
}

/// A model name is a bare file stem: no separators, no dotfiles, no traversal.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 96
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
}

impl ArtifactCache {
    /// A cache over `dir`, which must exist and hold `<name>.serd` files.
    pub fn new(dir: impl Into<PathBuf>) -> Result<ArtifactCache, ApiError> {
        let dir = dir.into();
        if !dir.is_dir() {
            return Err(ApiError::NotFound(format!(
                "models directory {}",
                dir.display()
            )));
        }
        Ok(ArtifactCache {
            dir,
            entries: RwLock::new(HashMap::new()),
            swaps: AtomicU64::new(0),
            failed_swaps: AtomicU64::new(0),
        })
    }

    /// The directory this cache resolves names in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Completed hot swaps (version bumps after the initial load).
    pub fn swaps(&self) -> u64 {
        self.swaps.load(Ordering::Relaxed)
    }

    /// Reloads that failed and fell back to the previous version.
    pub fn failed_swaps(&self) -> u64 {
        self.failed_swaps.load(Ordering::Relaxed)
    }

    /// Number of model names currently loaded.
    pub fn loaded(&self) -> usize {
        self.entries.read().unwrap().len()
    }

    /// Loaded-model count per tabular backend, as sorted
    /// `(backend name, count)` pairs (only backends with ≥1 model appear).
    pub fn backend_counts(&self) -> Vec<(&'static str, usize)> {
        let mut counts: std::collections::BTreeMap<&'static str, usize> =
            std::collections::BTreeMap::new();
        for blob in self.entries.read().unwrap().values() {
            *counts
                .entry(blob.synth.model().backend.kind().name())
                .or_insert(0) += 1;
        }
        counts.into_iter().collect()
    }

    /// Model names available on disk (sorted), loaded or not.
    pub fn list_names(&self) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(&self.dir)
            .into_iter()
            .flatten()
            .flatten()
            .filter_map(|entry| {
                let path = entry.path();
                let stem = path.file_stem()?.to_str()?.to_string();
                (path.extension()?.to_str()? == "serd" && valid_name(&stem)).then_some(stem)
            })
            .collect();
        names.sort();
        names
    }

    /// The current blob for `name`, reloading first if the backing file's
    /// stamp changed. The hot path (no change) is one `stat` plus a read
    /// lock; the reload path parses outside any lock, so concurrent
    /// requests keep being served the old version until the new one is
    /// published atomically.
    pub fn get(&self, name: &str) -> Result<Arc<ArtifactBlob>, ApiError> {
        if !valid_name(name) {
            return Err(ApiError::BadRequest(format!("invalid model name {name:?}")));
        }
        let path = self.dir.join(format!("{name}.serd"));
        let stamp = match FileStamp::of(&path) {
            Ok(s) => s,
            Err(_) => {
                return Err(ApiError::NotFound(format!("model {name:?}")));
            }
        };
        let cached = self.entries.read().unwrap().get(name).cloned();
        let mut pre_read = None;
        if let Some(blob) = &cached {
            if blob.stamp.same_mtime_and_len(&stamp) {
                return Ok(Arc::clone(blob));
            }
            if blob.stamp.len == stamp.len
                && (blob.stamp.mtime.is_none() || stamp.mtime.is_none())
            {
                // Same length but no trustworthy mtime on one side: only the
                // bytes can tell. A matching content hash is fresh; a
                // mismatch is a same-length republish — reuse the read.
                match std::fs::read_to_string(&path) {
                    Ok(text) => {
                        if fnv1a64(text.as_bytes()) == blob.content_fnv {
                            return Ok(Arc::clone(blob));
                        }
                        pre_read = Some(text);
                    }
                    Err(e) => {
                        let err = ApiError::Io(format!("read {}: {e}", path.display()));
                        return self.stale_fallback(name, err);
                    }
                }
            }
        }
        match self.load_blob(name, &path, stamp, pre_read) {
            Ok(blob) => Ok(blob),
            Err(err) => self.stale_fallback(name, err),
        }
    }

    fn load_blob(
        &self,
        name: &str,
        path: &Path,
        stamp: FileStamp,
        pre_read: Option<String>,
    ) -> Result<Arc<ArtifactBlob>, ApiError> {
        let text = match pre_read {
            Some(text) => text,
            None => std::fs::read_to_string(path)
                .map_err(|e| ApiError::Io(format!("read {}: {e}", path.display())))?,
        };
        let content_fnv = fnv1a64(text.as_bytes());
        let model = SerdModel::from_persist_str(&text).map_err(ApiError::from)?;

        let mut map = self.entries.write().unwrap();
        if let Some(existing) = map.get(name) {
            // Another thread won the reload race while we were parsing (the
            // content hash keeps two same-stamp-different-bytes loads, which
            // only degraded filesystems can produce, from deduplicating).
            if existing.stamp == stamp && existing.content_fnv == content_fnv {
                return Ok(Arc::clone(existing));
            }
        }
        let version = map.get(name).map(|b| b.version + 1).unwrap_or(1);
        let blob = Arc::new(ArtifactBlob {
            name: name.to_string(),
            version,
            etag: format!("{name}.v{version}.{}.{content_fnv:016x}", stamp.len),
            synth: SerdSynthesizer::from_model(model),
            stamp,
            content_fnv,
        });
        if map.insert(name.to_string(), Arc::clone(&blob)).is_some() {
            self.swaps.fetch_add(1, Ordering::Relaxed);
            obs::counter("serve.swaps", 1);
        }
        Ok(blob)
    }

    fn stale_fallback(
        &self,
        name: &str,
        err: ApiError,
    ) -> Result<Arc<ArtifactBlob>, ApiError> {
        if let Some(old) = self.entries.read().unwrap().get(name) {
            self.failed_swaps.fetch_add(1, Ordering::Relaxed);
            obs::counter("serve.failed_swaps", 1);
            obs::diag(&format!(
                "model {name:?}: reload failed ({err}); still serving version {}",
                old.version
            ));
            return Ok(Arc::clone(old));
        }
        Err(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_validation_blocks_traversal() {
        assert!(valid_name("restaurant"));
        assert!(valid_name("cora_v2-final"));
        assert!(!valid_name(""));
        assert!(!valid_name("../etc/passwd"));
        assert!(!valid_name("a/b"));
        assert!(!valid_name("a.b"));
        assert!(!valid_name(&"x".repeat(97)));
    }

    #[test]
    fn missing_dir_is_not_found() {
        let err = ArtifactCache::new("/nonexistent-models-dir").err().unwrap();
        assert!(matches!(err, ApiError::NotFound(_)), "{err}");
    }

    #[test]
    fn stamp_treats_epoch_mtime_as_unavailable() {
        let dir = std::env::temp_dir().join(format!("serd_stamp_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artifact.bin");
        std::fs::write(&path, "hello").unwrap();
        let fresh = FileStamp::of(&path).unwrap();
        assert_eq!(fresh.len, 5);
        assert!(fresh.mtime.is_some());
        assert!(fresh.same_mtime_and_len(&fresh));

        // A reported epoch mtime is the "modified() failed" placeholder:
        // it must never satisfy the stat-only fast path, even against
        // itself — same-length republishes fall through to the hash check.
        std::fs::File::options()
            .write(true)
            .open(&path)
            .unwrap()
            .set_modified(SystemTime::UNIX_EPOCH)
            .unwrap();
        let degraded = FileStamp::of(&path).unwrap();
        assert!(degraded.mtime.is_none());
        assert!(!degraded.same_mtime_and_len(&degraded));
        assert!(!degraded.same_mtime_and_len(&fresh));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn content_hash_is_stable_and_discriminating() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"abc"), fnv1a64(b"abc"));
        // Same length, different bytes — the case (mtime, len) can't see.
        assert_ne!(fnv1a64(b"abc"), fnv1a64(b"abd"));
    }
}
