//! q-gram blocking: candidate pair generation without the full cross product.
//!
//! Walmart-Amazon-scale tables (2.5k x 22k) make exhaustive pair enumeration
//! expensive. Blocking indexes entities by the q-grams of their first text
//! column and only pairs entities that share at least one gram, capping the
//! bucket fan-out so stop-gram buckets ("the", "and") don't explode.

use crate::simcache::{ProfileCache, RecordProfile};
use crate::{ColumnType, Relation, Schema};
use similarity::block_gram_hashes;
use std::collections::{HashMap, HashSet};

/// Gram length the pipeline blocks at (and profile caches precompute
/// blocking keys for).
pub const DEFAULT_BLOCK_Q: usize = 3;

/// Number of shards the hashed q-gram index is partitioned into
/// (`SERD_BLOCK_SHARDS`; defaults to the worker-pool width so single-core
/// runs pay no partitioning overhead). The candidate set is invariant to the
/// shard count — each gram hash belongs to exactly one shard, shards build
/// the same per-gram buckets the monolithic index would, and the per-shard
/// joins are merged in deterministic shard order then globally sorted — so
/// this is purely a parallelism/memory knob (DESIGN.md §13).
pub fn shard_count() -> usize {
    std::env::var("SERD_BLOCK_SHARDS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(parallel::num_threads)
        .max(1)
}

/// Joins two single-side blocking indexes into sorted, deduplicated pairs
/// (sorted so candidate order doesn't leak hash-iteration order).
fn join_indexes(
    ia: &HashMap<u64, Vec<usize>>,
    ib: &HashMap<u64, Vec<usize>>,
) -> Vec<(usize, usize)> {
    let mut seen: HashSet<(usize, usize)> = HashSet::new();
    for (k, ids_a) in ia {
        if let Some(ids_b) = ib.get(k) {
            for &i in ids_a {
                for &j in ids_b {
                    seen.insert((i, j));
                }
            }
        }
    }
    let mut out: Vec<(usize, usize)> = seen.into_iter().collect();
    out.sort_unstable();
    out
}

/// Returns candidate `(i, j)` pairs of entities that share at least one
/// character q-gram on the blocking column (the first `Text` column; falls
/// back to the first column if no text column exists).
///
/// `max_bucket` caps the number of entities per gram bucket on each side;
/// larger buckets are truncated (standard blocking practice — ubiquitous
/// grams carry no signal). The index is sharded by `gram_hash % S` (see
/// [`shard_count`]); the candidate set is bit-identical at any shard or
/// thread count.
pub fn candidate_pairs(
    a: &Relation,
    b: &Relation,
    q: usize,
    max_bucket: usize,
) -> Vec<(usize, usize)> {
    candidate_pairs_sharded(a, b, q, max_bucket, shard_count())
}

/// [`candidate_pairs`] with an explicit shard count (`shards = 1` is the
/// monolithic single-index reference the equivalence tests pin against).
pub fn candidate_pairs_sharded(
    a: &Relation,
    b: &Relation,
    q: usize,
    max_bucket: usize,
    shards: usize,
) -> Vec<(usize, usize)> {
    let _span = obs::span("blocking");
    let col = blocking_column(a);
    let grams_a = relation_grams(a, col, q);
    let grams_b = relation_grams(b, col, q);
    let out = sharded_join(&grams_a, &grams_b, max_bucket, shards);
    report_qgram(a, b, &out);
    out
}

/// [`candidate_pairs`] over a dataset's [`ProfileCache`]: the cache's
/// precomputed blocking keys (or, at a non-default `q`, the cached lowercase
/// strings) replace the per-record tokenization. A budgeted cache routes to
/// the relation-based path (same candidate set, recomputed grams).
pub fn candidate_pairs_cached(
    a: &Relation,
    b: &Relation,
    cache: &ProfileCache,
    q: usize,
    max_bucket: usize,
) -> Vec<(usize, usize)> {
    if !cache.fully_resident() {
        return candidate_pairs(a, b, q, max_bucket);
    }
    let _span = obs::span("blocking");
    let col = blocking_column(a);
    let grams_a = profiled_grams(cache.a(), col, q);
    let grams_b = profiled_grams(cache.b(), col, q);
    let out = sharded_join(&grams_a, &grams_b, max_bucket, shard_count());
    report_qgram(a, b, &out);
    out
}

/// [`candidate_pairs`] over already-profiled record slices (the synthesis
/// loop's S3 labeling pass, where the records were profiled one by one as
/// they were accepted).
pub fn candidate_pairs_profiled(
    a: &Relation,
    b: &Relation,
    aprofs: &[RecordProfile],
    bprofs: &[RecordProfile],
    q: usize,
    max_bucket: usize,
) -> Vec<(usize, usize)> {
    let _span = obs::span("blocking");
    let grams_a = profiled_grams(aprofs, blocking_column(a), q);
    let grams_b = profiled_grams(bprofs, blocking_column(a), q);
    let out = sharded_join(&grams_a, &grams_b, max_bucket, shard_count());
    report_qgram(a, b, &out);
    out
}

fn report_qgram(a: &Relation, b: &Relation, out: &[(usize, usize)]) {
    if obs::enabled() {
        obs::counter("candidates.qgram", out.len() as u64);
        let cross = (a.len() as f64) * (b.len() as f64);
        if cross > 0.0 {
            obs::gauge("reduction_ratio.qgram", 1.0 - out.len() as f64 / cross);
        }
    }
}

/// The index of the column used for blocking.
pub fn blocking_column(r: &Relation) -> usize {
    blocking_column_of(r.schema())
}

/// [`blocking_column`] from a schema alone.
pub fn blocking_column_of(schema: &Schema) -> usize {
    schema
        .columns()
        .iter()
        .position(|c| c.ctype == ColumnType::Text)
        .unwrap_or(0)
}

/// Per-record sorted-unique FNV-1a gram hashes of one relation's blocking
/// column, computed in parallel (records with no string value get no grams).
/// Keying on `u64` hashes instead of owned gram `String`s removes the
/// per-gram allocations; the candidate set is unchanged unless two distinct
/// grams collide in 64 bits (probability ~ g²/2⁶⁵ corpus-wide, DESIGN.md §10).
fn relation_grams(r: &Relation, col: usize, q: usize) -> Vec<Vec<u64>> {
    let ids: Vec<usize> = (0..r.len()).collect();
    parallel::par_map(&ids, |&i| match r.entity(i).value(col).as_str() {
        Some(s) => block_gram_hashes(&s.to_lowercase(), q),
        None => Vec::new(),
    })
}

/// [`relation_grams`] over profiled records: reuses each profile's
/// precomputed blocking keys when they were built at this `q`, and its
/// cached lowercase string otherwise.
fn profiled_grams(profs: &[RecordProfile], col: usize, q: usize) -> Vec<Vec<u64>> {
    profs
        .iter()
        .map(|rp| match rp.col(col) {
            Some(p) => match p.block_grams_at(q) {
                Some(grams) => grams.to_vec(),
                None => block_gram_hashes(p.lower(), q),
            },
            None => Vec::new(),
        })
        .collect()
}

/// One shard of a side's blocking index: only grams with
/// `hash % shards == shard`. Record ids arrive in increasing order, so
/// per-gram buckets are identical to the monolithic index's — the bucket
/// cap truncates the same ids no matter how grams are partitioned.
fn shard_index(
    grams: &[Vec<u64>],
    shard: u64,
    shards: u64,
    max_bucket: usize,
) -> HashMap<u64, Vec<usize>> {
    let mut index: HashMap<u64, Vec<usize>> = HashMap::new();
    for (id, gs) in grams.iter().enumerate() {
        for &g in gs {
            if g % shards != shard {
                continue;
            }
            let bucket = index.entry(g).or_default();
            // Grams are deduplicated per record, so the `last != id` guard
            // only defends against misuse.
            if bucket.len() < max_bucket && bucket.last() != Some(&id) {
                bucket.push(id);
            }
        }
    }
    index
}

/// Builds both sides' shards in parallel (`par_map` keeps shard order
/// deterministic), joins shard-by-shard, and merges: every gram lives in
/// exactly one shard, so the union of per-shard joins equals the monolithic
/// join, and the final global sort + dedup makes the output independent of
/// shard count, thread count, and hash-iteration order.
fn sharded_join(
    grams_a: &[Vec<u64>],
    grams_b: &[Vec<u64>],
    max_bucket: usize,
    shards: usize,
) -> Vec<(usize, usize)> {
    let shards = shards.max(1) as u64;
    if obs::enabled() {
        obs::gauge("blocking.shards", shards as f64);
    }
    let shard_ids: Vec<u64> = (0..shards).collect();
    let per_shard: Vec<Vec<(usize, usize)>> = parallel::par_map(&shard_ids, |&s| {
        let ia = shard_index(grams_a, s, shards, max_bucket);
        let ib = shard_index(grams_b, s, shards, max_bucket);
        join_indexes(&ia, &ib)
    });
    // A pair can surface from several shards (one per shared gram): dedup
    // across shards, then sort for a canonical order.
    let seen: HashSet<(usize, usize)> = per_shard.into_iter().flatten().collect();
    let mut out: Vec<(usize, usize)> = seen.into_iter().collect();
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Column, Schema, Value};

    fn rel(names: &[&str]) -> Relation {
        let schema = Schema::new(vec![Column::text("title")]);
        let mut r = Relation::new("t", schema);
        for n in names {
            r.push(vec![Value::Text((*n).to_string())]).unwrap();
        }
        r
    }

    #[test]
    fn similar_titles_are_candidates() {
        let a = rel(&["adaptable query optimization", "zzzz completely unrelated"]);
        let b = rel(&["adaptable query evaluation", "something else entirely"]);
        let pairs = candidate_pairs(&a, &b, 3, 10);
        assert!(pairs.contains(&(0, 0)));
    }

    #[test]
    fn disjoint_strings_are_not_candidates() {
        let a = rel(&["aaaaaa"]);
        let b = rel(&["zzzzzz"]);
        let pairs = candidate_pairs(&a, &b, 3, 10);
        assert!(pairs.is_empty());
    }

    #[test]
    fn bucket_cap_limits_fanout() {
        // 30 identical entities on each side, bucket cap 5 -> at most 25 pairs.
        let names: Vec<&str> = std::iter::repeat("same title here").take(30).collect();
        let a = rel(&names);
        let b = rel(&names);
        let pairs = candidate_pairs(&a, &b, 3, 5);
        assert!(pairs.len() <= 25);
        assert!(!pairs.is_empty());
    }

    #[test]
    fn blocking_column_prefers_text() {
        let schema = Schema::new(vec![Column::numeric("year", 1.0), Column::text("title")]);
        let r = Relation::new("t", schema);
        assert_eq!(blocking_column(&r), 1);
    }

    #[test]
    fn cached_blocking_matches_uncached() {
        let a = rel(&["adaptable query optimization", "zzzz completely unrelated", "ab"]);
        let b = rel(&["adaptable query evaluation", "query processing things", "ab"]);
        let cache = crate::simcache::ProfileCache::build(&a, &b, 3);
        assert_eq!(
            candidate_pairs(&a, &b, 3, 10),
            candidate_pairs_cached(&a, &b, &cache, 3, 10)
        );
        // A q the cache didn't precompute falls back to the cached
        // lowercase strings — still the same candidates.
        assert_eq!(
            candidate_pairs(&a, &b, 2, 10),
            candidate_pairs_cached(&a, &b, &cache, 2, 10)
        );
    }

    #[test]
    fn sharded_candidates_match_unsharded_at_any_shard_count() {
        let a = rel(&[
            "adaptable query optimization",
            "zzzz completely unrelated",
            "generalised hash teams",
            "ab",
            "",
        ]);
        let b = rel(&[
            "adaptable query evaluation",
            "query processing things",
            "generalized hash teams",
            "ab",
        ]);
        let reference = candidate_pairs_sharded(&a, &b, 3, 10, 1);
        for shards in [2, 3, 7, 16, 64] {
            assert_eq!(
                candidate_pairs_sharded(&a, &b, 3, 10, shards),
                reference,
                "shards = {shards}"
            );
        }
        // The bucket cap truncates identically through shards.
        let names: Vec<&str> = std::iter::repeat("same title here").take(30).collect();
        let big_a = rel(&names);
        let big_b = rel(&names);
        let capped = candidate_pairs_sharded(&big_a, &big_b, 3, 5, 1);
        for shards in [2, 8] {
            assert_eq!(candidate_pairs_sharded(&big_a, &big_b, 3, 5, shards), capped);
        }
    }

    #[test]
    fn budgeted_cache_blocking_falls_back_to_relations() {
        let a = rel(&["adaptable query optimization", "zzzz completely unrelated", "ab"]);
        let b = rel(&["adaptable query evaluation", "query processing things", "ab"]);
        // Budget 1 < 6 records: the cache is not fully resident.
        let cache = crate::simcache::ProfileCache::build_with_budget(&a, &b, 3, Some(1));
        assert!(!cache.fully_resident());
        assert_eq!(
            candidate_pairs(&a, &b, 3, 10),
            candidate_pairs_cached(&a, &b, &cache, 3, 10)
        );
    }

    #[test]
    fn short_values_block_on_whole_string() {
        let a = rel(&["ab"]);
        let b = rel(&["ab", "cd"]);
        let pairs = candidate_pairs(&a, &b, 3, 10);
        assert_eq!(pairs, vec![(0, 0)]);
    }
}
