//! A single relation (the extension of one predicate), stored as a
//! contiguous arena of interned code rows.
//!
//! Tuples live in one arity-strided `Vec<Code>` — four bytes per column,
//! no per-tuple boxing — and every auxiliary structure stores *positions*
//! into that arena. Deduplication and index lookups go through 64-bit
//! [`crate::hash`] hashes of rows/keys; hash collisions are tolerated by
//! verifying every candidate position against the arena before believing
//! a hit, so probes allocate nothing and are still exact.
//!
//! Iteration order is insertion order — the engine's deterministic merge
//! and the semi-naive delta windows both depend on it. `remove` uses
//! swap-remove (the last row fills the hole) and invalidates secondary
//! indexes by bumping the relation's *generation*; stale index entries are
//! retained (their bucket allocations are reused) and rebuilt lazily by
//! the next [`Relation::ensure_index`]. Inserts keep current-generation
//! indexes maintained incrementally, so an arena that only ever grows —
//! the common case for restart states cloned from an indexed database —
//! never rebuilds an index it already has.
//!
//! A probe whose mask binds *every* column is a point lookup, and the
//! row-hash map that deduplication keeps is exactly the index it needs:
//! the key hash of a full mask is the row hash. Full masks are therefore
//! always indexed — [`Relation::index_bucket`] answers from the row-hash
//! buckets, [`Relation::has_index`] is `true`, and
//! [`Relation::ensure_index`] builds nothing — so no full-mask secondary
//! index ever exists.

use crate::hash::{hash_codes, hash_row, FxHashMap};
use crate::value::Code;

/// A set of bound columns, as a bitmask over the first
/// [`ColumnMask::WIDTH`] columns. Wider relations still work: a planner
/// keys its probes on the columns a mask can hold and checks the rest row
/// by row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ColumnMask(u32);

impl ColumnMask {
    /// The empty mask (no columns bound).
    pub const EMPTY: ColumnMask = ColumnMask(0);

    /// The number of columns a mask can hold: columns `0..WIDTH`.
    pub const WIDTH: usize = 32;

    /// Build a mask from column positions, each below [`ColumnMask::WIDTH`].
    pub fn from_cols(cols: impl IntoIterator<Item = usize>) -> Self {
        let mut m = 0u32;
        for c in cols {
            assert!(
                c < Self::WIDTH,
                "column index {c} out of range for ColumnMask"
            );
            m |= 1 << c;
        }
        ColumnMask(m)
    }

    /// True if column `i` is in the mask.
    pub fn contains(self, i: usize) -> bool {
        i < Self::WIDTH && self.0 & (1 << i) != 0
    }

    /// True if no column is bound.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of bound columns.
    pub fn count(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Iterate over bound column positions in ascending order.
    pub fn cols(self) -> impl Iterator<Item = usize> {
        (0..Self::WIDTH).filter(move |&i| self.0 & (1 << i) != 0)
    }

    /// True if the mask binds exactly the columns `0..arity` — every
    /// column of a relation of that arity (the empty mask for arity 0).
    pub fn covers_all(self, arity: usize) -> bool {
        match arity {
            0..=31 => self.0 == (1 << arity) - 1,
            32 => self.0 == u32::MAX,
            _ => false,
        }
    }
}

/// Hash the key of `row` under `mask` without materializing it.
#[inline]
fn key_hash_of(mask: ColumnMask, row: &[Code]) -> u64 {
    hash_codes(mask.cols().map(|c| row[c]))
}

/// Positions (arena row indexes) bucketed by a 64-bit hash. Buckets hold
/// candidates in ascending position order; callers verify contents.
type HashBuckets = FxHashMap<u64, Vec<u32>>;

/// One secondary index, tagged with the arena generation it was built at.
/// An entry whose `built_at` lags the relation's current generation is
/// *stale*: unusable for probes, but its bucket allocations are retained
/// and reused by the next rebuild.
#[derive(Debug, Clone, Default)]
struct IndexEntry {
    built_at: u64,
    buckets: HashBuckets,
}

/// The extension of one predicate: a columnar arena of interned rows with
/// hash-verified dedup and secondary indexes.
#[derive(Debug, Clone, Default)]
pub struct Relation {
    arity: usize,
    /// The row arena, `arity` codes per row, insertion order.
    rows: Vec<Code>,
    /// Number of rows (tracked separately so arity-0 relations work).
    count: u32,
    /// Arena generation: bumped by every operation that invalidates
    /// position-based indexes (`remove`'s swap-remove, `clear`). Inserts
    /// never bump it — they maintain current indexes incrementally.
    generation: u64,
    /// Row-hash → candidate positions, for dedup, point containment and
    /// full-mask probes.
    positions: HashBuckets,
    /// Secondary indexes: key-hash → candidate positions per column mask,
    /// each tagged with the generation it reflects.
    indexes: FxHashMap<ColumnMask, IndexEntry>,
}

impl Relation {
    /// An empty relation of the given arity.
    pub fn new(arity: usize) -> Self {
        Relation {
            arity,
            ..Relation::default()
        }
    }

    /// The relation's arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// True if no tuple is stored.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The row at arena position `i` (insertion order).
    #[inline]
    pub fn row(&self, i: u32) -> &[Code] {
        &self.rows[i as usize * self.arity..(i as usize + 1) * self.arity]
    }

    /// All rows in insertion order.
    pub fn rows(&self) -> impl Iterator<Item = &[Code]> + '_ {
        (0..self.count).map(move |i| self.row(i))
    }

    /// True if `row` is present.
    pub fn contains(&self, row: &[Code]) -> bool {
        self.position_of(row).is_some()
    }

    /// The arena position of `row`, if present.
    fn position_of(&self, row: &[Code]) -> Option<u32> {
        debug_assert_eq!(row.len(), self.arity);
        self.positions
            .get(&hash_row(row))?
            .iter()
            .copied()
            .find(|&p| self.row(p) == row)
    }

    /// Insert a row; `false` if it was already present.
    pub fn insert(&mut self, row: &[Code]) -> bool {
        debug_assert_eq!(row.len(), self.arity);
        let h = hash_row(row);
        if let Some(bucket) = self.positions.get(&h) {
            if bucket.iter().any(|&p| self.row(p) == row) {
                return false;
            }
        }
        let pos = self.count;
        assert!(pos != u32::MAX, "relation too large");
        self.rows.extend_from_slice(row);
        self.count += 1;
        self.positions.entry(h).or_default().push(pos);
        for (mask, index) in &mut self.indexes {
            if index.built_at == self.generation {
                index
                    .buckets
                    .entry(key_hash_of(*mask, row))
                    .or_default()
                    .push(pos);
            }
        }
        true
    }

    /// Remove a row; `false` if absent. The last row fills the hole
    /// (swap-remove), and all secondary indexes are invalidated by a
    /// generation bump — their allocations are retained and they rebuild
    /// lazily on the next [`Relation::ensure_index`].
    pub fn remove(&mut self, row: &[Code]) -> bool {
        let Some(pos) = self.position_of(row) else {
            return false;
        };
        let h = hash_row(row);
        let last = self.count - 1;
        // Drop the removed row's position entry.
        let bucket = self.positions.get_mut(&h).expect("present row is bucketed");
        bucket.retain(|&p| p != pos);
        if bucket.is_empty() {
            self.positions.remove(&h);
        }
        if pos != last {
            // Move the last row into the hole and repoint its bucket entry.
            let moved_hash = hash_row(self.row(last));
            let (head, tail) = self.rows.split_at_mut(last as usize * self.arity);
            head[pos as usize * self.arity..(pos as usize + 1) * self.arity]
                .copy_from_slice(&tail[..self.arity]);
            let bucket = self
                .positions
                .get_mut(&moved_hash)
                .expect("moved row is bucketed");
            for p in bucket.iter_mut() {
                if *p == last {
                    *p = pos;
                }
            }
            bucket.sort_unstable();
        }
        self.rows.truncate(last as usize * self.arity);
        self.count = last;
        self.generation += 1;
        true
    }

    /// Remove everything (indexes included).
    pub fn clear(&mut self) {
        self.rows.clear();
        self.count = 0;
        self.generation += 1;
        self.positions.clear();
        self.indexes.clear();
    }

    /// Build the index for `mask` if absent or stale. The empty mask never
    /// gets an index (a probe on it is a scan by definition), and a full
    /// mask needs none (the row-hash buckets serve it). A stale entry —
    /// invalidated by [`Relation::remove`]'s generation bump — is rebuilt
    /// in place, reusing its bucket allocations.
    pub fn ensure_index(&mut self, mask: ColumnMask) {
        if mask.is_empty() || mask.covers_all(self.arity) {
            return;
        }
        let generation = self.generation;
        if self
            .indexes
            .get(&mask)
            .is_some_and(|e| e.built_at == generation)
        {
            return;
        }
        let mut entry = self.indexes.remove(&mask).unwrap_or_default();
        entry.built_at = generation;
        entry.buckets.clear();
        for i in 0..self.count {
            entry
                .buckets
                .entry(key_hash_of(mask, self.row(i)))
                .or_default()
                .push(i);
        }
        self.indexes.insert(mask, entry);
    }

    /// True if a current (non-stale) index for `mask` is present — always
    /// for a full mask, which the row-hash buckets serve.
    pub fn has_index(&self, mask: ColumnMask) -> bool {
        mask.covers_all(self.arity)
            || self
                .indexes
                .get(&mask)
                .is_some_and(|e| e.built_at == self.generation)
    }

    /// Raw candidate positions for `key_hash` under the `mask` index, in
    /// ascending insertion order — or `None` when no current index for
    /// `mask` exists. A full mask reads the row-hash buckets (its key hash
    /// is the row hash). The positions are *hash candidates, not
    /// certainties*: the caller must verify each row's masked columns
    /// itself. This is the compiled evaluator's probe entry point — its
    /// register checks subsume the verification [`Relation::probe`] would
    /// otherwise repeat per candidate.
    #[inline]
    pub fn index_bucket(&self, mask: ColumnMask, key_hash: u64) -> Option<&[u32]> {
        let buckets = if mask.covers_all(self.arity) {
            &self.positions
        } else {
            let entry = self.indexes.get(&mask)?;
            if entry.built_at != self.generation {
                return None;
            }
            &entry.buckets
        };
        Some(buckets.get(&key_hash).map_or(&[], Vec::as_slice))
    }

    /// Rows whose `mask` columns equal `key`, in insertion order.
    /// Allocation-free: index buckets are verified in place, the unindexed
    /// fallback is a filtered scan.
    pub fn probe<'a>(&'a self, mask: ColumnMask, key: &'a [Code]) -> ProbeIter<'a> {
        self.probe_in_range(mask, key, 0, self.count)
    }

    /// [`Relation::probe`] restricted to insertion positions `lo..hi`
    /// (`hi` is clamped to the current length) — the semi-naive delta
    /// windows probe through this.
    pub fn probe_in_range<'a>(
        &'a self,
        mask: ColumnMask,
        key: &'a [Code],
        lo: u32,
        hi: u32,
    ) -> ProbeIter<'a> {
        let hi = hi.min(self.count);
        let lo = lo.min(hi);
        debug_assert_eq!(key.len(), mask.count());
        let source = if mask.is_empty() {
            ProbeSource::Scan(lo)
        } else if let Some(bucket) = self.index_bucket(mask, hash_codes(key.iter().copied())) {
            // Candidates are ascending; narrow to the window.
            let start = bucket.partition_point(|&p| p < lo);
            ProbeSource::Bucket(&bucket[start..])
        } else {
            ProbeSource::Scan(lo)
        };
        ProbeIter {
            rel: self,
            mask,
            key,
            hi,
            source,
        }
    }

    /// Number of rows matching `key` under `mask`.
    pub fn probe_count(&self, mask: ColumnMask, key: &[Code]) -> usize {
        self.probe(mask, key).count()
    }

    /// Bytes of encoded tuple data in the arena.
    pub fn encoded_bytes(&self) -> usize {
        self.rows.len() * std::mem::size_of::<Code>()
    }

    /// The masks of the current (non-stale) secondary indexes.
    pub fn indexed_masks(&self) -> impl Iterator<Item = ColumnMask> + '_ {
        self.indexes
            .iter()
            .filter(|(_, e)| e.built_at == self.generation)
            .map(|(&mask, _)| mask)
    }

    /// Number of secondary indexes currently materialized (stale retained
    /// entries awaiting rebuild are not counted, and neither are the
    /// row-hash buckets full masks probe through).
    pub fn index_count(&self) -> usize {
        self.indexed_masks().count()
    }
}

enum ProbeSource<'a> {
    /// Candidates from an index bucket (ascending positions, unverified).
    Bucket(&'a [u32]),
    /// Sequential scan cursor (next position to visit).
    Scan(u32),
}

/// Iterator over matching rows, yielded in insertion order. See
/// [`Relation::probe`].
pub struct ProbeIter<'a> {
    rel: &'a Relation,
    mask: ColumnMask,
    key: &'a [Code],
    hi: u32,
    source: ProbeSource<'a>,
}

impl<'a> Iterator for ProbeIter<'a> {
    type Item = &'a [Code];

    fn next(&mut self) -> Option<&'a [Code]> {
        let (rel, mask, key, hi) = (self.rel, self.mask, self.key, self.hi);
        // Verify the row at `pos` against the probe key on the masked
        // columns (index buckets are hash candidates, not certainties).
        let matches = move |pos: u32| {
            let row = rel.row(pos);
            mask.cols().zip(key).all(|(c, &k)| row[c] == k)
        };
        match &mut self.source {
            ProbeSource::Bucket(bucket) => loop {
                let (&pos, rest) = bucket.split_first()?;
                *bucket = rest;
                if pos >= hi {
                    // Ascending candidates: past the window means done.
                    *bucket = &[];
                    return None;
                }
                if matches(pos) {
                    return Some(rel.row(pos));
                }
            },
            ProbeSource::Scan(next) => loop {
                let pos = *next;
                if pos >= hi {
                    return None;
                }
                *next = pos + 1;
                if matches(pos) {
                    return Some(rel.row(pos));
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(n: u32) -> Code {
        Code(n)
    }

    fn rel_with(rows: &[&[u32]]) -> Relation {
        let mut r = Relation::new(rows.first().map_or(0, |t| t.len()));
        for row in rows {
            let codes: Vec<Code> = row.iter().map(|&n| c(n)).collect();
            r.insert(&codes);
        }
        r
    }

    #[test]
    fn insert_deduplicates() {
        let mut r = Relation::new(2);
        assert!(r.insert(&[c(1), c(2)]));
        assert!(!r.insert(&[c(1), c(2)]));
        assert!(r.insert(&[c(2), c(1)]));
        assert_eq!(r.len(), 2);
        assert!(r.contains(&[c(1), c(2)]));
        assert!(!r.contains(&[c(3), c(3)]));
    }

    #[test]
    fn rows_iterate_in_insertion_order() {
        let r = rel_with(&[&[3, 0], &[1, 1], &[2, 2]]);
        let got: Vec<Vec<Code>> = r.rows().map(|t| t.to_vec()).collect();
        assert_eq!(
            got,
            vec![vec![c(3), c(0)], vec![c(1), c(1)], vec![c(2), c(2)]]
        );
    }

    #[test]
    fn remove_swaps_last_into_hole() {
        let mut r = rel_with(&[&[1], &[2], &[3]]);
        assert!(r.remove(&[c(1)]));
        assert!(!r.remove(&[c(1)]));
        let got: Vec<Code> = r.rows().map(|t| t[0]).collect();
        assert_eq!(got, vec![c(3), c(2)]);
        assert!(r.contains(&[c(3)]));
        assert!(r.contains(&[c(2)]));
        assert_eq!(r.len(), 2);
        // Removing the (current) last row needs no swap.
        assert!(r.remove(&[c(2)]));
        let got: Vec<Code> = r.rows().map(|t| t[0]).collect();
        assert_eq!(got, vec![c(3)]);
    }

    #[test]
    fn indexes_are_maintained_on_insert() {
        let mut r = Relation::new(2);
        let m = ColumnMask::from_cols([0]);
        r.ensure_index(m);
        r.insert(&[c(1), c(10)]);
        r.insert(&[c(1), c(11)]);
        r.insert(&[c(2), c(20)]);
        let hits: Vec<Code> = r.probe(m, &[c(1)]).map(|t| t[1]).collect();
        assert_eq!(hits, vec![c(10), c(11)]);
        assert_eq!(r.probe_count(m, &[c(2)]), 1);
        assert_eq!(r.probe_count(m, &[c(9)]), 0);
    }

    #[test]
    fn remove_invalidates_indexes_and_ensure_rebuilds() {
        let mut r = rel_with(&[&[1, 10], &[2, 20], &[1, 11]]);
        let m = ColumnMask::from_cols([0]);
        r.ensure_index(m);
        assert!(r.has_index(m));
        r.remove(&[c(1), c(10)]);
        assert!(!r.has_index(m));
        // Unindexed probes fall back to a verified scan.
        let hits: Vec<Code> = r.probe(m, &[c(1)]).map(|t| t[1]).collect();
        assert_eq!(hits, vec![c(11)]);
        r.ensure_index(m);
        assert!(r.has_index(m));
        let hits: Vec<Code> = r.probe(m, &[c(1)]).map(|t| t[1]).collect();
        assert_eq!(hits, vec![c(11)]);
    }

    #[test]
    fn inserts_after_invalidation_do_not_resurrect_stale_indexes() {
        let mut r = rel_with(&[&[1, 10], &[2, 20]]);
        let m = ColumnMask::from_cols([0]);
        r.ensure_index(m);
        r.remove(&[c(2), c(20)]);
        // The stale entry must be skipped by incremental maintenance …
        r.insert(&[c(1), c(11)]);
        assert!(!r.has_index(m));
        let hits: Vec<Code> = r.probe(m, &[c(1)]).map(|t| t[1]).collect();
        assert_eq!(hits, vec![c(10), c(11)]);
        // … and the rebuild reflects the post-removal arena exactly.
        r.ensure_index(m);
        assert!(r.has_index(m));
        let hits: Vec<Code> = r.probe(m, &[c(1)]).map(|t| t[1]).collect();
        assert_eq!(hits, vec![c(10), c(11)]);
        assert_eq!(r.probe_count(m, &[c(2)]), 0);
    }

    #[test]
    fn index_bucket_exposes_raw_candidates() {
        let mut r = rel_with(&[&[1, 10], &[2, 20], &[1, 11]]);
        let m = ColumnMask::from_cols([0]);
        assert!(r.index_bucket(m, 0).is_none(), "no index yet");
        r.ensure_index(m);
        let h = hash_codes([c(1)]);
        let bucket = r.index_bucket(m, h).expect("index present");
        // Candidates are ascending positions; all verify here (no collision).
        assert_eq!(bucket, &[0, 2]);
        let miss = r.index_bucket(m, hash_codes([c(9)])).unwrap();
        assert!(miss.is_empty());
        // Invalidation makes the bucket unavailable until rebuilt.
        r.remove(&[c(2), c(20)]);
        assert!(r.index_bucket(m, h).is_none());
        r.ensure_index(m);
        assert_eq!(r.index_bucket(m, h).unwrap(), &[0, 1]);
    }

    #[test]
    fn empty_mask_probe_scans_everything() {
        let r = rel_with(&[&[1], &[2]]);
        assert_eq!(r.probe(ColumnMask::EMPTY, &[]).count(), 2);
        let mut r2 = rel_with(&[&[1]]);
        r2.ensure_index(ColumnMask::EMPTY);
        assert!(!r2.has_index(ColumnMask::EMPTY), "empty mask never indexes");
    }

    #[test]
    fn full_mask_is_point_lookup() {
        let mut r = rel_with(&[&[1, 2], &[3, 4]]);
        let m = ColumnMask::from_cols([0, 1]);
        r.ensure_index(m);
        assert_eq!(r.probe_count(m, &[c(1), c(2)]), 1);
        assert_eq!(r.probe_count(m, &[c(1), c(4)]), 0);
    }

    #[test]
    fn range_probe_windows_by_insertion_position() {
        // Key 1 sits at insertion positions 0, 2 and 4.
        let mut r = rel_with(&[&[1, 10], &[2, 20], &[1, 11], &[3, 30], &[1, 12]]);
        let m = ColumnMask::from_cols([0]);
        // Unindexed window.
        assert_eq!(r.probe_in_range(m, &[c(1)], 2, 4).count(), 1);
        assert_eq!(r.probe_in_range(m, &[c(1)], 0, 5).count(), 3);
        // hi beyond len clamps.
        assert_eq!(r.probe_in_range(m, &[c(1)], 0, 100).count(), 3);
        assert_eq!(r.probe_in_range(m, &[c(1)], 4, 2).count(), 0);
        // Indexed window agrees.
        r.ensure_index(m);
        assert_eq!(r.probe_in_range(m, &[c(1)], 2, 4).count(), 1);
        assert_eq!(r.probe_in_range(m, &[c(1)], 3, 5).count(), 1);
        // Empty mask windows the raw scan.
        assert_eq!(r.probe_in_range(ColumnMask::EMPTY, &[], 1, 3).count(), 2);
    }

    #[test]
    fn arity_zero_relations_work() {
        let mut r = Relation::new(0);
        assert!(r.insert(&[]));
        assert!(!r.insert(&[]));
        assert_eq!(r.len(), 1);
        assert!(r.contains(&[]));
        assert_eq!(r.rows().count(), 1);
        assert_eq!(r.row(0), &[] as &[Code]);
        assert!(r.remove(&[]));
        assert!(r.is_empty());
    }

    #[test]
    fn clear_resets_everything() {
        // Mask {0} on an arity-2 relation: a full mask would always count
        // as indexed (the row-hash buckets serve it).
        let mut r = rel_with(&[&[1, 10], &[2, 20]]);
        let m = ColumnMask::from_cols([0]);
        r.ensure_index(m);
        r.clear();
        assert!(r.is_empty());
        assert!(!r.has_index(m));
        assert!(!r.contains(&[c(1), c(10)]));
        assert_eq!(r.encoded_bytes(), 0);
    }

    /// Every row a full-mask `probe`, `probe_in_range` and (verified)
    /// `index_bucket` return for `key` in the window `lo..hi`, checked
    /// against a filtered scan of the same window.
    fn assert_full_mask_matches_scan(r: &Relation, key: &[Code], lo: u32, hi: u32) {
        let m = ColumnMask::from_cols(0..r.arity());
        let scan: Vec<u32> = (lo..hi.min(r.len() as u32))
            .filter(|&p| r.row(p) == key)
            .collect();
        let rows = |ps: &[u32]| ps.iter().map(|&p| r.row(p).to_vec()).collect::<Vec<_>>();
        let ranged: Vec<Vec<Code>> = r
            .probe_in_range(m, key, lo, hi)
            .map(<[Code]>::to_vec)
            .collect();
        assert_eq!(ranged, rows(&scan), "probe_in_range {key:?} {lo}..{hi}");
        if (lo, hi) == (0, u32::MAX) {
            let all: Vec<Vec<Code>> = r.probe(m, key).map(<[Code]>::to_vec).collect();
            assert_eq!(all, rows(&scan), "probe {key:?}");
        }
        let bucket = r
            .index_bucket(m, hash_codes(key.iter().copied()))
            .expect("a full mask is always indexed");
        assert!(bucket.windows(2).all(|w| w[0] < w[1]), "ascending bucket");
        let verified: Vec<u32> = bucket
            .iter()
            .copied()
            .filter(|&p| (lo..hi).contains(&p) && r.row(p) == key)
            .collect();
        assert_eq!(verified, scan, "index_bucket {key:?} {lo}..{hi}");
    }

    #[test]
    fn full_mask_probes_read_the_row_hash() {
        let mut r = rel_with(&[&[1, 2], &[3, 4], &[5, 6], &[7, 8]]);
        let m = ColumnMask::from_cols([0, 1]);
        assert!(r.has_index(m), "the row-hash buckets serve a full mask");
        r.ensure_index(m);
        assert_eq!(r.index_count(), 0, "no full-mask secondary index is built");
        for key in [[c(1), c(2)], [c(5), c(6)], [c(7), c(8)], [c(1), c(4)]] {
            assert_full_mask_matches_scan(&r, &key, 0, u32::MAX);
            // Windows around every row position.
            for lo in 0..4 {
                for hi in lo..=5 {
                    assert_full_mask_matches_scan(&r, &key, lo, hi);
                }
            }
        }
        // Swap-remove moves the last row into the hole; buckets stay
        // ascending and still agree with the scan.
        assert!(r.remove(&[c(1), c(2)]));
        assert!(r.has_index(m));
        for key in [[c(1), c(2)], [c(7), c(8)], [c(3), c(4)]] {
            assert_full_mask_matches_scan(&r, &key, 0, u32::MAX);
            assert_full_mask_matches_scan(&r, &key, 1, 3);
        }
        assert_eq!(r.probe(m, &[c(7), c(8)]).count(), 1);
    }

    #[test]
    fn full_mask_probes_verify_row_hash_collisions() {
        // Two distinct arity-2 rows with the same row hash.
        let a = [c(3_122_331_942), c(0)];
        let b = [c(105_167_146), c(1_074_384_266)];
        assert_eq!(hash_row(&a), hash_row(&b), "precondition: a collision");
        let mut r = Relation::new(2);
        r.insert(&[c(1), c(1)]);
        r.insert(&a);
        r.insert(&b);
        let m = ColumnMask::from_cols([0, 1]);
        assert_eq!(r.index_bucket(m, hash_row(&a)).unwrap(), &[1, 2]);
        for key in [a, b] {
            assert_full_mask_matches_scan(&r, &key, 0, u32::MAX);
            assert_full_mask_matches_scan(&r, &key, 2, 3);
        }
        assert_eq!(r.probe(m, &a).collect::<Vec<_>>(), vec![&a[..]]);
        // Removing the first of the pair swaps the last row into its slot.
        assert!(r.remove(&a));
        assert_eq!(r.index_bucket(m, hash_row(&b)).unwrap(), &[1]);
        assert_full_mask_matches_scan(&r, &a, 0, u32::MAX);
        assert_full_mask_matches_scan(&r, &b, 0, u32::MAX);
    }

    #[test]
    fn full_mask_of_arity_zero_is_the_empty_mask() {
        let mut r = Relation::new(0);
        assert!(ColumnMask::EMPTY.covers_all(0));
        assert_full_mask_matches_scan(&r, &[], 0, u32::MAX);
        assert!(r
            .index_bucket(ColumnMask::EMPTY, hash_row(&[]))
            .unwrap()
            .is_empty());
        r.insert(&[]);
        assert_full_mask_matches_scan(&r, &[], 0, u32::MAX);
        assert_full_mask_matches_scan(&r, &[], 1, u32::MAX);
        assert_eq!(r.probe(ColumnMask::EMPTY, &[]).count(), 1);
        r.ensure_index(ColumnMask::EMPTY);
        assert_eq!(r.index_count(), 0);
    }

    #[test]
    fn covers_all_matches_the_arity() {
        assert!(ColumnMask::from_cols([0, 1]).covers_all(2));
        assert!(!ColumnMask::from_cols([0, 1]).covers_all(3));
        assert!(!ColumnMask::from_cols([1, 2]).covers_all(2));
        assert!(!ColumnMask::from_cols([0]).covers_all(2));
        assert!(ColumnMask::from_cols(0..32).covers_all(32));
        assert!(!ColumnMask::EMPTY.covers_all(1));
    }

    #[test]
    fn stats_report_arena_size() {
        let mut r = rel_with(&[&[1, 2], &[3, 4]]);
        assert_eq!(r.encoded_bytes(), 2 * 2 * 4);
        r.ensure_index(ColumnMask::from_cols([0]));
        assert_eq!(r.index_count(), 1);
    }

    #[test]
    fn mask_columns_are_ascending() {
        let m = ColumnMask::from_cols([2, 0]);
        assert_eq!(m.cols().collect::<Vec<_>>(), vec![0, 2]);
        assert!(m.contains(0));
        assert!(!m.contains(1));
        assert_eq!(m.count(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn mask_rejects_wide_columns() {
        ColumnMask::from_cols([32]);
    }
}
