#![warn(missing_docs)]

//! Static hash index with overflow chains.
//!
//! The paper restricts its bulk-delete algorithms to B⁺-trees and states
//! that "in our prototype, other kinds of indices are updated in the
//! traditional way" (§5), naming hash tables first among the structures
//! left to future work. This crate supplies that other kind of index and
//! carries the paper's `⋈̄` over to it: [`HashIndex::bulk_delete`] sorts
//! the victims by bucket number and merges them against the bucket array
//! in one pass, so every touched chain is walked once and the bucket pages,
//! which are contiguous, stream in through the shared read-ahead instead of
//! one random read per victim. [`HashIndex::bulk_insert`] builds the same
//! way. Record-at-a-time paths (horizontal deletes, single-row deletes,
//! updates) keep using [`HashIndex::delete`] and [`HashIndex::insert`].
//!
//! Layout: a fixed bucket directory (catalog metadata) points at bucket
//! pages; each bucket page holds `(key, rid)` entries and an overflow
//! pointer:
//!
//! ```text
//! 0..2   n_entries (u16)
//! 2..4   reserved
//! 4..8   overflow page (u32, NO_PAGE if none)
//! 8..    entries of (key u64, rid u64), 16 bytes each, unordered
//! ```

use std::sync::Arc;

use bd_storage::page::{get_u16, get_u32, get_u64, put_u16, put_u32, put_u64};
use bd_storage::{BufferPool, PageId, ReadAhead, Rid, StorageResult, StructureId, PAGE_SIZE};

/// Key type (matches the B-tree's).
pub type Key = u64;

const NO_PAGE: u32 = u32::MAX;
const HDR: usize = 8;
const ENTRY: usize = 16;

/// Entries per bucket page.
pub const BUCKET_CAP: usize = (PAGE_SIZE - HDR) / ENTRY;

fn entry_off(i: usize) -> usize {
    HDR + i * ENTRY
}

fn page_n(buf: &[u8]) -> usize {
    get_u16(buf, 0) as usize
}

fn page_set_n(buf: &mut [u8], n: usize) {
    put_u16(buf, 0, n as u16);
}

fn page_overflow(buf: &[u8]) -> Option<PageId> {
    let p = get_u32(buf, 4);
    (p != NO_PAGE).then_some(p)
}

fn page_set_overflow(buf: &mut [u8], p: Option<PageId>) {
    put_u32(buf, 4, p.unwrap_or(NO_PAGE));
}

fn page_entry(buf: &[u8], i: usize) -> (Key, Rid) {
    (
        get_u64(buf, entry_off(i)),
        Rid::from_u64(get_u64(buf, entry_off(i) + 8)),
    )
}

fn page_set_entry(buf: &mut [u8], i: usize, e: (Key, Rid)) {
    put_u64(buf, entry_off(i), e.0);
    put_u64(buf, entry_off(i) + 8, e.1.to_u64());
}

/// Multiplicative hash (Fibonacci hashing) — good spread for the
/// workload's integer keys.
fn bucket_of(key: Key, n_buckets: usize) -> usize {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % n_buckets
}

/// A static hash index of `(key, rid)` entries.
pub struct HashIndex {
    pool: Arc<BufferPool>,
    buckets: Vec<PageId>,
    n_entries: usize,
    owner: StructureId,
}

impl HashIndex {
    /// Create an index with `n_buckets` bucket pages (allocated
    /// contiguously), owned by `owner` in the page catalog.
    pub fn create(
        pool: Arc<BufferPool>,
        n_buckets: usize,
        owner: StructureId,
    ) -> StorageResult<Self> {
        assert!(n_buckets > 0);
        let first = pool.allocate_contiguous(n_buckets, owner);
        pool.with_disk(|disk| {
            disk.write_chain(first, n_buckets, |_, page| {
                page_set_n(&mut page[..], 0);
                page_set_overflow(&mut page[..], None);
            })
        })?;
        Ok(HashIndex {
            pool,
            buckets: (0..n_buckets as PageId).map(|i| first + i).collect(),
            n_entries: 0,
            owner,
        })
    }

    /// Size the bucket count for an expected entry count at ~70% fill.
    pub fn with_capacity(
        pool: Arc<BufferPool>,
        expected: usize,
        owner: StructureId,
    ) -> StorageResult<Self> {
        let buckets = (expected as f64 / (BUCKET_CAP as f64 * 0.7))
            .ceil()
            .max(1.0) as usize;
        HashIndex::create(pool, buckets, owner)
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.n_entries
    }

    /// True if the index is empty.
    pub fn is_empty(&self) -> bool {
        self.n_entries == 0
    }

    /// Number of bucket pages (excluding overflow pages).
    pub fn n_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// The structure this index's pages are catalogued under.
    pub fn owner(&self) -> StructureId {
        self.owner
    }

    /// Every page the index owns: bucket pages plus their overflow chains,
    /// in chain-walk order. Media recovery uses this to classify a corrupt
    /// page id as belonging to a specific hash index.
    pub fn pages(&self) -> StorageResult<Vec<PageId>> {
        let mut out = Vec::with_capacity(self.buckets.len());
        for &bucket in &self.buckets {
            let mut pid = Some(bucket);
            while let Some(p) = pid {
                let r = self.pool.pin_read(p)?;
                out.push(p);
                pid = page_overflow(&r[..]);
            }
        }
        Ok(out)
    }

    /// Insert an entry (duplicates allowed).
    pub fn insert(&mut self, key: Key, rid: Rid) -> StorageResult<()> {
        let mut pid = self.buckets[bucket_of(key, self.buckets.len())];
        loop {
            let mut w = self.pool.pin_write(pid)?;
            let n = page_n(&w[..]);
            if n < BUCKET_CAP {
                page_set_entry(&mut w[..], n, (key, rid));
                page_set_n(&mut w[..], n + 1);
                self.n_entries += 1;
                return Ok(());
            }
            match page_overflow(&w[..]) {
                Some(next) => {
                    drop(w);
                    pid = next;
                }
                None => {
                    // Chain a fresh overflow page.
                    let (new_pid, mut nw) = self.pool.new_page(self.owner)?;
                    page_set_n(&mut nw[..], 1);
                    page_set_overflow(&mut nw[..], None);
                    page_set_entry(&mut nw[..], 0, (key, rid));
                    drop(nw);
                    page_set_overflow(&mut w[..], Some(new_pid));
                    self.n_entries += 1;
                    return Ok(());
                }
            }
        }
    }

    /// All RIDs under `key`.
    pub fn search(&self, key: Key) -> StorageResult<Vec<Rid>> {
        let mut out = Vec::new();
        let mut pid = Some(self.buckets[bucket_of(key, self.buckets.len())]);
        while let Some(p) = pid {
            let r = self.pool.pin_read(p)?;
            for i in 0..page_n(&r[..]) {
                let (k, rid) = page_entry(&r[..], i);
                if k == key {
                    out.push(rid);
                }
            }
            pid = page_overflow(&r[..]);
        }
        Ok(out)
    }

    /// Delete exactly `(key, rid)` — one chain walk, the "traditional way".
    /// Returns `true` if the entry existed.
    pub fn delete(&mut self, key: Key, rid: Rid) -> StorageResult<bool> {
        let mut pid = Some(self.buckets[bucket_of(key, self.buckets.len())]);
        while let Some(p) = pid {
            // Pause point: between chain pages, no pin held (the previous
            // iteration's write guard dropped at the end of its block).
            bd_storage::pacer::checkpoint()?;
            let mut w = self.pool.pin_write(p)?;
            let n = page_n(&w[..]);
            for i in 0..n {
                if page_entry(&w[..], i) == (key, rid) {
                    // Swap-remove with the last entry of this page.
                    let last = page_entry(&w[..], n - 1);
                    page_set_entry(&mut w[..], i, last);
                    page_set_n(&mut w[..], n - 1);
                    self.n_entries -= 1;
                    return Ok(true);
                }
            }
            pid = page_overflow(&w[..]);
        }
        Ok(false)
    }

    /// Delete every `(key, rid)` entry of `entries` — the hash-index `⋈̄`
    /// of a bulk delete. The victims are sorted by `(bucket, key, rid)` and
    /// merged against the bucket array: each touched chain is walked once,
    /// front to back, swap-removing all of its bucket's victims, and stops
    /// as soon as none is left. The touched bucket pages ascend, so they
    /// stream in through the shared [`ReadAhead`].
    ///
    /// The result equals one [`HashIndex::delete`] per listed entry: an
    /// absent entry is skipped, and an entry listed `c` times removes up to
    /// `c` matching entries. Returns how many entries were removed. Pauses
    /// between chain pages with no pin held.
    pub fn bulk_delete(&mut self, entries: &[(Key, Rid)]) -> StorageResult<usize> {
        let n_buckets = self.buckets.len();
        let mut victims: Vec<(usize, Key, Rid)> = entries
            .iter()
            .map(|&(k, rid)| (bucket_of(k, n_buckets), k, rid))
            .collect();
        victims.sort_unstable();
        let mut ra = self.plan_buckets(&victims);
        let mut removed = 0;
        let mut i = 0;
        while i < victims.len() {
            let b = victims[i].0;
            let end = i + victims[i..].partition_point(|v| v.0 == b);
            // This bucket's distinct victims in (key, rid) order, each with
            // how many matching entries it may still remove.
            let mut wanted: Vec<((Key, Rid), usize)> = Vec::new();
            for &(_, k, rid) in &victims[i..end] {
                match wanted.last_mut() {
                    Some((e, c)) if *e == (k, rid) => *c += 1,
                    _ => wanted.push(((k, rid), 1)),
                }
            }
            let mut pending = end - i;
            i = end;
            let mut pid = Some(self.buckets[b]);
            ra.before_pin(self.buckets[b]);
            while let Some(p) = pid.filter(|_| pending > 0) {
                // Pause point: between chain pages, no pin held.
                bd_storage::pacer::checkpoint()?;
                let mut w = self.pool.pin_write(p)?;
                let mut n = page_n(&w[..]);
                let mut j = 0;
                while j < n && pending > 0 {
                    let e = page_entry(&w[..], j);
                    match wanted.binary_search_by(|(v, _)| v.cmp(&e)) {
                        Ok(t) if wanted[t].1 > 0 => {
                            wanted[t].1 -= 1;
                            pending -= 1;
                            // Swap-remove with the last entry of this page,
                            // then look at slot `j` again.
                            let last = page_entry(&w[..], n - 1);
                            page_set_entry(&mut w[..], j, last);
                            n -= 1;
                            page_set_n(&mut w[..], n);
                            self.n_entries -= 1;
                            removed += 1;
                        }
                        _ => j += 1,
                    }
                }
                pid = page_overflow(&w[..]);
            }
        }
        Ok(removed)
    }

    /// Bulk build: insert every entry of `entries` in one bucket-ordered
    /// pass. A stable sort by bucket keeps each bucket's entries in input
    /// order; each touched chain is then filled front to back once, with
    /// overflow pages chained as pages fill. Every chain ends up holding
    /// exactly the entries, in the same order, that one
    /// [`HashIndex::insert`] per entry would give it, at one read of each
    /// touched bucket page (streamed through the shared [`ReadAhead`])
    /// instead of one random chain walk per entry.
    pub fn bulk_insert(&mut self, entries: &[(Key, Rid)]) -> StorageResult<()> {
        let n_buckets = self.buckets.len();
        let mut order: Vec<(usize, Key, Rid)> = entries
            .iter()
            .map(|&(k, rid)| (bucket_of(k, n_buckets), k, rid))
            .collect();
        order.sort_by_key(|e| e.0);
        let mut ra = self.plan_buckets(&order);
        let mut i = 0;
        while i < order.len() {
            let b = order[i].0;
            let end = i + order[i..].partition_point(|e| e.0 == b);
            let mut pid = self.buckets[b];
            ra.before_pin(pid);
            loop {
                // Pause point: between chain pages, no pin held.
                bd_storage::pacer::checkpoint()?;
                let mut w = self.pool.pin_write(pid)?;
                let n = page_n(&w[..]);
                let take = BUCKET_CAP.saturating_sub(n).min(end - i);
                for (j, &(_, k, rid)) in order[i..i + take].iter().enumerate() {
                    page_set_entry(&mut w[..], n + j, (k, rid));
                }
                page_set_n(&mut w[..], n + take);
                self.n_entries += take;
                i += take;
                if i == end {
                    break;
                }
                pid = match page_overflow(&w[..]) {
                    Some(next) => next,
                    None => {
                        // Chain a fresh, empty page; the next iteration
                        // fills it.
                        let (new_pid, mut nw) = self.pool.new_page(self.owner)?;
                        page_set_n(&mut nw[..], 0);
                        page_set_overflow(&mut nw[..], None);
                        drop(nw);
                        page_set_overflow(&mut w[..], Some(new_pid));
                        new_pid
                    }
                };
            }
        }
        Ok(())
    }

    /// Read-ahead over the bucket pages of `sorted` (ordered by bucket):
    /// bucket pages are contiguous, so ascending buckets are ascending
    /// pages. Overflow pages stay out of the plan and are never announced
    /// to it, since a far-off overflow page would skip the cursor past
    /// every bucket page below it.
    fn plan_buckets(&self, sorted: &[(usize, Key, Rid)]) -> ReadAhead {
        let mut ra = ReadAhead::new(self.pool.clone());
        let mut prev = None;
        ra.plan(sorted.iter().filter_map(|&(b, _, _)| {
            let fresh = prev != Some(b);
            prev = Some(b);
            fresh.then(|| self.buckets[b])
        }));
        ra
    }

    /// All entries, in arbitrary order (consistency checks).
    pub fn scan(&self) -> StorageResult<Vec<(Key, Rid)>> {
        let mut out = Vec::with_capacity(self.n_entries);
        for &bucket in &self.buckets {
            let mut pid = Some(bucket);
            while let Some(p) = pid {
                // Pause point: between chain pages, no pin held.
                bd_storage::pacer::checkpoint()?;
                let r = self.pool.pin_read(p)?;
                for i in 0..page_n(&r[..]) {
                    out.push(page_entry(&r[..], i));
                }
                pid = page_overflow(&r[..]);
            }
        }
        Ok(out)
    }

    /// Recount entries from the disk state (fixes the in-memory counter
    /// after crash recovery, like the heap's and trees' recounts).
    pub fn recount(&mut self) -> StorageResult<usize> {
        let n = self.scan()?.len();
        self.n_entries = n;
        Ok(n)
    }

    /// Dump every bucket's overflow chain and check the structure's
    /// invariants: every entry must hash to the bucket whose chain holds it,
    /// chain pages must respect [`BUCKET_CAP`], and the in-memory entry
    /// counter must match the on-disk entry count. Violations are returned
    /// as human-readable strings (the audit harness folds them into its
    /// report); I/O failures surface as errors.
    pub fn audit(&self) -> StorageResult<HashAudit> {
        let mut chains = Vec::with_capacity(self.buckets.len());
        let mut violations = Vec::new();
        let mut total = 0usize;
        for (b, &bucket) in self.buckets.iter().enumerate() {
            let mut pages = Vec::new();
            let mut entries = Vec::new();
            let mut pid = Some(bucket);
            while let Some(p) = pid {
                let r = self.pool.pin_read(p)?;
                let n = page_n(&r[..]);
                if n > BUCKET_CAP {
                    violations.push(format!("bucket {b} page {p} holds {n} > cap {BUCKET_CAP}"));
                }
                for i in 0..n.min(BUCKET_CAP) {
                    let (k, rid) = page_entry(&r[..], i);
                    if bucket_of(k, self.buckets.len()) != b {
                        violations.push(format!(
                            "bucket {b} page {p} holds key {k} that hashes to bucket {}",
                            bucket_of(k, self.buckets.len())
                        ));
                    }
                    entries.push((k, rid));
                }
                pages.push(p);
                pid = page_overflow(&r[..]);
                if pages.len() > 1_000_000 {
                    violations.push(format!("bucket {b} chain does not terminate"));
                    break;
                }
            }
            total += entries.len();
            chains.push(BucketChain {
                bucket: b,
                pages,
                entries,
            });
        }
        if total != self.n_entries {
            violations.push(format!(
                "entry counter says {} but chains hold {total}",
                self.n_entries
            ));
        }
        Ok(HashAudit { chains, violations })
    }

    /// Scrub every chain page: zero all bytes beyond the live entry region.
    /// [`HashIndex::delete`] and [`HashIndex::bulk_delete`] swap-remove, so
    /// the former last entry's `(key, rid)` image survives beyond
    /// `n_entries` until this pass destroys it. Returns the number of pages
    /// that held stale bytes.
    pub fn scrub(&mut self) -> StorageResult<usize> {
        let mut dirtied = 0;
        for &bucket in &self.buckets {
            let mut pid = Some(bucket);
            while let Some(p) = pid {
                // Pause point: between chain pages, no pin held.
                bd_storage::pacer::checkpoint()?;
                let mut w = self.pool.pin_write(p)?;
                let buf = &mut w[..];
                let n = page_n(buf);
                let tail = entry_off(n.min(BUCKET_CAP));
                if buf[tail..].iter().any(|&b| b != 0) {
                    buf[tail..].fill(0);
                    dirtied += 1;
                }
                pid = page_overflow(buf);
            }
        }
        Ok(dirtied)
    }

    /// Longest overflow chain (diagnostics).
    pub fn max_chain_len(&self) -> StorageResult<usize> {
        let mut max = 0;
        for &bucket in &self.buckets {
            let mut len = 0;
            let mut pid = Some(bucket);
            while let Some(p) = pid {
                len += 1;
                let r = self.pool.pin_read(p)?;
                pid = page_overflow(&r[..]);
            }
            max = max.max(len);
        }
        Ok(max)
    }
}

/// One bucket's chain as found on disk by [`HashIndex::audit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BucketChain {
    /// Bucket number.
    pub bucket: usize,
    /// Pages of the chain, bucket page first.
    pub pages: Vec<PageId>,
    /// Entries in chain order.
    pub entries: Vec<(Key, Rid)>,
}

/// Result of [`HashIndex::audit`]: the full chain dump plus any violated
/// invariants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashAudit {
    /// Per-bucket chain contents.
    pub chains: Vec<BucketChain>,
    /// Human-readable invariant violations (empty = structurally sound).
    pub violations: Vec<String>,
}

impl HashAudit {
    /// All entries across every chain, unsorted.
    pub fn entries(&self) -> Vec<(Key, Rid)> {
        self.chains.iter().flat_map(|c| c.entries.clone()).collect()
    }
}

// Hash-index arms are dispatched to worker threads by the phase-task
// executor; the handle must stay `Send` (see the matching assertion on
// `bd_btree::BTree`).
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<HashIndex>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use bd_storage::{CostModel, SimDisk};

    fn pool() -> Arc<BufferPool> {
        BufferPool::new(SimDisk::new(CostModel::default()), 128)
    }

    fn rid(i: u64) -> Rid {
        Rid::new(i as u32, (i % 7) as u16)
    }

    #[test]
    fn insert_search_delete() {
        let mut h = HashIndex::create(pool(), 4, StructureId::Hash(0)).unwrap();
        for k in 0..100u64 {
            h.insert(k, rid(k)).unwrap();
        }
        assert_eq!(h.len(), 100);
        assert_eq!(h.search(42).unwrap(), vec![rid(42)]);
        assert_eq!(h.search(1000).unwrap(), Vec::<Rid>::new());
        assert!(h.delete(42, rid(42)).unwrap());
        assert!(!h.delete(42, rid(42)).unwrap());
        assert_eq!(h.search(42).unwrap(), Vec::<Rid>::new());
        assert_eq!(h.len(), 99);
    }

    #[test]
    fn duplicates_supported() {
        let mut h = HashIndex::create(pool(), 2, StructureId::Hash(0)).unwrap();
        for i in 0..5u16 {
            h.insert(7, Rid::new(1, i)).unwrap();
        }
        let mut rids = h.search(7).unwrap();
        rids.sort();
        assert_eq!(rids.len(), 5);
        assert!(h.delete(7, Rid::new(1, 2)).unwrap());
        assert_eq!(h.search(7).unwrap().len(), 4);
    }

    #[test]
    fn pages_lists_buckets_and_overflow_chains() {
        let mut h = HashIndex::create(pool(), 2, StructureId::Hash(0)).unwrap();
        assert_eq!(h.pages().unwrap().len(), 2, "bucket pages only");
        // One bucket overflows: pages() must pick up the chained page.
        let n = (BUCKET_CAP * 2 + BUCKET_CAP / 2) as u64;
        for k in 0..n {
            h.insert(k, rid(k)).unwrap();
        }
        let pages = h.pages().unwrap();
        assert!(pages.len() > 2, "overflow pages included: {pages:?}");
        let audit = h.audit().unwrap();
        let mut from_audit: Vec<PageId> =
            audit.chains.iter().flat_map(|c| c.pages.clone()).collect();
        let mut got = pages.clone();
        from_audit.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, from_audit, "pages() agrees with the audit dump");
    }

    #[test]
    fn overflow_chains_grow_and_shrink_logically() {
        // One bucket forces overflow beyond BUCKET_CAP entries.
        let mut h = HashIndex::create(pool(), 1, StructureId::Hash(0)).unwrap();
        let n = (BUCKET_CAP * 3) as u64;
        for k in 0..n {
            h.insert(k, rid(k)).unwrap();
        }
        assert!(h.max_chain_len().unwrap() >= 3);
        for k in 0..n {
            assert_eq!(h.search(k).unwrap(), vec![rid(k)], "key {k}");
        }
        for k in 0..n {
            assert!(h.delete(k, rid(k)).unwrap());
        }
        assert!(h.is_empty());
        assert_eq!(h.scan().unwrap(), Vec::<(Key, Rid)>::new());
    }

    #[test]
    fn paused_mid_chain_delete_holds_no_pins_and_matches_uninterrupted() {
        // One bucket forces a long overflow chain, so every delete walks
        // several pages and crosses a checkpoint per page: a pause trip
        // lands mid-hash-chain. Parked ⇒ zero pinned frames; resumed ⇒ the
        // exact state an uninterrupted run produces.
        let n = (BUCKET_CAP * 4) as u64;
        let mut reference = HashIndex::create(pool(), 1, StructureId::Hash(0)).unwrap();
        let p = pool();
        let mut h = HashIndex::create(p.clone(), 1, StructureId::Hash(0)).unwrap();
        for k in 0..n {
            reference.insert(k, rid(k)).unwrap();
            h.insert(k, rid(k)).unwrap();
        }
        let victims: Vec<Key> = (0..n).step_by(2).collect();
        for &k in &victims {
            assert!(reference.delete(k, rid(k)).unwrap());
        }

        let pacer = bd_storage::Pacer::new();
        pacer.pause_after(7);
        std::thread::scope(|s| {
            let worker = s.spawn(|| {
                let _g = pacer.enter();
                for &k in &victims {
                    assert!(h.delete(k, rid(k)).unwrap());
                }
            });
            assert!(
                pacer.wait_parked(1, std::time::Duration::from_secs(10)),
                "delete never parked mid-chain"
            );
            assert_eq!(p.pinned_frames(), 0, "parked mid-chain with a pin held");
            pacer.resume();
            worker.join().unwrap();
        });

        assert_eq!(h.len(), reference.len());
        let mut got = h.scan().unwrap();
        let mut expect = reference.scan().unwrap();
        got.sort_unstable();
        expect.sort_unstable();
        assert_eq!(got, expect, "resumed delete diverged");
    }

    /// Every chain's pages, each as its entries in slot order.
    fn chain_pages(h: &HashIndex) -> Vec<Vec<Vec<(Key, Rid)>>> {
        h.buckets
            .iter()
            .map(|&bucket| {
                let mut pages = Vec::new();
                let mut pid = Some(bucket);
                while let Some(p) = pid {
                    let r = h.pool.pin_read(p).unwrap();
                    pages.push((0..page_n(&r[..])).map(|i| page_entry(&r[..], i)).collect());
                    pid = page_overflow(&r[..]);
                }
                pages
            })
            .collect()
    }

    /// [`chain_pages`] with each page's entries sorted: swap-removal order
    /// within a page depends on the victims' order, the set does not.
    fn chain_page_sets(h: &HashIndex) -> Vec<Vec<Vec<(Key, Rid)>>> {
        let mut chains = chain_pages(h);
        for page in chains.iter_mut().flatten() {
            page.sort_unstable();
        }
        chains
    }

    #[test]
    fn bulk_delete_matches_sequential_deletes() {
        // Three buckets and ~4 pages of entries per bucket, so victims sit
        // in overflow pages too; every key is present under two RIDs, and
        // one entry is stored twice.
        let build = || {
            let mut h = HashIndex::create(pool(), 3, StructureId::Hash(0)).unwrap();
            for k in 0..(BUCKET_CAP * 6) as u64 {
                h.insert(k, rid(k)).unwrap();
                h.insert(k, rid(k + 1)).unwrap();
            }
            h.insert(5, rid(5)).unwrap();
            h
        };
        let last = (BUCKET_CAP * 6 - 1) as u64;
        let cases: Vec<(&str, Vec<(Key, Rid)>)> = vec![
            ("empty", vec![]),
            (
                "duplicate keys, distinct rids",
                (0..200)
                    .flat_map(|k| [(k, rid(k)), (k, rid(k + 1))])
                    .collect(),
            ),
            (
                "absent entries",
                vec![(10, rid(99)), (1 << 40, rid(1)), (3, rid(3)), (7, rid(70))],
            ),
            (
                "listed twice",
                vec![
                    (5, rid(5)),
                    (9, rid(9)),
                    (5, rid(5)),
                    (9, rid(9)),
                    (5, rid(5)),
                ],
            ),
            (
                "overflow pages",
                (last - 300..=last).rev().map(|k| (k, rid(k + 1))).collect(),
            ),
            (
                "every entry, unsorted",
                (0..=last)
                    .rev()
                    .flat_map(|k| [(k, rid(k + 1)), (k, rid(k))])
                    .collect(),
            ),
        ];
        for (name, victims) in cases {
            let mut seq = build();
            let mut bulk = build();
            let mut expect = 0;
            for &(k, r) in &victims {
                expect += usize::from(seq.delete(k, r).unwrap());
            }
            assert_eq!(bulk.bulk_delete(&victims).unwrap(), expect, "{name}: count");
            assert_eq!(bulk.len(), seq.len(), "{name}: len");
            assert_eq!(bulk.pages().unwrap(), seq.pages().unwrap(), "{name}: pages");
            assert_eq!(
                chain_page_sets(&bulk),
                chain_page_sets(&seq),
                "{name}: pages' entries"
            );
            assert!(bulk.audit().unwrap().violations.is_empty(), "{name}");
        }
    }

    #[test]
    fn bulk_insert_matches_sequential_inserts() {
        // Duplicate keys, input out of bucket order, and one bucket long
        // enough to chain several overflow pages; the second batch lands on
        // chains that already hold entries and holes left by deletes.
        let first: Vec<(Key, Rid)> = (0..(BUCKET_CAP * 10) as u64)
            .rev()
            .map(|i| (i % 1500, rid(i)))
            .collect();
        let second: Vec<(Key, Rid)> = (0..400u64).map(|i| (i * 7, rid(i + 9))).collect();
        let holes: Vec<(Key, Rid)> = first.iter().copied().step_by(5).collect();
        let mut seq = HashIndex::create(pool(), 4, StructureId::Hash(0)).unwrap();
        let mut bulk = HashIndex::create(pool(), 4, StructureId::Hash(0)).unwrap();
        for &(k, r) in &first {
            seq.insert(k, r).unwrap();
        }
        bulk.bulk_insert(&first).unwrap();
        assert_eq!(chain_pages(&bulk), chain_pages(&seq), "fresh build");
        for &(k, r) in &holes {
            assert!(seq.delete(k, r).unwrap());
            assert!(bulk.delete(k, r).unwrap());
        }
        for &(k, r) in &second {
            seq.insert(k, r).unwrap();
        }
        bulk.bulk_insert(&second).unwrap();
        bulk.bulk_insert(&[]).unwrap();
        assert_eq!(
            chain_pages(&bulk),
            chain_pages(&seq),
            "build onto a used index"
        );
        assert_eq!(bulk.len(), seq.len());
        assert!(bulk.max_chain_len().unwrap() >= 3);
        assert!(bulk.audit().unwrap().violations.is_empty());
    }

    #[test]
    fn paused_mid_sweep_bulk_delete_holds_no_pins_and_matches_uninterrupted() {
        // Eight buckets of ~3-page chains: the sweep crosses a checkpoint
        // per chain page, so a pause trip lands mid-sweep. Parked ⇒ zero
        // pinned frames; resumed ⇒ the exact state an uninterrupted sweep
        // produces.
        let n = (BUCKET_CAP * 20) as u64;
        let mut reference = HashIndex::create(pool(), 8, StructureId::Hash(0)).unwrap();
        let p = pool();
        let mut h = HashIndex::create(p.clone(), 8, StructureId::Hash(0)).unwrap();
        for k in 0..n {
            reference.insert(k, rid(k)).unwrap();
            h.insert(k, rid(k)).unwrap();
        }
        let victims: Vec<(Key, Rid)> = (0..n).step_by(2).map(|k| (k, rid(k))).collect();
        assert_eq!(reference.bulk_delete(&victims).unwrap(), victims.len());

        let pacer = bd_storage::Pacer::new();
        pacer.pause_after(7);
        std::thread::scope(|s| {
            let worker = s.spawn(|| {
                let _g = pacer.enter();
                assert_eq!(h.bulk_delete(&victims).unwrap(), victims.len());
            });
            assert!(
                pacer.wait_parked(1, std::time::Duration::from_secs(10)),
                "bulk delete never parked mid-sweep"
            );
            assert_eq!(p.pinned_frames(), 0, "parked mid-sweep with a pin held");
            pacer.resume();
            worker.join().unwrap();
        });

        assert_eq!(h.len(), reference.len());
        assert_eq!(
            chain_pages(&h),
            chain_pages(&reference),
            "resumed sweep diverged"
        );
    }

    #[test]
    fn scrub_destroys_swap_removed_entry_images() {
        let tag = |i: u64| 0xFEED_FACE_0000_0000u64 | (i * 0x0101);
        let mut h = HashIndex::create(pool(), 2, StructureId::Hash(0)).unwrap();
        let n = (BUCKET_CAP + BUCKET_CAP / 2) as u64;
        for i in 0..n {
            h.insert(tag(i), rid(i)).unwrap();
        }
        let victims: Vec<u64> = (0..n).step_by(2).collect();
        for &i in &victims {
            assert!(h.delete(tag(i), rid(i)).unwrap());
        }
        // Swap-remove leaves stale images beyond n_entries on some page.
        let dirtied = h.scrub().unwrap();
        assert!(dirtied > 0, "delete left no residue to scrub?");
        h.pool.flush_all().unwrap();
        // Logical state intact, physical images gone.
        for i in 0..n {
            let expect = if i % 2 == 0 { vec![] } else { vec![rid(i)] };
            assert_eq!(h.search(tag(i)).unwrap(), expect, "key {i}");
        }
        let pages = h.pages().unwrap();
        h.pool.with_disk(|d| {
            for &p in &pages {
                let img = d.peek(p).unwrap();
                for &i in &victims {
                    let t = tag(i).to_le_bytes();
                    assert!(
                        !img.windows(8).any(|w| w == t),
                        "victim key {i} survives on page {p}"
                    );
                }
            }
        });
        assert_eq!(h.scrub().unwrap(), 0, "second scrub finds nothing");
    }

    #[test]
    fn scan_returns_every_entry_once() {
        let mut h = HashIndex::with_capacity(pool(), 1000, StructureId::Hash(0)).unwrap();
        for k in 0..1000u64 {
            h.insert(k * 3, rid(k)).unwrap();
        }
        let mut scanned = h.scan().unwrap();
        scanned.sort_unstable();
        let mut expect: Vec<(Key, Rid)> = (0..1000u64).map(|k| (k * 3, rid(k))).collect();
        expect.sort_unstable();
        assert_eq!(scanned, expect);
    }

    #[test]
    fn with_capacity_keeps_chains_short() {
        let mut h = HashIndex::with_capacity(pool(), 10_000, StructureId::Hash(0)).unwrap();
        for k in 0..10_000u64 {
            h.insert(k, rid(k)).unwrap();
        }
        assert!(
            h.max_chain_len().unwrap() <= 3,
            "chains: {}",
            h.max_chain_len().unwrap()
        );
    }

    #[test]
    fn audit_dumps_chains_and_flags_misplaced_entries() {
        let mut h = HashIndex::create(pool(), 4, StructureId::Hash(0)).unwrap();
        for k in 0..200u64 {
            h.insert(k, rid(k)).unwrap();
        }
        let audit = h.audit().unwrap();
        assert!(audit.violations.is_empty(), "{:?}", audit.violations);
        let mut got = audit.entries();
        got.sort_unstable();
        let mut expect = h.scan().unwrap();
        expect.sort_unstable();
        assert_eq!(got, expect);

        // Plant a misplaced entry: write a key into a bucket it does not
        // hash to, behind the index's back.
        let misplaced = (0u64..).find(|&k| bucket_of(k, 4) != 0).unwrap();
        let p0 = h.buckets[0];
        {
            let mut w = h.pool.pin_write(p0).unwrap();
            let n = page_n(&w[..]);
            assert!(n < BUCKET_CAP);
            page_set_entry(&mut w[..], n, (misplaced, Rid::new(7, 7)));
            page_set_n(&mut w[..], n + 1);
        }
        h.n_entries += 1;
        let audit = h.audit().unwrap();
        assert!(
            audit
                .violations
                .iter()
                .any(|v| v.contains("hashes to bucket")),
            "{:?}",
            audit.violations
        );
    }

    #[test]
    fn audit_flags_counter_drift() {
        let mut h = HashIndex::create(pool(), 2, StructureId::Hash(0)).unwrap();
        for k in 0..20u64 {
            h.insert(k, rid(k)).unwrap();
        }
        h.n_entries += 1; // simulate a lost update to the counter
        let audit = h.audit().unwrap();
        assert!(
            audit.violations.iter().any(|v| v.contains("counter")),
            "{:?}",
            audit.violations
        );
    }

    #[test]
    fn model_equivalence_under_mixed_ops() {
        use std::collections::HashSet;
        let mut h = HashIndex::create(pool(), 8, StructureId::Hash(0)).unwrap();
        let mut model: HashSet<(Key, Rid)> = HashSet::new();
        let mut x = 99u64;
        for _ in 0..3000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = x % 200;
            let r = rid(x % 50);
            if x.is_multiple_of(3) {
                let existed = h.delete(k, r).unwrap();
                assert_eq!(existed, model.remove(&(k, r)));
            } else if model.insert((k, r)) {
                h.insert(k, r).unwrap();
            }
        }
        let mut scanned = h.scan().unwrap();
        scanned.sort_unstable();
        let mut expect: Vec<(Key, Rid)> = model.into_iter().collect();
        expect.sort_unstable();
        assert_eq!(scanned, expect);
    }
}
