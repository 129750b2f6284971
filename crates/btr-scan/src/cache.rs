//! Sharded LRU cache of *decoded* blocks.
//!
//! Decompression is the CPU side of the paper's scan economics; once a block
//! has been decoded for one scan, a repeat scan of the same hot column should
//! pay neither the GET nor the decode. The cache holds [`DecodedColumn`]s
//! keyed by `(relation, column, block)` under a byte budget, sharded by key
//! hash so concurrent decode workers don't serialize on one lock.

use btrblocks::DecodedColumn;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use btr_sync::{OrderedMutex, Rank};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const SHARDS: usize = 8;

/// Identity of a decoded block in the cache.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BlockKey {
    /// Relation identity (source-provided, e.g. the object key).
    pub relation: Arc<str>,
    /// Column index within the relation.
    pub column: u32,
    /// Block index within the column.
    pub block: u32,
}

struct Entry {
    value: Arc<DecodedColumn>,
    bytes: usize,
    tick: u64,
}

struct Shard {
    map: HashMap<BlockKey, Entry>,
    /// Recency order: tick → key. Ticks are unique per shard.
    lru: BTreeMap<u64, BlockKey>,
    bytes: usize,
    tick: u64,
}

impl Shard {
    fn new() -> Shard {
        Shard {
            map: HashMap::new(),
            lru: BTreeMap::new(),
            bytes: 0,
            tick: 0,
        }
    }
}

/// Counters exposed by [`BlockCache::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a decoded block.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted to stay within the byte budget.
    pub evictions: u64,
    /// Successful inserts (oversized values are refused, not counted).
    pub insertions: u64,
    /// Live entries right now.
    pub entries: usize,
    /// Decoded bytes held right now.
    pub bytes: usize,
    /// Configured byte budget.
    pub byte_budget: usize,
}

impl CacheStats {
    /// Fraction of lookups that hit, or 0.0 before any lookup.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Approximate heap footprint of a decoded block.
pub(crate) fn decoded_bytes(col: &DecodedColumn) -> usize {
    match col {
        DecodedColumn::Int(v) => v.len() * 4,
        DecodedColumn::Double(v) => v.len() * 8,
        DecodedColumn::Str(s) => s.pool.len() + s.views.len() * 8,
    }
}

/// A sharded LRU over decoded blocks; see the module docs.
/// One rank for all shards (DESIGN.md §15): a thread holds at most one
/// shard at a time (pressure/stats iterate with per-iteration guards), so
/// siblings can share the rank and the checker still catches pairwise holds.
const CACHE_SHARD_RANK: Rank = Rank::new(70, "scan.cache.shard");

pub struct BlockCache {
    shards: Vec<OrderedMutex<Shard>>,
    shard_budget: usize,
    byte_budget: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    insertions: AtomicU64,
}

impl BlockCache {
    /// Creates a cache holding at most `byte_budget` decoded bytes (split
    /// evenly across shards).
    pub fn new(byte_budget: usize) -> BlockCache {
        BlockCache {
            shards: (0..SHARDS).map(|_| OrderedMutex::new(CACHE_SHARD_RANK, Shard::new())).collect(),
            shard_budget: byte_budget / SHARDS,
            byte_budget,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, key: &BlockKey) -> &OrderedMutex<Shard> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        // lint: allow(indexing) index is reduced mod SHARDS
        &self.shards[(h.finish() as usize) % SHARDS]
    }

    /// Looks up a decoded block, refreshing its recency on hit.
    pub fn get(&self, key: &BlockKey) -> Option<Arc<DecodedColumn>> {
        let mut shard = self.shard_of(key).lock();
        shard.tick += 1;
        let new_tick = shard.tick;
        let (value, old_tick) = match shard.map.get_mut(key) {
            Some(entry) => {
                let old = entry.tick;
                entry.tick = new_tick;
                (entry.value.clone(), old)
            }
            None => {
                drop(shard);
                self.misses.fetch_add(1, Ordering::Relaxed); // ordering: statistics counter
                return None;
            }
        };
        shard.lru.remove(&old_tick);
        shard.lru.insert(new_tick, key.clone());
        drop(shard);
        self.hits.fetch_add(1, Ordering::Relaxed); // ordering: statistics counter
        Some(value)
    }

    /// Inserts a decoded block, evicting least-recently-used entries until
    /// the shard fits its budget. Values larger than a whole shard's budget
    /// are refused (caching them would evict everything for one scan's
    /// transient block).
    ///
    /// Returns every value the cache no longer holds — LRU victims, a
    /// replaced entry for the same key, or the refused oversized value
    /// itself — so callers can recycle their buffers into a decode arena
    /// instead of freeing them.
    pub fn insert(&self, key: BlockKey, value: Arc<DecodedColumn>) -> Vec<Arc<DecodedColumn>> {
        let bytes = decoded_bytes(&value);
        if bytes > self.shard_budget {
            return vec![value];
        }
        let mut displaced = Vec::new();
        let mut evicted = 0u64;
        {
            let mut shard = self.shard_of(&key).lock();
            shard.tick += 1;
            let tick = shard.tick;
            if let Some(old) = shard.map.remove(&key) {
                shard.lru.remove(&old.tick);
                shard.bytes -= old.bytes;
                displaced.push(old.value);
            }
            shard.bytes += bytes;
            shard.map.insert(key.clone(), Entry { value, bytes, tick });
            shard.lru.insert(tick, key);
            while shard.bytes > self.shard_budget {
                let Some((&oldest, _)) = shard.lru.iter().next() else {
                    break;
                };
                let Some(victim_key) = shard.lru.remove(&oldest) else {
                    break;
                };
                if let Some(victim) = shard.map.remove(&victim_key) {
                    shard.bytes -= victim.bytes;
                    evicted += 1;
                    displaced.push(victim.value);
                }
            }
        }
        self.insertions.fetch_add(1, Ordering::Relaxed); // ordering: statistics counter
        self.evictions.fetch_add(evicted, Ordering::Relaxed); // ordering: statistics counter
        displaced
    }

    /// Whether the cache currently holds `key`, without refreshing its
    /// recency or perturbing hit/miss counters. The scan service's coalescer
    /// uses this to skip blocks another scan already decoded when sizing a
    /// ranged fetch.
    pub fn contains(&self, key: &BlockKey) -> bool {
        self.shard_of(key).lock().map.contains_key(key)
    }

    /// Byte-budget pressure in `[0, 1+]`: held bytes over budget. The
    /// pipeline's degradation ladder bypasses cache inserts for streamed
    /// blocks once this crosses its threshold, so a fault-storm scan cannot
    /// churn the working set of healthy scans. A zero-budget cache is always
    /// fully pressured.
    pub fn pressure(&self) -> f64 {
        if self.byte_budget == 0 {
            return 1.0;
        }
        let bytes: usize = self.shards.iter().map(|s| s.lock().bytes).sum();
        bytes as f64 / self.byte_budget as f64
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        let (mut entries, mut bytes) = (0, 0);
        for shard in &self.shards {
            let s = shard.lock();
            entries += s.map.len();
            bytes += s.bytes;
        }
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed), // ordering: statistics snapshot
            misses: self.misses.load(Ordering::Relaxed), // ordering: statistics snapshot
            evictions: self.evictions.load(Ordering::Relaxed), // ordering: statistics snapshot
            insertions: self.insertions.load(Ordering::Relaxed), // ordering: statistics snapshot
            entries,
            bytes,
            byte_budget: self.byte_budget,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(relation: &Arc<str>, column: u32, block: u32) -> BlockKey {
        BlockKey {
            relation: relation.clone(),
            column,
            block,
        }
    }

    fn int_block(len: usize, fill: i32) -> Arc<DecodedColumn> {
        Arc::new(DecodedColumn::Int(vec![fill; len]))
    }

    #[test]
    fn hit_miss_and_recency() {
        let cache = BlockCache::new(1 << 20);
        let rel: Arc<str> = Arc::from("r");
        let k = key(&rel, 0, 0);
        assert!(cache.get(&k).is_none());
        cache.insert(k.clone(), int_block(10, 7));
        assert_eq!(*cache.get(&k).unwrap(), DecodedColumn::Int(vec![7; 10]));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.bytes, 40);
        assert!(stats.hit_rate() > 0.49 && stats.hit_rate() < 0.51);
    }

    #[test]
    fn eviction_respects_budget_and_lru_order() {
        // One shard's budget is budget/8; pick sizes so 3 blocks overflow it.
        let cache = BlockCache::new(8 * 1000);
        let rel: Arc<str> = Arc::from("r");
        // All keys map to some shard; use many keys so each shard sees load.
        for i in 0..64 {
            cache.insert(key(&rel, 0, i), int_block(100, i as i32)); // 400 B each
        }
        let stats = cache.stats();
        assert!(stats.evictions > 0, "budget overflow must evict");
        assert!(
            stats.bytes <= stats.byte_budget,
            "held bytes {} exceed budget {}",
            stats.bytes,
            stats.byte_budget
        );
        assert_eq!(stats.entries as u64 + stats.evictions, stats.insertions);
    }

    #[test]
    fn recently_used_entries_survive_eviction() {
        let cache = BlockCache::new(8 * 1200); // shard budget 1200 B = 3×400B
        let rel: Arc<str> = Arc::from("r");
        // Find three keys in the same shard.
        let shard_ptr = |k: &BlockKey| cache.shard_of(k) as *const _;
        let base = key(&rel, 0, 0);
        let target = shard_ptr(&base);
        let mut same_shard = vec![base];
        let mut i = 1;
        while same_shard.len() < 4 {
            let k = key(&rel, 0, i);
            if shard_ptr(&k) == target {
                same_shard.push(k);
            }
            i += 1;
        }
        cache.insert(same_shard[0].clone(), int_block(100, 0));
        cache.insert(same_shard[1].clone(), int_block(100, 1));
        cache.insert(same_shard[2].clone(), int_block(100, 2));
        // Touch [0] so [1] is now the LRU victim.
        assert!(cache.get(&same_shard[0]).is_some());
        cache.insert(same_shard[3].clone(), int_block(100, 3));
        assert!(cache.get(&same_shard[0]).is_some(), "refreshed entry evicted");
        assert!(cache.get(&same_shard[1]).is_none(), "LRU entry not evicted");
        assert!(cache.get(&same_shard[2]).is_some());
        assert!(cache.get(&same_shard[3]).is_some());
    }

    #[test]
    fn oversized_values_are_refused() {
        let cache = BlockCache::new(8 * 100);
        let rel: Arc<str> = Arc::from("r");
        let refused = cache.insert(key(&rel, 0, 0), int_block(1000, 1)); // 4000 B > 100 B shard
        let stats = cache.stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.insertions, 0);
        assert_eq!(refused.len(), 1, "refused value handed back for recycling");
    }

    #[test]
    fn insert_returns_displaced_values_for_recycling() {
        let cache = BlockCache::new(1 << 20);
        let rel: Arc<str> = Arc::from("r");
        let k = key(&rel, 0, 0);
        assert!(cache.insert(k.clone(), int_block(10, 1)).is_empty());
        // Replacing the same key hands the old value back.
        let displaced = cache.insert(k.clone(), int_block(10, 2));
        assert_eq!(displaced.len(), 1);
        assert_eq!(*displaced[0], DecodedColumn::Int(vec![1; 10]));
        // LRU victims come back too: overflow one shard and collect them.
        let small = BlockCache::new(8 * 900); // shard budget 900 B = 2×400B
        let mut displaced_total = 0;
        for i in 0..64 {
            displaced_total += small.insert(key(&rel, 0, i), int_block(100, i as i32)).len();
        }
        let stats = small.stats();
        assert_eq!(displaced_total as u64, stats.evictions);
        assert!(displaced_total > 0);
    }

    #[test]
    fn reinsert_replaces_without_leaking_bytes() {
        let cache = BlockCache::new(1 << 20);
        let rel: Arc<str> = Arc::from("r");
        let k = key(&rel, 3, 9);
        cache.insert(k.clone(), int_block(100, 1));
        cache.insert(k.clone(), int_block(50, 2));
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.bytes, 200);
        assert_eq!(*cache.get(&k).unwrap(), DecodedColumn::Int(vec![2; 50]));
    }

    #[test]
    fn string_blocks_are_sized_by_pool_and_views() {
        use btrblocks::{StringArena, StringViews};
        let arena = StringArena::from_strs(&["abc", "de"]);
        let views = StringViews::from_arena(&arena);
        let col = DecodedColumn::Str(views);
        assert_eq!(decoded_bytes(&col), 5 + 2 * 8);
    }
}
