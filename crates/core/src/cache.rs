//! Plan caching: the LRU map behind [`crate::session::Session`] and the
//! sharded, lock-guarded variant behind [`crate::executor::Executor`].
//!
//! Plan generation (model evaluation, Auto-Gen DP, routing-script
//! construction) is the expensive half of serving a collective request, so
//! both execution front-ends amortise it through a cache keyed by the full
//! [`CollectiveRequest`]. The single-threaded [`PlanCache`] is a plain LRU
//! map; [`SharedPlanCache`] splits the key space over [`SHARD_COUNT`]
//! independently locked shards (selected by the request's hash) so
//! concurrent service traffic on *distinct* requests does not serialize on
//! one lock. Cached plans are handed out as [`Arc<ResolvedPlan>`], so a
//! cache hit never copies plan bytes and a shard lock is held only for the
//! map lookup — plan *generation* happens outside any critical section.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

use wse_model::Machine;

use crate::error::CollectiveError;
use crate::request::{CollectiveRequest, ResolvedPlan};

/// An LRU map from request to resolved plan.
///
/// Hand-rolled on `HashMap` plus a monotone use counter: capacities are
/// small (tens of plans), so eviction scans are cheap and we avoid an
/// external LRU dependency.
#[derive(Debug, Default)]
pub(crate) struct PlanCache {
    entries: HashMap<CollectiveRequest, (Arc<ResolvedPlan>, u64)>,
    tick: u64,
}

impl PlanCache {
    pub(crate) fn get(&mut self, request: &CollectiveRequest) -> Option<Arc<ResolvedPlan>> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(request).map(|(plan, last_used)| {
            *last_used = tick;
            Arc::clone(plan)
        })
    }

    /// Insert a plan, evicting the least-recently-used entry if `capacity`
    /// would be exceeded. Returns the number of evictions.
    pub(crate) fn insert(
        &mut self,
        request: CollectiveRequest,
        plan: Arc<ResolvedPlan>,
        capacity: usize,
    ) -> u64 {
        self.tick += 1;
        let mut evictions = 0;
        while self.entries.len() >= capacity.max(1) && !self.entries.contains_key(&request) {
            let Some(oldest) = self
                .entries
                .iter()
                .min_by_key(|(_, (_, last_used))| *last_used)
                .map(|(key, _)| *key)
            else {
                break;
            };
            self.entries.remove(&oldest);
            evictions += 1;
        }
        self.entries.insert(request, (plan, self.tick));
        evictions
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(crate) fn clear(&mut self) {
        self.entries.clear();
    }
}

/// What a [`SharedPlanCache::resolve`] call had to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ResolveOutcome {
    /// Whether the plan was answered from the cache.
    pub hit: bool,
    /// Entries evicted while inserting a freshly generated plan.
    pub evictions: u64,
}

/// Number of independently locked shards of a [`SharedPlanCache`]. A small
/// power of two: enough to spread a serving mix of a few dozen distinct
/// request shapes over distinct locks, small enough that per-shard LRU
/// capacities stay meaningful.
pub(crate) const SHARD_COUNT: usize = 8;

/// A thread-safe plan cache shared by the workers of an executor, sharded
/// by request hash.
///
/// Each shard is its own `Mutex<PlanCache>`; a request maps to a shard by
/// its hash, so concurrent resolutions of distinct requests usually touch
/// distinct locks and do not serialize. A shard's mutex guards only its LRU
/// map; the expensive [`CollectiveRequest::resolve`] call runs outside any
/// lock. Two workers racing on the same *previously unseen* request may
/// therefore both generate the plan — plan generation is deterministic, so
/// either copy is correct and the second insert simply refreshes the entry.
/// That trade keeps distinct requests fully parallel, which matters far
/// more for serving throughput than the rare duplicated generation.
///
/// The configured capacity is split evenly over the shards
/// (`ceil(capacity / SHARD_COUNT)`, at least 1 per shard), so the total
/// number of cached plans is bounded by `capacity` rounded up to shard
/// granularity.
#[derive(Debug)]
pub(crate) struct SharedPlanCache {
    shards: [Mutex<PlanCache>; SHARD_COUNT],
}

impl Default for SharedPlanCache {
    fn default() -> Self {
        SharedPlanCache { shards: std::array::from_fn(|_| Mutex::new(PlanCache::default())) }
    }
}

impl SharedPlanCache {
    /// Resolve `request` through its shard, generating (outside any lock)
    /// on a miss.
    pub(crate) fn resolve(
        &self,
        request: &CollectiveRequest,
        machine: &Machine,
        capacity: usize,
    ) -> Result<(Arc<ResolvedPlan>, ResolveOutcome), CollectiveError> {
        let shard = self.shard_for(request);
        if let Some(cached) = self.lock(shard).get(request) {
            return Ok((cached, ResolveOutcome { hit: true, evictions: 0 }));
        }
        let resolved = Arc::new(request.resolve(machine)?);
        let per_shard = capacity.div_ceil(SHARD_COUNT).max(1);
        let evictions = self.lock(shard).insert(*request, Arc::clone(&resolved), per_shard);
        Ok((resolved, ResolveOutcome { hit: false, evictions }))
    }

    /// Look up a cached plan **without generating on a miss** (and without
    /// touching LRU recency — a peek is an observation, not a use).
    ///
    /// This is the admission controller's view of the cache: the submit path
    /// wants a warm plan's recorded prediction when one exists, but must
    /// never pay for plan generation itself.
    pub(crate) fn peek(&self, request: &CollectiveRequest) -> Option<Arc<ResolvedPlan>> {
        let shard = self.shard_for(request);
        let guard = self.lock(shard);
        guard.entries.get(request).map(|(plan, _)| Arc::clone(plan))
    }

    /// Number of plans currently cached across all shards.
    pub(crate) fn len(&self) -> usize {
        (0..SHARD_COUNT).map(|shard| self.lock(shard).len()).sum()
    }

    /// Drop every cached plan.
    pub(crate) fn clear(&self) {
        for shard in 0..SHARD_COUNT {
            self.lock(shard).clear();
        }
    }

    /// The shard a request's plan lives in.
    fn shard_for(&self, request: &CollectiveRequest) -> usize {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        request.hash(&mut hasher);
        hasher.finish() as usize % SHARD_COUNT
    }

    fn lock(&self, shard: usize) -> std::sync::MutexGuard<'_, PlanCache> {
        // The cache never panics while mutating (insert/get are infallible
        // map operations), so a poisoned lock can only mean a *caller*
        // panicked elsewhere while holding it; the data is still consistent.
        self.shards[shard].lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Topology;

    fn request(p: u32) -> CollectiveRequest {
        CollectiveRequest::reduce(Topology::line(p), 8)
    }

    #[test]
    fn shared_cache_hits_return_the_same_arc() {
        let cache = SharedPlanCache::default();
        let machine = Machine::wse2();
        let (first, outcome) = cache.resolve(&request(8), &machine, 4).unwrap();
        assert!(!outcome.hit);
        let (second, outcome) = cache.resolve(&request(8), &machine, 4).unwrap();
        assert!(outcome.hit);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn shared_cache_respects_capacity() {
        // The shared cache splits its capacity over SHARD_COUNT shards, so
        // the exact resident set depends on how requests hash — the bound is
        // `per-shard capacity × shards`, and every insert beyond a full
        // shard evicts.
        let cache = SharedPlanCache::default();
        let machine = Machine::wse2();
        let capacity = 3usize;
        let per_shard = capacity.div_ceil(SHARD_COUNT).max(1);
        let distinct = 3 * SHARD_COUNT as u32;
        let mut evictions = 0;
        for p in 2..2 + distinct {
            let (_, outcome) = cache.resolve(&request(p), &machine, capacity).unwrap();
            evictions += outcome.evictions;
        }
        assert!(cache.len() <= per_shard * SHARD_COUNT);
        assert_eq!(cache.len() as u64 + evictions, distinct as u64, "every insert is accounted");
        assert!(evictions > 0, "inserting far beyond capacity must evict");
        cache.clear();
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn shared_cache_spreads_requests_over_shards() {
        // A serving mix of distinct shapes must not all land in one shard
        // (that would reintroduce the single global lock).
        let cache = SharedPlanCache::default();
        let shards: std::collections::HashSet<usize> =
            (2..34).map(|p| cache.shard_for(&request(p))).collect();
        assert!(shards.len() > SHARD_COUNT / 2, "32 requests hit only {} shards", shards.len());
    }

    #[test]
    fn shared_cache_serves_concurrent_resolutions() {
        let cache = SharedPlanCache::default();
        let machine = Machine::wse2();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for p in 2..10 {
                        let (plan, _) = cache.resolve(&request(p), &machine, 32).unwrap();
                        assert_eq!(plan.plan.dim().num_pes(), p as usize);
                    }
                });
            }
        });
        assert_eq!(cache.len(), 8);
    }

    #[test]
    fn peek_never_generates_and_never_touches_recency() {
        let cache = SharedPlanCache::default();
        let machine = Machine::wse2();
        assert!(cache.peek(&request(8)).is_none());
        assert_eq!(cache.len(), 0, "a cold peek must not generate a plan");
        let (resolved, _) = cache.resolve(&request(8), &machine, 4).unwrap();
        let peeked = cache.peek(&request(8)).expect("warm peek hits");
        assert!(Arc::ptr_eq(&resolved, &peeked));
        let tick_before = cache.lock(cache.shard_for(&request(8))).tick;
        cache.peek(&request(8));
        let tick_after = cache.lock(cache.shard_for(&request(8))).tick;
        assert_eq!(tick_before, tick_after, "peeks are not LRU uses");
    }

    #[test]
    fn reinserting_a_present_key_does_not_evict() {
        // Regression: the LRU eviction loop must not evict a victim when the
        // inserted key is already present (a racing double-generation in the
        // shared cache refreshes the entry instead of shrinking the cache).
        let mut cache = PlanCache::default();
        let machine = Machine::wse2();
        for p in [2u32, 3, 4] {
            let plan = Arc::new(request(p).resolve(&machine).unwrap());
            cache.insert(request(p), plan, 3);
        }
        let again = Arc::new(request(3).resolve(&machine).unwrap());
        let evictions = cache.insert(request(3), again, 3);
        assert_eq!(evictions, 0);
        assert_eq!(cache.len(), 3);
    }
}
