//! Keyed answer caching — the serving layer in front of the pipeline.
//!
//! [`FinSql::answer`](crate::pipeline::FinSql::answer) is deterministic
//! per `(database, question)` because every RNG draw is seeded from
//! [`question_rng`](crate::pipeline::FinSql::question_rng); a cached
//! answer is therefore *exactly* the answer a recomputation would
//! produce. What can silently change an answer is configuration: linker
//! top-k, candidate count, calibration steps, the base-model profile or
//! the plugins loaded per database. [`ConfigFingerprint`] hashes every
//! one of those knobs into the cache key, so a stale-config hit is
//! structurally impossible — a changed knob changes the key and the old
//! entry is simply never found.
//!
//! [`AnswerCache`] is sharded and lock-striped: keys are spread over
//! independently-locked shards by a full FNV key hash that is reused as
//! the shard's bucket key, so a lookup never allocates — the question is
//! compared borrowed and interned into an `Arc<str>` only when an entry
//! is first admitted. Answers are `Arc<str>` too: a hit is a refcount
//! bump, never a copy.
//!
//! Eviction is segmented LRU with TinyLFU admission. Each shard is split
//! into a *probationary* and a *protected* segment: new entries enter
//! probation, a probationary hit promotes the entry into the protected
//! segment (bounded at ~80% of the shard, demoting its own LRU back to
//! probation when it overflows), and at capacity a candidate may
//! displace the eviction victim only when the shard's
//! [`FrequencySketch`] estimates the candidate's recent lookup frequency
//! *strictly above* the victim's. A flood of one-shot questions
//! therefore bounces off a full shard instead of flushing the hot set.
//!
//! Eviction and admission can only change *hit or miss*, never an
//! answer: every entry stores the deterministic answer for its key, and
//! a rejected or evicted entry is simply recomputed — byte-identical —
//! on the next miss. Recency is tracked lazily in per-segment queues: each touch
//! stamps the entry and appends `(stamp, key)`, eviction pops the queue
//! front skipping stale stamps, and a queue is compacted when stale
//! records outnumber live ones — so `get` never scans a queue.
//! [`Answerer`] is the trait the FinSQL system and the fine-tuning/GPT
//! baselines share so the bench harness can thread one cache through
//! any of them.

use crate::metrics::EvalMetrics;
use crate::tinylfu::FrequencySketch;
use bull::DbId;
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A stable hash of every configuration knob that can change an answer.
///
/// Two systems with equal fingerprints produce byte-identical answers
/// for the same `(db, question)`; any single knob mutation yields a
/// different fingerprint (each field occupies a fixed-width slot in the
/// underlying FNV-1a stream, and FNV-1a's per-byte step `h = (h ^ b) * p`
/// is injective in `h` for odd `p`, so a difference introduced at one
/// slot can never be cancelled by identical later slots).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConfigFingerprint(pub u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Incremental builder for a [`ConfigFingerprint`]. Fields must be
/// pushed in a fixed order; strings are length-prefixed so the byte
/// stream stays prefix-free.
#[derive(Debug, Clone, Copy)]
pub struct FingerprintBuilder {
    h: u64,
}

impl FingerprintBuilder {
    /// Starts a fingerprint under a domain label (so e.g. a FinSQL
    /// system and a baseline with coincidentally equal knobs can never
    /// share keys).
    pub fn new(domain: &str) -> Self {
        FingerprintBuilder { h: FNV_OFFSET }.push_str(domain)
    }

    fn push_byte(mut self, b: u8) -> Self {
        self.h = (self.h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        self
    }

    /// Pushes a 64-bit value as a fixed-width little-endian slot.
    pub fn push_u64(mut self, v: u64) -> Self {
        for b in v.to_le_bytes() {
            self = self.push_byte(b);
        }
        self
    }

    pub fn push_usize(self, v: usize) -> Self {
        self.push_u64(v as u64)
    }

    pub fn push_bool(self, v: bool) -> Self {
        self.push_u64(u64::from(v))
    }

    /// Pushes a float by bit pattern (`-0.0` and `0.0` differ, NaNs are
    /// stable — fine for configuration knobs that are never computed).
    pub fn push_f64(self, v: f64) -> Self {
        self.push_u64(v.to_bits())
    }

    /// Pushes a length-prefixed string.
    pub fn push_str(mut self, s: &str) -> Self {
        self = self.push_u64(s.len() as u64);
        for b in s.as_bytes() {
            self = self.push_byte(*b);
        }
        self
    }

    pub fn finish(self) -> ConfigFingerprint {
        ConfigFingerprint(self.h)
    }
}

/// The full FNV key hash — used for shard routing *and* as the bucket
/// key inside the shard, so a lookup needs no allocation and no second
/// hash pass.
fn key_hash(db: DbId, question: &str, fingerprint: ConfigFingerprint) -> u64 {
    FingerprintBuilder::new(db.as_str())
        .push_str(question)
        .push_u64(fingerprint.0)
        .finish()
        .0
}

/// A cache-key question as the caller holds it: anything string-shaped,
/// optionally carrying an already-interned `Arc<str>` allocation the
/// cache can share on insert instead of copying the question bytes.
///
/// The scheduler interns each question it queues (a miss) once at
/// submit time and threads that `Arc<str>` all the way to the cache
/// fill, so an admitted insert is a refcount bump of the caller's
/// allocation — the no-clone invariant
/// `bench::traffic::key_interning_probe` asserts with `Arc::ptr_eq`.
/// Plain `&str`/`String` callers fall back to one copy at admission time
/// (and only then — a rejected or resident insert never copies).
pub trait QuestionKey {
    /// The question text, borrowed.
    fn as_str(&self) -> &str;

    /// The interned allocation, when the caller already has one; `None`
    /// means the cache copies the bytes if (and only if) it admits the
    /// key.
    fn shared(&self) -> Option<&Arc<str>> {
        None
    }
}

impl QuestionKey for str {
    fn as_str(&self) -> &str {
        self
    }
}

impl QuestionKey for String {
    fn as_str(&self) -> &str {
        self
    }
}

impl QuestionKey for Arc<str> {
    fn as_str(&self) -> &str {
        self
    }

    fn shared(&self) -> Option<&Arc<str>> {
        Some(self)
    }
}

impl<Q: QuestionKey + ?Sized> QuestionKey for &Q {
    fn as_str(&self) -> &str {
        (**self).as_str()
    }

    fn shared(&self) -> Option<&Arc<str>> {
        (**self).shared()
    }
}

/// One cache key: the question pinned to its database and the full
/// configuration fingerprint of the system that answers it. The
/// question is interned as `Arc<str>` — cloning a key for a recency
/// record is a refcount bump, not a string copy — and the precomputed
/// FNV hash rides along so no path ever rehashes the question.
#[derive(Debug, Clone)]
struct CacheKey {
    h: u64,
    db: DbId,
    question: Arc<str>,
    fingerprint: ConfigFingerprint,
}

impl CacheKey {
    /// Does this resident key match a borrowed lookup?
    fn matches(&self, db: DbId, question: &str, fingerprint: ConfigFingerprint) -> bool {
        self.db == db && self.fingerprint == fingerprint && &*self.question == question
    }

    /// Equality against another interned key (recency records clone the
    /// resident key, so the pointer check almost always short-circuits).
    fn same_key(&self, other: &CacheKey) -> bool {
        self.h == other.h
            && self.db == other.db
            && self.fingerprint == other.fingerprint
            && (Arc::ptr_eq(&self.question, &other.question) || self.question == other.question)
    }
}

/// Which SLRU segment an entry currently lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Seg {
    Probation,
    Protected,
}

/// One resident entry: the shared answer, the stamp of its latest touch
/// and its current segment.
#[derive(Debug)]
struct Entry {
    answer: Arc<str>,
    stamp: u64,
    seg: Seg,
}

/// Policy context threaded from the cache into shard operations: the
/// per-shard capacity caps.
#[derive(Debug, Clone, Copy)]
struct PolicyCtx {
    /// Max entries per shard; `None` = unbounded.
    shard_cap: Option<usize>,
    /// Max protected entries per shard; `None` = unbounded.
    protected_cap: Option<usize>,
}

/// What a shard-level refresh (hit or idempotent re-insert) did.
#[derive(Debug)]
struct Refreshed {
    answer: Arc<str>,
    promoted: bool,
    demotions: u64,
}

/// What a shard-level insert did.
#[derive(Debug)]
enum ShardInsert {
    /// A new entry was admitted (evicting `evicted` victims under a cap).
    Fresh { evicted: u64 },
    /// The key was already resident — recency refreshed like a hit.
    Resident { promoted: bool, demotions: u64 },
    /// TinyLFU admission rejected the candidate: its estimated frequency
    /// did not beat the eviction victim's, so the shard is unchanged.
    Rejected,
}

/// One lock-striped shard: hash-bucketed entries plus lazily-maintained
/// per-segment recency queues. Every touch (insert, hit, promotion,
/// demotion) takes a fresh stamp and appends `(stamp, key)` to the queue
/// of the entry's segment; a record whose stamp no longer matches its
/// entry's is stale and is skipped at eviction time and dropped at
/// compaction time. Stamps are unique per shard, so a stamp match also
/// proves the record sits in the entry's current segment queue.
#[derive(Debug, Default)]
struct Shard {
    /// Entries bucketed by full key hash; the inner `Vec` holds hash
    /// collisions (virtually always length 1). Never iterated — all
    /// access is keyed — so no `HashMap` order can leak anywhere.
    buckets: HashMap<u64, Vec<(CacheKey, Entry)>>,
    /// Resident entries (sum of bucket lengths, tracked directly).
    live: usize,
    /// Resident entries currently in the protected segment.
    protected_live: usize,
    /// Recency queue of the probationary segment.
    probation: VecDeque<(u64, CacheKey)>,
    /// Recency queue of the protected segment.
    protected: VecDeque<(u64, CacheKey)>,
    next_stamp: u64,
    /// TinyLFU frequency sketch — present only under a capacity cap.
    sketch: Option<FrequencySketch>,
}

/// The stamp of the resident entry for `key`, if any.
fn entry_stamp(
    buckets: &HashMap<u64, Vec<(CacheKey, Entry)>>,
    key: &CacheKey,
) -> Option<u64> {
    buckets.get(&key.h)?.iter().find(|(k, _)| k.same_key(key)).map(|(_, e)| e.stamp)
}

/// Drops every stale queue record, keeping live ones in order.
fn compact_queue(
    buckets: &HashMap<u64, Vec<(CacheKey, Entry)>>,
    queue: &mut VecDeque<(u64, CacheKey)>,
) {
    queue.retain(|(stamp, key)| entry_stamp(buckets, key) == Some(*stamp));
}

/// Re-issues stamps `fresh+1..` to a compacted queue in order, keeping
/// each record's entry in step. Returns the last stamp issued.
fn renumber_queue(
    buckets: &mut HashMap<u64, Vec<(CacheKey, Entry)>>,
    queue: &mut VecDeque<(u64, CacheKey)>,
    mut fresh: u64,
) -> u64 {
    for (stamp, key) in queue.iter_mut() {
        fresh += 1;
        if let Some(bucket) = buckets.get_mut(&key.h) {
            if let Some((_, entry)) = bucket.iter_mut().find(|(k, _)| k.same_key(key)) {
                entry.stamp = fresh;
            }
        }
        *stamp = fresh;
    }
    fresh
}

impl Shard {
    /// Hands out the next recency stamp (monotonic per shard). At the
    /// top of the counter the shard renumbers itself instead of
    /// overflowing: a wrapped counter re-issues stamps that still sit
    /// live in the queues, so stale records would start passing the
    /// liveness check and eviction order would silently corrupt.
    fn stamp(&mut self) -> u64 {
        if self.next_stamp == u64::MAX {
            self.renumber();
        }
        self.next_stamp += 1;
        self.next_stamp
    }

    /// Stamp renormalisation: drop stale queue records, then re-issue
    /// stamps `1..=k` to the surviving records in queue order (which is
    /// exactly chronological touch order per segment, so relative
    /// recency — and therefore eviction order — is preserved bit for
    /// bit) and restart the counter above them.
    fn renumber(&mut self) {
        compact_queue(&self.buckets, &mut self.probation);
        compact_queue(&self.buckets, &mut self.protected);
        let fresh = renumber_queue(&mut self.buckets, &mut self.probation, 0);
        let fresh = renumber_queue(&mut self.buckets, &mut self.protected, fresh);
        self.next_stamp = fresh;
    }

    /// Appends a recency record to the segment's queue, compacting it
    /// when stale records outnumber live entries — amortised O(1).
    fn push_record(&mut self, seg: Seg, stamp: u64, key: CacheKey) {
        let seg_live = match seg {
            Seg::Probation => self.live - self.protected_live,
            Seg::Protected => self.protected_live,
        };
        let queue = match seg {
            Seg::Probation => &mut self.probation,
            Seg::Protected => &mut self.protected,
        };
        queue.push_back((stamp, key));
        if queue.len() > 2 * seg_live.max(4) {
            compact_queue(&self.buckets, queue);
        }
    }

    /// Marks a resident key most-recently-used: fresh stamp, promotion
    /// out of probation (demoting the protected LRU when that segment
    /// overflows). Returns `None` when the key is not resident.
    fn refresh(
        &mut self,
        h: u64,
        db: DbId,
        question: &str,
        fingerprint: ConfigFingerprint,
        ctx: PolicyCtx,
    ) -> Option<Refreshed> {
        let stamp = self.stamp();
        let bucket = self.buckets.get_mut(&h)?;
        let (key, entry) =
            bucket.iter_mut().find(|(k, _)| k.matches(db, question, fingerprint))?;
        let answer = Arc::clone(&entry.answer);
        // finlint: alloc — CacheKey clone: two copies + an Arc refcount
        // bump on the interned question, no byte copy.
        let key = key.clone();
        entry.stamp = stamp;
        let promoted = entry.seg == Seg::Probation;
        if promoted {
            entry.seg = Seg::Protected;
        }
        let seg = entry.seg;
        self.push_record(seg, stamp, key);
        let mut demotions = 0;
        if promoted {
            self.protected_live += 1;
            if let Some(cap) = ctx.protected_cap {
                demotions = self.demote_to(cap);
            }
        }
        Some(Refreshed { answer, promoted, demotions })
    }

    /// Looks the key up, recording the lookup in the frequency sketch
    /// (TinyLFU counts *requests*, not residency). A hit is always
    /// recorded; an absent key only when `count_absent` holds.
    fn get(
        &mut self,
        h: u64,
        db: DbId,
        question: &str,
        fingerprint: ConfigFingerprint,
        ctx: PolicyCtx,
        count_absent: bool,
    ) -> Option<Refreshed> {
        let found = self.refresh(h, db, question, fingerprint, ctx);
        if found.is_some() || count_absent {
            if let Some(sketch) = self.sketch.as_mut() {
                sketch.record(h);
            }
        }
        found
    }

    /// Demotes protected LRU entries back to probation (as its MRU)
    /// until the protected segment fits `cap`. Returns demotions done.
    fn demote_to(&mut self, cap: usize) -> u64 {
        let mut demoted = 0;
        while self.protected_live > cap {
            let Some((stamp, key)) = self.protected.pop_front() else { break };
            if entry_stamp(&self.buckets, &key) != Some(stamp) {
                continue; // stale record — a newer one speaks for the key
            }
            let fresh = self.stamp();
            if let Some(bucket) = self.buckets.get_mut(&key.h) {
                if let Some((_, entry)) = bucket.iter_mut().find(|(k, _)| k.same_key(&key)) {
                    entry.seg = Seg::Probation;
                    entry.stamp = fresh;
                }
            }
            self.protected_live -= 1;
            self.push_record(Seg::Probation, fresh, key);
            demoted += 1;
        }
        demoted
    }

    /// The key hash of the entry the next eviction would remove:
    /// probationary LRU first, protected LRU once probation is empty.
    /// Pops stale records on the way, so the live victim record is left
    /// at its queue's front.
    fn victim_peek(&mut self) -> Option<u64> {
        for seg in [Seg::Probation, Seg::Protected] {
            let queue = match seg {
                Seg::Probation => &mut self.probation,
                Seg::Protected => &mut self.protected,
            };
            while let Some((stamp, key)) = queue.front() {
                if entry_stamp(&self.buckets, key) == Some(*stamp) {
                    return Some(key.h);
                }
                queue.pop_front();
            }
        }
        None
    }

    /// Evicts the current victim (see [`Shard::victim_peek`]). Returns
    /// `false` when the shard has no live entry to evict.
    fn evict_front(&mut self) -> bool {
        for seg in [Seg::Probation, Seg::Protected] {
            loop {
                let record = match seg {
                    Seg::Probation => self.probation.pop_front(),
                    Seg::Protected => self.protected.pop_front(),
                };
                let Some((stamp, key)) = record else { break };
                if entry_stamp(&self.buckets, &key) != Some(stamp) {
                    continue; // stale — the key was touched again later
                }
                self.remove_entry(&key);
                return true;
            }
        }
        false
    }

    /// Removes a resident entry, keeping the live counters in step.
    fn remove_entry(&mut self, key: &CacheKey) {
        let Some(bucket) = self.buckets.get_mut(&key.h) else { return };
        let Some(i) = bucket.iter().position(|(k, _)| k.same_key(key)) else { return };
        let (_, entry) = bucket.swap_remove(i);
        let empty = bucket.is_empty();
        if empty {
            self.buckets.remove(&key.h);
        }
        self.live -= 1;
        if entry.seg == Seg::Protected {
            self.protected_live -= 1;
        }
    }

    /// Inserts a key, refreshing it when already resident and running
    /// the TinyLFU admission duel at capacity. `shared` is the caller's
    /// already-interned question allocation; when present an admitted
    /// key is a refcount bump of it, otherwise the bytes are copied once
    /// at admission.
    #[allow(clippy::too_many_arguments)]
    fn insert(
        &mut self,
        h: u64,
        db: DbId,
        question: &str,
        shared: Option<&Arc<str>>,
        fingerprint: ConfigFingerprint,
        answer: Arc<str>,
        ctx: PolicyCtx,
    ) -> ShardInsert {
        // Racing inserts of the same key are idempotent (answers are
        // deterministic, so both writers carry the same value); a
        // re-insert refreshes the entry's recency like a hit.
        if let Some(refreshed) = self.refresh(h, db, question, fingerprint, ctx) {
            return ShardInsert::Resident {
                promoted: refreshed.promoted,
                demotions: refreshed.demotions,
            };
        }
        let mut evicted = 0;
        if let Some(cap) = ctx.shard_cap {
            // At capacity the candidate must win the admission duel: its
            // sketch frequency strictly above the victim's. The victim is
            // evicted *before* the candidate lands so the entry displaced
            // is exactly the one the duel was against.
            while self.live >= cap {
                let Some(victim) = self.victim_peek() else { break };
                let admit = match self.sketch.as_ref() {
                    Some(sketch) => sketch.estimate(h) > sketch.estimate(victim),
                    None => true,
                };
                if !admit {
                    return ShardInsert::Rejected;
                }
                if !self.evict_front() {
                    break;
                }
                evicted += 1;
            }
        }
        let stamp = self.stamp();
        // The only byte copy on the insert path — skipped entirely when
        // the caller supplied its interned allocation.
        let question = match shared {
            Some(interned) => Arc::clone(interned),
            None => Arc::from(question),
        };
        let key = CacheKey { h, db, question, fingerprint };
        self.buckets
            .entry(h)
            .or_default()
            // finlint: alloc — CacheKey clone: Arc refcount bump on the
            // question interned above, no byte copy.
            .push((key.clone(), Entry { answer, stamp, seg: Seg::Probation }));
        self.live += 1;
        self.push_record(Seg::Probation, stamp, key);
        ShardInsert::Fresh { evicted }
    }

    /// `(live, protected_live, sketch agings)` — read under one lock.
    fn counts(&self) -> (usize, usize, u64) {
        let agings = match self.sketch.as_ref() {
            Some(sketch) => sketch.agings(),
            None => 0,
        };
        (self.live, self.protected_live, agings)
    }
}

/// Monotonic counters of one cache's lifetime, snapshot by
/// [`AnswerCache::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub inserts: u64,
    pub evictions: u64,
    /// Inserts turned away by the TinyLFU admission duel (the candidate
    /// did not beat the eviction victim's estimated frequency).
    pub admission_rejected: u64,
    /// Probation → protected promotions (a probationary entry was hit).
    pub promotions: u64,
    /// Protected → probation demotions (the protected segment overflowed).
    pub demotions: u64,
    /// TinyLFU sketch aging (halving) passes across all shards.
    pub agings: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Entries currently in the protected segment.
    pub protected_entries: usize,
}

impl CacheStats {
    /// Fraction of lookups served from cache.
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

/// What an [`AnswerCache::insert`] did, as the caller sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InsertOutcome {
    /// `false` only when the TinyLFU admission duel rejected the
    /// candidate — the answer was still returned to the caller, the
    /// cache just chose not to keep it.
    pub admitted: bool,
    /// Entries evicted to make room.
    pub evicted: u64,
}

/// Sharded, lock-striped answer cache keyed by
/// `(DbId, question, ConfigFingerprint)`.
#[derive(Debug)]
pub struct AnswerCache {
    shards: Vec<Mutex<Shard>>,
    /// Max entries per shard; `None` = unbounded.
    shard_cap: Option<usize>,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
    admission_rejected: AtomicU64,
    promotions: AtomicU64,
    demotions: AtomicU64,
}

/// Shard count: enough stripes that a worker pool sized to typical core
/// counts rarely contends, cheap enough to iterate for stats.
const SHARDS: usize = 16;

impl Default for AnswerCache {
    fn default() -> Self {
        AnswerCache::unbounded()
    }
}

impl AnswerCache {
    /// A cache that never evicts (so admission never has to decide
    /// anything: it only engages at a capacity cap).
    pub fn unbounded() -> Self {
        Self::build(None)
    }

    /// A cache holding at most `capacity` entries in total (rounded up
    /// to the shard granularity). `capacity == 0` means unbounded — the
    /// `--cache-cap 0` CLI convention.
    pub fn with_capacity(capacity: usize) -> Self {
        if capacity == 0 {
            Self::build(None)
        } else {
            Self::build(Some(capacity.div_ceil(SHARDS)))
        }
    }

    fn build(shard_cap: Option<usize>) -> Self {
        AnswerCache {
            shards: (0..SHARDS)
                .map(|_| {
                    Mutex::new(Shard {
                        sketch: shard_cap.map(FrequencySketch::new),
                        ..Shard::default()
                    })
                })
                .collect(),
            shard_cap,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            admission_rejected: AtomicU64::new(0),
            promotions: AtomicU64::new(0),
            demotions: AtomicU64::new(0),
        }
    }

    /// How many lock stripes the cache spreads keys over.
    pub fn shard_count() -> usize {
        SHARDS
    }

    /// The protected-segment cap for a shard of `shard_cap` entries:
    /// ~80% of the shard (classic SLRU split), at least one so a hot
    /// entry can always be protected.
    pub fn protected_shard_cap(shard_cap: usize) -> usize {
        (shard_cap * 4 / 5).max(1)
    }

    /// Per-shard capacity cap (`None` = unbounded) — exposed for tests
    /// asserting per-segment bounds.
    pub fn shard_cap(&self) -> Option<usize> {
        self.shard_cap
    }

    fn ctx(&self) -> PolicyCtx {
        PolicyCtx {
            shard_cap: self.shard_cap,
            protected_cap: self.shard_cap.map(Self::protected_shard_cap),
        }
    }

    /// Looks up an answer, counting the hit or miss. A hit refreshes the
    /// entry's recency (promoting probationary entries); hit or miss,
    /// the lookup feeds the shard's TinyLFU frequency sketch.
    /// Allocation-free: the hit is a refcount bump of the stored answer.
    pub fn get(
        &self,
        db: DbId,
        question: &str,
        fingerprint: ConfigFingerprint,
    ) -> Option<Arc<str>> {
        self.lookup(db, question, fingerprint, true)
    }

    /// [`AnswerCache::get`] for a caller that will not compute a miss: a
    /// resident key is a hit exactly as under `get`, but an absent key
    /// leaves no trace — no miss counted, no frequency-sketch record. The
    /// serving path asks this when it would shed a miss anyway (over its
    /// in-flight budget, or with the scheduler queue full), so a shed
    /// request never moves the cache.
    pub fn get_resident(
        &self,
        db: DbId,
        question: &str,
        fingerprint: ConfigFingerprint,
    ) -> Option<Arc<str>> {
        self.lookup(db, question, fingerprint, false)
    }

    fn lookup(
        &self,
        db: DbId,
        question: &str,
        fingerprint: ConfigFingerprint,
        count_absent: bool,
    ) -> Option<Arc<str>> {
        let h = key_hash(db, question, fingerprint);
        let idx = (h % self.shards.len() as u64) as usize;
        let ctx = self.ctx();
        let found = self.shards[idx].lock().get(h, db, question, fingerprint, ctx, count_absent);
        match found {
            Some(refreshed) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                if refreshed.promoted {
                    self.promotions.fetch_add(1, Ordering::Relaxed);
                }
                self.demotions.fetch_add(refreshed.demotions, Ordering::Relaxed);
                Some(refreshed.answer)
            }
            None => {
                if count_absent {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                }
                None
            }
        }
    }

    /// Inserts an answer. Under a capacity cap a full shard first asks
    /// the frequency sketch whether the candidate beats the eviction
    /// victim and rejects the insert outright when it does not
    /// (`admitted: false` in the outcome — the caller still has its
    /// answer, the cache just kept the statistically hotter entry).
    ///
    /// The question is any [`QuestionKey`]: pass an `&Arc<str>` and an
    /// admitted key shares that allocation instead of copying the bytes.
    pub fn insert<Q: QuestionKey + ?Sized>(
        &self,
        db: DbId,
        question: &Q,
        fingerprint: ConfigFingerprint,
        answer: impl Into<Arc<str>>,
    ) -> InsertOutcome {
        let shared = question.shared();
        let question = question.as_str();
        let h = key_hash(db, question, fingerprint);
        let idx = (h % self.shards.len() as u64) as usize;
        let ctx = self.ctx();
        let result = self.shards[idx]
            .lock()
            .insert(h, db, question, shared, fingerprint, answer.into(), ctx);
        match result {
            ShardInsert::Fresh { evicted } => {
                self.inserts.fetch_add(1, Ordering::Relaxed);
                self.evictions.fetch_add(evicted, Ordering::Relaxed);
                InsertOutcome { admitted: true, evicted }
            }
            ShardInsert::Resident { promoted, demotions } => {
                if promoted {
                    self.promotions.fetch_add(1, Ordering::Relaxed);
                }
                self.demotions.fetch_add(demotions, Ordering::Relaxed);
                InsertOutcome { admitted: true, evicted: 0 }
            }
            ShardInsert::Rejected => {
                self.admission_rejected.fetch_add(1, Ordering::Relaxed);
                InsertOutcome { admitted: false, evicted: 0 }
            }
        }
    }

    /// Fills the answer a miss just computed and records the miss in the
    /// metrics sink, with the fill's evictions and any TinyLFU admission
    /// rejection: the one fill path of every cache-first caller.
    pub(crate) fn fill_miss<Q: QuestionKey + ?Sized>(
        &self,
        db: DbId,
        question: &Q,
        fingerprint: ConfigFingerprint,
        answer: &Arc<str>,
        metrics: Option<&EvalMetrics>,
    ) {
        let outcome = self.insert(db, question, fingerprint, Arc::clone(answer));
        if let Some(m) = metrics {
            m.record_cache_miss(outcome.evicted);
            if !outcome.admitted {
                m.record_admission_rejected();
            }
        }
    }

    /// The interned key allocation of a resident entry, if any — a
    /// read-only probe for the no-clone invariant: a caller that
    /// submitted an `Arc<str>` question can `Arc::ptr_eq` the returned
    /// key against its own allocation to prove the insert shared rather
    /// than copied. Unlike [`AnswerCache::get`] this touches neither
    /// recency nor the frequency sketch and counts no hit/miss.
    pub fn interned_key(
        &self,
        db: DbId,
        question: &str,
        fingerprint: ConfigFingerprint,
    ) -> Option<Arc<str>> {
        let h = key_hash(db, question, fingerprint);
        let idx = (h % self.shards.len() as u64) as usize;
        let shard = self.shards[idx].lock();
        shard
            .buckets
            .get(&h)?
            .iter()
            .find(|(k, _)| k.matches(db, question, fingerprint))
            .map(|(k, _)| Arc::clone(&k.question))
    }

    /// Entries currently resident across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().live).sum::<usize>()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A consistent snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        let mut entries = 0;
        let mut protected_entries = 0;
        let mut agings = 0;
        for shard in &self.shards {
            let (live, protected_live, shard_agings) = shard.lock().counts();
            entries += live;
            protected_entries += protected_live;
            agings += shard_agings;
        }
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            admission_rejected: self.admission_rejected.load(Ordering::Relaxed),
            promotions: self.promotions.load(Ordering::Relaxed),
            demotions: self.demotions.load(Ordering::Relaxed),
            agings,
            entries,
            protected_entries,
        }
    }
}

/// Anything that answers questions deterministically per
/// `(db, question)` under a fingerprinted configuration: the FinSQL
/// system and both baseline families. The provided [`Answerer::answer_cached`]
/// is the single cache read/compute/fill path every caller shares.
pub trait Answerer: Sync {
    /// The fingerprint of every answer-affecting knob of this system.
    fn fingerprint(&self) -> ConfigFingerprint;

    /// Computes an answer from scratch (no cache involvement). Must be
    /// deterministic per `(db, question)` — seed any randomness from the
    /// question, as [`crate::pipeline::FinSql::question_rng`] does.
    fn answer_fresh(&self, db: DbId, question: &str, metrics: Option<&EvalMetrics>) -> String;

    /// Answers through the cache: hit returns the stored answer (a
    /// refcount bump, no copy), miss computes outside the lock and
    /// fills. Cache traffic is recorded in the metrics sink when one is
    /// given.
    fn answer_cached(
        &self,
        cache: &AnswerCache,
        db: DbId,
        question: &str,
        metrics: Option<&EvalMetrics>,
    ) -> Arc<str> {
        let fingerprint = self.fingerprint();
        if let Some(hit) = cache.get(db, question, fingerprint) {
            if let Some(m) = metrics {
                m.record_cache_hit();
            }
            return hit;
        }
        let answer: Arc<str> = Arc::from(self.answer_fresh(db, question, metrics));
        cache.fill_miss(db, question, fingerprint, &answer, metrics);
        answer
    }

    /// [`Answerer::answer_cached`] with an optional cache — the shape the
    /// bench harness uses under its `--no-cache` flag.
    fn answer_maybe_cached(
        &self,
        cache: Option<&AnswerCache>,
        db: DbId,
        question: &str,
        metrics: Option<&EvalMetrics>,
    ) -> Arc<str> {
        match cache {
            Some(c) => self.answer_cached(c, db, question, metrics),
            None => Arc::from(self.answer_fresh(db, question, metrics)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(v: u64) -> ConfigFingerprint {
        ConfigFingerprint(v)
    }

    fn shard_index(db: DbId, question: &str, fingerprint: ConfigFingerprint) -> usize {
        (key_hash(db, question, fingerprint) % SHARDS as u64) as usize
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let cache = AnswerCache::unbounded();
        assert_eq!(cache.get(DbId::Fund, "q", fp(1)), None);
        cache.insert(DbId::Fund, "q", fp(1), "SELECT 1");
        assert_eq!(cache.get(DbId::Fund, "q", fp(1)).as_deref(), Some("SELECT 1"));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.inserts), (1, 1, 1));
        assert_eq!(stats.entries, 1);
        assert!(stats.hit_rate() > 0.49 && stats.hit_rate() < 0.51);
    }

    #[test]
    fn hits_share_one_allocation() {
        // The answer is stored once; every hit is a refcount bump of the
        // same heap string — the hot path never copies.
        let cache = AnswerCache::unbounded();
        cache.insert(DbId::Fund, "q", fp(1), "SELECT 1");
        let a = cache.get(DbId::Fund, "q", fp(1)).expect("resident");
        let b = cache.get(DbId::Fund, "q", fp(1)).expect("resident");
        assert!(Arc::ptr_eq(&a, &b), "hits must share the stored allocation");
    }

    #[test]
    fn arc_question_insert_shares_the_callers_allocation() {
        // The interning contract: inserting an `Arc<str>` question must
        // make the admitted key a refcount bump of that allocation, not
        // a byte copy.
        let cache = AnswerCache::unbounded();
        let question: Arc<str> = Arc::from("how did the fund perform");
        cache.insert(DbId::Fund, &question, fp(1), "SELECT 1");
        let key = cache
            .interned_key(DbId::Fund, &question, fp(1))
            .expect("entry must be resident");
        assert!(
            Arc::ptr_eq(&key, &question),
            "admitted key must share the caller's allocation"
        );
        // And the entry behaves like any other: borrowed lookups hit.
        assert_eq!(cache.get(DbId::Fund, "how did the fund perform", fp(1)).as_deref(), Some("SELECT 1"));
    }

    #[test]
    fn str_insert_still_interns_by_copy() {
        let cache = AnswerCache::unbounded();
        cache.insert(DbId::Fund, "plain str question", fp(1), "a");
        let key = cache
            .interned_key(DbId::Fund, "plain str question", fp(1))
            .expect("entry must be resident");
        assert_eq!(&*key, "plain str question");
        // The probe is inert: no hit/miss counted, no recency touched.
        assert_eq!(cache.stats().hits + cache.stats().misses, 0);
        assert_eq!(cache.interned_key(DbId::Fund, "absent", fp(1)), None);
    }

    #[test]
    fn get_resident_counts_and_records_only_a_hit() {
        let cache = AnswerCache::with_capacity(64);
        let h = key_hash(DbId::Fund, "q", fp(0));
        let estimate = |cache: &AnswerCache| {
            let shard = cache.shards[shard_index(DbId::Fund, "q", fp(0))].lock();
            shard.sketch.as_ref().expect("a capped cache has a sketch").estimate(h)
        };
        // Absent: no miss counted, no sketch record.
        assert_eq!(cache.get_resident(DbId::Fund, "q", fp(0)), None);
        assert_eq!((cache.stats().hits, cache.stats().misses, estimate(&cache)), (0, 0, 0));
        // A counting miss records the request; the fill makes it resident.
        assert_eq!(cache.get(DbId::Fund, "q", fp(0)), None);
        assert_eq!(estimate(&cache), 1);
        cache.insert(DbId::Fund, "q", fp(0), "SELECT 1");
        // Resident: a hit exactly as under `get` — counted, recorded in
        // the sketch, promoted out of probation.
        assert_eq!(cache.get_resident(DbId::Fund, "q", fp(0)).as_deref(), Some("SELECT 1"));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.promotions, estimate(&cache)), (1, 1, 1, 2));
    }

    #[test]
    fn fingerprint_partitions_the_key_space() {
        let cache = AnswerCache::unbounded();
        cache.insert(DbId::Fund, "q", fp(1), "old");
        // Same db+question under a different config must miss.
        assert_eq!(cache.get(DbId::Fund, "q", fp(2)), None);
        // And the same fingerprint on another db must miss too.
        assert_eq!(cache.get(DbId::Stock, "q", fp(1)), None);
    }

    /// Looks `question` up once (a miss), as the real miss path does
    /// before it fills: the lookup lands in the shard's frequency
    /// sketch, so the following insert carries frequency 1 into the
    /// admission duel.
    fn heat(cache: &AnswerCache, question: &str) {
        assert!(cache.get(DbId::Fund, question, fp(0)).is_none(), "{question} must miss");
    }

    /// The recency bookkeeping every shard operation must leave intact:
    /// each resident entry has exactly one live record (stamp match),
    /// it sits in its own segment's queue, and live records run in
    /// strictly increasing stamp order no higher than the counter.
    fn assert_recency_consistent(cache: &AnswerCache, question: &str) {
        let shard = cache.shards[shard_index(DbId::Fund, question, fp(0))].lock();
        let mut live_records = 0;
        let queues = [(Seg::Probation, &shard.probation), (Seg::Protected, &shard.protected)];
        for (seg, queue) in queues {
            let mut last = 0;
            for (stamp, key) in queue {
                let entry = shard
                    .buckets
                    .get(&key.h)
                    .and_then(|b| b.iter().find(|(k, _)| k.same_key(key)))
                    .map(|(_, e)| e);
                let Some(entry) = entry.filter(|e| e.stamp == *stamp) else { continue };
                assert_eq!(entry.seg, seg, "live record of {} in the wrong queue", key.question);
                assert!(
                    last < *stamp && *stamp <= shard.next_stamp,
                    "{seg:?} stamps out of order: {stamp} after {last}, counter {}",
                    shard.next_stamp
                );
                last = *stamp;
                live_records += 1;
            }
        }
        assert_eq!(live_records, shard.live, "every entry needs exactly one live record");
    }

    #[test]
    fn capacity_caps_entries_and_counts_evictions() {
        // One entry per shard, and a workload whose later questions are
        // asked more often than earlier ones: key i is looked up
        // 1 + i/16 times before it is filled, so a candidate regularly
        // out-counts the resident it duels and the caps must evict.
        let cache = AnswerCache::with_capacity(SHARDS);
        let mut rejected = 0;
        for i in 0..200 {
            let q = format!("q{i}");
            for _ in 0..1 + i / 16 {
                cache.get(DbId::Fund, &q, fp(0));
            }
            if !cache.insert(DbId::Fund, &q, fp(0), format!("a{i}")).admitted {
                rejected += 1;
            }
        }
        let stats = cache.stats();
        assert!(stats.entries <= SHARDS, "{} entries resident", stats.entries);
        assert_eq!(stats.inserts + stats.admission_rejected, 200);
        assert_eq!(stats.admission_rejected, rejected);
        assert_eq!(stats.evictions, stats.inserts - stats.entries as u64);
        assert!(stats.evictions >= 100, "only {} evictions", stats.evictions);
    }

    #[test]
    fn admission_rejects_insert_only_churn_at_capacity() {
        // An insert-without-lookups workload has every candidate at
        // frequency 0: once a shard is full, 0 > 0 never holds and the
        // resident set freezes instead of churning.
        let cache = AnswerCache::with_capacity(SHARDS);
        for i in 0..200 {
            cache.insert(DbId::Fund, &format!("q{i}"), fp(0), format!("a{i}"));
        }
        let stats = cache.stats();
        assert!(stats.entries <= SHARDS);
        assert_eq!(stats.evictions, 0, "admission must reject, not churn");
        assert_eq!(
            stats.inserts + stats.admission_rejected,
            200,
            "every insert either admitted or rejected"
        );
        assert!(stats.admission_rejected > 0);
    }

    #[test]
    fn zero_capacity_means_unbounded() {
        let cache = AnswerCache::with_capacity(0);
        for i in 0..100 {
            cache.insert(DbId::Macro, &format!("q{i}"), fp(0), String::new());
        }
        assert_eq!(cache.len(), 100);
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn reinsert_is_idempotent() {
        let cache = AnswerCache::unbounded();
        cache.insert(DbId::Fund, "q", fp(1), "a");
        cache.insert(DbId::Fund, "q", fp(1), "a");
        let stats = cache.stats();
        assert_eq!(stats.inserts, 1);
        assert_eq!(stats.entries, 1);
    }

    /// Questions that hash to the wanted shard — lets the tests drive a
    /// single shard's eviction order deterministically.
    fn same_shard_questions(n: usize) -> Vec<String> {
        let want = shard_index(DbId::Fund, "anchor", fp(0));
        let mut out = vec!["anchor".to_string()];
        let mut i = 0;
        while out.len() < n {
            let q = format!("probe{i}");
            if shard_index(DbId::Fund, &q, fp(0)) == want {
                out.push(q);
            }
            i += 1;
        }
        out
    }

    #[test]
    fn hit_refreshes_recency_so_lru_is_evicted_not_fifo() {
        // Shard capacity 2: with three same-shard keys the third insert
        // must evict exactly one of the first two.
        let qs = same_shard_questions(3);
        let cache = AnswerCache::with_capacity(2 * SHARDS);
        cache.insert(DbId::Fund, &qs[0], fp(0), "a0");
        cache.insert(DbId::Fund, &qs[1], fp(0), "a1");
        // Touch the older entry: under FIFO it would die next; the hit
        // moves it out of the victim position (into the protected
        // segment), so the untouched qs[1] is now least recently used.
        assert!(cache.get(DbId::Fund, &qs[0], fp(0)).is_some());
        heat(&cache, &qs[2]); // frequency 1 beats the victim's 0
        let outcome = cache.insert(DbId::Fund, &qs[2], fp(0), "a2");
        assert_eq!(outcome.evicted, 1);
        assert_recency_consistent(&cache, &qs[0]);
        assert!(cache.get(DbId::Fund, &qs[0], fp(0)).is_some(), "hit entry survived");
        assert!(cache.get(DbId::Fund, &qs[1], fp(0)).is_none(), "LRU entry evicted");
        assert!(cache.get(DbId::Fund, &qs[2], fp(0)).is_some());
    }

    #[test]
    fn reinsert_refreshes_recency_too() {
        let qs = same_shard_questions(3);
        let cache = AnswerCache::with_capacity(2 * SHARDS);
        cache.insert(DbId::Fund, &qs[0], fp(0), "a0");
        cache.insert(DbId::Fund, &qs[1], fp(0), "a1");
        // Re-inserting qs[0] (idempotent value) must also refresh it —
        // exactly like a hit, it promotes the entry out of probation.
        cache.insert(DbId::Fund, &qs[0], fp(0), "a0");
        assert_eq!(cache.stats().promotions, 1);
        heat(&cache, &qs[2]);
        assert_eq!(cache.insert(DbId::Fund, &qs[2], fp(0), "a2").evicted, 1);
        assert_recency_consistent(&cache, &qs[0]);
        assert!(cache.get(DbId::Fund, &qs[0], fp(0)).is_some());
        assert!(cache.get(DbId::Fund, &qs[1], fp(0)).is_none());
    }

    #[test]
    fn repeated_hits_do_not_grow_the_recency_queues_unboundedly() {
        let cache = AnswerCache::with_capacity(SHARDS);
        cache.insert(DbId::Fund, "hot", fp(0), "a");
        for _ in 0..10_000 {
            assert!(cache.get(DbId::Fund, "hot", fp(0)).is_some());
        }
        let idx = shard_index(DbId::Fund, "hot", fp(0));
        let (prob_len, prot_len) = {
            let shard = cache.shards[idx].lock();
            (shard.probation.len(), shard.protected.len())
        };
        assert!(
            prob_len + prot_len <= 9,
            "{prob_len}+{prot_len} recency records for 1 entry"
        );
        assert_eq!(cache.stats().hits, 10_000);
    }

    #[test]
    fn stamp_overflow_renormalises_and_preserves_lru_order() {
        // Shard capacity 3, so the protected segment holds 2.
        let qs = same_shard_questions(4);
        let cache = AnswerCache::with_capacity(3 * SHARDS);
        for (i, q) in qs.iter().enumerate().take(3) {
            cache.insert(DbId::Fund, q, fp(0), format!("a{i}"));
        }
        // Promote qs[0] then qs[1]: protected recency (LRU→MRU) 0, 1.
        assert!(cache.get(DbId::Fund, &qs[0], fp(0)).is_some());
        assert!(cache.get(DbId::Fund, &qs[1], fp(0)).is_some());
        // Pin the shard's counter one stamp below the top.
        let idx = shard_index(DbId::Fund, &qs[0], fp(0));
        cache.shards[idx].lock().next_stamp = u64::MAX - 1;
        // Two hits across the boundary: the first (qs[0], now MRU) takes
        // stamp u64::MAX, the second forces renormalisation. An unchecked
        // `+= 1` would panic in debug builds here, and in release wrap to
        // stamp 0 behind live records.
        assert!(cache.get(DbId::Fund, &qs[0], fp(0)).is_some());
        // The second hit promotes qs[2], overflowing the protected cap:
        // the protected LRU, qs[1] since renormalisation kept the order,
        // is demoted to probation.
        assert!(cache.get(DbId::Fund, &qs[2], fp(0)).is_some());
        assert_eq!(cache.stats().demotions, 1);
        assert_recency_consistent(&cache, &qs[0]);
        // The demoted qs[1] is the victim. It was looked up once, so the
        // candidate is heated twice to win the duel.
        heat(&cache, &qs[3]);
        heat(&cache, &qs[3]);
        assert_eq!(cache.insert(DbId::Fund, &qs[3], fp(0), "a3").evicted, 1);
        assert_recency_consistent(&cache, &qs[0]);
        assert!(cache.get(DbId::Fund, &qs[1], fp(0)).is_none(), "LRU entry evicted");
        for live in [&qs[0], &qs[2], &qs[3]] {
            assert!(cache.get(DbId::Fund, live, fp(0)).is_some(), "{live} must be resident");
        }
        // And the counter restarted just above the live entries.
        assert!(cache.shards[idx].lock().next_stamp < 100);
    }

    #[test]
    fn interleaved_hits_pin_exact_eviction_order() {
        // Shard capacity 3 (protected cap 2), five same-shard keys, hits
        // interleaved with inserts: the promotion, demotion and eviction
        // sequence is fully determined, so any change to the stamp,
        // compaction or victim machinery that reorders recency shows up
        // as the wrong victim here.
        let qs = same_shard_questions(5);
        let cache = AnswerCache::with_capacity(3 * SHARDS);
        cache.insert(DbId::Fund, &qs[0], fp(0), "a0");
        cache.insert(DbId::Fund, &qs[1], fp(0), "a1");
        cache.insert(DbId::Fund, &qs[2], fp(0), "a2");
        // Promote 0 then 2, refresh 0 → protected (LRU→MRU): 2, 0;
        // probation: 1.
        assert!(cache.get(DbId::Fund, &qs[0], fp(0)).is_some());
        assert!(cache.get(DbId::Fund, &qs[2], fp(0)).is_some());
        assert!(cache.get(DbId::Fund, &qs[0], fp(0)).is_some());
        heat(&cache, &qs[3]);
        assert_eq!(cache.insert(DbId::Fund, &qs[3], fp(0), "a3").evicted, 1, "evicts qs[1]");
        assert_recency_consistent(&cache, &qs[0]);
        // Promote 3 → protected 2, 0, 3 overflows: the protected LRU
        // (2) is demoted, leaving protected 0, 3 and probation 2.
        assert!(cache.get(DbId::Fund, &qs[3], fp(0)).is_some());
        let stats = cache.stats();
        assert_eq!((stats.promotions, stats.demotions), (3, 1));
        // qs[2] was looked up once, so qs[4] needs two lookups to win.
        heat(&cache, &qs[4]);
        heat(&cache, &qs[4]);
        assert_eq!(cache.insert(DbId::Fund, &qs[4], fp(0), "a4").evicted, 1, "evicts qs[2]");
        assert_recency_consistent(&cache, &qs[0]);
        assert!(cache.get(DbId::Fund, &qs[1], fp(0)).is_none());
        assert!(cache.get(DbId::Fund, &qs[2], fp(0)).is_none());
        for live in [&qs[0], &qs[3], &qs[4]] {
            assert!(cache.get(DbId::Fund, live, fp(0)).is_some(), "{live} must be resident");
        }
    }

    #[test]
    fn probationary_hit_promotes_and_protected_segment_stays_bounded() {
        let qs = same_shard_questions(6);
        // Shard capacity 5 → protected cap 4.
        let cache = AnswerCache::with_capacity(5 * SHARDS);
        for (i, q) in qs.iter().enumerate().take(5) {
            cache.insert(DbId::Fund, q, fp(0), format!("a{i}"));
        }
        assert_eq!(cache.stats().protected_entries, 0, "fresh entries start probationary");
        // Hit all five: each first hit promotes; the fifth promotion
        // overflows the protected cap (4) and demotes the protected LRU.
        for q in qs.iter().take(5) {
            assert!(cache.get(DbId::Fund, q, fp(0)).is_some());
        }
        let stats = cache.stats();
        assert_eq!(stats.promotions, 5);
        assert_eq!(stats.demotions, 1);
        assert_eq!(
            stats.protected_entries,
            AnswerCache::protected_shard_cap(5),
            "protected segment must be trimmed to its cap"
        );
        assert_eq!(stats.entries, 5, "demotion moves, never removes");
    }

    #[test]
    fn one_shot_flood_keeps_hot_key_resident() {
        // The adversarial workload: one hot key with real lookup
        // traffic, then a flood of one-shot keys into the same 3-entry
        // shard. The hot key is protected, and frequency-1 flood keys
        // cannot beat resident victims once the shard fills.
        let qs = same_shard_questions(8);
        let hot = &qs[0];
        let cache = AnswerCache::with_capacity(3 * SHARDS);
        cache.insert(DbId::Fund, hot, fp(0), "hot answer");
        for _ in 0..4 {
            assert!(cache.get(DbId::Fund, hot, fp(0)).is_some());
        }
        // One-shot flood: each key looked up once (miss) and filled.
        let mut turned_away = 0;
        for (i, q) in qs.iter().enumerate().skip(1) {
            heat(&cache, q);
            if !cache.insert(DbId::Fund, q, fp(0), format!("flood{i}")).admitted {
                turned_away += 1;
            }
        }
        // Every flood key routed to the hot key's shard, so a rejection
        // proves the flood reached the admission duel there.
        assert!(turned_away > 0, "no flood key was turned away at admission");
        assert!(
            cache.get(DbId::Fund, hot, fp(0)).is_some(),
            "admission filter must keep the hot key resident"
        );
    }

    #[test]
    fn builder_slots_are_order_sensitive() {
        let a = FingerprintBuilder::new("t").push_u64(1).push_u64(2).finish();
        let b = FingerprintBuilder::new("t").push_u64(2).push_u64(1).finish();
        assert_ne!(a, b);
        let c = FingerprintBuilder::new("t").push_str("ab").push_str("c").finish();
        let d = FingerprintBuilder::new("t").push_str("a").push_str("bc").finish();
        assert_ne!(c, d, "length prefixing keeps the stream prefix-free");
    }

    struct Upper;
    impl Answerer for Upper {
        fn fingerprint(&self) -> ConfigFingerprint {
            FingerprintBuilder::new("upper").finish()
        }
        fn answer_fresh(&self, _db: DbId, q: &str, _m: Option<&EvalMetrics>) -> String {
            q.to_ascii_uppercase()
        }
    }

    #[test]
    fn answerer_default_path_fills_and_hits() {
        let cache = AnswerCache::unbounded();
        let m = EvalMetrics::new();
        let a = Upper.answer_cached(&cache, DbId::Fund, "select x", Some(&m));
        let b = Upper.answer_cached(&cache, DbId::Fund, "select x", Some(&m));
        assert_eq!(&*a, "SELECT X");
        assert_eq!(a, b);
        let snap = m.snapshot();
        assert_eq!((snap.cache_hits, snap.cache_misses), (1, 1));
        assert_eq!(&*Upper.answer_maybe_cached(None, DbId::Fund, "y", None), "Y");
        assert_eq!(cache.len(), 1, "uncached path must not touch the cache");
    }
}
