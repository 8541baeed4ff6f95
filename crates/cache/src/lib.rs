//! `cbv-cache` — content-fingerprinted verification result cache.
//!
//! §2.3 of the paper frames verification CAD as a *filter* the designer
//! iterates against: run the checks, fix what they flag, run again. In
//! an ECO loop almost nothing changes between iterations, yet a naive
//! flow re-verifies every channel-connected component from scratch.
//! This crate makes the §4.2 electrical-rules battery and the §4.3
//! timing-arc computation *incremental*: each verification unit (one
//! CCC, plus one whole-design residue) is keyed by a content
//! fingerprint ([`fingerprint`]) and its per-unit results — findings,
//! check counts, timing arcs — are memoised in a [`VerifyCache`].
//!
//! On a re-run, units whose fingerprints match a cached entry are
//! replayed instead of recomputed; only *dirty* units (changed
//! fingerprint, or sharing a boundary with one that changed) hit the
//! checkers. Merging cached and fresh results in fixed unit order makes
//! the incremental signoff byte-identical to a cold run — proven by
//! test, not assumed.
//!
//! The cache is an in-memory store with optional JSON persistence.
//! Floats are persisted as IEEE-754 bit patterns (`u64`), so a
//! save/load round-trip is *exact* — a reloaded cache produces the same
//! bytes of signoff as the live one.

use std::any::Any;
use std::cell::Cell;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use cbv_everify::report::{CheckKind, Finding, Severity, Subject};
use cbv_netlist::{CccId, DeviceId, NetId};
use cbv_tech::Seconds;
use cbv_timing::Arc;
use serde::write_json_string;
use serde_json::{FieldError, Value};

pub mod fingerprint;

pub use fingerprint::{
    env_fingerprint, fingerprint_design, raw_netlist_digest, DesignFingerprints, UnitFingerprint,
};

/// Full key of one cached unit result: environment fingerprint plus the
/// unit's content and binding fingerprints. All three must match for a
/// hit; see [`fingerprint`] for why binding is part of the key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey {
    /// Environment (process/corner/config/tool-version) fingerprint.
    pub env: u64,
    /// Unit content fingerprint (id-invariant).
    pub content: u64,
    /// Unit binding fingerprint (id-sensitive).
    pub binding: u64,
}

impl CacheKey {
    /// Combines an environment fingerprint with a unit fingerprint.
    pub fn new(env: u64, unit: UnitFingerprint) -> CacheKey {
        CacheKey {
            env,
            content: unit.content,
            binding: unit.binding,
        }
    }
}

/// Cached verification payload of one unit: the §4.2 findings the unit's
/// scoped check battery produced (with its checked/filtered tallies) and
/// the timing arcs its CCC contributes to the §4.3 graph.
///
/// Compact in flight — the lists are boxed slices (no spare capacity,
/// and an empty one allocates nothing) and the tallies `u32`, 40 bytes
/// before the lists' contents — and stored in a [`VerifyCache`] as one
/// encoded block.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UnitResult {
    /// Findings, in the unit report's canonical order (replay re-sorts,
    /// so an entry written in another order replays the same).
    pub findings: Box<[Finding]>,
    /// Values inspected by the unit's checks.
    pub checked: u32,
    /// Values silently filtered (below the review threshold).
    pub filtered: u32,
    /// Timing arcs of the unit's CCC (empty for the residue unit).
    pub arcs: Box<[Arc]>,
}

/// Hit/miss tally of one incremental stage, reported to the user so ECO
/// savings are visible in the flow summary.
///
/// The first three fields are per-run stage economics. The last two
/// describe the run's relationship to a *shared tier* — the cache a
/// `FlowService` (or a farm coordinator) fetches the run's keys from
/// before the run and absorbs additions back into afterwards. They are
/// filled by the tier's side of the run, and stay zero for a plain
/// `run_flow_incremental` against a private cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Units replayed from cache — on a shared tier, answered by its
    /// keyed fetch.
    pub hits: usize,
    /// Units re-verified (fingerprint miss or dirty neighbour) — on a
    /// shared tier, dispatched locally or to farm workers.
    pub misses: usize,
    /// Entries evicted from the cache while this stage's fresh results
    /// were stored (nonzero only on a capacity-bounded cache).
    pub evictions: usize,
    /// Fresh unit entries this run delivered to the shared tier.
    pub absorbed: usize,
    /// Of the hits, units another run was computing when this one
    /// fetched: awaited and re-fetched instead of computed twice.
    pub coalesced: usize,
}

impl CacheStats {
    /// Total units considered.
    pub fn total(&self) -> usize {
        self.hits + self.misses
    }
}

/// One stored unit result, kept as its [`encode`]d bytes, plus its
/// recency stamp (interior-mutable so a shared-reference lookup can
/// refresh it). A `UnitResult` spreads over a findings block, an arcs
/// block and one block per finding message; at a few thousand entries
/// those blocks and their allocator headers were most of the cache, so
/// an entry is one block instead.
#[derive(Debug, Clone)]
struct Entry {
    bytes: Box<[u8]>,
    used: Cell<u64>,
}

/// Entries a [`VerifyCache::new`] cache holds before it evicts: room for
/// a few thousand units of recent revisions, about half a megabyte
/// resident.
const DEFAULT_CAPACITY: usize = 2_048;

/// The verification result store.
///
/// A fingerprint-keyed map with one bound. Entries are never
/// invalidated in place — a stale entry simply stops being hit once its
/// key no longer matches anything — so every cache is bounded, and
/// least-recently-used eviction keeps it at its
/// [capacity](VerifyCache::capacity). An evicted entry only costs a
/// recompute. Every [`get`](VerifyCache::get) refreshes the entry's
/// recency; an insert past capacity evicts the stalest entry and bumps
/// the [eviction counter](VerifyCache::evictions).
///
/// The cache also keeps one *prep* — the recognized, laid-out and
/// extracted design of the last run against it — so the next run can
/// splice its own prep from it instead of building one. The slot is
/// opaque here (the prep's type belongs to the flow), is never
/// persisted and is not an entry: [`len`](VerifyCache::len) does not
/// count it.
#[derive(Clone)]
pub struct VerifyCache {
    entries: HashMap<CacheKey, Entry>,
    tick: Cell<u64>,
    capacity: usize,
    evictions: usize,
    prep: Option<PrepSlot>,
}

/// What [`VerifyCache`] keeps of the last run's prep.
pub type PrepSlot = std::sync::Arc<dyn Any + Send + Sync>;

impl fmt::Debug for VerifyCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VerifyCache")
            .field("entries", &self.entries)
            .field("tick", &self.tick)
            .field("capacity", &self.capacity)
            .field("evictions", &self.evictions)
            .field("prep", &self.prep.is_some())
            .finish()
    }
}

impl Default for VerifyCache {
    fn default() -> VerifyCache {
        VerifyCache::new()
    }
}

impl VerifyCache {
    /// An empty cache at the default bound of 2,048 entries.
    pub fn new() -> VerifyCache {
        VerifyCache::with_capacity(DEFAULT_CAPACITY)
    }

    /// An empty cache holding at most `capacity` entries (LRU beyond).
    pub fn with_capacity(capacity: usize) -> VerifyCache {
        VerifyCache {
            entries: HashMap::new(),
            tick: Cell::new(0),
            capacity: capacity.max(1),
            evictions: 0,
            prep: None,
        }
    }

    /// The entry cap.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Re-bounds the cache. Shrinking below the current population
    /// evicts least-recently-used entries immediately.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity.max(1);
        self.trim();
    }

    /// Evicts down to the capacity bound in one pass.
    fn trim(&mut self) {
        let over = self.entries.len().saturating_sub(self.capacity);
        self.evictions += evict_oldest(&mut self.entries, over);
    }

    /// Entries evicted over the cache's lifetime (a cumulative counter;
    /// stage reports carry per-run deltas).
    pub fn evictions(&self) -> usize {
        self.evictions
    }

    /// Number of stored unit results.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn next_tick(&self) -> u64 {
        let t = self.tick.get() + 1;
        self.tick.set(t);
        t
    }

    /// True when the key is stored, *without* refreshing its LRU
    /// recency — the membership probe the absorb accounting uses, which
    /// must not perturb eviction order.
    pub fn contains(&self, key: &CacheKey) -> bool {
        self.entries.contains_key(key)
    }

    /// True when the key is stored, refreshing its LRU recency as
    /// [`get`](VerifyCache::get) does, without decoding the result.
    pub fn touch(&self, key: &CacheKey) -> bool {
        self.stored(key).is_some()
    }

    /// Looks up a unit result, refreshing its LRU recency.
    pub fn get(&self, key: &CacheKey) -> Option<UnitResult> {
        self.stored(key).map(decode)
    }

    /// The stored bytes of a key, its recency refreshed.
    fn stored(&self, key: &CacheKey) -> Option<&[u8]> {
        let entry = self.entries.get(key)?;
        entry.used.set(self.next_tick());
        Some(&entry.bytes)
    }

    /// Stores a unit result. Storing a *new* key at capacity first
    /// evicts the least-recently-used entry (stamp ties cannot occur:
    /// stamps are unique).
    pub fn insert(&mut self, key: CacheKey, result: UnitResult) {
        self.insert_bytes(key, encode(&result));
    }

    fn insert_bytes(&mut self, key: CacheKey, bytes: Box<[u8]>) {
        let used = Cell::new(self.next_tick());
        if let Some(slot) = self.entries.get_mut(&key) {
            *slot = Entry { bytes, used };
            return;
        }
        let over = (self.entries.len() + 1).saturating_sub(self.capacity);
        self.evictions += evict_oldest(&mut self.entries, over);
        self.make_room(1);
        self.entries.insert(key, Entry { bytes, used });
    }

    /// Makes room in the map's table for `incoming` more entries without
    /// letting it grow past what its entries need. At the bound a cache
    /// holds as many entries as ever, but every eviction can leave a
    /// tombstone that eats the table's headroom, and a table that runs
    /// out doubles: a 2,048-entry cache's 4,096-bucket table went to
    /// 8,192 (about 200 KB more) after a few thousand LRU evictions. A
    /// table rebuilt at its entries' size has its headroom back.
    fn make_room(&mut self, incoming: usize) {
        let needed = self.entries.len() + incoming;
        if self.entries.capacity() < needed {
            let mut table = HashMap::with_capacity(needed);
            table.extend(self.entries.drain());
            self.entries = table;
        }
    }

    /// Stores a batch of unit results in the order given and trims back
    /// to capacity once. The survivors are the newest stamps either
    /// way, so the result and the eviction tally equal one
    /// [`insert`](VerifyCache::insert) per entry, at one O(capacity)
    /// pass per batch instead of per entry.
    pub fn insert_batch(&mut self, batch: impl IntoIterator<Item = (CacheKey, UnitResult)>) {
        let batch = batch.into_iter();
        self.make_room(batch.size_hint().0);
        for (key, result) in batch {
            let used = Cell::new(self.next_tick());
            let bytes = encode(&result);
            self.entries.insert(key, Entry { bytes, used });
        }
        self.trim();
    }

    /// Merges entries this cache lacks from `other` (a snapshot another
    /// flow run populated): [`absorb_keys`](VerifyCache::absorb_keys)
    /// over every key `other` holds.
    pub fn absorb(&mut self, other: &VerifyCache) -> usize {
        let units: Vec<CacheKey> = other.entries.keys().copied().collect();
        self.absorb_keys(other, &units)
    }

    /// The keyed write: merges the entries `units` names that `other`
    /// holds and this cache lacks, respecting this cache's
    /// capacity. Existing entries win — two runs of the same unit
    /// produce the same payload, so freshness is irrelevant; keys are
    /// merged once each in sorted order so any evictions are
    /// deterministic. This is the write-back half of the daemon's
    /// shared-cache discipline: fetch under the lock, verify unlocked,
    /// absorb what the run added under the lock. The whole batch is
    /// stored first and trimmed back to capacity in one pass — the
    /// survivors are the newest stamps either way, so the result (and
    /// the eviction tally) equals evicting one entry per insert, at
    /// O(capacity) per batch instead of per entry. Returns the number of
    /// entries actually copied, which existing-entry wins make smaller
    /// than the keys named under contention.
    pub fn absorb_keys(&mut self, other: &VerifyCache, units: &[CacheKey]) -> usize {
        let mut keys: Vec<&CacheKey> = units
            .iter()
            .filter(|k| other.entries.contains_key(k) && !self.entries.contains_key(k))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        self.make_room(keys.len());
        for &key in &keys {
            let used = Cell::new(self.next_tick());
            let bytes = other.entries[key].bytes.clone();
            self.entries.insert(*key, Entry { bytes, used });
        }
        self.trim();
        keys.len()
    }

    /// The keyed read: copies into `overlay` the entries `units` names
    /// that this cache holds and `overlay` still lacks,
    /// refreshing their recency here exactly as [`get`](VerifyCache::get)
    /// would. Returns the number of entries copied. A shared tier
    /// answers one request with this instead of a whole-cache clone, so
    /// the request costs O(keys), not O(cache).
    pub fn fetch_into(&self, units: &[CacheKey], overlay: &mut VerifyCache) -> usize {
        let mut copied = 0;
        for key in units {
            if !overlay.contains(key) {
                if let Some(bytes) = self.stored(key) {
                    overlay.insert_bytes(*key, bytes.into());
                    copied += 1;
                }
            }
        }
        copied
    }

    /// Drops everything, the kept prep too (the eviction counter
    /// survives: it is a lifetime tally, not a population count).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.prep = None;
    }

    /// Takes the prep the last run [kept](VerifyCache::keep_prep),
    /// leaving the slot empty.
    pub fn take_prep(&mut self) -> Option<PrepSlot> {
        self.prep.take()
    }

    /// Keeps `prep` for the next run, in place of any earlier one.
    pub fn keep_prep(&mut self, prep: PrepSlot) {
        self.prep = Some(prep);
    }

    /// Serializes the cache to JSON. Entries are emitted in sorted key
    /// order, so equal caches serialize to equal bytes. Floats are
    /// stored as `to_bits()` integers for exact round-tripping. Recency
    /// stamps, capacity and the eviction counter are *not* persisted: a
    /// reloaded cache starts a fresh LRU history.
    pub fn to_json(&self) -> String {
        let mut keys: Vec<&CacheKey> = self.entries.keys().collect();
        keys.sort_unstable();
        let mut out = String::new();
        out.push_str("{\"format\":\"cbv-cache/1\",\"entries\":[");
        for (i, key) in keys.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_unit_entry(key, &decode(&self.entries[key].bytes), &mut out);
        }
        out.push_str("]}");
        out
    }

    /// Parses a cache from [`VerifyCache::to_json`] output. Any
    /// structural problem — bad JSON, unknown format tag, missing
    /// field, unknown enum string, a tally past `u32::MAX` — is an
    /// error; a corrupt cache file must never half-load. Every entry
    /// the file holds is kept: the cache is bounded at the default or
    /// at the entry count, whichever is larger, so a tier saved at a
    /// larger bound comes back whole. Fields the reader does not read
    /// are ignored, among them the `timing` array that files written by
    /// versions with a timing-remainder tier carry.
    pub fn from_json(text: &str) -> Result<VerifyCache, CacheFormatError> {
        let root = serde_json::from_str(text)
            .map_err(|e| CacheFormatError::new(format!("invalid JSON: {e}")))?;
        let format = root.req_str("format")?;
        if format != "cbv-cache/1" {
            return Err(CacheFormatError::new(format!(
                "unsupported cache format {format:?}"
            )));
        }
        let entries = root.req_array("entries")?;
        let mut cache = VerifyCache::with_capacity(entries.len().max(DEFAULT_CAPACITY));
        for entry in entries {
            let (key, result) = read_unit_entry(entry)?;
            cache.insert(key, result);
        }
        Ok(cache)
    }
}

/// The stored form of a [`UnitResult`], exact like the JSON form:
/// little-endian `checked`, `filtered` and the finding count; per
/// finding its check (index in [`CheckKind::ALL`]), subject (tag and
/// id), severity, stress bits and message (length, UTF-8); then the arc
/// count and per arc its endpoints, bound bits and CCC.
fn encode(r: &UnitResult) -> Box<[u8]> {
    let findings: usize = r.findings.iter().map(|f| 19 + f.message.len()).sum();
    let mut out = Vec::with_capacity(16 + findings + 28 * r.arcs.len());
    let word = |out: &mut Vec<u8>, v: u32| out.extend_from_slice(&v.to_le_bytes());
    let len = |n: usize| u32::try_from(n).expect("fewer than 2^32 items");
    word(&mut out, r.checked);
    word(&mut out, r.filtered);
    word(&mut out, len(r.findings.len()));
    for f in r.findings.iter() {
        let check = CheckKind::ALL.iter().position(|&k| k == f.check);
        out.push(check.expect("CheckKind::ALL lists every check") as u8);
        let (tag, id) = match f.subject {
            Subject::Net(n) => (0, n.0),
            Subject::Device(d) => (1, d.0),
            Subject::Unit(u) => (2, u),
            Subject::Design => (3, 0),
        };
        out.push(tag);
        word(&mut out, id);
        out.push(match f.severity {
            Severity::Review => 0,
            Severity::Violation => 1,
            Severity::ToolError => 2,
        });
        out.extend_from_slice(&f.stress.to_bits().to_le_bytes());
        word(&mut out, len(f.message.len()));
        out.extend_from_slice(f.message.as_bytes());
    }
    word(&mut out, len(r.arcs.len()));
    for a in r.arcs.iter() {
        word(&mut out, a.from.0);
        word(&mut out, a.to.0);
        out.extend_from_slice(&a.min.seconds().to_bits().to_le_bytes());
        out.extend_from_slice(&a.max.seconds().to_bits().to_le_bytes());
        word(&mut out, a.ccc.0);
    }
    out.into_boxed_slice()
}

/// The inverse of [`encode`]. Entries are only ever written by it, so a
/// short or malformed buffer is a bug, not bad input.
fn decode(bytes: &[u8]) -> UnitResult {
    let mut r = Reader(bytes);
    let (checked, filtered) = (r.u32(), r.u32());
    let findings = (0..r.u32())
        .map(|_| {
            let check = CheckKind::ALL[r.u8() as usize];
            let subject = match (r.u8(), r.u32()) {
                (0, n) => Subject::Net(NetId(n)),
                (1, d) => Subject::Device(DeviceId(d)),
                (2, u) => Subject::Unit(u),
                _ => Subject::Design,
            };
            let severity = match r.u8() {
                0 => Severity::Review,
                1 => Severity::Violation,
                _ => Severity::ToolError,
            };
            let stress = r.f64();
            let len = r.u32() as usize;
            let message = std::str::from_utf8(r.take(len)).expect("encoded from a String");
            Finding {
                check,
                subject,
                severity,
                stress,
                message: message.to_owned(),
            }
        })
        .collect();
    let arcs = (0..r.u32())
        .map(|_| Arc {
            from: NetId(r.u32()),
            to: NetId(r.u32()),
            min: Seconds::new(r.f64()),
            max: Seconds::new(r.f64()),
            ccc: CccId(r.u32()),
        })
        .collect();
    UnitResult {
        findings,
        checked,
        filtered,
        arcs,
    }
}

/// A cursor over [`encode`]d bytes.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> &'a [u8] {
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        head
    }

    fn u8(&mut self) -> u8 {
        self.take(1)[0]
    }

    fn u32(&mut self) -> u32 {
        u32::from_le_bytes(self.take(4).try_into().expect("4 bytes"))
    }

    fn f64(&mut self) -> f64 {
        f64::from_bits(u64::from_le_bytes(
            self.take(8).try_into().expect("8 bytes"),
        ))
    }
}

/// Removes the `k` entries with the oldest recency stamps from `map`
/// and returns how many went. Stamps are unique, so the victims are a
/// function of stamp order alone; a batch costs one pass over the map
/// however large `k` is.
fn evict_oldest(map: &mut HashMap<CacheKey, Entry>, k: usize) -> usize {
    let k = k.min(map.len());
    if k == 0 {
        return 0;
    }
    if k == 1 {
        // A lone insert at capacity: the minimum, without a stamp list.
        let oldest = map
            .iter()
            .min_by_key(|(_, e)| e.used.get())
            .map(|(&key, _)| key);
        map.remove(&oldest.expect("k <= len, so the map is not empty"));
        return 1;
    }
    let mut stamps: Vec<(u64, CacheKey)> =
        map.iter().map(|(&key, e)| (e.used.get(), key)).collect();
    if k < stamps.len() {
        stamps.select_nth_unstable_by_key(k - 1, |&(used, _)| used);
    }
    for (_, key) in &stamps[..k] {
        map.remove(key);
    }
    k
}

/// Error from [`VerifyCache::from_json`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheFormatError {
    message: String,
}

impl CacheFormatError {
    fn new(message: impl Into<String>) -> CacheFormatError {
        CacheFormatError {
            message: message.into(),
        }
    }
}

impl fmt::Display for CacheFormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cache format error: {}", self.message)
    }
}

impl Error for CacheFormatError {}

impl From<FieldError> for CacheFormatError {
    fn from(e: FieldError) -> CacheFormatError {
        CacheFormatError::new(e.to_string())
    }
}

fn severity_str(s: Severity) -> &'static str {
    match s {
        Severity::Review => "review",
        Severity::Violation => "violation",
        Severity::ToolError => "tool-error",
    }
}

fn parse_severity(s: &str) -> Option<Severity> {
    match s {
        "review" => Some(Severity::Review),
        "violation" => Some(Severity::Violation),
        "tool-error" => Some(Severity::ToolError),
        _ => None,
    }
}

fn parse_check(s: &str) -> Option<CheckKind> {
    CheckKind::ALL.into_iter().find(|k| k.to_string() == s)
}

/// Serializes one `(key, result)` entry in the `cbv-cache/1` wire shape
/// (floats as `to_bits()` integers, exact round-trip). Public so the
/// farm worker protocol can ship unit results in the same
/// deterministic, content-addressed format the persisted cache uses;
/// [`read_unit_entry`] is the inverse.
pub fn write_unit_entry(key: &CacheKey, result: &UnitResult, out: &mut String) {
    out.push_str(&format!(
        "{{\"env\":{},\"content\":{},\"binding\":{},\"checked\":{},\"filtered\":{},\"findings\":[",
        key.env, key.content, key.binding, result.checked, result.filtered
    ));
    for (i, f) in result.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let (skey, sval) = match f.subject {
            Subject::Net(n) => ("net", n.index()),
            Subject::Device(d) => ("dev", d.index()),
            Subject::Unit(u) => ("unit", u as usize),
            Subject::Design => ("design", 0),
        };
        out.push_str(&format!(
            "{{\"check\":\"{}\",\"{}\":{},\"severity\":\"{}\",\"stress\":{},\"message\":",
            f.check,
            skey,
            sval,
            severity_str(f.severity),
            f.stress.to_bits()
        ));
        write_json_string(&f.message, out);
        out.push('}');
    }
    out.push_str("],\"arcs\":[");
    for (i, a) in result.arcs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"from\":{},\"to\":{},\"min\":{},\"max\":{},\"ccc\":{}}}",
            a.from.index(),
            a.to.index(),
            a.min.seconds().to_bits(),
            a.max.seconds().to_bits(),
            a.ccc.index()
        ));
    }
    out.push_str("]}");
}

/// Parses one entry produced by [`write_unit_entry`]. Every structural
/// problem is an error — a farm coordinator treats any failure here as
/// a corrupt worker reply and re-dispatches the unit.
pub fn read_unit_entry(entry: &Value) -> Result<(CacheKey, UnitResult), CacheFormatError> {
    let key = CacheKey {
        env: entry.req_u64("env")?,
        content: entry.req_u64("content")?,
        binding: entry.req_u64("binding")?,
    };
    let mut findings = Vec::new();
    for f in entry.req_array("findings")? {
        let check = parse_check(f.req_str("check")?)
            .ok_or_else(|| CacheFormatError::new("unknown check kind"))?;
        // The writer names exactly one subject key.
        let subject = if f.get("net").is_some() {
            Subject::Net(NetId(f.req_u32("net")?))
        } else if f.get("dev").is_some() {
            Subject::Device(DeviceId(f.req_u32("dev")?))
        } else if f.get("design").is_some() {
            Subject::Design
        } else {
            Subject::Unit(f.req_u32("unit")?)
        };
        let severity = parse_severity(f.req_str("severity")?)
            .ok_or_else(|| CacheFormatError::new("unknown severity"))?;
        findings.push(Finding {
            check,
            subject,
            severity,
            stress: f.req_f64_bits("stress")?,
            message: f.req_str("message")?.to_string(),
        });
    }
    let mut arcs = Vec::new();
    for a in entry.req_array("arcs")? {
        arcs.push(Arc {
            from: NetId(a.req_u32("from")?),
            to: NetId(a.req_u32("to")?),
            min: Seconds::new(a.req_f64_bits("min")?),
            max: Seconds::new(a.req_f64_bits("max")?),
            ccc: CccId(a.req_u32("ccc")?),
        });
    }
    let tally = |field: &str| -> Result<u32, CacheFormatError> {
        u32::try_from(entry.req_u64(field)?)
            .map_err(|_| CacheFormatError::new(format!("{field} exceeds u32::MAX")))
    };
    Ok((
        key,
        UnitResult {
            findings: findings.into(),
            checked: tally("checked")?,
            filtered: tally("filtered")?,
            arcs: arcs.into(),
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_result() -> UnitResult {
        UnitResult {
            findings: Box::new([
                Finding {
                    check: CheckKind::Coupling,
                    subject: Subject::Net(NetId(7)),
                    severity: Severity::Review,
                    stress: 0.731_234_567_890_123_4,
                    message: "coupling \"quote\" and \\ backslash".into(),
                },
                Finding {
                    check: CheckKind::BetaRatio,
                    subject: Subject::Device(DeviceId(3)),
                    severity: Severity::Violation,
                    stress: 1.25,
                    message: "beta too low".into(),
                },
                // Tool failures round-trip too (NaN stress bit-exactly).
                Finding {
                    check: CheckKind::Tool,
                    subject: Subject::Unit(9),
                    severity: Severity::ToolError,
                    stress: f64::NAN,
                    message: "unit 9 panicked: boom".into(),
                },
                Finding {
                    check: CheckKind::EdgeRate,
                    subject: Subject::Design,
                    severity: Severity::ToolError,
                    stress: f64::INFINITY,
                    message: "check edge-rate panicked: boom".into(),
                },
            ]),
            checked: 42,
            filtered: 40,
            arcs: Box::new([Arc {
                from: NetId(1),
                to: NetId(2),
                min: Seconds::new(1.234_567_890_123e-10),
                max: Seconds::new(4.321e-10),
                ccc: CccId(5),
            }]),
        }
    }

    #[test]
    fn store_and_lookup() {
        let mut c = VerifyCache::new();
        assert!(c.is_empty());
        let key = CacheKey {
            env: 1,
            content: 2,
            binding: 3,
        };
        c.insert(key, sample_result());
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&key).unwrap().checked, 42);
        assert!(c.get(&CacheKey { env: 9, ..key }).is_none());
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn a_file_written_before_the_design_subject_still_loads() {
        let json = concat!(
            r#"{"format":"cbv-cache/1","entries":[{"env":1,"content":2,"binding":3,"#,
            r#""checked":4,"filtered":0,"findings":["#,
            r#"{"check":"tool","unit":5,"severity":"tool-error","stress":9218868437227405312,"#,
            r#""message":"unit 5 panicked"}],"arcs":[]}]}"#
        );
        let cache = VerifyCache::from_json(json).expect("an older file loads");
        let key = CacheKey {
            env: 1,
            content: 2,
            binding: 3,
        };
        let entry = cache.get(&key).expect("its entry survives");
        assert_eq!(entry.findings[0].subject, Subject::Unit(5));
        assert_eq!(cache.to_json(), json, "and writes back byte for byte");
    }

    #[test]
    fn json_round_trip_is_exact() {
        let mut c = VerifyCache::new();
        for i in 0..3u64 {
            c.insert(
                CacheKey {
                    env: 10,
                    content: 100 + i,
                    binding: 200 + i,
                },
                sample_result(),
            );
        }
        let json = c.to_json();
        let back = VerifyCache::from_json(&json).unwrap();
        assert_eq!(back.len(), c.len());
        for k in c.entries.keys() {
            let (r, v) = (back.get(k).expect("entry survives"), c.get(k).unwrap());
            // Bit-exact comparison finding by finding (PartialEq on the
            // whole struct would reject the NaN-stress tool error even
            // though it round-trips exactly).
            assert_eq!(r.checked, v.checked);
            assert_eq!(r.filtered, v.filtered);
            assert_eq!(r.findings.len(), v.findings.len());
            for (a, b) in r.findings.iter().zip(&v.findings) {
                assert_eq!(a.check, b.check);
                assert_eq!(a.subject, b.subject);
                assert_eq!(a.severity, b.severity);
                assert_eq!(a.stress.to_bits(), b.stress.to_bits());
                assert_eq!(a.message, b.message);
            }
            assert_eq!(r.arcs, v.arcs);
            assert_eq!(
                r.arcs[0].min.seconds().to_bits(),
                v.arcs[0].min.seconds().to_bits()
            );
        }
        // Deterministic serialization: reserialize equals original.
        assert_eq!(back.to_json(), json);
    }

    fn key(i: u64) -> CacheKey {
        CacheKey {
            env: 1,
            content: i,
            binding: i,
        }
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let mut c = VerifyCache::with_capacity(3);
        assert_eq!(c.capacity(), 3);
        for i in 0..3 {
            c.insert(key(i), sample_result());
        }
        assert_eq!(c.evictions(), 0);
        // Refresh 0 so 1 is now the stalest entry.
        assert!(c.get(&key(0)).is_some());
        c.insert(key(3), sample_result());
        assert_eq!(c.len(), 3);
        assert_eq!(c.evictions(), 1);
        assert!(c.get(&key(1)).is_none(), "LRU entry 1 evicted");
        assert!(c.get(&key(0)).is_some(), "refreshed entry survives");
        assert!(c.get(&key(2)).is_some());
        assert!(c.get(&key(3)).is_some());
        // Replacing an existing key never evicts.
        c.insert(key(3), sample_result());
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn shrinking_capacity_evicts_immediately() {
        let mut c = VerifyCache::new();
        for i in 0..5 {
            c.insert(key(i), sample_result());
        }
        // Recency order is insertion order; refresh 0 before shrinking.
        assert!(c.get(&key(0)).is_some());
        c.set_capacity(2);
        assert_eq!(c.len(), 2);
        assert_eq!(c.evictions(), 3);
        assert!(c.get(&key(0)).is_some());
        assert!(c.get(&key(4)).is_some());
        assert_eq!(c.capacity(), 2);
    }

    #[test]
    fn an_entry_is_compact() {
        // A result in flight is 40 bytes before its lists; stored, it is
        // one block of exactly its encoded length behind a 48-byte slot.
        assert_eq!(std::mem::size_of::<UnitResult>(), 40);
        assert_eq!(std::mem::size_of::<(CacheKey, Entry)>(), 48);
        let r = sample_result();
        let bytes = encode(&r);
        let messages: usize = r.findings.iter().map(|f| f.message.len()).sum();
        assert_eq!(bytes.len(), 16 + 19 * 4 + messages + 28);
        // Exact, NaN stress included (the JSON round trip compares the
        // rest field by field).
        assert_eq!(encode(&decode(&bytes)), bytes);
        let mut c = VerifyCache::new();
        c.insert(key(0), r.clone());
        assert!(c.touch(&key(0)) && !c.touch(&key(1)));
        assert_eq!(c.get(&key(0)).unwrap().arcs, r.arcs);
    }

    /// A cache at its bound churns through evictions, one insert at a
    /// time and in batches, without its table outgrowing what its
    /// entries need (it once doubled after a few thousand evictions).
    #[test]
    fn churn_at_the_bound_never_grows_the_table() {
        let mut c = VerifyCache::new();
        let small = UnitResult::default();
        let bound = c.capacity();
        for i in 0..bound as u64 {
            c.insert(key(i), small.clone());
        }
        let settled = c.entries.capacity();
        for round in 0..6_000u64 {
            let base = bound as u64 + round * 10;
            if round % 2 == 0 {
                for i in base..base + 10 {
                    c.insert(key(i), small.clone());
                }
            } else {
                c.insert_batch((base..base + 10).map(|i| (key(i), small.clone())));
            }
            assert_eq!(c.len(), bound);
            assert!(
                c.entries.capacity() <= settled,
                "round {round}: the table grew from {settled} to {}",
                c.entries.capacity()
            );
        }
    }

    #[test]
    fn every_cache_is_bounded_and_a_batch_trims_once() {
        let mut c = VerifyCache::new();
        assert_eq!(c.capacity(), DEFAULT_CAPACITY);
        for i in 0..DEFAULT_CAPACITY as u64 + 5 {
            c.insert(key(i), UnitResult::default());
        }
        assert_eq!((c.len(), c.evictions()), (DEFAULT_CAPACITY, 5));
        assert!(!c.contains(&key(4)) && c.contains(&key(5)));
        // A batch of three new keys and one resident: three go, oldest
        // first, and the resident one is refreshed, not duplicated.
        let resident = key(5);
        c.insert_batch([900_000, 900_001, 5, 900_002].map(|i| (key(i), UnitResult::default())));
        assert_eq!((c.len(), c.evictions()), (DEFAULT_CAPACITY, 8));
        assert!(c.contains(&resident), "refreshed by the batch");
        assert!(!c.contains(&key(6)) && !c.contains(&key(8)) && c.contains(&key(9)));
    }

    #[test]
    fn absorb_merges_missing_entries_deterministically() {
        let mut shared = VerifyCache::with_capacity(4);
        shared.insert(key(0), sample_result());
        let mut snapshot = shared.clone();
        snapshot.insert(key(1), sample_result());
        snapshot.insert(key(2), sample_result());
        shared.insert(key(3), sample_result());
        shared.absorb(&snapshot);
        assert_eq!(shared.len(), 4);
        for i in 0..4 {
            assert!(shared.get(&key(i)).is_some(), "entry {i} present");
        }
        // Absorbing the same snapshot again changes nothing.
        shared.absorb(&snapshot);
        assert_eq!(shared.len(), 4);
        assert_eq!(shared.evictions(), 0);

        // Keyed: of a duplicated key, one the source lacks and one the
        // target holds, exactly the remainder arrives — in sorted order
        // (6 before 7, whatever the list's order) and with one trim.
        let mut source = VerifyCache::new();
        for i in [3, 6, 7, 8] {
            source.insert(key(i), sample_result());
        }
        let named = [key(7), key(3), key(6), key(7), key(5)];
        assert_eq!(shared.absorb_keys(&source, &named), 2);
        assert!(!shared.contains(&key(8)), "an unnamed key stays behind");
        assert_eq!((shared.len(), shared.evictions()), (4, 2));
        shared.set_capacity(1);
        assert!(
            shared.contains(&key(7)),
            "the last key merged is the newest"
        );
    }

    #[test]
    fn files_with_a_timing_array_still_load() {
        let mut c = VerifyCache::new();
        c.insert(key(0), sample_result());
        c.insert(key(1), sample_result());
        let json = c.to_json();
        // State files from versions with a timing-remainder tier carry a
        // populated `timing` array after the unit entries, one element
        // per payload kind it held.
        let timing = concat!(
            ",\"timing\":[",
            "{\"env\":1,\"space\":\"constraints\",\"digest\":5,\"cons\":[{\"net\":3,",
            "\"kind\":\"dynamic-eval\",\"clock\":null,\"setup\":4457293557087583675,",
            "\"hold\":9221120237041090560}]},",
            "{\"env\":1,\"space\":\"graph\",\"digest\":6,",
            "\"launches\":[{\"net\":0,\"clock\":9}],\"cuts\":[4]},",
            "{\"env\":1,\"space\":\"skew\",\"digest\":7,\"skew\":null},",
            "{\"env\":1,\"space\":\"sta\",\"digest\":9,",
            "\"units\":[{\"d\":11,\"nets\":[1,2]},{\"d\":22,\"nets\":[]}],",
            "\"arr\":[null,[4459297709374330667,9221120237041090560]],",
            "\"cmin\":[4460999547385425510,null],\"conv\":true}",
            "]}"
        );
        let legacy = format!("{}{timing}", &json[..json.len() - 1]);
        // It loads, the array is ignored, and the unit entries are the
        // same ones, bit for bit.
        let back = VerifyCache::from_json(&legacy).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.to_json(), json);
        // A corrupt unit entry is still rejected beside it.
        let corrupt = legacy.replacen("\"checked\":42", "\"checked\":\"x\"", 1);
        assert_ne!(corrupt, legacy);
        assert!(VerifyCache::from_json(&corrupt).is_err());
    }

    #[test]
    fn a_file_past_the_default_bound_loads_whole() {
        let n = DEFAULT_CAPACITY as u64 + 100;
        let mut c = VerifyCache::with_capacity(n as usize);
        for i in 0..n {
            c.insert(key(i), sample_result());
        }
        let json = c.to_json();
        let back = VerifyCache::from_json(&json).unwrap();
        assert_eq!((back.len(), back.evictions()), (n as usize, 0));
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn tallies_past_u32_are_corrupt_not_truncated() {
        let mut c = VerifyCache::new();
        c.insert(key(0), sample_result());
        let json = c.to_json();
        let past = u64::from(u32::MAX) + 1;
        for field in ["checked", "filtered"] {
            let value = if field == "checked" { 42 } else { 40 };
            let at_max = json.replacen(
                &format!("\"{field}\":{value}"),
                &format!("\"{field}\":{}", u32::MAX),
                1,
            );
            assert_ne!(at_max, json);
            assert!(
                VerifyCache::from_json(&at_max).is_ok(),
                "{field} at u32::MAX loads"
            );
            let over = json.replacen(
                &format!("\"{field}\":{value}"),
                &format!("\"{field}\":{past}"),
                1,
            );
            let err = VerifyCache::from_json(&over).unwrap_err();
            assert!(err.to_string().contains(field), "{err}");
        }
    }

    #[test]
    fn rejects_corrupt_input() {
        assert!(VerifyCache::from_json("not json").is_err());
        assert!(VerifyCache::from_json("{}").is_err());
        assert!(VerifyCache::from_json("{\"format\":\"cbv-cache/999\",\"entries\":[]}").is_err());
        assert!(
            VerifyCache::from_json("{\"format\":\"cbv-cache/1\",\"entries\":[{\"env\":1}]}")
                .is_err()
        );
        let empty = VerifyCache::from_json("{\"format\":\"cbv-cache/1\",\"entries\":[]}").unwrap();
        assert!(empty.is_empty());
    }
}
