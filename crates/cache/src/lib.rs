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
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UnitResult {
    /// Findings in the order the checks emitted them.
    pub findings: Vec<Finding>,
    /// Values inspected by the unit's checks.
    pub checked: usize,
    /// Values silently filtered (below the review threshold).
    pub filtered: usize,
    /// Timing arcs of the unit's CCC (empty for the residue unit).
    pub arcs: Vec<Arc>,
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

/// One stored unit result plus its recency stamp (interior-mutable so a
/// shared-reference lookup can refresh it).
#[derive(Debug, Clone, Default)]
struct Entry {
    result: UnitResult,
    used: Cell<u64>,
}

/// The verification result store.
///
/// A fingerprint-keyed map. Entries are never invalidated in place — a
/// stale entry simply stops being hit once its key no longer matches
/// anything — so an unbounded store only grows; give the cache a
/// [capacity](VerifyCache::with_capacity) and let least-recently-used
/// eviction bound it (what a long-running daemon does). Every [`get`](VerifyCache::get) refreshes the entry's recency;
/// an insert past capacity evicts the stalest entry and bumps the
/// [eviction counter](VerifyCache::evictions).
#[derive(Debug, Clone, Default)]
pub struct VerifyCache {
    entries: HashMap<CacheKey, Entry>,
    tick: Cell<u64>,
    capacity: Option<usize>,
    evictions: usize,
}

impl VerifyCache {
    /// An empty, unbounded cache.
    pub fn new() -> VerifyCache {
        VerifyCache::default()
    }

    /// An empty cache holding at most `capacity` entries (LRU beyond).
    pub fn with_capacity(capacity: usize) -> VerifyCache {
        VerifyCache {
            capacity: Some(capacity.max(1)),
            ..VerifyCache::default()
        }
    }

    /// The entry cap, if bounded.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Re-bounds the cache. Shrinking below the current population
    /// evicts least-recently-used entries immediately; `None` removes
    /// the cap.
    pub fn set_capacity(&mut self, capacity: Option<usize>) {
        self.capacity = capacity.map(|c| c.max(1));
        self.trim();
    }

    /// Evicts down to the capacity bound in one pass.
    fn trim(&mut self) {
        if let Some(cap) = self.capacity {
            let over = self.entries.len().saturating_sub(cap);
            self.evictions += evict_oldest(&mut self.entries, over);
        }
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

    /// Looks up a unit result, refreshing its LRU recency.
    pub fn get(&self, key: &CacheKey) -> Option<&UnitResult> {
        let entry = self.entries.get(key)?;
        entry.used.set(self.next_tick());
        Some(&entry.result)
    }

    /// Stores a unit result. On a bounded cache, storing a *new* key at
    /// capacity first evicts the least-recently-used entry (stamp ties
    /// cannot occur: stamps are unique).
    pub fn insert(&mut self, key: CacheKey, result: UnitResult) {
        let used = Cell::new(self.next_tick());
        if let Some(slot) = self.entries.get_mut(&key) {
            *slot = Entry { result, used };
            return;
        }
        if let Some(cap) = self.capacity {
            let over = (self.entries.len() + 1).saturating_sub(cap);
            self.evictions += evict_oldest(&mut self.entries, over);
        }
        self.entries.insert(key, Entry { result, used });
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
        for &key in &keys {
            let used = Cell::new(self.next_tick());
            let result = other.entries[key].result.clone();
            self.entries.insert(*key, Entry { result, used });
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
                if let Some(result) = self.get(key) {
                    overlay.insert(*key, result.clone());
                    copied += 1;
                }
            }
        }
        copied
    }

    /// Drops everything (the eviction counter survives: it is a
    /// lifetime tally, not a population count).
    pub fn clear(&mut self) {
        self.entries.clear();
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
            write_unit_entry(key, &self.entries[key].result, &mut out);
        }
        out.push_str("]}");
        out
    }

    /// Parses a cache from [`VerifyCache::to_json`] output. Any
    /// structural problem — bad JSON, unknown format tag, missing
    /// field, unknown enum string — is an error; a corrupt cache file
    /// must never half-load. Fields the reader does not read are
    /// ignored, among them the `timing` array that files written by
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
        let mut cache = VerifyCache::new();
        for entry in root.req_array("entries")? {
            let (key, result) = read_unit_entry(entry)?;
            cache.insert(key, result);
        }
        Ok(cache)
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
    Ok((
        key,
        UnitResult {
            findings,
            checked: entry.req_u64("checked")? as usize,
            filtered: entry.req_u64("filtered")? as usize,
            arcs,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_result() -> UnitResult {
        UnitResult {
            findings: vec![
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
                    message: "check edge-rate panicked: boom".into(),
                },
            ],
            checked: 42,
            filtered: 40,
            arcs: vec![Arc {
                from: NetId(1),
                to: NetId(2),
                min: Seconds::new(1.234_567_890_123e-10),
                max: Seconds::new(4.321e-10),
                ccc: CccId(5),
            }],
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
        for (k, v) in c.entries.iter().map(|(k, e)| (k, &e.result)) {
            let r = back.get(k).expect("entry survives");
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
        assert_eq!(c.capacity(), Some(3));
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
        c.set_capacity(Some(2));
        assert_eq!(c.len(), 2);
        assert_eq!(c.evictions(), 3);
        assert!(c.get(&key(0)).is_some());
        assert!(c.get(&key(4)).is_some());
        c.set_capacity(None);
        assert_eq!(c.capacity(), None);
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
        shared.set_capacity(Some(1));
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
