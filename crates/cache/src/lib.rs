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
use std::hash::Hash;

use cbv_everify::report::{CheckKind, Finding, Severity, Subject};
use cbv_netlist::{CccId, DeviceId, NetId};
use cbv_tech::Seconds;
use cbv_timing::{
    Arc, ArrivalWindow, CaptureKind, ClockSkew, Constraint, LaunchPoint, StaSnapshot,
};
use serde::write_json_string;
use serde_json::{FieldError, Value};

pub mod fingerprint;

pub use fingerprint::{
    clock_tree_digest, env_fingerprint, fingerprint_design, raw_netlist_digest,
    recognition_timing_digest, sta_structure_digest, DesignFingerprints, UnitFingerprint,
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

/// Which piece of the serial timing remainder a [`TimingKey`] addresses.
///
/// The unit tier caches per-CCC battery findings and timing arcs; these
/// spaces extend the same content-addressed discipline to the serial
/// remainder the flow used to recompute on every run: inferred
/// constraints, the spliced graph's launch/cut structure, per-clock-tree
/// skew bounds, and the STA arrival state itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TimingSpace {
    /// `infer_constraints` output, keyed by the recognition-relevant
    /// content digest.
    Constraints,
    /// `graph_from_arcs` launch points and cut nets (the non-arc part of
    /// the graph), keyed the same way as constraints.
    Graph,
    /// One clock net's skew bounds, keyed by that tree's RC content and
    /// driver resistance.
    Skew,
    /// The STA arrival snapshot plus its arc lineage, keyed by the
    /// delay-independent propagation structure.
    Sta,
}

/// Full key of one cached timing-remainder artifact: environment
/// fingerprint, the space the digest lives in, and the space-specific
/// content digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TimingKey {
    /// Environment (process/corner/config/tool-version) fingerprint.
    pub env: u64,
    /// Which remainder artifact this addresses.
    pub space: TimingSpace,
    /// Space-specific content digest (see [`fingerprint`]).
    pub digest: u64,
}

/// The STA entry's payload: the arrival snapshot of a finished full
/// propagation plus the per-unit arc lineage it was computed from, so a
/// later run with the same propagation *structure* can diff its units
/// against this lineage, seed the changed nets dirty, and re-relax only
/// their fanout cone (full propagation remains the byte-identity
/// oracle — `analyze_incremental` falls back to it whenever replay is
/// not provably exact).
#[derive(Debug, Clone, PartialEq)]
pub struct StaLineage {
    /// Per-CCC unit content+binding fingerprint, in CCC order. Within
    /// one environment the fingerprint determines the unit's arcs (the
    /// unit tier's whole discipline), so diffing fingerprints the flow
    /// already computed is equivalent to re-digesting every arc list —
    /// at zero marginal cost per replay.
    pub unit_digests: Vec<u64>,
    /// Per-CCC endpoint nets of the unit's arcs (the dirty seeds when
    /// a unit's fingerprint changes).
    pub unit_arc_nets: Vec<Vec<NetId>>,
    /// The converged arrival state.
    pub snapshot: StaSnapshot,
}

/// Cached payload of one timing-remainder artifact.
#[derive(Debug, Clone, PartialEq)]
pub enum TimingPayload {
    /// Inferred capture constraints, in `infer_constraints` order.
    Constraints(Vec<Constraint>),
    /// The spliced graph's launch points and cut nets, in
    /// `graph_from_arcs` order.
    Graph {
        /// Launch points (primary inputs, state nets, dynamic nodes).
        launches: Vec<LaunchPoint>,
        /// Nets where propagation is cut.
        cut_nets: Vec<NetId>,
    },
    /// One clock net's skew bounds (`None` when the tree had no
    /// extracted RC network — a cached negative).
    Skew(Option<ClockSkew>),
    /// STA arrival snapshot plus arc lineage.
    Sta(StaLineage),
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

/// One stored timing-remainder artifact plus its recency stamp.
#[derive(Debug, Clone)]
struct TimingEntry {
    payload: TimingPayload,
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
    /// The timing-remainder side store. Kept separate from the unit map
    /// (different key/payload shapes, separately capacity-bounded) but
    /// sharing the LRU clock, so recency is comparable within each tier.
    timing: HashMap<TimingKey, TimingEntry>,
    tick: Cell<u64>,
    capacity: Option<usize>,
    evictions: usize,
    timing_evictions: usize,
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

    /// Evicts down to the capacity bound, each tier in one pass.
    fn trim(&mut self) {
        if let Some(cap) = self.capacity {
            let over = self.entries.len().saturating_sub(cap);
            self.evictions += evict_oldest(&mut self.entries, |e| e.used.get(), over);
            let over = self.timing.len().saturating_sub(cap);
            self.timing_evictions += evict_oldest(&mut self.timing, |e| e.used.get(), over);
        }
    }

    /// Entries evicted over the cache's lifetime (a cumulative counter;
    /// stage reports carry per-run deltas). Counts unit-tier evictions
    /// only; see [`VerifyCache::timing_evictions`].
    pub fn evictions(&self) -> usize {
        self.evictions
    }

    /// Timing-tier entries evicted over the cache's lifetime.
    pub fn timing_evictions(&self) -> usize {
        self.timing_evictions
    }

    /// Number of stored unit results (the timing tier is counted
    /// separately by [`VerifyCache::timing_len`]).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Number of stored timing-remainder artifacts.
    pub fn timing_len(&self) -> usize {
        self.timing.len()
    }

    /// True when nothing is cached in either tier.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty() && self.timing.is_empty()
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
            self.evictions += evict_oldest(&mut self.entries, |e| e.used.get(), over);
        }
        self.entries.insert(key, Entry { result, used });
    }

    /// True when the timing key is stored, without refreshing its
    /// recency (the absorb-accounting probe, like
    /// [`VerifyCache::contains`]).
    fn contains_timing(&self, key: &TimingKey) -> bool {
        self.timing.contains_key(key)
    }

    /// Looks up a timing-remainder artifact, refreshing its LRU recency.
    pub fn get_timing(&self, key: &TimingKey) -> Option<&TimingPayload> {
        let entry = self.timing.get(key)?;
        entry.used.set(self.next_tick());
        Some(&entry.payload)
    }

    /// Stores a timing-remainder artifact. The capacity bound applies to
    /// the timing tier separately (a bounded cache holds up to
    /// `capacity` unit entries *and* up to `capacity` timing entries —
    /// timing artifacts are few and load-bearing, so they must not be
    /// squeezed out by a flood of unit results).
    pub fn insert_timing(&mut self, key: TimingKey, payload: TimingPayload) {
        let used = Cell::new(self.next_tick());
        if let Some(slot) = self.timing.get_mut(&key) {
            *slot = TimingEntry { payload, used };
            return;
        }
        if let Some(cap) = self.capacity {
            let over = (self.timing.len() + 1).saturating_sub(cap);
            self.timing_evictions += evict_oldest(&mut self.timing, |e| e.used.get(), over);
        }
        self.timing.insert(key, TimingEntry { payload, used });
    }

    /// Merges entries this cache lacks from `other` (a snapshot another
    /// flow run populated): [`absorb_keys`](VerifyCache::absorb_keys)
    /// over every key `other` holds.
    pub fn absorb(&mut self, other: &VerifyCache) -> usize {
        let units: Vec<CacheKey> = other.entries.keys().copied().collect();
        let timing: Vec<TimingKey> = other.timing.keys().copied().collect();
        self.absorb_keys(other, &units, &timing)
    }

    /// The keyed write: merges the entries `units` and `timing` name
    /// that `other` holds and this cache lacks, respecting this cache's
    /// capacity. Existing entries win — two runs of the same unit
    /// produce the same payload, so freshness is irrelevant; keys are
    /// merged once each in sorted order so any evictions are
    /// deterministic. This is the write-back half of the daemon's
    /// shared-cache discipline: fetch under the lock, verify unlocked,
    /// absorb what the run added under the lock. The whole batch is
    /// stored first and each tier trimmed back to capacity in one pass
    /// — the survivors are the newest stamps either way, so the result
    /// (and the eviction tally) equals evicting one entry per insert,
    /// at O(capacity) per batch instead of per entry. Returns the
    /// number of unit entries actually copied, which existing-entry
    /// wins make smaller than the keys named under contention.
    pub fn absorb_keys(
        &mut self,
        other: &VerifyCache,
        units: &[CacheKey],
        timing: &[TimingKey],
    ) -> usize {
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
        // Timing entries merge under the same discipline (existing
        // wins, sorted order); the return value stays the unit-entry
        // count — the batch size the tier's stage reports track.
        let mut tkeys: Vec<&TimingKey> = timing
            .iter()
            .filter(|k| other.timing.contains_key(k) && !self.timing.contains_key(k))
            .collect();
        tkeys.sort_unstable();
        tkeys.dedup();
        for &key in &tkeys {
            let used = Cell::new(self.next_tick());
            let payload = other.timing[key].payload.clone();
            self.timing.insert(*key, TimingEntry { payload, used });
        }
        self.trim();
        keys.len()
    }

    /// The keyed read: copies into `overlay` the entries `units` and
    /// `timing` name that this cache holds and `overlay` still lacks,
    /// refreshing their recency here exactly as [`get`](VerifyCache::get)
    /// would. Returns the number of entries copied. A shared tier
    /// answers one request with this instead of a whole-cache clone, so
    /// the request costs O(keys), not O(cache).
    pub fn fetch_into(
        &self,
        units: &[CacheKey],
        timing: &[TimingKey],
        overlay: &mut VerifyCache,
    ) -> usize {
        let mut copied = 0;
        for key in units {
            if !overlay.contains(key) {
                if let Some(result) = self.get(key) {
                    overlay.insert(*key, result.clone());
                    copied += 1;
                }
            }
        }
        for key in timing {
            if !overlay.contains_timing(key) {
                if let Some(payload) = self.get_timing(key) {
                    overlay.insert_timing(*key, payload.clone());
                    copied += 1;
                }
            }
        }
        copied
    }

    /// Drops everything (the eviction counters survive: they are
    /// lifetime tallies, not population counts).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.timing.clear();
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
        out.push_str("],\"timing\":[");
        let mut tkeys: Vec<&TimingKey> = self.timing.keys().collect();
        tkeys.sort_unstable();
        for (i, key) in tkeys.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_timing_entry(key, &self.timing[key].payload, &mut out);
        }
        out.push_str("]}");
        out
    }

    /// Parses a cache from [`VerifyCache::to_json`] output. Any
    /// structural problem — bad JSON, unknown format tag, missing
    /// field, unknown enum string — is an error; a corrupt cache file
    /// must never half-load.
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
        // The timing array is optional: files written before the timing
        // tier existed still load (with an empty tier), but a *present*
        // array must parse entirely or the whole load fails.
        if let Some(timing) = root.get("timing") {
            let timing = timing
                .as_array()
                .ok_or_else(|| CacheFormatError::new("timing is not an array"))?;
            for entry in timing {
                let (key, payload) = read_timing_entry(entry)?;
                cache.insert_timing(key, payload);
            }
        }
        Ok(cache)
    }
}

/// Removes the `k` entries with the oldest recency stamps from one
/// tier's map and returns how many went. Stamps are unique, so the
/// victims are a function of stamp order alone; a batch costs one pass
/// over the map however large `k` is.
fn evict_oldest<K: Copy + Eq + Hash, E>(
    map: &mut HashMap<K, E>,
    stamp: impl Fn(&E) -> u64,
    k: usize,
) -> usize {
    let k = k.min(map.len());
    if k == 0 {
        return 0;
    }
    if k == 1 {
        // A lone insert at capacity: the minimum, without a stamp list.
        let oldest = map
            .iter()
            .min_by_key(|(_, e)| stamp(e))
            .map(|(&key, _)| key);
        map.remove(&oldest.expect("k <= len, so the map is not empty"));
        return 1;
    }
    let mut stamps: Vec<(u64, K)> = map.iter().map(|(&key, e)| (stamp(e), key)).collect();
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

fn space_str(s: TimingSpace) -> &'static str {
    match s {
        TimingSpace::Constraints => "constraints",
        TimingSpace::Graph => "graph",
        TimingSpace::Skew => "skew",
        TimingSpace::Sta => "sta",
    }
}

fn parse_space(s: &str) -> Option<TimingSpace> {
    match s {
        "constraints" => Some(TimingSpace::Constraints),
        "graph" => Some(TimingSpace::Graph),
        "skew" => Some(TimingSpace::Skew),
        "sta" => Some(TimingSpace::Sta),
        _ => None,
    }
}

fn capture_str(k: CaptureKind) -> &'static str {
    match k {
        CaptureKind::Latch => "latch",
        CaptureKind::CrossCoupled => "cross-coupled",
        CaptureKind::DynamicEval => "dynamic-eval",
    }
}

fn parse_capture(s: &str) -> Option<CaptureKind> {
    match s {
        "latch" => Some(CaptureKind::Latch),
        "cross-coupled" => Some(CaptureKind::CrossCoupled),
        "dynamic-eval" => Some(CaptureKind::DynamicEval),
        _ => None,
    }
}

/// Writes an optional net id as its index or `null`.
fn push_opt_net(out: &mut String, net: Option<NetId>) {
    match net {
        Some(n) => out.push_str(&n.index().to_string()),
        None => out.push_str("null"),
    }
}

/// Serializes one timing-remainder entry (same float-as-bits discipline
/// as [`write_unit_entry`], deterministic field order).
fn write_timing_entry(key: &TimingKey, payload: &TimingPayload, out: &mut String) {
    out.push_str(&format!(
        "{{\"env\":{},\"space\":\"{}\",\"digest\":{},",
        key.env,
        space_str(key.space),
        key.digest
    ));
    match payload {
        TimingPayload::Constraints(cons) => {
            out.push_str("\"cons\":[");
            for (i, c) in cons.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"net\":{},\"kind\":\"{}\",\"clock\":",
                    c.net.index(),
                    capture_str(c.kind)
                ));
                push_opt_net(out, c.clock);
                out.push_str(&format!(
                    ",\"setup\":{},\"hold\":{}}}",
                    c.setup.seconds().to_bits(),
                    c.hold.seconds().to_bits()
                ));
            }
            out.push(']');
        }
        TimingPayload::Graph { launches, cut_nets } => {
            out.push_str("\"launches\":[");
            for (i, l) in launches.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{{\"net\":{},\"clock\":", l.net.index()));
                push_opt_net(out, l.clock);
                out.push('}');
            }
            out.push_str("],\"cuts\":[");
            for (i, n) in cut_nets.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&n.index().to_string());
            }
            out.push(']');
        }
        TimingPayload::Skew(skew) => {
            out.push_str("\"skew\":");
            match skew {
                Some(s) => out.push_str(&format!(
                    "{{\"net\":{},\"min\":{},\"max\":{}}}",
                    s.net.index(),
                    s.min.seconds().to_bits(),
                    s.max.seconds().to_bits()
                )),
                None => out.push_str("null"),
            }
        }
        TimingPayload::Sta(lineage) => {
            out.push_str("\"units\":[");
            for (i, (&d, nets)) in lineage
                .unit_digests
                .iter()
                .zip(&lineage.unit_arc_nets)
                .enumerate()
            {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{{\"d\":{d},\"nets\":["));
                for (j, n) in nets.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    out.push_str(&n.index().to_string());
                }
                out.push_str("]}");
            }
            out.push_str("],\"arr\":[");
            for (i, a) in lineage.snapshot.arrivals.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                match a {
                    Some(w) => out.push_str(&format!(
                        "[{},{}]",
                        w.min.seconds().to_bits(),
                        w.max.seconds().to_bits()
                    )),
                    None => out.push_str("null"),
                }
            }
            out.push_str("],\"cmin\":[");
            for (i, c) in lineage.snapshot.clocked_min.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                match c {
                    Some(t) => out.push_str(&t.seconds().to_bits().to_string()),
                    None => out.push_str("null"),
                }
            }
            out.push_str(&format!("],\"conv\":{}", lineage.snapshot.converged));
        }
    }
    out.push('}');
}

/// Parses one entry produced by [`write_timing_entry`].
fn read_timing_entry(entry: &Value) -> Result<(TimingKey, TimingPayload), CacheFormatError> {
    let space = parse_space(entry.req_str("space")?)
        .ok_or_else(|| CacheFormatError::new("unknown timing space"))?;
    let key = TimingKey {
        env: entry.req_u64("env")?,
        space,
        digest: entry.req_u64("digest")?,
    };
    // Array elements and nullable fields hold bare net ids and times.
    let net = |v: &Value| {
        v.as_u32()
            .map(NetId)
            .ok_or_else(|| CacheFormatError::new("net id is not a u32"))
    };
    let time = |v: &Value| {
        v.as_u64()
            .map(|bits| Seconds::new(f64::from_bits(bits)))
            .ok_or_else(|| CacheFormatError::new("time is not an f64 bit pattern"))
    };
    let payload = match space {
        TimingSpace::Constraints => {
            let mut cons = Vec::new();
            for c in entry.req_array("cons")? {
                cons.push(Constraint {
                    net: NetId(c.req_u32("net")?),
                    kind: parse_capture(c.req_str("kind")?)
                        .ok_or_else(|| CacheFormatError::new("unknown capture kind"))?,
                    clock: match c.req("clock")? {
                        Value::Null => None,
                        v => Some(net(v)?),
                    },
                    setup: Seconds::new(c.req_f64_bits("setup")?),
                    hold: Seconds::new(c.req_f64_bits("hold")?),
                });
            }
            TimingPayload::Constraints(cons)
        }
        TimingSpace::Graph => {
            let mut launches = Vec::new();
            for l in entry.req_array("launches")? {
                launches.push(LaunchPoint {
                    net: NetId(l.req_u32("net")?),
                    clock: match l.req("clock")? {
                        Value::Null => None,
                        v => Some(net(v)?),
                    },
                });
            }
            TimingPayload::Graph {
                launches,
                cut_nets: entry
                    .req_array("cuts")?
                    .iter()
                    .map(net)
                    .collect::<Result<_, _>>()?,
            }
        }
        TimingSpace::Skew => TimingPayload::Skew(match entry.req("skew")? {
            Value::Null => None,
            v => Some(ClockSkew {
                net: NetId(v.req_u32("net")?),
                min: Seconds::new(v.req_f64_bits("min")?),
                max: Seconds::new(v.req_f64_bits("max")?),
            }),
        }),
        TimingSpace::Sta => {
            let mut unit_digests = Vec::new();
            let mut unit_arc_nets = Vec::new();
            for u in entry.req_array("units")? {
                unit_digests.push(u.req_u64("d")?);
                unit_arc_nets.push(
                    u.req_array("nets")?
                        .iter()
                        .map(net)
                        .collect::<Result<_, _>>()?,
                );
            }
            let arrivals = entry.req_array("arr")?.iter().map(|a| match a {
                Value::Null => Ok(None),
                Value::Array(pair) if pair.len() == 2 => Ok(Some(ArrivalWindow {
                    min: time(&pair[0])?,
                    max: time(&pair[1])?,
                })),
                _ => Err(CacheFormatError::new("arrival is neither pair nor null")),
            });
            let clocked_min = entry.req_array("cmin")?.iter().map(|c| match c {
                Value::Null => Ok(None),
                c => time(c).map(Some),
            });
            TimingPayload::Sta(StaLineage {
                unit_digests,
                unit_arc_nets,
                snapshot: StaSnapshot {
                    arrivals: arrivals.collect::<Result<_, _>>()?,
                    clocked_min: clocked_min.collect::<Result<_, _>>()?,
                    converged: entry.req_bool("conv")?,
                },
            })
        }
    };
    Ok((key, payload))
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
        assert_eq!(shared.absorb_keys(&source, &named, &[]), 2);
        assert!(!shared.contains(&key(8)), "an unnamed key stays behind");
        assert_eq!((shared.len(), shared.evictions()), (4, 2));
        shared.set_capacity(Some(1));
        assert!(
            shared.contains(&key(7)),
            "the last key merged is the newest"
        );
    }

    fn tkey(space: TimingSpace, digest: u64) -> TimingKey {
        TimingKey {
            env: 1,
            space,
            digest,
        }
    }

    fn sample_lineage() -> TimingPayload {
        TimingPayload::Sta(StaLineage {
            unit_digests: vec![11, 22],
            unit_arc_nets: vec![vec![NetId(1), NetId(2)], vec![]],
            snapshot: StaSnapshot {
                arrivals: vec![
                    None,
                    Some(ArrivalWindow {
                        min: Seconds::new(1.5e-10),
                        max: Seconds::new(f64::NAN),
                    }),
                ],
                clocked_min: vec![Some(Seconds::new(2.5e-10)), None],
                converged: true,
            },
        })
    }

    #[test]
    fn timing_tier_stores_all_payload_kinds_and_round_trips() {
        let mut c = VerifyCache::new();
        c.insert(key(0), sample_result());
        c.insert_timing(
            tkey(TimingSpace::Constraints, 5),
            TimingPayload::Constraints(vec![Constraint {
                net: NetId(3),
                kind: CaptureKind::DynamicEval,
                clock: None,
                setup: Seconds::new(1e-10),
                hold: Seconds::new(f64::NAN),
            }]),
        );
        c.insert_timing(
            tkey(TimingSpace::Graph, 6),
            TimingPayload::Graph {
                launches: vec![LaunchPoint {
                    net: NetId(0),
                    clock: Some(NetId(9)),
                }],
                cut_nets: vec![NetId(4)],
            },
        );
        c.insert_timing(tkey(TimingSpace::Skew, 7), TimingPayload::Skew(None));
        c.insert_timing(
            tkey(TimingSpace::Skew, 8),
            TimingPayload::Skew(Some(ClockSkew {
                net: NetId(9),
                min: Seconds::new(1e-11),
                max: Seconds::new(3e-11),
            })),
        );
        c.insert_timing(tkey(TimingSpace::Sta, 9), sample_lineage());
        assert_eq!(c.len(), 1, "unit count excludes the timing tier");
        assert_eq!(c.timing_len(), 5);

        let json = c.to_json();
        let back = VerifyCache::from_json(&json).unwrap();
        assert_eq!(back.timing_len(), 5);
        // Bit-exact: every payload survives, including NaN floats (via
        // to_bits) and the cached-negative skew.
        let sk = back.get_timing(&tkey(TimingSpace::Skew, 7)).unwrap();
        assert_eq!(*sk, TimingPayload::Skew(None));
        match back.get_timing(&tkey(TimingSpace::Constraints, 5)).unwrap() {
            TimingPayload::Constraints(cons) => {
                assert_eq!(cons[0].net, NetId(3));
                assert!(cons[0].hold.seconds().is_nan());
                assert_eq!(cons[0].setup.seconds().to_bits(), 1e-10f64.to_bits());
            }
            other => panic!("wrong payload: {other:?}"),
        }
        match back.get_timing(&tkey(TimingSpace::Sta, 9)).unwrap() {
            TimingPayload::Sta(l) => {
                assert_eq!(l.unit_digests, vec![11, 22]);
                assert_eq!(l.unit_arc_nets[0], vec![NetId(1), NetId(2)]);
                assert!(l.snapshot.arrivals[1].unwrap().max.seconds().is_nan());
                assert!(l.snapshot.converged);
            }
            other => panic!("wrong payload: {other:?}"),
        }
        // Deterministic serialization, timing tier included.
        assert_eq!(back.to_json(), json);
        // Pre-timing-tier files (no "timing" array) still load.
        let legacy = VerifyCache::from_json("{\"format\":\"cbv-cache/1\",\"entries\":[]}").unwrap();
        assert_eq!(legacy.timing_len(), 0);
    }

    #[test]
    fn timing_tier_has_its_own_lru_budget() {
        let mut c = VerifyCache::with_capacity(2);
        c.insert(key(0), sample_result());
        c.insert(key(1), sample_result());
        for d in 0..2 {
            c.insert_timing(tkey(TimingSpace::Skew, d), TimingPayload::Skew(None));
        }
        // Both tiers are full; neither insert evicted the other's tier.
        assert_eq!((c.len(), c.timing_len()), (2, 2));
        assert_eq!((c.evictions(), c.timing_evictions()), (0, 0));
        // Refresh digest 0 so digest 1 is the stalest timing entry.
        assert!(c.get_timing(&tkey(TimingSpace::Skew, 0)).is_some());
        c.insert_timing(tkey(TimingSpace::Skew, 2), TimingPayload::Skew(None));
        assert_eq!(c.timing_len(), 2);
        assert_eq!(c.timing_evictions(), 1);
        assert!(c.get_timing(&tkey(TimingSpace::Skew, 1)).is_none());
        assert_eq!(c.evictions(), 0, "unit tier untouched");
        // clear covers the timing tier too.
        c.clear();
        assert_eq!(c.timing_len(), 0);
        assert!(c.is_empty());
    }

    #[test]
    fn absorb_merges_timing_entries_but_reports_units_only() {
        let mut shared = VerifyCache::new();
        shared.insert_timing(tkey(TimingSpace::Sta, 1), sample_lineage());
        let mut snapshot = shared.clone();
        snapshot.insert(key(0), sample_result());
        snapshot.insert_timing(tkey(TimingSpace::Skew, 2), TimingPayload::Skew(None));
        // Existing-wins: shared's Sta entry must not be overwritten.
        snapshot.insert_timing(
            tkey(TimingSpace::Sta, 1),
            TimingPayload::Sta(StaLineage {
                unit_digests: vec![],
                unit_arc_nets: vec![],
                snapshot: StaSnapshot {
                    arrivals: vec![],
                    clocked_min: vec![],
                    converged: false,
                },
            }),
        );
        let copied = shared.absorb(&snapshot);
        assert_eq!(copied, 1, "absorb reports unit entries only");
        assert_eq!(shared.timing_len(), 2);
        // Existing-wins (PartialEq would reject the NaN arrival even on
        // the surviving original, so check the lineage digests).
        match shared.get_timing(&tkey(TimingSpace::Sta, 1)).unwrap() {
            TimingPayload::Sta(l) => {
                assert_eq!(l.unit_digests, vec![11, 22], "existing entry wins")
            }
            other => panic!("wrong payload: {other:?}"),
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
