//! `FlowService` — the shareable facade over the cached flow driver.
//!
//! The paper's methodology only pays off as a *service*: many designers
//! stream ECOs at one verification system that keeps the accumulated
//! unit results warm (§2, §4). This module packages exactly that for
//! in-process callers (the `cbv-serve` daemon's workers, the E17
//! harness, tests): one [`FlowService`] owns the process, a
//! [`FlowConfig`] template, and a mutex-guarded [`VerifyCache`] shared
//! by every request.
//!
//! # Concurrency discipline
//!
//! A verification run can take arbitrarily long, so the shared cache is
//! never held across one. [`FlowService::verify`] instead:
//!
//! 1. **fetches** by key: once the run's prep has named its unit keys,
//!    one locked batch copies exactly those entries (refreshing their
//!    LRU recency) into a per-run overlay, and claims the keys still
//!    missing (*Single-flight*, below).
//!    A request therefore costs O(design) in time and memory however
//!    large the tier has grown, and a bounded tier never evicts the
//!    revision a session is walking;
//! 2. runs the flow against the overlay, unlocked, so concurrent
//!    requests verify in parallel;
//! 3. **absorbs** the run's fresh entries into the tier under the lock
//!    ([`VerifyCache::absorb_keys`] merges in sorted key order and keeps
//!    existing entries, so two racing requests that verified the same
//!    unit converge on one entry deterministically) before the verdict
//!    is returned: every answered request's results are in the bounded
//!    tier, and nothing is held outside it.
//!
//! The tier is existing-entry-wins and rebuildable, so its lock
//! *recovers* from poisoning instead of propagating it: a job that
//! panics while holding it costs at most the entries it was writing,
//! never the requests that come after it.
//!
//! Because the signoff is cache-state-independent (the PR 2 soundness
//! contract: hits replay exactly what a fresh run would compute), racing
//! requests can never observe different verdicts for the same netlist —
//! the byte-identity guarantee the daemon's wire protocol exposes.
//!
//! # The driver's seams
//!
//! Every request is one run of the cached flow driver
//! ([`crate::scatter`]) with both of its seams set by the service: the
//! *cache* is this service as the driver's `SharedTier` — its four
//! newest prepared designs and a per-run overlay of its unit entries —
//! and the *unit backend* is the caller's —
//! [`verify_with_backend`](FlowService::verify_with_backend) is the farm
//! coordinator's entry point, [`verify`](FlowService::verify) uses
//! [`LocalBackend`]. Signoff bytes are identical either way.
//!
//! # Single-flight
//!
//! Racing requests that miss the *same* prep or unit would build it
//! twice — harmless for soundness (both stores are existing-entry-wins)
//! but wasted work, and lockstep clients do exactly that. "Built once"
//! is the driver's cache seam's rule, not this service's callers': the
//! lookup claims what the run will build in that key space's in-flight
//! ledger, the driver publishes the result, releases, and only then
//! awaits and looks up again what other runs had claimed — for every
//! backend, [`LocalBackend`] included. Claims are advisory and every
//! wait is bounded (`scatter::CLAIM_WAIT`) and by the waiter's own
//! deadline, so a stalled or crashed claimant degrades to duplicated
//! work, never to a wedged request.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use cbv_cache::{CacheKey, CacheStats, VerifyCache};
use cbv_netlist::FlatNetlist;
use cbv_tech::Process;

use crate::flow::{FlowConfig, FlowReport};
use crate::scatter::{
    run_flow_tiered, Claims, Inflight, LocalBackend, PrepKey, PrepLookup, PreparedDesign,
    SharedTier, UnitBackend, UnitOutcome,
};

/// Prepared designs a service keeps, newest last: walk-shaped workloads
/// only ever need the newest revision or two, and a sweep of three
/// revisions stays warm.
pub(crate) const PREP_CAPACITY: usize = 4;

/// A shareable, cache-backed verification endpoint. `&FlowService` is
/// `Send + Sync`; workers call [`verify`](FlowService::verify)
/// concurrently.
pub struct FlowService {
    process: Process,
    config: FlowConfig,
    /// The shared (remote, in farm terms) content-addressed tier — the
    /// only store: fetch, publish and absorb all take this one guard.
    cache: Mutex<VerifyCache>,
    /// Single-flight ledger: unit keys some run is computing right now.
    /// Lock order: after `cache` — a fetch claims under the tier's guard.
    inflight: Inflight,
    /// Shared serial-prep artifacts, oldest first, content-addressed by
    /// raw netlist digest: W streams verifying the same revision prepare
    /// it once.
    preps: Mutex<VecDeque<(PrepKey, Arc<PreparedDesign>)>>,
    /// Single-flight ledger for preps. Lock order: after `preps`.
    prep_inflight: Inflight<PrepKey>,
}

/// What one verification request came back with: the signoff both as
/// JSON (the bytes a remote client must receive verbatim) and as
/// extracted facts, plus the cache economics of the run.
#[derive(Debug, Clone)]
pub struct ServiceVerdict {
    /// The serialized [`Signoff`](crate::signoff::Signoff) — byte-for-
    /// byte what `serde_json::to_string` of an in-process run produces.
    pub signoff_json: String,
    /// Whether the design signed off clean.
    pub clean: bool,
    /// Total violations across categories.
    pub violations: usize,
    /// Hit/miss/eviction tally of the everify stage against the run's
    /// overlay of the shared cache.
    pub cache: CacheStats,
    /// Flow wall-clock runtime in seconds.
    pub runtime_s: f64,
}

impl FlowService {
    /// A service over one process corner with a config template. The
    /// template's `deadline`/`trace_parent` are ignored — those are
    /// per-request and passed to [`verify`](FlowService::verify).
    pub fn new(process: Process, config: FlowConfig) -> FlowService {
        FlowService {
            process,
            config,
            cache: Mutex::new(VerifyCache::new()),
            inflight: Inflight::default(),
            preps: Mutex::default(),
            prep_inflight: Inflight::default(),
        }
    }

    /// Bounds the shared cache (LRU eviction past `capacity` entries) —
    /// what a long-running daemon does so memory stays flat.
    pub fn with_cache_capacity(self, capacity: usize) -> FlowService {
        self.shared().set_capacity(capacity);
        self
    }

    /// The process corner this service verifies against.
    pub fn process(&self) -> &Process {
        &self.process
    }

    /// The flow config template requests run under. A farm worker must
    /// prepare designs under the *same* template as its coordinator for
    /// the environment fingerprints to agree.
    pub fn flow_config(&self) -> &FlowConfig {
        &self.config
    }

    /// Current entry count of the shared cache.
    pub fn cache_len(&self) -> usize {
        self.shared().len()
    }

    /// Serializes the shared tier to its `cbv-cache/1` wire form for
    /// persistence; a snapshot taken between jobs includes every
    /// answered job's results.
    pub fn cache_to_json(&self) -> String {
        self.shared().to_json()
    }

    /// Absorbs a previously persisted cache into the shared tier — the
    /// daemon-restart warm start. Existing entries win and the tier's
    /// capacity bound still applies; returns the entries absorbed.
    pub fn preload_cache(&self, loaded: &VerifyCache) -> usize {
        self.shared().absorb(loaded)
    }

    /// Total LRU evictions from the shared cache since construction.
    pub fn cache_evictions(&self) -> usize {
        self.shared().evictions()
    }

    /// The shared tier, recovered if a panicking holder poisoned it (see
    /// the module docs: every update leaves the map valid).
    fn shared(&self) -> MutexGuard<'_, VerifyCache> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The published preps, recovered like the tier.
    fn preps(&self) -> MutexGuard<'_, VecDeque<(PrepKey, Arc<PreparedDesign>)>> {
        self.preps.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Verifies one netlist revision with per-unit work routed through
    /// `backend` — the farm coordinator's entry point. The run fetches
    /// its keys from the shared tier into a per-run overlay, verifies
    /// unlocked, and absorbs its fresh entries into the tier before it
    /// returns. The verdict's [`CacheStats`] carry the tier economics:
    /// `hits`/`misses` are the fetch's answer rate, `absorbed` the
    /// number of unit entries this run delivered.
    pub fn verify_with_backend(
        &self,
        netlist: FlatNetlist,
        deadline: Option<Instant>,
        trace_parent: Option<u64>,
        backend: &dyn UnitBackend,
    ) -> (FlowReport, ServiceVerdict) {
        self.verify_tiered(netlist, deadline, trace_parent, self, backend)
    }

    /// [`verify_with_backend`](FlowService::verify_with_backend) with
    /// the prep and overlay answered by `tier` — always `self` outside
    /// the tests, which substitute the whole-clone oracle and wrappers.
    fn verify_tiered(
        &self,
        netlist: FlatNetlist,
        deadline: Option<Instant>,
        trace_parent: Option<u64>,
        tier: &dyn SharedTier,
        backend: &dyn UnitBackend,
    ) -> (FlowReport, ServiceVerdict) {
        let mut config = self.config.clone();
        config.deadline = deadline;
        config.trace_parent = trace_parent;
        let mut overlay = VerifyCache::new();
        let report = run_flow_tiered(
            netlist,
            &self.process,
            &config,
            &mut overlay,
            Some(tier),
            backend,
        );
        self.absorb(report, &overlay)
    }

    /// Absorbs the entries `report` says the run added to `overlay` into
    /// the shared tier, and assembles the verdict.
    fn absorb(&self, report: FlowReport, overlay: &VerifyCache) -> (FlowReport, ServiceVerdict) {
        let mut stats = report
            .stages
            .iter()
            .find(|s| s.stage == "everify")
            .and_then(|s| s.cache)
            .unwrap_or_default();
        // A bounded overlay may already have evicted a fresh entry; only
        // what survived is delivered. Counted here, not by the merge:
        // what `publish` delivered early is in the tier already.
        stats.absorbed = report
            .fresh
            .iter()
            .filter(|key| overlay.contains(key))
            .count();
        self.shared().absorb_keys(overlay, &report.fresh);
        self.config.tracer.add("cache.absorb.batches", 1);
        self.config
            .tracer
            .add("cache.absorb.entries", stats.absorbed as u64);
        let verdict = ServiceVerdict {
            signoff_json: serde_json::to_string(&report.signoff)
                .expect("signoff serialization is infallible"),
            clean: report.signoff.clean(),
            violations: report.signoff.violation_count(),
            cache: stats,
            runtime_s: report.total_runtime().seconds(),
        };
        (report, verdict)
    }

    /// Verifies one netlist revision; the common entry point when only
    /// the verdict is needed. `deadline` bounds the per-unit
    /// verification work cooperatively (see [`FlowConfig::deadline`]);
    /// `trace_parent` nests the run's `flow` span under a caller span.
    /// The shared cache is warm when this returns.
    pub fn verify(
        &self,
        netlist: FlatNetlist,
        deadline: Option<Instant>,
        trace_parent: Option<u64>,
    ) -> ServiceVerdict {
        self.verify_with_backend(netlist, deadline, trace_parent, &LocalBackend)
            .1
    }
}

/// A prep lookup reads the store of the newest preps, FIFO past
/// `PREP_CAPACITY`. The keyed fetch is one locked batch per request: the
/// read refreshes recency in the tier, so a bounded tier keeps what live
/// sessions are walking, and the run's claims follow before the guard
/// drops. The overlay inherits the tier's bound, so a design larger than
/// the bound is capped per run as it is per tier.
impl SharedTier for FlowService {
    fn prep(&self, key: PrepKey, by: Option<Instant>) -> PrepLookup<'_> {
        let lookup = || {
            let preps = self.preps();
            match preps.iter().find(|(k, _)| *k == key) {
                Some((_, prep)) => Ok(Arc::clone(prep)),
                None => Err(self.prep_inflight.claim([key])),
            }
        };
        match lookup() {
            Err((_, theirs)) if !theirs.is_empty() => {
                self.prep_inflight.wait(&theirs, by);
                lookup().map_err(|(claims, _)| claims)
            }
            found => found.map_err(|(claims, _)| claims),
        }
    }

    fn publish_prep(&self, key: PrepKey, prep: Arc<PreparedDesign>) {
        let mut preps = self.preps();
        if !preps.iter().any(|(k, _)| *k == key) {
            if preps.len() == PREP_CAPACITY {
                preps.pop_front();
            }
            preps.push_back((key, prep));
        }
    }

    fn prep_bases(&self, env: u64) -> Vec<Arc<PreparedDesign>> {
        let preps = self.preps();
        let same_env = preps.iter().rev().filter(|((e, _), _)| *e == env);
        same_env.map(|(_, prep)| Arc::clone(prep)).collect()
    }

    fn fetch(&self, keys: &[CacheKey], overlay: &mut VerifyCache) -> (Claims<'_>, Vec<CacheKey>) {
        let shared = self.shared();
        overlay.set_capacity(shared.capacity());
        let copied = shared.fetch_into(keys, overlay);
        let missing = keys.iter().filter(|key| !overlay.contains(key));
        let claimed = self.inflight.claim(missing.copied());
        drop(shared);
        self.config.tracer.add("cache.fetch.batches", 1);
        self.config.tracer.add("cache.fetch.entries", copied as u64);
        claimed
    }

    /// Into the tier in sorted key order (a backend may deliver in any
    /// order; eviction must not depend on it), where a waiter's re-fetch
    /// finds them at once — one [`VerifyCache::insert_batch`], so one
    /// trim a batch, not one O(capacity) eviction an entry.
    fn publish(&self, keys: &[CacheKey], outcomes: &[UnitOutcome]) {
        let mut shared = self.shared();
        let mut fresh: Vec<&UnitOutcome> = outcomes
            .iter()
            .filter(|o| !o.poisoned && !shared.contains(&keys[o.unit]))
            .collect();
        fresh.sort_unstable_by_key(|o| keys[o.unit]);
        shared.insert_batch(fresh.into_iter().map(|o| (keys[o.unit], o.result.clone())));
    }

    /// Its copies count as the request's fetched entries, not as a
    /// second batch.
    fn await_units(&self, keys: &[CacheKey], by: Option<Instant>, overlay: &mut VerifyCache) {
        self.inflight.wait(keys, by);
        let copied = self.shared().fetch_into(keys, overlay);
        self.config.tracer.add("cache.fetch.entries", copied as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{run_flow, run_flow_incremental};
    use cbv_everify::Severity;
    use cbv_exec::{run_isolated, Executor};
    use cbv_gen::adders::static_ripple_adder;
    use cbv_mutate::{MutationOp, Site};
    use cbv_netlist::{Device, DeviceId, NetKind};
    use cbv_obs::TraceCtx;
    use cbv_tech::MosKind;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{mpsc, Barrier};
    use std::time::Duration;

    /// The discipline the keyed fetch replaced, kept as its oracle: the
    /// overlay is a clone of the whole shared tier. It claims through the
    /// service's ledger, under the same guard, so the single-flight
    /// sequence is the oracle's too.
    struct WholeClone<'a>(&'a FlowService);

    impl SharedTier for WholeClone<'_> {
        fn prep(&self, key: PrepKey, by: Option<Instant>) -> PrepLookup<'_> {
            self.0.prep(key, by)
        }

        fn publish_prep(&self, key: PrepKey, prep: Arc<PreparedDesign>) {
            self.0.publish_prep(key, prep);
        }

        fn prep_bases(&self, env: u64) -> Vec<Arc<PreparedDesign>> {
            self.0.prep_bases(env)
        }

        fn fetch(
            &self,
            keys: &[CacheKey],
            overlay: &mut VerifyCache,
        ) -> (Claims<'_>, Vec<CacheKey>) {
            let shared = self.0.shared();
            *overlay = shared.clone();
            let missing = keys.iter().filter(|key| !overlay.contains(key));
            self.0.inflight.claim(missing.copied())
        }

        fn publish(&self, keys: &[CacheKey], outcomes: &[UnitOutcome]) {
            self.0.publish(keys, outcomes);
        }

        fn await_units(&self, keys: &[CacheKey], by: Option<Instant>, o: &mut VerifyCache) {
            self.0.await_units(keys, by, o);
        }
    }

    /// One request through the keyed fetch or the oracle.
    fn request(service: &FlowService, oracle: bool, netlist: FlatNetlist) -> ServiceVerdict {
        if oracle {
            service
                .verify_tiered(netlist, None, None, &WholeClone(service), &LocalBackend)
                .1
        } else {
            service.verify(netlist, None, None)
        }
    }

    /// Replays `revisions` as `clients` lockstep sessions would — every
    /// client verifies a revision, the later ones reading what the
    /// earlier ones absorbed — through a keyed service and an oracle
    /// service, and demands equality request for request and in the
    /// tiers they end with.
    fn assert_keyed_equals_oracle(revisions: impl Iterator<Item = FlatNetlist>, clients: usize) {
        let p = Process::strongarm_035();
        let keyed = FlowService::new(p.clone(), FlowConfig::default());
        let oracle = FlowService::new(p, FlowConfig::default());
        for (step, netlist) in revisions.enumerate() {
            for client in 0..clients {
                let k = request(&keyed, false, netlist.clone());
                let o = request(&oracle, true, netlist.clone());
                assert_eq!(
                    k.signoff_json, o.signoff_json,
                    "step {step} client {client}"
                );
                assert_eq!(k.cache, o.cache, "step {step} client {client}");
            }
            assert_eq!(keyed.cache_len(), oracle.cache_len(), "step {step}");
        }
        assert!(keyed.cache_len() > 0);
        assert_eq!(keyed.cache_to_json(), oracle.cache_to_json());
    }

    /// A seeded one-device ECO stream: each step scales one device's
    /// width by about 3 %, steering a device that has drifted back, and
    /// yields the revision. Every step's factor is its own, so no two
    /// paths through the walk meet in the same geometry — a unit seen
    /// once is never seen again once it has been edited.
    fn eco_stream(mut netlist: FlatNetlist, seed: u64) -> impl Iterator<Item = FlatNetlist> {
        let mut state = seed;
        let mut drift = vec![0i32; netlist.devices().len()];
        let mut step = 0u32;
        std::iter::repeat_with(move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let device = (state >> 33) as usize % drift.len();
            let up = match drift[device] {
                d if d > 4 => false,
                d if d < -4 => true,
                _ => state >> 63 == 1,
            };
            drift[device] += if up { 1 } else { -1 };
            step += 1;
            let by = 0.03 + f64::from(step) * 1e-6;
            let factor = if up { 1.0 + by } else { 1.0 - by };
            cbv_mutate::apply(
                &mut netlist,
                &MutationOp::WidthScale { factor },
                Site::Device(DeviceId(device as u32)),
            )
            .expect("width-scale applies at every device");
            netlist.clone()
        })
    }

    #[test]
    fn keyed_fetch_equals_the_whole_clone_oracle_on_an_eco_stream() {
        let p = Process::strongarm_035();
        let seed = static_ripple_adder(8, &p).netlist;
        assert_keyed_equals_oracle(eco_stream(seed, 13).take(200), 2);
    }

    #[test]
    fn keyed_fetch_equals_the_whole_clone_oracle_on_the_serve_scenarios() {
        // `tests/serve.rs`'s reference stream — a mutate operator, a raw
        // resize, an add-net/add-device batch — walked by four clients,
        // then rolled back to the seed (a revision the tier has seen).
        let p = Process::strongarm_035();
        let seed = static_ripple_adder(2, &p).netlist;
        let mut netlist = seed.clone();
        let mut revisions = vec![netlist.clone()];
        cbv_mutate::apply(
            &mut netlist,
            &MutationOp::WidthScale { factor: 1.25 },
            Site::Device(DeviceId(0)),
        )
        .expect("width-scale applies");
        revisions.push(netlist.clone());
        let d = netlist.device_mut(DeviceId(1));
        (d.w, d.l) = (2.0e-6, 3.5e-7);
        revisions.push(netlist.clone());
        netlist.add_net("spur", NetKind::Signal);
        let net = |i: u32| cbv_netlist::NetId(i);
        netlist.add_device(Device::mos(
            MosKind::Nmos,
            "mspur",
            net(0),
            net(1),
            net(2),
            net(3),
            1.0e-6,
            3.5e-7,
        ));
        revisions.push(netlist);
        revisions.push(seed);
        assert_keyed_equals_oracle(revisions.into_iter(), 4);
    }

    #[test]
    fn a_tier_at_capacity_never_evicts_the_revision_being_walked() {
        // 500 steps through a tier of four revisions' worth of entries,
        // against a tier at the default 2,048-entry bound. The keyed
        // fetch refreshes what it reads, so eviction only ever takes
        // entries no live revision names: the small tier answers exactly
        // what the large one does. The one thing it may forget is a unit that returns to a
        // fingerprint it left several revisions ago (layout quantizes,
        // so a neighbour's edit can flip a unit back) — those steps are
        // told apart by their keys and must be rare.
        let p = Process::strongarm_035();
        let config = FlowConfig::default();
        let seed = static_ripple_adder(2, &p).netlist;
        let units = PreparedDesign::build(seed.clone(), &p, &config).n_units();
        let large = FlowService::new(p.clone(), config.clone());
        let bounded = FlowService::new(p.clone(), config.clone()).with_cache_capacity(4 * units);
        let mut seen: HashSet<CacheKey> = HashSet::new();
        let mut previous: Vec<CacheKey> = Vec::new();
        let mut returns = 0;
        for (step, netlist) in eco_stream(seed, 29).take(500).enumerate() {
            let prep = PreparedDesign::build(netlist.clone(), &p, &config);
            let keys: Vec<CacheKey> = (0..units).map(|i| prep.unit_key(i)).collect();
            let returned = keys
                .iter()
                .any(|k| seen.contains(k) && !previous.contains(k));
            let b = bounded.verify(netlist.clone(), None, None).cache;
            let u = large.verify(netlist, None, None).cache;
            if returned {
                returns += 1;
            } else {
                assert_eq!((b.hits, b.misses), (u.hits, u.misses), "step {step}");
            }
            seen.extend(&keys);
            previous = keys;
        }
        assert!(returns <= 10, "{returns} steps returned to an old unit");
        assert_eq!(bounded.cache_len(), 4 * units, "the walk filled the tier");
        assert!(bounded.cache_evictions() > 0);
        assert!(large.cache_len() > 4 * units);
    }

    /// The key of a prep claim [`PoisoningBackend`] dies holding.
    const ABANDONED_PREP: PrepKey = (0xdead, 0xdead);

    /// A backend that dies between the fetch and the absorb while holding
    /// every lock the service has — the tier, its single-flight ledger
    /// (whose claims the driver holds for it), the prep store and the
    /// prep ledger with a claim on it — the worst a panicking job can do
    /// to them.
    struct PoisoningBackend<'a>(&'a FlowService);

    impl UnitBackend for PoisoningBackend<'_> {
        fn verify_units(
            &self,
            _prep: &PreparedDesign,
            _exec: &Executor,
            _ctx: TraceCtx<'_>,
            units: &[usize],
            _deadline: Option<Instant>,
        ) -> (Vec<UnitOutcome>, Duration) {
            let Err(_claim) = self.0.prep(ABANDONED_PREP, None) else {
                panic!("nobody publishes this key");
            };
            let _shared = self.0.cache.lock();
            let ledger = self.0.inflight.lock();
            assert_eq!(
                ledger.len(),
                units.len(),
                "the run claimed what it computes"
            );
            let _preps = self.0.preps.lock();
            let _prep_ledger = self.0.prep_inflight.lock();
            panic!("job died holding the tier locks");
        }
    }

    #[test]
    fn a_job_that_panics_holding_the_tier_locks_poisons_no_later_request() {
        let p = Process::strongarm_035();
        let netlist = static_ripple_adder(4, &p).netlist;
        let cold =
            serde_json::to_string(&run_flow(netlist.clone(), &p, &FlowConfig::default()).signoff)
                .unwrap();
        let service = FlowService::new(p.clone(), FlowConfig::default());
        // The claims are released from `Drop`s that run while the job
        // unwinds through locks it has just poisoned: a panic there would
        // abort the process, not fail this test.
        let died = run_isolated(0, || {
            service.verify_with_backend(netlist.clone(), None, None, &PoisoningBackend(&service))
        });
        assert!(died.is_err(), "the job must have panicked");
        assert!(service.cache.is_poisoned());
        assert!(service.preps.is_poisoned());
        assert!(
            service.inflight.lock().is_empty(),
            "the claims were released"
        );
        assert!(
            service.prep_inflight.lock().is_empty(),
            "and so was the prep claim"
        );
        let Err(reclaimed) = service.prep(ABANDONED_PREP, None) else {
            panic!("nobody published this key");
        };
        drop(reclaimed);
        assert!(
            service.prep(service_prep_key(&netlist, &p), None).is_ok(),
            "the recovered store still answers the job's published prep"
        );

        // The next identical request waits on nobody: it claims and
        // computes every unit itself.
        let n_units = PreparedDesign::build(netlist.clone(), &p, &FlowConfig::default()).n_units();
        let after = service.verify(netlist.clone(), None, None);
        assert_eq!(after.signoff_json, cold);
        assert_eq!((after.cache.coalesced, after.cache.misses), (0, n_units));
        assert!(service.cache_len() > 0, "the recovered tier still absorbs");
        let warm = service.verify(netlist, None, None);
        assert_eq!(warm.signoff_json, cold);
        assert_eq!(warm.cache.misses, 0, "and still answers");
    }

    /// A revision's prep key under the default config.
    fn service_prep_key(netlist: &FlatNetlist, p: &Process) -> PrepKey {
        let env = PreparedDesign::build(netlist.clone(), p, &FlowConfig::default()).env();
        (env, cbv_cache::raw_netlist_digest(netlist))
    }

    /// The service as its own tier, counting the prep lookups it answered
    /// with a published prep (`.1`) and with a claim (`.2`).
    struct PrepCounts<'a>(&'a FlowService, AtomicUsize, AtomicUsize);

    impl SharedTier for PrepCounts<'_> {
        fn prep(&self, key: PrepKey, by: Option<Instant>) -> PrepLookup<'_> {
            let found = self.0.prep(key, by);
            let n = if found.is_ok() { &self.1 } else { &self.2 };
            n.fetch_add(1, Ordering::SeqCst);
            found
        }

        fn publish_prep(&self, key: PrepKey, prep: Arc<PreparedDesign>) {
            self.0.publish_prep(key, prep);
        }

        fn prep_bases(&self, env: u64) -> Vec<Arc<PreparedDesign>> {
            self.0.prep_bases(env)
        }

        fn fetch(
            &self,
            keys: &[CacheKey],
            overlay: &mut VerifyCache,
        ) -> (Claims<'_>, Vec<CacheKey>) {
            self.0.fetch(keys, overlay)
        }

        fn publish(&self, keys: &[CacheKey], outcomes: &[UnitOutcome]) {
            self.0.publish(keys, outcomes);
        }

        fn await_units(&self, keys: &[CacheKey], by: Option<Instant>, o: &mut VerifyCache) {
            self.0.await_units(keys, by, o);
        }
    }

    #[test]
    fn identical_revisions_share_one_prep() {
        let p = Process::strongarm_035();
        let svc = FlowService::new(p.clone(), FlowConfig::default());
        let counts = PrepCounts(&svc, AtomicUsize::new(0), AtomicUsize::new(0));
        let netlist = static_ripple_adder(4, &p).netlist;
        let verify = |n| svc.verify_tiered(n, None, None, &counts, &LocalBackend).1;
        let a = verify(netlist.clone());
        let b = verify(netlist);
        assert_eq!(a.signoff_json, b.signoff_json);
        assert_eq!(
            (counts.1.into_inner(), counts.2.into_inner()),
            (1, 1),
            "the second verify must reuse the first verify's serial prep"
        );
    }

    #[test]
    fn a_stalled_prep_build_does_not_wedge_a_request_of_the_same_revision() {
        let p = Process::strongarm_035();
        let netlist = static_ripple_adder(4, &p).netlist;
        let key = service_prep_key(&netlist, &p);
        let service = Arc::new(FlowService::new(p, FlowConfig::default()));
        // Another stream claims the revision's prep and never publishes.
        let Err(stalled) = service.prep(key, None) else {
            panic!("an empty store cannot hit");
        };
        let (tx, rx) = mpsc::channel();
        let request = {
            let service = Arc::clone(&service);
            std::thread::spawn(move || {
                let by = Instant::now() + Duration::from_millis(200);
                let (report, verdict) =
                    service.verify_with_backend(netlist, Some(by), None, &LocalBackend);
                let n_cccs = report.recognition.cccs.len();
                let findings = report.everify.findings();
                let tool_errors = findings
                    .iter()
                    .filter(|f| f.severity == Severity::ToolError);
                tx.send((verdict, tool_errors.count(), n_cccs)).ok();
            })
        };
        // The request waits out its own deadline, not the claimant, then
        // builds the prep itself: a stalled claim costs duplicated work.
        let (verdict, tool_errors, n_cccs) = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("the request must return while the prep claim is held");
        assert!(
            service.prep_inflight.lock().contains(&key),
            "the claim was held throughout"
        );
        assert!(
            !verdict.clean,
            "a request past its deadline never signs off"
        );
        assert_eq!(tool_errors, 2 * n_cccs + 1, "every unit half timed out");
        assert_eq!(service.cache_len(), 0, "the tier holds no poisoned entry");
        drop(stalled);
        request.join().expect("request thread");
    }

    #[test]
    fn verdict_matches_in_process_flow_and_warms_the_cache() {
        let p = Process::strongarm_035();
        let reference = {
            let mut cache = VerifyCache::new();
            let r = run_flow_incremental(
                static_ripple_adder(4, &p).netlist,
                &p,
                &FlowConfig::default(),
                &mut cache,
            );
            serde_json::to_string(&r.signoff).unwrap()
        };

        let service = FlowService::new(p.clone(), FlowConfig::default());
        let first = service.verify(static_ripple_adder(4, &p).netlist, None, None);
        assert_eq!(first.signoff_json, reference);
        assert!(first.clean);
        assert_eq!(first.cache.hits, 0, "cold shared cache");
        assert!(service.cache_len() > 0, "run primed the shared cache");
        assert_eq!(first.cache.absorbed, service.cache_len(), "with every unit");

        let second = service.verify(static_ripple_adder(4, &p).netlist, None, None);
        assert_eq!(second.signoff_json, reference);
        assert_eq!(second.cache.misses, 0, "warm rerun is all hits");
        assert_eq!(second.cache.absorbed, 0, "and delivers nothing");
    }

    #[test]
    fn racing_requests_agree_byte_for_byte() {
        let p = Process::strongarm_035();
        let service = FlowService::new(p.clone(), FlowConfig::default());
        let verdicts: Vec<ServiceVerdict> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let service = &service;
                    let p = &p;
                    s.spawn(move || service.verify(static_ripple_adder(4, p).netlist, None, None))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let first = &verdicts[0].signoff_json;
        for v in &verdicts[1..] {
            assert_eq!(&v.signoff_json, first);
        }
    }

    #[test]
    fn expired_deadline_fails_the_verdict_without_poisoning_the_cache() {
        let p = Process::strongarm_035();
        let service = FlowService::new(p.clone(), FlowConfig::default());
        let timed_out = service.verify(
            static_ripple_adder(4, &p).netlist,
            Some(Instant::now()),
            None,
        );
        assert!(!timed_out.clean);
        assert_eq!(service.cache_len(), 0, "timed-out units are not cached");

        let retry = service.verify(static_ripple_adder(4, &p).netlist, None, None);
        assert!(retry.clean, "a later request re-verifies cleanly");
    }

    /// Unit 0's outcome, as a claimant delivers it.
    fn delivered() -> UnitOutcome {
        UnitOutcome {
            unit: 0,
            result: cbv_cache::UnitResult::default(),
            poisoned: false,
        }
    }

    #[test]
    fn single_flight_claims_wait_and_resolve_through_the_tier() {
        let p = Process::strongarm_035();
        let service = FlowService::new(p.clone(), FlowConfig::default());
        let fp = |content, binding| cbv_cache::UnitFingerprint { content, binding };
        let key = CacheKey::new(1, fp(2, 3));
        let keys = [key];
        let mut overlay = VerifyCache::new();

        let (claims, theirs) = service.fetch(&keys, &mut overlay);
        assert!(theirs.is_empty(), "first claimant wins");
        let (second, theirs) = service.fetch(&keys, &mut overlay);
        assert_eq!(theirs, [key], "second caller must wait");
        drop(second);
        // An unclaimed key never blocks the waiter.
        let other = CacheKey::new(4, fp(5, 6));
        let t0 = Instant::now();
        service.await_units(&[other], None, &mut overlay);
        assert!(t0.elapsed() < Duration::from_secs(1));

        // A waiter parks until the claimant publishes + releases, then
        // finds the result in the tier without recomputing.
        let resolved = std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                let mut overlay = VerifyCache::new();
                service.await_units(&[key], None, &mut overlay);
                overlay.get(&key)
            });
            service.publish(&[key], &[delivered()]);
            drop(claims);
            waiter.join().expect("waiter thread")
        });
        assert!(resolved.is_some(), "release published the result");
        service.shared().clear();
        let (_claims, theirs) = service.fetch(&keys, &mut overlay);
        assert!(theirs.is_empty(), "claim was released");

        // The timeout bounds a wedged claimant.
        let t0 = Instant::now();
        let by = t0 + Duration::from_millis(20);
        service.await_units(&[key], Some(by), &mut overlay);
        assert!(!overlay.contains(&key));
        assert!(t0.elapsed() >= Duration::from_millis(20));
        assert!(t0.elapsed() < Duration::from_secs(5));
    }

    /// [`LocalBackend`] behind a rendezvous: it announces that its run
    /// has fetched (and so claimed), then parks until `resume`.
    struct Parked<'a> {
        entered: &'a Barrier,
        resume: &'a Barrier,
    }

    impl UnitBackend for Parked<'_> {
        fn verify_units(
            &self,
            prep: &PreparedDesign,
            exec: &Executor,
            ctx: TraceCtx<'_>,
            units: &[usize],
            deadline: Option<Instant>,
        ) -> (Vec<UnitOutcome>, Duration) {
            self.entered.wait();
            self.resume.wait();
            LocalBackend.verify_units(prep, exec, ctx, units, deadline)
        }
    }

    /// [`LocalBackend`], counting the units it is asked for.
    struct Counting(AtomicUsize);

    impl UnitBackend for Counting {
        fn verify_units(
            &self,
            prep: &PreparedDesign,
            exec: &Executor,
            ctx: TraceCtx<'_>,
            units: &[usize],
            deadline: Option<Instant>,
        ) -> (Vec<UnitOutcome>, Duration) {
            self.0.fetch_add(units.len(), Ordering::SeqCst);
            LocalBackend.verify_units(prep, exec, ctx, units, deadline)
        }
    }

    /// A tier that reports when its fetch, claims included, is done.
    struct FetchThen<'a>(&'a dyn SharedTier, &'a Barrier);

    impl SharedTier for FetchThen<'_> {
        fn prep(&self, key: PrepKey, by: Option<Instant>) -> PrepLookup<'_> {
            self.0.prep(key, by)
        }

        fn publish_prep(&self, key: PrepKey, prep: Arc<PreparedDesign>) {
            self.0.publish_prep(key, prep);
        }

        fn prep_bases(&self, env: u64) -> Vec<Arc<PreparedDesign>> {
            self.0.prep_bases(env)
        }

        fn fetch(
            &self,
            keys: &[CacheKey],
            overlay: &mut VerifyCache,
        ) -> (Claims<'_>, Vec<CacheKey>) {
            let fetched = self.0.fetch(keys, overlay);
            self.1.wait();
            fetched
        }

        fn publish(&self, keys: &[CacheKey], outcomes: &[UnitOutcome]) {
            self.0.publish(keys, outcomes);
        }

        fn await_units(&self, keys: &[CacheKey], by: Option<Instant>, o: &mut VerifyCache) {
            self.0.await_units(keys, by, o);
        }
    }

    /// What the forced lockstep race came back with.
    struct Race {
        a: ServiceVerdict,
        b: ServiceVerdict,
        /// Units run B's backend was asked for.
        b_asked: usize,
        /// The `cbv-cache/1` bytes of the tier the race left behind.
        tier: String,
        /// Everify misses of `seed` then `edited` on one owned cache.
        owned_misses: usize,
        /// Unit keys of `edited` that `seed` did not prime.
        missing: usize,
        cold: String,
    }

    /// The lockstep race, forced: a tier primed with ripple4 is asked
    /// for one never-seen revision by two runs, A parked inside its
    /// backend — fetched, claims held — until B has fetched too.
    fn lockstep_race(oracle: bool, a_deadline: Option<Instant>) -> Race {
        let p = Process::strongarm_035();
        let config = FlowConfig::default();
        let seed = static_ripple_adder(4, &p).netlist;
        let mut edited = seed.clone();
        let scale = MutationOp::WidthScale { factor: 1.25 };
        cbv_mutate::apply(&mut edited, &scale, Site::Device(DeviceId(0))).expect("applies");

        let mut owned = VerifyCache::new();
        run_flow_incremental(seed.clone(), &p, &config, &mut owned);
        let prep = PreparedDesign::build(edited.clone(), &p, &config);
        let absent = |i: &usize| !owned.contains(&prep.unit_key(*i));
        let missing = (0..prep.n_units()).filter(absent).count();
        let replay = run_flow_incremental(edited.clone(), &p, &config, &mut owned);
        let everify = replay.stages.iter().find(|s| s.stage == "everify");
        let owned_misses = everify.and_then(|s| s.cache).expect("cached row").misses;

        let service = FlowService::new(p.clone(), config.clone());
        request(&service, oracle, seed);
        let whole = WholeClone(&service);
        let tier: &(dyn SharedTier + Sync) = if oracle { &whole } else { &service };
        let (entered, resume) = (Barrier::new(2), Barrier::new(2));
        let counting = Counting(AtomicUsize::new(0));
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(|| {
                let parked = Parked {
                    entered: &entered,
                    resume: &resume,
                };
                service.verify_tiered(edited.clone(), a_deadline, None, tier, &parked)
            });
            entered.wait();
            let tier = FetchThen(tier, &resume);
            let b = service.verify_tiered(edited.clone(), None, None, &tier, &counting);
            (a.join().expect("run a").1, b.1)
        });
        Race {
            a,
            b,
            b_asked: counting.0.load(Ordering::SeqCst),
            tier: service.cache_to_json(),
            owned_misses,
            missing,
            cold: serde_json::to_string(&run_flow(edited, &p, &config).signoff).unwrap(),
        }
    }

    #[test]
    fn racing_runs_of_one_revision_compute_each_unit_once() {
        let race = lockstep_race(false, None);
        assert!(race.missing > 0 && race.owned_misses == race.missing);
        assert_eq!(
            race.a.cache.misses + race.b.cache.misses,
            race.owned_misses,
            "the two runs together compute what one replay does"
        );
        assert_eq!(race.b.cache.coalesced, race.missing);
        assert_eq!(race.b.cache.misses, 0);
        assert_eq!(race.b_asked, 0, "B's backend was asked for nothing");
        assert_eq!(race.a.cache.coalesced, 0);
        assert_eq!(race.a.signoff_json, race.cold);
        assert_eq!(race.b.signoff_json, race.cold);
        assert_eq!(race.tier, lockstep_race(true, None).tier);
    }

    #[test]
    fn a_waiter_computes_what_a_poisoned_claimant_did_not_deliver() {
        // A's deadline has expired when its backend resumes: every unit
        // it claimed comes back poisoned, so it publishes nothing and
        // releases. B wakes on the release, not on the wait's bound.
        let t0 = Instant::now();
        let race = lockstep_race(false, Some(Instant::now()));
        assert!(t0.elapsed() < crate::scatter::CLAIM_WAIT);
        assert!(!race.a.clean, "a timed-out run never signs off");
        assert_eq!(race.a.cache.absorbed, 0, "nor caches anything");
        assert_eq!(race.b.cache.coalesced, 0);
        assert_eq!(race.b.cache.misses, race.owned_misses);
        assert_eq!(race.b_asked, race.owned_misses, "in its second batch");
        assert_eq!(race.b.cache.absorbed, race.owned_misses);
        assert_eq!(race.b.signoff_json, race.cold);
        // The tier ends as if B had run alone.
        let alone = lockstep_race(false, None);
        assert_eq!(race.tier, alone.tier);
    }

    #[test]
    fn bounded_cache_evicts_and_counts() {
        let p = Process::strongarm_035();
        let service = FlowService::new(p.clone(), FlowConfig::default()).with_cache_capacity(2);
        let v = service.verify(static_ripple_adder(4, &p).netlist, None, None);
        assert!(service.cache_len() <= 2, "shared cache stays bounded");
        // The run's inserts overflowed its overlay, which inherits the
        // tier's bound (the adder has more than two units); the
        // verdict's stage stats carry that.
        assert!(v.cache.evictions > 0, "adder has >2 units");
    }
}
