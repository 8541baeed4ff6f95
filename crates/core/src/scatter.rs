//! The cached flow driver and its two seams.
//!
//! Fig 2 is one design flow with the §4.2/§4.3 filters sitting inside
//! the designer's edit loop, and `run_flow_tiered` here is its one cached
//! implementation; every cached entry point is that body with its seams
//! set:
//!
//! - **cache** — an owned [`VerifyCache`] looked up and primed in place
//!   (an empty one is the cold flow plus fingerprinting; the run builds
//!   its own prep), or a `SharedTier` (the daemon's
//!   [`FlowService`](crate::service::FlowService)) that answers the
//!   run's prep lookup with another stream's artifact and fills a
//!   per-run overlay by one keyed fetch — which is raced for, so this
//!   seam owns the single-flight rule, one claim ledger (`Inflight`)
//!   per key space;
//! - **unit backend** ([`UnitBackend`]) — [`LocalBackend`] fans dirty
//!   units out on the in-process executor; the farm coordinator in
//!   `cbv-serve` ships them to worker processes, the way the paper's
//!   methodology leaned on a ~100-CPU farm (§1: 2×10⁹ cycles/day).
//!
//! [`run_flow_incremental`] is the driver on an owned cache with the
//! local backend; the service is its own tier and takes the backend
//! from its caller. The cold [`run_flow`] is deliberately *not* this
//! body: it verifies the whole design without the unit partition, which
//! makes it the oracle the driver is compared against. The two share
//! only one run context (`RunCtx`: its opening, stage rows and closing),
//! the prep builder (`RunCtx::prep`, which computes every row when there
//! is no base — the serial prep), the timing stage after graph assembly
//! (constraints, skew, STA) and the power + signoff roll-up.
//!
//! # Stage rows and determinism
//!
//! The rows are the cold flow's plus `fingerprint`. The backend computes
//! a dirty unit's §4.2 scoped battery *and* its §4.3 timing arcs fused,
//! inside the `everify` row, so the `timing` row is the serial remainder
//! alone (splice, constraints, skew, STA) and a unit half that panics
//! reports its `ToolError` inline with the unit. A backend may return
//! outcomes in any order and compute them anywhere: the driver
//! re-indexes them by unit, merges in fixed unit order, splices arcs in
//! CCC index order and runs the remainder and power serially — so the
//! [`Signoff`] it serializes (per-category counts, never finding lists)
//! is byte-identical to [`run_flow`]'s, whatever the seams are set to.
//!
//! [`run_flow`]: crate::flow::run_flow
//! [`run_flow_incremental`]: crate::flow::run_flow_incremental
//! [`Signoff`]: crate::signoff::Signoff

use std::borrow::Cow;
use std::collections::HashSet;
use std::hash::Hash;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use cbv_cache::{
    fingerprint_design, raw_netlist_digest, CacheKey, CacheStats, DesignFingerprints,
    UnitFingerprint, UnitResult, VerifyCache,
};
use cbv_everify::{CheckKind, CheckScope, EverifyConfig, Finding, Severity, Subject};
use cbv_exec::{run_isolated, Executor};
use cbv_extract::{Extracted, PackedExtraction, ShapeIndex};
use cbv_layout::{Layout, PackedLayout};
use cbv_netlist::{DeviceId, FlatNetlist, NetId};
use cbv_obs::TraceCtx;
use cbv_recognize::Recognition;
use cbv_tech::{Process, Tolerance};
use cbv_timing::{DelayCalc, Pessimism};

use crate::flow::{check_deadline, FlowConfig, FlowReport, Prep, RunCtx};

/// Everything a worker needs to verify any unit of one design revision:
/// the recognized/laid-out/extracted design plus its unit partition and
/// fingerprints. Built once per revision (the expensive serial prep),
/// then units are verified independently — locally, on another thread,
/// or in another process that rebuilt the identical netlist.
pub struct PreparedDesign {
    parts: Prep,
    /// The shape index `parts`' extraction was taken through: a prep
    /// spliced from this one patches it.
    index: Arc<ShapeIndex>,
    scopes: Vec<CheckScope>,
    fps: DesignFingerprints,
    env: u64,
    process: Process,
    everify_cfg: EverifyConfig,
    tolerance: Tolerance,
    pessimism: Pessimism,
}

/// One unit's verification outcome: the cacheable payload plus whether
/// either half (battery or arcs) panicked. Poisoned results are
/// reported but never cached — the failure artifact must not shadow a
/// later successful re-verification.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitOutcome {
    /// Unit index in the design's fixed unit order.
    pub unit: usize,
    /// Findings, tallies and (for CCC units) timing arcs.
    pub result: UnitResult,
    /// True when the battery or the arc computation panicked.
    pub poisoned: bool,
}

/// The finding a unit reports in place of the half (`what`: battery or
/// arcs) that panicked or ran past its deadline.
fn tool_error(unit: usize, what: &str, panic: &cbv_exec::TaskPanic) -> Finding {
    Finding {
        check: CheckKind::Tool,
        subject: Subject::Unit(unit as u32),
        severity: Severity::ToolError,
        stress: f64::INFINITY,
        message: format!("{what} {unit} panicked: {}", panic.message),
    }
}

impl PreparedDesign {
    /// Runs the serial prep stages (recognition, layout assistance,
    /// extraction, partition, fingerprints) over a netlist. This is the
    /// worker-side entry: no tracing, no stage reports, no DRC — the
    /// coordinator's driver reports those for the run.
    pub fn build(netlist: FlatNetlist, process: &Process, config: &FlowConfig) -> Self {
        Self::untraced(netlist, process, config, Source::Cold)
    }

    /// The prep of `netlist` from `source`, built on an untraced run.
    fn untraced(
        netlist: FlatNetlist,
        process: &Process,
        config: &FlowConfig,
        source: Source,
    ) -> Self {
        let mut run = RunCtx::untraced(process, config);
        let staged = run
            .prep(netlist, source)
            .expect("an unshared prep is built");
        Self::new(staged, &run)
    }

    /// Partitions and fingerprints a run's own stages 1–3: the
    /// fingerprints spliced from the base's when the prep was spliced,
    /// counting the CCC units re-folded on the run's tracer, else in
    /// full.
    pub(crate) fn new(staged: Staged, run: &RunCtx<'_>) -> Self {
        let Prep {
            netlist,
            recognition,
            extracted,
            ..
        } = &staged.parts;
        let fps = match staged.spliced {
            Some((base, resized, reextracted)) => {
                let (fps, refolded) =
                    base.spliced(netlist, recognition, extracted, &resized, &reextracted);
                run.flow
                    .tracer
                    .add("fingerprint.units_refolded", refolded as u64);
                fps
            }
            None => fingerprint_design(netlist, recognition, extracted),
        };
        let scopes = CheckScope::partition(netlist, recognition);
        debug_assert_eq!(scopes.len(), fps.units.len());
        PreparedDesign {
            parts: staged.parts,
            index: Arc::new(staged.index),
            scopes,
            fps,
            env: run.env,
            process: run.process.clone(),
            everify_cfg: run.everify_cfg.clone(),
            tolerance: run.config.tolerance,
            pessimism: run.config.pessimism,
        }
    }

    /// The design's recognition.
    pub fn recognition(&self) -> &Recognition {
        &self.parts.recognition
    }

    /// The design's assisted layout.
    pub fn layout(&self) -> &Layout {
        &self.parts.layout
    }

    /// The design's extraction.
    pub fn extracted(&self) -> &Extracted {
        &self.parts.extracted
    }

    /// The index over the design's layout that its extraction was taken
    /// through, patched from the base's when the prep was spliced.
    pub fn shape_index(&self) -> &ShapeIndex {
        &self.index
    }

    /// Environment fingerprint (process/corner/config/tool version).
    pub fn env(&self) -> u64 {
        self.env
    }

    /// Per-unit fingerprints in fixed unit order. A coordinator and a
    /// worker that prepared the same design revision must agree on
    /// these exactly; a mismatch means the builds diverged and the
    /// worker's payloads cannot be trusted.
    pub fn unit_fingerprints(&self) -> &[UnitFingerprint] {
        &self.fps.units
    }

    /// Number of verification units (CCCs plus the residue unit).
    pub fn n_units(&self) -> usize {
        self.scopes.len()
    }

    /// Number of CCC units (units carrying timing arcs).
    pub fn n_cccs(&self) -> usize {
        self.parts.recognition.cccs.len()
    }

    /// The cache key of one unit under this design's environment.
    pub fn unit_key(&self, unit: usize) -> CacheKey {
        CacheKey::new(self.env, self.fps.units[unit])
    }

    /// Verifies one unit: the §4.2 scoped battery, then (for CCC units)
    /// the unit's §4.3 timing arcs. Both halves run under panic
    /// isolation and a cooperative deadline, and both are always
    /// attempted, so an expired deadline yields a fixed `ToolError`
    /// census: two findings per CCC unit, one for the residue.
    pub fn verify_unit(&self, i: usize, deadline: Option<Instant>) -> UnitOutcome {
        let Prep {
            netlist,
            recognition,
            layout,
            extracted,
        } = &self.parts;
        let mut poisoned = false;
        let (mut findings, checked, filtered) = match run_isolated(i, || {
            check_deadline(deadline);
            let r = cbv_everify::run_scoped(
                netlist,
                recognition,
                extracted,
                Some(layout),
                &self.process,
                &self.everify_cfg,
                &self.scopes[i],
            );
            let tally = |n: usize| u32::try_from(n).expect("a unit checks under 2^32 values");
            (
                r.findings().to_vec(),
                tally(r.checked_count()),
                tally(r.filtered_count()),
            )
        }) {
            Ok(tallied) => tallied,
            Err(p) => {
                poisoned = true;
                (vec![tool_error(i, "everify unit", &p)], 0, 0)
            }
        };
        let mut arcs = Vec::new();
        if i < self.n_cccs() {
            let calc = DelayCalc::new(&self.process, self.tolerance, self.pessimism);
            match run_isolated(i, || {
                check_deadline(deadline);
                cbv_timing::graph::ccc_arcs(netlist, recognition, extracted, &calc, i)
            }) {
                Ok(ccc_arcs) => arcs = ccc_arcs,
                Err(p) => {
                    poisoned = true;
                    findings.push(tool_error(i, "timing arcs for CCC", &p));
                }
            }
        }
        UnitOutcome {
            unit: i,
            result: UnitResult {
                findings: findings.into(),
                checked,
                filtered,
                arcs: arcs.into(),
            },
            poisoned,
        }
    }
}

/// Where dirty units get verified. The contract: return exactly one
/// outcome per requested unit (any order), each computed by
/// [`PreparedDesign::verify_unit`] semantics on an identically prepared
/// design, plus the aggregate busy time for the stage's cpu tally.
/// Implementations that dispatch remotely must fall back to local
/// verification for units no worker answered — the flow panics on a
/// missing outcome rather than signing off with a hole.
pub trait UnitBackend {
    /// Verifies `units` (indices into the design's fixed unit order).
    fn verify_units(
        &self,
        prep: &PreparedDesign,
        exec: &Executor,
        ctx: TraceCtx<'_>,
        units: &[usize],
        deadline: Option<Instant>,
    ) -> (Vec<UnitOutcome>, Duration);
}

/// The in-process backend: units fan out across the executor's worker
/// threads, one `unit:<i>` span each.
pub struct LocalBackend;

impl UnitBackend for LocalBackend {
    fn verify_units(
        &self,
        prep: &PreparedDesign,
        exec: &Executor,
        ctx: TraceCtx<'_>,
        units: &[usize],
        deadline: Option<Instant>,
    ) -> (Vec<UnitOutcome>, Duration) {
        let units = units.to_vec();
        let labels = units.clone();
        // verify_unit already isolates panics into poisoned outcomes,
        // so the plain (re-panicking) map is safe here.
        exec.map_traced(
            ctx,
            units,
            |i| prep.verify_unit(i, deadline),
            |k| format!("unit:{}", labels[k]),
        )
    }
}

/// A prepared design's content address: the environment fingerprint and
/// the raw digest of the netlist as it arrived.
pub(crate) type PrepKey = (u64, u64);

/// A prep lookup's answer: the published prep, or this run's claim on
/// building it.
pub(crate) type PrepLookup<'a> = Result<Arc<PreparedDesign>, Claims<'a, PrepKey>>;

/// The shared side of the flow's cache seam. A run against an *owned*
/// cache looks up and primes it in place (an empty one is the cold
/// flow) and builds its own prep; a run against a shared tier asks the
/// tier for its prep first, then starts from an empty per-run overlay
/// and asks the tier, once, for the entries its keys name. The overlay
/// then receives the run's fresh results like an owned cache, and the
/// tier's owner decides what to publish.
///
/// A shared tier is raced for, so the seam also owns its *single-flight*
/// rule, one [`Inflight`] ledger per key space — a prep or a unit two
/// racing runs both miss is built once: the lookup claims, and the
/// driver builds, publishes, drops the claims and only then waits on
/// other runs' claims, for whichever [`UnitBackend`] it was handed.
pub(crate) trait SharedTier {
    /// Looks `key` up under the store's guard, [claiming](Inflight::claim)
    /// it before the guard drops if it is missing. A key another run is
    /// building is [waited](Inflight::wait) out (bounded by `by`) and
    /// looked up once more; what is still missing then is this run's to
    /// build — claimed, unless a stalled claimant still holds it.
    fn prep(&self, key: PrepKey, by: Option<Instant>) -> PrepLookup<'_>;

    /// Makes `prep` visible to every later lookup of `key`. An existing
    /// entry wins.
    fn publish_prep(&self, key: PrepKey, prep: Arc<PreparedDesign>);

    /// The published preps of environment `env`, newest first: the bases
    /// a run that missed its own prep may splice from.
    fn prep_bases(&self, env: u64) -> Vec<Arc<PreparedDesign>>;

    /// One locked batch: copies whatever the tier holds under the run's
    /// unit `keys` into `overlay`, then [claims](Inflight::claim) the
    /// keys still missing before the tier's guards drop. Returns the
    /// claims and *theirs*: missing keys another run is computing.
    fn fetch(&self, keys: &[CacheKey], overlay: &mut VerifyCache) -> (Claims<'_>, Vec<CacheKey>);

    /// Makes the unpoisoned `outcomes` visible to every later fetch under
    /// `keys[unit]`, before the run ends. An existing entry wins.
    fn publish(&self, keys: &[CacheKey], outcomes: &[UnitOutcome]);

    /// [Waits](Inflight::wait) until no run holds a claim on any of
    /// `keys`, then copies what the tier now holds under them into
    /// `overlay`. What a claimant did not deliver (poisoned, failed,
    /// outlasted the wait) stays missing.
    fn await_units(&self, keys: &[CacheKey], by: Option<Instant>, overlay: &mut VerifyCache);
}

/// The bound on a wait for other runs' claims. A claimant that unwinds
/// releases at once; this is for one that hangs — a claim degrades to
/// duplicated work, never to a wedge.
pub(crate) const CLAIM_WAIT: Duration = Duration::from_secs(10);

/// A shared tier's single-flight ledger: the keys (preps or units) some
/// run is building right now. Never locked while building.
pub(crate) struct Inflight<K = CacheKey> {
    keys: Mutex<HashSet<K>>,
    released: Condvar,
}

impl<K> Default for Inflight<K> {
    fn default() -> Self {
        Inflight {
            keys: Mutex::new(HashSet::new()),
            released: Condvar::new(),
        }
    }
}

/// The keys one run has claimed, released — and every waiter woken — on
/// drop, so also when a build or a backend unwinds through the driver.
/// Claims are *advisory*: a waiter whose claimant released without
/// publishing misses on its second look and builds the key itself.
pub(crate) struct Claims<'a, K: Copy + Eq + Hash = CacheKey> {
    ledger: &'a Inflight<K>,
    keys: Vec<K>,
}

impl<K: Copy + Eq + Hash> Drop for Claims<'_, K> {
    fn drop(&mut self) {
        let mut inflight = self.ledger.lock();
        for key in &self.keys {
            inflight.remove(key);
        }
        drop(inflight);
        self.ledger.released.notify_all();
    }
}

impl<K: Copy + Eq + Hash> Inflight<K> {
    /// The ledger, recovered if a panicking holder poisoned it: a set of
    /// keys is valid after any panic, and [`Claims`] lock it in `Drop`.
    pub(crate) fn lock(&self) -> MutexGuard<'_, HashSet<K>> {
        self.keys.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Claims every key of `missing` no other run holds, and returns the
    /// others as *theirs*. Call it still holding the guard of the store
    /// `missing` was looked up in (lock order: store, then ledger): a run
    /// publishes under that guard *before* it releases, so a key found
    /// in no store is either still in flight or free — there is no
    /// window between the two.
    pub(crate) fn claim(&self, missing: impl IntoIterator<Item = K>) -> (Claims<'_, K>, Vec<K>) {
        let mut inflight = self.lock();
        let (keys, theirs) = missing.into_iter().partition(|key| inflight.insert(*key));
        (Claims { ledger: self, keys }, theirs)
    }

    /// Blocks until none of `keys` is claimed, [`CLAIM_WAIT`] elapses or
    /// `by` — the waiting run's own deadline — passes.
    pub(crate) fn wait(&self, keys: &[K], by: Option<Instant>) {
        let bound = Instant::now() + CLAIM_WAIT;
        let deadline = by.map_or(bound, |by| by.min(bound));
        let mut inflight = self.lock();
        while keys.iter().any(|k| inflight.contains(k)) {
            let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                return;
            };
            let woken = self.released.wait_timeout(inflight, remaining);
            inflight = woken.unwrap_or_else(PoisonError::into_inner).0;
        }
    }
}

/// What an owned [`VerifyCache`] keeps of a run's prep for the next run
/// to splice from: the netlist, the recognition and the shape index
/// (shared with the run's prep), the layout and the extraction, each
/// packed into one block, and the unit fingerprints. Unpacked, the
/// layout and the extraction are some 0.4 MB in a thousand allocations
/// for `alu_slice(8)`; packed, about 0.2 MB in two blocks. The index is
/// about 140 KB in flat arrays, and the next splice patches it rather
/// than building its own. The fingerprints are 16 bytes a unit;
/// a splice copies those of the units its edit does not reach. The
/// partition is not kept: a splice rebuilds it.
#[derive(Clone)]
pub struct KeptPrep {
    env: u64,
    netlist: Arc<FlatNetlist>,
    recognition: Arc<Recognition>,
    layout: PackedLayout,
    extracted: PackedExtraction,
    index: Arc<ShapeIndex>,
    fps: DesignFingerprints,
}

impl KeptPrep {
    /// What a cache keeps of `prep`.
    fn new(prep: &PreparedDesign) -> KeptPrep {
        KeptPrep {
            env: prep.env,
            netlist: Arc::clone(&prep.parts.netlist),
            recognition: Arc::clone(&prep.parts.recognition),
            layout: prep.parts.layout.pack(),
            extracted: prep.parts.extracted.pack(),
            index: Arc::clone(&prep.index),
            fps: prep.fps.clone(),
        }
    }

    /// The prep of `netlist` built from this one, as a run against the
    /// cache that kept it builds it: spliced when `netlist` only resizes
    /// devices of this prep's netlist under the same environment, else
    /// [built](PreparedDesign::build) in full.
    pub fn splice(
        &self,
        netlist: FlatNetlist,
        process: &Process,
        config: &FlowConfig,
    ) -> PreparedDesign {
        let source = Source::Kept(Some(self.clone()));
        PreparedDesign::untraced(netlist, process, config, source)
    }
}

/// Where a run's stages 1–3 take their values from.
pub(crate) enum Source<'p> {
    /// Nothing: every row computes — the cold flow's serial prep.
    Cold,
    /// The prep an owned cache kept, if any: the rows splice from it when
    /// the run's revision only resizes devices of its netlist under the
    /// run's environment, else they compute.
    Kept(Option<KeptPrep>),
    /// The preps a shared tier published under the run's environment,
    /// newest first: the rows splice from the first whose netlist the
    /// revision only resizes devices of, else they compute.
    Published(Vec<Arc<PreparedDesign>>),
    /// A shared tier's prep of this very revision: the rows count it.
    Shared(&'p PreparedDesign),
}

/// A run's own stages 1–3, as [`RunCtx::prep`] leaves them: the prep,
/// the shape index its extraction was taken through (a cached run keeps
/// it for the next splice to patch) and, when it was spliced, what
/// [`DesignFingerprints::spliced`] needs to splice the fingerprints too —
/// the base's fingerprints, the devices the edit resized and the nets
/// extraction redid. Partition and fingerprints are built from it by
/// [`PreparedDesign::new`].
pub(crate) struct Staged {
    pub parts: Prep,
    index: ShapeIndex,
    spliced: Option<(DesignFingerprints, Vec<DeviceId>, Vec<NetId>)>,
}

/// What a splice's base lends its rows besides its layout: the
/// recognition (shared — recognition reads neither `w` nor `l`), the
/// fingerprints, the extraction and the shape index to patch, and the
/// devices the edit resized.
struct Base {
    recognition: Arc<Recognition>,
    fps: DesignFingerprints,
    extracted: Extracted,
    index: ShapeIndex,
    resized: Vec<DeviceId>,
}

impl RunCtx<'_> {
    /// Stages 1–3 of Fig 2, one row each: circuit recognition (§2.3),
    /// layout assistance (§2.2), optional geometric DRC over the layout,
    /// extraction (the §4.3 inputs). Each row takes its value from the
    /// run's `source`:
    /// - **counted** off a shared prep of this revision. Only DRC re-runs,
    ///   since it reports per run rather than priming the prep; `None` is
    ///   returned, for the shared prep is the run's;
    /// - **spliced** from a kept or published base the revision only
    ///   resizes devices of: recognition reused, the base's layout
    ///   patched ([`Layout::resized`]: each device redrawn at the site it
    ///   kept, the route replayed) and only the nets the patch reaches
    ///   re-extracted ([`cbv_extract::extract_spliced`], handed the
    ///   patch's [`cbv_layout::ShapeDiff`]), every other net moved over
    ///   from the base and the base's shape index patched. A kept base is
    ///   unpacked, and its blocks freed, before its layout is patched; a
    ///   published one lends its layout, and its index is copied. When the
    ///   edit moves a placement row (the widest NMOS device sets where the
    ///   PMOS row lands, so nearly every shape moves) the patch declines
    ///   and layout and extraction compute, and so do the fingerprints;
    /// - **computed** when there is no base: exactly the cold flow's
    ///   serial prep.
    ///
    /// Each representation equals the computed one. A cached run that
    /// did not splice counts a `prep.fallbacks`.
    pub(crate) fn prep(&mut self, netlist: FlatNetlist, source: Source<'_>) -> Option<Staged> {
        let tracer = self.flow.tracer;
        let (process, env) = (self.process, self.env);
        let cached = !matches!(source, Source::Cold);
        let mut shared = None;
        let published;
        let base = match source {
            Source::Cold => None,
            Source::Shared(p) => {
                shared = Some(&p.parts);
                None
            }
            Source::Kept(kept) => kept.filter(|k| k.env == env).and_then(|k| {
                let resized = netlist.resized_devices(&k.netlist)?;
                let base = Base {
                    recognition: k.recognition,
                    fps: k.fps,
                    extracted: k.extracted.unpack(),
                    index: Arc::unwrap_or_clone(k.index),
                    resized,
                };
                Some((base, Cow::Owned(k.layout.unpack())))
            }),
            Source::Published(preps) => {
                published = preps;
                published.iter().find_map(|p| {
                    let resized = netlist.resized_devices(&p.parts.netlist)?;
                    let base = Base {
                        recognition: Arc::clone(&p.parts.recognition),
                        fps: p.fps.clone(),
                        extracted: p.parts.extracted.clone(),
                        index: ShapeIndex::clone(&p.index),
                        resized,
                    };
                    Some((base, Cow::Borrowed(&p.parts.layout)))
                })
            }
        };
        let (base, old_layout) = base.unzip();

        let recognition = self.timed("recognize", |_, _| {
            let r = match (shared, &base) {
                (Some(p), _) => Arc::clone(&p.recognition),
                (None, Some(b)) => Arc::clone(&b.recognition),
                (None, None) => Arc::new(cbv_recognize::recognize(&netlist)),
            };
            let n = r.cccs.len();
            (r, n, None)
        });
        let (layout, diff) = self.timed("layout", |_, _| {
            let patched = old_layout.and_then(|old| old.resized(&netlist, process));
            let (l, diff) = match (shared, patched) {
                (Some(p), _) => (Cow::Borrowed(&p.layout), None),
                (None, Some((l, diff))) => {
                    tracer.add("layout.patches", 1);
                    tracer.add("layout.stubs_searched", diff.stubs_searched as u64);
                    (Cow::Owned(l), Some(diff))
                }
                (None, None) => (Cow::Owned(cbv_layout::synthesize(&netlist, process)), None),
            };
            let n = l.shapes.len();
            ((l, diff), n, None)
        });
        if self.config.check_drc {
            let rules = cbv_layout::Rules::for_process(process);
            let read = shared.map_or(&netlist, |p| &*p.netlist);
            self.drc = Some(self.timed("drc", |_, _| {
                let n = cbv_layout::check_drc(&layout, read, &rules, 10_000).len();
                (n, n, None)
            }));
        }
        let (extracted, index, spliced) = self.timed("extract", |_, _| {
            if let Some(p) = shared {
                return (None, p.extracted.iter().count(), None);
            }
            let spliced = diff.zip(base).and_then(|(diff, b)| {
                let (old, index) = (b.extracted, b.index);
                let s = cbv_extract::extract_spliced(
                    old, index, &diff, &layout, &netlist, process, &b.resized,
                )?;
                tracer.add("prep.splices", 1);
                tracer.add("extract.nets_reextracted", s.redone.len() as u64);
                tracer.add("extract.index_rebuilds", u64::from(s.index_rebuilt));
                Some((s.extracted, s.index, Some((b.fps, b.resized, s.redone))))
            });
            let (e, index, spliced) = spliced.unwrap_or_else(|| {
                if cached {
                    tracer.add("prep.fallbacks", 1);
                }
                let index = ShapeIndex::new(&layout, netlist.net_count(), process);
                (index.extract(&layout, &netlist, process), index, None)
            });
            let n = e.iter().count();
            (Some((e, index, spliced)), n, None)
        })?;
        let parts = Prep {
            netlist: Arc::new(netlist),
            recognition,
            layout: layout.into_owned(),
            extracted,
        };
        Some(Staged {
            parts,
            index,
            spliced,
        })
    }
}

/// The one cached-flow body (see the module docs). With a `tier`, the
/// prep is looked up there first, and `cache` is the run's overlay,
/// filled by one keyed fetch before the unit keys are looked up in it.
pub(crate) fn run_flow_tiered(
    netlist: FlatNetlist,
    process: &Process,
    config: &FlowConfig,
    cache: &mut VerifyCache,
    tier: Option<&dyn SharedTier>,
    backend: &dyn UnitBackend,
) -> FlowReport {
    let mut run = RunCtx::open(process, config);
    let tracer = &config.tracer;

    // With a shared tier, content-address the incoming revision before
    // any prep runs: the tier hands back another stream's prep or a
    // claim on building it (single-flight — concurrent streams of the
    // same revision build once, not W times).
    let key = tier.map(|_| (run.env, raw_netlist_digest(&netlist)));
    let found = tier
        .zip(key)
        .map(|(tier, key)| tier.prep(key, config.deadline));
    let (shared, claim) = match found {
        Some(Ok(p)) => (Some(p), None),
        found => (None, found.and_then(Result::err)),
    };

    // 1–3. Counted off the tier's prep of this revision; else spliced
    // from an earlier revision's prep — the one an owned cache kept, or
    // one the tier published — when this one only resizes its devices;
    // else computed.
    let source = match (&shared, tier) {
        (Some(p), _) => Source::Shared(p),
        (None, Some(tier)) => Source::Published(tier.prep_bases(run.env)),
        (None, None) => Source::Kept(
            cache
                .take_prep()
                .and_then(|kept| kept.downcast::<KeptPrep>().ok())
                .map(Arc::unwrap_or_clone),
        ),
    };
    let staged = run.prep(netlist, source);

    // 4. Fingerprints and lookup. A prep this run built is partitioned
    // and fingerprinted here, so that this row times them. The prep
    // names every key the run can look up, so a shared tier is asked for
    // them here, in one batch, before the overlay is read. The batch
    // also claims the unit keys it did not answer; one another run holds
    // is *theirs* — not this run's to compute. A unit is dirty when its
    // key misses and is not theirs (a lookup also refreshes the entry's
    // recency on a bounded cache).
    let (prep, keys, mut dirty, held) = run.timed("fingerprint", |run, _| {
        let prep = shared.unwrap_or_else(|| {
            let built = staged.expect("a prep no tier shared is built");
            let prep = Arc::new(PreparedDesign::new(built, run));
            // Publish before releasing, as for units.
            if let Some((tier, key)) = tier.zip(key) {
                tier.publish_prep(key, Arc::clone(&prep));
            }
            drop(claim);
            prep
        });
        let keys: Vec<CacheKey> = (0..prep.n_units()).map(|i| prep.unit_key(i)).collect();
        let (claims, theirs) = tier.map(|tier| tier.fetch(&keys, cache)).unzip();
        let theirs: Vec<CacheKey> = theirs.unwrap_or_default();
        let dirty: Vec<bool> = keys
            .iter()
            .map(|key| !cache.touch(key) && !theirs.contains(key))
            .collect();
        let n_units = prep.n_units();
        ((prep, keys, dirty, (claims, theirs)), n_units, None)
    });
    let (n_units, n_cccs) = (prep.n_units(), prep.n_cccs());

    // 5. Scatter-gather everify: the backend verifies dirty units
    // (battery + arcs fused), clean units replay from cache. Outcomes
    // are re-indexed by unit, so backend completion order is irrelevant.
    let mut coalesced = 0;
    let mut poisoned = vec![false; n_units];
    let (ereport, mut per_unit) = run.timed("everify", |run, ctx| {
        let verify =
            |units: &[usize]| backend.verify_units(&prep, &run.exec, ctx, units, config.deadline);
        let dirty_units: Vec<usize> = (0..n_units).filter(|&i| dirty[i]).collect();
        let (mut outcomes, mut busy) = verify(&dirty_units);
        let (claims, theirs) = held;
        if let Some(tier) = tier {
            // Publish before releasing (see `Inflight::claim`), and
            // compute and release before waiting: two runs holding claims
            // on each other's units cannot block each other.
            tier.publish(&keys, &outcomes);
            drop(claims);
            if !theirs.is_empty() {
                tier.await_units(&theirs, config.deadline, cache);
                coalesced = theirs.iter().filter(|key| cache.contains(key)).count();
                // Whatever a claimant did not deliver is this run's to
                // compute: a second, normally empty, batch.
                let late: Vec<usize> = (0..n_units)
                    .filter(|&i| !dirty[i] && !cache.contains(&keys[i]))
                    .collect();
                let (more, more_busy) = verify(&late);
                outcomes.extend(more);
                busy += more_busy;
                for &i in &late {
                    dirty[i] = true;
                }
            }
        }
        ctx.tracer.gauge("everify.busy_s", busy.as_secs_f64());
        let mut fresh: Vec<Option<UnitResult>> = (0..n_units).map(|_| None).collect();
        for o in outcomes {
            poisoned[o.unit] = o.poisoned;
            fresh[o.unit] = Some(o.result);
        }
        let per_unit: Vec<UnitResult> = (0..n_units)
            .map(|i| {
                if dirty[i] {
                    fresh[i].take().expect("one outcome per dirty unit")
                } else {
                    cache
                        .get(&prep.unit_key(i))
                        .expect("clean unit has a cache entry")
                }
            })
            .collect();
        let merged = cbv_everify::Report::from_parts(
            prep.everify_cfg.filter_threshold,
            per_unit
                .iter()
                .flat_map(|u| u.findings.iter().cloned())
                .collect(),
            per_unit.iter().map(|u| u.checked as usize).sum(),
            per_unit.iter().map(|u| u.filtered as usize).sum(),
        );
        let n = merged.checked_count();
        ((merged, per_unit), n, Some(busy))
    });
    // Tallied after the row: a unit awaited and delivered is a hit.
    let misses = dirty.iter().filter(|&&d| d).count();
    let mut everify_stats = CacheStats {
        hits: n_units - misses,
        misses,
        coalesced,
        ..CacheStats::default()
    };
    tracer.add("cache.everify.hits", everify_stats.hits as u64);
    tracer.add("cache.everify.misses", misses as u64);
    tracer.add("fingerprint.dirty_units", (misses + coalesced) as u64);

    // 6. Timing: arcs arrived with the unit outcomes; what remains is
    // the serial splice (CCC index order — the cold graph's exact arc
    // sequence), constraints, skew and STA, recomputed every run. The
    // row's stats count CCC arcs: replayed for a clean CCC, computed
    // for a dirty one.
    let (sta, n_constraints) = run.timed("timing", |run, ctx| {
        let (sta, n_constraints, n_arcs) =
            run.timing_remainder(&prep.parts, &per_unit[..n_cccs], ctx);
        ((sta, n_constraints), n_arcs, None)
    });
    let dirty_cccs = dirty[..n_cccs].iter().filter(|&&d| d).count();
    let timing_stats = CacheStats {
        hits: n_cccs - dirty_cccs,
        misses: dirty_cccs,
        ..CacheStats::default()
    };
    tracer.add("cache.timing.hits", timing_stats.hits as u64);
    tracer.add("cache.timing.misses", timing_stats.misses as u64);

    // Prime the cache with the re-verified units. Poisoned units
    // (battery or arc panic) are *not* cached: their stored payload
    // would be the failure artifact, and a later run must re-attempt
    // them. These inserts may evict; the delta lands in the everify
    // stage's stats so a daemon's flow summaries show cache pressure.
    let evictions_before = cache.evictions();
    let mut fresh_keys = Vec::new();
    for i in 0..per_unit.len() {
        if dirty[i] && !poisoned[i] {
            let key = prep.unit_key(i);
            cache.insert(key, std::mem::take(&mut per_unit[i]));
            fresh_keys.push(key);
        }
    }
    everify_stats.evictions = cache.evictions() - evictions_before;
    tracer.add("cache.evictions", everify_stats.evictions as u64);

    for (stage, stats) in [("everify", everify_stats), ("timing", timing_stats)] {
        let row = run.stages.iter_mut().find(|s| s.stage == stage);
        row.expect("cached stage row").cache = Some(stats);
    }

    // 7. Power (§3) and the signoff roll-up. The report shares the
    // prep's netlist and recognition: an owned cache keeps the prep for
    // the next run to splice from, and a shared tier holds it for other
    // streams.
    cbv_everify::finding_counters(&ereport, run.flow);
    let report = run.finish(&prep.parts, ereport, sta, n_constraints, fresh_keys);
    if tier.is_none() {
        cache.keep_prep(Arc::new(KeptPrep::new(&prep)));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{run_flow, run_flow_incremental};
    use crate::service::FlowService;
    use cbv_gen::adders::static_ripple_adder;
    use cbv_gen::datapath::alu_slice;
    use cbv_mutate::{Edit, MutationOp};
    use cbv_obs::Tracer;
    use cbv_tech::{Farads, Ohms};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn signoff_json(r: &FlowReport) -> String {
        serde_json::to_string(&r.signoff).unwrap()
    }

    /// `(stage, hits, misses)` of every stage row that carries cache stats.
    fn cached_rows(r: &FlowReport) -> Vec<(&'static str, usize, usize)> {
        r.stages
            .iter()
            .filter_map(|s| s.cache.map(|c| (s.stage, c.hits, c.misses)))
            .collect()
    }

    #[test]
    fn cached_flow_matches_cold_and_its_entry_points_share_one_cache() {
        let p = Process::strongarm_035();
        let cfg = FlowConfig::default();
        let cold = run_flow(static_ripple_adder(4, &p).netlist, &p, &cfg);
        let cold_json = signoff_json(&cold);

        let mut cache = VerifyCache::new();
        let first = run_flow_incremental(static_ripple_adder(4, &p).netlist, &p, &cfg, &mut cache);
        assert_eq!(signoff_json(&first), cold_json);
        assert_eq!(first.stages.len(), 7, "the cold rows plus fingerprint");
        for (stage, hits, _) in cached_rows(&first) {
            assert_eq!(hits, 0, "{stage}: cold cache, all misses");
        }
        assert!(!cache.is_empty());
        assert_eq!(first.fresh.len(), cache.len(), "every fresh key cached");

        // The cache one entry point primed answers the other: a warm
        // run through the backend seam is all hits and adds nothing.
        let warm = run_flow_tiered(
            static_ripple_adder(4, &p).netlist,
            &p,
            &cfg,
            &mut cache,
            None,
            &LocalBackend,
        );
        assert_eq!(signoff_json(&warm), cold_json);
        assert_eq!(warm.stages.len(), 7);
        assert_eq!(cached_rows(&warm).len(), 2, "everify and timing");
        for (stage, hits, misses) in cached_rows(&warm) {
            assert_eq!(misses, 0, "{stage}: warm rerun must be all hits");
            assert!(hits > 0);
        }
        assert!(warm.fresh.is_empty(), "warm run contributes nothing");

        // And back again.
        let warm2 = run_flow_incremental(static_ripple_adder(4, &p).netlist, &p, &cfg, &mut cache);
        assert_eq!(signoff_json(&warm2), cold_json);
        assert!(cached_rows(&warm2)
            .iter()
            .all(|&(_, _, misses)| misses == 0));
    }

    #[test]
    fn faulted_design_matches_byte_for_byte() {
        let p = Process::strongarm_035();
        let cfg = FlowConfig::default();
        let mut g = static_ripple_adder(4, &p);
        let sub_min_length = MutationOp::LengthScale { factor: 0.6 };
        Edit::plant(&mut g.netlist, sub_min_length, 1, "xp0_ia_n").unwrap();
        let netlist = g.netlist;
        let cold = run_flow(netlist.clone(), &p, &cfg);
        assert!(!cold.signoff.clean());

        let mut cache = VerifyCache::new();
        let cached = run_flow_incremental(netlist, &p, &cfg, &mut cache);
        assert_eq!(signoff_json(&cached), signoff_json(&cold));
    }

    #[test]
    fn expired_deadline_poisons_every_dirty_unit() {
        let p = Process::strongarm_035();
        let cfg = FlowConfig {
            // Already expired when the first unit closure runs: every
            // dirty unit deterministically takes the timeout path.
            deadline: Some(Instant::now()),
            ..FlowConfig::default()
        };
        let mut cache = VerifyCache::new();
        let r = run_flow_incremental(static_ripple_adder(4, &p).netlist, &p, &cfg, &mut cache);
        assert!(!r.signoff.clean(), "timed-out flow must not sign off");
        let tool_errors = r
            .everify
            .findings()
            .iter()
            .filter(|f| f.severity == Severity::ToolError)
            .count();
        // Battery half: every unit (CCCs + residue). Arc half: CCCs only.
        let n_cccs = r.recognition.cccs.len();
        assert_eq!(
            tool_errors,
            2 * n_cccs + 1,
            "both halves of every unit time out"
        );
        assert!(cache.is_empty(), "poisoned units are never cached");
        assert!(r.fresh.is_empty());

        // The same design without a deadline signs off and fills the
        // cache: the timeout path left no residue behind.
        let clean = run_flow_incremental(
            static_ripple_adder(4, &p).netlist,
            &p,
            &FlowConfig::default(),
            &mut cache,
        );
        assert!(clean.signoff.clean(), "{}", clean.signoff);
        assert!(!cache.is_empty());
    }

    /// A service's prep store as a run's tier, and nothing else: units
    /// are never shared, so runs through it differ in their prep source
    /// alone. Counts the lookups answered with a published prep (`hits`)
    /// and with a claim (`misses`).
    struct PrepsOnly<'a> {
        service: &'a FlowService,
        units: Inflight,
        hits: AtomicUsize,
        misses: AtomicUsize,
    }

    impl<'a> PrepsOnly<'a> {
        fn new(service: &'a FlowService) -> Self {
            PrepsOnly {
                service,
                units: Inflight::default(),
                hits: AtomicUsize::new(0),
                misses: AtomicUsize::new(0),
            }
        }

        fn run(&self, netlist: FlatNetlist, cache: &mut VerifyCache) -> FlowReport {
            let (p, cfg) = (self.service.process(), self.service.flow_config());
            run_flow_tiered(netlist, p, cfg, cache, Some(self), &LocalBackend)
        }

        fn counts(&self) -> (usize, usize) {
            let load = |n: &AtomicUsize| n.load(Ordering::SeqCst);
            (load(&self.hits), load(&self.misses))
        }
    }

    impl SharedTier for PrepsOnly<'_> {
        fn prep(&self, key: PrepKey, by: Option<Instant>) -> PrepLookup<'_> {
            let found = self.service.prep(key, by);
            let n = if found.is_ok() {
                &self.hits
            } else {
                &self.misses
            };
            n.fetch_add(1, Ordering::SeqCst);
            found
        }

        fn publish_prep(&self, key: PrepKey, prep: Arc<PreparedDesign>) {
            self.service.publish_prep(key, prep);
        }

        fn prep_bases(&self, env: u64) -> Vec<Arc<PreparedDesign>> {
            self.service.prep_bases(env)
        }

        fn fetch(&self, _: &[CacheKey], _: &mut VerifyCache) -> (Claims<'_>, Vec<CacheKey>) {
            self.units.claim([])
        }

        fn publish(&self, _: &[CacheKey], _: &[UnitOutcome]) {}

        fn await_units(&self, _: &[CacheKey], _: Option<Instant>, _: &mut VerifyCache) {}
    }

    #[test]
    fn prep_hit_and_prep_miss_runs_report_alike_with_drc_off_and_on() {
        let p = Process::strongarm_035();
        let rows = |r: &FlowReport| -> Vec<(&'static str, usize)> {
            r.stages.iter().map(|s| (s.stage, s.artifacts)).collect()
        };
        // The cached driver's rows: cold run_flow's plus `fingerprint`,
        // one artifact a unit, right after `extract`.
        let cached_rows = |cold: &FlowReport| {
            let mut want = rows(cold);
            let at = want.iter().position(|&(s, _)| s == "extract").unwrap() + 1;
            want.insert(at, ("fingerprint", cold.recognition.cccs.len() + 1));
            want
        };
        let drc = |r: &FlowReport| {
            let mut categories = r.signoff.categories.iter();
            categories
                .find(|c| c.category == "drc")
                .map(|c| c.violations)
        };
        // The second revision widens one PMOS device: a sizing edit that
        // keeps the placement rows (any wider NMOS device would move the
        // PMOS row), so a run against a base splices.
        let revision = |resized: bool| {
            let mut netlist = static_ripple_adder(4, &p).netlist;
            if resized {
                let wider = MutationOp::WidthScale { factor: 1.1 };
                Edit::plant(&mut netlist, wider, 0, "xp0_ia_p").unwrap();
            }
            netlist
        };
        for check_drc in [false, true] {
            let cfg = FlowConfig {
                check_drc,
                tracer: Tracer::new(cbv_obs::JsonlSink::new(std::io::sink())),
                ..FlowConfig::default()
            };
            let splices = || cfg.tracer.counter_value("prep.splices");
            let cold = run_flow(revision(false), &p, &cfg);
            let service = FlowService::new(p.clone(), cfg.clone());
            let preps = PrepsOnly::new(&service);
            // Fresh caches on both sides, so the two runs differ in
            // their prep source and nothing else.
            let run = || preps.run(revision(false), &mut VerifyCache::new());
            let (miss, hit) = (run(), run());
            assert_eq!(preps.counts(), (1, 1));
            assert_eq!(rows(&miss), rows(&hit), "check_drc={check_drc}");
            assert_eq!(rows(&miss), cached_rows(&cold), "check_drc={check_drc}");
            assert_eq!(
                rows(&miss).iter().any(|&(stage, _)| stage == "drc"),
                check_drc,
                "the drc row appears exactly when DRC is on"
            );
            assert_eq!(drc(&miss).is_some(), check_drc);
            assert_eq!(
                drc(&miss),
                drc(&hit),
                "the hit re-runs DRC on the cached layout"
            );
            assert_eq!(drc(&miss), drc(&cold));
            assert_eq!(signoff_json(&miss), signoff_json(&cold));
            assert_eq!(signoff_json(&hit), signoff_json(&cold));

            // Spliced sources: the resized revision spliced from the
            // prep an owned cache kept, and from the tier's published
            // prep of the first revision.
            let cold = run_flow(revision(true), &p, &cfg);
            let mut cache = VerifyCache::new();
            run_flow_incremental(revision(false), &p, &cfg, &mut cache);
            let before = splices();
            let kept = run_flow_incremental(revision(true), &p, &cfg, &mut cache);
            assert_eq!(splices(), before + 1, "the owned cache's revision splices");
            let published = preps.run(revision(true), &mut VerifyCache::new());
            assert_eq!(splices(), before + 2, "the tier's revision splices");
            assert_eq!(preps.counts(), (1, 2));
            for (source, r) in [("kept", &kept), ("published", &published)] {
                let at = format!("{source} base, check_drc={check_drc}");
                assert_eq!(rows(r), cached_rows(&cold), "{at}");
                assert_eq!(drc(r), drc(&cold), "{at}");
                assert_eq!(signoff_json(r), signoff_json(&cold), "{at}");
            }
        }
    }

    /// A ripple adder's prep, shared as a tier publishes it.
    fn built(bits: u32) -> Arc<PreparedDesign> {
        let p = Process::strongarm_035();
        let netlist = static_ripple_adder(bits, &p).netlist;
        Arc::new(PreparedDesign::build(netlist, &p, &FlowConfig::default()))
    }

    /// The claim a prep lookup that must miss hands back, holding `key`.
    fn claimed(service: &FlowService, key: PrepKey) -> Claims<'_, PrepKey> {
        match service.prep(key, None) {
            Ok(_) => panic!("{key:?} must miss"),
            Err(claims) => {
                assert_eq!(claims.keys, [key], "a claim, not a timed-out wait");
                claims
            }
        }
    }

    #[test]
    fn prep_cache_single_flight_builds_once() {
        let service = FlowService::new(Process::strongarm_035(), FlowConfig::default());
        let key = (1u64, 2u64);

        // First lookup gets the claim.
        let claims = claimed(&service, key);
        // A concurrent lookup of the same key blocks until publication,
        // then resolves to a hit.
        let waiter = std::thread::scope(|scope| {
            let h = scope.spawn(|| match service.prep(key, None) {
                Ok(prep) => prep.n_units(),
                Err(_) => panic!("waiter must see the published prep"),
            });
            std::thread::sleep(Duration::from_millis(20));
            let prep = built(2);
            let n = prep.n_units();
            service.publish_prep(key, prep);
            drop(claims);
            assert_eq!(h.join().expect("waiter thread"), n);
            n
        });
        assert!(waiter > 0);
        assert!(
            service.prep(key, None).is_ok(),
            "and so does every later one"
        );

        // Dropping a claim without publishing (a panicked builder)
        // releases the key so the next lookup claims instead of
        // wedging.
        let key2 = (3u64, 4u64);
        drop(claimed(&service, key2));
        let t0 = Instant::now();
        claimed(&service, key2);
        assert!(
            t0.elapsed() < CLAIM_WAIT,
            "an abandoned claim must be reclaimable"
        );
    }

    #[test]
    fn prep_eviction_wakes_waiters_with_the_published_prep() {
        use crate::service::PREP_CAPACITY;
        let service = FlowService::new(Process::strongarm_035(), FlowConfig::default());
        // A full store: publishing one more key evicts the oldest in the
        // same critical section whose release wakes the new key's
        // waiters.
        let old = built(2);
        for k in 0..PREP_CAPACITY as u64 {
            service.publish_prep((k, k), Arc::clone(&old));
        }
        let newest = (9u64, 9u64);

        // Hold the new key's claim while another stream waits on it,
        // then publish: the eviction of the oldest and the wake-up race
        // in one notify cycle.
        let claims = claimed(&service, newest);
        let published = std::thread::scope(|scope| {
            let h = scope.spawn(|| match service.prep(newest, None) {
                Ok(prep) => prep.n_units(),
                Err(_) => panic!("waiter must see the published prep"),
            });
            std::thread::sleep(Duration::from_millis(20));
            let prep = built(3);
            let n = prep.n_units();
            service.publish_prep(newest, prep);
            drop(claims);
            assert_eq!(
                h.join().expect("waiter thread"),
                n,
                "the waiter wakes with the new key's prep, not an evicted one"
            );
            n
        });
        assert_ne!(published, old.n_units());

        // The publication pushed the oldest key out: a fresh lookup of
        // it must claim again — not a stale hit, and not a wedge on a
        // key nobody is building. The rest of the window still hits.
        drop(claimed(&service, (0, 0)));
        for k in 1..PREP_CAPACITY as u64 {
            assert!(
                service.prep((k, k), None).is_ok(),
                "key {k} was not evicted"
            );
        }
    }

    #[test]
    fn shared_preps_keep_signoff_bytes_identical() {
        let p = Process::strongarm_035();
        let cfg = FlowConfig::default();
        let reference = {
            let mut cache = VerifyCache::new();
            let r = run_flow_incremental(static_ripple_adder(4, &p).netlist, &p, &cfg, &mut cache);
            signoff_json(&r)
        };
        let service = FlowService::new(p.clone(), cfg);
        let preps = PrepsOnly::new(&service);
        for round in 0..2 {
            let mut cache = VerifyCache::new();
            let r = preps.run(static_ripple_adder(4, &p).netlist, &mut cache);
            assert_eq!(
                signoff_json(&r),
                reference,
                "round {round} diverged from the unshared flow"
            );
            assert!(
                !cache.is_empty(),
                "round {round} must still prime the cache"
            );
        }
        assert_eq!(
            preps.counts(),
            (1, 1),
            "the second identical revision reuses the first prep"
        );
    }

    /// A NaN parasitic on the clock tree must fail signoff through the
    /// capture-constraint path: skew bounds go NaN, the NaN reaches the
    /// setup/hold checks (total_cmp discipline — `f64::min`/`max` would
    /// silently swallow it), and the flow completes with a NaN-slack
    /// violation instead of either crashing or signing off clean.
    #[test]
    fn nan_clock_parasitic_fails_signoff_through_capture_constraints() {
        let p = Process::strongarm_035();
        let cfg = FlowConfig::default();
        let netlist = alu_slice(4, &p).netlist;
        // The prep key addresses the revision as it arrives — digest
        // now, like the driver does.
        let raw = raw_netlist_digest(&netlist);

        // Build the serial prep by hand and corrupt the extracted clock
        // tree: a stub branch with a NaN resistor (always a spanning-tree
        // edge, so its delay is NaN).
        let recognition = cbv_recognize::recognize(&netlist);
        assert!(
            !recognition.clock_nets.is_empty(),
            "the ALU slice has recognized clocks"
        );
        let layout = cbv_layout::synthesize(&netlist, &p);
        let index = ShapeIndex::new(&layout, netlist.net_count(), &p);
        let mut extracted = index.extract(&layout, &netlist, &p);
        // Poison every clock phase: constraints capture on whichever phase
        // the storage elements picked, and a fault on any real tree must
        // surface regardless of which one that is.
        for &clock in &recognition.clock_nets {
            let en = extracted
                .net_mut(clock)
                .expect("the clock net has extracted RC");
            let root = en.rc.first_node();
            let tip = en.rc.fresh_node();
            en.rc.add_resistor(root, tip, Ohms::new(f64::NAN));
            en.rc.add_cap(tip, Farads::new(1e-15));
        }
        let parts = Prep {
            netlist: Arc::new(netlist),
            recognition: Arc::new(recognition),
            layout,
            extracted,
        };
        let staged = Staged {
            parts,
            index,
            spliced: None,
        };
        let prep = PreparedDesign::new(staged, &RunCtx::untraced(&p, &cfg));

        // Publish the poisoned prep so the full flow consumes it — the NaN
        // travels extraction → skew bounds → capture checks end to end.
        let service = FlowService::new(p.clone(), cfg);
        service.publish_prep((prep.env(), raw), Arc::new(prep));
        let preps = PrepsOnly::new(&service);
        let r = preps.run(alu_slice(4, &p).netlist, &mut VerifyCache::new());
        assert_eq!(
            preps.counts(),
            (1, 0),
            "the flow must consume the poisoned prep"
        );
        assert!(
            !r.signoff.clean(),
            "a NaN clock parasitic must not sign off: {}",
            r.signoff
        );
        assert!(
            r.sta.violations.iter().any(|v| v.slack.seconds().is_nan()),
            "the NaN must surface as a capture-check violation, not vanish: {:?}",
            r.sta.violations
        );
    }

    #[test]
    fn verify_unit_reproduces_cache_entries() {
        // A unit verified in isolation must equal the entry the full
        // flow caches for it — the property the farm's shared tier
        // rests on (one worker's result is every worker's hit).
        let p = Process::strongarm_035();
        let cfg = FlowConfig::default();
        let mut cache = VerifyCache::new();
        run_flow_incremental(static_ripple_adder(4, &p).netlist, &p, &cfg, &mut cache);
        let prep = PreparedDesign::build(static_ripple_adder(4, &p).netlist, &p, &cfg);
        for i in 0..prep.n_units() {
            let o = prep.verify_unit(i, None);
            assert!(!o.poisoned);
            assert_eq!(
                Some(o.result),
                cache.get(&prep.unit_key(i)),
                "unit {i} recomputed off-flow must match its cache entry"
            );
        }
    }
}
