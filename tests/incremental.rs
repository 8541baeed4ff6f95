//! Cold-vs-incremental soundness and the E14 ECO reuse contract.
//!
//! The incremental flow's one promise: for any design — clean or broken
//! — [`run_flow_incremental`] produces a signoff *byte-identical* to a
//! cold [`run_flow`], whether the cache is empty, warm, or reloaded
//! from JSON; and after a one-device ECO on a many-CCC design it
//! re-verifies a handful of units and replays the rest.
//!
//! The tests here pin that promise on the ALU slices with
//! `parallelism: 0`; the owned column of `tests/equality.rs` sweeps it
//! across every registry family and ECO stream at explicit worker
//! counts 1, 2 and 8, and also checks findings and STA.

use cbv_core::cache::VerifyCache;
use cbv_core::flow::{run_flow, run_flow_incremental, FlowConfig, FlowReport};
use cbv_core::gen::adders::manchester_domino_adder;
use cbv_core::gen::datapath::alu_slice;
use cbv_core::mutate::{self, Edit, MutationOp, Site};
use cbv_core::netlist::{DeviceId, FlatNetlist};
use cbv_core::obs::{JsonlSink, Tracer};
use cbv_core::recognize::recognize;
use cbv_core::scatter::{KeptPrep, PreparedDesign};
use cbv_core::service::FlowService;
use cbv_core::tech::{MosKind, Process};

fn signoff_json(r: &FlowReport) -> String {
    serde_json::to_string(&r.signoff).expect("signoff serializes")
}

/// `alu_slice(4)` with `op` planted at device `id`, named `name`.
fn faulted_alu4(p: &Process, op: MutationOp, id: u32, name: &str) -> FlatNetlist {
    let mut netlist = alu_slice(4, p).netlist;
    Edit::plant(&mut netlist, op, id, name).expect("fault plants");
    netlist
}

#[test]
fn incremental_signoff_byte_identical_on_clean_design() {
    let p = Process::strongarm_035();
    let cfg = FlowConfig::default();
    let netlist = alu_slice(8, &p).netlist;

    let cold = run_flow(netlist.clone(), &p, &cfg);
    let cold_json = signoff_json(&cold);

    let mut cache = VerifyCache::new();
    let first = run_flow_incremental(netlist.clone(), &p, &cfg, &mut cache);
    assert_eq!(signoff_json(&first), cold_json, "cold cache run");
    let second = run_flow_incremental(netlist, &p, &cfg, &mut cache);
    assert_eq!(signoff_json(&second), cold_json, "warm cache run");
    for stage in &second.stages {
        if let Some(stats) = stage.cache {
            assert_eq!(
                stats.misses, 0,
                "{}: clean rerun must be all hits",
                stage.stage
            );
        }
    }
}

#[test]
fn incremental_signoff_byte_identical_on_faulty_design() {
    let p = Process::strongarm_035();
    let cfg = FlowConfig::default();
    for (kind, id, name) in [
        (MutationOp::BetaSkew { factor: 12.0 }, 0, "xp0_ia_p"),
        (MutationOp::LengthScale { factor: 0.6 }, 1, "xp0_ia_n"),
        (MutationOp::WidthScale { factor: 0.1 }, 5, "xp0_pu1b"),
    ] {
        let netlist = faulted_alu4(&p, kind, id, name);
        let cold = run_flow(netlist.clone(), &p, &cfg);
        assert!(!cold.signoff.clean(), "{kind} must break signoff");

        let mut cache = VerifyCache::new();
        let first = run_flow_incremental(netlist.clone(), &p, &cfg, &mut cache);
        let second = run_flow_incremental(netlist, &p, &cfg, &mut cache);
        assert_eq!(
            signoff_json(&first),
            signoff_json(&cold),
            "{kind} cold cache"
        );
        assert_eq!(
            signoff_json(&second),
            signoff_json(&cold),
            "{kind} warm cache"
        );
    }
}

#[test]
fn cache_json_reload_preserves_byte_identity() {
    let p = Process::strongarm_035();
    let cfg = FlowConfig::default();
    let netlist = alu_slice(4, &p).netlist;
    let cold_json = signoff_json(&run_flow(netlist.clone(), &p, &cfg));

    let mut cache = VerifyCache::new();
    run_flow_incremental(netlist.clone(), &p, &cfg, &mut cache);

    // Round-trip the cache through its JSON form — findings, stress
    // ratios and arc delays must survive bit-exactly for the replayed
    // signoff to stay byte-identical.
    let mut reloaded = VerifyCache::from_json(&cache.to_json()).expect("cache parses back");
    let replay = run_flow_incremental(netlist, &p, &cfg, &mut reloaded);
    assert_eq!(signoff_json(&replay), cold_json);
    for stage in &replay.stages {
        if let Some(stats) = stage.cache {
            assert_eq!(
                stats.misses, 0,
                "{}: reloaded cache must fully hit",
                stage.stage
            );
        }
    }
}

/// A cache written before reports held one finding order may store a
/// unit's findings in any order. Replayed, they must still assemble into
/// cold's canonical sequence: reverse every unit's findings in place and
/// the warm report is unchanged, finding for finding.
#[test]
fn reordered_cache_entries_replay_to_the_canonical_report() {
    let p = Process::strongarm_035();
    let cfg = FlowConfig::default();
    let netlist = manchester_domino_adder(4, &p).netlist;
    let cold = run_flow(netlist.clone(), &p, &cfg);

    let mut cache = VerifyCache::new();
    let primed = run_flow_incremental(netlist.clone(), &p, &cfg, &mut cache);
    let mut reversed = 0;
    for key in &primed.fresh {
        let mut entry = cache.get(key).expect("a fresh key is cached");
        if entry.findings.len() > 1 {
            entry.findings.reverse();
            reversed += 1;
        }
        cache.insert(*key, entry);
    }
    assert!(reversed > 0, "some unit holds two or more findings");

    let warm = run_flow_incremental(netlist, &p, &cfg, &mut cache);
    assert!(warm.fresh.is_empty(), "every unit replayed from the cache");
    assert_eq!(signoff_json(&warm), signoff_json(&cold));
    let (got, want) = (warm.everify.findings(), cold.everify.findings());
    assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(format!("{g:?}"), format!("{w:?}"), "finding {i}");
    }
}

/// The E14 contract, in counts: a one-device ECO on a ≥64-CCC design
/// re-verifies only the dirty neighbourhood while keeping the signoff
/// byte-identical. (What that saves in milliseconds is `cbv-perf`'s
/// `eco_walk` workload's to measure, not a pass/fail gate's.)
#[test]
fn eco_rerun_reverifies_a_handful_of_units_with_identical_signoff() {
    let p = Process::strongarm_035();
    let cfg = FlowConfig::default();
    let base = alu_slice(16, &p).netlist;

    // Prime the cache with the unedited design.
    let mut cache = VerifyCache::new();
    let primed = run_flow_incremental(base.clone(), &p, &cfg, &mut cache);
    assert!(
        primed.recognition.cccs.len() >= 64,
        "E14 needs a many-CCC design, got {}",
        primed.recognition.cccs.len()
    );

    // The ECO: nudge one device's width by 5 %.
    let mut eco: FlatNetlist = base;
    eco.device_mut(DeviceId(0)).w *= 1.05;

    let cold = run_flow(eco.clone(), &p, &cfg);
    let warm = run_flow_incremental(eco, &p, &cfg, &mut cache);
    assert_eq!(signoff_json(&warm), signoff_json(&cold));

    // Exactly three units re-verify: the edited device's CCC, the CCC
    // whose output its gate loads, and the always-dirty residue; no
    // unit that merely reads their outputs does.
    let stats = |stage: &str| {
        warm.stages
            .iter()
            .find(|s| s.stage == stage)
            .and_then(|s| s.cache)
            .unwrap_or_else(|| panic!("{stage} stage reports cache stats"))
    };
    let estats = stats("everify");
    assert_eq!(
        (estats.misses, estats.total()),
        (3, 177),
        "one-device ECO re-verified {} of {} units",
        estats.misses,
        estats.total()
    );

    // The timing row counts CCC arcs: a dirty CCC's are recomputed, a
    // clean one's replay from its unit entry.
    let tstats = stats("timing");
    assert_eq!(tstats.total(), warm.recognition.cccs.len());
    assert_eq!(
        tstats.misses,
        2,
        "timing recomputed the arcs of {} of {} CCCs",
        tstats.misses,
        tstats.total()
    );
}

/// The timing remainder — constraints, graph structure, clock skews and
/// STA — is recomputed on every run over the CCC arcs the unit entries
/// replay, and keeps the signoff byte-identical: cold, warm, and after a
/// JSON round-trip of the cache. The timing row counts one lookup per
/// CCC.
#[test]
fn timing_remainder_cache_replays_byte_identical_and_reloads() {
    let p = Process::strongarm_035();
    let cfg = FlowConfig::default();
    let netlist = alu_slice(8, &p).netlist;
    let cold_json = signoff_json(&run_flow(netlist.clone(), &p, &cfg));

    let mut cache = VerifyCache::new();
    let first = run_flow_incremental(netlist.clone(), &p, &cfg, &mut cache);
    assert_eq!(signoff_json(&first), cold_json, "cold cache run");
    let one_per_ccc = |r: &FlowReport| {
        let tstats = timing_stats(r);
        assert_eq!(tstats.hits + tstats.misses, r.recognition.cccs.len());
    };
    one_per_ccc(&first);

    // Warm rerun: every CCC's arcs answer from cache.
    let warm = run_flow_incremental(netlist.clone(), &p, &cfg, &mut cache);
    assert_eq!(signoff_json(&warm), cold_json, "warm cache run");
    assert_eq!(timing_stats(&warm).misses, 0, "warm arcs must be all hits");
    one_per_ccc(&warm);

    // JSON round-trip: the unit entries survive bit-exactly (floats as
    // raw bits), so a reloaded daemon replays the same bytes.
    let mut reloaded = VerifyCache::from_json(&cache.to_json()).expect("cache parses back");
    let replay = run_flow_incremental(netlist, &p, &cfg, &mut reloaded);
    assert_eq!(signoff_json(&replay), cold_json, "reloaded cache run");
    one_per_ccc(&replay);
}

/// The timing row's cache stats.
fn timing_stats(r: &FlowReport) -> cbv_core::cache::CacheStats {
    r.stages
        .iter()
        .find(|s| s.stage == "timing")
        .and_then(|s| s.cache)
        .expect("timing stage reports cache stats")
}

/// Same contract on a broken design: replayed arcs must not mask a
/// violation.
#[test]
fn timing_remainder_cache_is_sound_on_faulty_designs() {
    let p = Process::strongarm_035();
    let cfg = FlowConfig::default();
    let netlist = faulted_alu4(&p, MutationOp::BetaSkew { factor: 12.0 }, 0, "xp0_ia_p");
    let cold = run_flow(netlist.clone(), &p, &cfg);
    assert!(!cold.signoff.clean(), "beta skew must break signoff");

    let mut cache = VerifyCache::new();
    let first = run_flow_incremental(netlist.clone(), &p, &cfg, &mut cache);
    let warm = run_flow_incremental(netlist, &p, &cfg, &mut cache);
    assert_eq!(signoff_json(&first), signoff_json(&cold), "cold cache");
    assert_eq!(signoff_json(&warm), signoff_json(&cold), "warm cache");
    let tstats = timing_stats(&warm);
    assert_eq!(tstats.misses, 0, "a cached violation still replays");
    assert_eq!(tstats.hits + tstats.misses, warm.recognition.cccs.len());
}

/// SplitMix64, as in `perf/src/walk.rs`.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The seeded width-scale walk of `perf/src/walk.rs`, copied because
/// `perf/` is a workspace of its own: one device per step, scaled by a
/// few percent and steered back once it drifts far from its width.
struct Walk {
    rng: SplitMix64,
    drift: Vec<f64>,
}

impl Walk {
    fn new(seed: u64, stream: u64, devices: usize) -> Walk {
        let mut mix = SplitMix64(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        Walk {
            rng: SplitMix64(mix.next_u64()),
            drift: vec![1.0; devices],
        }
    }

    /// Applies the next step to `netlist`.
    fn step(&mut self, netlist: &mut FlatNetlist) {
        const FACTORS: [f64; 6] = [0.96, 0.97, 0.98, 1.02, 1.03, 1.04];
        let device = self.rng.below(self.drift.len());
        let pick = self.rng.below(3);
        let factor = match self.drift[device] {
            d if d > 1.25 => FACTORS[pick],
            d if d < 0.80 => FACTORS[3 + pick],
            _ => FACTORS[self.rng.below(FACTORS.len())],
        };
        self.drift[device] *= factor;
        let op = MutationOp::WidthScale { factor };
        mutate::apply(netlist, &op, Site::Device(DeviceId(device as u32)))
            .expect("width-scale applies at every device site");
    }
}

/// `cbv-perf`'s traced `eco_walk` section, replayed (`perf/src/eco_walk.rs`):
/// prime an owned cache on alu8, run 8 warm-up ops, then tally unit and
/// timing-row hits and misses over 16 ops of the seed-1 walk. The four
/// per-op counts are pure functions of the seed, so a cache change that
/// moves them fails here rather than in the benchmark's prose.
#[test]
fn eco_walk_traced_counts_repeat_to_the_digit() {
    let p = Process::strongarm_035();
    let cfg = FlowConfig::default();
    let mut netlist = alu_slice(8, &p).netlist;
    let mut cache = VerifyCache::new();
    run_flow_incremental(netlist.clone(), &p, &cfg, &mut cache);
    let mut walk = Walk::new(1, 3, netlist.devices().len());
    for _ in 0..8 {
        walk.step(&mut netlist);
        run_flow_incremental(netlist.clone(), &p, &cfg, &mut cache);
    }
    let mut tally = [0usize; 4];
    for _ in 0..16 {
        walk.step(&mut netlist);
        let report = run_flow_incremental(netlist.clone(), &p, &cfg, &mut cache);
        for (k, stage) in ["everify", "timing"].into_iter().enumerate() {
            let stats = report
                .stages
                .iter()
                .find(|s| s.stage == stage)
                .and_then(|s| s.cache)
                .expect("incremental stages report cache stats");
            tally[2 * k] += stats.hits;
            tally[2 * k + 1] += stats.misses;
        }
    }
    let per_op = tally.map(|n| n as f64 / 16.0);
    assert_eq!(per_op, [84.375, 4.625, 84.375, 3.625]);
}

/// Verifies afresh, on a full build of `netlist`, every unit whose key
/// `cache` holds, and holds the stored result equal to the fresh one,
/// field for field and bit for bit; then runs the revision on `cache`.
/// Returns how many hits were compared.
fn replay_audited(
    netlist: &FlatNetlist,
    p: &Process,
    cfg: &FlowConfig,
    cache: &mut VerifyCache,
    what: &str,
) -> usize {
    let prep = PreparedDesign::build(netlist.clone(), p, cfg);
    let mut compared = 0;
    for i in 0..prep.n_units() {
        if let Some(stored) = cache.get(&prep.unit_key(i)) {
            let fresh = prep.verify_unit(i, None).result;
            assert!(
                format!("{fresh:?}") == format!("{stored:?}"),
                "{what}: unit {i} hits a result a fresh verification does not compute"
            );
            compared += 1;
        }
    }
    run_flow_incremental(netlist.clone(), p, cfg, cache);
    compared
}

/// A hit is sound only if the unit's key folds everything its checks
/// and arcs read; no closure re-verifies a clean unit next to a dirty
/// one. So every hit is checked against a fresh verification: 48 steps
/// of the seeded sizing walk on alu8 and on man8, and each E16 operator
/// planted once, at its first site, on domino4 and alu4 (18 mutants),
/// each revision on an owned cache primed with the design before it —
/// 7,135 hits compared.
#[test]
fn every_hit_replays_what_a_fresh_verification_computes() {
    let p = Process::strongarm_035();
    let cfg = FlowConfig::default();
    let mut compared = 0;
    for mut netlist in [
        alu_slice(8, &p).netlist,
        manchester_domino_adder(8, &p).netlist,
    ] {
        let mut cache = VerifyCache::new();
        run_flow_incremental(netlist.clone(), &p, &cfg, &mut cache);
        let mut walk = Walk::new(1, 3, netlist.devices().len());
        for step in 0..48 {
            walk.step(&mut netlist);
            let what = format!("{} walk step {step}", netlist.name());
            compared += replay_audited(&netlist, &p, &cfg, &mut cache, &what);
        }
    }
    let mut planted = 0;
    for base in [
        manchester_domino_adder(4, &p).netlist,
        alu_slice(4, &p).netlist,
    ] {
        let mut cache = VerifyCache::new();
        run_flow_incremental(base.clone(), &p, &cfg, &mut cache);
        let recognition = recognize(&base);
        for op in mutate::default_ops() {
            let Some(&site) = mutate::sites(&op, &base, &recognition).first() else {
                continue;
            };
            let mut mutant = base.clone();
            mutate::apply(&mut mutant, &op, site).expect("a listed site applies");
            let what = format!("{} with {op}", base.name());
            compared += replay_audited(&mutant, &p, &cfg, &mut cache, &what);
            planted += 1;
        }
    }
    assert!(planted >= 16, "{planted} operators planted");
    assert!(compared >= 7_000, "{compared} hits compared");
}

/// A neighbour's edit, an unrelated edit, then the neighbour's edit
/// undone, on an owned cache and on a `FlowService`: every step's
/// signoff equals cold `run_flow`'s byte for byte, and the owned
/// cache's findings equal cold's one by one. On domino4, the
/// neighbours of a dynamic CCC are a gate its output drives — another
/// CCC's device, whose size charge sharing's receiver caps and the
/// output's load read — and a device driving one of its inputs.
#[test]
fn neighbour_edit_unrelated_edit_and_revert_stay_byte_identical() {
    let p = Process::strongarm_035();
    let cfg = FlowConfig::default();
    let base = manchester_domino_adder(4, &p).netlist;
    let rec = recognize(&base);
    let ccc_of = |d: DeviceId| rec.device_ccc[d.index()].index();
    let (dynamic, receiver, driver) = (0..rec.cccs.len())
        .find_map(|ci| {
            let receiver = rec.classes[ci].dynamic_outputs.iter().find_map(|&out| {
                base.device_ids()
                    .find(|&d| base.device(d).gate == out && ccc_of(d) != ci)
            })?;
            let driver = rec.cccs[ci].inputs.iter().find_map(|&net| {
                let cj = (0..rec.cccs.len())
                    .find(|&cj| cj != ci && rec.cccs[cj].outputs.contains(&net))?;
                rec.cccs[cj].devices.first().copied()
            })?;
            Some((ci, receiver, driver))
        })
        .expect("domino4 has a dynamic CCC with a receiver and a driver");
    let near = [dynamic, ccc_of(receiver), ccc_of(driver)];
    let unrelated = base
        .device_ids()
        .filter(|&d| !near.contains(&ccc_of(d)))
        .last()
        .expect("a device away from the three CCCs");

    // The receiver's size is in the dynamic unit's key.
    let key_with =
        |netlist: &FlatNetlist| PreparedDesign::build(netlist.clone(), &p, &cfg).unit_key(dynamic);
    let mut wider = base.clone();
    wider.device_mut(receiver).w *= 1.5;
    assert_ne!(
        key_with(&base),
        key_with(&wider),
        "a receiver resize re-keys its driver"
    );

    let mut cache = VerifyCache::new();
    let service = FlowService::new(p.clone(), cfg.clone());
    run_flow_incremental(base.clone(), &p, &cfg, &mut cache);
    service.verify(base.clone(), None, None);
    for (name, neighbour) in [("receiver", receiver), ("driver", driver)] {
        let mut edited = base.clone();
        edited.device_mut(neighbour).w *= 1.5;
        let mut both = edited.clone();
        both.device_mut(unrelated).w *= 0.9;
        let mut reverted = both.clone();
        reverted.device_mut(neighbour).w = base.device(neighbour).w;
        for (step, netlist) in [("edit", edited), ("unrelated", both), ("revert", reverted)] {
            let cold = run_flow(netlist.clone(), &p, &cfg);
            let owned = run_flow_incremental(netlist.clone(), &p, &cfg, &mut cache);
            assert_eq!(
                signoff_json(&owned),
                signoff_json(&cold),
                "{name} {step}: owned cache"
            );
            assert_eq!(
                format!("{:?}", owned.everify.findings()),
                format!("{:?}", cold.everify.findings()),
                "{name} {step}: owned cache findings"
            );
            let served = service.verify(netlist, None, None);
            assert_eq!(
                served.signoff_json,
                signoff_json(&cold),
                "{name} {step}: service"
            );
        }
    }
}

/// The NMOS row's height as placement sets it: the widest NMOS device,
/// in whole nanometres. Every shape above the row moves when it does.
fn nmos_row_height(netlist: &FlatNetlist) -> Option<i64> {
    let nmos = netlist.devices().iter().filter(|d| d.kind == MosKind::Nmos);
    nmos.map(|d| (d.w * 1e9).round() as i64).max()
}

/// The splice oracle. The seeded `eco_walk` stream runs 500 steps
/// through `run_flow_incremental` on one owned cache, which splices each
/// revision's prep from the one it kept for the last. On every step the
/// prep spliced from that same kept base must `Debug`-equal a full
/// build's recognition, layout and extraction, its unit fingerprints
/// must equal the full build's, and re-extracting every net through its
/// shape index — patched from the base's, step after step — must equal
/// the full extraction too. The walk holds row-height steps, which
/// synthesize and extract whole, and steps whose router gains or drops
/// a jog, which shift every later shape. Counted: a spliced op
/// re-extracts at most 22 of alu8's 222 nets and re-folds at most 12 of
/// its 88 CCC units on average, after 64 steps and after 500, the
/// fallbacks past the priming run are the row-height steps, every splice
/// patches its layout, a patch searches at most 40 of the route's 778
/// stub columns on average, and no splice rebuilds the index
/// (`cbv-extract`'s tests hold the patched windows to at most 30 ids
/// scanned per shape).
#[test]
fn spliced_prep_equals_a_full_build_on_every_step_of_a_seeded_walk() {
    let p = Process::strongarm_035();
    let cfg = FlowConfig {
        tracer: Tracer::new(JsonlSink::new(std::io::sink())),
        ..FlowConfig::default()
    };
    let count = |name: &str| cfg.tracer.counter_value(name);
    let per_splice = |name: &str| count(name) as f64 / count("prep.splices") as f64;
    let mut netlist = alu_slice(8, &p).netlist;
    let mut cache = VerifyCache::new();
    run_flow_incremental(netlist.clone(), &p, &cfg, &mut cache);
    assert_eq!(count("prep.fallbacks"), 1, "the priming run has no base");
    assert_eq!(netlist.net_count(), 222);

    let mut walk = Walk::new(1, 3, netlist.devices().len());
    let (mut row_steps, mut jog_steps, mut means_at_64) = (0, 0, (0.0, 0.0));
    let mut shapes = None;
    for step in 1..=500 {
        let rows = nmos_row_height(&netlist);
        walk.step(&mut netlist);
        row_steps += usize::from(nmos_row_height(&netlist) != rows);

        let kept = cache
            .take_prep()
            .expect("an owned cache keeps its run's prep");
        cache.keep_prep(kept.clone());
        let base = kept
            .downcast::<KeptPrep>()
            .expect("the kept prep is a KeptPrep");
        run_flow_incremental(netlist.clone(), &p, &cfg, &mut cache);
        let spliced = base.splice(netlist.clone(), &p, &cfg);
        let full = PreparedDesign::build(netlist.clone(), &p, &cfg);
        let through = spliced
            .shape_index()
            .extract(spliced.layout(), &netlist, &p);
        let pairs = [
            (
                "recognition",
                format!("{:?}", spliced.recognition()),
                format!("{:?}", full.recognition()),
            ),
            (
                "layout",
                format!("{:?}", spliced.layout()),
                format!("{:?}", full.layout()),
            ),
            (
                "extraction",
                format!("{:?}", spliced.extracted()),
                format!("{:?}", full.extracted()),
            ),
            (
                "index's extraction of every net",
                format!("{through:?}"),
                format!("{:?}", full.extracted()),
            ),
        ];
        for (what, got, want) in pairs {
            assert!(got == want, "step {step}: the spliced {what} differs");
        }
        assert!(
            spliced.unit_fingerprints() == full.unit_fingerprints(),
            "step {step}: the spliced fingerprints differ"
        );
        let n_shapes = full.layout().shapes.len();
        jog_steps += usize::from(shapes.is_some_and(|n| n != n_shapes));
        shapes = Some(n_shapes);
        if step == 64 {
            means_at_64 = (
                per_splice("extract.nets_reextracted"),
                per_splice("fingerprint.units_refolded"),
            );
        }
    }

    assert!(row_steps > 0, "the walk moves the NMOS row");
    assert!(jog_steps > 0, "the walk changes the shape count");
    assert_eq!(count("prep.fallbacks"), 1 + row_steps as u64);
    assert_eq!(count("prep.splices"), 500 - row_steps as u64);
    assert_eq!(count("extract.index_rebuilds"), 0, "index rebuilds");
    assert_eq!(
        count("layout.patches"),
        count("prep.splices"),
        "every splice patches its layout"
    );
    let searched = per_splice("layout.stubs_searched");
    assert!(
        searched <= 40.0,
        "a patch searched {searched:.2} of 778 stubs' columns"
    );
    let at_500 = (
        per_splice("extract.nets_reextracted"),
        per_splice("fingerprint.units_refolded"),
    );
    for (steps, (nets, units)) in [(64, means_at_64), (500, at_500)] {
        assert!(
            nets <= 22.0,
            "{steps} steps: a spliced op re-extracted {nets:.2} of 222 nets"
        );
        assert!(
            units <= 12.0,
            "{steps} steps: a spliced op re-folded {units:.2} of 88 CCC units"
        );
    }
}
