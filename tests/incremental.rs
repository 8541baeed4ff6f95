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
use cbv_core::scatter::{KeptPrep, PreparedDesign};
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

    // Almost everything hits: at most the edited CCC, its one-step
    // fanout closure, and the always-dirty residue unit re-verify.
    let stats = |stage: &str| {
        warm.stages
            .iter()
            .find(|s| s.stage == stage)
            .and_then(|s| s.cache)
            .unwrap_or_else(|| panic!("{stage} stage reports cache stats"))
    };
    let estats = stats("everify");
    assert!(
        estats.misses <= 8,
        "one-device ECO should dirty a handful of units, re-verified {} of {}",
        estats.misses,
        estats.total()
    );
    assert!(estats.hits >= estats.total() - 8);

    // The timing row counts CCC arcs: a dirty CCC's are recomputed, a
    // clean one's replay from its unit entry.
    let tstats = stats("timing");
    assert_eq!(tstats.total(), warm.recognition.cccs.len());
    assert!(
        tstats.misses <= 8,
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
    assert_eq!(per_op, [79.125, 9.875, 79.125, 8.875]);
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
/// extract whole, and steps whose router gains or drops a jog, which
/// shift every later shape. Counted: a spliced op re-extracts at most
/// 22 of alu8's 222 nets and re-folds at most 12 of its 88 CCC units on
/// average, after 64 steps and after 500, the fallbacks past the
/// priming run are the row-height steps, and no splice rebuilds the
/// index (`cbv-extract`'s tests hold the patched windows to at most 30
/// ids scanned per shape).
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
