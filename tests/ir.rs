//! The interchange-IR battery.
//!
//! Four fronts, matching the hardened entry points:
//!
//! 1. **Round trips** — `load(dump(n)) == n` for every registry design,
//!    with and without recognition annotations, and `load` is invariant
//!    under arbitrary record-line reordering.
//! 2. **Hostile inputs** — a corpus of malformed `cbv-ir` text and
//!    Yosys JSON documents. Every case must come back as a structured
//!    [`IrError`]; none may panic or over-allocate (a declared id of
//!    100 million must not reserve 100 million slots).
//! 3. **Golden fixtures** — three small Yosys-JSON netlists imported,
//!    run through the full flow, and byte-compared against checked-in
//!    signoff JSON. Regenerate with `CBV_REGEN_FIXTURES=1`.
//! 4. **Fallible construction** — the `try_*` paths on devices,
//!    passives, netlists, the SPICE reader, and `try_run_flow` reject
//!    with errors where the infallible forms would assert.

use cbv_core::flow::{try_run_flow, FlowConfig};
use cbv_core::ir::{self, IrError, IrRule};
use cbv_core::netlist::{spice, Device, FlatNetlist, NetId, NetKind, Passive};
use cbv_core::recognize::recognize;
use cbv_core::tech::{MosKind, Process};

fn process() -> Process {
    Process::strongarm_035()
}

/// Representative registry designs: static, domino, DCVSL, stateful.
fn designs() -> Vec<FlatNetlist> {
    let p = process();
    vec![
        cbv_core::gen::adders::static_ripple_adder(4, &p).netlist,
        cbv_core::gen::adders::manchester_domino_adder(4, &p).netlist,
        cbv_core::gen::dcvsl::dcvsl_and2(&p).netlist,
        cbv_core::gen::latches::sr_latch(&p).netlist,
    ]
}

fn fixture_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures")
        .join(name)
}

// ---------------------------------------------------------------- round trips

#[test]
fn dump_load_round_trips_registry_designs() {
    for netlist in designs() {
        let text = ir::dump(&netlist, None);
        let design = ir::load(&text).expect("own dump loads");
        assert_eq!(design.netlist, netlist, "{}", netlist.name());
        assert!(design.annotations.is_none());
        assert_eq!(ir::dump(&design.netlist, None), text, "dump is stable");
    }
}

#[test]
fn dump_load_round_trips_recognition_annotations() {
    for netlist in designs() {
        let recognition = recognize(&netlist);
        let text = ir::dump(&netlist, Some(&recognition));
        let design = ir::load(&text).expect("annotated dump loads");
        assert_eq!(design.netlist, netlist, "{}", netlist.name());
        let ann = design.annotations.expect("annotations survive the trip");
        assert_eq!(ann, ir::annotations_from(&recognition));
        assert!(
            ir::check_annotations(&design.netlist, &ann).is_empty(),
            "a fresh recognition agrees with the carried annotations"
        );
    }
}

#[test]
fn load_is_invariant_under_line_reordering() {
    let netlist = cbv_core::gen::adders::static_ripple_adder(2, &process()).netlist;
    let recognition = recognize(&netlist);
    let text = ir::dump(&netlist, Some(&recognition));
    let reference = ir::load(&text).expect("reference load");

    let mut lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.last().copied(), Some("end"));
    let n = lines.len();
    // Reverse every record line; only the header and the end marker are
    // positional.
    lines[1..n - 1].reverse();
    let shuffled = lines.join("\n");
    assert_ne!(shuffled, text);

    let design = ir::load(&shuffled).expect("shuffled load");
    assert_eq!(design, reference);
    assert_eq!(
        ir::dump(&design.netlist, None),
        ir::dump(&reference.netlist, None)
    );
}

#[test]
fn comments_and_blank_lines_are_tolerated() {
    let text = "# leading comment\n\ncbv-ir/1\n# mid comment\ndesign \"d\"\n\
                net 0 \"vdd\" power\nnet 1 \"gnd\" ground\nnet 2 \"a\" input\n\
                net 3 \"y\" output\n\n\
                mos 0 \"mp\" pmos g=2 d=3 s=0 b=0 w=2e-6 l=3.5e-7 m=1\n\
                mos 1 \"mn\" nmos g=2 d=3 s=1 b=1 w=1e-6 l=3.5e-7 m=1\n\
                # trailing comment before end\nend\n";
    let design = ir::load(text).expect("commented file loads");
    assert_eq!(design.netlist.devices().len(), 2);
    assert_eq!(design.netlist.name(), "d");
}

#[test]
fn passives_fingers_and_hostile_names_round_trip() {
    let mut f = FlatNetlist::new("odd \"names\" \u{0394}");
    let vdd = f.add_net("vdd", NetKind::Power);
    let gnd = f.add_net("g\"nd\"", NetKind::Ground);
    let a = f.add_net("in\\put", NetKind::Input);
    let y = f.add_net("out\tput\nline", NetKind::Output);
    f.add_device(
        Device::mos(MosKind::Pmos, "mp \u{03bc}", a, y, vdd, vdd, 2.2e-6, 3.5e-7).with_fingers(3),
    );
    f.add_device(Device::mos(
        MosKind::Nmos,
        "mn",
        a,
        y,
        gnd,
        gnd,
        1.1e-6,
        3.5e-7,
    ));
    f.add_passive(Passive::resistor("r0", y, gnd, 1234.5));
    f.add_passive(Passive::capacitor("c0", y, gnd, 1.25e-15));
    let text = ir::dump(&f, None);
    let back = ir::load(&text).expect("dump with hostile names loads");
    assert_eq!(back.netlist, f);
    assert_eq!(ir::dump(&back.netlist, None), text);
}

// ------------------------------------------------------------ hostile inputs

/// Every malformed `cbv-ir` text becomes a structured error — no case
/// may panic, and the error must render (Display is part of the wire
/// contract).
#[test]
fn hostile_ir_text_yields_structured_errors() {
    const HEAD: &str = "cbv-ir/1\ndesign \"d\"\nnet 0 \"vdd\" power\nnet 1 \"gnd\" ground\n\
                        net 2 \"a\" input\nnet 3 \"y\" output\n\
                        mos 0 \"mp\" pmos g=2 d=3 s=0 b=0 w=2e-6 l=3.5e-7 m=1\n\
                        mos 1 \"mn\" nmos g=2 d=3 s=1 b=1 w=1e-6 l=3.5e-7 m=1\n";
    let with = |extra: &str| format!("{HEAD}{extra}end\n");
    let cases: Vec<(&str, String)> = vec![
        ("empty input", String::new()),
        ("whitespace only", "  \n\t \n".to_string()),
        ("comment only", "# nothing here\n".to_string()),
        ("bad header", "spice deck\n.SUBCKT X\n.ENDS\n".to_string()),
        ("truncated (no end)", HEAD.to_string()),
        (
            "trailing data after end",
            format!("{}net 4 \"late\" signal\n", with("")),
        ),
        ("duplicate design", with("design \"again\"\n")),
        (
            "missing design",
            "cbv-ir/1\nnet 0 \"a\" input\nend\n".to_string(),
        ),
        ("duplicate net id", with("net 3 \"dup\" signal\n")),
        (
            "gap in net ids",
            with("net 7 \"far\" signal\nnet 5 \"near\" signal\n"),
        ),
        (
            "huge declared net id",
            with("net 104857600 \"bomb\" signal\n"),
        ),
        (
            "huge declared device id",
            with("mos 99999999 \"bomb\" nmos g=2 d=3 s=1 b=1 w=1e-6 l=3.5e-7 m=1\n"),
        ),
        ("unknown record", with("transistor 0 \"x\"\n")),
        ("unknown net kind", with("net 4 \"x\" analog\n")),
        (
            "unknown device kind",
            with("mos 2 \"x\" jfet g=2 d=3 s=1 b=1 w=1e-6 l=3.5e-7 m=1\n"),
        ),
        (
            "device references unknown net",
            with("mos 2 \"x\" nmos g=9 d=3 s=1 b=1 w=1e-6 l=3.5e-7 m=1\n"),
        ),
        (
            "zero width",
            with("mos 2 \"x\" nmos g=2 d=3 s=1 b=1 w=0 l=3.5e-7 m=1\n"),
        ),
        (
            "non-finite width",
            with("mos 2 \"x\" nmos g=2 d=3 s=1 b=1 w=inf l=3.5e-7 m=1\n"),
        ),
        (
            "NaN length",
            with("mos 2 \"x\" nmos g=2 d=3 s=1 b=1 w=1e-6 l=NaN m=1\n"),
        ),
        (
            "zero fingers",
            with("mos 2 \"x\" nmos g=2 d=3 s=1 b=1 w=1e-6 l=3.5e-7 m=0\n"),
        ),
        ("negative passive value", with("res 0 \"r\" a=2 b=3 v=-5\n")),
        (
            "passive references unknown net",
            with("cap 0 \"c\" a=2 b=44 v=1e-15\n"),
        ),
        ("unterminated string", with("net 4 \"oops signal\n")),
        ("bad escape", with("net 4 \"a\\q\" signal\n")),
        ("truncated \\u escape", with("net 4 \"a\\u12\" signal\n")),
        ("signed \\u escape", with("net 4 \"a\\u+041\" signal\n")),
        ("mos arity", with("mos 2 \"x\" nmos g=2 d=3\n")),
        ("wrong key order", with("res 0 \"r\" b=2 a=3 v=5\n")),
        ("empty ccc", with("ccc 0 family=static devices=-\n")),
        ("unknown family", with("ccc 0 family=quantum devices=0,1\n")),
        (
            "ccc references unknown device",
            with("ccc 0 family=static devices=0,9\n"),
        ),
        (
            "device owned by two cccs",
            with("ccc 0 family=static devices=0\nccc 1 family=static devices=0\n"),
        ),
        ("duplicate clock net", with("clock 2\nclock 2\n")),
        ("clock references unknown net", with("clock 17\n")),
        (
            "state references unknown ccc",
            with("ccc 0 family=static devices=0,1\nstate keeper cccs=5 storage=3 clocks=-\n"),
        ),
        (
            "unknown state kind",
            with("ccc 0 family=static devices=0,1\nstate flipflop cccs=0 storage=3 clocks=-\n"),
        ),
        ("end takes no arguments", format!("{HEAD}end now\n")),
    ];
    assert!(cases.len() >= 15, "corpus floor from the issue");
    for (what, text) in &cases {
        let err = ir::load(text).expect_err(what);
        assert!(
            matches!(err, IrError::Parse { .. } | IrError::Version { .. }),
            "{what}: unexpected error class {err:?}"
        );
        assert!(!err.to_string().is_empty(), "{what}: error must render");
    }
}

#[test]
fn version_skew_and_encoding_are_distinct_errors() {
    match ir::load("cbv-ir/2\ndesign \"d\"\nend\n") {
        Err(IrError::Version { found }) => assert_eq!(found, "cbv-ir/2"),
        other => panic!("expected version error, got {other:?}"),
    }
    match ir::load_bytes(b"cbv-ir/1\ndesign \"d\xff\xfe\"\nend\n") {
        Err(IrError::Encoding { offset }) => assert_eq!(offset, 18),
        other => panic!("expected encoding error, got {other:?}"),
    }
}

/// A declared id of 100M+ must fail the contiguity check without the
/// parser ever allocating an id-indexed table. A generous allocation
/// would stall for seconds; the error comes back instantly — guarded
/// here indirectly by asserting the exact message (the check runs on
/// the sorted record list, not on a dense array).
#[test]
fn huge_ids_do_not_over_allocate() {
    let text = "cbv-ir/1\ndesign \"d\"\nnet 0 \"a\" input\nnet 4294967295 \"bomb\" signal\nend\n";
    match ir::load(text) {
        Err(IrError::Parse { message, .. }) => {
            assert_eq!(
                message,
                "net ids are not contiguous: found 4294967295, expected 1"
            );
        }
        other => panic!("expected contiguity error, got {other:?}"),
    }
}

#[test]
fn hostile_yosys_documents_yield_structured_errors() {
    let module = |cells: &str| {
        format!(
            "{{\"modules\":{{\"m\":{{\"ports\":{{\"a\":{{\"direction\":\"input\",\"bits\":[2]}},\
             \"y\":{{\"direction\":\"output\",\"bits\":[3]}}}},\"cells\":{{{cells}}}}}}}}}"
        )
    };
    let inv = "\"i\":{\"type\":\"$_NOT_\",\"connections\":{\"A\":[2],\"Y\":[3]}}";
    let cases: Vec<(&str, String)> = vec![
        ("not JSON", "][".to_string()),
        ("no modules key", "{}".to_string()),
        ("modules not an object", "{\"modules\":[]}".to_string()),
        ("no modules", "{\"modules\":{}}".to_string()),
        (
            "two modules, no top",
            "{\"modules\":{\"m1\":{},\"m2\":{}}}".to_string(),
        ),
        (
            "two modules both top",
            "{\"modules\":{\"m1\":{\"attributes\":{\"top\":1}},\
             \"m2\":{\"attributes\":{\"top\":1}}}}"
                .to_string(),
        ),
        ("no cells", module("")),
        (
            "unmapped RTL cell",
            module("\"c\":{\"type\":\"$add\",\"connections\":{}}"),
        ),
        (
            "hierarchical cell",
            module("\"c\":{\"type\":\"submodule\",\"connections\":{}}"),
        ),
        ("cell without type", module("\"c\":{\"connections\":{}}")),
        (
            "cell without connections",
            module("\"c\":{\"type\":\"$_NOT_\"}"),
        ),
        (
            "missing port connection",
            module("\"c\":{\"type\":\"$_NOT_\",\"connections\":{\"A\":[2]}}"),
        ),
        (
            "multi-bit gate port",
            module("\"c\":{\"type\":\"$_NOT_\",\"connections\":{\"A\":[2,4],\"Y\":[3]}}"),
        ),
        (
            "undriven x constant",
            module("\"c\":{\"type\":\"$_NOT_\",\"connections\":{\"A\":[\"x\"],\"Y\":[3]}}"),
        ),
        (
            "malformed bit index",
            module("\"c\":{\"type\":\"$_NOT_\",\"connections\":{\"A\":[true],\"Y\":[3]}}"),
        ),
        (
            "port without direction",
            format!(
                "{{\"modules\":{{\"m\":{{\"ports\":{{\"a\":{{\"bits\":[2]}}}},\
                 \"cells\":{{{inv}}}}}}}}}"
            ),
        ),
        (
            "unknown port direction",
            format!(
                "{{\"modules\":{{\"m\":{{\"ports\":{{\"a\":{{\"direction\":\"sideways\",\
                 \"bits\":[2]}}}},\"cells\":{{{inv}}}}}}}}}"
            ),
        ),
        (
            "port tied to a constant",
            format!(
                "{{\"modules\":{{\"m\":{{\"ports\":{{\"a\":{{\"direction\":\"input\",\
                 \"bits\":[\"1\"]}}}},\"cells\":{{{inv}}}}}}}}}"
            ),
        ),
        (
            "dff without clock",
            module("\"c\":{\"type\":\"$_DFF_P_\",\"connections\":{\"D\":[2],\"Q\":[3]}}"),
        ),
    ];
    assert!(cases.len() >= 15, "corpus floor from the issue");
    let p = process();
    for (what, text) in &cases {
        let err = ir::import_yosys(text, None, &p).expect_err(what);
        assert!(
            matches!(err, IrError::Import { .. }),
            "{what}: unexpected error class {err:?}"
        );
        assert!(!err.to_string().is_empty(), "{what}: error must render");
    }
    // Named-top miss and non-UTF-8 ride the same corpus.
    assert!(matches!(
        ir::import_yosys("{\"modules\":{\"m\":{}}}", Some("absent"), &p),
        Err(IrError::Import { .. })
    ));
    assert!(matches!(
        ir::import_yosys_bytes(b"{\"modules\"\xff}", None, &p),
        Err(IrError::Encoding { offset: 10 })
    ));
}

#[test]
fn unmapped_cell_errors_carry_actionable_hints() {
    let doc = |ty: &str| {
        format!(
            "{{\"modules\":{{\"m\":{{\"cells\":{{\"c\":{{\"type\":\"{ty}\",\
             \"connections\":{{}}}}}}}}}}}}"
        )
    };
    let msg = |ty: &str| {
        ir::import_yosys(&doc(ty), None, &process())
            .expect_err(ty)
            .to_string()
    };
    assert!(
        msg("$add").contains("abc -g simple"),
        "RTL cells point at abc"
    );
    assert!(
        msg("child_module").contains("yosys flatten"),
        "hierarchy points at flatten"
    );
}

// ----------------------------------------------------------- golden fixtures

/// Imports each checked-in Yosys fixture, runs the complete flow, and
/// byte-compares the signoff serialization against the golden file.
/// Also proves the import itself is deterministic and that the
/// imported netlist survives an IR round trip.
///
/// `CBV_REGEN_FIXTURES=1 cargo test --test ir` rewrites the golden
/// files instead of comparing.
#[test]
fn yosys_golden_fixtures_sign_off_byte_identically() {
    let p = process();
    for name in ["adder1", "dffpipe", "muxtree"] {
        let json = std::fs::read(fixture_path(&format!("{name}.json"))).expect("fixture exists");
        let netlist = ir::import_yosys_bytes(&json, None, &p).expect(name);
        let again = ir::import_yosys_bytes(&json, None, &p).expect(name);
        assert_eq!(
            ir::dump(&netlist, None),
            ir::dump(&again, None),
            "{name}: import is deterministic"
        );

        let trip = ir::load(&ir::dump(&netlist, None)).expect("imported netlist round trips");
        assert_eq!(trip.netlist, netlist, "{name}");

        let report = try_run_flow(netlist, &p, &FlowConfig::default()).expect(name);
        let signoff = serde_json::to_string(&report.signoff).expect("signoff serializes");
        let golden = fixture_path(&format!("{name}.signoff.json"));
        if std::env::var_os("CBV_REGEN_FIXTURES").is_some() {
            std::fs::write(&golden, &signoff).expect("write golden");
            continue;
        }
        let expected = std::fs::read_to_string(&golden).expect("golden signoff checked in");
        assert_eq!(signoff, expected, "{name}: signoff drifted from golden");
    }
}

// ------------------------------------------------- fallible entry points

#[test]
fn try_constructors_reject_what_the_infallible_forms_assert() {
    let n = |i: u32| NetId(i);
    assert!(Device::try_mos(MosKind::Nmos, "m", n(0), n(1), n(2), n(3), 0.0, 3.5e-7).is_err());
    assert!(Device::try_mos(
        MosKind::Nmos,
        "m",
        n(0),
        n(1),
        n(2),
        n(3),
        f64::INFINITY,
        3.5e-7
    )
    .is_err());
    assert!(Device::try_mos(MosKind::Nmos, "m", n(0), n(1), n(2), n(3), 1e-6, f64::NAN).is_err());
    assert!(Device::try_mos(MosKind::Pmos, "m", n(0), n(1), n(2), n(3), 2e-6, 3.5e-7).is_ok());

    assert!(Passive::try_resistor("r", n(0), n(1), -1.0).is_err());
    assert!(Passive::try_resistor("r", n(0), n(1), f64::NAN).is_err());
    assert!(Passive::try_capacitor("c", n(0), n(1), f64::NEG_INFINITY).is_err());
    assert!(Passive::try_capacitor("c", n(0), n(1), 1e-15).is_ok());

    let mut f = FlatNetlist::new("t");
    let vdd = f.add_net("vdd", NetKind::Power);
    let gnd = f.add_net("gnd", NetKind::Ground);
    let ok = Device::mos(MosKind::Nmos, "m0", vdd, gnd, gnd, gnd, 1e-6, 3.5e-7);
    assert!(f.try_add_device(ok.clone()).is_ok());
    let dangling = Device::mos(MosKind::Nmos, "m1", n(9), gnd, gnd, gnd, 1e-6, 3.5e-7);
    let err = f.try_add_device(dangling).expect_err("unknown net");
    assert!(
        err.to_string().contains("references unknown net 9"),
        "got {err}"
    );
    assert!(f
        .try_add_passive(Passive::resistor("r", vdd, n(42), 10.0))
        .is_err());
    // The failed adds must not have left partial records behind.
    assert_eq!(f.devices().len(), 1);
    assert_eq!(f.passives().len(), 0);
}

#[test]
fn hostile_spice_decks_parse_to_errors_not_panics() {
    for (what, deck) in [
        (
            "zero width",
            ".SUBCKT I A Y V G\nMN Y A G G NMOS W=0 L=0.35u\n.ENDS\n",
        ),
        (
            "non-finite width",
            ".SUBCKT I A Y V G\nMN Y A G G NMOS W=1e400 L=0.35u\n.ENDS\n",
        ),
        ("negative resistance", ".SUBCKT I A Y\nR1 A Y -50\n.ENDS\n"),
        ("negative capacitance", ".SUBCKT I A Y\nC1 A Y -1f\n.ENDS\n"),
    ] {
        assert!(spice::parse(deck).is_err(), "{what} must be a parse error");
    }
}

#[test]
fn validate_names_each_broken_rule() {
    let rules =
        |f: &FlatNetlist| -> Vec<IrRule> { ir::validate(f).into_iter().map(|v| v.rule).collect() };

    let empty = FlatNetlist::new("empty");
    assert_eq!(rules(&empty), vec![IrRule::EmptyDesign]);

    let mut dangling = FlatNetlist::new("dangling");
    let vdd = dangling.add_net("vdd", NetKind::Power);
    let gnd = dangling.add_net("gnd", NetKind::Ground);
    let a = dangling.add_net("a", NetKind::Input);
    let y = dangling.add_net("y", NetKind::Output);
    dangling.add_net("orphan", NetKind::Signal);
    dangling.add_device(Device::mos(
        MosKind::Pmos,
        "mp",
        a,
        y,
        vdd,
        vdd,
        2e-6,
        3.5e-7,
    ));
    dangling.add_device(Device::mos(
        MosKind::Nmos,
        "mn",
        a,
        y,
        gnd,
        gnd,
        1e-6,
        3.5e-7,
    ));
    assert_eq!(rules(&dangling), vec![IrRule::DanglingNet]);

    // Geometry that only post-construction mutation can make bad.
    let mut warped = dangling.clone();
    warped.set_net_kind(NetId(4), NetKind::Input); // silence the orphan
    warped.device_mut(cbv_core::netlist::DeviceId(0)).w = f64::NAN;
    warped.device_mut(cbv_core::netlist::DeviceId(1)).l = -1.0;
    let fired = rules(&warped);
    assert!(fired.contains(&IrRule::NonFiniteGeometry), "{fired:?}");
    assert!(fired.contains(&IrRule::IllTypedDevice), "{fired:?}");

    for netlist in designs() {
        assert!(
            ir::validate(&netlist).is_empty(),
            "{} must be clean",
            netlist.name()
        );
        assert!(ir::ensure_valid(&netlist).is_ok());
    }
}

#[test]
fn try_run_flow_gates_malformed_netlists() {
    let p = process();
    let err = try_run_flow(FlatNetlist::new("hollow"), &p, &FlowConfig::default())
        .expect_err("empty design is rejected at the door");
    match err {
        IrError::Invalid { violations } => {
            assert_eq!(violations[0].rule, IrRule::EmptyDesign);
        }
        other => panic!("expected validation error, got {other:?}"),
    }
    let report = try_run_flow(
        cbv_core::gen::dcvsl::dcvsl_and2(&p).netlist,
        &p,
        &FlowConfig::default(),
    )
    .expect("valid design passes the gate");
    assert!(report.signoff.clean());
}

#[test]
fn tampered_annotations_are_detected() {
    let netlist = cbv_core::gen::dcvsl::dcvsl_and2(&process()).netlist;
    let recognition = recognize(&netlist);
    let mut ann = ir::annotations_from(&recognition);
    assert!(ir::check_annotations(&netlist, &ann).is_empty());

    // Claim a different family for the first CCC.
    let honest = ann.cccs[0].family;
    ann.cccs[0].family = if honest == cbv_core::recognize::LogicFamily::Dcvsl {
        cbv_core::recognize::LogicFamily::StaticComplementary
    } else {
        cbv_core::recognize::LogicFamily::Dcvsl
    };
    let violations = ir::check_annotations(&netlist, &ann);
    assert!(!violations.is_empty());
    assert!(violations.iter().all(|v| v.rule == IrRule::CccOwnership));

    // A dump doctored the same way fails the `cbv ir norm` cross-check
    // path but still *loads* — detection is the validator's job.
    let doctored = ir::dump(&netlist, Some(&recognition)).replace("family=dcvsl", "family=ratioed");
    let design = ir::load(&doctored).expect("doctored file still parses");
    let ann = design.annotations.expect("annotations present");
    assert!(!ir::check_annotations(&design.netlist, &ann).is_empty());
}
