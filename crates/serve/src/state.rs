//! Daemon persistence: the `cbv-state/1` file format.
//!
//! A state file carries everything a restarted daemon needs to pick up
//! where the old one stopped: every saved session as its **seed plus
//! accepted edit history** (not the netlist — replay is deterministic,
//! so the rebuilt netlist is bit-identical and much smaller on disk),
//! and the shared verification cache in its exact `cbv-cache/1` wire
//! form (floats as bit patterns), so a restored session's first
//! signoff is answered warm and byte-identical.
//!
//! Writes are atomic (temp file + rename in the target directory), so
//! a crash mid-save leaves the previous state intact. Loads are strict:
//! a corrupt state file fails the daemon's startup loudly rather than
//! half-loading.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;

use cbv_core::cache::VerifyCache;
use serde_json::Value;

use crate::protocol::json_escaped;
use crate::session::SessionSeed;
use crate::{edit_to_json, edits_from_json, Edit};

/// One saved session snapshot: enough to replay it exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct SavedSession {
    /// The design name the session was opened on.
    pub design: String,
    /// How revision 0 was produced.
    pub seed: SessionSeed,
    /// The accepted edit batches, one per revision.
    pub steps: Vec<Vec<Edit>>,
}

/// Serializes the full daemon state. Sessions are emitted in sorted
/// name order and the cache in sorted key order, so equal states
/// serialize to equal bytes.
pub fn state_to_json(sessions: &BTreeMap<String, SavedSession>, cache_json: &str) -> String {
    let mut out = String::from("{\"format\":\"cbv-state/1\",\"sessions\":[");
    for (i, (name, saved)) in sessions.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":{},\"design\":{},",
            json_escaped(name),
            json_escaped(&saved.design)
        ));
        match &saved.seed {
            SessionSeed::Registry => out.push_str("\"seed\":{\"kind\":\"registry\"},"),
            SessionSeed::Spice { text, top } => {
                out.push_str(&format!(
                    "\"seed\":{{\"kind\":\"spice\",\"spice\":{},\"top\":{}}},",
                    json_escaped(text),
                    json_escaped(top)
                ));
            }
        }
        out.push_str("\"steps\":[");
        for (k, batch) in saved.steps.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            out.push('[');
            for (j, edit) in batch.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&edit_to_json(edit));
            }
            out.push(']');
        }
        out.push_str("]}");
    }
    out.push_str("],\"cache\":");
    out.push_str(cache_json);
    out.push('}');
    out
}

/// Parses a state file written by [`state_to_json`]. Strict: any
/// structural problem is an error, never a partial load.
pub fn state_from_json(
    text: &str,
) -> Result<(BTreeMap<String, SavedSession>, Option<VerifyCache>), String> {
    let root: Value = serde_json::from_str(text).map_err(|e| format!("invalid JSON: {e}"))?;
    match root.req_str("format")? {
        "cbv-state/1" => {}
        other => return Err(format!("unsupported state format {other:?}")),
    }
    let mut sessions = BTreeMap::new();
    for entry in root.req_array("sessions")? {
        let name = entry.req_str("name")?.to_owned();
        let design = entry.req_str("design")?.to_owned();
        let seed_value = entry.req("seed")?;
        let seed = match seed_value.req_str("kind")? {
            "registry" => SessionSeed::Registry,
            "spice" => SessionSeed::Spice {
                text: seed_value.req_str("spice")?.to_owned(),
                top: seed_value.req_str("top")?.to_owned(),
            },
            other => return Err(format!("unknown seed kind {other:?}")),
        };
        let mut steps = Vec::new();
        for (k, step) in entry.req_array("steps")?.iter().enumerate() {
            if step.as_array().is_none() {
                return Err(format!("step {k} is not an edit array"));
            }
            steps.push(edits_from_json(step).map_err(|e| format!("step {k}: {e}"))?);
        }
        if sessions
            .insert(
                name.clone(),
                SavedSession {
                    design,
                    seed,
                    steps,
                },
            )
            .is_some()
        {
            return Err(format!("duplicate saved session {name:?}"));
        }
    }
    // `VerifyCache::from_json` reads text, so hand it the cache subtree's
    // own bytes. Bit patterns would survive a trip through `Value` too
    // (`Value` keeps number text raw); the slice only saves
    // re-serializing the parsed subtree — it is still parsed a second
    // time, by `from_json`.
    let cache = match serde_json::raw_field(text, "cache") {
        Some(raw) => Some(VerifyCache::from_json(raw).map_err(|e| format!("cache: {e}"))?),
        None if root.get("cache").is_some() => {
            return Err("cache field is not extractable".into());
        }
        None => None,
    };
    Ok((sessions, cache))
}

/// Writes `json` to `path` atomically: temp file in the same directory,
/// flush, rename. A crash mid-write leaves the previous file intact.
pub fn write_state_atomic(path: &str, json: &str) -> io::Result<()> {
    let target = Path::new(path);
    let dir = target.parent().filter(|p| !p.as_os_str().is_empty());
    let tmp = match dir {
        Some(d) => d.join(format!(
            ".{}.tmp",
            target
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or("state")
        )),
        None => Path::new(&format!(".{path}.tmp")).to_path_buf(),
    };
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(json.as_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use crate::NewNet;
    use cbv_core::flow::{run_flow, FlowConfig};
    use cbv_core::netlist::{DeviceId, NetKind};
    use cbv_core::tech::Process;

    fn sample() -> BTreeMap<String, SavedSession> {
        let mut m = BTreeMap::new();
        m.insert(
            "snap".to_owned(),
            SavedSession {
                design: "ripple4".to_owned(),
                seed: SessionSeed::Registry,
                steps: vec![
                    vec![Edit::Resize {
                        device: DeviceId(0),
                        w: 2.5e-6,
                        l: 3.5e-7,
                    }],
                    vec![Edit::AddNet(Box::new(NewNet {
                        name: "scratch \"x\"".to_owned(),
                        kind: NetKind::Signal,
                    }))],
                ],
            },
        );
        m.insert(
            "up".to_owned(),
            SavedSession {
                design: "mine".to_owned(),
                seed: SessionSeed::Spice {
                    text: ".SUBCKT I A Y V G\nMP Y A V V PMOS W=2u L=0.35u\n\
                           MN Y A G G NMOS W=1u L=0.35u\n.ENDS\n"
                        .to_owned(),
                    top: "I".to_owned(),
                },
                steps: Vec::new(),
            },
        );
        m
    }

    #[test]
    fn state_round_trips_and_is_deterministic() {
        let sessions = sample();
        let cache_json = VerifyCache::new().to_json();
        let json = state_to_json(&sessions, &cache_json);
        let (back, cache) = state_from_json(&json).unwrap();
        assert_eq!(back, sessions);
        assert_eq!(cache.unwrap().len(), 0);
        assert_eq!(json, state_to_json(&back, &cache_json), "stable bytes");
    }

    #[test]
    fn replayed_snapshot_matches_the_live_session() {
        let p = Process::strongarm_035();
        let mut live = Session::open("ripple4", &p).unwrap();
        live.apply_batch(&[Edit::Resize {
            device: DeviceId(1),
            w: 2e-6,
            l: 4e-7,
        }])
        .unwrap();
        let snapshot = SavedSession {
            design: live.design().to_owned(),
            seed: live.seed().clone(),
            steps: live.history().map(<[Edit]>::to_vec).collect(),
        };
        let json = state_to_json(
            &BTreeMap::from([("s".to_owned(), snapshot)]),
            &VerifyCache::new().to_json(),
        );
        let (back, _) = state_from_json(&json).unwrap();
        let saved = &back["s"];
        let replayed = Session::replay(&saved.design, &saved.seed, &saved.steps, &p).unwrap();
        assert_eq!(replayed.netlist(), live.netlist());
        assert_eq!(replayed.revision(), live.revision());
    }

    /// A state file written before the edit codec moved into
    /// `cbv-mutate`: one edit of each kind over `dcvsl`, with
    /// shortest-round-trip floats and an escaped name. It loads, replays
    /// to the signoff bytes that build produced, and re-serialises byte
    /// for byte.
    #[test]
    fn golden_state_loads_replays_and_reserialises() {
        const GOLDEN: &str = r#"{"format":"cbv-state/1","sessions":[{"name":"golden","design":"dcvsl","seed":{"kind":"registry"},"steps":[[{"edit":"op","op":{"op":"width-scale","factor":1.1},"site":{"site":"device","device":0}},{"edit":"resize","device":1,"w":1.2345678901234567e-6,"l":3.5e-7}],[{"edit":"add-net","name":"spur \"q\"\\é\n","kind":"signal"},{"edit":"add-device","name":"m\"spur\"","kind":"nmos","gate":10,"drain":1,"source":2,"bulk":3,"w":1e-6,"l":3.5e-7},{"edit":"rewire","device":2,"term":"gate","net":10}]]}],"cache":{"format":"cbv-cache/1","entries":[]}}"#;
        const SIGNOFF: &str = r#"{"categories":[{"category":"electrical","checked":59,"filtered":59,"reviews":0,"violations":0},{"category":"timing","checked":2,"filtered":2,"reviews":0,"violations":0}],"worst_setup_slack":0,"races":0,"power":0.000006831054786372028}"#;
        let (sessions, cache) = state_from_json(GOLDEN).unwrap();
        assert_eq!(state_to_json(&sessions, &cache.unwrap().to_json()), GOLDEN);
        let saved = &sessions["golden"];
        let p = Process::strongarm_035();
        let s = Session::replay(&saved.design, &saved.seed, &saved.steps, &p).unwrap();
        let r = run_flow(s.netlist().clone(), &p, &FlowConfig::default());
        assert_eq!(serde_json::to_string(&r.signoff).unwrap(), SIGNOFF);
    }

    #[test]
    fn hostile_state_files_get_errors() {
        for bad in [
            "",
            "{}",
            "{\"format\":\"cbv-state/2\",\"sessions\":[]}",
            "{\"format\":\"cbv-state/1\"}",
            "{\"format\":\"cbv-state/1\",\"sessions\":[{\"name\":\"x\"}]}",
            "{\"format\":\"cbv-state/1\",\"sessions\":[{\"name\":\"x\",\"design\":\"d\",\
             \"seed\":{\"kind\":\"teleport\"},\"steps\":[]}]}",
            "{\"format\":\"cbv-state/1\",\"sessions\":[{\"name\":\"x\",\"design\":\"d\",\
             \"seed\":{\"kind\":\"registry\"},\"steps\":[{\"edit\":\"resize\"}]}]}",
            "{\"format\":\"cbv-state/1\",\"sessions\":[],\"cache\":{\"format\":\"nope\"}}",
        ] {
            assert!(state_from_json(bad).is_err(), "{bad:?} must not load");
        }
    }

    #[test]
    fn atomic_write_replaces_and_survives_reload() {
        let dir = std::env::temp_dir().join(format!("cbv-state-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.json");
        let path = path.to_str().unwrap();
        let json = state_to_json(&sample(), &VerifyCache::new().to_json());
        write_state_atomic(path, &json).unwrap();
        write_state_atomic(path, &json).unwrap();
        assert_eq!(std::fs::read_to_string(path).unwrap(), json);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
