//! The wire protocol: versioned, length-prefixed JSON frames.
//!
//! Every message in either direction is one **frame**: a 3-byte magic
//! `b"cbv"`, a protocol version byte ([`PROTO_VERSION`]), then a 4-byte
//! big-endian `u32` byte length followed by exactly that many bytes of
//! UTF-8 JSON (one object, no trailing newline — the length prefix is
//! the delimiter, so payloads may contain anything, including embedded
//! newlines in uploaded SPICE text). Frames longer than [`MAX_FRAME`]
//! are rejected before any allocation happens: a hostile length prefix
//! cannot make the daemon reserve gigabytes.
//!
//! The magic + version header exists for mixed fleets: a farm
//! coordinator from one build talking to a worker from another must
//! fail *loudly* on the very first frame ("protocol version mismatch"),
//! never misparse a length prefix into garbage JSON. Peers that want an
//! application-level check before doing work send a
//! `{"req":"hello","proto":N}` request and get the daemon's version
//! echoed back (or a loud error on mismatch).
//!
//! Requests carry a client-chosen correlation `id`; every response
//! echoes it. Responses are `{"ok":true,...}` or
//! `{"ok":false,"id":N,"error":"...","retry_after_ms":M?}` — the
//! `retry_after_ms` hint appears only on queue-full backpressure
//! rejections.
//!
//! # Byte-identity of signoffs
//!
//! Verification responses embed the signoff JSON **verbatim**: the
//! server splices the exact string `serde_json::to_string(&signoff)`
//! produced into the response text, and clients recover it with
//! [`extract_raw_field`] — the `serde_json` shim's `raw_field`, which
//! returns the field's text as a slice of the reply, found by the same
//! tokenizer that parses it and never re-serialized. A remote signoff
//! is therefore byte-for-byte the in-process one, which is the contract
//! `tests/serve.rs` and the `scripts/check.sh` loopback smoke enforce
//! with a literal string compare.

use std::io::{self, Read, Write};

use serde_json::Value;

use crate::client::ClientError;

pub use serde_json::raw_field as extract_raw_field;

/// Hard cap on one frame's payload length, bytes. Large enough for a
/// sizeable SPICE upload, small enough that a hostile prefix cannot
/// balloon memory.
pub const MAX_FRAME: u32 = 8 * 1024 * 1024;

/// Frame magic: every frame starts with these three bytes.
pub const FRAME_MAGIC: [u8; 3] = *b"cbv";

/// Protocol version this build speaks, stamped into every frame header.
/// v1 was the unversioned 4-byte length prefix; v2 added the magic +
/// version header and the farm worker vocabulary (`hello`, `load`,
/// `batch`).
pub const PROTO_VERSION: u8 = 2;

/// Writes one frame: magic, version, length prefix and payload in a
/// single `write_all` (one syscall in the common case, and no
/// interleaving point for a second writer on a shared stream).
pub fn write_frame(w: &mut impl Write, text: &str) -> io::Result<()> {
    let len = u32::try_from(text.len())
        .ok()
        .filter(|&n| n <= MAX_FRAME)
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("frame of {} bytes exceeds MAX_FRAME", text.len()),
            )
        })?;
    let mut buf = Vec::with_capacity(8 + text.len());
    buf.extend_from_slice(&FRAME_MAGIC);
    buf.push(PROTO_VERSION);
    buf.extend_from_slice(&len.to_be_bytes());
    buf.extend_from_slice(text.as_bytes());
    w.write_all(&buf)
}

/// Reads one frame. `Ok(None)` is a clean end-of-stream (EOF exactly at
/// a frame boundary — how a client says goodbye); EOF inside a frame, a
/// bad magic, a version mismatch, an oversized length prefix, or
/// non-UTF-8 payload are errors. The version check happens before the
/// length is trusted: a peer speaking another protocol revision fails
/// loudly on its first frame instead of having its bytes misparsed.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<String>> {
    let mut header = [0u8; 8];
    match r.read(&mut header) {
        Ok(0) => return Ok(None),
        Ok(n) => r.read_exact(&mut header[n..])?,
        Err(e) if e.kind() == io::ErrorKind::Interrupted => {
            r.read_exact(&mut header)?;
        }
        Err(e) => return Err(e),
    }
    if header[..3] != FRAME_MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "bad frame magic: peer is not speaking the cbv protocol",
        ));
    }
    let version = header[3];
    if version != PROTO_VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "protocol version mismatch: peer speaks cbv/{version}, \
                 this build speaks cbv/{PROTO_VERSION}"
            ),
        ));
    }
    let len = u32::from_be_bytes(header[4..8].try_into().expect("4-byte slice"));
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME ({MAX_FRAME})"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    String::from_utf8(payload)
        .map(Some)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame payload is not UTF-8"))
}

/// `s` as a JSON string literal, quotes and escapes included: where the
/// crate's hand-assembled frames and state files quote a string.
pub(crate) fn json_escaped(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    serde::write_json_string(s, &mut out);
    out
}

/// One lockstep request/reply exchange, the envelope every client of
/// the protocol shares: appends `"id":id` to `body` (a JSON object),
/// sends it as one frame, reads the reply frame, parses it once, checks
/// the echoed id, and maps `"ok":false` to [`ClientError::Rejected`]
/// (with the `retry_after_ms` hint on queue-full rejections). Returns
/// the reply text — for verbatim [`extract_raw_field`] slices — and its
/// parse.
pub(crate) fn exchange(
    stream: &mut (impl Read + Write),
    id: u64,
    body: &str,
) -> Result<(String, Value), ClientError> {
    let framed = match body.strip_suffix('}') {
        Some(prefix) if body.starts_with('{') => {
            let sep = if prefix.trim_end().ends_with('{') {
                ""
            } else {
                ","
            };
            format!("{prefix}{sep}\"id\":{id}}}")
        }
        _ => {
            return Err(ClientError::Protocol(
                "request body must be an object".into(),
            ))
        }
    };
    write_frame(stream, &framed)?;
    let reply = read_frame(stream)?.ok_or_else(|| {
        io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
    })?;
    let v = serde_json::from_str(&reply)
        .map_err(|e| ClientError::Protocol(format!("unparseable reply: {e}")))?;
    let got_id = v.get("id").and_then(Value::as_u64);
    if got_id != Some(id) {
        return Err(ClientError::Protocol(format!(
            "reply id {got_id:?} does not match request id {id}"
        )));
    }
    match v.get("ok").and_then(Value::as_bool) {
        Some(true) => Ok((reply, v)),
        Some(false) => Err(ClientError::Rejected {
            error: v
                .get("error")
                .and_then(Value::as_str)
                .unwrap_or("unspecified")
                .to_owned(),
            retry_after_ms: v.get("retry_after_ms").and_then(Value::as_u64),
        }),
        None => Err(ClientError::Protocol("reply missing \"ok\"".into())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"a\":1}").unwrap();
        write_frame(&mut buf, "").unwrap();
        let mut r = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("{\"a\":1}"));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(""));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF");
    }

    /// A v2 header (magic + version + length) with an arbitrary length.
    fn header(len: u32) -> Vec<u8> {
        let mut h = FRAME_MAGIC.to_vec();
        h.push(PROTO_VERSION);
        h.extend_from_slice(&len.to_be_bytes());
        h
    }

    #[test]
    fn truncated_and_oversized_frames_error() {
        // EOF mid-header.
        let mut r = io::Cursor::new(vec![b'c', b'b']);
        assert!(read_frame(&mut r).is_err());
        // EOF mid-payload.
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"a\":1}").unwrap();
        buf.truncate(buf.len() - 2);
        assert!(read_frame(&mut io::Cursor::new(buf)).is_err());
        // Hostile length prefix: rejected without allocating.
        let huge = header(MAX_FRAME + 1);
        assert!(read_frame(&mut io::Cursor::new(huge)).is_err());
        // Non-UTF-8 payload.
        let mut bad = header(2);
        bad.extend_from_slice(&[0xff, 0xfe]);
        assert!(read_frame(&mut io::Cursor::new(bad)).is_err());
    }

    #[test]
    fn bad_magic_and_version_mismatch_fail_loudly() {
        // A v1 peer's raw length prefix (no magic) must be refused as
        // alien, not interpreted as a length.
        let mut v1 = 7u32.to_be_bytes().to_vec();
        v1.extend_from_slice(b"{\"a\":1}");
        v1.push(0); // pad past 8 bytes so the header read completes
        let err = read_frame(&mut io::Cursor::new(v1)).unwrap_err();
        assert!(err.to_string().contains("bad frame magic"), "{err}");

        // Right magic, wrong version: named error with both versions.
        let mut future = FRAME_MAGIC.to_vec();
        future.push(PROTO_VERSION + 1);
        future.extend_from_slice(&2u32.to_be_bytes());
        future.extend_from_slice(b"{}");
        let err = read_frame(&mut io::Cursor::new(future)).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("protocol version mismatch"), "{msg}");
        assert!(
            msg.contains(&format!("cbv/{}", PROTO_VERSION + 1))
                && msg.contains(&format!("cbv/{PROTO_VERSION}")),
            "both versions are named: {msg}"
        );
    }

    #[test]
    fn extracts_raw_fields_verbatim() {
        let text = "{\"ok\":true,\"id\":7,\"signoff\":{\"categories\":[{\"x\":\"}{\"}],\"power\":1.5e-3},\"tail\":null}";
        assert_eq!(extract_raw_field(text, "ok"), Some("true"));
        assert_eq!(extract_raw_field(text, "id"), Some("7"));
        assert_eq!(
            extract_raw_field(text, "signoff"),
            Some("{\"categories\":[{\"x\":\"}{\"}],\"power\":1.5e-3}"),
            "brace inside a string must not unbalance the scan"
        );
        assert_eq!(extract_raw_field(text, "tail"), Some("null"));
        assert_eq!(extract_raw_field(text, "missing"), None);
        assert_eq!(extract_raw_field("[1,2]", "x"), None, "not an object");
        assert_eq!(extract_raw_field("{\"a\":", "a"), None, "truncated");
    }
}
