//! Chrome `trace_event` JSON export, loadable in Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing`.
//!
//! Hand-rolled (no serde). Emits the JSON-object form
//! `{"traceEvents": [...], "displayTimeUnit": "ms"}` with:
//!
//! * `"X"` complete events for spans (`ts` + `dur` in microseconds — the
//!   trace_event native unit, which matches our `u64` µs timestamps
//!   exactly);
//! * `"i"` instant events;
//! * `"C"` counter events;
//! * `"M"` metadata events naming each lane (`tid`): `manager` is lane 0,
//!   `worker N` is lane N+1.
//!
//! Everything shares `pid` 0. Events are emitted spans-first in recorded
//! order, then instants, then counters — a deterministic order for a
//! deterministic recorder.

use std::fmt::Write as _;

use crate::recorder::MemoryRecorder;
use crate::span::{AttrValue, MANAGER_TRACK};

/// Escape a string for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{0008}' => out.push_str("\\b"),
            '\u{000C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn write_attr_value(out: &mut String, v: &AttrValue) {
    match v {
        AttrValue::Str(s) => {
            let _ = write!(out, "\"{}\"", json_escape(s));
        }
        AttrValue::U64(n) => {
            let _ = write!(out, "{n}");
        }
        AttrValue::I64(n) => {
            let _ = write!(out, "{n}");
        }
        AttrValue::F64(f) => {
            // JSON has no NaN/Infinity; fall back to null.
            if f.is_finite() {
                let _ = write!(out, "{f}");
            } else {
                out.push_str("null");
            }
        }
    }
}

fn write_args(out: &mut String, attrs: &[crate::span::Attr]) {
    out.push_str("\"args\":{");
    for (i, a) in attrs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":", json_escape(a.key));
        write_attr_value(out, &a.value);
    }
    out.push('}');
}

/// Render a recorder's contents as a Chrome trace JSON document.
pub fn to_chrome_json(rec: &MemoryRecorder) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;

    // Lane-name metadata: collect every track that appears.
    let mut tracks: Vec<u32> = rec
        .spans()
        .iter()
        .map(|s| s.track)
        .chain(rec.instants().iter().map(|i| i.track))
        .chain(rec.counters().iter().map(|c| c.track))
        .collect();
    tracks.sort_unstable();
    tracks.dedup();
    for t in &tracks {
        if !first {
            out.push(',');
        }
        first = false;
        let label = if *t == MANAGER_TRACK {
            "manager".to_string()
        } else {
            format!("worker {}", t - 1)
        };
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{t},\
             \"args\":{{\"name\":\"{label}\"}}}}"
        );
    }

    for s in rec.spans() {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
             \"pid\":0,\"tid\":{},",
            json_escape(&s.name),
            s.category,
            s.start_us,
            s.dur_us(),
            s.track,
        );
        write_args(&mut out, &s.attrs);
        out.push('}');
    }

    for i in rec.instants() {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\
             \"pid\":0,\"tid\":{},",
            json_escape(&i.name),
            i.category,
            i.t_us,
            i.track,
        );
        write_args(&mut out, &i.attrs);
        out.push('}');
    }

    for c in rec.counters() {
        if !first {
            out.push(',');
        }
        first = false;
        let v = if c.value.is_finite() { c.value } else { 0.0 };
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"C\",\"ts\":{},\"pid\":0,\"tid\":{},\
             \"args\":{{\"value\":{v}}}}}",
            json_escape(c.name),
            c.t_us,
            c.track,
        );
    }

    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonValue;
    use crate::recorder::Recorder;
    use crate::span::{category, Attr, InstantEvent, Span};

    fn sample_recorder() -> MemoryRecorder {
        let mut r = MemoryRecorder::new();
        r.span(Span {
            name: "proc \"x\"\n".into(),
            category: category::TASK,
            start_us: 100,
            end_us: 400,
            track: 1,
            attrs: vec![Attr::u64("task", 3), Attr::str("kind", "process")],
        });
        r.instant(InstantEvent {
            name: "preempt".into(),
            category: category::WORKER,
            t_us: 250,
            track: 1,
            attrs: vec![],
        });
        r.counter("tasks.running", 0, 100, 1.0);
        r
    }

    #[test]
    fn exported_trace_is_valid_json_with_expected_events() {
        let text = to_chrome_json(&sample_recorder());
        let v = JsonValue::parse(&text).expect("chrome trace must parse");
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        // 2 lane-metadata events (tracks 0 and 1) + span + instant + counter.
        assert_eq!(events.len(), 5);
        let span = events
            .iter()
            .find(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X"))
            .unwrap();
        assert_eq!(span.get("name").unwrap().as_str(), Some("proc \"x\"\n"));
        assert_eq!(span.get("ts").unwrap().as_u64(), Some(100));
        assert_eq!(span.get("dur").unwrap().as_u64(), Some(300));
        assert_eq!(span.get("tid").unwrap().as_u64(), Some(1));
        assert_eq!(
            span.get("args").unwrap().get("task").unwrap().as_u64(),
            Some(3)
        );
        let counter = events
            .iter()
            .find(|e| e.get("ph").and_then(JsonValue::as_str) == Some("C"))
            .unwrap();
        assert_eq!(
            counter.get("args").unwrap().get("value").unwrap().as_f64(),
            Some(1.0)
        );
    }

    #[test]
    fn escaping_covers_quotes_backslashes_and_controls() {
        assert_eq!(json_escape("a\"b"), "a\\\"b");
        assert_eq!(json_escape("a\\b"), "a\\\\b");
        assert_eq!(json_escape("a\nb\tc"), "a\\nb\\tc");
        assert_eq!(json_escape("\u{0001}"), "\\u0001");
        assert_eq!(json_escape("plain"), "plain");
        // Round-trip through the parser.
        let doc = format!("\"{}\"", json_escape("tricky \"\\\n\t\u{0007} value"));
        assert_eq!(
            JsonValue::parse(&doc).unwrap().as_str(),
            Some("tricky \"\\\n\t\u{0007} value")
        );
    }

    #[test]
    fn empty_recorder_exports_empty_event_list() {
        let text = to_chrome_json(&MemoryRecorder::new());
        let v = JsonValue::parse(&text).unwrap();
        assert!(v.get("traceEvents").unwrap().as_array().unwrap().is_empty());
    }

    #[test]
    fn nonfinite_floats_become_null_or_zero() {
        let mut r = MemoryRecorder::new();
        r.span(Span {
            name: "s".into(),
            category: category::TASK,
            start_us: 0,
            end_us: 1,
            track: 0,
            attrs: vec![Attr::f64("bad", f64::NAN)],
        });
        r.counter("c", 0, 0, f64::INFINITY);
        let text = to_chrome_json(&r);
        let v = JsonValue::parse(&text).expect("nonfinite values must not break JSON");
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        let span = events
            .iter()
            .find(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X"))
            .unwrap();
        assert_eq!(span.get("args").unwrap().get("bad"), Some(&JsonValue::Null));
    }
}
