//! The compile trace, rendered from the plan.
//!
//! A [`PreparedQuery`] keeps what its compile did: the query's byte
//! length, its fired [`RewriteNote`](crate::RewriteNote)s, its
//! effective hints, its global, function and frame counts, and the
//! nanoseconds from the compile's start to parse-done and to plan-done.
//! [`PreparedQuery::trace_json`] renders these as the compile trace
//! (`parse`, one `rewrite-fired` per note, `compile`) that the flight
//! recorder and the CLI's `--diag-json` carry.
//!
//! Everything here is std-only; JSON is written by hand.

use crate::PreparedQuery;
use std::fmt::Write;

/// Escape `s` for the inside of a JSON string literal: the one escaper
/// behind every JSON document the engine, the service and the CLI
/// write by hand.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

impl PreparedQuery {
    /// The compile trace as a JSON array, one event per line:
    /// `{ts_ns, query_id, phase, detail}` for `parse`, for each
    /// `rewrite-fired` note in firing order, and for `compile`.
    /// `ts_ns` counts from the compile's start; `query_id` is the
    /// caller's (the server's request counter, 1 in the CLI).
    pub fn trace_json(&self, query_id: u64) -> String {
        let mut out = String::from("[\n");
        let mut event = |ts_ns: u64, phase: &str, detail: &str, last: bool| {
            let _ = writeln!(
                out,
                "  {{\"ts_ns\":{ts_ns},\"query_id\":{query_id},\"phase\":\"{phase}\",\
                 \"detail\":\"{}\"}}{}",
                json_escape(detail),
                if last { "" } else { "," }
            );
        };
        event(
            self.parse_ns,
            "parse",
            &format!("parsed {} byte(s) of query text", self.source_len),
            false,
        );
        for note in &self.rewrites {
            let detail = format!("{}: {}", note.kind.as_str(), note.detail);
            event(self.plan_ns, "rewrite-fired", &detail, false);
        }
        let compiled = &self.compiled;
        event(
            self.plan_ns,
            "compile",
            &format!(
                "compiled: {} global(s), {} function(s), frame size {}, streaming pipeline, \
                 hints [{}]",
                compiled.globals.len(),
                compiled.functions.len(),
                compiled.frame_size,
                self.hints,
            ),
            true,
        );
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;

    #[test]
    fn events_are_stamped_and_ordered() {
        let plan = Engine::new().compile("for $v in //item return $v").unwrap();
        let json = plan.trace_json(7);
        let phases: Vec<&str> = json
            .lines()
            .filter_map(|l| l.split("\"phase\":\"").nth(1))
            .map(|rest| &rest[..rest.find('"').unwrap()])
            .collect();
        // Path fusion, then the index scan.
        assert_eq!(
            phases,
            ["parse", "rewrite-fired", "rewrite-fired", "compile"]
        );
        assert_eq!(json.matches("\"query_id\":7,").count(), 4);
        assert!(plan.parse_ns <= plan.plan_ns);
    }

    #[test]
    fn json_escapes_details() {
        assert_eq!(
            json_escape("say \"hi\"\nagain\\"),
            "say \\\"hi\\\"\\nagain\\\\"
        );
        assert_eq!(json_escape("\u{1}\t\r"), "\\u0001\\t\\r");
    }

    #[test]
    fn renders_json_array() {
        let json = Engine::new().compile("1").unwrap().trace_json(1);
        assert!(json.starts_with("[\n  {"));
        assert!(json.ends_with("}\n]"));
        assert_eq!(json.matches("\"phase\"").count(), 2);
        assert_eq!(json.matches("},\n").count(), 1);
    }
}
