//! The versioned JSONL trace sink.
//!
//! One JSON object per line, hand-rolled (no serde). Line 1 is the
//! header carrying [`TRACE_SCHEMA`] plus the run's identity
//! ([`TraceMeta`]); every following line is one [`Event`]. Nothing in a
//! trace depends on wall-clock time or iteration order, so two runs of
//! the same scenario produce **byte-identical** files — `xtask
//! tracediff` relies on this to name the first divergent round instead
//! of just failing a byte compare.
//!
//! ## Schema (`dcluster-trace/1`)
//!
//! ```text
//! {"schema":"dcluster-trace/1","scenario":…,"workload":…,"n":…,"resolver":…,"seed":…}
//! {"ev":"phase_start","phase":"clustering","round":0}
//! {"ev":"round","round":3,"tx":17,"rx":4,"cache":"rebuild"}
//! {"ev":"round","round":4,"tx":6,"rx":5}             // no field built
//! {"ev":"phase_end","phase":"clustering","round":9,"rounds":9,"tx":120,"rx":41}
//! {"ev":"epoch","epoch":0,"rounds":88,"re_elections":2,"violations":0}
//! ```
//!
//! A round whose field was patched from an earlier round's would end
//! `"cache":"patch","ins":…,"rem":…}`; no resolver in the workspace writes
//! that form.

use crate::{CacheOp, Event, Tracer};
use std::fmt::Write as _;
use std::fs;
use std::io::{self, Write as _};
use std::path::Path;

/// The trace schema version written into every header line. Bump on any
/// change to line shapes or field meanings.
pub const TRACE_SCHEMA: &str = "dcluster-trace/1";

/// Run identity recorded in the trace header.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceMeta {
    /// Scenario name.
    pub scenario: String,
    /// Workload name (`clustering`, `maintenance`, …).
    pub workload: String,
    /// Node count.
    pub n: usize,
    /// Resolver backend name.
    pub resolver: String,
    /// Deployment master seed.
    pub seed: u64,
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders the header line for a trace (no trailing newline).
pub fn header_line(meta: &TraceMeta) -> String {
    format!(
        "{{\"schema\":\"{}\",\"scenario\":\"{}\",\"workload\":\"{}\",\"n\":{},\"resolver\":\"{}\",\"seed\":{}}}",
        escape(TRACE_SCHEMA),
        escape(&meta.scenario),
        escape(&meta.workload),
        meta.n,
        escape(&meta.resolver),
        meta.seed
    )
}

/// Renders one event as its JSONL line (no trailing newline).
pub fn event_line(ev: &Event) -> String {
    match ev {
        Event::PhaseStart { phase, round } => {
            format!(
                "{{\"ev\":\"phase_start\",\"phase\":\"{}\",\"round\":{round}}}",
                escape(phase)
            )
        }
        Event::PhaseEnd {
            phase,
            round,
            rounds,
            tx,
            rx,
        } => format!(
            "{{\"ev\":\"phase_end\",\"phase\":\"{}\",\"round\":{round},\"rounds\":{rounds},\"tx\":{tx},\"rx\":{rx}}}",
            escape(phase)
        ),
        Event::Round {
            round,
            tx,
            rx,
            cache,
        } => {
            let mut line = format!("{{\"ev\":\"round\",\"round\":{round},\"tx\":{tx},\"rx\":{rx}");
            match cache {
                None => {}
                Some(CacheOp::Rebuilt) => line.push_str(",\"cache\":\"rebuild\""),
                Some(CacheOp::Patched { inserts, removals }) => {
                    let _ = write!(line, ",\"cache\":\"patch\",\"ins\":{inserts},\"rem\":{removals}");
                }
            }
            line.push('}');
            line
        }
        Event::Epoch {
            epoch,
            rounds,
            re_elections,
            violations,
        } => format!(
            "{{\"ev\":\"epoch\",\"epoch\":{epoch},\"rounds\":{rounds},\"re_elections\":{re_elections},\"violations\":{violations}}}"
        ),
    }
}

/// A buffered JSONL file sink.
///
/// Creation writes the header eagerly, so an unwritable path fails at
/// [`JsonlSink::create`] — callers surface that as a diagnostic naming
/// the path, never a panic. Mid-stream I/O errors are latched and
/// surfaced by [`JsonlSink::finish`].
#[derive(Debug)]
pub struct JsonlSink {
    out: io::BufWriter<fs::File>,
    error: Option<io::Error>,
    events: u64,
}

impl JsonlSink {
    /// Creates (truncating) the trace file and writes the header line.
    pub fn create(path: &Path, meta: &TraceMeta) -> io::Result<Self> {
        let file = fs::File::create(path)?;
        let mut out = io::BufWriter::new(file);
        out.write_all(header_line(meta).as_bytes())?;
        out.write_all(b"\n")?;
        Ok(Self {
            out,
            error: None,
            events: 0,
        })
    }

    /// Events written so far (header excluded).
    pub fn events_written(&self) -> u64 {
        self.events
    }

    /// Flushes the sink and surfaces the first I/O error hit while
    /// streaming events, if any.
    pub fn finish(&mut self) -> io::Result<()> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.out.flush()
    }
}

impl Tracer for JsonlSink {
    fn on_event(&mut self, ev: &Event) {
        if self.error.is_some() {
            return;
        }
        let line = event_line(ev);
        let res = self
            .out
            .write_all(line.as_bytes())
            .and_then(|()| self.out.write_all(b"\n"));
        match res {
            Ok(()) => self.events += 1,
            Err(e) => self.error = Some(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> TraceMeta {
        TraceMeta {
            scenario: "t".into(),
            workload: "clustering".into(),
            n: 40,
            resolver: "grid".into(),
            seed: 9,
        }
    }

    #[test]
    fn header_carries_schema_and_identity() {
        let h = header_line(&meta());
        assert!(h.starts_with("{\"schema\":\"dcluster-trace/1\""), "{h}");
        assert!(h.contains("\"scenario\":\"t\""));
        assert!(h.contains("\"seed\":9"));
    }

    #[test]
    fn event_lines_are_stable() {
        assert_eq!(
            event_line(&Event::Round {
                round: 3,
                tx: 17,
                rx: 4,
                cache: Some(CacheOp::Patched {
                    inserts: 2,
                    removals: 1
                })
            }),
            "{\"ev\":\"round\",\"round\":3,\"tx\":17,\"rx\":4,\"cache\":\"patch\",\"ins\":2,\"rem\":1}"
        );
        assert_eq!(
            event_line(&Event::Round {
                round: 4,
                tx: 16,
                rx: 5,
                cache: Some(CacheOp::Rebuilt)
            }),
            "{\"ev\":\"round\",\"round\":4,\"tx\":16,\"rx\":5,\"cache\":\"rebuild\"}"
        );
        assert_eq!(
            event_line(&Event::PhaseStart {
                phase: "mis",
                round: 0
            }),
            "{\"ev\":\"phase_start\",\"phase\":\"mis\",\"round\":0}"
        );
    }

    #[test]
    fn escaping_handles_quotes_and_controls() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn sink_writes_reread_byte_identically() {
        let path = std::env::temp_dir().join("dcluster_obs_sink_test.jsonl");
        let evs = [
            Event::PhaseStart {
                phase: "clustering",
                round: 0,
            },
            Event::Round {
                round: 0,
                tx: 3,
                rx: 1,
                cache: None,
            },
            Event::PhaseEnd {
                phase: "clustering",
                round: 1,
                rounds: 1,
                tx: 3,
                rx: 1,
            },
        ];
        let write_once = || {
            let mut sink = JsonlSink::create(&path, &meta()).unwrap();
            for ev in &evs {
                sink.on_event(ev);
            }
            assert_eq!(sink.events_written(), 3);
            sink.finish().unwrap();
            std::fs::read(&path).unwrap()
        };
        let a = write_once();
        let b = write_once();
        assert_eq!(a, b, "reruns must be byte-identical");
        assert_eq!(a.iter().filter(|&&c| c == b'\n').count(), 4);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unwritable_path_fails_at_create() {
        let path = Path::new("/definitely/not/a/writable/dir/trace.jsonl");
        assert!(JsonlSink::create(path, &meta()).is_err());
    }
}
