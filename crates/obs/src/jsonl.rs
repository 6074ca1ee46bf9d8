//! The versioned JSONL trace sink.
//!
//! One JSON object per line, hand-rolled (no serde). Line 1 is the
//! header carrying [`TRACE_SCHEMA`] plus the run's identity
//! ([`TraceMeta`]); every following line is one [`Event`] or one run of
//! silent rounds. Nothing in a trace depends on wall-clock time or
//! iteration order, so two runs of the same scenario produce
//! **byte-identical** files — `xtask tracediff` relies on this to name the
//! first divergent round instead of just failing a byte compare.
//!
//! ## Schema (`dcluster-trace/2`)
//!
//! ```text
//! {"schema":"dcluster-trace/2","scenario":…,"workload":…,"n":…,"resolver":…,"seed":…}
//! {"ev":"phase_start","phase":"clustering","round":0}
//! {"ev":"round","round":3,"tx":17,"rx":4,"cache":"rebuild"}
//! {"ev":"round","round":4,"tx":6,"rx":5}             // no field built
//! {"ev":"silent","from":5,"to":8}                    // rounds 5..=8: no transmitter
//! {"ev":"phase_end","phase":"clustering","round":9,"rounds":9,"tx":120,"rx":41}
//! {"ev":"epoch","epoch":0,"rounds":88,"re_elections":2,"violations":0}
//! ```
//!
//! A silent round is exactly `Event::Round { tx: 0, rx: 0, cache: None }`.
//! The sink holds at most one open run of them, `from..=to`: a silent
//! round numbered `to + 1` extends it, and any other event (an active
//! round, a phase or epoch event, a silent round that does not follow on,
//! as when each maintenance epoch's fresh engine restarts at round 0)
//! writes it first. [`JsonlSink::finish`] writes the open run, and so does
//! dropping the sink, so a run cut short by a panic still ends at its last
//! round. Runs are maximal, so the trace stays a function of the event
//! stream.
//!
//! A round whose field was patched from an earlier round's would end
//! `"cache":"patch","ins":…,"rem":…}`; no resolver in the workspace writes
//! that form.
//!
//! ## Schema `dcluster-trace/1`
//!
//! The previous schema wrote each silent round as its own
//! `{"ev":"round","round":r,"tx":0,"rx":0}` line; every other line, and the
//! header apart from its schema name, is the same in both. `xtask
//! tracediff` reads both, so a v1 and a v2 trace of the same run diff
//! identical.

use crate::{CacheOp, Event, Tracer};
use std::fs;
use std::io::{self, Write as _};
use std::path::Path;

/// The trace schema version written into every header line. Bump on any
/// change to line shapes or field meanings.
pub const TRACE_SCHEMA: &str = "dcluster-trace/2";

/// Capacity of the sink's file buffer.
const BUF_BYTES: usize = 64 * 1024;

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

/// Appends `v` in decimal.
fn push_u64(buf: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    buf.extend_from_slice(&digits[at..]);
}

/// Appends `s` as a quoted JSON string, with minimal escaping (quotes,
/// backslashes, control chars).
fn push_str(buf: &mut Vec<u8>, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    buf.push(b'"');
    for &b in s.as_bytes() {
        match b {
            b'"' => buf.extend_from_slice(b"\\\""),
            b'\\' => buf.extend_from_slice(b"\\\\"),
            b'\n' => buf.extend_from_slice(b"\\n"),
            b'\r' => buf.extend_from_slice(b"\\r"),
            b'\t' => buf.extend_from_slice(b"\\t"),
            b if b < 0x20 => {
                buf.extend_from_slice(b"\\u00");
                buf.push(HEX[usize::from(b >> 4)]);
                buf.push(HEX[usize::from(b & 0xf)]);
            }
            b => buf.push(b),
        }
    }
    buf.push(b'"');
}

/// Appends the header line for a trace (no trailing newline).
fn push_header(buf: &mut Vec<u8>, meta: &TraceMeta) {
    buf.extend_from_slice(b"{\"schema\":");
    push_str(buf, TRACE_SCHEMA);
    buf.extend_from_slice(b",\"scenario\":");
    push_str(buf, &meta.scenario);
    buf.extend_from_slice(b",\"workload\":");
    push_str(buf, &meta.workload);
    buf.extend_from_slice(b",\"n\":");
    push_u64(buf, meta.n as u64);
    buf.extend_from_slice(b",\"resolver\":");
    push_str(buf, &meta.resolver);
    buf.extend_from_slice(b",\"seed\":");
    push_u64(buf, meta.seed);
    buf.push(b'}');
}

/// Appends `,"key":v`.
fn push_field(buf: &mut Vec<u8>, key: &[u8], v: u64) {
    buf.extend_from_slice(b",\"");
    buf.extend_from_slice(key);
    buf.extend_from_slice(b"\":");
    push_u64(buf, v);
}

/// Appends one event as its JSONL line (no trailing newline).
fn push_event(buf: &mut Vec<u8>, ev: &Event) {
    match *ev {
        Event::PhaseStart { phase, round } => {
            buf.extend_from_slice(b"{\"ev\":\"phase_start\",\"phase\":");
            push_str(buf, phase);
            push_field(buf, b"round", round);
        }
        Event::PhaseEnd {
            phase,
            round,
            rounds,
            tx,
            rx,
        } => {
            buf.extend_from_slice(b"{\"ev\":\"phase_end\",\"phase\":");
            push_str(buf, phase);
            push_field(buf, b"round", round);
            push_field(buf, b"rounds", rounds);
            push_field(buf, b"tx", tx);
            push_field(buf, b"rx", rx);
        }
        Event::Round {
            round,
            tx,
            rx,
            cache,
        } => {
            buf.extend_from_slice(b"{\"ev\":\"round\",\"round\":");
            push_u64(buf, round);
            push_field(buf, b"tx", tx);
            push_field(buf, b"rx", rx);
            match cache {
                None => {}
                Some(CacheOp::Rebuilt) => buf.extend_from_slice(b",\"cache\":\"rebuild\""),
                Some(CacheOp::Patched { inserts, removals }) => {
                    buf.extend_from_slice(b",\"cache\":\"patch\"");
                    push_field(buf, b"ins", inserts as u64);
                    push_field(buf, b"rem", removals as u64);
                }
            }
        }
        Event::Epoch {
            epoch,
            rounds,
            re_elections,
            violations,
        } => {
            buf.extend_from_slice(b"{\"ev\":\"epoch\",\"epoch\":");
            push_u64(buf, epoch);
            push_field(buf, b"rounds", rounds);
            push_field(buf, b"re_elections", re_elections);
            push_field(buf, b"violations", violations);
        }
    }
    buf.push(b'}');
}

/// Appends the line for the silent rounds `from..=to` (no trailing
/// newline).
fn push_silent(buf: &mut Vec<u8>, from: u64, to: u64) {
    buf.extend_from_slice(b"{\"ev\":\"silent\",\"from\":");
    push_u64(buf, from);
    push_field(buf, b"to", to);
    buf.push(b'}');
}

/// A buffered JSONL file sink writing schema [`TRACE_SCHEMA`].
///
/// Creation writes the header eagerly, so an unwritable path fails at
/// [`JsonlSink::create`] — callers surface that as a diagnostic naming
/// the path, never a panic. Mid-stream I/O errors are latched and
/// surfaced by [`JsonlSink::finish`].
#[derive(Debug)]
pub struct JsonlSink {
    out: io::BufWriter<fs::File>,
    /// The line being rendered, reused for every line.
    line: Vec<u8>,
    /// The open run of silent rounds, `from..=to`.
    run: Option<(u64, u64)>,
    error: Option<io::Error>,
}

impl JsonlSink {
    /// Creates (truncating) the trace file and writes the header line.
    pub fn create(path: &Path, meta: &TraceMeta) -> io::Result<Self> {
        let file = fs::File::create(path)?;
        let mut out = io::BufWriter::with_capacity(BUF_BYTES, file);
        let mut line = Vec::with_capacity(128);
        push_header(&mut line, meta);
        line.push(b'\n');
        out.write_all(&line)?;
        Ok(Self {
            out,
            line,
            run: None,
            error: None,
        })
    }

    /// Writes the open run of silent rounds, then flushes the sink and
    /// surfaces the first I/O error hit while streaming events, if any.
    pub fn finish(&mut self) -> io::Result<()> {
        self.close_run();
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.out.flush()
    }

    /// Writes the open run of silent rounds, if any.
    fn close_run(&mut self) {
        if let Some((from, to)) = self.run.take() {
            self.line.clear();
            push_silent(&mut self.line, from, to);
            self.write_line();
        }
    }

    /// Writes the rendered line and a newline, latching the first error.
    fn write_line(&mut self) {
        if self.error.is_some() {
            return;
        }
        self.line.push(b'\n');
        if let Err(e) = self.out.write_all(&self.line) {
            self.error = Some(e);
        }
    }
}

impl Tracer for JsonlSink {
    fn on_event(&mut self, ev: &Event) {
        if let Event::Round {
            round,
            tx: 0,
            rx: 0,
            cache: None,
        } = *ev
        {
            match &mut self.run {
                Some((_, to)) if to.checked_add(1) == Some(round) => *to = round,
                _ => {
                    self.close_run();
                    self.run = Some((round, round));
                }
            }
            return;
        }
        self.close_run();
        self.line.clear();
        push_event(&mut self.line, ev);
        self.write_line();
    }
}

impl Drop for JsonlSink {
    /// Writes the open run (best effort; the `BufWriter` then flushes), so
    /// a trace whose run ended without [`JsonlSink::finish`] still covers
    /// its last round.
    fn drop(&mut self) {
        self.close_run();
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

    fn rendered(push: impl FnOnce(&mut Vec<u8>)) -> String {
        let mut buf = Vec::new();
        push(&mut buf);
        String::from_utf8(buf).expect("trace lines are UTF-8")
    }

    fn event_line(ev: &Event) -> String {
        rendered(|buf| push_event(buf, ev))
    }

    fn round(round: u64, tx: u64, rx: u64) -> Event {
        Event::Round {
            round,
            tx,
            rx,
            cache: None,
        }
    }

    /// A trace file path unique to one test.
    fn temp_trace(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("dcluster_obs_{tag}_{}.jsonl", std::process::id()))
    }

    /// The event lines (header dropped) a sink writes for `evs`, ended by
    /// `finish` or, with `finish == false`, by dropping the sink.
    fn sink_lines(tag: &str, evs: &[Event], finish: bool) -> Vec<String> {
        let path = temp_trace(tag);
        let mut sink = JsonlSink::create(&path, &meta()).unwrap();
        for ev in evs {
            sink.on_event(ev);
        }
        if finish {
            sink.finish().unwrap();
        }
        drop(sink);
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let mut lines = text.lines().map(String::from);
        let header = lines.next().expect("the header is written");
        assert_eq!(header, rendered(|buf| push_header(buf, &meta())));
        lines.collect()
    }

    fn silent(from: u64, to: u64) -> String {
        rendered(|buf| push_silent(buf, from, to))
    }

    #[test]
    fn header_carries_schema_and_identity() {
        let h = rendered(|buf| push_header(buf, &meta()));
        assert_eq!(
            h,
            "{\"schema\":\"dcluster-trace/2\",\"scenario\":\"t\",\"workload\":\"clustering\",\"n\":40,\"resolver\":\"grid\",\"seed\":9}"
        );
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
            event_line(&round(u64::MAX, 0, 10)),
            "{\"ev\":\"round\",\"round\":18446744073709551615,\"tx\":0,\"rx\":10}"
        );
        assert_eq!(
            event_line(&Event::PhaseStart {
                phase: "mis",
                round: 0
            }),
            "{\"ev\":\"phase_start\",\"phase\":\"mis\",\"round\":0}"
        );
        assert_eq!(
            event_line(&Event::PhaseEnd {
                phase: "mis",
                round: 9,
                rounds: 9,
                tx: 120,
                rx: 41
            }),
            "{\"ev\":\"phase_end\",\"phase\":\"mis\",\"round\":9,\"rounds\":9,\"tx\":120,\"rx\":41}"
        );
        assert_eq!(
            event_line(&Event::Epoch {
                epoch: 0,
                rounds: 88,
                re_elections: 2,
                violations: 0
            }),
            "{\"ev\":\"epoch\",\"epoch\":0,\"rounds\":88,\"re_elections\":2,\"violations\":0}"
        );
        assert_eq!(silent(5, 8), "{\"ev\":\"silent\",\"from\":5,\"to\":8}");
    }

    #[test]
    fn escaping_handles_quotes_and_controls() {
        assert_eq!(
            rendered(|buf| push_str(buf, "a\"b\\c\nd")),
            "\"a\\\"b\\\\c\\nd\""
        );
        assert_eq!(
            rendered(|buf| push_str(buf, "\u{1}\u{1f}")),
            "\"\\u0001\\u001f\""
        );
        assert_eq!(rendered(|buf| push_str(buf, "né")), "\"né\"");
    }

    #[test]
    fn silent_runs_end_at_every_other_event() {
        let phase_start = Event::PhaseStart {
            phase: "mis",
            round: 3,
        };
        let phase_end = Event::PhaseEnd {
            phase: "mis",
            round: 6,
            rounds: 3,
            tx: 1,
            rx: 0,
        };
        let epoch = Event::Epoch {
            epoch: 0,
            rounds: 9,
            re_elections: 0,
            violations: 0,
        };
        let rebuilt_silent = Event::Round {
            round: 9,
            tx: 0,
            rx: 0,
            cache: Some(CacheOp::Rebuilt),
        };
        let evs = [
            round(0, 0, 0),
            round(1, 0, 0),
            round(2, 2, 1),
            round(3, 0, 0),
            phase_start.clone(),
            round(4, 0, 0),
            round(5, 1, 0),
            phase_end.clone(),
            round(7, 0, 0),
            round(8, 0, 0),
            epoch.clone(),
            // A fresh engine restarts the round counter.
            round(0, 0, 0),
            round(1, 0, 0),
            round(0, 0, 0),
            round(2, 0, 0),
            round(3, 0, 0),
            // A field built in a silent round keeps its own line.
            rebuilt_silent.clone(),
            round(10, 0, 0),
        ];
        let want = vec![
            silent(0, 1),
            event_line(&round(2, 2, 1)),
            silent(3, 3),
            event_line(&phase_start),
            silent(4, 4),
            event_line(&round(5, 1, 0)),
            event_line(&phase_end),
            silent(7, 8),
            event_line(&epoch),
            silent(0, 1),
            silent(0, 0),
            silent(2, 3),
            event_line(&rebuilt_silent),
            silent(10, 10),
        ];
        assert_eq!(sink_lines("runs_finish", &evs, true), want);
        assert_eq!(
            sink_lines("runs_drop", &evs, false),
            want,
            "dropping the sink writes the trailing run too"
        );
    }

    #[test]
    fn a_silent_run_at_the_last_round_number_stays_one_line() {
        let evs = [
            round(u64::MAX - 1, 0, 0),
            round(u64::MAX, 0, 0),
            round(0, 0, 0),
        ];
        assert_eq!(
            sink_lines("runs_max", &evs, true),
            vec![silent(u64::MAX - 1, u64::MAX), silent(0, 0)]
        );
    }

    #[test]
    fn sink_writes_reread_byte_identically() {
        let path = temp_trace("rerun");
        let evs = [
            Event::PhaseStart {
                phase: "clustering",
                round: 0,
            },
            round(0, 3, 1),
            round(1, 0, 0),
            round(2, 0, 0),
            Event::PhaseEnd {
                phase: "clustering",
                round: 3,
                rounds: 3,
                tx: 3,
                rx: 1,
            },
        ];
        let write_once = || {
            let mut sink = JsonlSink::create(&path, &meta()).unwrap();
            for ev in &evs {
                sink.on_event(ev);
            }
            sink.finish().unwrap();
            std::fs::read(&path).unwrap()
        };
        let a = write_once();
        let b = write_once();
        assert_eq!(a, b, "reruns must be byte-identical");
        assert_eq!(a.iter().filter(|&&c| c == b'\n').count(), 5);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unwritable_path_fails_at_create() {
        let path = Path::new("/definitely/not/a/writable/dir/trace.jsonl");
        assert!(JsonlSink::create(path, &meta()).is_err());
    }
}
