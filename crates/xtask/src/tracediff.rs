//! `cargo run -p xtask -- tracediff A B` — structural diff of two JSONL
//! traces (see `crates/obs`), each of schema `dcluster-trace/1` or
//! `dcluster-trace/2`.
//!
//! Traces are deterministic, so two runs of the same scenario must trace
//! the same events; when they do not, a plain byte compare only says
//! "different". This diff names the **first divergent event** — its
//! round and its line in each file — which is where a determinism hunt
//! starts. Header (metadata) mismatches are reported too, but an
//! event-level divergence wins the headline: diffing two different seeds
//! should say "round 0 differs", not "the seed field differs".
//!
//! Both schemas write the same per-round event stream. v1 writes each
//! silent round as `{"ev":"round","round":r,"tx":0,"rx":0}`; v2 writes a
//! run of them as one `{"ev":"silent","from":a,"to":b}` line, and every
//! other line as v1 does. The diff reads either form as silent rounds and
//! compares runs by arithmetic, so a v1 and a v2 trace of the same run
//! diff identical, in time linear in the file sizes whatever the bounds
//! say. Every other line is compared byte for byte, and headers on the
//! run identity that follows the schema name.

use crate::json::{parse, Value};

/// The header prefix before the schema version.
const SCHEMA_PREFIX: &str = "{\"schema\":\"dcluster-trace/";

/// The v2 line prefix of a run of silent rounds.
const SILENT_PREFIX: &str = "{\"ev\":\"silent\",\"from\":";

/// The v1 line of one silent round is `ROUND_PREFIX`, its number, then
/// `SILENT_ROUND_SUFFIX`.
const ROUND_PREFIX: &str = "{\"ev\":\"round\",\"round\":";
const SILENT_ROUND_SUFFIX: &str = ",\"tx\":0,\"rx\":0}";

/// Longest line prefix a divergence message quotes.
const QUOTE: usize = 120;

/// What [`diff_traces`] found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiffOutcome {
    /// Both traces carry the same run identity and the same events.
    Identical {
        /// Lines in A and in B (headers included).
        lines: [usize; 2],
        /// Rounds both traces cover.
        rounds: u64,
    },
    /// The traces differ.
    Divergent {
        /// The 1-based line in A and in B where they first differ (an
        /// ended trace points one past its last line).
        lines: [usize; 2],
        /// The first round the divergent lines disagree on, when either
        /// names one.
        round: Option<u64>,
        /// Human-readable description of both sides at that point.
        detail: String,
    },
}

/// One unit of a trace's per-round event stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Item<'a> {
    /// The silent rounds `from..=to`.
    Silent { from: u64, to: u64 },
    /// Any other line, compared byte for byte.
    Line(&'a str),
    /// A `silent` line whose bounds are not integers or are reversed.
    Malformed(&'a str),
}

/// A canonical decimal `u64`: digits only, no leading zero.
fn uint(s: &str) -> Option<u64> {
    let canonical = s.bytes().all(|b| b.is_ascii_digit()) && (s == "0" || !s.starts_with('0'));
    canonical.then(|| s.parse().ok()).flatten()
}

fn read_item(line: &str) -> Item<'_> {
    if let Some(rest) = line.strip_prefix(SILENT_PREFIX) {
        let bounds = rest
            .strip_suffix('}')
            .and_then(|r| r.split_once(",\"to\":"))
            .and_then(|(from, to)| Some((uint(from)?, uint(to)?)));
        return match bounds {
            Some((from, to)) if from <= to => Item::Silent { from, to },
            _ => Item::Malformed(line),
        };
    }
    let silent_round = line
        .strip_prefix(ROUND_PREFIX)
        .and_then(|r| r.strip_suffix(SILENT_ROUND_SUFFIX))
        .and_then(uint);
    match silent_round {
        Some(r) => Item::Silent { from: r, to: r },
        None => Item::Line(line),
    }
}

/// The run identity a header carries after its schema name, if the
/// header names a schema this diff reads.
fn identity(header: &str) -> Option<&str> {
    let rest = header.strip_prefix(SCHEMA_PREFIX)?;
    rest.strip_prefix("1\",")
        .or_else(|| rest.strip_prefix("2\","))
}

/// `line`, quoted and cut to [`QUOTE`] characters.
fn quote(line: &str) -> String {
    match line.char_indices().nth(QUOTE) {
        Some((cut, _)) => format!("`{}…`", &line[..cut]),
        None => format!("`{line}`"),
    }
}

/// The round an event line names, if it parses and has one.
fn round_of(line: &str) -> Option<u64> {
    let r = parse(line).ok()?.get("round").and_then(Value::as_f64)?;
    (r >= 0.0 && r.fract() == 0.0 && r < u64::MAX as f64).then_some(r as u64)
}

impl Item<'_> {
    fn round(&self) -> Option<u64> {
        match *self {
            Item::Silent { from, .. } => Some(from),
            Item::Line(line) => round_of(line),
            Item::Malformed(_) => None,
        }
    }

    fn describe(&self) -> String {
        match *self {
            Item::Silent { from, to } if from == to => format!("silent round {from}"),
            Item::Silent { from, to } => format!("silent rounds {from}..={to}"),
            Item::Line(line) => quote(line),
            Item::Malformed(line) => format!("a malformed silent line {}", quote(line)),
        }
    }
}

/// A reading position in one trace.
struct Cursor<'a> {
    lines: std::str::Lines<'a>,
    /// The 1-based line `item` came from.
    line: usize,
    /// What is left of that line; `None` once the trace has ended.
    item: Option<Item<'a>>,
}

impl<'a> Cursor<'a> {
    /// Splits off the header; the cursor sits on the first event line.
    fn new(text: &'a str) -> (Option<&'a str>, Self) {
        let mut lines = text.lines();
        let header = lines.next();
        let mut cursor = Self {
            lines,
            line: 1,
            item: None,
        };
        cursor.advance();
        (header, cursor)
    }

    fn advance(&mut self) {
        self.line += 1;
        self.item = self.lines.next().map(read_item);
    }

    /// Consumes the current silent rounds up to and including `to`.
    fn consume_through(&mut self, to: u64) {
        match self.item {
            // `to < end`, so `to + 1` cannot overflow.
            Some(Item::Silent { to: end, .. }) if to < end => {
                self.item = Some(Item::Silent {
                    from: to + 1,
                    to: end,
                });
            }
            _ => self.advance(),
        }
    }

    /// What this side has at the divergence, as "A has …".
    fn describe(&self, side: &str) -> String {
        match &self.item {
            Some(item) => format!("{side} has {}", item.describe()),
            None => format!("{side} ends after {} line(s)", self.line - 1),
        }
    }
}

/// Diffs two trace texts. Pure: callers do the file I/O (and surface
/// read failures as operational errors, exit 2 in the CLI).
pub fn diff_traces(a_text: &str, b_text: &str) -> DiffOutcome {
    let (header_a, mut a) = Cursor::new(a_text);
    let (header_b, mut b) = Cursor::new(b_text);
    for (side, header) in [("A", header_a), ("B", header_b)] {
        if header.and_then(identity).is_none() {
            let detail = match header {
                Some(h) => format!("{side} has an unknown schema: {}", quote(h)),
                None => format!("{side} is empty"),
            };
            return DiffOutcome::Divergent {
                lines: [1, 1],
                round: None,
                detail,
            };
        }
    }
    let (header_a, header_b) = (header_a.unwrap_or_default(), header_b.unwrap_or_default());
    let headers_differ = identity(header_a) != identity(header_b);
    let mut rounds = 0u64;
    loop {
        match (a.item, b.item) {
            (None, None) => break,
            (Some(Item::Silent { from, to: ta }), Some(Item::Silent { from: fb, to: tb }))
                if from == fb =>
            {
                let to = ta.min(tb);
                rounds = rounds.saturating_add((to - from).saturating_add(1));
                a.consume_through(to);
                b.consume_through(to);
            }
            (Some(Item::Line(x)), Some(Item::Line(y))) if x == y => {
                if x.starts_with(ROUND_PREFIX) {
                    rounds = rounds.saturating_add(1);
                }
                a.advance();
                b.advance();
            }
            (x, y) => {
                let round = [x, y].into_iter().flatten().filter_map(|i| i.round()).min();
                let note = if headers_differ {
                    " (headers differ too)"
                } else {
                    ""
                };
                return DiffOutcome::Divergent {
                    lines: [a.line, b.line],
                    round,
                    detail: format!("{}, {}{note}", a.describe("A"), b.describe("B")),
                };
            }
        }
    }
    if headers_differ {
        return DiffOutcome::Divergent {
            lines: [1, 1],
            round: None,
            detail: format!(
                "headers differ: A has {}, B has {}",
                quote(header_a),
                quote(header_b)
            ),
        };
    }
    DiffOutcome::Identical {
        lines: [a.line - 1, b.line - 1],
        rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HDR: &str =
        "{\"schema\":\"dcluster-trace/1\",\"scenario\":\"t\",\"workload\":\"clustering\",\"n\":5,\"resolver\":\"grid\",\"seed\":1}";

    fn v2(text: &str) -> String {
        text.replacen("dcluster-trace/1", "dcluster-trace/2", 1)
    }

    fn round_line(r: u64, tx: u64, rx: u64) -> String {
        format!("{{\"ev\":\"round\",\"round\":{r},\"tx\":{tx},\"rx\":{rx}}}")
    }

    fn silent(from: impl std::fmt::Display, to: impl std::fmt::Display) -> String {
        format!("{{\"ev\":\"silent\",\"from\":{from},\"to\":{to}}}")
    }

    fn trace(header: &str, lines: &[String]) -> String {
        let mut text = format!("{header}\n");
        for line in lines {
            text.push_str(line);
            text.push('\n');
        }
        text
    }

    fn divergence(outcome: DiffOutcome) -> ([usize; 2], Option<u64>, String) {
        match outcome {
            DiffOutcome::Divergent {
                lines,
                round,
                detail,
            } => (lines, round, detail),
            other => panic!("must diverge, got {other:?}"),
        }
    }

    #[test]
    fn identical_traces_match() {
        let t = trace(HDR, &[round_line(0, 1, 0)]);
        assert_eq!(
            diff_traces(&t, &t),
            DiffOutcome::Identical {
                lines: [2, 2],
                rounds: 1
            }
        );
    }

    #[test]
    fn v1_and_v2_of_the_same_events_diff_identical() {
        let phase = "{\"ev\":\"phase_start\",\"phase\":\"mis\",\"round\":0}".to_string();
        let epoch =
            "{\"ev\":\"epoch\",\"epoch\":0,\"rounds\":6,\"re_elections\":0,\"violations\":0}";
        let rebuilt = "{\"ev\":\"round\",\"round\":5,\"tx\":0,\"rx\":0,\"cache\":\"rebuild\"}";
        let v1 = trace(
            HDR,
            &[
                phase.clone(),
                round_line(0, 0, 0),
                round_line(1, 0, 0),
                round_line(2, 0, 0),
                round_line(3, 2, 1),
                round_line(4, 0, 0),
                rebuilt.into(),
                epoch.into(),
                round_line(0, 0, 0),
                round_line(1, 0, 0),
            ],
        );
        let v2 = trace(
            &v2(HDR),
            &[
                phase,
                silent(0, 2),
                round_line(3, 2, 1),
                silent(4, 4),
                rebuilt.into(),
                epoch.into(),
                silent(0, 1),
            ],
        );
        for (a, b, lines) in [(&v1, &v2, [11, 8]), (&v2, &v1, [8, 11]), (&v2, &v2, [8, 8])] {
            assert_eq!(
                diff_traces(a, b),
                DiffOutcome::Identical { lines, rounds: 8 }
            );
        }
    }

    #[test]
    fn first_divergent_round_is_named() {
        let a = trace(HDR, &[round_line(0, 1, 0), round_line(1, 2, 1)]);
        let b = trace(HDR, &[round_line(0, 1, 0), round_line(1, 3, 1)]);
        let (lines, round, detail) = divergence(diff_traces(&a, &b));
        assert_eq!((lines, round), ([3, 3], Some(1)));
        assert!(
            detail.contains("\"tx\":2") && detail.contains("\"tx\":3"),
            "{detail}"
        );
    }

    #[test]
    fn a_shorter_run_names_the_first_round_it_no_longer_covers() {
        let a = trace(&v2(HDR), &[silent(0, 9), round_line(10, 1, 1)]);
        let b = trace(&v2(HDR), &[silent(0, 8), round_line(10, 1, 1)]);
        let (lines, round, detail) = divergence(diff_traces(&a, &b));
        assert_eq!((lines, round), ([2, 3], Some(9)));
        assert!(
            detail.starts_with("A has silent round 9, B has `{"),
            "{detail}"
        );
        // The same against the v1 form, and with the run at the end.
        let v1: Vec<String> = (0..10).map(|r| round_line(r, 0, 0)).collect();
        let (lines, round, detail) = divergence(diff_traces(
            &trace(HDR, &v1),
            &trace(&v2(HDR), &[silent(0, 8)]),
        ));
        assert_eq!((lines, round), ([11, 3], Some(9)));
        assert_eq!(detail, "A has silent round 9, B ends after 2 line(s)");
    }

    #[test]
    fn event_divergence_beats_the_header() {
        let a = trace(HDR, &[round_line(0, 1, 0)]);
        let b = a
            .replace("\"seed\":1", "\"seed\":2")
            .replace("\"tx\":1", "\"tx\":9");
        let (lines, round, detail) = divergence(diff_traces(&a, &b));
        assert_eq!((lines, round), ([2, 2], Some(0)), "event line wins");
        assert!(detail.contains("headers differ too"), "detail: {detail}");
    }

    #[test]
    fn header_only_divergence_still_fails() {
        let a = format!("{HDR}\n");
        let b = a.replace("\"seed\":1", "\"seed\":2");
        let (lines, round, detail) = divergence(diff_traces(&a, &b));
        assert_eq!((lines, round), ([1, 1], None));
        assert!(detail.starts_with("headers differ"), "{detail}");
    }

    #[test]
    fn truncation_is_a_divergence() {
        let a = trace(HDR, &[round_line(0, 1, 0)]);
        let b = format!("{HDR}\n");
        let (lines, _, detail) = divergence(diff_traces(&a, &b));
        assert_eq!(lines, [2, 2]);
        assert!(
            detail.contains("B ends after 1 line(s)"),
            "detail: {detail}"
        );
    }

    #[test]
    fn unknown_schemas_and_malformed_runs_diverge() {
        let known = trace(HDR, &[round_line(0, 1, 0)]);
        for unknown in [
            known.replace("trace/1", "trace/3"),
            known.replace("trace/1", "trace/12"),
            String::new(),
        ] {
            for (a, b) in [(&known, &unknown), (&unknown, &known), (&unknown, &unknown)] {
                let (lines, round, _) = divergence(diff_traces(a, b));
                assert_eq!((lines, round), ([1, 1], None));
            }
        }
        for bad in [
            silent(5, 4),
            silent(-1, 4),
            silent(0.5, 4),
            silent("\"0\"", 4),
            silent(0, "1e18"),
            silent(0, "18446744073709551616"),
            silent("00", 4),
        ] {
            let t = trace(&v2(HDR), &[bad]);
            let (lines, round, detail) = divergence(diff_traces(&t, &t));
            assert_eq!((lines, round), ([2, 2], None));
            assert!(detail.contains("malformed silent line"), "{detail}");
        }
    }

    #[test]
    fn huge_runs_compare_by_arithmetic() {
        let a = trace(&v2(HDR), &[silent(0, 1_000_000_000_000_000_000u64)]);
        let b = trace(HDR, &[round_line(0, 0, 0)]);
        let (lines, round, detail) = divergence(diff_traces(&a, &b));
        assert_eq!((lines, round), ([2, 3], Some(1)));
        assert!(
            detail.contains("silent rounds 1..=1000000000000000000"),
            "{detail}"
        );
        let all = trace(&v2(HDR), &[silent(0, u64::MAX)]);
        assert_eq!(
            diff_traces(&all, &all),
            DiffOutcome::Identical {
                lines: [2, 2],
                rounds: u64::MAX
            }
        );
    }

    #[test]
    fn deep_nesting_is_a_divergence_not_an_abort() {
        let a = trace(HDR, &[round_line(0, 1, 0)]);
        let b = trace(HDR, &["[".repeat(200_000)]);
        let (lines, round, detail) = divergence(diff_traces(&a, &b));
        assert_eq!((lines, round), ([2, 2], Some(0)));
        assert!(detail.contains("B has `[[["), "{detail}");
    }
}
