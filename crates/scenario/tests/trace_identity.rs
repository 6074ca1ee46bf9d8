//! Trace-identity gates over the committed `scenarios/*.scn` specs:
//! attaching a `--trace` sink must not change the rendered `Report` by a
//! single byte (tracing is observation, never participation), and
//! rerunning the same traced spec must reproduce the JSONL trace
//! byte-for-byte — the same two contracts the `scenario_smoke` CI gate
//! enforces. The trace must also be complete: the rounds it covers and
//! the transmissions and receptions its `round` lines carry add up to
//! the Report's totals.
//!
//! Debug builds sweep the CI-sized specs (the million-round broadcast
//! scenarios take minutes each unoptimized — same scoping as
//! `runner_determinism`); release builds sweep the whole committed
//! library, and the CI workflow runs this test under `--release` so
//! every committed spec is gated.

use dcluster_scenario::Runner;
use std::fs;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};

fn committed_scenarios() -> Vec<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)
        .expect("scenarios/ directory exists")
        .filter_map(|e| {
            let path = e.expect("readable dir entry").path();
            path.extension().is_some_and(|x| x == "scn").then_some(path)
        })
        .collect();
    paths.sort();
    assert!(
        paths.len() >= 10,
        "the starter scenario library is committed"
    );
    if cfg!(debug_assertions) {
        paths.retain(|p| {
            p.file_stem()
                .and_then(|s| s.to_str())
                .is_some_and(|s| s.starts_with("ci_"))
        });
        assert!(!paths.is_empty(), "the ci_*.scn smoke specs are committed");
    }
    paths
}

/// Longest line prefix a mismatch message quotes.
const QUOTE: usize = 200;

/// Compares two trace files byte for byte, one line at a time through
/// buffered readers (a trace can run to hundreds of MB). Returns the line
/// count, or the first difference: its 1-based line number and both lines
/// (truncated), or which file ends first.
fn compare_traces(a: &Path, b: &Path) -> Result<u64, String> {
    let open = |p: &Path| {
        fs::File::open(p)
            .map(BufReader::new)
            .map_err(|e| format!("{}: {e}", p.display()))
    };
    let (mut ra, mut rb) = (open(a)?, open(b)?);
    let (mut la, mut lb) = (Vec::new(), Vec::new());
    let quote = |l: &[u8]| String::from_utf8_lossy(&l[..l.len().min(QUOTE)]).into_owned();
    let mut line = 0u64;
    loop {
        line += 1;
        la.clear();
        lb.clear();
        let na = ra.read_until(b'\n', &mut la).map_err(|e| e.to_string())?;
        let nb = rb.read_until(b'\n', &mut lb).map_err(|e| e.to_string())?;
        match (na, nb) {
            (0, 0) => return Ok(line - 1),
            (0, _) => return Err(format!("line {line}: A ended, B has {:?}", quote(&lb))),
            (_, 0) => return Err(format!("line {line}: B ended, A has {:?}", quote(&la))),
            _ if la != lb => {
                return Err(format!(
                    "line {line} differs:\n  A: {:?}\n  B: {:?}",
                    quote(&la),
                    quote(&lb)
                ))
            }
            _ => {}
        }
    }
}

/// The value of `"key":<digits>` in a trace line. Trace lines are
/// canonical (no whitespace, integers in plain decimal), so a search for
/// the key reads them.
fn field(line: &str, key: &str) -> Option<u64> {
    let at = line.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits = line[at..].split(|c: char| !c.is_ascii_digit()).next()?;
    digits.parse().ok()
}

/// What a trace covers, as `[rounds, transmissions, receptions]`: one
/// round per `round` line plus `to - from + 1` per `silent` line, and the
/// `tx` and `rx` sums over `round` lines.
fn trace_totals(path: &Path) -> Result<[u64; 3], String> {
    let file = fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut totals = [0u64; 3];
    for (i, line) in BufReader::new(file).lines().enumerate().skip(1) {
        let line = line.map_err(|e| e.to_string())?;
        let bad = || format!("line {}: unreadable {line:?}", i + 1);
        if line.starts_with("{\"ev\":\"round\",") {
            totals[0] += 1;
            totals[1] += field(&line, "tx").ok_or_else(bad)?;
            totals[2] += field(&line, "rx").ok_or_else(bad)?;
        } else if line.starts_with("{\"ev\":\"silent\",") {
            let (from, to) = field(&line, "from")
                .zip(field(&line, "to"))
                .ok_or_else(bad)?;
            totals[0] += to.checked_sub(from).ok_or_else(bad)? + 1;
        }
    }
    Ok(totals)
}

#[test]
fn trace_totals_count_rounds_and_round_lines() {
    let path = std::env::temp_dir().join(format!("trace_totals_{}.jsonl", std::process::id()));
    let text = "{\"schema\":\"dcluster-trace/2\",\"scenario\":\"t\",\"n\":3}\n\
        {\"ev\":\"phase_start\",\"phase\":\"mis\",\"round\":0}\n\
        {\"ev\":\"silent\",\"from\":0,\"to\":4}\n\
        {\"ev\":\"round\",\"round\":5,\"tx\":12,\"rx\":30,\"cache\":\"rebuild\"}\n\
        {\"ev\":\"round\",\"round\":6,\"tx\":1,\"rx\":2}\n\
        {\"ev\":\"phase_end\",\"phase\":\"mis\",\"round\":7,\"rounds\":7,\"tx\":13,\"rx\":32}\n\
        {\"ev\":\"silent\",\"from\":0,\"to\":0}\n";
    fs::write(&path, text).expect("temporary file is writable");
    assert_eq!(trace_totals(&path), Ok([8, 13, 32]));
    fs::write(&path, text.replace("\"to\":4", "\"to\":x")).expect("temporary file is writable");
    assert!(trace_totals(&path).unwrap_err().starts_with("line 3"));
    let _ = fs::remove_file(&path);
}

#[test]
fn trace_comparison_names_the_first_difference() {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let write = |tag: &str, text: &str| {
        let p = dir.join(format!("trace_compare_{pid}_{tag}.jsonl"));
        fs::write(&p, text).expect("temporary file is writable");
        p
    };
    let base = write("base", "a\nb\nc\n");
    let same = write("same", "a\nb\nc\n");
    let other = write("other", "a\nB\nc\n");
    let longer = write("longer", "a\nb\nc\nd\n");
    let unterminated = write("unterminated", "a\nb\nc");
    assert_eq!(compare_traces(&base, &same), Ok(3));
    let err = compare_traces(&base, &other).unwrap_err();
    assert!(
        err.starts_with("line 2 differs") && err.contains("\"B\\n\""),
        "{err}"
    );
    let err = compare_traces(&base, &longer).unwrap_err();
    assert!(err.starts_with("line 4: A ended"), "{err}");
    let err = compare_traces(&longer, &base).unwrap_err();
    assert!(err.starts_with("line 4: B ended"), "{err}");
    let err = compare_traces(&base, &unterminated).unwrap_err();
    assert!(err.starts_with("line 3 differs"), "{err}");
    for p in [base, same, other, longer, unterminated] {
        let _ = fs::remove_file(p);
    }
}

#[test]
fn tracing_is_invisible_and_traces_rerun_byte_identical() {
    let pid = std::process::id();
    for path in committed_scenarios() {
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .expect("utf-8 spec name")
            .to_string();
        let runner = Runner::from_file(&path).expect("committed spec parses");

        let plain = runner.run_default().expect("committed spec runs");

        let trace_a = std::env::temp_dir().join(format!("trace_identity_{pid}_{name}_a.jsonl"));
        let trace_b = std::env::temp_dir().join(format!("trace_identity_{pid}_{name}_b.jsonl"));
        let traced = runner
            .clone()
            .with_trace(Some(trace_a.clone()))
            .run_default()
            .expect("traced run succeeds");
        assert_eq!(plain, traced, "{name}: tracing changed the report");
        assert_eq!(
            plain.to_markdown(),
            traced.to_markdown(),
            "{name}: tracing changed the rendering"
        );
        assert!(
            !traced.phases.is_empty(),
            "{name}: every scenario run records phase spans"
        );
        assert_eq!(
            trace_totals(&trace_a),
            Ok([traced.rounds, traced.transmissions, traced.receptions]),
            "{name}: the trace's rounds, tx and rx must add up to the Report's"
        );

        let traced_again = runner
            .clone()
            .with_trace(Some(trace_b.clone()))
            .run_default()
            .expect("traced rerun succeeds");
        assert_eq!(traced, traced_again, "{name}: traced reruns differ");

        match compare_traces(&trace_a, &trace_b) {
            Ok(lines) => assert!(lines > 0, "{name}: trace must not be empty"),
            Err(e) => panic!("{name}: trace reruns are not byte-identical: {e}"),
        }

        let _ = fs::remove_file(&trace_a);
        let _ = fs::remove_file(&trace_b);
    }
}
