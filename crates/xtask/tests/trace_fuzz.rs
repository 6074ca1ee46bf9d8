//! Byte-mutation fuzzing of the trace reader. Sample `dcluster-trace/2`
//! lines, one of each shape the JSONL sink writes, with bytes replaced,
//! inserted and deleted, must make `json::parse` return `Ok` or `Err` and
//! `tracediff::diff_traces` return an outcome, never panic. The generator
//! is seeded, so a failure names an input that reproduces.

use std::panic::{catch_unwind, AssertUnwindSafe};
use xtask::json;
use xtask::tracediff::{diff_traces, DiffOutcome};

/// One line of each shape in a maintenance run's trace.
const SAMPLE: [&str; 7] = [
    r#"{"schema":"dcluster-trace/2","scenario":"ci-maintenance","workload":"maintenance","n":60,"resolver":"aggregated","seed":857536}"#,
    r#"{"ev":"phase_start","phase":"clustering","round":0}"#,
    r#"{"ev":"round","round":0,"tx":12,"rx":14,"cache":"rebuild"}"#,
    r#"{"ev":"round","round":2,"tx":5,"rx":14}"#,
    r#"{"ev":"silent","from":3,"to":1403}"#,
    r#"{"ev":"phase_end","phase":"proximity","round":1404,"rounds":1404,"tx":15132,"rx":24162}"#,
    r#"{"ev":"epoch","epoch":0,"rounds":448918,"re_elections":0,"violations":3}"#,
];

/// Mutated lines in all.
const MUTATIONS: usize = 20_000;

/// Half of the mutated bytes come from here: JSON's structural bytes,
/// digits and number characters.
const JSON_BYTES: &[u8] = b"{}[]\":,0123456789-+.eE \\\n\rtfnul";

/// SplitMix64: a seeded generator without dependencies.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Applies one to four random byte edits to `bytes`: replace, insert or
/// delete.
fn mutate(bytes: &mut Vec<u8>, gen: &mut Gen) {
    for _ in 0..1 + gen.below(4) {
        let byte = if gen.below(2) == 0 {
            JSON_BYTES[gen.below(JSON_BYTES.len())]
        } else {
            gen.next() as u8
        };
        let at = gen.below(bytes.len() + 1);
        match gen.below(3) {
            0 if at < bytes.len() => bytes[at] = byte,
            2 if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => bytes.insert(at, byte),
        }
    }
}

/// `line` with a v1 header's schema read as v2: the two schemas share
/// every header field.
fn as_v2(line: &str) -> std::borrow::Cow<'_, str> {
    match line.strip_prefix(r#"{"schema":"dcluster-trace/1","#) {
        Some(rest) => format!(r#"{{"schema":"dcluster-trace/2",{rest}"#).into(),
        None => line.into(),
    }
}

#[test]
fn mutated_trace_lines_never_panic_the_reader() {
    let original = SAMPLE.join("\n") + "\n";
    for line in SAMPLE {
        assert!(json::parse(line).is_ok(), "a sample line parses: {line}");
    }
    let as_v1 = original.replacen("dcluster-trace/2", "dcluster-trace/1", 1);
    assert!(matches!(
        diff_traces(&original, &as_v1),
        DiffOutcome::Identical { .. }
    ));
    let mut gen = Gen(0x7ace_f022);
    let (mut parsed, mut rejected) = (0usize, 0usize);
    for _ in 0..MUTATIONS {
        let which = gen.below(SAMPLE.len());
        let mut bytes = SAMPLE[which].as_bytes().to_vec();
        mutate(&mut bytes, &mut gen);
        let line = String::from_utf8_lossy(&bytes);
        let mut lines = SAMPLE.map(String::from);
        lines[which] = line.to_string();
        let mutated = lines.join("\n") + "\n";
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let ok = json::parse(&line).is_ok();
            (
                ok,
                diff_traces(&original, &mutated),
                diff_traces(&mutated, &original),
            )
        }));
        let Ok((ok, forward, backward)) = outcome else {
            panic!("reading this mutation of sample line {which} panicked:\n{line}");
        };
        if ok {
            parsed += 1;
        } else {
            rejected += 1;
        }
        // A diff reports `Identical` exactly when the two texts have the
        // same lines (a mutation may add a `\r` that line splitting drops),
        // up to the schema version the header names.
        let same = original.lines().map(as_v2).eq(mutated.lines().map(as_v2));
        for (side, outcome) in [("forward", &forward), ("backward", &backward)] {
            assert_eq!(
                matches!(outcome, DiffOutcome::Identical { .. }),
                same,
                "{side} diff of this mutation of sample line {which}: {outcome:?}\n{line}"
            );
        }
    }
    // Both outcomes occur, so the mutations neither all miss the grammar
    // nor all break it.
    assert!(
        parsed > 0 && rejected > 0,
        "{parsed} parsed, {rejected} rejected"
    );
}

#[test]
fn tracediff_cli_reports_a_deeply_nested_line() {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let write = |tag: &str, line: &str| {
        let path = dir.join(format!("trace_fuzz_{pid}_{tag}.jsonl"));
        std::fs::write(&path, format!("{}\n{line}\n", SAMPLE[0]))
            .expect("temporary file is writable");
        path
    };
    let a = write("a", SAMPLE[1]);
    let b = write("b", &"[".repeat(200_000));
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_xtask"))
        .arg("tracediff")
        .args([&a, &b])
        .output()
        .expect("xtask runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(
        stdout.starts_with("tracediff: first divergence at line 2 of A, line 2 of B, round 0:"),
        "{stdout}"
    );
    for path in [a, b] {
        let _ = std::fs::remove_file(path);
    }
}
