//! `cargo run -p xtask -- lint [--format human|json] [--root DIR]
//! [--policy FILE]` — see the crate docs and README "Static analysis".
//!
//! `cargo run -p xtask -- tracediff A.jsonl B.jsonl` — diff two
//! observability traces (schema `dcluster-trace/1` or `/2` on either
//! side), naming the first divergent round/event and its line in each.
//!
//! `cargo run -p xtask -- unused` — list the `pub` items that no non-test
//! code names (a report, not a gate: it exits 0 whatever it finds).
//!
//! Exit status: 0 clean/identical, 1 diagnostics or divergence found,
//! 2 usage or I/O error.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;
use xtask::tracediff::DiffOutcome;

const USAGE: &str = "usage: cargo run -p xtask -- lint [--format human|json] [--root DIR] [--policy FILE]\n       cargo run -p xtask -- tracediff <A.jsonl> <B.jsonl>\n       cargo run -p xtask -- unused";

fn fail(msg: &str) -> ExitCode {
    eprintln!("xtask: {msg}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

/// Walks up from the current directory to the workspace root (the first
/// ancestor whose `Cargo.toml` declares `[workspace]`).
fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn run_tracediff(args: &[String]) -> ExitCode {
    let [a, b] = args else {
        return fail("tracediff takes exactly two trace files");
    };
    let read = |path: &String| {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
    };
    let (ta, tb) = match (read(a), read(b)) {
        (Ok(ta), Ok(tb)) => (ta, tb),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("xtask: {e}");
            return ExitCode::from(2);
        }
    };
    match xtask::tracediff::diff_traces(&ta, &tb) {
        DiffOutcome::Identical {
            lines: [la, lb],
            rounds,
        } => {
            println!("tracediff: identical ({rounds} round(s); {la} line(s) in A, {lb} in B)");
            ExitCode::SUCCESS
        }
        DiffOutcome::Divergent {
            lines: [la, lb],
            round,
            detail,
        } => {
            let at_round = round.map_or(String::new(), |r| format!(", round {r}"));
            println!(
                "tracediff: first divergence at line {la} of A, line {lb} of B{at_round}: {detail}"
            );
            ExitCode::from(1)
        }
    }
}

fn run_unused(args: &[String]) -> ExitCode {
    if !args.is_empty() {
        return fail("unused takes no arguments");
    }
    let Some(root) = find_workspace_root() else {
        return fail("cannot locate the workspace root (run from inside the workspace)");
    };
    match xtask::unused::find_unused(&root) {
        Ok(items) => {
            for item in &items {
                println!("{item}");
            }
            eprintln!(
                "unused: {} pub item(s) that no non-test code names (a name match: review before deleting)",
                items.len()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("xtask: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    match it.next().map(String::as_str) {
        Some("lint") => {}
        Some("tracediff") => return run_tracediff(&args[1..]),
        Some("unused") => return run_unused(&args[1..]),
        Some(other) => return fail(&format!("unknown task `{other}`")),
        None => return fail("missing task"),
    }
    let mut format = "human".to_string();
    let mut root: Option<PathBuf> = None;
    let mut policy: Option<PathBuf> = None;
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} requires a value"));
        match flag.as_str() {
            "--format" => match value("--format") {
                Ok(v) if v == "human" || v == "json" => format = v,
                Ok(v) => return fail(&format!("--format must be human or json, got `{v}`")),
                Err(e) => return fail(&e),
            },
            "--root" => match value("--root") {
                Ok(v) => root = Some(PathBuf::from(v)),
                Err(e) => return fail(&e),
            },
            "--policy" => match value("--policy") {
                Ok(v) => policy = Some(PathBuf::from(v)),
                Err(e) => return fail(&e),
            },
            other => return fail(&format!("unknown flag `{other}`")),
        }
    }
    let Some(root) = root.or_else(find_workspace_root) else {
        return fail(
            "cannot locate the workspace root (run from inside the workspace or pass --root)",
        );
    };
    let policy = policy.unwrap_or_else(|| root.join("lint.toml"));
    match xtask::run_lint(&root, &policy) {
        Ok(diags) => {
            let rendered = match format.as_str() {
                "json" => xtask::diag::render_json(&diags),
                _ => xtask::diag::render_human(&diags),
            };
            print!("{rendered}");
            if diags.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("xtask: {e}");
            ExitCode::from(2)
        }
    }
}
