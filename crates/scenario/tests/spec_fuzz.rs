//! Byte-mutation fuzzing of the spec text format. Every committed
//! `scenarios/*.scn` file, with bytes replaced, inserted and deleted, must
//! make `ScenarioSpec::parse` return `Ok` or `Err`, never panic; a spec
//! that parses must render through `to_text` and parse back to itself.
//! The generator is seeded, so a failure names an input that reproduces.

use dcluster_scenario::ScenarioSpec;
use dcluster_sim::Rng64;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

/// Mutated inputs per committed spec file.
const MUTATIONS_PER_FILE: usize = 1500;

/// Half of the mutated bytes come from here: the format's digits, signs,
/// separators and a few letters, so mutations reach past the tokenizer
/// into the value checks.
const FORMAT_BYTES: &[u8] = b"0123456789-+.=eE_ \t\n#xinfa";

/// Applies one to four random byte edits to `bytes`: replace, insert or
/// delete.
fn mutate(bytes: &mut Vec<u8>, rng: &mut Rng64) {
    for _ in 0..1 + rng.range_usize(4) {
        let byte = if rng.chance(0.5) {
            FORMAT_BYTES[rng.range_usize(FORMAT_BYTES.len())]
        } else {
            rng.next_u64() as u8
        };
        let at = rng.range_usize(bytes.len() + 1);
        match rng.range_usize(3) {
            0 if at < bytes.len() => bytes[at] = byte,
            2 if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => bytes.insert(at, byte),
        }
    }
}

#[test]
fn mutated_specs_never_panic_the_parser() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("the committed scenarios directory")
        .map(|entry| entry.expect("a directory entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "scn"))
        .collect();
    files.sort();
    assert!(files.len() >= 14, "every committed spec is fuzzed");
    let mut rng = Rng64::new(0x5eed_5bec);
    let (mut parsed, mut rejected) = (0usize, 0usize);
    for file in &files {
        let original = std::fs::read(file).expect("a readable spec");
        for _ in 0..MUTATIONS_PER_FILE {
            let mut bytes = original.clone();
            mutate(&mut bytes, &mut rng);
            let text = String::from_utf8_lossy(&bytes);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let spec = ScenarioSpec::parse(&text).ok()?;
                let rendered = spec.to_text();
                Some((ScenarioSpec::parse(&rendered), spec, rendered))
            }));
            let Ok(outcome) = outcome else {
                panic!(
                    "{}: parsing this mutation panicked:\n{text}",
                    file.display()
                );
            };
            let Some((reparsed, spec, rendered)) = outcome else {
                rejected += 1;
                continue;
            };
            parsed += 1;
            assert_eq!(
                reparsed.as_ref(),
                Ok(&spec),
                "{}: `to_text` of a parsed mutation does not parse back:\n{text}\n---\n{rendered}",
                file.display()
            );
        }
    }
    // Both outcomes occur, so the mutations neither all miss the format
    // nor all break it.
    assert!(
        parsed > 0 && rejected > 0,
        "{parsed} parsed, {rejected} rejected"
    );
}
