//! The committed lint policy: `lint.toml` at the workspace root.
//!
//! A hand-rolled parser for the small TOML subset the policy needs —
//! `[rule.<CODE>]` sections, string values, string arrays (single- or
//! multi-line) and `#` comments. Parse errors carry line numbers and are
//! hard failures: a policy typo must not silently widen or narrow the
//! rule set.
//!
//! Recognized keys:
//!
//! * top level `exclude = [...]` — path prefixes (workspace-relative)
//!   never scanned at all (fixtures, generated output);
//! * per rule `paths = [...]` — prefixes the rule is confined to (empty
//!   or absent: the whole tree);
//! * per rule `exempt = [...]` — prefixes the rule skips (a whole
//!   sanctioned file or directory, in contrast to the per-line
//!   `lint:allow` comments);
//! * `[rule.D5] exceptions = ["<crate-root-path> = <reason>"]` — crate
//!   roots allowed to omit `#![forbid(unsafe_code)]`, each with a
//!   mandatory justification.

use std::collections::BTreeMap;

/// Per-rule path policy.
#[derive(Debug, Clone, Default)]
pub struct RulePolicy {
    /// Prefixes the rule applies to (empty = everywhere).
    pub paths: Vec<String>,
    /// Prefixes the rule skips.
    pub exempt: Vec<String>,
    /// `D5` only: `path = reason` exception entries, pre-split.
    pub exceptions: Vec<(String, String)>,
}

/// The parsed policy file.
#[derive(Debug, Clone, Default)]
pub struct Policy {
    /// Path prefixes excluded from scanning entirely.
    pub exclude: Vec<String>,
    /// Per-rule policies, keyed by rule code (`D1` … `P1`).
    pub rules: BTreeMap<String, RulePolicy>,
}

impl Policy {
    /// The policy for `rule`, or an empty default when the file has no
    /// section for it.
    pub fn rule(&self, rule: &str) -> RulePolicy {
        self.rules.get(rule).cloned().unwrap_or_default()
    }

    /// Parses the policy text. Errors name the offending line.
    pub fn parse(text: &str) -> Result<Policy, String> {
        let mut policy = Policy::default();
        // The open `[rule.<CODE>]` section: its code and its policy entry.
        let mut section: Option<(String, &mut RulePolicy)> = None;
        let mut lines = text.lines().enumerate().peekable();
        while let Some((idx, raw)) = lines.next() {
            let lineno = idx + 1;
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[') {
                let name = name
                    .strip_suffix(']')
                    .ok_or(format!("lint.toml:{lineno}: unterminated section header"))?
                    .trim();
                let rule = name.strip_prefix("rule.").ok_or(format!(
                    "lint.toml:{lineno}: unknown section [{name}] (expected [rule.<CODE>])"
                ))?;
                let rule_policy = policy.rules.entry(rule.to_string()).or_default();
                section = Some((rule.to_string(), rule_policy));
                continue;
            }
            let (key, mut value) = line
                .split_once('=')
                .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
                .ok_or(format!("lint.toml:{lineno}: expected `key = value`"))?;
            // Multi-line array: accumulate until the closing bracket.
            while value.starts_with('[') && !value.ends_with(']') {
                let (_, cont) = lines
                    .next()
                    .ok_or(format!("lint.toml:{lineno}: unterminated array"))?;
                value.push(' ');
                value.push_str(strip_comment(cont).trim());
            }
            let items = parse_string_array(&value)
                .map_err(|e| format!("lint.toml:{lineno}: {e} in `{key}`"))?;
            match (section.as_mut(), key.as_str()) {
                (None, "exclude") => policy.exclude = items,
                (Some((_, rule)), "paths") => rule.paths = items,
                (Some((_, rule)), "exempt") => rule.exempt = items,
                (Some((_, rule)), "exceptions") => {
                    let mut split = Vec::new();
                    for item in items {
                        let (path, reason) = item.split_once('=').ok_or(format!(
                            "lint.toml:{lineno}: exception `{item}` must be `<path> = <reason>`"
                        ))?;
                        let (path, reason) = (path.trim(), reason.trim());
                        if reason.is_empty() {
                            return Err(format!(
                                "lint.toml:{lineno}: exception for `{path}` lacks a reason"
                            ));
                        }
                        split.push((path.to_string(), reason.to_string()));
                    }
                    rule.exceptions = split;
                }
                (sec, key) => {
                    let at = sec.map_or("top level".to_string(), |(s, _)| format!("[rule.{s}]"));
                    return Err(format!("lint.toml:{lineno}: unknown key `{key}` at {at}"));
                }
            }
        }
        Ok(policy)
    }
}

/// Drops a `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parses `["a", "b"]` (or a bare `"a"` as a one-element list).
fn parse_string_array(value: &str) -> Result<Vec<String>, String> {
    let inner = match value.strip_prefix('[') {
        Some(rest) => rest
            .strip_suffix(']')
            .ok_or("unterminated array".to_string())?,
        None => value,
    };
    let mut out = Vec::new();
    for part in inner.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue; // trailing comma
        }
        let s = part
            .strip_prefix('"')
            .and_then(|p| p.strip_suffix('"'))
            .ok_or(format!("expected a double-quoted string, got `{part}`"))?;
        out.push(s.to_string());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_arrays_and_comments() {
        let p = Policy::parse(
            "# top\nexclude = [\"target\", \"results\"]\n\n[rule.D2]\npaths = [\n  \"crates/core\", # inline\n  \"crates/sim\",\n]\n[rule.D4]\nexempt = [\"crates/bench/src/lib.rs\"]\n",
        )
        .unwrap();
        assert_eq!(p.exclude, ["target", "results"]);
        assert_eq!(p.rule("D2").paths, ["crates/core", "crates/sim"]);
        assert_eq!(p.rule("D4").exempt, ["crates/bench/src/lib.rs"]);
        assert!(p.rule("P1").paths.is_empty(), "absent rule: empty default");
    }

    #[test]
    fn d5_exceptions_require_reasons() {
        let ok = Policy::parse("[rule.D5]\nexceptions = [\"vendor/x/src/lib.rs = ffi shim\"]\n")
            .unwrap();
        assert_eq!(
            ok.rule("D5").exceptions,
            [("vendor/x/src/lib.rs".to_string(), "ffi shim".to_string())]
        );
        assert!(Policy::parse("[rule.D5]\nexceptions = [\"vendor/x/src/lib.rs\"]\n").is_err());
        assert!(Policy::parse("[rule.D5]\nexceptions = [\"vendor/x/src/lib.rs = \"]\n").is_err());
    }

    #[test]
    fn errors_name_the_line() {
        let err = Policy::parse("exclude = [\"a\"]\nbogus line\n").unwrap_err();
        assert!(err.contains(":2:"), "{err}");
        assert!(Policy::parse("[section]\n").is_err());
        assert!(Policy::parse("[rule.D1]\nunknown = true\n").is_err());
    }
}
