//! Source-level line classification for the lint pass.
//!
//! The rules operate on *code text only*: string-literal contents, char
//! literals and comments are blanked out first so that a log message
//! mentioning `HashMap` or a doc example calling `.unwrap()` never trips a
//! rule. Comment text is preserved separately — that is where the
//! `lint:allow` annotations live.
//!
//! The scanner is a small hand-rolled lexer, not a parser: it tracks just
//! enough state (nested block comments, string/raw-string/char literals)
//! to classify every character of a file as code or non-code, plus a
//! brace-depth pass that marks the body of `#[cfg(test)]`-gated items so
//! test-only rules can skip them. It is deliberately conservative: an
//! exotic `cfg` combination (`cfg(all(test, ...))`) is treated as
//! production code, which can only make the lint stricter.

/// One classified source line.
#[derive(Debug, Clone)]
pub struct Line {
    /// The line's code text with literal contents and comments blanked.
    pub code: String,
    /// Concatenated comment text of the line (line + block comments).
    pub comment: String,
    /// True when the line lies inside a `#[cfg(test)]`-gated item body
    /// (including the attribute and the item's closing brace).
    pub in_test: bool,
}

/// Classifies a whole file. Line numbers are implicit: `lines[i]` is
/// source line `i + 1`.
pub fn scan_source(src: &str) -> Vec<Line> {
    let mut lines = lex(src);
    mark_test_regions(&mut lines);
    lines
}

pub(crate) fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Splits every line into code text and comment text, carrying literal
/// and block-comment state across line boundaries.
fn lex(src: &str) -> Vec<Line> {
    let mut out = Vec::new();
    let mut block_depth = 0usize;
    let mut in_str = false;
    let mut raw_hashes: Option<usize> = None;
    for raw_line in src.lines() {
        let b: Vec<char> = raw_line.chars().collect();
        let mut code = String::new();
        let mut comment = String::new();
        let mut i = 0;
        while i < b.len() {
            if block_depth > 0 {
                if b[i] == '*' && b.get(i + 1) == Some(&'/') {
                    block_depth -= 1;
                    i += 2;
                } else if b[i] == '/' && b.get(i + 1) == Some(&'*') {
                    block_depth += 1; // Rust block comments nest
                    i += 2;
                } else {
                    comment.push(b[i]);
                    i += 1;
                }
                continue;
            }
            if in_str {
                if b[i] == '\\' {
                    code.push(' ');
                    code.push(' ');
                    i += 2; // escape: skip the escaped char (may be ")
                } else if b[i] == '"' {
                    in_str = false;
                    code.push('"');
                    i += 1;
                } else {
                    code.push(' ');
                    i += 1;
                }
                continue;
            }
            if let Some(h) = raw_hashes {
                if b[i] == '"' && (1..=h).all(|k| b.get(i + k) == Some(&'#')) {
                    raw_hashes = None;
                    code.push('"');
                    code.extend(std::iter::repeat_n('#', h));
                    i += 1 + h;
                } else {
                    code.push(' ');
                    i += 1;
                }
                continue;
            }
            match b[i] {
                '/' if b.get(i + 1) == Some(&'/') => {
                    comment.extend(&b[i + 2..]);
                    break;
                }
                '/' if b.get(i + 1) == Some(&'*') => {
                    block_depth = 1;
                    i += 2;
                }
                '"' => {
                    in_str = true;
                    code.push('"');
                    i += 1;
                }
                // Possible raw-(byte-)string opener: r"…", r#"…"#, br"…".
                // Only when not the tail of an identifier (`var"` is not).
                'r' | 'b' if code.chars().last().is_none_or(|c| !is_ident(c)) => {
                    let mut j = i + 1;
                    if b[i] == 'b' && b.get(j) == Some(&'r') {
                        j += 1;
                    }
                    let mut hashes = 0;
                    while b.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if b.get(j) == Some(&'"') && (b[i] == 'r' || j > i + 1) {
                        raw_hashes = Some(hashes);
                        for &c in &b[i..=j] {
                            code.push(c);
                        }
                        i = j + 1;
                    } else {
                        code.push(b[i]);
                        i += 1;
                    }
                }
                // Char literal vs lifetime: 'x' / '\n' are literals (blank
                // their contents so '{' cannot skew brace depth), 'scope is
                // a lifetime (kept as code).
                '\'' => {
                    if b.get(i + 1) == Some(&'\\') {
                        code.push('\'');
                        let mut j = i + 2;
                        while j < b.len() && b[j] != '\'' {
                            code.push(' ');
                            j += 1;
                        }
                        code.push('\'');
                        i = j + 1;
                    } else if b.get(i + 2) == Some(&'\'') {
                        code.push_str("' '");
                        i += 3;
                    } else {
                        code.push('\'');
                        i += 1;
                    }
                }
                c => {
                    code.push(c);
                    i += 1;
                }
            }
        }
        out.push(Line {
            code,
            comment,
            in_test: false,
        });
    }
    out
}

/// Marks lines inside `#[cfg(test)]`-gated item bodies. A `cfg(test)`
/// attribute arms a pending flag; the next `{` opens the gated region
/// (closed when brace depth returns), while a `;` first means the
/// attribute gated a braceless item (a lone `use`), disarming the flag.
fn mark_test_regions(lines: &mut [Line]) {
    let mut depth = 0usize;
    let mut pending = false;
    let mut test_depth: Option<usize> = None;
    for line in lines.iter_mut() {
        let starts_in_test = test_depth.is_some();
        let is_attr = line.code.contains("cfg(test");
        for c in line.code.chars() {
            match c {
                '{' => {
                    if pending && test_depth.is_none() {
                        test_depth = Some(depth);
                        pending = false;
                    }
                    depth += 1;
                }
                '}' => {
                    depth = depth.saturating_sub(1);
                    if test_depth == Some(depth) {
                        test_depth = None;
                    }
                }
                ';' if pending && test_depth.is_none() => pending = false,
                _ => {}
            }
        }
        if is_attr {
            pending = true;
        }
        line.in_test = starts_in_test || test_depth.is_some() || is_attr;
    }
}

/// True when `code` contains `token` with identifier boundaries on both
/// sides (so `HashMap` does not match inside `MyHashMapExt`, but
/// `x.unwrap()` matches `.unwrap()` — a token edge that is itself a
/// non-identifier character needs no boundary).
pub fn has_token(code: &str, token: &str) -> bool {
    let first_ident = token.chars().next().is_some_and(is_ident);
    let last_ident = token.chars().last().is_some_and(is_ident);
    let mut from = 0;
    while let Some(pos) = code[from..].find(token) {
        let start = from + pos;
        let end = start + token.len();
        let pre_ok = !first_ident || code[..start].chars().last().is_none_or(|c| !is_ident(c));
        let post_ok = !last_ident || code[end..].chars().next().is_none_or(|c| !is_ident(c));
        if pre_ok && post_ok {
            return true;
        }
        from = end;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_contents_are_blanked() {
        let l = scan_source(r#"let x = "HashMap .unwrap()"; foo();"#);
        assert!(!l[0].code.contains("HashMap"));
        assert!(l[0].code.contains("foo();"));
    }

    #[test]
    fn raw_strings_are_blanked() {
        let l = scan_source("let x = r#\"panic!(HashMap)\"#; bar();");
        assert!(!l[0].code.contains("panic"));
        assert!(l[0].code.contains("bar();"));
    }

    #[test]
    fn line_comments_are_captured() {
        let l = scan_source("foo(); // lint:allow(D1, reason = \"x\")");
        assert!(l[0].comment.contains("lint:allow(D1"));
        assert!(!l[0].code.contains("lint:allow"));
    }

    #[test]
    fn nested_block_comments_span_lines() {
        let l = scan_source("a();\n/* one /* two */ still comment\nHashMap */\nb();");
        assert!(l[1].code.trim().is_empty());
        assert!(!l[2].code.contains("HashMap"));
        assert!(l[3].code.contains("b();"));
    }

    #[test]
    fn cfg_test_region_is_marked() {
        let src = "fn prod() { x(); }\n#[cfg(test)]\nmod tests {\n    fn t() { y(); }\n}\nfn prod2() {}\n";
        let l = scan_source(src);
        assert!(!l[0].in_test);
        assert!(l[1].in_test && l[2].in_test && l[3].in_test && l[4].in_test);
        assert!(!l[5].in_test);
    }

    #[test]
    fn cfg_test_on_braceless_item_does_not_leak() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn prod() { z(); }\n";
        let l = scan_source(src);
        assert!(l[1].in_test || l[1].code.contains("use"));
        assert!(!l[2].in_test, "region must not extend past the `;`");
    }

    #[test]
    fn char_literal_brace_does_not_skew_depth() {
        let src = "fn f() { let c = '{'; }\n#[cfg(test)]\nmod t {\n    a();\n}\nfn g() {}\n";
        let l = scan_source(src);
        assert!(!l[5].in_test);
    }

    #[test]
    fn lifetimes_stay_code() {
        let l = scan_source("fn f<'a>(x: &'a str) {}");
        assert!(l[0].code.contains("'a"));
    }

    #[test]
    fn token_boundaries_are_respected() {
        assert!(has_token("let m: HashMap<u8, u8> = x;", "HashMap"));
        assert!(!has_token("let m = MyHashMap::new();", "HashMap"));
        assert!(!has_token("let m = HashMapExt::new();", "HashMap"));
        assert!(has_token("x.unwrap()", ".unwrap()"));
        assert!(!has_token("x.unwrap_or(0)", ".unwrap()"));
        assert!(has_token("std::sync::mpsc::channel()", "mpsc"));
    }
}
