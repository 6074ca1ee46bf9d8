//! Minimal JSON support for the lint's `--format json` output: a string
//! quoter for emission and a strict recursive-descent parser used by the
//! round-trip tests and by `tracediff` to read the round a divergent
//! trace line names (and by any tooling that wants to consume the output
//! without a JSON dependency).

/// A parsed JSON value. Object keys keep their source order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in key order of appearance.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Quotes `s` as a JSON string literal (with the mandatory escapes).
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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
    out.push('"');
    out
}

/// Deepest nesting of arrays and objects [`parse`] accepts. The parser
/// recurses once per level, so the cap bounds its stack; trace lines and
/// lint output nest one or two deep.
const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document; trailing non-whitespace, and arrays
/// and objects nested more than 128 deep, are errors.
pub fn parse(text: &str) -> Result<Value, String> {
    let chars: Vec<char> = text.chars().collect();
    let mut pos = 0;
    let v = parse_value(&chars, &mut pos, 0)?;
    skip_ws(&chars, &mut pos);
    if pos != chars.len() {
        return Err(format!("trailing content at offset {pos}"));
    }
    Ok(v)
}

fn skip_ws(c: &[char], pos: &mut usize) {
    while c.get(*pos).is_some_and(|c| c.is_ascii_whitespace()) {
        *pos += 1;
    }
}

fn expect(c: &[char], pos: &mut usize, want: char) -> Result<(), String> {
    if c.get(*pos) == Some(&want) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{want}` at offset {pos}"))
    }
}

/// Parses the value at `pos`, which sits inside `depth` arrays and
/// objects.
fn parse_value(c: &[char], pos: &mut usize, depth: usize) -> Result<Value, String> {
    skip_ws(c, pos);
    if matches!(c.get(*pos), Some('{' | '[')) && depth == MAX_DEPTH {
        return Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at offset {pos}"
        ));
    }
    match c.get(*pos) {
        Some('{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(c, pos);
            if c.get(*pos) == Some(&'}') {
                *pos += 1;
                return Ok(Value::Obj(members));
            }
            loop {
                skip_ws(c, pos);
                let key = parse_string(c, pos)?;
                skip_ws(c, pos);
                expect(c, pos, ':')?;
                members.push((key, parse_value(c, pos, depth + 1)?));
                skip_ws(c, pos);
                match c.get(*pos) {
                    Some(',') => *pos += 1,
                    Some('}') => {
                        *pos += 1;
                        return Ok(Value::Obj(members));
                    }
                    _ => return Err(format!("expected `,` or `}}` at offset {pos}")),
                }
            }
        }
        Some('[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(c, pos);
            if c.get(*pos) == Some(&']') {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(parse_value(c, pos, depth + 1)?);
                skip_ws(c, pos);
                match c.get(*pos) {
                    Some(',') => *pos += 1,
                    Some(']') => {
                        *pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at offset {pos}")),
                }
            }
        }
        Some('"') => Ok(Value::Str(parse_string(c, pos)?)),
        Some('t') if c[*pos..].starts_with(&['t', 'r', 'u', 'e']) => {
            *pos += 4;
            Ok(Value::Bool(true))
        }
        Some('f') if c[*pos..].starts_with(&['f', 'a', 'l', 's', 'e']) => {
            *pos += 5;
            Ok(Value::Bool(false))
        }
        Some('n') if c[*pos..].starts_with(&['n', 'u', 'l', 'l']) => {
            *pos += 4;
            Ok(Value::Null)
        }
        Some(d) if *d == '-' || d.is_ascii_digit() => {
            let start = *pos;
            while c
                .get(*pos)
                .is_some_and(|x| x.is_ascii_digit() || "+-.eE".contains(*x))
            {
                *pos += 1;
            }
            let text: String = c[start..*pos].iter().collect();
            text.parse()
                .map(Value::Num)
                .map_err(|e| format!("bad number `{text}`: {e}"))
        }
        _ => Err(format!("unexpected input at offset {pos}")),
    }
}

fn parse_string(c: &[char], pos: &mut usize) -> Result<String, String> {
    expect(c, pos, '"')?;
    let mut out = String::new();
    loop {
        match c.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some('"') => {
                *pos += 1;
                return Ok(out);
            }
            Some('\\') => {
                *pos += 1;
                match c.get(*pos) {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('/') => out.push('/'),
                    Some('n') => out.push('\n'),
                    Some('r') => out.push('\r'),
                    Some('t') => out.push('\t'),
                    Some('b') => out.push('\u{8}'),
                    Some('f') => out.push('\u{c}'),
                    Some('u') => {
                        let hex: String = c.get(*pos + 1..*pos + 5).unwrap_or(&[]).iter().collect();
                        let n = u32::from_str_radix(&hex, 16)
                            .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                        out.push(char::from_u32(n).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            Some(ch) => {
                out.push(*ch);
                *pos += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_structures() {
        let v = parse(r#"{"a": [1, 2.5, -3], "b": {"c": "x\"y"}, "d": true, "e": null}"#).unwrap();
        let arr = v.get("a").and_then(Value::as_array).unwrap();
        assert_eq!(arr[1].as_f64(), Some(2.5));
        assert_eq!(
            v.get("b").and_then(|b| b.get("c")).and_then(Value::as_str),
            Some("x\"y")
        );
        assert_eq!(v.get("d"), Some(&Value::Bool(true)));
        assert_eq!(v.get("e"), Some(&Value::Null));
    }

    #[test]
    fn quote_escapes_are_parseable() {
        let s = "a\"b\\c\nd\te\u{1}";
        assert_eq!(parse(&quote(s)).unwrap().as_str(), Some(s));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn nesting_is_capped_not_recursed_without_bound() {
        let nested = |open: &str, close: &str, depth: usize| {
            format!("{}0{}", open.repeat(depth), close.repeat(depth))
        };
        assert!(parse(&nested("[", "]", MAX_DEPTH)).is_ok());
        assert!(parse(&nested("{\"a\":", "}", MAX_DEPTH)).is_ok());
        let err = parse(&nested("[", "]", MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains(&format!("offset {MAX_DEPTH}")), "{err}");
        for open in ["[", "{\"a\":"] {
            let err = parse(&open.repeat(200_000)).unwrap_err();
            assert!(err.starts_with("nesting deeper than"), "{open}: {err}");
        }
    }
}
