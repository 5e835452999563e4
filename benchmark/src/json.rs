//! A JSON value, its writer, and the small reader the orchestrator uses to
//! take a child run's result line apart (the container has no serde).

use std::fmt::Write as _;

#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(i64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Keys keep their insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: &str) -> Json {
        Json::Str(s.to_owned())
    }

    pub fn nums(values: &[f64]) -> Json {
        Json::Arr(values.iter().map(|v| Json::Num(*v)).collect())
    }

    pub fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            Json::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Compact, single-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => write!(out, "{i}").expect("write to String"),
            // JSON has no NaN or infinity; a metric that produced one is a
            // bug worth seeing, so it renders as null rather than as 0.
            Json::Num(x) if !x.is_finite() => out.push_str("null"),
            Json::Num(x) => write!(out, "{x:?}").expect("write to String"),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON document; `None` on any syntax error or trailing
    /// input.
    pub fn parse(text: &str) -> Option<Json> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        (p.pos == p.bytes.len()).then_some(v)
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(u8::is_ascii_whitespace)
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> Option<()> {
        self.bytes[self.pos..]
            .starts_with(lit.as_bytes())
            .then(|| self.pos += lit.len())
    }

    fn value(&mut self) -> Option<Json> {
        self.skip_ws();
        match *self.bytes.get(self.pos)? {
            b'n' => self.eat("null").map(|()| Json::Null),
            b't' => self.eat("true").map(|()| Json::Bool(true)),
            b'f' => self.eat("false").map(|()| Json::Bool(false)),
            b'"' => self.string().map(Json::Str),
            b'[' => {
                self.pos += 1;
                let mut items = Vec::new();
                loop {
                    self.skip_ws();
                    if self.eat("]").is_some() {
                        return Some(Json::Arr(items));
                    }
                    if !items.is_empty() {
                        self.eat(",")?;
                    }
                    items.push(self.value()?);
                }
            }
            b'{' => {
                self.pos += 1;
                let mut fields = Vec::new();
                loop {
                    self.skip_ws();
                    if self.eat("}").is_some() {
                        return Some(Json::Obj(fields));
                    }
                    if !fields.is_empty() {
                        self.eat(",")?;
                        self.skip_ws();
                    }
                    let key = self.string()?;
                    self.skip_ws();
                    self.eat(":")?;
                    fields.push((key, self.value()?));
                }
            }
            _ => self.number(),
        }
    }

    fn number(&mut self) -> Option<Json> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).ok()?;
        match text.parse::<i64>() {
            Ok(i) => Some(Json::Int(i)),
            Err(_) => text.parse::<f64>().ok().map(Json::Num),
        }
    }

    fn string(&mut self) -> Option<String> {
        self.eat("\"")?;
        let mut out = Vec::new();
        loop {
            let b = *self.bytes.get(self.pos)?;
            self.pos += 1;
            match b {
                b'"' => return String::from_utf8(out).ok(),
                b'\\' => {
                    let e = *self.bytes.get(self.pos)?;
                    self.pos += 1;
                    match e {
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'u' => {
                            let hex = self.bytes.get(self.pos..self.pos + 4)?;
                            let code =
                                u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                            self.pos += 4;
                            let mut buf = [0u8; 4];
                            out.extend_from_slice(
                                char::from_u32(code)?.encode_utf8(&mut buf).as_bytes(),
                            );
                        }
                        other => out.push(other),
                    }
                }
                other => out.push(other),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_and_parse_round_trip() {
        let v = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Int(12)),
            (
                "metrics",
                Json::obj([(
                    "setup_s",
                    Json::obj([("value", Json::Num(0.8127)), ("unit", Json::str("s"))]),
                )]),
            ),
            ("note", Json::str("a \"quoted\"\nline")),
            ("list", Json::Arr(vec![Json::Null, Json::Num(-1.5e-7)])),
        ]);
        let text = v.render();
        assert!(!text.contains('\n'), "one line: {text}");
        assert_eq!(Json::parse(&text), Some(v));
    }

    #[test]
    fn whole_floats_keep_a_decimal_point_and_nan_is_null() {
        assert_eq!(Json::Num(3.0).render(), "3.0");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
    }

    #[test]
    fn malformed_input_is_rejected() {
        for bad in ["", "{", "{\"a\":}", "[1,]", "{\"a\":1} x", "\"open"] {
            assert_eq!(Json::parse(bad), None, "{bad:?}");
        }
    }
}
