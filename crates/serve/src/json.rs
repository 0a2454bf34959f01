//! Minimal JSON for the service boundary: a recursive-descent value
//! parser (std-only, depth-capped) and the strict `/explain` request
//! decoder.
//!
//! Strictness is deliberate: unknown fields are rejected (`OBX312`)
//! rather than ignored, so a typo'd knob (`"timout_ms"`) fails loudly
//! instead of silently running with defaults — the service equivalent of
//! the CLI rejecting an unknown flag. Every failure carries a stable
//! `OBX31x` code; wording is not a stable interface.

use obx_core::service::ExplainRequest;
use std::collections::BTreeMap;
use std::fmt;

/// Nesting depth cap for untrusted documents (a 10k-deep `[[[[…` must
/// not recurse the stack away).
const MAX_DEPTH: usize = 32;

/// A parsed JSON value. Object keys keep arrival order irrelevant: they
/// are stored sorted (duplicates: last wins, as in every mainstream
/// parser).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Human name of the value's type, for error messages.
    fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "boolean",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }
}

/// A structured decode failure: stable `OBX31x` code plus detail.
#[derive(Debug)]
pub struct JsonError {
    /// Stable diagnostic code (`OBX310`–`OBX313`, or `OBX330` for an
    /// invalid explanation mode).
    pub code: &'static str,
    /// Human-readable detail.
    pub msg: String,
}

impl JsonError {
    fn new(code: &'static str, msg: impl Into<String>) -> Self {
        Self {
            code,
            msg: msg.into(),
        }
    }

    fn syntax(msg: impl Into<String>) -> Self {
        Self::new("OBX310", msg)
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code, self.msg)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::syntax(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(JsonError::syntax(format!(
                "nesting deeper than {MAX_DEPTH} levels"
            )));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(JsonError::syntax(format!(
                "unexpected byte `{}` at offset {}",
                b as char, self.pos
            ))),
            None => Err(JsonError::syntax("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(JsonError::syntax(format!(
                "invalid literal at byte {}",
                self.pos
            )))
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| JsonError::syntax("non-UTF-8 number"))?;
        let n: f64 = text
            .parse()
            .map_err(|_| JsonError::syntax(format!("invalid number `{text}`")))?;
        if !n.is_finite() {
            return Err(JsonError::syntax(format!("non-finite number `{text}`")));
        }
        Ok(Json::Num(n))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(JsonError::syntax("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| JsonError::syntax("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| JsonError::syntax("truncated \\u escape"))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| JsonError::syntax("invalid \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs and unpaired surrogates both
                            // map to the replacement character: the service
                            // boundary never needs astral-plane fidelity.
                            out.push(char::from_u32(cp).unwrap_or('\u{FFFD}'));
                        }
                        other => {
                            return Err(JsonError::syntax(format!(
                                "invalid escape `\\{}`",
                                other as char
                            )))
                        }
                    }
                }
                Some(b) if b < 0x20 => return Err(JsonError::syntax("raw control byte in string")),
                Some(_) => {
                    // Consume one UTF-8 scalar (the body was validated as
                    // UTF-8 before parsing, so slicing is safe — but stay
                    // defensive and walk bytes).
                    let start = self.pos;
                    self.pos += 1;
                    while self.peek().is_some_and(|b| (b & 0xC0) == 0x80) {
                        self.pos += 1;
                    }
                    match std::str::from_utf8(&self.bytes[start..self.pos]) {
                        Ok(s) => out.push_str(s),
                        Err(_) => return Err(JsonError::syntax("invalid UTF-8 in string")),
                    }
                }
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(JsonError::syntax("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value(depth + 1)?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(JsonError::syntax("expected `,` or `}` in object")),
            }
        }
    }
}

/// Parses a full JSON document (trailing garbage is a syntax error).
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(JsonError::syntax(format!(
            "trailing bytes after the document (at offset {})",
            p.pos
        )));
    }
    Ok(v)
}

/// Escapes `s` for embedding inside a JSON string literal (the
/// workspace's one escaper, re-exported for the server and the benches).
pub use obx_util::obs::json_escape as escape;

/// A decoded `/explain` request body.
#[derive(Debug)]
pub struct ExplainBody {
    /// The front-end-agnostic request (defaults = CLI defaults).
    pub req: ExplainRequest,
    /// Which mounted scenario to run against; optional on a
    /// single-tenant server, required once several are mounted.
    pub scenario: Option<String>,
    /// Optional client identity for fair-share admission; anonymous
    /// clients share one bucket.
    pub client: Option<String>,
    /// When true, the response carries the per-phase span trace.
    pub profile: bool,
}

fn num_usize(key: &str, v: &Json) -> Result<usize, JsonError> {
    match v {
        Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u32::MAX as f64 => Ok(*n as usize),
        Json::Num(n) => Err(JsonError::new(
            "OBX313",
            format!("`{key}` must be a non-negative integer, got {n}"),
        )),
        other => Err(JsonError::new(
            "OBX311",
            format!("`{key}` must be a number, got {}", other.type_name()),
        )),
    }
}

fn num_u64(key: &str, v: &Json) -> Result<u64, JsonError> {
    num_usize(key, v).map(|n| n as u64)
}

fn str_field(key: &str, v: &Json) -> Result<String, JsonError> {
    match v {
        Json::Str(s) => Ok(s.clone()),
        other => Err(JsonError::new(
            "OBX311",
            format!("`{key}` must be a string, got {}", other.type_name()),
        )),
    }
}

/// Decodes an `/explain` body. An empty body or `{}` yields pure
/// defaults; unknown fields are `OBX312`, type mismatches `OBX311`,
/// out-of-domain values `OBX313`.
pub fn explain_body(text: &str) -> Result<ExplainBody, JsonError> {
    let trimmed = text.trim();
    let mut out = ExplainBody {
        req: ExplainRequest::default(),
        scenario: None,
        client: None,
        profile: false,
    };
    if trimmed.is_empty() {
        return Ok(out);
    }
    let Json::Obj(map) = parse(trimmed)? else {
        return Err(JsonError::new(
            "OBX311",
            "request body must be a JSON object",
        ));
    };
    for (key, value) in &map {
        match key.as_str() {
            "radius" => out.req.radius = num_usize(key, value)?,
            "top" => {
                out.req.top = num_usize(key, value)?;
                if out.req.top == 0 {
                    return Err(JsonError::new("OBX313", "`top` must be at least 1"));
                }
            }
            "strategy" => match value {
                Json::Str(s) => {
                    const KNOWN: [&str; 5] =
                        ["beam", "bottom-up", "exhaustive", "greedy", "data-level"];
                    if !KNOWN.contains(&s.as_str()) {
                        return Err(JsonError::new(
                            "OBX313",
                            format!(
                                "unknown strategy `{s}` (expected one of: {})",
                                KNOWN.join(", ")
                            ),
                        ));
                    }
                    out.req.strategy = s.clone();
                }
                other => {
                    return Err(JsonError::new(
                        "OBX311",
                        format!("`strategy` must be a string, got {}", other.type_name()),
                    ))
                }
            },
            "weights" => match value {
                Json::Arr(items) if items.len() == 3 => {
                    let mut w = [0.0f64; 3];
                    for (i, item) in items.iter().enumerate() {
                        match item {
                            Json::Num(n) if *n >= 0.0 => w[i] = *n,
                            Json::Num(n) => {
                                return Err(JsonError::new(
                                    "OBX313",
                                    format!("`weights` must be non-negative, got {n}"),
                                ))
                            }
                            other => {
                                return Err(JsonError::new(
                                    "OBX311",
                                    format!(
                                        "`weights` entries must be numbers, got {}",
                                        other.type_name()
                                    ),
                                ))
                            }
                        }
                    }
                    out.req.weights = (w[0], w[1], w[2]);
                }
                other => {
                    return Err(JsonError::new(
                        "OBX311",
                        format!(
                            "`weights` must be an array of 3 numbers, got {}",
                            other.type_name()
                        ),
                    ))
                }
            },
            "mode" => match value {
                Json::Str(s) => match s.parse::<obx_core::score::ExplainMode>() {
                    Ok(mode) => out.req.mode = mode,
                    // Invalid modes get their own stable code (OBX330):
                    // clients feature-detect mode support by probing it.
                    Err(e) => return Err(JsonError::new("OBX330", e)),
                },
                other => {
                    return Err(JsonError::new(
                        "OBX311",
                        format!("`mode` must be a string, got {}", other.type_name()),
                    ))
                }
            },
            "timeout_ms" => out.req.timeout_ms = Some(num_u64(key, value)?),
            "max_evals" => out.req.max_evals = Some(num_u64(key, value)?),
            "max_rewrite" => out.req.max_rewrite = Some(num_usize(key, value)?),
            "max_chase" => out.req.max_chase = Some(num_usize(key, value)?),
            "max_border" => out.req.max_border = Some(num_usize(key, value)?),
            "max_atoms" => out.req.max_atoms = Some(num_usize(key, value)?),
            "beam_width" => out.req.beam_width = Some(num_usize(key, value)?),
            "scenario" => out.scenario = Some(str_field(key, value)?),
            "client" => match value {
                Json::Str(s) => out.client = Some(s.clone()),
                other => {
                    return Err(JsonError::new(
                        "OBX311",
                        format!("`client` must be a string, got {}", other.type_name()),
                    ))
                }
            },
            "profile" => match value {
                Json::Bool(b) => out.profile = *b,
                other => {
                    return Err(JsonError::new(
                        "OBX311",
                        format!("`profile` must be a boolean, got {}", other.type_name()),
                    ))
                }
            },
            other => {
                return Err(JsonError::new(
                    "OBX312",
                    format!("unknown field `{other}` in explain request"),
                ))
            }
        }
    }
    Ok(out)
}

/// Decodes a `/reload` or `/validate` body: empty (single-tenant
/// shorthand) or `{"scenario": "name"}`. Same strictness contract as
/// [`explain_body`].
pub fn scenario_body(text: &str) -> Result<Option<String>, JsonError> {
    let trimmed = text.trim();
    if trimmed.is_empty() {
        return Ok(None);
    }
    let Json::Obj(map) = parse(trimmed)? else {
        return Err(JsonError::new(
            "OBX311",
            "request body must be a JSON object",
        ));
    };
    let mut scenario = None;
    for (key, value) in &map {
        match key.as_str() {
            "scenario" => scenario = Some(str_field(key, value)?),
            other => {
                return Err(JsonError::new(
                    "OBX312",
                    format!("unknown field `{other}` in request"),
                ))
            }
        }
    }
    Ok(scenario)
}

/// Decodes a `POST /tenants` (mount) body: `{"scenario": name, "dir":
/// path}`, both required.
pub fn mount_body(text: &str) -> Result<(String, String), JsonError> {
    let Json::Obj(map) = parse(text.trim())? else {
        return Err(JsonError::new(
            "OBX311",
            "request body must be a JSON object",
        ));
    };
    let mut scenario = None;
    let mut dir = None;
    for (key, value) in &map {
        match key.as_str() {
            "scenario" => scenario = Some(str_field(key, value)?),
            "dir" => dir = Some(str_field(key, value)?),
            other => {
                return Err(JsonError::new(
                    "OBX312",
                    format!("unknown field `{other}` in mount request"),
                ))
            }
        }
    }
    match (scenario, dir) {
        (Some(s), Some(d)) => Ok((s, d)),
        _ => Err(JsonError::new(
            "OBX313",
            "mount request needs both `scenario` and `dir`",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_braces_give_defaults() {
        for body in ["", "   ", "{}"] {
            let b = explain_body(body).unwrap();
            assert_eq!(b.req, ExplainRequest::default());
            assert!(b.client.is_none());
            assert!(!b.profile);
        }
    }

    #[test]
    fn full_body_round_trips() {
        let b = explain_body(
            r#"{"radius": 2, "strategy": "greedy", "weights": [1, 0.5, 2],
                "top": 3, "timeout_ms": 250, "max_evals": 1000,
                "max_rewrite": 10, "max_chase": 20, "max_border": 30,
                "max_atoms": 2, "beam_width": 8,
                "client": "alice", "profile": true}"#,
        )
        .unwrap();
        assert_eq!(b.req.radius, 2);
        assert_eq!(b.req.strategy, "greedy");
        assert_eq!(b.req.weights, (1.0, 0.5, 2.0));
        assert_eq!(b.req.top, 3);
        assert_eq!(b.req.timeout_ms, Some(250));
        assert_eq!(b.req.max_evals, Some(1000));
        assert_eq!(b.req.max_rewrite, Some(10));
        assert_eq!(b.req.max_chase, Some(20));
        assert_eq!(b.req.max_border, Some(30));
        assert_eq!(b.req.max_atoms, Some(2));
        assert_eq!(b.req.beam_width, Some(8));
        assert_eq!(b.client.as_deref(), Some("alice"));
        assert!(b.profile);
    }

    #[test]
    fn scenario_field_round_trips_everywhere() {
        let b = explain_body(r#"{"scenario": "alpha", "top": 2}"#).unwrap();
        assert_eq!(b.scenario.as_deref(), Some("alpha"));
        assert_eq!(b.req.top, 2);
        assert_eq!(
            explain_body(r#"{"scenario": 7}"#).unwrap_err().code,
            "OBX311"
        );
        assert_eq!(scenario_body("").unwrap(), None);
        assert_eq!(scenario_body("  ").unwrap(), None);
        assert_eq!(scenario_body("{}").unwrap(), None);
        assert_eq!(
            scenario_body(r#"{"scenario": "beta"}"#).unwrap().as_deref(),
            Some("beta")
        );
        assert_eq!(
            scenario_body(r#"{"scnario": "x"}"#).unwrap_err().code,
            "OBX312"
        );
    }

    #[test]
    fn mount_body_requires_both_fields() {
        let (s, d) = mount_body(r#"{"scenario": "a", "dir": "/tmp/x"}"#).unwrap();
        assert_eq!((s.as_str(), d.as_str()), ("a", "/tmp/x"));
        assert_eq!(
            mount_body(r#"{"scenario": "a"}"#).unwrap_err().code,
            "OBX313"
        );
        assert_eq!(mount_body(r#"{"dir": "/x"}"#).unwrap_err().code, "OBX313");
        assert_eq!(
            mount_body(r#"{"scenario": "a", "dir": "/x", "extra": 1}"#)
                .unwrap_err()
                .code,
            "OBX312"
        );
        assert_eq!(mount_body("not json").unwrap_err().code, "OBX310");
    }

    #[test]
    fn syntax_errors_are_obx310() {
        for bad in ["{", "[1,", "{\"a\" 1}", "tru", "{} trailing", "\"\\q\""] {
            let e = explain_body(bad).unwrap_err();
            assert_eq!(e.code, "OBX310", "{bad}: {e}");
        }
    }

    #[test]
    fn type_mismatches_are_obx311() {
        for bad in [
            r#"{"radius": "two"}"#,
            r#"{"strategy": 7}"#,
            r#"{"weights": "heavy"}"#,
            r#"{"profile": "yes"}"#,
            r#"[1,2,3]"#,
        ] {
            let e = explain_body(bad).unwrap_err();
            assert_eq!(e.code, "OBX311", "{bad}: {e}");
        }
    }

    #[test]
    fn mode_field_round_trips_and_invalid_modes_are_obx330() {
        use obx_core::score::ExplainMode;
        let b = explain_body(r#"{"mode": "sound"}"#).unwrap();
        assert_eq!(b.req.mode, ExplainMode::Sound);
        let b = explain_body(r#"{"mode": "complete", "top": 2}"#).unwrap();
        assert_eq!(b.req.mode, ExplainMode::Complete);
        assert_eq!(b.req.top, 2);
        let b = explain_body(r#"{"mode": "fscore"}"#).unwrap();
        assert_eq!(b.req, ExplainRequest::default());
        // Invalid mode values carry the stable OBX330 code; a non-string
        // mode is an ordinary type mismatch.
        let e = explain_body(r#"{"mode": "unsound"}"#).unwrap_err();
        assert_eq!(e.code, "OBX330");
        assert!(e.msg.contains("unsound"), "{e}");
        let e = explain_body(r#"{"mode": 3}"#).unwrap_err();
        assert_eq!(e.code, "OBX311");
    }

    #[test]
    fn unknown_fields_are_obx312() {
        let e = explain_body(r#"{"timout_ms": 100}"#).unwrap_err();
        assert_eq!(e.code, "OBX312");
        assert!(e.msg.contains("timout_ms"), "{e}");
    }

    #[test]
    fn domain_violations_are_obx313() {
        for bad in [
            r#"{"strategy": "quantum"}"#,
            r#"{"top": 0}"#,
            r#"{"radius": -1}"#,
            r#"{"radius": 1.5}"#,
            r#"{"weights": [-1, 1, 1]}"#,
        ] {
            let e = explain_body(bad).unwrap_err();
            assert_eq!(e.code, "OBX313", "{bad}: {e}");
        }
    }

    #[test]
    fn deep_nesting_is_rejected_not_overflowed() {
        let deep = "[".repeat(10_000) + &"]".repeat(10_000);
        assert_eq!(parse(&deep).unwrap_err().code, "OBX310");
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let hostile = "a\"b\\c\nd\te\u{0001}f";
        let doc = format!("{{\"client\": \"{}\"}}", escape(hostile));
        let b = explain_body(&doc).unwrap();
        assert_eq!(b.client.as_deref(), Some(hostile));
    }
}
