//! Text formats for schemas and databases.
//!
//! Schema: whitespace-separated `NAME/ARITY` items, `#` line comments.
//!
//! ```text
//! # the paper's Example 3.6 source schema
//! STUD/1 LOC/2 ENR/3
//! ```
//!
//! Database: one fact per line, `NAME(arg, arg, ...)` with an optional
//! trailing `.`; arguments may be bare identifiers or quoted strings.
//!
//! ```text
//! ENR(A10, Math, TV).
//! LOC("TV", "Rome")
//! ```
//!
//! Two entry points per artifact: the strict parsers ([`parse_schema`],
//! [`parse_database`], [`add_facts`]) stop at the first problem, while the
//! `_diag` variants ([`parse_schema_diag`], [`parse_database_diag`],
//! [`add_facts_diag`]) record every problem as a positioned
//! [`Diagnostic`] (codes `OBX10x` / `OBX11x`), skip the offending item or
//! line, and keep going — the admission-control path the CLI builds on.

use crate::database::Database;
use crate::schema::{Schema, SchemaError};
use obx_util::diag::{col_of, Diagnostic, Diagnostics};
use std::fmt;

/// Errors from the schema/database text parsers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Malformed syntax, with a 1-based line/column and message.
    Syntax {
        /// Line where the problem was found.
        line: usize,
        /// 1-based character column; `0` means the whole line.
        col: usize,
        /// Description of the problem.
        msg: String,
    },
    /// A schema-level violation (unknown relation, arity mismatch, ...).
    Schema(SchemaError),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Syntax { line, col: 0, msg } => write!(f, "line {line}: {msg}"),
            ParseError::Syntax { line, col, msg } => write!(f, "line {line}:{col}: {msg}"),
            ParseError::Schema(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<SchemaError> for ParseError {
    fn from(e: SchemaError) -> Self {
        ParseError::Schema(e)
    }
}

fn syntax(line: usize, col: usize, msg: impl Into<String>) -> ParseError {
    ParseError::Syntax {
        line,
        col,
        msg: msg.into(),
    }
}

fn strip_comment(line: &str) -> &str {
    match line.find('#') {
        Some(i) => &line[..i],
        None => line,
    }
}

/// How a parse driver reacts to one positioned error: strict parsers
/// propagate it (`Err` aborts the parse), diagnostic parsers record it and
/// return `Ok(())` so the driver skips the item and continues.
type Sink<'a> = dyn FnMut(usize, usize, ParseError) -> Result<(), ParseError> + 'a;

/// Maps a srcdb [`ParseError`] to its diagnostic code and optional hint.
fn schema_code(e: &ParseError) -> (&'static str, Option<String>) {
    match e {
        ParseError::Syntax { msg, .. } if msg.contains("expected NAME/ARITY") => (
            "OBX101",
            Some("declare relations as `NAME/ARITY`, e.g. `LOC/2`".to_owned()),
        ),
        ParseError::Syntax { msg, .. } if msg.contains("empty relation name") => ("OBX102", None),
        ParseError::Syntax { .. } => (
            "OBX103",
            Some("the arity must be a positive integer, e.g. `LOC/2`".to_owned()),
        ),
        ParseError::Schema(SchemaError::Duplicate(_)) => (
            "OBX104",
            Some("remove or rename one of the declarations".to_owned()),
        ),
        ParseError::Schema(_) => (
            "OBX105",
            Some("relations need at least one column".to_owned()),
        ),
    }
}

fn data_code(e: &ParseError) -> (&'static str, Option<String>) {
    match e {
        ParseError::Syntax { msg, .. } if msg.contains("empty argument") => ("OBX112", None),
        ParseError::Syntax { .. } => (
            "OBX111",
            Some("facts are written `NAME(arg, ...)` with an optional trailing `.`".to_owned()),
        ),
        ParseError::Schema(SchemaError::Unknown(_)) => (
            "OBX113",
            Some("declare the relation in schema.obx or fix the name".to_owned()),
        ),
        ParseError::Schema(SchemaError::ArityMismatch { rel, expected, .. }) => (
            "OBX114",
            Some(format!("`{rel}` is declared with {expected} column(s)")),
        ),
        ParseError::Schema(_) => ("OBX110", None),
    }
}

/// A sink that records every error as a [`Diagnostic`] and keeps parsing.
fn diag_sink<'a>(
    file: &'a str,
    code_of: fn(&ParseError) -> (&'static str, Option<String>),
    diags: &'a mut Diagnostics,
) -> impl FnMut(usize, usize, ParseError) -> Result<(), ParseError> + 'a {
    move |line, col, e| {
        let (code, hint) = code_of(&e);
        let msg = match &e {
            ParseError::Syntax { msg, .. } => msg.clone(),
            ParseError::Schema(se) => se.to_string(),
        };
        let mut d = Diagnostic::error(file, line, col, code, msg);
        if let Some(h) = hint {
            d = d.with_hint(h);
        }
        diags.push(d);
        Ok(())
    }
}

fn parse_schema_with(text: &str, sink: &mut Sink<'_>) -> Result<Schema, ParseError> {
    let mut schema = Schema::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = strip_comment(raw).trim();
        for item in line.split_whitespace() {
            let col = col_of(raw, item);
            let result = (|| -> Result<(), ParseError> {
                let (name, arity) = item.split_once('/').ok_or_else(|| {
                    syntax(
                        lineno + 1,
                        col,
                        format!("expected NAME/ARITY, got `{item}`"),
                    )
                })?;
                if name.is_empty() {
                    return Err(syntax(lineno + 1, col, "empty relation name"));
                }
                let arity: usize = arity
                    .parse()
                    .map_err(|_| syntax(lineno + 1, col, format!("bad arity in `{item}`")))?;
                schema.declare(name, arity)?;
                Ok(())
            })();
            if let Err(e) = result {
                sink(lineno + 1, col, e)?;
            }
        }
    }
    Ok(schema)
}

/// Parses a schema from `NAME/ARITY` items, stopping at the first error.
pub fn parse_schema(text: &str) -> Result<Schema, ParseError> {
    parse_schema_with(text, &mut |_, _, e| Err(e))
}

/// Best-effort schema parse: every problem becomes a [`Diagnostic`]
/// (`OBX101`–`OBX105`) in `diags`, the offending item is skipped, and the
/// relations that did parse are returned.
pub fn parse_schema_diag(text: &str, file: &str, diags: &mut Diagnostics) -> Schema {
    let mut sink = diag_sink(file, schema_code, diags);
    // The sink never returns `Err`, so the driver cannot fail.
    parse_schema_with(text, &mut sink).unwrap_or_default()
}

/// Splits `NAME(a, b, c)` into its name and raw argument strings.
/// Also used by the query and mapping parsers in downstream crates.
pub fn split_atom(line: &str) -> Option<(&str, Vec<&str>)> {
    let open = line.find('(')?;
    let close = line.rfind(')')?;
    if close < open {
        return None;
    }
    let name = line[..open].trim();
    if name.is_empty() || !line[close + 1..].trim().is_empty() {
        return None;
    }
    let inner = &line[open + 1..close];
    let args: Vec<&str> = if inner.trim().is_empty() {
        Vec::new()
    } else {
        inner.split(',').map(str::trim).collect()
    };
    Some((name, args))
}

/// Removes surrounding single or double quotes, if present.
pub fn unquote(s: &str) -> &str {
    let b = s.as_bytes();
    if b.len() >= 2
        && (b[0] == b'"' && b[b.len() - 1] == b'"' || b[0] == b'\'' && b[b.len() - 1] == b'\'')
    {
        &s[1..s.len() - 1]
    } else {
        s
    }
}

fn add_facts_with(db: &mut Database, text: &str, sink: &mut Sink<'_>) -> Result<(), ParseError> {
    for (lineno, raw) in text.lines().enumerate() {
        let mut line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        line = line.strip_suffix('.').unwrap_or(line).trim_end();
        let col = col_of(raw, line);
        let result = (|| -> Result<(), ParseError> {
            let (name, args) = split_atom(line)
                .ok_or_else(|| syntax(lineno + 1, col, format!("bad fact `{line}`")))?;
            for a in &args {
                if a.is_empty() {
                    return Err(syntax(lineno + 1, col, "empty argument"));
                }
            }
            let args: Vec<&str> = args.iter().map(|a| unquote(a)).collect();
            db.insert_named(name, &args)?;
            Ok(())
        })();
        if let Err(e) = result {
            sink(lineno + 1, col, e)?;
        }
    }
    Ok(())
}

/// Parses database facts into a fresh [`Database`] over `schema`,
/// stopping at the first error.
pub fn parse_database(schema: Schema, text: &str) -> Result<Database, ParseError> {
    let mut db = Database::new(schema);
    add_facts(&mut db, text)?;
    Ok(db)
}

/// Parses facts and inserts them into an existing database, stopping at
/// the first error.
pub fn add_facts(db: &mut Database, text: &str) -> Result<(), ParseError> {
    add_facts_with(db, text, &mut |_, _, e| Err(e))
}

/// Best-effort database parse over `schema`: every bad line becomes a
/// [`Diagnostic`] (`OBX111`–`OBX114`) in `diags` and is skipped; the facts
/// that did parse are returned.
pub fn parse_database_diag(
    schema: Schema,
    text: &str,
    file: &str,
    diags: &mut Diagnostics,
) -> Database {
    let mut db = Database::new(schema);
    add_facts_diag(&mut db, text, file, diags);
    db
}

/// Best-effort [`add_facts`]: bad lines are recorded and skipped.
pub fn add_facts_diag(db: &mut Database, text: &str, file: &str, diags: &mut Diagnostics) {
    let mut sink = diag_sink(file, data_code, diags);
    // The sink never returns `Err`, so the driver cannot fail.
    let _ = add_facts_with(db, text, &mut sink);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_roundtrip() {
        let s = parse_schema("STUD/1 LOC/2\n# comment\nENR/3").unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s.arity(s.rel("ENR").unwrap()), 3);
    }

    #[test]
    fn schema_errors() {
        assert!(matches!(parse_schema("R"), Err(ParseError::Syntax { .. })));
        assert!(matches!(
            parse_schema("R/x"),
            Err(ParseError::Syntax { .. })
        ));
        assert!(matches!(
            parse_schema("R/2 R/2"),
            Err(ParseError::Schema(SchemaError::Duplicate(_)))
        ));
        assert!(matches!(
            parse_schema("R/0"),
            Err(ParseError::Schema(SchemaError::ZeroArity(_)))
        ));
    }

    #[test]
    fn schema_errors_carry_positions() {
        let e = parse_schema("STUD/1 LOC/x").unwrap_err();
        assert!(
            matches!(
                e,
                ParseError::Syntax {
                    line: 1,
                    col: 8,
                    ..
                }
            ),
            "{e:?}"
        );
        assert_eq!(e.to_string(), "line 1:8: bad arity in `LOC/x`");
    }

    #[test]
    fn schema_diag_collects_every_problem_and_keeps_the_rest() {
        let mut diags = Diagnostics::new();
        let s = parse_schema_diag("STUD/1 LOC/x\nR/0 ENR/3\nSTUD/1", "schema.obx", &mut diags);
        // STUD and ENR parse; LOC/x, R/0 and the duplicate STUD do not.
        assert_eq!(s.len(), 2);
        assert!(s.rel("ENR").is_ok());
        let codes: Vec<&str> = diags.iter().map(|d| d.code).collect();
        assert_eq!(codes, vec!["OBX103", "OBX105", "OBX104"]);
        assert!(diags.iter().all(|d| d.line > 0 && d.col > 0));
        assert_eq!(diags.iter().next().unwrap().col, 8);
    }

    #[test]
    fn database_facts_with_comments_quotes_periods() {
        let schema = parse_schema("ENR/3 LOC/2").unwrap();
        let db = parse_database(
            schema,
            r#"
            # enrolment facts
            ENR(A10, Math, TV).
            LOC("TV", 'Rome')
            "#,
        )
        .unwrap();
        assert_eq!(db.len(), 2);
        assert!(db.consts().get("Rome").is_some());
        assert!(db.consts().get("'Rome'").is_none());
    }

    #[test]
    fn database_rejects_bad_facts() {
        let schema = parse_schema("R/2").unwrap();
        assert!(matches!(
            parse_database(parse_schema("R/2").unwrap(), "R(a b)"),
            Err(ParseError::Schema(SchemaError::ArityMismatch { .. }))
        ));
        assert!(matches!(
            parse_database(schema, "R a, b"),
            Err(ParseError::Syntax { .. })
        ));
        assert!(matches!(
            parse_database(parse_schema("R/2").unwrap(), "Q(a, b)"),
            Err(ParseError::Schema(SchemaError::Unknown(_)))
        ));
        assert!(matches!(
            parse_database(parse_schema("R/2").unwrap(), "R(a,)"),
            Err(ParseError::Syntax { .. })
        ));
    }

    #[test]
    fn database_diag_reports_all_bad_lines() {
        let schema = parse_schema("R/2").unwrap();
        let mut diags = Diagnostics::new();
        let db = parse_database_diag(
            schema,
            "R(a, b)\nQ(a, b)\nR(a, b, c)\nnot a fact\nR(x, y)",
            "data.obx",
            &mut diags,
        );
        assert_eq!(db.len(), 2, "the two good facts survive");
        let codes: Vec<(&str, usize)> = diags.iter().map(|d| (d.code, d.line)).collect();
        assert_eq!(codes, vec![("OBX113", 2), ("OBX114", 3), ("OBX111", 4)]);
    }

    #[test]
    fn split_atom_edge_cases() {
        assert_eq!(split_atom("R(a, b)"), Some(("R", vec!["a", "b"])));
        assert_eq!(split_atom("R()"), Some(("R", vec![])));
        assert_eq!(split_atom("R(a) trailing"), None);
        assert_eq!(split_atom("(a)"), None);
        assert_eq!(split_atom("Ra, b)"), None);
    }

    #[test]
    fn unquote_variants() {
        assert_eq!(unquote("\"Rome\""), "Rome");
        assert_eq!(unquote("'Rome'"), "Rome");
        assert_eq!(unquote("Rome"), "Rome");
        assert_eq!(unquote("\""), "\"");
        assert_eq!(unquote(""), "");
    }
}
