//! The classifier λ as a labelled set of tuples.
//!
//! §3: λ is a *partial* function `dom(D)^n → {+1, −1}`; `λ⁺` and `λ⁻`
//! collect the positively and negatively classified tuples. Equivalently,
//! λ is a training set. The explanation framework never inspects the
//! classifier itself — only these labels — so any actor ("human or
//! machine", §1) can produce them.

use obx_srcdb::{Const, ConstPool, Database, Tuple};
use obx_util::diag::{col_of, Diagnostic, Diagnostics};
use obx_util::{FxHashMap, FxHashSet};
use std::fmt;

/// Errors building a label set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LabelsError {
    /// The same tuple is labelled both `+1` and `−1` (λ is a function).
    Conflict(String),
    /// Tuples of different arities were mixed.
    MixedArity {
        /// First arity seen.
        expected: usize,
        /// Offending arity.
        got: usize,
    },
    /// A parse problem (bad line), with its message.
    Parse(String),
    /// A label line repeats one already recorded (the line's text). Not
    /// an error for [`Labels::parse`], which collapses it; a warning
    /// (`OBX155`) for [`Labels::parse_diag`].
    Duplicate(String),
}

impl fmt::Display for LabelsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LabelsError::Conflict(t) => write!(f, "tuple {t} labelled both +1 and -1"),
            LabelsError::MixedArity { expected, got } => {
                write!(f, "mixed tuple arities: {expected} vs {got}")
            }
            LabelsError::Parse(msg) => write!(f, "{msg}"),
            LabelsError::Duplicate(line) => {
                write!(f, "duplicate label `{line}` (already recorded)")
            }
        }
    }
}

impl std::error::Error for LabelsError {}

/// How [`Labels::parse_with`] reacts to one problem at a line and column:
/// the strict parser propagates it (`Err` aborts the parse), the
/// diagnostic parser records it and returns `Ok(())` so the driver skips
/// the line and continues.
type Sink<'a> = dyn FnMut(usize, usize, LabelsError) -> Result<(), LabelsError> + 'a;

/// The labelled tuples `λ⁺` / `λ⁻`, each in insertion order, which
/// rendering and the match bitsets' layout follow.
#[derive(Debug, Clone, Default)]
pub struct Labels {
    pos: Vec<Tuple>,
    neg: Vec<Tuple>,
    /// Every labelled tuple's side (`true` for `λ⁺`): membership in
    /// constant time, so reading λ is linear in its size.
    side: FxHashMap<Tuple, bool>,
    arity: Option<usize>,
}

impl Labels {
    /// An empty label set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds from explicit positive/negative tuple lists, checking arity
    /// uniformity, deduplicating, and rejecting contradictory labels.
    pub fn from_tuples(
        pos: impl IntoIterator<Item = Tuple>,
        neg: impl IntoIterator<Item = Tuple>,
    ) -> Result<Self, LabelsError> {
        let mut l = Self::new();
        for t in pos {
            l.add_pos(t)?;
        }
        for t in neg {
            l.add_neg(t)?;
        }
        Ok(l)
    }

    fn check_arity(&mut self, t: &Tuple) -> Result<(), LabelsError> {
        match self.arity {
            None => {
                self.arity = Some(t.len());
                Ok(())
            }
            Some(a) if a == t.len() => Ok(()),
            Some(a) => Err(LabelsError::MixedArity {
                expected: a,
                got: t.len(),
            }),
        }
    }

    /// Adds `t` to `λ⁺` (`positive`) or `λ⁻`, returning whether it was
    /// not labelled there yet.
    fn add(&mut self, t: Tuple, positive: bool) -> Result<bool, LabelsError> {
        self.check_arity(&t)?;
        match self.side.get(&t) {
            Some(&p) if p == positive => return Ok(false),
            Some(_) => return Err(LabelsError::Conflict(format!("{t:?}"))),
            None => {}
        }
        self.side.insert(t.clone(), positive);
        if positive {
            self.pos.push(t);
        } else {
            self.neg.push(t);
        }
        Ok(true)
    }

    /// Adds a positive example.
    pub fn add_pos(&mut self, t: Tuple) -> Result<(), LabelsError> {
        self.add(t, true).map(drop)
    }

    /// Adds a negative example.
    pub fn add_neg(&mut self, t: Tuple) -> Result<(), LabelsError> {
        self.add(t, false).map(drop)
    }

    /// `λ⁺`.
    pub fn pos(&self) -> &[Tuple] {
        &self.pos
    }

    /// `λ⁻`.
    pub fn neg(&self) -> &[Tuple] {
        &self.neg
    }

    /// The common arity `n`, or `None` when empty.
    pub fn arity(&self) -> Option<usize> {
        self.arity
    }

    /// Total number of labelled tuples.
    pub fn len(&self) -> usize {
        self.pos.len() + self.neg.len()
    }

    /// Whether no tuple is labelled.
    pub fn is_empty(&self) -> bool {
        self.pos.is_empty() && self.neg.is_empty()
    }

    /// The value `λ(t)` for a tuple, if labelled.
    pub fn label_of(&self, t: &[Const]) -> Option<i8> {
        self.side.get(t).map(|&p| if p { 1 } else { -1 })
    }

    /// All distinct constants mentioned by labelled tuples.
    pub fn constants(&self) -> FxHashSet<Const> {
        self.pos
            .iter()
            .chain(self.neg.iter())
            .flat_map(|t| t.iter().copied())
            .collect()
    }

    /// The one label-line parser: one tuple per line, `+` or `-`
    /// followed by comma-separated constant names (interned into `db`'s
    /// pool), `#` comments. Every problem goes to `sink` with its
    /// 1-based line and column; a line the sink accepts is skipped.
    fn parse_with(db: &mut Database, text: &str, sink: &mut Sink<'_>) -> Result<Self, LabelsError> {
        let mut labels = Self::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = match raw.find('#') {
                Some(i) => &raw[..i],
                None => raw,
            }
            .trim();
            if line.is_empty() {
                continue;
            }
            let result = (|| -> Result<(), LabelsError> {
                let (sign, rest) = line
                    .split_at_checked(1)
                    .ok_or_else(|| LabelsError::Parse(format!("bad label line `{line}`")))?;
                if !matches!(sign, "+" | "-") {
                    return Err(LabelsError::Parse(format!(
                        "bad label sign `{sign}` (expected `+` or `-`)"
                    )));
                }
                if rest.trim().is_empty() {
                    return Err(LabelsError::Parse(format!(
                        "label line `{line}` has no tuple"
                    )));
                }
                let tuple: Tuple = rest.split(',').map(|c| db.constant(c.trim())).collect();
                if labels.add(tuple, sign == "+")? {
                    Ok(())
                } else {
                    Err(LabelsError::Duplicate(line.to_owned()))
                }
            })();
            if let Err(e) = result {
                sink(lineno + 1, col_of(raw, line), e)?;
            }
        }
        Ok(labels)
    }

    /// Parses labels from text, stopping at the first error; duplicate
    /// lines are collapsed.
    ///
    /// ```text
    /// + A10
    /// + B80
    /// - E25
    /// ```
    pub fn parse(db: &mut Database, text: &str) -> Result<Self, LabelsError> {
        Self::parse_with(db, text, &mut |_, _, e| match e {
            LabelsError::Duplicate(_) => Ok(()),
            e => Err(e),
        })
    }

    /// Best-effort label parse: every problem becomes a [`Diagnostic`]
    /// (`OBX15x`) in `diags`, the offending line is skipped, and the labels
    /// that did parse are returned. Duplicate labels — silently collapsed by
    /// [`Labels::parse`] — are additionally reported as `OBX155` warnings.
    pub fn parse_diag(db: &mut Database, text: &str, file: &str, diags: &mut Diagnostics) -> Self {
        let mut sink = |line, col, e: LabelsError| {
            let msg = e.to_string();
            diags.push(match e {
                LabelsError::Parse(_) => Diagnostic::error(file, line, col, "OBX151", msg)
                    .with_hint("label lines are `+ c1, c2, ...` or `- c1, c2, ...`"),
                LabelsError::MixedArity { .. } => Diagnostic::error(file, line, col, "OBX152", msg),
                LabelsError::Conflict(_) => Diagnostic::error(file, line, col, "OBX153", msg)
                    .with_hint("λ is a function: a tuple gets at most one label"),
                LabelsError::Duplicate(_) => Diagnostic::warning(file, line, col, "OBX155", msg),
            });
            Ok(())
        };
        // The sink never returns `Err`, so the driver cannot fail.
        Self::parse_with(db, text, &mut sink).unwrap_or_default()
    }

    /// Renders like `+ <A10>` per line, for diagnostics.
    pub fn render(&self, consts: &ConstPool) -> String {
        let mut s = String::new();
        for t in &self.pos {
            s.push_str(&format!("+ {}\n", consts.render_tuple(t)));
        }
        for t in &self.neg {
            s.push_str(&format!("- {}\n", consts.render_tuple(t)));
        }
        s
    }

    /// Renders in the `labels.obx` file format (`+ c1, c2, ...` per
    /// line), the inverse of [`Labels::parse`]. The diagnostics
    /// rendering above wraps tuples in `<...>`, which the parser does
    /// not accept.
    pub fn render_file(&self, consts: &ConstPool) -> String {
        let line = |sign: char, t: &Tuple| {
            let cs: Vec<&str> = t.iter().map(|c| consts.resolve(*c)).collect();
            format!("{sign} {}\n", cs.join(", "))
        };
        let mut s = String::new();
        for t in &self.pos {
            s.push_str(&line('+', t));
        }
        for t in &self.neg {
            s.push_str(&line('-', t));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obx_srcdb::{parse_schema, Database};

    fn db() -> Database {
        Database::new(parse_schema("R/1").unwrap())
    }

    #[test]
    fn build_and_query_labels() {
        let mut db = db();
        let a = db.constant("a");
        let b = db.constant("b");
        let labels =
            Labels::from_tuples([vec![a].into_boxed_slice()], [vec![b].into_boxed_slice()])
                .unwrap();
        assert_eq!(labels.pos().len(), 1);
        assert_eq!(labels.neg().len(), 1);
        assert_eq!(labels.arity(), Some(1));
        assert_eq!(labels.label_of(&[a]), Some(1));
        assert_eq!(labels.label_of(&[b]), Some(-1));
        let c = db.constant("c");
        assert_eq!(labels.label_of(&[c]), None, "λ is partial");
        assert_eq!(labels.constants().len(), 2);
    }

    #[test]
    fn conflicting_labels_are_rejected() {
        let mut db = db();
        let a = db.constant("a");
        let mut labels = Labels::new();
        labels.add_pos(vec![a].into_boxed_slice()).unwrap();
        let err = labels.add_neg(vec![a].into_boxed_slice()).unwrap_err();
        assert!(matches!(err, LabelsError::Conflict(_)));
    }

    #[test]
    fn duplicates_are_collapsed() {
        let mut db = db();
        let a = db.constant("a");
        let mut labels = Labels::new();
        labels.add_pos(vec![a].into_boxed_slice()).unwrap();
        labels.add_pos(vec![a].into_boxed_slice()).unwrap();
        assert_eq!(labels.pos().len(), 1);
    }

    #[test]
    fn mixed_arity_is_rejected() {
        let mut db = db();
        let a = db.constant("a");
        let b = db.constant("b");
        let mut labels = Labels::new();
        labels.add_pos(vec![a].into_boxed_slice()).unwrap();
        let err = labels.add_pos(vec![a, b].into_boxed_slice()).unwrap_err();
        assert!(matches!(
            err,
            LabelsError::MixedArity {
                expected: 1,
                got: 2
            }
        ));
    }

    #[test]
    fn parse_round_trip() {
        let mut db = db();
        let labels = Labels::parse(
            &mut db,
            "# the paper's λ\n+ A10\n+ B80\n+ C12\n+ D50\n- E25\n",
        )
        .unwrap();
        assert_eq!(labels.pos().len(), 4);
        assert_eq!(labels.neg().len(), 1);
        let rendered = labels.render(db.consts());
        assert!(rendered.contains("+ <A10>"));
        assert!(rendered.contains("- <E25>"));
    }

    #[test]
    fn parse_rejects_garbage() {
        let mut db = db();
        assert!(Labels::parse(&mut db, "? A10").is_err());
        assert!(Labels::parse(&mut db, "+").is_err());
        assert!(Labels::parse(&mut db, "+ a\n- a").is_err());
    }

    #[test]
    fn diag_parse_collects_every_problem() {
        let mut db = db();
        let mut diags = Diagnostics::new();
        let labels = Labels::parse_diag(
            &mut db,
            "+ a\n? b\n+ a\n- a\n+ c, d\n+ e\n",
            "labels.obx",
            &mut diags,
        );
        // `+ a` and `+ e` survive; `+ c, d` is rejected (mixed arity).
        assert_eq!(labels.pos().len(), 2);
        assert!(labels.neg().is_empty());
        let codes: Vec<(&str, usize)> = diags.iter().map(|d| (d.code, d.line)).collect();
        assert_eq!(
            codes,
            vec![("OBX151", 2), ("OBX155", 3), ("OBX153", 4), ("OBX152", 5)]
        );
        assert_eq!(diags.error_count(), 3);
        assert_eq!(diags.warning_count(), 1);
    }

    #[test]
    fn pair_tuples() {
        let mut db = db();
        let a = db.constant("a");
        let b = db.constant("b");
        let labels = Labels::parse(&mut db, "+ a, b\n- b, a").unwrap();
        assert_eq!(labels.arity(), Some(2));
        assert_eq!(labels.label_of(&[a, b]), Some(1));
        assert_eq!(labels.label_of(&[b, a]), Some(-1));
    }
}
