//! `cosoft-retrieval` — a small in-memory relation engine, the database
//! substrate behind the cooperative TORI interface of §4.
//!
//! TORI ("Task-Oriented database Retrieval Interface") generates query and
//! result forms from high-level descriptions; its query forms combine
//! comparison-operator menus (`substring`, `like-one-of`, ...) with text
//! input fields per attribute and view menus selecting a set of query
//! attributes. This crate provides exactly the machinery those forms
//! need: typed tables, the paper's comparison operators as predicates,
//! attribute projections (views) and deterministic result sets.
//!
//! # Example
//!
//! ```
//! use cosoft_retrieval::{ColumnType, Predicate, Query, Table, Value};
//!
//! # fn main() -> Result<(), cosoft_retrieval::DbError> {
//! let mut table = Table::new(
//!     "papers",
//!     vec![("author", ColumnType::Text), ("year", ColumnType::Int)],
//! )?;
//! table.insert(vec![Value::text("Hoppe"), Value::Int(1994)])?;
//! table.insert(vec![Value::text("Zhao"), Value::Int(1994)])?;
//! table.insert(vec![Value::text("Stefik"), Value::Int(1987)])?;
//!
//! let result = Query::new()
//!     .filter(Predicate::substring("author", "o"))
//!     .select(["author"])
//!     .run(&table)?;
//! assert_eq!(result.len(), 2);
//! # Ok(())
//! # }
//! ```

use std::collections::BTreeSet;
use std::fmt;

/// Column type of a relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnType {
    /// UTF-8 text.
    Text,
    /// 64-bit signed integer.
    Int,
}

/// A field value.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// Text field.
    Text(String),
    /// Integer field.
    Int(i64),
}

impl Value {
    /// Convenience constructor for text values.
    pub fn text(s: &str) -> Value {
        Value::Text(s.to_owned())
    }

    /// The value's column type.
    pub fn column_type(&self) -> ColumnType {
        match self {
            Value::Text(_) => ColumnType::Text,
            Value::Int(_) => ColumnType::Int,
        }
    }

    /// The text content, if this is a text value.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            Value::Int(_) => None,
        }
    }

    /// The integer content, if this is an integer value.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Text(_) => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Text(s) => f.write_str(s),
            Value::Int(i) => write!(f, "{i}"),
        }
    }
}

/// Error produced by the relation engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// A column name appears twice in a schema.
    DuplicateColumn {
        /// The duplicated name.
        name: String,
    },
    /// A referenced column does not exist.
    UnknownColumn {
        /// The unresolved name.
        name: String,
    },
    /// A row's arity does not match the schema.
    ArityMismatch {
        /// Expected column count.
        expected: usize,
        /// Provided field count.
        actual: usize,
    },
    /// A field's type does not match its column.
    TypeMismatch {
        /// The column name.
        column: String,
        /// Expected type.
        expected: ColumnType,
    },
    /// A predicate compares a column against an incompatible operand.
    PredicateType {
        /// The column name.
        column: String,
        /// Human-readable reason.
        reason: &'static str,
    },
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::DuplicateColumn { name } => write!(f, "duplicate column {name:?}"),
            DbError::UnknownColumn { name } => write!(f, "unknown column {name:?}"),
            DbError::ArityMismatch { expected, actual } => {
                write!(f, "row has {actual} fields, schema has {expected} columns")
            }
            DbError::TypeMismatch { column, expected } => {
                write!(f, "column {column:?} expects {expected:?}")
            }
            DbError::PredicateType { column, reason } => {
                write!(f, "predicate on column {column:?}: {reason}")
            }
        }
    }
}

impl std::error::Error for DbError {}

/// A typed in-memory relation.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    name: String,
    columns: Vec<(String, ColumnType)>,
    rows: Vec<Vec<Value>>,
}

impl Table {
    /// Creates an empty table.
    ///
    /// # Errors
    ///
    /// [`DbError::DuplicateColumn`] on repeated column names.
    pub fn new<N: Into<String>>(
        name: &str,
        columns: Vec<(N, ColumnType)>,
    ) -> Result<Table, DbError> {
        let columns: Vec<(String, ColumnType)> =
            columns.into_iter().map(|(n, t)| (n.into(), t)).collect();
        let mut seen = BTreeSet::new();
        for (n, _) in &columns {
            if !seen.insert(n.clone()) {
                return Err(DbError::DuplicateColumn { name: n.clone() });
            }
        }
        Ok(Table { name: name.to_owned(), columns, rows: Vec::new() })
    }

    /// The table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Column names in order.
    pub fn column_names(&self) -> Vec<&str> {
        self.columns.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Index and type of a column.
    ///
    /// # Errors
    ///
    /// [`DbError::UnknownColumn`].
    pub fn column(&self, name: &str) -> Result<(usize, ColumnType), DbError> {
        self.columns
            .iter()
            .position(|(n, _)| n == name)
            .map(|i| (i, self.columns[i].1))
            .ok_or_else(|| DbError::UnknownColumn { name: name.to_owned() })
    }

    /// Inserts a row after validating arity and field types.
    ///
    /// # Errors
    ///
    /// [`DbError::ArityMismatch`] or [`DbError::TypeMismatch`].
    pub fn insert(&mut self, row: Vec<Value>) -> Result<(), DbError> {
        if row.len() != self.columns.len() {
            return Err(DbError::ArityMismatch { expected: self.columns.len(), actual: row.len() });
        }
        for ((name, ty), field) in self.columns.iter().zip(&row) {
            if field.column_type() != *ty {
                return Err(DbError::TypeMismatch { column: name.clone(), expected: *ty });
            }
        }
        self.rows.push(row);
        Ok(())
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Iterates over rows.
    pub fn rows(&self) -> impl Iterator<Item = &[Value]> {
        self.rows.iter().map(Vec::as_slice)
    }
}

/// A comparison predicate — TORI's "menus for selecting comparison
/// operators (e.g. substring, like-one-of, etc.)".
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Always true (an empty query form field).
    True,
    /// Exact equality.
    Eq(String, Value),
    /// Case-insensitive substring containment (text columns).
    Substring(String, String),
    /// Case-insensitive prefix match (text columns).
    Prefix(String, String),
    /// Membership in a set of alternatives ("like-one-of").
    LikeOneOf(String, Vec<String>),
    /// Inclusive integer range.
    Range(String, i64, i64),
    /// Conjunction.
    And(Vec<Predicate>),
    /// Disjunction.
    Or(Vec<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// Convenience constructor for [`Predicate::Substring`].
    pub fn substring(column: &str, needle: &str) -> Predicate {
        Predicate::Substring(column.to_owned(), needle.to_owned())
    }

    /// Convenience constructor for [`Predicate::Eq`].
    pub fn eq(column: &str, value: Value) -> Predicate {
        Predicate::Eq(column.to_owned(), value)
    }

    /// Convenience constructor for [`Predicate::LikeOneOf`].
    pub fn like_one_of<I, S>(column: &str, alternatives: I) -> Predicate
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Predicate::LikeOneOf(column.to_owned(), alternatives.into_iter().map(Into::into).collect())
    }

    /// Parses an operator name as shown in a TORI operator menu plus its
    /// textual operand into a predicate.
    ///
    /// Supported operators: `equals`, `substring`, `prefix`,
    /// `like-one-of` (comma-separated alternatives), `range` (`lo..hi`).
    /// An empty operand yields [`Predicate::True`] (field left blank).
    ///
    /// # Errors
    ///
    /// [`DbError::PredicateType`] for unknown operators or malformed
    /// range syntax.
    pub fn from_operator(
        column: &str,
        operator: &str,
        operand: &str,
    ) -> Result<Predicate, DbError> {
        if operand.is_empty() {
            return Ok(Predicate::True);
        }
        match operator {
            "equals" => Ok(match operand.parse::<i64>() {
                Ok(i) => Predicate::Eq(column.to_owned(), Value::Int(i)),
                Err(_) => Predicate::Eq(column.to_owned(), Value::text(operand)),
            }),
            "substring" => Ok(Predicate::substring(column, operand)),
            "prefix" => Ok(Predicate::Prefix(column.to_owned(), operand.to_owned())),
            "like-one-of" => Ok(Predicate::like_one_of(
                column,
                operand.split(',').map(str::trim).filter(|s| !s.is_empty()),
            )),
            "range" => {
                let parts: Vec<&str> = operand.splitn(2, "..").collect();
                let (lo, hi) = match parts.as_slice() {
                    [lo, hi] => (lo.trim().parse::<i64>(), hi.trim().parse::<i64>()),
                    _ => {
                        return Err(DbError::PredicateType {
                            column: column.to_owned(),
                            reason: "range operand must be lo..hi",
                        })
                    }
                };
                match (lo, hi) {
                    (Ok(lo), Ok(hi)) => Ok(Predicate::Range(column.to_owned(), lo, hi)),
                    _ => Err(DbError::PredicateType {
                        column: column.to_owned(),
                        reason: "range bounds must be integers",
                    }),
                }
            }
            _ => Err(DbError::PredicateType {
                column: column.to_owned(),
                reason: "unknown comparison operator",
            }),
        }
    }

    /// Evaluates the predicate against a row of `table`.
    ///
    /// # Errors
    ///
    /// [`DbError::UnknownColumn`] or [`DbError::PredicateType`] on schema
    /// mismatches.
    pub fn matches(&self, table: &Table, row: &[Value]) -> Result<bool, DbError> {
        match self {
            Predicate::True => Ok(true),
            Predicate::Eq(col, v) => {
                let (i, _) = table.column(col)?;
                Ok(&row[i] == v)
            }
            Predicate::Substring(col, needle) => {
                let (i, ty) = table.column(col)?;
                if ty != ColumnType::Text {
                    return Err(DbError::PredicateType {
                        column: col.clone(),
                        reason: "substring requires a text column",
                    });
                }
                Ok(row[i]
                    .as_text()
                    .map(|s| s.to_lowercase().contains(&needle.to_lowercase()))
                    .unwrap_or(false))
            }
            Predicate::Prefix(col, prefix) => {
                let (i, ty) = table.column(col)?;
                if ty != ColumnType::Text {
                    return Err(DbError::PredicateType {
                        column: col.clone(),
                        reason: "prefix requires a text column",
                    });
                }
                Ok(row[i]
                    .as_text()
                    .map(|s| s.to_lowercase().starts_with(&prefix.to_lowercase()))
                    .unwrap_or(false))
            }
            Predicate::LikeOneOf(col, alternatives) => {
                let (i, _) = table.column(col)?;
                let cell = row[i].to_string().to_lowercase();
                Ok(alternatives.iter().any(|a| a.to_lowercase() == cell))
            }
            Predicate::Range(col, lo, hi) => {
                let (i, ty) = table.column(col)?;
                if ty != ColumnType::Int {
                    return Err(DbError::PredicateType {
                        column: col.clone(),
                        reason: "range requires an integer column",
                    });
                }
                Ok(row[i].as_int().map(|v| v >= *lo && v <= *hi).unwrap_or(false))
            }
            Predicate::And(ps) => {
                for p in ps {
                    if !p.matches(table, row)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            Predicate::Or(ps) => {
                for p in ps {
                    if p.matches(table, row)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            Predicate::Not(p) => Ok(!p.matches(table, row)?),
        }
    }
}

/// A query: predicate + projection (TORI's "view", i.e. a set of query
/// attributes) + optional limit.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Query {
    predicate: Option<Predicate>,
    projection: Option<Vec<String>>,
    limit: Option<usize>,
}

impl Query {
    /// Creates a query matching everything with all columns.
    pub fn new() -> Query {
        Query::default()
    }

    /// Sets the filter predicate (replacing any previous one).
    pub fn filter(mut self, predicate: Predicate) -> Query {
        self.predicate = Some(predicate);
        self
    }

    /// Sets the projected columns — the selected "view".
    pub fn select<I, S>(mut self, columns: I) -> Query
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.projection = Some(columns.into_iter().map(Into::into).collect());
        self
    }

    /// Caps the number of result rows.
    pub fn limit(mut self, n: usize) -> Query {
        self.limit = Some(n);
        self
    }

    /// Executes the query.
    ///
    /// # Errors
    ///
    /// Schema errors from the predicate or projection.
    pub fn run(&self, table: &Table) -> Result<ResultSet, DbError> {
        let projection: Vec<(String, usize)> = match &self.projection {
            Some(cols) => {
                let mut v = Vec::with_capacity(cols.len());
                for c in cols {
                    let (i, _) = table.column(c)?;
                    v.push((c.clone(), i));
                }
                v
            }
            None => {
                table.column_names().iter().enumerate().map(|(i, n)| ((*n).to_owned(), i)).collect()
            }
        };
        let predicate = self.predicate.clone().unwrap_or(Predicate::True);
        let mut rows = Vec::new();
        for row in table.rows() {
            if self.limit.map(|k| rows.len() >= k).unwrap_or(false) {
                break;
            }
            if predicate.matches(table, row)? {
                rows.push(projection.iter().map(|(_, i)| row[*i].clone()).collect());
            }
        }
        Ok(ResultSet { columns: projection.into_iter().map(|(n, _)| n).collect(), rows })
    }
}

/// The rows produced by a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResultSet {
    /// Projected column names.
    pub columns: Vec<String>,
    /// Result rows in table order.
    pub rows: Vec<Vec<Value>>,
}

impl ResultSet {
    /// Number of result rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the result is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders each row as a tab-separated line (the form the TORI result
    /// table widget displays).
    pub fn to_lines(&self) -> Vec<String> {
        self.rows
            .iter()
            .map(|r| r.iter().map(Value::to_string).collect::<Vec<_>>().join("\t"))
            .collect()
    }
}

/// Builds the sample literature database used by the TORI example and
/// benchmarks: `papers(author, title, venue, year)` with `n` rows derived
/// deterministically from `seed`.
pub fn sample_literature_db(seed: u64, n: usize) -> Table {
    let authors = [
        "Zhao",
        "Hoppe",
        "Stefik",
        "Ellis",
        "Gibbs",
        "Rein",
        "Patterson",
        "Dewan",
        "Greenberg",
        "Lauwers",
    ];
    let topics = [
        "group editors",
        "shared windows",
        "hypertext",
        "floor control",
        "awareness",
        "coupling",
        "undo",
        "toolkits",
        "classrooms",
        "retrieval",
    ];
    let venues = ["CSCW", "CHI", "UIST", "ICDCS", "ECSCW"];
    let mut table = Table::new(
        "papers",
        vec![
            ("author", ColumnType::Text),
            ("title", ColumnType::Text),
            ("venue", ColumnType::Text),
            ("year", ColumnType::Int),
        ],
    )
    .expect("static schema is valid");
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    let mut next = move || {
        // xorshift64*
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state = state.wrapping_mul(0x2545_f491_4f6c_dd1d);
        state
    };
    for i in 0..n {
        let a = authors[(next() % authors.len() as u64) as usize];
        let t = topics[(next() % topics.len() as u64) as usize];
        let v = venues[(next() % venues.len() as u64) as usize];
        let y = 1985 + (next() % 10) as i64;
        table
            .insert(vec![
                Value::text(a),
                Value::Text(format!("On {t} ({i})")),
                Value::text(v),
                Value::Int(y),
            ])
            .expect("generated row matches schema");
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> Table {
        let mut t = Table::new(
            "papers",
            vec![
                ("author", ColumnType::Text),
                ("title", ColumnType::Text),
                ("year", ColumnType::Int),
            ],
        )
        .unwrap();
        t.insert(vec![
            Value::text("Zhao"),
            Value::text("Flexible Communication"),
            Value::Int(1994),
        ])
        .unwrap();
        t.insert(vec![Value::text("Hoppe"), Value::text("Classroom Support"), Value::Int(1993)])
            .unwrap();
        t.insert(vec![Value::text("Stefik"), Value::text("WYSIWIS Revised"), Value::Int(1987)])
            .unwrap();
        t.insert(vec![Value::text("Ellis"), Value::text("Groupware Issues"), Value::Int(1990)])
            .unwrap();
        t
    }

    #[test]
    fn schema_validation() {
        assert!(matches!(
            Table::new("t", vec![("a", ColumnType::Text), ("a", ColumnType::Int)]),
            Err(DbError::DuplicateColumn { .. })
        ));
        let mut t = db();
        assert!(matches!(
            t.insert(vec![Value::text("x")]),
            Err(DbError::ArityMismatch { expected: 3, actual: 1 })
        ));
        assert!(matches!(
            t.insert(vec![Value::Int(1), Value::text("t"), Value::Int(2)]),
            Err(DbError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn substring_is_case_insensitive() {
        let t = db();
        let r = Query::new().filter(Predicate::substring("author", "ZH")).run(&t).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.rows[0][0], Value::text("Zhao"));
    }

    #[test]
    fn prefix_and_eq() {
        let t = db();
        let r =
            Query::new().filter(Predicate::Prefix("title".into(), "class".into())).run(&t).unwrap();
        assert_eq!(r.len(), 1);
        let r = Query::new().filter(Predicate::eq("year", Value::Int(1990))).run(&t).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.rows[0][0], Value::text("Ellis"));
    }

    #[test]
    fn like_one_of_matches_alternatives() {
        let t = db();
        let r = Query::new()
            .filter(Predicate::like_one_of("author", ["zhao", "HOPPE", "missing"]))
            .run(&t)
            .unwrap();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn range_on_int_column() {
        let t = db();
        let r = Query::new().filter(Predicate::Range("year".into(), 1990, 1993)).run(&t).unwrap();
        assert_eq!(r.len(), 2);
        let err = Query::new().filter(Predicate::Range("author".into(), 0, 1)).run(&t).unwrap_err();
        assert!(matches!(err, DbError::PredicateType { .. }));
    }

    #[test]
    fn boolean_combinators() {
        let t = db();
        let p = Predicate::And(vec![
            Predicate::Range("year".into(), 1990, 1999),
            Predicate::Not(Box::new(Predicate::substring("author", "zhao"))),
        ]);
        let r = Query::new().filter(p).run(&t).unwrap();
        assert_eq!(r.len(), 2); // Hoppe 1993, Ellis 1990
        let p = Predicate::Or(vec![
            Predicate::eq("year", Value::Int(1987)),
            Predicate::eq("year", Value::Int(1994)),
        ]);
        assert_eq!(Query::new().filter(p).run(&t).unwrap().len(), 2);
    }

    #[test]
    fn projection_selects_view() {
        let t = db();
        let r = Query::new().select(["year", "author"]).run(&t).unwrap();
        assert_eq!(r.columns, vec!["year", "author"]);
        assert_eq!(r.rows[0], vec![Value::Int(1994), Value::text("Zhao")]);
        assert!(matches!(
            Query::new().select(["bogus"]).run(&t),
            Err(DbError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn limit_caps_rows() {
        let t = db();
        let r = Query::new().limit(2).run(&t).unwrap();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn empty_operand_is_true() {
        let p = Predicate::from_operator("author", "substring", "").unwrap();
        assert_eq!(p, Predicate::True);
    }

    #[test]
    fn operator_parsing() {
        assert_eq!(
            Predicate::from_operator("author", "equals", "Zhao").unwrap(),
            Predicate::eq("author", Value::text("Zhao"))
        );
        assert_eq!(
            Predicate::from_operator("year", "equals", "1994").unwrap(),
            Predicate::eq("year", Value::Int(1994))
        );
        assert_eq!(
            Predicate::from_operator("author", "like-one-of", "a, b,").unwrap(),
            Predicate::like_one_of("author", ["a", "b"])
        );
        assert_eq!(
            Predicate::from_operator("year", "range", "1990..1994").unwrap(),
            Predicate::Range("year".into(), 1990, 1994)
        );
        assert!(Predicate::from_operator("year", "range", "x..y").is_err());
        assert!(Predicate::from_operator("year", "fuzzy", "x").is_err());
    }

    #[test]
    fn result_lines_are_tab_separated() {
        let t = db();
        let r = Query::new()
            .select(["author", "year"])
            .filter(Predicate::eq("author", Value::text("Zhao")))
            .run(&t)
            .unwrap();
        assert_eq!(r.to_lines(), vec!["Zhao\t1994"]);
    }

    #[test]
    fn sample_db_is_deterministic() {
        let a = sample_literature_db(42, 100);
        let b = sample_literature_db(42, 100);
        assert_eq!(a, b);
        assert_eq!(a.len(), 100);
        let c = sample_literature_db(43, 100);
        assert_ne!(a, c);
    }
}
