//! Properties of the relation engine: predicate evaluation
//! against a naive reference implementation, and query-combinator laws.

use cosoft_retrieval::{ColumnType, Predicate, Query, Table, Value};
use cosoft_rng::{forall, Rng};

fn table_from_rows(rows: &[(String, i64)]) -> Table {
    let mut t = Table::new("t", vec![("name", ColumnType::Text), ("num", ColumnType::Int)])
        .expect("static schema");
    for (name, num) in rows {
        t.insert(vec![Value::text(name), Value::Int(*num)]).expect("typed row");
    }
    t
}

type Rows = Vec<(String, i64)>;

fn arb_rows(r: &mut Rng) -> Rows {
    r.vec(0..30, |r| (r.string("abc", 0..=4), r.range(-50..50)))
}

/// Up to three connectives deep.
fn arb_predicate(r: &mut Rng) -> Predicate {
    fn within(r: &mut Rng, levels_below: usize) -> Predicate {
        let connective = if levels_below == 0 { 0 } else { r.range(0..4) };
        let inner = |r: &mut Rng| within(r, levels_below - 1);
        match connective {
            1 => return Predicate::And(r.vec(0..3, inner)),
            2 => return Predicate::Or(r.vec(0..3, inner)),
            3 => return Predicate::Not(Box::new(inner(r))),
            _ => {}
        }
        match r.range(0..6) {
            0 => Predicate::True,
            1 => Predicate::substring("name", &r.string("abc", 0..=3)),
            2 => Predicate::Prefix("name".into(), r.string("abc", 0..=3)),
            3 => Predicate::eq("num", Value::Int(r.range(-50..50))),
            4 => {
                let lo = r.range(-50..50);
                Predicate::Range("num".into(), lo, lo + r.range(0..30))
            }
            _ => Predicate::like_one_of("name", r.vec(0..3, |r| r.string("abc", 0..=4))),
        }
    }
    within(r, 3)
}

fn rows_and_predicate(r: &mut Rng) -> (Rows, Predicate) {
    (arb_rows(r), arb_predicate(r))
}

/// Reference evaluation, written independently of the engine.
fn reference_matches(p: &Predicate, name: &str, num: i64) -> bool {
    match p {
        Predicate::True => true,
        Predicate::Eq(col, v) => match (col.as_str(), v) {
            ("name", Value::Text(s)) => name == s,
            ("num", Value::Int(i)) => num == *i,
            _ => false,
        },
        Predicate::Substring(_, needle) => name.to_lowercase().contains(&needle.to_lowercase()),
        Predicate::Prefix(_, prefix) => name.to_lowercase().starts_with(&prefix.to_lowercase()),
        Predicate::LikeOneOf(col, alts) => {
            let cell = if col == "name" { name.to_lowercase() } else { num.to_string() };
            alts.iter().any(|a| a.to_lowercase() == cell)
        }
        Predicate::Range(_, lo, hi) => num >= *lo && num <= *hi,
        Predicate::And(ps) => ps.iter().all(|p| reference_matches(p, name, num)),
        Predicate::Or(ps) => ps.iter().any(|p| reference_matches(p, name, num)),
        Predicate::Not(p) => !reference_matches(p, name, num),
    }
}

// The generator keeps text operators on `name` and numeric operators on
// `num`, so every generated predicate is type-correct by construction.
#[test]
fn engine_matches_reference() {
    forall(0..256, rows_and_predicate, |(rows, p)| {
        let table = table_from_rows(&rows);
        let result = Query::new().filter(p.clone()).run(&table).expect("valid predicate");
        let expected: Vec<&(String, i64)> =
            rows.iter().filter(|(n, i)| reference_matches(&p, n, *i)).collect();
        assert_eq!(result.len(), expected.len());
        for (row, (name, num)) in result.rows.iter().zip(expected) {
            assert_eq!(&row[0], &Value::text(name));
            assert_eq!(&row[1], &Value::Int(*num));
        }
    });
}

#[test]
fn double_negation_is_identity() {
    forall(0..256, rows_and_predicate, |(rows, p)| {
        let table = table_from_rows(&rows);
        let direct = Query::new().filter(p.clone()).run(&table).expect("valid");
        let double_neg = Query::new()
            .filter(Predicate::Not(Box::new(Predicate::Not(Box::new(p)))))
            .run(&table)
            .expect("valid");
        assert_eq!(direct, double_neg);
    });
}

#[test]
fn limit_is_prefix_of_unlimited() {
    let gen = |r: &mut Rng| (arb_rows(r), arb_predicate(r), r.range(0..10));
    forall(0..256, gen, |(rows, p, k)| limit_is_prefix(&rows, p, k));
}

/// The case proptest's regression file recorded: one empty-named row,
/// the empty conjunction, no rows asked for.
#[test]
fn limit_zero_of_the_empty_conjunction_is_empty() {
    limit_is_prefix(&[(String::new(), 0)], Predicate::And(Vec::new()), 0);
}

fn limit_is_prefix(rows: &[(String, i64)], p: Predicate, k: usize) {
    let table = table_from_rows(rows);
    let full = Query::new().filter(p.clone()).run(&table).expect("valid");
    let limited = Query::new().filter(p).limit(k).run(&table).expect("valid");
    assert_eq!(limited.len(), full.len().min(k));
    assert_eq!(&limited.rows[..], &full.rows[..limited.len()]);
}

#[test]
fn projection_preserves_row_count() {
    forall(0..256, rows_and_predicate, |(rows, p)| {
        let table = table_from_rows(&rows);
        let full = Query::new().filter(p.clone()).run(&table).expect("valid");
        let projected = Query::new().filter(p).select(["num"]).run(&table).expect("valid");
        assert_eq!(projected.len(), full.len());
        assert!(projected.rows.iter().all(|r| r.len() == 1));
    });
}
