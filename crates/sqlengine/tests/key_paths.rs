//! Differential check of the single-column key path.
//!
//! A one-column equi-join or GROUP BY key is hashed as a bare value; a
//! wider key is hashed as a whole row. Repeating the key — a redundant
//! second join conjunct, or the GROUP BY column listed twice — sends the
//! same statement down the wide path, which must return the same rows
//! in the same order. The data has duplicate keys, NULL keys, `1`
//! against `1.0`, `-0.0` against `0.0`, and NaN keys.

use sqlengine::Database;

const NAN: &str = "(1e308 * 10 - 1e308 * 10)";

fn db() -> Database {
    let mut d = Database::new();
    d.execute("CREATE TABLE a (rid BIGINT, ik BIGINT, dk DOUBLE, x DOUBLE)")
        .unwrap();
    d.execute("CREATE TABLE b (rid BIGINT, ik BIGINT, dk DOUBLE, y DOUBLE)")
        .unwrap();
    d.execute("CREATE TABLE c (ik BIGINT, z DOUBLE)").unwrap();
    d.execute(&format!(
        "INSERT INTO a VALUES (1, 1, 1.0, 0.5), (2, 1, -0.0, 1.5), (3, NULL, 0.0, 2.5), \
         (4, 2, {NAN}, 3.5), (5, 0, NULL, 4.5), (6, 2, 1.0, 5.5), (7, 3, {NAN}, 6.5), \
         (8, 0, 2.0, 7.5)"
    ))
    .unwrap();
    d.execute(&format!(
        "INSERT INTO b VALUES (1, 1, 0.0, 10.0), (2, 1, 1.0, 20.0), (3, 2, {NAN}, 30.0), \
         (4, NULL, -0.0, 40.0), (5, 0, 1.0, 50.0), (6, 0, NULL, 60.0), (1, 3, 2.0, 70.0), \
         (8, 2, -0.0, 80.0)"
    ))
    .unwrap();
    d.execute("INSERT INTO c VALUES (0, 1.0), (1, 2.0), (1, 3.0), (2, 4.0), (NULL, 5.0)")
        .unwrap();
    d
}

/// Rows of `sql` with every value spelled out, so `-0.0` and NaN
/// compare by their bits.
fn rows(d: &mut Database, sql: &str) -> String {
    format!("{:?}", d.execute(sql).unwrap().rows)
}

fn explain(d: &mut Database, sql: &str) -> String {
    format!("{:?}", d.execute(&format!("EXPLAIN {sql}")).unwrap().rows)
}

#[test]
fn single_and_multi_column_join_keys_agree() {
    let mut d = db();
    for (from, on) in [
        ("a, b", "a.dk = b.dk"),
        ("a, b", "a.ik = b.ik"),
        ("a, b", "a.ik = b.dk"),
        ("a, b", "b.dk = a.ik + 0.0"),
        ("a, b, c", "a.rid = b.rid AND b.ik = c.ik"),
    ] {
        let select = "SELECT * FROM";
        let single = format!("{select} {from} WHERE {on}");
        let multi = format!("{select} {from} WHERE {on} AND {on}");
        assert!(explain(&mut d, &single).contains("on 1 key(s)"), "{single}");
        assert!(explain(&mut d, &multi).contains("on 2 key(s)"), "{multi}");
        let want = rows(&mut d, &single);
        assert!(want.len() > 2, "{single} matched nothing");
        assert_eq!(rows(&mut d, &multi), want, "{on}");
    }
}

#[test]
fn single_and_multi_column_group_keys_agree() {
    let mut d = db();
    for (key, from) in [
        ("dk", "a"),
        ("ik", "a"),
        ("CASE WHEN rid > 4 THEN ik ELSE dk END", "a"),
        ("b.dk", "a, b WHERE a.rid = b.rid"),
        ("c.ik", "a, c WHERE a.ik = c.ik"),
    ] {
        let items = format!("{key}, count(*), sum(x), avg(x), min(x), max(x)");
        let single = format!("SELECT {items} FROM {from} GROUP BY {key}");
        let multi = format!("SELECT {items} FROM {from} GROUP BY {key}, {key}");
        let want = rows(&mut d, &single);
        assert_eq!(rows(&mut d, &multi), want, "GROUP BY {key}");
    }
}
