//! A timing [`SqlExecutor`] wrapper: records the class, start and
//! duration of every call that crosses it, and forwards the call
//! unchanged.
//!
//! The same wrapper sits at every seam the benchmark times: driver →
//! `Database`, driver → `RemoteConnection`, driver → `Coordinator`, and
//! `Coordinator` → each shard. It never alters arguments or results, so
//! a wrapped run must reproduce an unwrapped one bit for bit (checked by
//! the traced run and by this module's tests).

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sqlengine::analyze::{Limits, SymbolicCatalog};
use sqlengine::{
    ExecMetrics, PartialAggResult, PrepareError, PreparedId, QueryResult, Result, SqlExecutor,
    Value,
};

/// What a call did, as far as the benchmark's layer split cares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    /// E step: Mahalanobis distances (the one pn-row scan).
    Yd,
    /// E step: normal probabilities.
    Yp,
    /// E step: responsibilities.
    Yx,
    /// M step: one cluster mean (k per iteration).
    C,
    /// M step: one cluster's covariance contribution (k per iteration).
    Rk,
    /// M step: weights and llh accumulation.
    W,
    /// DDL, DELETE, UPDATE, the R/CR/GMM inserts, the llh read.
    Small,
    /// Scoring statements and the score read.
    Score,
    /// Bulk row loads.
    Bulk,
    /// Everything else: preparation, telemetry, catalog and size reads.
    Other,
}

impl Class {
    /// Classes that carry one engine statement each (and so one
    /// `ExecMetrics` entry when telemetry is on).
    pub fn is_statement(self) -> bool {
        matches!(
            self,
            Class::Yd
                | Class::Yp
                | Class::Yx
                | Class::C
                | Class::Rk
                | Class::W
                | Class::Small
                | Class::Score
        )
    }

    /// Classify one SQL statement of the hybrid script by the work table
    /// it fills. `prefix` is the session's table prefix.
    pub fn of_sql(sql: &str, prefix: &str) -> Class {
        let Some(rest) = sql.trim_start().strip_prefix("INSERT INTO ") else {
            return if sql.contains(" score FROM ") {
                Class::Score
            } else {
                Class::Small
            };
        };
        let table = rest.split([' ', '(']).next().unwrap_or("");
        match table.strip_prefix(prefix).unwrap_or(table) {
            "yd" => Class::Yd,
            "yp" => Class::Yp,
            "yx" => Class::Yx,
            "c" if rest.contains(" SELECT ") => Class::C,
            "rk" => Class::Rk,
            "w" if rest.contains(" SELECT ") => Class::W,
            "x" | "xmax" | "ys" => Class::Score,
            _ => Class::Small,
        }
    }
}

/// One call through a [`Timed`] wrapper.
#[derive(Debug, Clone)]
pub struct Call {
    /// What the call did.
    pub class: Class,
    /// When it started.
    pub start: Instant,
    /// How long it took, wire and engine included.
    pub dur: Duration,
}

impl Call {
    /// When it returned.
    pub fn end(&self) -> Instant {
        self.start + self.dur
    }
}

/// The calls one wrapper has seen, shared with the benchmark.
pub type CallLog = Arc<Mutex<Vec<Call>>>;

/// Copy of the calls recorded at positions `from..`.
pub fn calls_since(log: &CallLog, from: usize) -> Vec<Call> {
    let calls = log.lock().expect("call log lock poisoned");
    calls[from.min(calls.len())..].to_vec()
}

/// Number of calls recorded so far.
pub fn calls_len(log: &CallLog) -> usize {
    log.lock().expect("call log lock poisoned").len()
}

/// Timing wrapper around any executor.
pub struct Timed<E> {
    inner: E,
    prefix: String,
    log: CallLog,
    /// Prepared id → class of the SQL text it was prepared from.
    prepared: HashMap<PreparedId, Class>,
}

impl<E: SqlExecutor> Timed<E> {
    /// Wrap `inner`; statements are classified against table `prefix`.
    pub fn new(inner: E, prefix: &str) -> Self {
        Timed {
            inner,
            prefix: prefix.to_string(),
            log: Arc::new(Mutex::new(Vec::new())),
            prepared: HashMap::new(),
        }
    }

    /// The wrapped executor.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// The shared call log.
    pub fn log(&self) -> CallLog {
        Arc::clone(&self.log)
    }

    fn timed<T>(&mut self, class: Class, f: impl FnOnce(&mut E) -> Result<T>) -> Result<T> {
        let start = Instant::now();
        let r = f(&mut self.inner);
        let dur = start.elapsed();
        self.log
            .lock()
            .expect("call log lock poisoned")
            .push(Call { class, start, dur });
        r
    }
}

impl<E: SqlExecutor> SqlExecutor for Timed<E> {
    fn execute(&mut self, sql: &str) -> Result<QueryResult> {
        let class = Class::of_sql(sql, &self.prefix);
        self.timed(class, |e| e.execute(sql))
    }

    fn execute_partial(&mut self, sql: &str) -> Result<PartialAggResult> {
        let class = Class::of_sql(sql, &self.prefix);
        self.timed(class, |e| e.execute_partial(sql))
    }

    fn prepare_script(
        &mut self,
        statements: &[String],
    ) -> std::result::Result<Vec<PreparedId>, PrepareError> {
        let start = Instant::now();
        let r = self.inner.prepare_script(statements);
        let dur = start.elapsed();
        self.log.lock().expect("call log lock poisoned").push(Call {
            class: Class::Other,
            start,
            dur,
        });
        if let Ok(ids) = &r {
            for (id, sql) in ids.iter().zip(statements) {
                self.prepared.insert(*id, Class::of_sql(sql, &self.prefix));
            }
        }
        r
    }

    fn run_prepared(&mut self, id: PreparedId) -> Result<QueryResult> {
        let class = self.prepared.get(&id).copied().unwrap_or(Class::Small);
        self.timed(class, |e| e.run_prepared(id))
    }

    fn clear_prepared(&mut self) -> Result<()> {
        self.prepared.clear();
        self.timed(Class::Other, |e| e.clear_prepared())
    }

    fn bulk_insert_rows(&mut self, table: &str, rows: Vec<Vec<Value>>) -> Result<usize> {
        self.timed(Class::Bulk, |e| e.bulk_insert_rows(table, rows))
    }

    fn table_rows(&mut self, table: &str) -> Result<usize> {
        self.timed(Class::Other, |e| e.table_rows(table))
    }

    fn has_table(&mut self, table: &str) -> Result<bool> {
        self.timed(Class::Other, |e| e.has_table(table))
    }

    fn catalog_snapshot(&mut self) -> Result<SymbolicCatalog> {
        self.timed(Class::Other, |e| e.catalog_snapshot())
    }

    fn max_statement_len(&self) -> usize {
        self.inner.max_statement_len()
    }

    fn analyze_limits(&self) -> Limits {
        self.inner.analyze_limits()
    }

    fn memory_budget_bytes(&self) -> Option<u64> {
        self.inner.memory_budget_bytes()
    }

    fn note_statement_retry(&mut self) {
        self.inner.note_statement_retry();
    }

    fn set_metrics_enabled(&mut self, on: bool) -> Result<()> {
        self.timed(Class::Other, |e| e.set_metrics_enabled(on))
    }

    fn metrics_enabled(&self) -> bool {
        self.inner.metrics_enabled()
    }

    fn metrics_len(&mut self) -> Result<usize> {
        self.timed(Class::Other, |e| e.metrics_len())
    }

    fn metrics_since(&mut self, from: usize) -> Result<Vec<ExecMetrics>> {
        self.timed(Class::Other, |e| e.metrics_since(from))
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::retail::{retail_dataset, RetailConfig, RETAIL_K, RETAIL_P};
    use emcore::init::InitStrategy;
    use sqlem::{EmSession, SqlemConfig, Strategy};
    use sqlengine::Database;

    #[test]
    fn classifies_the_hybrid_script() {
        let mut db = Database::new();
        let config = SqlemConfig::new(3, Strategy::Hybrid).with_prefix("t_");
        let session = EmSession::create(&mut db, &config, 2).unwrap();
        let mut counts: HashMap<Class, usize> = HashMap::new();
        for stmt in session.script() {
            *counts.entry(Class::of_sql(&stmt.sql, "t_")).or_default() += 1;
        }
        for (class, want) in [
            (Class::Yd, 1),
            (Class::Yp, 1),
            (Class::Yx, 1),
            (Class::C, 3),
            (Class::Rk, 3),
            (Class::W, 1),
        ] {
            assert_eq!(counts.get(&class), Some(&want), "{class:?}");
        }
        assert!(counts[&Class::Score] >= 3);
    }

    fn run<E: SqlExecutor>(db: &mut E, points: &[Vec<f64>]) -> (Vec<u64>, emcore::GmmParams) {
        let config = SqlemConfig::new(RETAIL_K, Strategy::Hybrid).with_prefix("t_");
        let mut session = EmSession::create(db, &config, RETAIL_P).unwrap();
        session.load_points(points).unwrap();
        session
            .initialize(&InitStrategy::Random { seed: 3 })
            .unwrap();
        let llh = (0..3)
            .map(|_| session.iterate_once().unwrap().to_bits())
            .collect();
        (llh, session.params().unwrap())
    }

    #[test]
    fn wrapping_is_transparent() {
        let data = retail_dataset(&RetailConfig { n: 400, seed: 5 });
        let plain = run(&mut Database::new(), &data.points);
        let mut timed = Timed::new(Database::new(), "t_");
        let log = timed.log();
        let wrapped = run(&mut timed, &data.points);
        assert_eq!(plain.0, wrapped.0, "llh history moved under the wrapper");
        assert_eq!(plain.1, wrapped.1, "params moved under the wrapper");
        let calls = calls_since(&log, 0);
        assert!(calls.iter().any(|c| c.class == Class::Yd));
    }
}
