//! Sharded scale-out: the scatter/gather coordinator must make a
//! multi-shard cluster indistinguishable from a single node.
//!
//! The [`sqlwire::Coordinator`] hash-partitions every rid-bearing table
//! across N shard executors and fragments each generated statement
//! (scatter partial aggregates, gather ordered reads, run
//! partition-local statements verbatim, replicate broadcast-table
//! mutations). These tests pin the contract from the driver's seat:
//!
//! * a full hybrid EM run over embedded shards — final params, llh
//!   history AND the per-iteration cost-model telemetry (`2k+3` n-scans,
//!   1 pn-scan) bit-identical to a single embedded database, for shard
//!   counts 1, 2 and 4;
//! * the same through two *real* wire servers behind
//!   [`sqlwire::RemoteConnection`]s;
//! * one shard killed mid-run and restarted over its durable directory:
//!   the coordinator surfaces the typed transient error, the driver's
//!   `RetryPolicy` rides out the restart through the shard's resume
//!   token, surviving shards are not double-applied, and the final
//!   model is bit-identical to an uninterrupted run;
//! * shard partial sums beyond the `f64` range merging, over the wire,
//!   to the exactly rounded total.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use emcore::init::InitStrategy;
use emcore::GmmParams;
use sqlem::{EmSession, RetryPolicy, SqlemConfig, SqlemRun, Strategy};
use sqlengine::{Database, SharedDatabase, SqlExecutor};
use sqlwire::{
    shard_of_rid, ChaosAction, ChaosProxy, ClientConfig, Coordinator, Direction, RemoteConnection,
    Server, ServerConfig, ServerHandle,
};

// ---------------------------------------------------------------------
// harness

/// Two well-separated 2-D blobs; enough rows that 4 shards all own data.
fn points() -> Vec<Vec<f64>> {
    let mut pts = Vec::new();
    for i in 0..30 {
        let t = (i % 6) as f64 * 0.2;
        pts.push(vec![t, -t]);
        pts.push(vec![9.0 + t, 9.0 - t]);
    }
    pts
}

fn explicit_init() -> GmmParams {
    GmmParams::new(
        vec![vec![2.0, 2.0], vec![7.0, 7.0]],
        vec![8.0, 8.0],
        vec![0.5, 0.5],
    )
}

fn em_config(prefix: &str) -> SqlemConfig {
    SqlemConfig::new(2, Strategy::Hybrid)
        .with_epsilon(1e-12)
        .with_max_iterations(6)
        .with_prefix(prefix)
}

fn run_em<E: SqlExecutor>(db: &mut E, cfg: &SqlemConfig, telemetry: bool) -> SqlemRun {
    let mut session = EmSession::create(db, cfg, 2).unwrap();
    session.load_points(&points()).unwrap();
    session
        .initialize(&InitStrategy::Explicit(explicit_init()))
        .unwrap();
    if telemetry {
        session.enable_telemetry().unwrap();
    }
    session.run().unwrap()
}

fn assert_same_run(label: &str, run: &SqlemRun, baseline: &SqlemRun) {
    assert_eq!(run.params, baseline.params, "{label}: final model diverged");
    assert_eq!(
        run.llh_history, baseline.llh_history,
        "{label}: llh history diverged"
    );
    assert_eq!(run.iterations, baseline.iterations, "{label}: iterations");
    assert_eq!(run.outcome, baseline.outcome, "{label}: outcome");
}

struct TestServer {
    addr: String,
    handle: ServerHandle,
    join: thread::JoinHandle<sqlengine::Result<()>>,
}

impl TestServer {
    fn start(db: SharedDatabase) -> TestServer {
        let config = ServerConfig {
            drain_timeout: Duration::from_secs(2),
            ..ServerConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", db, config).unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let handle = server.handle();
        let join = thread::spawn(move || server.run());
        TestServer { addr, handle, join }
    }

    fn start_durable(dir: &Path) -> TestServer {
        TestServer::start(SharedDatabase::new(Database::open_durable(dir).unwrap()))
    }

    fn stop(self) {
        self.handle.shutdown();
        self.join.join().unwrap().unwrap();
    }
}

fn scratch(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sqlem_cluster_{label}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn connect(addr: &str) -> RemoteConnection {
    let mut last = None;
    for _ in 0..50 {
        match RemoteConnection::connect(addr, ClientConfig::default()) {
            Ok(conn) => return conn,
            Err(e) => {
                last = Some(e);
                thread::sleep(Duration::from_millis(10));
            }
        }
    }
    panic!("could not connect to {addr}: {:?}", last);
}

// ---------------------------------------------------------------------
// the tentpole: sharded == single-node, bit for bit

#[test]
fn sharded_hybrid_run_is_bit_identical_to_embedded() {
    let cfg = em_config("sh_");
    let baseline = run_em(&mut Database::new(), &cfg, true);
    assert!(baseline.iterations >= 2, "need a real run to compare");

    for nshards in [1usize, 2, 4] {
        let shards: Vec<Database> = (0..nshards).map(|_| Database::new()).collect();
        let mut coord = Coordinator::new(shards).unwrap();
        let run = run_em(&mut coord, &cfg, true);
        assert_same_run(&format!("{nshards} shards"), &run, &baseline);

        // Cost-model conformance: the merged per-shard telemetry must
        // reproduce the paper's per-iteration scan counts exactly
        // (2k+3 n-scans + 1 pn-scan for hybrid), not nshards× them.
        assert_eq!(
            run.iteration_reports.len(),
            baseline.iteration_reports.len(),
            "{nshards} shards: telemetry coverage"
        );
        for (r, b) in run
            .iteration_reports
            .iter()
            .zip(&baseline.iteration_reports)
        {
            assert_eq!(
                r.n_scans, b.n_scans,
                "{nshards} shards, iteration {}: n-scans",
                r.iteration
            );
            assert_eq!(
                r.pn_scans, b.pn_scans,
                "{nshards} shards, iteration {}: pn-scans",
                r.iteration
            );
            assert_eq!(
                r.temp_rows_materialized, b.temp_rows_materialized,
                "{nshards} shards, iteration {}: temp rows",
                r.iteration
            );
        }
    }
}

#[test]
fn sharded_run_over_real_servers_matches_embedded() {
    let cfg = em_config("sw_");
    let baseline = run_em(&mut Database::new(), &cfg, false);

    let s0 = TestServer::start(SharedDatabase::default());
    let s1 = TestServer::start(SharedDatabase::default());
    let shards = vec![connect(&s0.addr), connect(&s1.addr)];
    let mut coord = Coordinator::new(shards).unwrap();
    let run = run_em(&mut coord, &cfg, false);
    drop(coord);
    s0.stop();
    s1.stop();

    assert_same_run("2 wire shards", &run, &baseline);
}

// ---------------------------------------------------------------------
// fault tolerance: one shard dies mid-run and comes back

#[test]
fn shard_kill_and_restart_mid_run_is_exactly_once() {
    let cfg = em_config("fk_").with_retry(
        RetryPolicy::new(40)
            .with_base_delay(Duration::from_millis(25))
            .with_max_delay(Duration::from_millis(100)),
    );
    let baseline = run_em(&mut Database::new(), &cfg, false);

    // Shard 0 is a plain wire server; shard 1 is durable and fronted by
    // a chaos proxy so it can be killed and revived at a stable address.
    let dir = scratch("shard1");
    let s0 = TestServer::start(SharedDatabase::default());
    let s1 = TestServer::start_durable(&dir);
    let proxy = Arc::new(ChaosProxy::start(s1.addr.as_str()).unwrap());
    // Cut the wire to shard 1 mid-stream; while the client backs off,
    // take the shard down hard and restart it over the same directory.
    proxy.arm(Direction::ToServer, 60, ChaosAction::CutBefore);

    let dead_addr = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    };
    let restarted = Arc::new(AtomicBool::new(false));
    let restarted_flag = Arc::clone(&restarted);
    let watcher_proxy = Arc::clone(&proxy);
    let watch_dir = dir.clone();
    let watcher = thread::spawn(move || {
        while watcher_proxy.rules_fired() == 0 {
            thread::sleep(Duration::from_millis(1));
        }
        watcher_proxy.set_upstream(dead_addr.as_str()).unwrap();
        s1.handle.shutdown();
        let gone = Instant::now() + Duration::from_secs(5);
        while s1.handle.active_sessions() > 0 && Instant::now() < gone {
            thread::sleep(Duration::from_millis(2));
        }
        s1.join.join().unwrap().unwrap();
        let revived = TestServer::start_durable(&watch_dir);
        watcher_proxy.set_upstream(revived.addr.as_str()).unwrap();
        restarted_flag.store(true, Ordering::SeqCst);
        revived
    });

    let shards = vec![connect(&s0.addr), connect(&proxy.addr().to_string())];
    let mut coord = Coordinator::new(shards).unwrap();
    let run = run_em(&mut coord, &cfg, false);
    drop(coord);
    let revived = watcher.join().unwrap();
    assert!(
        restarted.load(Ordering::SeqCst),
        "the shard restart must have happened mid-run"
    );
    assert!(
        run.retries >= 1,
        "the driver must have ridden out the shard kill"
    );
    drop(proxy);
    s0.stop();
    revived.stop();
    let _ = std::fs::remove_dir_all(&dir);

    assert_same_run("kill+restart", &run, &baseline);
}

// ---------------------------------------------------------------------
// exact partial sums across the wire

#[test]
fn partial_sums_beyond_f64_range_merge_exactly_over_the_wire() {
    let s0 = TestServer::start(SharedDatabase::default());
    let s1 = TestServer::start(SharedDatabase::default());
    let mut coord = Coordinator::new(vec![connect(&s0.addr), connect(&s1.addr)]).unwrap();
    coord
        .execute("CREATE TABLE t (rid BIGINT, v DOUBLE)")
        .unwrap();
    // Shard 0 sums [MAX, MAX], an exact 2·MAX beyond any finite f64;
    // shard 1 sums [-MAX]. Only the merged sum is back in range.
    let on_shard = |shard: usize| (1i64..).filter(move |&rid| shard_of_rid(rid, 2) == shard);
    let a: Vec<i64> = on_shard(0).take(2).collect();
    let b = on_shard(1).next().unwrap();
    let max = format!("{:e}", f64::MAX);
    coord
        .execute(&format!(
            "INSERT INTO t VALUES ({}, {max}), ({}, {max}), ({b}, -{max})",
            a[0], a[1]
        ))
        .unwrap();
    let sum = coord.execute("SELECT sum(v) FROM t").unwrap().rows[0][0].clone();
    drop(coord);
    s0.stop();
    s1.stop();
    assert_eq!(
        sum.as_f64().map(f64::to_bits),
        Some(f64::MAX.to_bits()),
        "got {sum}"
    );
}
