//! Seconds per hybrid SQLEM iteration on the retail workload (p = 6,
//! k = 9) in three deployments, checked against the in-memory oracle.
//!
//! ```text
//! cargo run --release --manifest-path emperf/Cargo.toml -- \
//!     --workload local-50k --seed 1 --seconds 25 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! round untraced, traced and untraced again and prints the per-layer
//! split.
//! The last line of standard output is the JSON result; the line before
//! it records the run's conditions. See `emperf/README.md`.

#![forbid(unsafe_code)]

mod deploy;
mod report;
mod round;
mod timed;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use datagen::retail::{retail_dataset, RetailConfig, RETAIL_K, RETAIL_P};
use sqlem::checkpoint::read_checkpoint;
use sqlem::Names;
use sqlengine::{Database, SqlExecutor};
use sqlwire::Coordinator;

use deploy::{engine_config, open_durable, server_statements, ServerProc};
use report::{median, metric_line, Metric};
use round::{round, Env, Measure, Plan, Taps, PREFIX};
use timed::Timed;

/// Which deployment a workload runs on.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Local,
    Shard2,
    Durable,
}

struct Workload {
    name: &'static str,
    kind: Kind,
    n: usize,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "local-50k",
        kind: Kind::Local,
        n: 50_000,
    },
    Workload {
        name: "shard2-50k",
        kind: Kind::Shard2,
        n: 50_000,
    },
    Workload {
        name: "durable-300",
        kind: Kind::Durable,
        n: 300,
    },
];

/// Seed of the random initial model on every workload. The points come
/// from `--seed`; the initial model is drawn around their global moments
/// with this fixed seed, so every run follows nearly the same EM
/// trajectory. An iteration's cost depends on how far EM has converged
/// (emperf/README.md, *Findings*), so an initial model drawn from
/// `--seed` would make `iter_s` depend on how fast that seed converges.
const INIT_SEED: u64 = 7;
/// Timed set-ups per run on the 50k workloads, at least.
const SETUPS: usize = 5;
/// Timed `scores()` calls per round on `durable-300`.
const DURABLE_SCORES: usize = 10;
/// Timed driver resumes after each iteration on the in-memory workloads.
const RESUMES: usize = 41;
/// Iterations per round on `durable-300`.
const DURABLE_ITERS: usize = 20;

impl Workload {
    /// The work `--seconds` buys: iterations per round and rounds per
    /// run. Derived from nominal costs on a 2-vCPU reference box, never
    /// from this run's speed, so a faster program does the same work.
    /// The 50k workloads run short rounds from the initial model: the
    /// early iterations cost about the same, so their median is steady.
    fn schedule(&self, seconds: f64) -> (usize, usize) {
        let rounds = |nominal: f64, min: usize| ((seconds / nominal).round() as usize).max(min);
        match self.kind {
            Kind::Local => (2, rounds(10.0, 2)),
            Kind::Shard2 => (3, rounds(9.5, 2)),
            Kind::Durable => (DURABLE_ITERS, rounds(1.8, 3)),
        }
    }
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 25.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or(format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One round on a fresh in-process engine.
fn local_round(env: &Env, plan: &Plan, traced: bool, m: &mut Measure) -> Result<(), String> {
    let start = Instant::now();
    let db = Database::with_config(engine_config());
    if traced {
        let mut exec = Timed::new(db, PREFIX);
        let taps = Taps {
            driver: exec.log(),
            shards: Vec::new(),
            wal: None,
        };
        round(
            &mut exec,
            env,
            start.elapsed().as_secs_f64(),
            plan,
            Some(&taps),
            m,
        )?;
        m.statements += exec.inner().stats().statements();
    } else {
        let mut db = db;
        round(&mut db, env, start.elapsed().as_secs_f64(), plan, None, m)?;
        m.statements += db.stats().statements();
    }
    Ok(())
}

/// One round on a fresh coordinator over two fresh shard servers.
fn shard2_round(env: &Env, plan: &Plan, traced: bool, m: &mut Measure) -> Result<(), String> {
    let start = Instant::now();
    let servers = (0..2)
        .map(|_| ServerProc::start(Database::with_config(engine_config())))
        .collect::<Result<Vec<_>, _>>()?;
    let ran = shard2_session(&servers, start, env, plan, traced, m);
    m.statements += server_statements(&servers);
    servers.into_iter().try_for_each(ServerProc::stop)?;
    ran
}

/// Dial both shards, put a coordinator over them and run the round.
/// Every connection is closed on return, so the servers can drain.
fn shard2_session(
    servers: &[ServerProc],
    start: Instant,
    env: &Env,
    plan: &Plan,
    traced: bool,
    m: &mut Measure,
) -> Result<(), String> {
    let conns = servers
        .iter()
        .map(ServerProc::dial)
        .collect::<Result<Vec<_>, _>>()?;
    let coordinator = |e| format!("coordinator: {e}");
    if traced {
        let shards: Vec<_> = conns.into_iter().map(|c| Timed::new(c, PREFIX)).collect();
        let shard_logs = shards.iter().map(Timed::log).collect();
        let mut exec = Timed::new(Coordinator::new(shards).map_err(coordinator)?, PREFIX);
        let taps = Taps {
            driver: exec.log(),
            shards: shard_logs,
            wal: None,
        };
        let build_s = start.elapsed().as_secs_f64();
        round(&mut exec, env, build_s, plan, Some(&taps), m)
    } else {
        let mut coord = Coordinator::new(conns).map_err(coordinator)?;
        round(
            &mut coord,
            env,
            start.elapsed().as_secs_f64(),
            plan,
            None,
            m,
        )
    }
}

/// One round on a fresh durable server under `dir`. When the round
/// writes a checkpoint, also time reopening the directory after
/// shutdown and check that the recovered checkpoint holds the final
/// model.
fn durable_round(
    env: &Env,
    dir: &Path,
    plan: &Plan,
    traced: bool,
    m: &mut Measure,
) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    let start = Instant::now();
    let server = ServerProc::start(open_durable(dir)?)?;
    let ran = durable_session(&server, start, env, plan, traced, m);
    m.statements += server_statements(std::slice::from_ref(&server));
    server.stop()?;
    ran?;
    if plan.checkpoint {
        let start = Instant::now();
        let mut db = open_durable(dir)?;
        m.recover_s.push(start.elapsed().as_secs_f64());
        let ckpt = read_checkpoint(&mut db as &mut dyn SqlExecutor, &Names::new(PREFIX))
            .map_err(|e| format!("read recovered checkpoint: {e}"))?
            .ok_or("recovered database lost the checkpoint")?;
        if Some(&ckpt.params) != m.params.as_ref() {
            return Err("recovered model differs from the one acknowledged".into());
        }
    }
    std::fs::remove_dir_all(dir).map_err(|e| format!("remove {}: {e}", dir.display()))
}

/// Dial the durable server and run the round; the connection is
/// closed on return.
fn durable_session(
    server: &ServerProc,
    start: Instant,
    env: &Env,
    plan: &Plan,
    traced: bool,
    m: &mut Measure,
) -> Result<(), String> {
    let mut conn = server.dial()?;
    if traced {
        let mut exec = Timed::new(conn, PREFIX);
        let taps = Taps {
            driver: exec.log(),
            shards: Vec::new(),
            wal: Some(server.db.clone()),
        };
        let build_s = start.elapsed().as_secs_f64();
        round(&mut exec, env, build_s, plan, Some(&taps), m)
    } else {
        round(&mut conn, env, start.elapsed().as_secs_f64(), plan, None, m)
    }
}

/// One round of `w`'s deployment, untraced or traced.
fn one_round(
    w: &Workload,
    env: &Env,
    dir: &Path,
    plan: &Plan,
    traced: bool,
    m: &mut Measure,
) -> Result<(), String> {
    match w.kind {
        Kind::Local => local_round(env, plan, traced, m),
        Kind::Shard2 => shard2_round(env, plan, traced, m),
        Kind::Durable => durable_round(env, dir, plan, traced, m),
    }
}

/// The untraced run. On the 50k workloads: rounds that iterate, resume
/// and score once, spreading the score calls over the run, then
/// set-up-only rounds up to `SETUPS` set-ups. On `durable-300`: whole
/// rounds, each ending in a timed recovery. Peak RSS is read after the
/// first round: later rounds in the same process can land in other
/// malloc arenas and add up memory that one deployment never holds.
fn run_untraced(
    w: &Workload,
    env: &Env,
    dir: &Path,
    seconds: f64,
    m: &mut Measure,
) -> Result<(), String> {
    let (iters, rounds) = w.schedule(seconds);
    for round in 1..=rounds {
        let plan = match w.kind {
            Kind::Durable => Plan {
                iters,
                scores: DURABLE_SCORES,
                resumes: 0,
                checkpoint: true,
            },
            Kind::Local | Kind::Shard2 => Plan {
                iters,
                scores: 1,
                resumes: RESUMES,
                checkpoint: round == rounds,
            },
        };
        one_round(w, env, dir, &plan, false, m)?;
        if round == 1 {
            m.peak_rss_mb = report::peak_rss_mb();
        }
    }
    if w.kind == Kind::Durable {
        return Ok(());
    }
    let setup_only = Plan {
        iters: 0,
        scores: 0,
        resumes: 0,
        checkpoint: false,
    };
    for _ in rounds..SETUPS {
        one_round(w, env, dir, &setup_only, false, m)?;
    }
    Ok(())
}

/// The traced run, into `traced`: the same round untraced, traced, and
/// untraced again. The traced round must reproduce the untraced ones
/// bit for bit. Its slowdown against both brackets is the tracing
/// overhead; bracketing cancels slow drift of the host over the run.
/// Returns the untraced rounds' median iteration time.
fn run_traced(
    w: &Workload,
    env: &Env,
    dir: &Path,
    seconds: f64,
    traced: &mut Measure,
) -> Result<f64, String> {
    let (iters, _) = w.schedule(seconds);
    let plan = Plan {
        iters,
        scores: 1,
        resumes: 0,
        checkpoint: false,
    };
    let mut before = Measure::default();
    let mut after = Measure::default();
    let ran = one_round(w, env, dir, &plan, false, &mut before)
        .and_then(|()| one_round(w, env, dir, &plan, true, traced))
        .and_then(|()| one_round(w, env, dir, &plan, false, &mut after));
    for plain in [&before, &after] {
        traced.statements += plain.statements;
        traced.retries += plain.retries;
    }
    ran?;
    for plain in [&before, &after] {
        if traced.llh_bits != plain.llh_bits || traced.params != plain.params {
            return Err("the traced round diverged from the untraced one".into());
        }
    }
    report::check_scan_contract(traced, w.n)?;
    let untraced: Vec<f64> = before.iter_s.iter().chain(&after.iter_s).copied().collect();
    Ok(median(&untraced))
}

/// Run `args`' workload into `m` and compute its metrics.
fn run(args: &Args, dir: &Path, env: &Env, m: &mut Measure) -> Result<Vec<Metric>, String> {
    let w = args.workload;
    if args.trace {
        let untraced_iter = run_traced(w, env, dir, args.seconds, m)?;
        return report::per_layer(m, w.n, untraced_iter);
    }
    run_untraced(w, env, dir, args.seconds, m)?;
    let attempted = m.statements.max(1) as f64;
    // Short calls (milliseconds, tens to hundreds per run): host steal and
    // slow phases hit some and miss others, so the fastest call is the
    // steady figure. Long calls (a quarter second and up, a few per run)
    // each span those phases, so their median is steady. On `durable-300`
    // iterations, set-ups and scores are short and a WAL replay is long;
    // on the 50k workloads it is the other way round (emperf/README.md).
    let short = w.kind == Kind::Durable;
    let steady = |xs: &[f64], short: bool| {
        if short {
            report::fastest(xs)
        } else {
            median(xs)
        }
    };
    Ok(vec![
        Metric::new("iter_s", steady(&m.iter_s, short), "s"),
        Metric::new("setup_s", steady(&m.setup_s, short), "s"),
        Metric::new("score_s", steady(&m.score_s, short), "s"),
        Metric::new("recover_s", steady(&m.recover_s, !short), "s"),
        Metric::new("peak_rss_mb", m.peak_rss_mb, "MiB"),
        Metric::new("stmt_ok_ratio", 1.0 - m.retries as f64 / attempted, "ratio"),
    ])
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: emperf --workload <local-50k|shard2-50k|durable-300> \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    // Scratch space for durable databases, inside the working directory.
    let dir: PathBuf = [".bench_build", &format!("emperf-{}", std::process::id())]
        .iter()
        .collect();
    let data = retail_dataset(&RetailConfig {
        n: w.n,
        seed: args.seed,
    });
    let env = Env {
        points: data.points,
        init_seed: INIT_SEED,
    };
    let ticks = report::cpu_ticks();
    let mut m = Measure::default();
    let outcome = run(&args, &dir.join("db"), &env, &mut m);
    let _ = std::fs::remove_dir_all(&dir);
    let (metrics, error) = match outcome {
        Ok(metrics) => (metrics, None),
        Err(e) => (Vec::new(), Some(e)),
    };
    let (user_s, sys_s) = report::cpu_secs();
    println!(
        "conditions {{\"workload\": \"{}\", \"seed\": {}, \"n\": {}, \"p\": {RETAIL_P}, \"k\": {RETAIL_K}, \
         \"trace\": {}, \"iterations\": {}, \"setups\": {}, \"nproc\": {}, \"workers\": 1, \
         \"flush\": \"fsync per commit, auto-compact past 8 MiB\", \"steal\": {}, \"loadavg\": {}, \
         \"user_s\": {}, \"sys_s\": {}}}",
        w.name,
        args.seed,
        w.n,
        u8::from(args.trace),
        m.iterations,
        m.setup_s.len(),
        std::thread::available_parallelism().map_or(1, usize::from),
        report::num(report::steal_share(ticks, report::cpu_ticks())),
        report::num(report::loadavg()),
        report::num(user_s),
        report::num(sys_s),
    );
    for metric in &metrics {
        eprintln!("{}", metric_line(metric));
    }
    for (name, xs) in [
        ("iter_s", &m.iter_s),
        ("setup_s", &m.setup_s),
        ("score_s", &m.score_s),
        ("recover_s", &m.recover_s),
    ] {
        let shown: Vec<String> = if xs.len() <= 20 {
            xs.iter().map(|x| format!("{x:.6}")).collect()
        } else {
            let mut sorted = xs.to_vec();
            sorted.sort_by(f64::total_cmp);
            let at = |q: usize| sorted[(sorted.len() - 1) * q / 4];
            vec![format!(
                "min {:.6} q1 {:.6} median {:.6} q3 {:.6} max {:.6}",
                at(0),
                at(1),
                at(2),
                at(3),
                at(4)
            )]
        };
        eprintln!("samples {name} ({}): {}", xs.len(), shown.join(" "));
    }
    if let Some(e) = &error {
        eprintln!("FAILED: {e}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        error.is_none(),
        m.statements.max(1),
        m.retries + u64::from(error.is_some()),
        report::metrics_json(&metrics)
    );
    if error.is_some() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
