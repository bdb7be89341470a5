//! One measured round on one deployment: set up a hybrid EM session,
//! iterate it in lockstep with the in-memory oracle, score, and time a
//! driver-side resume. Generic over the executor, so the same code runs
//! in-process, remote and sharded, with or without timing wrappers.

use std::time::{Duration, Instant};

use datagen::retail::{RETAIL_K, RETAIL_P};
use emcore::em::em_step;
use emcore::init::InitStrategy;
use emcore::GmmParams;
use sqlem::checkpoint::{write_checkpoint, Checkpoint};
use sqlem::{EmSession, Names, RetryPolicy, SqlemConfig, Strategy};
use sqlengine::{ExecMetrics, SharedDatabase, SqlExecutor};

use crate::timed::{calls_len, calls_since, Call, CallLog, Class};

/// Table prefix of every benchmark session.
pub const PREFIX: &str = "pb_";

/// Relative llh tolerance of the oracle gate (as `tests/differential.rs`).
const LLH_TOL: f64 = 1e-9;
/// Absolute per-parameter tolerance of the oracle gate.
const PARAM_TOL: f64 = 1e-8;
/// Responsibility gap under which a score may disagree with the
/// oracle's argmax (a floating-point tie).
const TIE_TOL: f64 = 1e-9;

/// The generated input of one run.
pub struct Env {
    /// Retail baskets, p = 6.
    pub points: Vec<Vec<f64>>,
    /// Seed of the random initial model.
    pub init_seed: u64,
}

/// What a round does after set-up.
#[derive(Clone, Copy)]
pub struct Plan {
    /// Iterations from the initial model, a fixed count: every run of a
    /// workload does the same work.
    pub iters: usize,
    /// Timed `scores()` calls.
    pub scores: usize,
    /// Timed driver resumes after each iteration, from an in-database
    /// checkpoint written after that iteration.
    pub resumes: usize,
    /// Write a checkpoint after the last iteration (a durable round then
    /// also reopens its directory and checks the checkpoint there).
    pub checkpoint: bool,
}

/// Timing hooks of a traced round: the driver-side wrapper's log, each
/// shard wrapper's log, and the durable engine for WAL counters.
pub struct Taps {
    pub driver: CallLog,
    pub shards: Vec<CallLog>,
    pub wal: Option<SharedDatabase>,
}

/// Everything one traced iteration left behind.
pub struct IterTrace {
    /// `iterate_once` wall time.
    pub wall: Duration,
    /// Driver-side calls made inside `iterate_once`.
    pub calls: Vec<Call>,
    /// Engine telemetry of the iteration's statements.
    pub entries: Vec<ExecMetrics>,
    /// Each shard's calls made inside `iterate_once`.
    pub shard_calls: Vec<Vec<Call>>,
    /// WAL growth: (bytes, frames), when durable and not compacted.
    pub wal: Option<(u64, u64)>,
}

/// Samples gathered over a run's rounds.
#[derive(Default)]
pub struct Measure {
    pub setup_s: Vec<f64>,
    pub create_s: Vec<f64>,
    pub load_s: Vec<f64>,
    pub init_s: Vec<f64>,
    pub iter_s: Vec<f64>,
    pub score_s: Vec<f64>,
    pub recover_s: Vec<f64>,
    pub em_step_s: Vec<f64>,
    /// Driver-side time of the score statements per `scores()` call.
    pub score_stmt_s: Vec<f64>,
    /// Driver-side time of the bulk loads per set-up.
    pub bulk_s: Vec<f64>,
    /// WAL bytes written by the load per byte of loaded doubles.
    pub wal_load_ratio: Vec<f64>,
    pub traced: Vec<IterTrace>,
    /// Llh bits and final model of the last round that iterated.
    pub llh_bits: Vec<u64>,
    pub params: Option<GmmParams>,
    pub iterations: usize,
    /// `VmHWM` after the run's first round, in MiB.
    pub peak_rss_mb: f64,
    /// Statements the engines executed.
    pub statements: u64,
    /// Statement retries the driver performed.
    pub retries: u64,
}

fn wal_position(taps: Option<&Taps>) -> Option<(u64, u64)> {
    let db = taps?.wal.as_ref()?;
    db.with(|d| Some((d.wal_len()?, d.wal_next_seq()?)))
}

fn err(what: &str) -> impl Fn(sqlem::SqlemError) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Largest absolute difference across every parameter family.
fn param_diff(a: &GmmParams, b: &GmmParams) -> f64 {
    let flat = |g: &GmmParams| -> Vec<f64> {
        g.means
            .iter()
            .flatten()
            .chain(&g.cov)
            .chain(&g.weights)
            .copied()
            .collect()
    };
    flat(a)
        .iter()
        .zip(flat(b))
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Check SQL scores against the oracle's argmax under `params` (the
/// model the last E step ran with). A disagreement passes only on a
/// floating-point tie.
fn check_scores(scores: &[usize], params: &GmmParams, points: &[Vec<f64>]) -> Result<(), String> {
    if scores.len() != points.len() {
        return Err(format!(
            "{} scores for {} points",
            scores.len(),
            points.len()
        ));
    }
    let mut x = vec![0.0; params.k()];
    for (i, (point, &got)) in points.iter().zip(scores).enumerate() {
        emcore::gaussian::responsibilities(params, point, &mut x);
        let best = (0..x.len()).fold(0, |b, j| if x[j] > x[b] { j } else { b });
        if got >= x.len() || (got != best && (x[best] - x[got]).abs() > TIE_TOL) {
            return Err(format!("point {i}: SQL score {got}, oracle argmax {best}"));
        }
    }
    Ok(())
}

/// Write the session's checkpoint: `llh` so far and model `params`.
fn checkpoint<E: SqlExecutor>(
    session: &mut EmSession<'_, E>,
    llh: &[u64],
    params: &GmmParams,
) -> Result<(), String> {
    let ckpt = Checkpoint {
        iteration: llh.len(),
        llh_history: llh.iter().map(|&b| f64::from_bits(b)).collect(),
        params: params.clone(),
    };
    write_checkpoint(session.executor(), &Names::new(PREFIX), &ckpt)
        .map_err(err("write checkpoint"))
}

/// Set up one session on `exec`, then iterate, score and resume per
/// `plan`, checking every result against the oracle. `build_s` is the
/// time already spent building the deployment.
pub fn round<E: SqlExecutor>(
    exec: &mut E,
    env: &Env,
    build_s: f64,
    plan: &Plan,
    taps: Option<&Taps>,
    m: &mut Measure,
) -> Result<(), String> {
    let config = SqlemConfig::new(RETAIL_K, Strategy::Hybrid)
        .with_epsilon(0.0)
        .with_prefix(PREFIX)
        .with_retry(RetryPolicy::new(4));

    let t = Instant::now();
    let mut session = EmSession::create(exec, &config, RETAIL_P).map_err(err("create"))?;
    let create = t.elapsed().as_secs_f64();
    let wal_before = wal_position(taps);
    let mark = taps.map(|t| calls_len(&t.driver));
    let t = Instant::now();
    session.load_points(&env.points).map_err(err("load"))?;
    let load = t.elapsed().as_secs_f64();
    let t = Instant::now();
    session
        .initialize(&InitStrategy::Random {
            seed: env.init_seed,
        })
        .map_err(err("initialize"))?;
    let init = t.elapsed().as_secs_f64();
    m.setup_s.push(build_s + create + load + init);
    m.create_s.push(create);
    m.load_s.push(load);
    m.init_s.push(init);
    if let (Some(taps), Some(mark)) = (taps, mark) {
        let bulk = calls_since(&taps.driver, mark)
            .iter()
            .filter(|c| c.class == Class::Bulk)
            .map(|c| c.dur.as_secs_f64())
            .sum();
        m.bulk_s.push(bulk);
        session
            .enable_telemetry()
            .map_err(err("enable telemetry"))?;
    }
    if let (Some(before), Some(after)) = (wal_before, wal_position(taps)) {
        let user_bytes = (env.points.len() * RETAIL_P * 8) as f64;
        m.wal_load_ratio
            .push(after.0.saturating_sub(before.0) as f64 / user_bytes);
    }

    // The oracle gate starts from the model the session actually holds.
    let mut oracle = session.params().map_err(err("read initial params"))?;
    let mut prev = oracle.clone();
    m.llh_bits.clear();
    loop {
        let done = m.llh_bits.len();
        if done == plan.iters {
            break;
        }
        let cursor = match taps {
            Some(_) => Some(
                session
                    .executor()
                    .metrics_len()
                    .map_err(|e| format!("metrics cursor: {e}"))?,
            ),
            None => None,
        };
        let marks = taps.map(|t| {
            (
                calls_len(&t.driver),
                t.shards.iter().map(calls_len).collect::<Vec<_>>(),
            )
        });
        let wal_before = wal_position(taps);
        let t = Instant::now();
        let llh = session.iterate_once().map_err(err("iterate"))?;
        let wall = t.elapsed();
        m.iter_s.push(wall.as_secs_f64());
        m.iterations += 1;
        if let (Some(taps), Some((dmark, smarks)), Some(cursor)) = (taps, marks, cursor) {
            let calls = calls_since(&taps.driver, dmark);
            let shard_calls = taps
                .shards
                .iter()
                .zip(smarks)
                .map(|(log, mark)| calls_since(log, mark))
                .collect();
            let wal = match (wal_before, wal_position(Some(taps))) {
                (Some(a), Some(b)) if b.0 >= a.0 => Some((b.0 - a.0, b.1 - a.1)),
                _ => None,
            };
            let entries = session
                .executor()
                .metrics_since(cursor)
                .map_err(|e| format!("fetch telemetry: {e}"))?;
            m.traced.push(IterTrace {
                wall,
                calls,
                entries,
                shard_calls,
                wal,
            });
        }
        m.llh_bits.push(llh.to_bits());

        let t = Instant::now();
        let (next, want) =
            em_step(&oracle, &env.points).map_err(|e| format!("oracle em_step: {e}"))?;
        m.em_step_s.push(t.elapsed().as_secs_f64());
        let rel = ((llh - want) / want.abs().max(1.0)).abs();
        if rel.is_nan() || rel >= LLH_TOL {
            return Err(format!(
                "iteration {done}: llh {llh} vs oracle {want} (relative {rel:e})"
            ));
        }
        prev = std::mem::replace(&mut oracle, next);
        let got = session.params().map_err(err("read params"))?;
        let diff = param_diff(&got, &oracle);
        if diff.is_nan() || diff > PARAM_TOL {
            return Err(format!(
                "iteration {done}: params differ from the oracle by {diff:e}"
            ));
        }
        if plan.resumes > 0 {
            // A checkpoint after every iteration, as a checkpointing run
            // writes them, and timed driver resumes from it.
            checkpoint(&mut session, &m.llh_bits, &got)?;
            for _ in 0..plan.resumes {
                let t = Instant::now();
                let resumed = session.resume_from_checkpoint().map_err(err("resume"))?;
                m.recover_s.push(t.elapsed().as_secs_f64());
                if resumed != Some(m.llh_bits.len()) {
                    return Err(format!("resume found {resumed:?} iterations"));
                }
            }
            if session.params().map_err(err("read resumed params"))? != got {
                return Err("resumed model differs from the checkpointed one".into());
            }
        }
    }

    for i in 0..plan.scores {
        let mark = taps.map(|t| calls_len(&t.driver));
        let t = Instant::now();
        let scores = session.scores().map_err(err("scores"))?;
        m.score_s.push(t.elapsed().as_secs_f64());
        if let (Some(taps), Some(mark)) = (taps, mark) {
            let stmt = calls_since(&taps.driver, mark)
                .iter()
                .filter(|c| c.class.is_statement())
                .map(|c| c.dur.as_secs_f64())
                .sum();
            m.score_stmt_s.push(stmt);
        }
        if i == 0 {
            check_scores(&scores, &prev, &env.points)?;
        }
    }

    let params = session.params().map_err(err("read final params"))?;
    if plan.checkpoint {
        checkpoint(&mut session, &m.llh_bits, &params)?;
    }
    m.retries += session.retries() as u64;
    m.params = Some(params);
    Ok(())
}
