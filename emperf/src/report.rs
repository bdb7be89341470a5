//! Turning samples into metrics: medians, the per-layer split of a
//! traced run, host conditions from `/proc`, and the JSON result line.

use std::time::Instant;

use datagen::retail::{RETAIL_K, RETAIL_P};
use sqlem::scan_threshold;

use crate::round::{IterTrace, Measure};
use crate::timed::{Call, Class};

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// `name = value unit`, for the human-readable report.
pub fn metric_line(m: &Metric) -> String {
    format!("{:<40} {:>16.6} {}", m.name, m.value, m.unit)
}

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Smallest of `xs` (0 when empty).
pub fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

fn secs(calls: &[Call], keep: impl Fn(&Call) -> bool) -> f64 {
    calls
        .iter()
        .filter(|c| keep(c))
        .map(|c| c.dur.as_secs_f64())
        .sum()
}

/// Per-shard busy time inside `[from, to]`.
fn shard_busy(shards: &[Vec<Call>], from: Instant, to: Instant) -> Vec<f64> {
    shards
        .iter()
        .map(|calls| secs(calls, |c| c.start >= from && c.end() <= to))
        .collect()
}

/// Per-iteration figures of one traced iteration.
#[derive(Default)]
struct Split {
    stmt: [f64; 7],
    driver_self: f64,
    unattributed: f64,
    stmts: f64,
    exec: f64,
    plan: f64,
    n_scans: f64,
    pn_scans: f64,
    build_rows: f64,
    probe_rows: f64,
    groups: f64,
    expr_evals: f64,
    rows_written: f64,
    peak_mem: f64,
    wire: f64,
    coord_self: f64,
    skew_num: f64,
    skew_den: f64,
    busy: Vec<f64>,
}

const STMT_CLASSES: [Class; 7] = [
    Class::Yd,
    Class::C,
    Class::Rk,
    Class::Yp,
    Class::Yx,
    Class::W,
    Class::Small,
];

fn split(t: &IterTrace, n: usize, small_rtt: &mut Vec<f64>) -> Result<Split, String> {
    let mut s = Split::default();
    for (slot, class) in STMT_CLASSES.iter().enumerate() {
        s.stmt[slot] = secs(&t.calls, |c| c.class == *class);
    }
    let wall = t.wall.as_secs_f64();
    let in_calls = secs(&t.calls, |_| true);
    let in_stmts: f64 = s.stmt.iter().sum();
    s.driver_self = wall - in_calls;
    s.unattributed = in_calls - in_stmts;

    let stmt_calls: Vec<&Call> = t.calls.iter().filter(|c| c.class.is_statement()).collect();
    s.stmts = stmt_calls.len() as f64;
    if stmt_calls.len() != t.entries.len() {
        return Err(format!(
            "{} statements but {} telemetry entries in one iteration",
            stmt_calls.len(),
            t.entries.len()
        ));
    }
    let threshold = scan_threshold(n, RETAIL_P, RETAIL_K);
    for (call, e) in stmt_calls.iter().zip(&t.entries) {
        let elapsed = e.elapsed.as_secs_f64();
        s.exec += elapsed;
        s.plan += e.plan_time.as_secs_f64();
        for scan in e.driver_scans() {
            if scan.rows > n {
                s.pn_scans += 1.0;
            } else if scan.rows >= threshold {
                s.n_scans += 1.0;
            }
        }
        s.build_rows += e.join_build_rows as f64;
        s.probe_rows += e.join_probe_rows as f64;
        s.groups += e.groups as f64;
        s.expr_evals += e.expr_evals as f64;
        s.rows_written += e.rows_written() as f64;
        s.peak_mem = s.peak_mem.max(e.peak_mem_bytes as f64);

        let dur = call.dur.as_secs_f64();
        if t.shard_calls.is_empty() {
            s.wire += dur - elapsed;
            if call.class == Class::Small {
                small_rtt.push((dur - elapsed) * 1e6);
            }
        } else {
            // Behind a coordinator: the wire sits between the slowest
            // shard's call and that shard's engine time; the rest of the
            // coordinator's call is its own scatter/merge work.
            let busy = shard_busy(&t.shard_calls, call.start, call.end());
            let slowest = busy.iter().copied().fold(0.0, f64::max);
            let fastest = busy.iter().copied().fold(f64::INFINITY, f64::min);
            s.wire += slowest - elapsed;
            s.coord_self += dur - slowest;
            s.skew_num += slowest - fastest;
            s.skew_den += slowest;
            if call.class == Class::Small {
                small_rtt.push((slowest - elapsed) * 1e6);
            }
        }
    }
    s.busy = t
        .shard_calls
        .iter()
        .map(|calls| secs(calls, |_| true))
        .collect();
    Ok(s)
}

/// The §3.5 cost contract: every traced iteration performs exactly
/// 2k+3 n-row scans and one pn-row scan.
pub fn check_scan_contract(m: &Measure, n: usize) -> Result<(), String> {
    let mut sink = Vec::new();
    for (i, t) in m.traced.iter().enumerate() {
        let s = split(t, n, &mut sink)?;
        let want = (2 * RETAIL_K + 3) as f64;
        if s.n_scans != want || s.pn_scans != 1.0 {
            return Err(format!(
                "traced iteration {i}: {} n-row and {} pn-row scans, the cost model says {want} and 1",
                s.n_scans, s.pn_scans
            ));
        }
    }
    Ok(())
}

/// Per-layer metrics of a traced run. `untraced_iter_s` is the median
/// iteration time of the same number of untraced iterations.
pub fn per_layer(m: &Measure, n: usize, untraced_iter_s: f64) -> Result<Vec<Metric>, String> {
    let mut small_rtt = Vec::new();
    let splits = m
        .traced
        .iter()
        .map(|t| split(t, n, &mut small_rtt))
        .collect::<Result<Vec<_>, _>>()?;
    let med = |f: &dyn Fn(&Split) -> f64| median(&splits.iter().map(f).collect::<Vec<_>>());
    let smalls: Vec<f64> = m
        .traced
        .iter()
        .flat_map(|t| t.calls.iter().filter(|c| c.class == Class::Small))
        .map(|c| c.dur.as_secs_f64() * 1e6)
        .collect();
    let wal = |f: fn((u64, u64)) -> u64| {
        median(
            &m.traced
                .iter()
                .filter_map(|t| t.wal.map(|w| f(w) as f64))
                .collect::<Vec<_>>(),
        )
    };
    let busy = |shard: usize| med(&|s| s.busy.get(shard).copied().unwrap_or(0.0));
    let skew_den: f64 = splits.iter().map(|s| s.skew_den).sum();
    let skew = if skew_den > 0.0 {
        splits.iter().map(|s| s.skew_num).sum::<f64>() / skew_den
    } else {
        0.0
    };
    let traced_iter = median(
        &m.traced
            .iter()
            .map(|t| t.wall.as_secs_f64())
            .collect::<Vec<_>>(),
    );
    Ok(vec![
        Metric::new("sqlem.create_s", median(&m.create_s), "s"),
        Metric::new("sqlem.load_s", median(&m.load_s), "s"),
        Metric::new("sqlem.init_s", median(&m.init_s), "s"),
        Metric::new("sqlem.driver_self_s", med(&|s| s.driver_self), "s"),
        Metric::new("sqlem.stmts_per_iter", med(&|s| s.stmts), "count"),
        Metric::new("stmt.yd_s", med(&|s| s.stmt[0]), "s"),
        Metric::new("stmt.c_s", med(&|s| s.stmt[1]), "s"),
        Metric::new("stmt.rk_s", med(&|s| s.stmt[2]), "s"),
        Metric::new("stmt.yp_s", med(&|s| s.stmt[3]), "s"),
        Metric::new("stmt.yx_s", med(&|s| s.stmt[4]), "s"),
        Metric::new("stmt.w_s", med(&|s| s.stmt[5]), "s"),
        Metric::new("stmt.small_s", med(&|s| s.stmt[6]), "s"),
        Metric::new("stmt.small_us", median(&smalls), "us"),
        Metric::new("stmt.score_s", median(&m.score_stmt_s), "s"),
        Metric::new("sqlengine.exec_s", med(&|s| s.exec), "s"),
        Metric::new("sqlengine.plan_s", med(&|s| s.plan), "s"),
        Metric::new("sqlengine.n_scans", med(&|s| s.n_scans), "count"),
        Metric::new("sqlengine.pn_scans", med(&|s| s.pn_scans), "count"),
        Metric::new("sqlengine.join_build_rows", med(&|s| s.build_rows), "count"),
        Metric::new("sqlengine.join_probe_rows", med(&|s| s.probe_rows), "count"),
        Metric::new("sqlengine.groups", med(&|s| s.groups), "count"),
        Metric::new("sqlengine.expr_evals", med(&|s| s.expr_evals), "count"),
        Metric::new("sqlengine.rows_written", med(&|s| s.rows_written), "count"),
        Metric::new("sqlengine.peak_mem_bytes", med(&|s| s.peak_mem), "bytes"),
        Metric::new("sqlengine.wal.bytes_per_iter", wal(|w| w.0), "bytes"),
        Metric::new("sqlengine.wal.frames_per_iter", wal(|w| w.1), "count"),
        Metric::new(
            "sqlengine.wal.load_bytes_per_user_byte",
            median(&m.wal_load_ratio),
            "ratio",
        ),
        Metric::new("sqlwire.overhead_s", med(&|s| s.wire), "s"),
        Metric::new("sqlwire.small_rtt_us", median(&small_rtt), "us"),
        Metric::new("sqlwire.bulk_s", median(&m.bulk_s), "s"),
        Metric::new("cluster.self_s", med(&|s| s.coord_self), "s"),
        Metric::new("cluster.shard0_busy_s", busy(0), "s"),
        Metric::new("cluster.shard1_busy_s", busy(1), "s"),
        Metric::new("cluster.skew", skew, "ratio"),
        Metric::new("emcore.em_step_s", median(&m.em_step_s), "s"),
        Metric::new("trace.iter_s", traced_iter, "s"),
        Metric::new("trace.unattributed_s", med(&|s| s.unattributed), "s"),
        Metric::new(
            "trace.overhead",
            traced_iter / untraced_iter_s - 1.0,
            "ratio",
        ),
    ])
}

/// Whole-machine CPU tick counters from the first line of `/proc/stat`:
/// (total, steal).
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (
        fields.iter().take(8).sum(),
        fields.get(7).copied().unwrap_or(0),
    )
}

/// Share of machine CPU time stolen by the host between two readings.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.0.saturating_sub(before.0);
    if total == 0 {
        return 0.0;
    }
    after.1.saturating_sub(before.1) as f64 / total as f64
}

/// One-minute load average.
pub fn loadavg() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// This process's user and system CPU seconds (100 ticks per second).
pub fn cpu_secs() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0) / 100.0;
    (ticks(11), ticks(12))
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A JSON number: full precision, and never NaN or infinite.
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

/// JSON object of `metrics`, each as `{"value": …, "unit": …}`.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}
