//! Per-iteration cost of hybrid SQLEM as EM converges: one fresh
//! in-process run on the retail workload (p = 6, k = 9; points from
//! seed 7, random initial model from seed 7, as `emperf` uses), timing
//! each iteration and splitting it by statement class from the engine's
//! own telemetry.
//!
//! ```text
//! cargo run --release --example iteration_trend [iterations] [n]
//! ```
//!
//! Defaults: 8 iterations, n = 50,000. Prints one tab-separated row per
//! iteration: total seconds, then the `YD` distance statement, the k `C`
//! mean statements, the k `RK` covariance statements, the weight (`W`)
//! statements, and everything else.

use datagen::retail::{retail_dataset, RetailConfig, RETAIL_K, RETAIL_P};
use emcore::init::InitStrategy;
use sqlem::{EmSession, SqlemConfig, Strategy};
use sqlengine::Database;
use std::time::Instant;

fn main() {
    let mut args = std::env::args().skip(1);
    let iterations: usize = args.next().and_then(|v| v.parse().ok()).unwrap_or(8);
    let n: usize = args.next().and_then(|v| v.parse().ok()).unwrap_or(50_000);

    let data = retail_dataset(&RetailConfig { n, seed: 7 });
    let mut db = Database::new();
    let config = SqlemConfig::new(RETAIL_K, Strategy::Hybrid).with_epsilon(0.0);
    let mut session = EmSession::create(&mut db, &config, RETAIL_P).expect("create");
    session.load_points(&data.points).expect("load");
    session
        .initialize(&InitStrategy::Random { seed: 7 })
        .expect("initialize");
    session.enable_telemetry().expect("telemetry");

    println!("iter\titer_s\tYD_s\tC_s\tRK_s\tW_s\tother_s");
    for i in 1..=iterations {
        let t = Instant::now();
        session.iterate_once().expect("iterate");
        let total = t.elapsed().as_secs_f64();
        let report = session.iteration_reports().last().expect("telemetry on");
        // [YD, C, RK, W, other]
        let mut split = [0.0f64; 5];
        for step in &report.steps {
            let p = step.purpose.as_str();
            let class = if p.contains("(YD") {
                0
            } else if p.contains("(C)") {
                1
            } else if p.contains("(RK)") {
                2
            } else if p.starts_with("M:") && p.contains('W') {
                3
            } else {
                4
            };
            split[class] += step.elapsed.as_secs_f64();
        }
        let cols: Vec<String> = split.iter().map(|s| format!("{s:.3}")).collect();
        println!("{i}\t{total:.3}\t{}", cols.join("\t"));
    }
}
