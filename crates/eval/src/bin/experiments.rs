//! Regenerate the paper's evaluation on the synthetic corpus.
//!
//! Usage:
//!
//! ```bash
//! # Everything, at the full (scaled-down) month: ~a few minutes in release.
//! cargo run --release -p kizzle-eval --bin experiments -- all
//!
//! # Everything, on a one-week quick window.
//! cargo run --release -p kizzle-eval --bin experiments -- quick
//!
//! # A single experiment by its id (e1, e2, e4, e5, e6, e10, e12)
//! # or `monthly` for the combined E3/E7/E8/E9/E11 run.
//! cargo run --release -p kizzle-eval --bin experiments -- e6
//! ```

use kizzle_eval::experiments;
use kizzle_eval::{EvalConfig, MonthlyEvaluation};

fn main() {
    let arg = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "quick".to_string());
    let seed = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(42u64);

    let report = match arg.as_str() {
        "all" => experiments::run_all(seed, false),
        "quick" => experiments::run_all(seed, true),
        "e1" => experiments::exp_cve_table(),
        "e2" => experiments::exp_evolution_timeline(),
        "e4" => experiments::exp_tokenization(),
        "e5" => experiments::exp_signatures(),
        "e6" => experiments::exp_similarity_over_time(),
        "e10" => experiments::exp_false_positive_case(),
        "e12" => experiments::exp_adversarial_cycle(),
        "monthly" => {
            let result = MonthlyEvaluation::new(EvalConfig::paper(seed)).run();
            experiments::render_monthly(&result)
        }
        "monthly-quick" => {
            let result = MonthlyEvaluation::new(EvalConfig::quick(seed)).run();
            experiments::render_monthly(&result)
        }
        other => {
            eprintln!("unknown experiment `{other}`; expected all|quick|monthly|monthly-quick|e1|e2|e4|e5|e6|e10|e12");
            std::process::exit(2);
        }
    };
    println!("{report}");
}
