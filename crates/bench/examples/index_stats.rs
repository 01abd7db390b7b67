//! Print the neighbor-index pruning funnel on a synthetic day.
//!
//! ```sh
//! cargo run --release -p kizzle-bench --example index_stats [samples]
//! ```
//!
//! This regenerates the pruning-efficiency table in PERF.md.

use kizzle_bench::synthetic_day_class_strings;
use kizzle_cluster::{dbscan_indexed, DbscanParams};
use std::time::Instant;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(1000);
    let day = synthetic_day_class_strings(n, 900);
    let params = DbscanParams::new(0.10, 4);

    let t = Instant::now();
    let (result, stats) = dbscan_indexed(&day, &params);
    let elapsed = t.elapsed();

    let all_ordered_pairs = n * n.saturating_sub(1);
    println!("samples:                {n}");
    println!("clusters:               {}", result.cluster_count());
    println!("noise:                  {}", result.noise_count());
    println!("wall clock:             {elapsed:?}");
    println!("ordered pairs:          {all_ordered_pairs}");
    println!(
        "survived length window: {} ({:.2}%)",
        stats.window_candidates,
        100.0 * stats.window_candidates as f64 / all_ordered_pairs.max(1) as f64
    );
    println!(
        "pruned by histogram:    {} ({:.2}% of window)",
        stats.pruned_by_histogram,
        100.0 * stats.pruned_by_histogram as f64 / stats.window_candidates.max(1) as f64
    );
    let survivors = stats.window_candidates - stats.pruned_by_histogram;
    println!(
        "pivot calls:            {} (one per group of survivors sharing a pivot)",
        stats.pivot_calls
    );
    println!(
        "accepted by pivot:      {} ({:.2}% of survivors)",
        stats.accepted_by_pivot,
        100.0 * stats.accepted_by_pivot as f64 / survivors.max(1) as f64
    );
    println!(
        "rejected by pivot:      {} ({:.2}% of survivors)",
        stats.rejected_by_pivot,
        100.0 * stats.rejected_by_pivot as f64 / survivors.max(1) as f64
    );
    println!(
        "edit-distance calls:    {} ({:.2}% of all pairs; pivot calls included)",
        stats.distance_calls,
        100.0 * stats.distance_calls as f64 / all_ordered_pairs.max(1) as f64
    );
    println!("neighbors found:        {}", stats.neighbors_found);
}
