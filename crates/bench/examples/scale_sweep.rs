//! Index insert at scale: how the neighbor index's work grows with the
//! number of *distinct* class strings in one day (ROADMAP item 3a).
//!
//! ```sh
//! cargo run --release -p kizzle-bench --example scale_sweep            # 500 … 8,000, both shapes
//! cargo run --release -p kizzle-bench --example scale_sweep -- --shape scattered
//! cargo run --release -p kizzle-bench --example scale_sweep -- --check # 2,000, gated
//! ```
//!
//! Each size runs twice at eps 0.10: the whole day as one `insert_batch`,
//! and streamed in batches of 32 the way a `DaySession` feeds it. Both
//! arms must memoize the same neighbor lists (the `lists` digest); what
//! differs is the pivot table they grow and therefore the kernel calls
//! they pay. This regenerates the scale table in PERF.md and ROADMAP.md.
//!
//! The day comes in two shapes, one table each (`--shape prefix|scattered`
//! for one of them): `prefix` is `distinct_day_class_strings(n, 900)`,
//! where two variants of a page differ only in their first six symbols —
//! the kernel strips everything else before it computes anything — and
//! `scattered` is `scattered_day_class_strings(n, 900)`, the same tags
//! spread over the page, where it can strip a seventh of it at best. The
//! seconds of a kernel change are only honest read on both.
//!
//! `--check` runs the 2,000-string row only and fails above a kernel-call
//! ceiling. The counts repeat exactly from run to run, so the gate is a
//! count, not a time.

use kizzle_bench::{distinct_day_class_strings, scattered_day_class_strings};
use kizzle_cluster::{IndexStats, NeighborIndex, SampleId};
use std::sync::Arc;
use std::time::Instant;

/// One shape of day: its name, its generator, and its kernel-call ceilings
/// for the `--check` row (2,000 strings), one batch then streamed — 1.25×
/// the counts measured when the pivot bounds landed (`prefix`: 133,941 as
/// one batch, 89,945 streamed; the pair-by-pair index paid 965,774 and
/// 506,520) and when the shape was added (`scattered`: 98,888 and 51,652).
type Shape = (&'static str, fn(usize, usize) -> Vec<Vec<u8>>, [usize; 2]);
const SHAPES: [Shape; 2] = [
    ("prefix", distinct_day_class_strings, [167_000, 112_000]),
    ("scattered", scattered_day_class_strings, [124_000, 65_000]),
];
const CHECK_SIZE: usize = 2_000;

struct Row {
    seconds: f64,
    stats: IndexStats,
    pivots: usize,
    /// FNV-1a over every memoized neighbor list, in slot order.
    lists: u64,
}

fn run(day: &[Vec<u8>], batch: usize) -> Row {
    let mut index = NeighborIndex::new(0.10);
    let items: Vec<(SampleId, Arc<[u8]>)> = day
        .iter()
        .enumerate()
        .map(|(i, s)| (SampleId::new(i as u32), Arc::from(&s[..])))
        .collect();
    let started = Instant::now();
    for chunk in items.chunks(batch) {
        index.insert_batch(chunk.to_vec());
    }
    let seconds = started.elapsed().as_secs_f64();
    let stats = index.take_stats();
    let mut lists: u64 = 0xcbf2_9ce4_8422_2325;
    for i in 0..day.len() {
        for id in index.neighbors(SampleId::new(i as u32)) {
            lists = (lists ^ u64::from(id.raw())).wrapping_mul(0x0000_0100_0000_01b3);
        }
        lists = (lists ^ u64::from(u32::MAX)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    Row {
        seconds,
        stats,
        pivots: index.pivot_count(),
        lists,
    }
}

fn print(n: usize, arm: &str, row: &Row) {
    let s = &row.stats;
    println!(
        "{n:>6}  {arm:<11} {:>8.3}  {:>12}  {:>11}  {:>11}  {:>11}  {:>10}  {:>6}  {:016x}",
        row.seconds,
        s.distance_calls,
        s.pivot_calls,
        s.accepted_by_pivot,
        s.rejected_by_pivot,
        s.neighbors_found,
        row.pivots,
        row.lists,
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|arg| arg == "--check");
    let only = args
        .iter()
        .position(|arg| arg == "--shape")
        .map(|at| match args.get(at + 1) {
            Some(name) if SHAPES.iter().any(|(shape, ..)| shape == name) => name.as_str(),
            other => {
                eprintln!("scale_sweep: --shape takes prefix or scattered, got {other:?}");
                std::process::exit(2);
            }
        });
    let sizes: &[usize] = if check {
        &[CHECK_SIZE]
    } else {
        &[500, 1_000, 2_000, 4_000, 8_000]
    };
    let mut failed = false;
    for (shape, generate, ceilings) in SHAPES {
        if only.is_some_and(|name| name != shape) {
            continue;
        }
        println!("shape: {shape}");
        println!(
            "     n  arm          seconds  kernel_calls  pivot_calls  acc_by_piv  rej_by_piv  \
             neighbors  pivots  lists"
        );
        for &n in sizes {
            let day = generate(n, 900);
            let one_batch = run(&day, n);
            print(n, "one batch", &one_batch);
            let streamed = run(&day, 32);
            print(n, "streamed 32", &streamed);
            if one_batch.lists != streamed.lists {
                eprintln!(
                    "scale_sweep: {shape}, n = {n}: the two arms memoized different neighbor lists"
                );
                failed = true;
            }
            if check {
                for (arm, row, ceiling) in [
                    ("one batch", &one_batch, ceilings[0]),
                    ("streamed 32", &streamed, ceilings[1]),
                ] {
                    if row.stats.distance_calls > ceiling {
                        eprintln!(
                            "scale_sweep: {shape}, n = {n}, {arm}: {} kernel calls, ceiling {ceiling}",
                            row.stats.distance_calls
                        );
                        failed = true;
                    }
                }
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
