//! The scalar edit distances: the reference implementations the
//! bit-parallel kernel (`BitParallelPattern`) is held to. No product path
//! calls them. `src/distance.rs` includes this file for its unit tests.

/// Plain Levenshtein edit distance (insertions, deletions, substitutions
/// all cost 1). `O(|a| · |b|)` time, `O(min(|a|, |b|))` space.
#[must_use]
pub fn edit_distance(a: &[u8], b: &[u8]) -> usize {
    // Keep the shorter string as the row to minimize memory.
    let (a, b) = if a.len() < b.len() { (a, b) } else { (b, a) };
    if a.is_empty() {
        return b.len();
    }
    let mut prev: Vec<usize> = (0..=a.len()).collect();
    let mut curr: Vec<usize> = vec![0; a.len() + 1];
    for (j, &bc) in b.iter().enumerate() {
        curr[0] = j + 1;
        for (i, &ac) in a.iter().enumerate() {
            let cost = usize::from(ac != bc);
            curr[i + 1] = (prev[i] + cost).min(prev[i + 1] + 1).min(curr[i] + 1);
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[a.len()]
}

/// Edit distance with an upper bound: `None` as soon as the distance is
/// guaranteed to exceed `max`, otherwise the exact distance.
///
/// Ukkonen's band: only diagonals within `max` of the main diagonal are
/// explored, so the cost is `O(max · min(|a|, |b|))`.
#[must_use]
pub fn edit_distance_bounded(a: &[u8], b: &[u8], max: usize) -> Option<usize> {
    let (a, b) = if a.len() < b.len() { (a, b) } else { (b, a) };
    let (n, m) = (a.len(), b.len());
    if m - n > max {
        return None;
    }
    if n == 0 {
        return Some(m);
    }

    const INF: usize = usize::MAX / 2;
    let mut prev = vec![INF; n + 1];
    let mut curr = vec![INF; n + 1];
    for (i, slot) in prev.iter_mut().enumerate().take(max.min(n) + 1) {
        *slot = i;
    }

    for j in 1..=m {
        // Band limits for row index i (1-based over `a`).
        let lo = j.saturating_sub(max).max(1);
        let hi = (j + max).min(n);
        if lo > hi {
            return None;
        }
        curr[lo - 1] = if lo == 1 { j } else { INF };
        let mut row_min = curr[lo - 1];
        let bc = b[j - 1];
        for i in lo..=hi {
            let cost = usize::from(a[i - 1] != bc);
            let diag = prev[i - 1].saturating_add(cost);
            let up = prev[i].saturating_add(1);
            let left = curr[i - 1].saturating_add(1);
            let v = diag.min(up).min(left);
            curr[i] = v;
            row_min = row_min.min(v);
        }
        if hi < n {
            curr[hi + 1] = INF;
        }
        if row_min > max {
            return None;
        }
        std::mem::swap(&mut prev, &mut curr);
        // No need to clear `curr` (the old `prev`): the next iteration
        // overwrites every cell it will read. The band only moves by one
        // position per row, `curr[lo - 1]` and `curr[hi + 1]` are set
        // explicitly, and cells outside `[lo - 1, hi + 1]` are never read.
    }
    let d = prev[n];
    (d <= max).then_some(d)
}

/// Normalized edit distance: edit distance divided by the length of the
/// longer string, in `[0, 1]`. Two empty strings are at distance 0.
#[must_use]
pub fn normalized_edit_distance(a: &[u8], b: &[u8]) -> f64 {
    let max_len = a.len().max(b.len());
    if max_len == 0 {
        return 0.0;
    }
    edit_distance(a, b) as f64 / max_len as f64
}
