//! Seeded input generation. Everything here is charged to `setup_s` or
//! runs between measured days; the product only ever sees the samples.

use crate::surface::{self, Sample, SimDate, PAGE_CLASSES};

/// SplitMix64 step: derives independent per-sample seeds from
/// `(seed, day, i)` without correlating neighbouring streams.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Exact per-class sample counts for a day of `total` pages (largest
/// remainder), so the day's composition — and with it the clustering
/// work — is the same for every seed; only page contents vary.
pub fn class_quotas(total: usize) -> [usize; PAGE_CLASSES] {
    let shares = surface::class_shares();
    let mut quotas = [0usize; PAGE_CLASSES];
    let mut remainders: Vec<(f64, usize)> = Vec::with_capacity(PAGE_CLASSES);
    for (class, share) in shares.iter().enumerate() {
        let exact = share * total as f64;
        quotas[class] = exact.floor() as usize;
        remainders.push((exact - exact.floor(), class));
    }
    remainders.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    let assigned: usize = quotas.iter().sum();
    for (_, class) in remainders.iter().take(total - assigned) {
        quotas[*class] += 1;
    }
    quotas
}

/// `quotas[class]` fresh pages of each class for day number `day`, class
/// by class. A page's id spells `day`, its class and its index; its
/// content depends on nothing but `seed` and its id, so two threads
/// generate half of them each.
fn stock_pages(seed: u64, day: u32, date: SimDate, quotas: &[usize; PAGE_CLASSES]) -> Vec<Sample> {
    let ids: Vec<(usize, u64)> = quotas
        .iter()
        .enumerate()
        .flat_map(|(class, &quota)| {
            (0..quota as u64).map(move |i| {
                let id = u64::from(day) * 1_000_000 + class as u64 * ID_CLASS_STRIDE + i;
                (class, id)
            })
        })
        .collect();
    let page = |&(class, id): &(usize, u64)| {
        surface::generate_page(class, date, id, mix(mix(seed) ^ mix(id)))
    };
    // Odd and even positions, not first and second half: kit pages come
    // first and cost several times what benign ones do.
    let half = |parity: usize| {
        ids.iter()
            .skip(parity)
            .step_by(2)
            .map(page)
            .collect::<Vec<_>>()
    };
    std::thread::scope(|scope| {
        let odd = scope.spawn(|| half(1));
        let mut samples = half(0);
        samples.extend(odd.join().expect("page generator thread"));
        samples
    })
}

const ID_CLASS_STRIDE: u64 = 100_000;

fn class_of(sample: &Sample) -> usize {
    (surface::sample_id(sample) / ID_CLASS_STRIDE % 10) as usize
}

/// `count` fresh pages in the stock mixture for day number `day`, in a
/// seeded order.
pub fn stock_day(seed: u64, day: u32, date: SimDate, count: usize) -> Vec<Sample> {
    let mut samples = stock_pages(seed, day, date, &class_quotas(count));
    surface::shuffle(&mut samples, mix(seed ^ (u64::from(day) << 32)));
    samples
}

/// The five source tokens of a variation prefix; each lexes to one token
/// of a different class, so distinct codes give distinct class strings.
const PREFIX_TOKENS: [&str; 5] = ["var", "a", ";", "\"s\"", "1"];
pub const PREFIX_LEN: usize = 8;
/// Distinct prefixes available: 5^8.
pub const PREFIX_SPACE: u64 = 390_625;

/// `<script>` + 8 tokens spelling `code` in base 5 + `</script>`.
pub fn variation_prefix(code: u64) -> String {
    let mut rest = code % PREFIX_SPACE;
    let mut prefix = String::from("<script>");
    for _ in 0..PREFIX_LEN {
        prefix.push_str(PREFIX_TOKENS[(rest % 5) as usize]);
        prefix.push(' ');
        rest /= 5;
    }
    prefix.push_str("</script>");
    prefix
}

/// Prefix code of sample `i` of day `day`: unique while
/// `days × per_day < PREFIX_SPACE`, offset by the seed.
pub fn prefix_code(seed: u64, day: u32, per_day: usize, i: usize) -> u64 {
    (mix(seed) % PREFIX_SPACE + u64::from(day) * per_day as u64 + i as u64) % PREFIX_SPACE
}

/// Give `samples[k]` the variation prefix of the day's page
/// `first + k`: nothing deduplicates, yet every page stays within `eps`
/// of its family.
fn add_prefixes(samples: &mut [Sample], seed: u64, day: u32, per_day: usize, first: usize) {
    for (k, sample) in samples.iter_mut().enumerate() {
        let code = prefix_code(seed, day, per_day, first + k);
        sample.html.insert_str(0, &variation_prefix(code));
    }
}

/// A day on which nothing deduplicates and nothing carries over.
pub fn diverse_day(seed: u64, day: u32, date: SimDate, count: usize) -> Vec<Sample> {
    let mut samples = stock_day(seed, day, date, count);
    add_prefixes(&mut samples, seed, day, count, 0);
    samples
}

/// A carry-over day of `count` pages: of every class's quota,
/// `keep_permille` are yesterday's pages of that class resubmitted
/// verbatim (seeded choice, re-dated) and the rest are fresh. Keeping
/// per class makes the day's composition the same for every seed.
pub fn overlap_day(
    seed: u64,
    day: u32,
    date: SimDate,
    yesterday: &[Sample],
    keep_permille: usize,
    count: usize,
) -> Vec<Sample> {
    let mut fresh_quotas = class_quotas(count);
    let mut samples = Vec::with_capacity(count);
    for (class, quota) in fresh_quotas.iter_mut().enumerate() {
        let mut pool: Vec<&Sample> = yesterday.iter().filter(|s| class_of(s) == class).collect();
        surface::shuffle(
            &mut pool,
            mix(seed ^ 0xCA44 ^ (u64::from(day) << 32) ^ class as u64),
        );
        pool.truncate(*quota * keep_permille / 1000);
        *quota -= pool.len();
        samples.extend(pool.into_iter().map(|kept| {
            let mut sample = kept.clone();
            sample.date = date;
            sample
        }));
    }
    let kept = samples.len();
    let mut fresh = stock_pages(seed, day, date, &fresh_quotas);
    add_prefixes(&mut fresh, seed, day, count, kept);
    samples.extend(fresh);
    surface::shuffle(&mut samples, mix(seed ^ 0x0DD5 ^ (u64::from(day) << 32)));
    samples
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn date() -> SimDate {
        SimDate::new(2014, 8, 5)
    }

    /// Edit distance, for the "stays within eps" claim.
    fn edits(a: &[u8], b: &[u8]) -> usize {
        let mut row: Vec<usize> = (0..=b.len()).collect();
        for (i, x) in a.iter().enumerate() {
            let mut diagonal = row[0];
            row[0] = i + 1;
            for (j, y) in b.iter().enumerate() {
                let substitute = diagonal + usize::from(x != y);
                diagonal = row[j + 1];
                row[j + 1] = substitute.min(row[j] + 1).min(row[j + 1] + 1);
            }
        }
        row[b.len()]
    }

    #[test]
    fn quotas_are_exact_and_follow_the_stock_mixture() {
        for total in [200, 240, 2_000, 8_000] {
            let quotas = class_quotas(total);
            assert_eq!(quotas.iter().sum::<usize>(), total);
            let malicious: usize = quotas[..surface::KIT_CLASSES].iter().sum();
            assert!(
                malicious.abs_diff(total * 15 / 100) <= 1,
                "15 % malicious at {total}"
            );
        }
    }

    #[test]
    fn prefix_lexes_to_exactly_eight_tokens_of_distinct_class_strings() {
        let mut seen = HashSet::new();
        for code in (0..PREFIX_SPACE).step_by(97).chain([0, PREFIX_SPACE - 1]) {
            let tokens = surface::tokenize_uncapped(&variation_prefix(code));
            assert_eq!(tokens.len(), PREFIX_LEN, "code {code}");
            seen.insert(tokens.class_string());
        }
        assert_eq!(seen.len(), (PREFIX_SPACE as usize).div_ceil(97) + 1);
    }

    #[test]
    fn diverse_day_has_distinct_class_strings_close_to_their_base() {
        let base = stock_day(3, 7, date(), 200);
        let tagged = diverse_day(3, 7, date(), 200);
        let mut strings = HashSet::new();
        for (plain, varied) in base.iter().zip(&tagged) {
            assert_eq!(plain.truth, varied.truth);
            let a = surface::tokenize_uncapped(&plain.html).class_string();
            let b = surface::tokenize_uncapped(&varied.html).class_string();
            assert_eq!(b.len(), a.len() + PREFIX_LEN);
            assert!(edits(&a, &b) <= PREFIX_LEN, "at most 8 edits from base");
            // Under the cap the prefix also pushes ≤ 8 tokens off the end.
            let capped_a = surface::tokenize(&plain.html).class_string();
            let capped_b = surface::tokenize(&varied.html).class_string();
            assert!(edits(&capped_a, &capped_b) <= 2 * PREFIX_LEN);
            strings.insert(capped_b);
        }
        assert_eq!(strings.len(), tagged.len(), "nothing deduplicates");
        // Without the prefix the same day collapses to a few strings.
        let collapsed: HashSet<Vec<u8>> = base
            .iter()
            .map(|s| surface::tokenize(&s.html).class_string())
            .collect();
        assert!(
            collapsed.len() < 60,
            "stock day dedups: {}",
            collapsed.len()
        );
    }

    #[test]
    fn prefix_codes_do_not_repeat_across_days() {
        let mut seen = HashSet::new();
        for day in 0..40 {
            for i in 0..240 {
                assert!(seen.insert(prefix_code(9, day, 240, i)));
            }
        }
    }

    #[test]
    fn overlap_day_resubmits_yesterday_verbatim_class_by_class() {
        let yesterday = diverse_day(1, 4, date(), 200);
        let today = date().next();
        let day = overlap_day(1, 5, today, &yesterday, 800, 200);
        assert_eq!(day.len(), 200);
        assert!(day.iter().all(|s| s.date == today));
        let old_html: HashSet<&str> = yesterday.iter().map(|s| s.html.as_str()).collect();
        let quotas = class_quotas(200);
        for (class, quota) in quotas.iter().enumerate() {
            let of_class: Vec<&Sample> = day.iter().filter(|s| class_of(s) == class).collect();
            assert_eq!(of_class.len(), *quota, "class {class} keeps its quota");
            let carried = of_class
                .iter()
                .filter(|s| old_html.contains(s.html.as_str()))
                .count();
            assert_eq!(carried, quota * 800 / 1000, "class {class} carries 80 %");
        }
        let distinct: HashSet<Vec<u8>> = day
            .iter()
            .map(|s| surface::tokenize(&s.html).class_string())
            .collect();
        assert_eq!(
            distinct.len(),
            200,
            "no page carried twice, fresh pages are new"
        );
        let again = overlap_day(1, 5, today, &yesterday, 800, 200);
        assert_eq!(day, again, "same seed, same day");
        // A second carry-over day still finds its classes.
        let next = overlap_day(1, 6, today.next(), &day, 800, 200);
        assert_eq!(next.iter().filter(|s| class_of(s) == 1).count(), quotas[1]);
    }

    #[test]
    fn stock_day_is_a_function_of_its_seed() {
        let a = stock_day(5, 2, date(), 60);
        assert_eq!(a, stock_day(5, 2, date(), 60));
        assert_ne!(a, stock_day(6, 2, date(), 60));
    }
}
