//! One entry point per paper figure/table (ids E1–E12, as the
//! `experiments` binary names them). Every function returns a plain-text
//! report; the binary prints them, so a run regenerates every figure.

use crate::adversarial::run_cycle;
use crate::monthly::{EvalConfig, MonthlyEvaluation, MonthlyResult};
use crate::similarity::{plugindetect_overlap_with_nuclear, similarity_over_time};
use kizzle::{KizzleConfig, ReferenceCorpus};
use kizzle_corpus::evolution::timeline;
use kizzle_corpus::family::cve_table;
use kizzle_corpus::{KitFamily, KitModel, SimDate};
use kizzle_winnow::WinnowConfig;
use std::fmt::Write as _;

/// E1 / Fig. 2 — the CVE-per-kit table.
#[must_use]
pub fn exp_cve_table() -> String {
    format!(
        "[E1 / Fig. 2] CVEs used by each exploit kit\n{}",
        cve_table()
    )
}

/// E2 / Fig. 5 — the Nuclear evolution timeline.
#[must_use]
pub fn exp_evolution_timeline() -> String {
    format!("[E2 / Fig. 5] {}", timeline(KitFamily::Nuclear))
}

/// E4 / Fig. 8 — tokenization of the paper's example line.
#[must_use]
pub fn exp_tokenization() -> String {
    let stream = kizzle_js::tokenize(r#"var Euur1V = this["l9D"]("ev#333399al")"#);
    format!(
        "[E4 / Fig. 8] Tokenization in action\n{}",
        stream.to_table()
    )
}

/// E5 / Figs. 9–10 — signature generation for each kit from a small
/// same-day cluster of packed samples.
#[must_use]
pub fn exp_signatures() -> String {
    use rand::SeedableRng;
    let date = SimDate::new(2014, 8, 26);
    let config = KizzleConfig::paper();
    let mut out = String::from("[E5 / Figs. 9-10] Kizzle-generated signatures (one per kit)\n");
    for family in KitFamily::ALL {
        let model = KitModel::new(family);
        let samples: Vec<_> = (0..6u64)
            .map(|i| {
                let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1000 + i);
                kizzle_js::tokenize_document_capped(
                    &model.generate_sample(date, &mut rng),
                    config.token_cap,
                )
            })
            .collect();
        match kizzle_signature::generate_signature(
            &format!("{}.sig", family.short_code()),
            &samples,
            &config.signature,
        ) {
            Ok(sig) => {
                let rendered = sig.render();
                let shown: String = rendered.chars().take(400).collect();
                let _ = writeln!(
                    out,
                    "--- {} ({} tokens, {} chars) ---\n{}{}",
                    family,
                    sig.len(),
                    sig.rendered_len(),
                    shown,
                    if rendered.len() > 400 { "…" } else { "" }
                );
            }
            Err(e) => {
                let _ = writeln!(out, "--- {family} --- signature generation failed: {e}");
            }
        }
    }
    out
}

/// E6 / Fig. 11 — unpacked similarity over time, per kit.
#[must_use]
pub fn exp_similarity_over_time() -> String {
    let cfg = WinnowConfig::default();
    let mut out = String::from(
        "[E6 / Fig. 11] Unpacked-body similarity with all previous days (max winnow overlap)\n",
    );
    for family in KitFamily::ALL {
        let series = similarity_over_time(
            family,
            SimDate::evaluation_start(),
            SimDate::evaluation_end(),
            &cfg,
        );
        let _ = writeln!(out, "{family}:");
        for point in &series {
            let _ = writeln!(
                out,
                "  {:>6}  {:5.1}%",
                point.date.axis_label(),
                point.max_overlap_with_history * 100.0
            );
        }
    }
    out
}

/// E10 / Fig. 15 — the PluginDetect false-positive overlap with Nuclear.
#[must_use]
pub fn exp_false_positive_case() -> String {
    let overlap = plugindetect_overlap_with_nuclear(1, &WinnowConfig::default());
    format!(
        "[E10 / Fig. 15] Benign PluginDetect page vs unpacked Nuclear\n\
         winnow overlap = {:.1}% (paper reports 79% for its corpus)\n\
         labeling threshold for Nuclear = {:.0}%, so the page is {}\n",
        overlap * 100.0,
        KizzleConfig::paper().label_threshold * 100.0,
        if overlap >= KizzleConfig::paper().label_threshold {
            "labeled malicious (a Kizzle false positive)"
        } else {
            "(usually) kept benign by the threshold"
        }
    )
}

/// E12 / Fig. 1 — the adversarial cycle.
#[must_use]
pub fn exp_adversarial_cycle() -> String {
    let result = run_cycle(KitFamily::Nuclear, 6, 7);
    let mut out = String::from(
        "[E12 / Fig. 1] Adversarial cycle: mutating Nuclear vs Kizzle and lagged AV\n",
    );
    let _ = writeln!(
        out,
        "attacker mutations: {}; days Kizzle detected majority: {}/31; AV: {}/31",
        result.mutations,
        result.kizzle_winning_days(),
        result.av_winning_days()
    );
    for day in &result.days {
        let _ = writeln!(
            out,
            "  {:>6}  mutated={}  kizzle={:5.1}%  av={:5.1}%",
            day.date.axis_label(),
            if day.attacker_mutated { "yes" } else { " no" },
            day.kizzle_detection * 100.0,
            day.av_detection * 100.0
        );
    }
    out
}

/// Render the monthly-evaluation experiments (E3 / Fig. 6, E7 / Fig. 12,
/// E8 / Fig. 13, E9 / Fig. 14, E11 / §IV performance) from one evaluation
/// run, because they all come from the same simulation.
#[must_use]
pub fn render_monthly(result: &MonthlyResult) -> String {
    let mut out = String::new();

    // E3 / Fig. 6 — Angler window of vulnerability.
    out.push_str("[E3 / Fig. 6] Angler false negatives over time (window of vulnerability)\n");
    out.push_str("  day      AV FN%   Kizzle FN%\n");
    for day in &result.days {
        let _ = writeln!(
            out,
            "  {:>6}  {:6.1}%   {:6.1}%",
            day.date.axis_label(),
            day.av_angler.fn_rate() * 100.0,
            day.kizzle_angler.fn_rate() * 100.0
        );
    }

    // E7 / Fig. 12 — signature lengths over time.
    out.push_str("\n[E7 / Fig. 12] Kizzle signature lengths over time (characters)\n");
    out.push_str("  day      RIG   Angler  SweetOr  Nuclear   new signatures\n");
    for day in &result.days {
        let _ = writeln!(
            out,
            "  {:>6}  {:5}  {:6}  {:7}  {:7}   {}",
            day.date.axis_label(),
            day.signature_length(KitFamily::Rig),
            day.signature_length(KitFamily::Angler),
            day.signature_length(KitFamily::SweetOrange),
            day.signature_length(KitFamily::Nuclear),
            day.new_signatures.join(" ")
        );
    }

    // E8 / Fig. 13 — FP/FN rates over time.
    out.push_str("\n[E8 / Fig. 13] False positives and false negatives over time\n");
    out.push_str("  day      AV FP%   Kizzle FP%   AV FN%   Kizzle FN%\n");
    for day in &result.days {
        let _ = writeln!(
            out,
            "  {:>6}  {:6.3}%  {:9.3}%  {:6.1}%  {:9.1}%",
            day.date.axis_label(),
            day.av.fp_rate() * 100.0,
            day.kizzle.fp_rate() * 100.0,
            day.av.fn_rate() * 100.0,
            day.kizzle.fn_rate() * 100.0
        );
    }
    let kizzle_total = result.kizzle_total();
    let av_total = result.av_total();
    let _ = writeln!(
        out,
        "  window totals: Kizzle FP {:.3}% FN {:.1}%  |  AV FP {:.3}% FN {:.1}%",
        kizzle_total.fp_rate() * 100.0,
        kizzle_total.fn_rate() * 100.0,
        av_total.fp_rate() * 100.0,
        av_total.fn_rate() * 100.0
    );

    // E9 / Fig. 14 — absolute counts.
    out.push_str("\n[E9 / Fig. 14] Absolute false positives / negatives per kit\n");
    out.push_str("  EK            Ground truth   AV FP   AV FN   Kizzle FP   Kizzle FN\n");
    let mut sums = (0usize, 0usize, 0usize, 0usize, 0usize);
    for family in KitFamily::ALL {
        let counts = result.family(family);
        sums.0 += counts.ground_truth;
        sums.1 += counts.av_fp;
        sums.2 += counts.av_fn;
        sums.3 += counts.kizzle_fp;
        sums.4 += counts.kizzle_fn;
        let _ = writeln!(
            out,
            "  {:<13} {:12}  {:6}  {:6}  {:10}  {:10}",
            family.name(),
            counts.ground_truth,
            counts.av_fp,
            counts.av_fn,
            counts.kizzle_fp,
            counts.kizzle_fn
        );
    }
    let _ = writeln!(
        out,
        "  {:<13} {:12}  {:6}  {:6}  {:10}  {:10}",
        "Sum", sums.0, sums.1, sums.2, sums.3, sums.4
    );

    // E11 / §IV — processing performance.
    out.push_str("\n[E11 / §IV] Cluster-based processing performance\n");
    let total_seconds: f64 = result.days.iter().map(|d| d.clustering_seconds).sum();
    let clusters_min = result.days.iter().map(|d| d.clusters).min().unwrap_or(0);
    let clusters_max = result.days.iter().map(|d| d.clusters).max().unwrap_or(0);
    let _ = writeln!(
        out,
        "  clusters per day: {clusters_min}..{clusters_max} (paper: 280..1,200 at ~1000x our scale)\n  \
         clustering time over the window: {total_seconds:.1}s on one machine (paper: ~90 min/day on 50 machines)"
    );
    out
}

/// Run every experiment and return a single combined report. `seed` drives
/// the grayware stream of the monthly simulation.
#[must_use]
pub fn run_all(seed: u64, quick: bool) -> String {
    let mut out = String::new();
    out.push_str(&exp_cve_table());
    out.push('\n');
    out.push_str(&exp_evolution_timeline());
    out.push('\n');
    out.push_str(&exp_tokenization());
    out.push('\n');
    out.push_str(&exp_signatures());
    out.push('\n');
    out.push_str(&exp_similarity_over_time());
    out.push('\n');
    out.push_str(&exp_false_positive_case());
    out.push('\n');

    let config = if quick {
        EvalConfig::quick(seed)
    } else {
        EvalConfig::paper(seed)
    };
    let result = MonthlyEvaluation::new(config).run();
    out.push_str(&render_monthly(&result));
    out.push('\n');
    out.push_str(&exp_adversarial_cycle());

    // Seed-corpus sanity: the reference corpus labels every kit payload.
    let reference =
        ReferenceCorpus::seeded_from_models(SimDate::evaluation_start(), &KizzleConfig::paper());
    let _ = writeln!(
        out,
        "\nreference corpus: {} families seeded",
        reference.len()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_experiments_render() {
        assert!(exp_cve_table().contains("CVE-2013-2551"));
        assert!(exp_evolution_timeline().contains("AV detection added"));
        assert!(exp_tokenization().contains("Keyword"));
        assert!(exp_false_positive_case().contains("winnow overlap"));
    }

    #[test]
    fn signature_experiment_produces_one_signature_per_kit() {
        let report = exp_signatures();
        for family in KitFamily::ALL {
            assert!(report.contains(family.name()), "{family} missing");
        }
        assert!(
            report.contains("(?<var0>"),
            "no generalized variables rendered"
        );
        assert!(!report.contains("generation failed"), "{report}");
    }

    #[test]
    fn monthly_rendering_contains_every_experiment_header() {
        let result = MonthlyEvaluation::new(EvalConfig::quick(2)).run();
        let text = render_monthly(&result);
        for header in ["Fig. 6", "Fig. 12", "Fig. 13", "Fig. 14", "§IV"] {
            assert!(text.contains(header), "missing {header}");
        }
        assert!(text.contains("Sum"));
    }
}
