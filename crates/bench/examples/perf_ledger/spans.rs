//! In-memory span log for the traced run: the benchmark opens a span
//! around each call into a layer, imports the spans the product's own
//! telemetry recorded underneath, and writes everything out at the end.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_us: u64,
    pub end_us: u64,
    pub parent: Option<usize>,
}

pub struct SpanLog {
    enabled: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanLog {
    pub fn new(enabled: bool) -> Self {
        SpanLog {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Record a closed span under the innermost open one.
    pub fn record(&mut self, name: &str, start: Instant, end: Instant) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start_us = start.saturating_duration_since(self.epoch).as_micros() as u64;
        let end_us = end.saturating_duration_since(self.epoch).as_micros() as u64;
        self.spans.push(Span {
            name: name.to_string(),
            start_us,
            end_us,
            parent: self.open.last().copied(),
        });
        Some(self.spans.len() - 1)
    }

    /// Open a span that later `record`/`import` calls nest under.
    pub fn open(&mut self, name: &str) {
        if !self.enabled {
            return;
        }
        let now = self.now_us();
        self.spans.push(Span {
            name: name.to_string(),
            start_us: now,
            end_us: now,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    pub fn close(&mut self) {
        if let Some(id) = self.open.pop() {
            self.spans[id].end_us = self.now_us();
        }
    }

    /// Import spans recorded on another clock (`offset_us` maps it onto
    /// this log's). Each lands under the smallest span of
    /// `spans[first_candidate..]` that covers its end — its real "now";
    /// accumulated spans carry a synthetic start — else under `fallback`.
    pub fn import(
        &mut self,
        records: &[(&str, u64, u64)],
        offset_us: i64,
        first_candidate: usize,
        fallback: Option<usize>,
    ) {
        if !self.enabled {
            return;
        }
        let base = self.spans.len();
        for (name, start, dur) in records {
            let start_us = start.saturating_add_signed(offset_us);
            self.spans.push(Span {
                name: (*name).to_string(),
                start_us,
                end_us: start_us + dur,
                parent: fallback,
            });
        }
        for id in base..self.spans.len() {
            let end = self.spans[id].end_us;
            let len = self.spans[id].end_us - self.spans[id].start_us;
            let parent = (first_candidate..self.spans.len())
                .filter(|&other| other != id)
                .filter(|&other| {
                    let o = &self.spans[other];
                    let o_len = o.end_us - o.start_us;
                    // Ties (equal intervals) go to the earlier record.
                    o.start_us <= end
                        && end <= o.end_us
                        && (o_len > len || (o_len == len && other < id))
                })
                .min_by_key(|&other| self.spans[other].end_us - self.spans[other].start_us);
            if parent.is_some() {
                self.spans[id].parent = parent;
            }
        }
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its child spans cover (children clipped to the
    /// parent, overlaps between children counted once).
    pub fn self_times_us(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let p = &self.spans[parent];
                let start = span.start_us.clamp(p.start_us, p.end_us);
                let end = span.end_us.clamp(p.start_us, p.end_us);
                if end > start {
                    children[parent].push((start, end));
                }
            }
        }
        self.spans
            .iter()
            .zip(&mut children)
            .map(|(span, intervals)| {
                intervals.sort_unstable();
                let mut covered = 0;
                let mut reach = span.start_us;
                for &(start, end) in intervals.iter() {
                    let from = start.max(reach);
                    if end > from {
                        covered += end - from;
                        reach = end;
                    }
                }
                (span.end_us - span.start_us).saturating_sub(covered)
            })
            .collect()
    }

    /// Per span name: the durations and self times of its instances, µs.
    pub fn by_name(&self) -> BTreeMap<&str, (Vec<f64>, Vec<f64>)> {
        let self_times = self.self_times_us();
        let mut out: BTreeMap<&str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
        for (span, self_us) in self.spans.iter().zip(self_times) {
            let slot = out.entry(&span.name).or_default();
            slot.0.push((span.end_us - span.start_us) as f64);
            slot.1.push(self_us as f64);
        }
        out
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, span)| {
                    Json::obj([
                        ("id", Json::Num(id as f64)),
                        ("name", Json::Str(span.name.clone())),
                        ("start_us", Json::Num(span.start_us as f64)),
                        ("end_us", Json::Num(span.end_us as f64)),
                        (
                            "parent",
                            span.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_us: u64, end_us: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_us,
            end_us,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut log = SpanLog::new(true);
        log.spans = vec![
            span("day", 0, 1_000, None),
            span("ingest", 0, 300, Some(0)),
            span("seal", 300, 900, Some(0)),
            // Overlapping children of seal: covered once, 350..700.
            span("cluster", 350, 600, Some(2)),
            span("label", 500, 700, Some(2)),
            // A child that sticks out of its parent is clipped to it.
            span("publish", 850, 950, Some(2)),
        ];
        let self_us = log.self_times_us();
        assert_eq!(self_us[0], 1_000 - 300 - 600, "day: gap after seal only");
        assert_eq!(self_us[1], 300, "leaf keeps its whole duration");
        assert_eq!(self_us[2], 600 - 350 - 50);
        let by_name = log.by_name();
        assert_eq!(by_name["seal"], (vec![600.0], vec![200.0]));
    }

    #[test]
    fn imported_spans_nest_under_the_smallest_span_covering_their_end() {
        let mut log = SpanLog::new(true);
        log.spans = vec![
            span("day", 1_000, 9_000, None),
            span("seal", 4_000, 8_000, Some(0)),
        ];
        // Product clock runs 1_000 µs behind the log's.
        log.import(
            &[
                ("day.seal", 3_050, 3_900),
                ("cluster.reduce", 3_100, 2_000),
                // Accumulated span: ends inside day.seal, synthetic start before it.
                ("day.winnow", 2_000, 4_500),
            ],
            1_000,
            0,
            Some(0),
        );
        assert_eq!(log.spans[2].parent, Some(1), "day.seal under bench seal");
        assert_eq!(log.spans[3].parent, Some(2), "reduce under day.seal");
        assert_eq!(
            log.spans[4].parent,
            Some(0),
            "only `day` is long enough to hold it"
        );
        assert_eq!(log.spans[3].start_us, 4_100);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::new(false);
        log.open("day");
        let now = Instant::now();
        assert_eq!(log.record("x", now, now), None);
        log.close();
        assert!(log.spans.is_empty());
    }
}
