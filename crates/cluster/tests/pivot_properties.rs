//! Property tests for the neighbor index's pivot bounds (ISSUE 23).
//!
//! The index settles most candidate pairs from one kernel call against a
//! shared pivot and the triangle inequality. Two contracts keep that
//! honest, checked after **every** step of a random interleaving of
//! batch inserts (one entry, under a wave, over a wave), removals (pivots,
//! members, a group's last member), snapshot round trips and a rebuild
//! from the corpus store:
//!
//! 1. every live entry's eps-ball equals brute force over
//!    `normalized_edit_distance_bounded ≤ eps`;
//! 2. every live entry is attached to a live pivot at exactly the edit
//!    distance the index stored for it.
//!
//! The generators build kit-like families *on* the decision edges: members
//! at exactly `budget` and `budget + 1` edits from their pivot and from each
//! other, lower and upper triangle bounds that land on `budget` and
//! `budget + 1`, and lengths spread across the eps window so per-pair
//! budgets differ inside one group ([`edges_are_hit`] counts them).

mod common;

use common::distance::edit_distance;
use kizzle_cluster::distance::normalized_edit_distance_bounded;
use kizzle_cluster::{
    CorpusEngine, DbscanParams, DistributedConfig, NeighborIndex, SampleId, STORE_SECTION,
};
use kizzle_snapshot::{Decoder, Encoder, Snapshot, SnapshotBuilder};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

/// SplitMix64: the test derives its whole corpus from one sampled seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn budget(eps: f64, a: usize, b: usize) -> usize {
    (eps * a.max(b) as f64).floor() as usize
}

/// One kit-like family around a random base string (returned first).
///
/// A member substitutes a foreign symbol at a run of even positions
/// `2·start .. 2·(start + run)` and grows or shrinks the tail, so its
/// distance to the base is `run + |tail|` and two members differ by the
/// symmetric difference of their runs plus their tail difference. Runs and
/// starts are drawn around the base's own edit budget `b`: nested runs put a
/// pair on the lower triangle bound, disjoint runs on the upper one, and
/// run lengths `b − 1, b, b + 1` put it on either side of the accept edge.
fn edge_family(rng: &mut Rng, eps: f64, members: usize) -> Vec<Vec<u8>> {
    let len = 40 + rng.below(90);
    let base: Vec<u8> = (0..len).map(|_| rng.below(5) as u8).collect();
    let b = budget(eps, len, len).min(len / 5);
    let mut family = vec![base.clone()];
    for _ in 1..members {
        let start = rng.below(b + 2);
        let run = [0, 1, b / 2, b.saturating_sub(1), b, b + 1][rng.below(6)];
        let mut member = base.clone();
        for k in start..start + run {
            member[2 * k] = 9;
        }
        let tail = rng.below(b + 1);
        if tail >= b / 2 {
            member.extend(std::iter::repeat_n(8, tail - b / 2));
        } else {
            member.truncate(len - (b / 2 - tail));
        }
        family.push(member);
    }
    family
}

/// Families interleaved with unrelated noise and empty strings, in an order
/// that keeps feeding members of every family to later batches.
fn corpus(rng: &mut Rng, eps: f64, size: usize) -> Vec<Vec<u8>> {
    let families = 1 + rng.below(3);
    let mut pools: Vec<Vec<Vec<u8>>> = (0..families)
        .map(|_| edge_family(rng, eps, size / families + 1))
        .collect();
    let mut out = Vec::with_capacity(size);
    while out.len() < size {
        match rng.below(12) {
            0 => out.push(Vec::new()),
            1 => {
                let len = rng.below(80);
                out.push((0..len).map(|_| rng.below(6) as u8).collect());
            }
            pick => {
                let pool = &mut pools[pick % families];
                if let Some(member) = pool.pop() {
                    out.push(member);
                } else {
                    out.push(vec![7; rng.below(5)]);
                }
            }
        }
    }
    // Each pool popped from the back: its base comes last, so reverse to
    // let the bases arrive (and become pivots) early.
    out.reverse();
    out
}

/// Families over the whole byte range: each base mixes token-class codes
/// with arbitrary bytes, and its members substitute arbitrary bytes, up to
/// one past the base's edit budget. The index's histogram gives every
/// byte from 7 up one shared bucket, so here its L1 bound sees little of
/// what separates two strings and the later filters must.
fn byte_corpus(rng: &mut Rng, eps: f64, size: usize) -> Vec<Vec<u8>> {
    let mut out = Vec::with_capacity(size);
    while out.len() < size {
        let len = rng.below(120);
        let base: Vec<u8> = (0..len)
            .map(|_| match rng.below(2) {
                0 => rng.below(6) as u8,
                _ => rng.next() as u8,
            })
            .collect();
        for _ in 0..1 + rng.below(8) {
            let mut member = base.clone();
            if len > 0 {
                for _ in 0..rng.below(budget(eps, len, len) + 2) {
                    let at = rng.below(len);
                    member[at] = rng.next() as u8;
                }
            }
            out.push(member);
        }
    }
    out.truncate(size);
    out
}

fn within(a: &[u8], b: &[u8], eps: f64) -> bool {
    normalized_edit_distance_bounded(a, b, eps).is_some_and(|d| d <= eps)
}

/// The brute-force model the index is held to: live `(id, bytes)` pairs and
/// their eps relation, maintained pair by pair through the plain predicate.
struct Model {
    eps: f64,
    live: Vec<(u32, Vec<u8>)>,
    balls: Vec<BTreeSet<u32>>,
    free: Vec<u32>,
    next_id: u32,
}

impl Model {
    fn new(eps: f64) -> Self {
        Model {
            eps,
            live: Vec::new(),
            balls: Vec::new(),
            free: Vec::new(),
            next_id: 0,
        }
    }

    /// Mint an id the way the corpus store does: freed slots first.
    fn add(&mut self, data: Vec<u8>) -> u32 {
        let id = self.free.pop().unwrap_or_else(|| {
            self.next_id += 1;
            self.next_id - 1
        });
        let mut ball = BTreeSet::new();
        for (i, (other, bytes)) in self.live.iter().enumerate() {
            if within(&data, bytes, self.eps) {
                ball.insert(*other);
                self.balls[i].insert(id);
            }
        }
        self.live.push((id, data));
        self.balls.push(ball);
        id
    }

    fn remove(&mut self, id: u32) {
        let at = self.position(id);
        self.live.swap_remove(at);
        self.balls.swap_remove(at);
        for ball in &mut self.balls {
            ball.remove(&id);
        }
        self.free.push(id);
    }

    fn position(&self, id: u32) -> usize {
        self.live.iter().position(|(r, _)| *r == id).expect("live")
    }

    fn data(&self, id: u32) -> &[u8] {
        &self.live[self.position(id)].1
    }

    /// Both contracts, over every live entry.
    fn check(&self, index: &NeighborIndex, step: &str) {
        assert_eq!(index.len(), self.live.len(), "{step}");
        let mut pivots = 0;
        for ((id, data), ball) in self.live.iter().zip(&self.balls) {
            let got: Vec<u32> = index
                .neighbors(SampleId::new(*id))
                .into_iter()
                .map(SampleId::raw)
                .collect();
            let want: Vec<u32> = ball.iter().copied().collect();
            assert_eq!(got, want, "{step}: ball of {id}");

            let (pivot, dp) = index
                .pivot_of(SampleId::new(*id))
                .unwrap_or_else(|| panic!("{step}: {id} has a ball but no pivot"));
            assert!(index.contains(pivot), "{step}: pivot of {id} is dead");
            assert_eq!(
                index.pivot_of(pivot),
                Some((pivot, 0)),
                "{step}: {id} is attached to a non-pivot"
            );
            assert_eq!(
                edit_distance(data, self.data(pivot.raw())),
                dp,
                "{step}: stored pivot distance of {id}"
            );
            assert!(
                pivot.raw() == *id || ball.contains(&pivot.raw()),
                "{step}: {id} is attached outside its ball"
            );
            pivots += usize::from(pivot.raw() == *id);
        }
        assert_eq!(index.pivot_count(), pivots, "{step}");
    }

    fn pivots(&self, index: &NeighborIndex) -> Vec<u32> {
        self.ids(index, true)
    }

    fn members(&self, index: &NeighborIndex) -> Vec<u32> {
        self.ids(index, false)
    }

    fn ids(&self, index: &NeighborIndex, want_pivot: bool) -> Vec<u32> {
        self.live
            .iter()
            .map(|(id, _)| *id)
            .filter(|&id| {
                let (pivot, _) = index.pivot_of(SampleId::new(id)).expect("has a pivot");
                (pivot.raw() == id) == want_pivot
            })
            .collect()
    }
}

fn insert(index: &mut NeighborIndex, model: &mut Model, batch: Vec<Vec<u8>>) {
    let items = batch
        .into_iter()
        .map(|data| {
            let bytes: Arc<[u8]> = Arc::from(&data[..]);
            (SampleId::new(model.add(data)), bytes)
        })
        .collect();
    index.insert_batch(items);
}

fn remove(index: &mut NeighborIndex, model: &mut Model, id: u32) {
    assert!(index.remove(SampleId::new(id)));
    model.remove(id);
}

fn round_trip(index: &NeighborIndex, model: &Model) -> NeighborIndex {
    let mut enc = Encoder::new();
    index.encode_into(&mut enc);
    let bytes = enc.into_bytes();
    let mut dec = Decoder::new(&bytes);
    let restored = NeighborIndex::decode_from(&mut dec, |id| {
        model
            .live
            .iter()
            .find(|(raw, _)| *raw == id.raw())
            .map(|(_, s)| Arc::from(&s[..]))
    })
    .expect("a clean snapshot decodes");
    dec.finish().expect("nothing trails the index section");
    restored
}

fn eps_of(pick: u8) -> f64 {
    [0.10, 0.10, 0.10, 0.25, 0.0, 1.0][pick as usize % 6]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Random interleavings of every mutating operation, both contracts
    /// re-checked after each one.
    #[test]
    fn pivot_balls_equal_brute_force_after_every_step(
        seed in any::<u64>(),
        eps_pick in any::<u8>(),
        ops in prop::collection::vec(any::<u16>(), 3..10),
    ) {
        let eps = eps_of(eps_pick);
        let mut rng = Rng(seed);
        let mut pool = corpus(&mut rng, eps, 260);
        let mut index = NeighborIndex::new(eps);
        let mut model = Model::new(eps);

        // Day zero: one batch over the wave size, so the later waves of a
        // single batch meet the pivots of the earlier ones.
        let first = 65 + rng.below(40);
        insert(&mut index, &mut model, pool.split_off(pool.len() - first));
        model.check(&index, "first batch");

        for (n, &op) in ops.iter().enumerate() {
            let arg = op as usize / 8;
            let step = format!("step {n} (op {op})");
            match op % 8 {
                0 => {
                    let size = 1.min(pool.len());
                    insert(&mut index, &mut model, pool.split_off(pool.len() - size));
                }
                1 | 2 => {
                    let size = (2 + arg % 38).min(pool.len());
                    insert(&mut index, &mut model, pool.split_off(pool.len() - size));
                }
                3 => {
                    let pivots = model.pivots(&index);
                    if !pivots.is_empty() {
                        remove(&mut index, &mut model, pivots[arg % pivots.len()]);
                    }
                }
                4 => {
                    let members = model.members(&index);
                    if !members.is_empty() {
                        remove(&mut index, &mut model, members[arg % members.len()]);
                    }
                }
                5 => {
                    // Empty one group member by member, down to its last,
                    // then take the bare pivot too.
                    let pivots = model.pivots(&index);
                    let Some(&pivot) = pivots.get(arg % pivots.len().max(1)) else {
                        continue;
                    };
                    for id in model.members(&index) {
                        let attached = index.pivot_of(SampleId::new(id)).expect("member").0;
                        if attached.raw() == pivot {
                            remove(&mut index, &mut model, id);
                            model.check(&index, &step);
                        }
                    }
                    remove(&mut index, &mut model, pivot);
                }
                _ => index = round_trip(&index, &model),
            }
            model.check(&index, &step);
        }
    }

    /// Symbols from the whole byte range, not only the six class codes:
    /// every ball equals brute force after a batch insert, after the
    /// snapshot round trip, and after an insert into the restored index.
    #[test]
    fn full_byte_alphabet_balls_equal_brute_force(
        seed in any::<u64>(),
        eps_pick in any::<u8>(),
    ) {
        let eps = eps_of(eps_pick);
        let mut rng = Rng(seed);
        let mut index = NeighborIndex::new(eps);
        let mut model = Model::new(eps);
        insert(&mut index, &mut model, byte_corpus(&mut rng, eps, 100));
        model.check(&index, "batch");
        let mut restored = round_trip(&index, &model);
        model.check(&restored, "round trip");
        insert(&mut restored, &mut model, byte_corpus(&mut rng, eps, 30));
        model.check(&restored, "insert after the round trip");
    }

    /// An index rebuilt from the store (the resume ladder's second rung)
    /// computes every ball and the pivot table at load: both contracts hold
    /// before any day is clustered. Its own save then resumes on the first
    /// rung, clusters the day like the original engine with no query, and
    /// serves an ordinary next day.
    #[test]
    fn a_store_rebuilt_index_holds_every_ball_at_load(
        seed in any::<u64>(),
        eps_pick in any::<u8>(),
    ) {
        let eps = eps_of(eps_pick);
        let mut rng = Rng(seed);
        let cfg = DistributedConfig::new(2, DbscanParams::new(eps, 2));
        let day1 = corpus(&mut rng, eps, 90);
        let mut engine = CorpusEngine::new(cfg);
        let ids = engine.add_batch(1, &day1);
        let (want, _) = engine.cluster_day(&ids);

        // A snapshot that lost its index section.
        let mut builder = SnapshotBuilder::new();
        for (name, payload) in engine.encode_sections() {
            if name == STORE_SECTION {
                builder.section(&name, payload);
            }
        }
        let snapshot = Snapshot::from_bytes(&builder.to_bytes()).unwrap();
        let (rebuilt, report) = CorpusEngine::resume_from_sections(cfg, &snapshot);
        prop_assert!(report.store_restored && !report.index_restored);

        let check = |engine: &CorpusEngine, step: &str| {
            let mut model = Model::new(eps);
            for id in engine.store().live_ids() {
                // Ids are dense and ascending here, so the model mints the
                // same ones.
                let minted = model.add(engine.store().get(id).expect("live").to_vec());
                assert_eq!(minted, id.raw());
            }
            model.check(engine.index(), step);
        };
        check(&rebuilt, "at load");

        let mut builder = SnapshotBuilder::new();
        for (name, payload) in rebuilt.encode_sections() {
            builder.section(&name, payload);
        }
        let snapshot = Snapshot::from_bytes(&builder.to_bytes()).unwrap();
        let (mut resumed, report) = CorpusEngine::resume_from_sections(cfg, &snapshot);
        prop_assert!(report.store_restored && report.index_restored);
        check(&resumed, "after the re-save");
        let (got, stats) = resumed.cluster_day(&ids);
        prop_assert_eq!(stats.index.queries, 0);
        prop_assert_eq!(got, want);

        // The rebuilt table then serves an ordinary next day.
        let day2 = corpus(&mut rng, eps, 40);
        resumed.add_batch(2, &day2);
        check(&resumed, "after the next day's insert");
    }
}

/// The generators are only worth their name if they land on the edges the
/// index decides at. Count, over a fixed set of seeds at `eps = 0.10`:
/// pairs at exactly `budget` / `budget + 1` edits (member–base and
/// member–member), triples whose triangle bounds land exactly on `budget` /
/// `budget + 1`, and groups whose members disagree on the budget.
#[test]
fn edges_are_hit() {
    let eps = 0.10;
    let (mut at, mut over) = (0, 0);
    let (mut upper_at, mut upper_over, mut lower_over) = (0, 0, 0);
    let mut mixed_budgets = 0;
    for seed in 0..12u64 {
        let family = edge_family(&mut Rng(seed), eps, 24);
        let base = &family[0];
        let to_base: Vec<usize> = family.iter().map(|m| edit_distance(m, base)).collect();
        // What one short query would be allowed against each member.
        let budgets: BTreeSet<usize> = family.iter().map(|m| budget(eps, 0, m.len())).collect();
        mixed_budgets += usize::from(budgets.len() > 1);
        for (i, a) in family.iter().enumerate() {
            for (j, b) in family.iter().enumerate().skip(i + 1) {
                let allowed = budget(eps, a.len(), b.len());
                let d = edit_distance(a, b);
                at += usize::from(d == allowed);
                over += usize::from(d == allowed + 1);
                if i > 0 {
                    // `a` queries, the base is the pivot, `b` the member.
                    upper_at += usize::from(to_base[i] + to_base[j] == allowed);
                    upper_over += usize::from(to_base[i] + to_base[j] == allowed + 1);
                    lower_over += usize::from(to_base[i].abs_diff(to_base[j]) == allowed + 1);
                }
            }
        }
    }
    assert!(
        at > 20 && over > 20,
        "pairs at budget {at}, one over {over}"
    );
    assert!(
        upper_at > 20 && upper_over > 20,
        "upper bound at budget {upper_at}, one over {upper_over}"
    );
    assert!(lower_over > 0, "lower bound one over budget {lower_over}");
    assert!(
        mixed_budgets > 6,
        "families with mixed budgets {mixed_budgets}"
    );
}
