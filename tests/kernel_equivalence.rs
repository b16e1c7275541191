//! Kernel equivalence suite: early abandoning and lower-bound filtering
//! are *physical* optimizations only.
//!
//! The searches skip candidates whose summary lower bound exceeds the
//! cutoff and abandon DP evaluations that cannot finish under it
//! (DESIGN.md §9). The reference is the search **without** either: a
//! linear `metric.distance` scan (`tests/oracle`). For every query the
//! STRG-Index and both M-tree variants must return exactly the scan's
//! answer — an inadmissible lower bound or a kernel that abandons too
//! eagerly shows up here as a hit diff against ground truth — while the
//! `kernels_fired` asserts prove the filters actually ran.
//!
//! Every case runs at `Threads::Fixed(1)` and `Fixed(8)` (built through one
//! worker and through eight; a search runs on the calling thread in both)
//! and requires identical work fields in [`QueryCost`] across the two;
//! `scripts/ci.sh` additionally runs this binary under `STRG_THREADS=1`
//! and `8`.
//!
//! The ignored case (`scripts/ci.sh` runs it optimised) fits the
//! 600-object `lib_index` set twice, once with [`Eged`]'s half-distance
//! midpoint gap and once with the gap priced against the midpoint element
//! itself, and requires the same clustering.

mod oracle;

use oracle::{assert_matches, scan};
use strg::prelude::*;

/// The two thread modes every case runs in.
const THREAD_MODES: [usize; 2] = [1, 8];

fn dataset() -> Vec<(u64, Vec<f64>)> {
    let mut out = Vec::new();
    let mut id = 0;
    for g in 0..4 {
        let base = 90.0 * g as f64;
        for i in 0..12 {
            out.push((id, vec![base + 0.5 * i as f64, base + 1.0, base + 2.0]));
            id += 1;
        }
    }
    out
}

fn queries() -> Vec<Vec<f64>> {
    vec![
        vec![91.0, 92.0, 93.0],
        vec![0.0, 0.0, 0.0],
        vec![181.0, 182.0, 183.0],
        vec![500.0, 1.0, 2.0],
    ]
}

fn index_at(threads: usize) -> StrgIndex<f64, EgedMetric<f64>> {
    let cfg = StrgIndexConfig::with_k(4).with_threads(Threads::Fixed(threads));
    let mut idx = StrgIndex::new(EgedMetric::<f64>::new(), cfg);
    idx.add_segment(Default::default(), dataset());
    idx
}

fn pairs(hits: &[Hit]) -> Vec<(u64, f64)> {
    hits.iter().map(|h| (h.og_id, h.dist)).collect()
}

/// Runs `probe` at both thread modes, checks each answer against the scan
/// and the two costs against each other, and returns the cost.
fn probe_index(
    idxs: &[StrgIndex<f64, EgedMetric<f64>>],
    truth: &[(u64, f64)],
    q: &[f64],
    probe: QueryKind,
) -> QueryCost {
    let costs: Vec<QueryCost> = idxs
        .iter()
        .zip(THREAD_MODES)
        .map(|(idx, t)| {
            let (hits, cost) = match probe {
                QueryKind::Knn(k) => idx.knn_with_cost(q, k),
                QueryKind::Range(radius) => idx.range_with_cost(q, radius),
            };
            assert_matches(truth, &pairs(&hits), probe, &format!("threads {t}"));
            cost
        })
        .collect();
    assert!(
        costs[0].same_work(&costs[1]),
        "{probe:?}: cost diverged across threads: {:?} vs {:?}",
        costs[0],
        costs[1]
    );
    costs[0]
}

#[test]
fn strg_index_knn_identical_without_lb() {
    let data = dataset();
    let idxs = THREAD_MODES.map(index_at);
    let mut kernels_fired = false;
    for q in queries() {
        let truth = scan(&data, &q);
        for k in [1, 5, 48] {
            let cost = probe_index(&idxs, &truth, &q, QueryKind::Knn(k));
            kernels_fired |= cost.lb_pruned + cost.early_abandoned > 0;
        }
    }
    assert!(
        kernels_fired,
        "no query exercised lb_pruned or early_abandoned — the suite is vacuous"
    );
}

#[test]
fn strg_index_range_identical_without_lb() {
    let data = dataset();
    let idxs = THREAD_MODES.map(index_at);
    let mut kernels_fired = false;
    for q in queries() {
        let truth = scan(&data, &q);
        // Fixed radii plus the 1st and 5th neighbour's own distance.
        let near = [0, 4].map(|i| truth[i].1);
        for radius in [0.0, 2.0, 5.0, 15.0, 1e6].into_iter().chain(near) {
            let cost = probe_index(&idxs, &truth, &q, QueryKind::Range(radius));
            kernels_fired |= cost.lb_pruned + cost.early_abandoned > 0;
        }
    }
    assert!(kernels_fired, "range never exercised the bounded kernels");
}

#[test]
fn mtree_identical_without_lb() {
    let data = dataset();
    // Capacity 4 splits below the root, where a stale parent distance
    // would prune live subtrees.
    let small = |cfg| MTreeConfig {
        node_capacity: 4,
        ..cfg
    };
    let (ra, sa) = (MTreeConfig::random(1), MTreeConfig::sampling(1));
    for cfg in [ra, sa, small(ra), small(sa)] {
        let tree = MTree::bulk_insert(EgedMetric::<f64>::new(), cfg, data.clone());
        let mut kernels_fired = false;
        for q in queries() {
            let truth = scan(&data, &q);
            let near = truth[4].1;
            let probes = [1, 5, 10]
                .map(QueryKind::Knn)
                .into_iter()
                .chain([0.0, 15.0, 120.0, near].map(QueryKind::Range));
            for probe in probes {
                let (hits, cost) = match probe {
                    QueryKind::Knn(k) => tree.knn_with_cost(&q, k),
                    QueryKind::Range(radius) => tree.range_with_cost(&q, radius),
                };
                let hits: Vec<(u64, f64)> = hits.iter().map(|n| (n.id, n.dist)).collect();
                assert_matches(&truth, &hits, probe, &format!("{cfg:?}"));
                kernels_fired |= cost.lb_pruned + cost.early_abandoned > 0;
            }
        }
        assert!(
            kernels_fired,
            "{cfg:?}: M-tree never exercised the bounded kernels"
        );
    }
}

/// The conservation partition holds in both thread modes — `lb_pruned`
/// joins `distance_calls` and `pruned` as the third class of the
/// per-record accounting.
#[test]
fn conservation_holds_in_both_modes() {
    let n = dataset().len() as u64;
    for (idx, threads) in THREAD_MODES.map(index_at).iter().zip(THREAD_MODES) {
        let clusters = idx.cluster_count() as u64;
        for k in [1, 5, 48] {
            let cost = idx.knn_with_cost(&[91.0, 92.0, 93.0], k).1;
            assert_eq!(
                cost.distance_calls + cost.pruned + cost.lb_pruned,
                n + clusters,
                "k {k} threads {threads}: conservation"
            );
            assert!(
                cost.early_abandoned <= cost.distance_calls,
                "k {k} threads {threads}: abandoned calls are still calls"
            );
        }
    }
}

/// What no two-implementation diff could cover, because both twins shared
/// the corner: `k = 0`, `k > n`, `radius = 0`, an empty index and
/// all-identical objects, on a single tree (`shard_equivalence.rs` runs
/// the same corners across 4 shards).
#[test]
fn oracle_corners_single_tree() {
    for (name, objects) in oracle::corner_corpora() {
        for threads in THREAD_MODES {
            let cfg = StrgIndexConfig::with_k(3).with_threads(Threads::Fixed(threads));
            let mut idx = StrgIndex::new(EgedMetric::<Point2>::new(), cfg);
            if !objects.is_empty() {
                idx.add_segment(Default::default(), objects.clone());
            }
            for q in oracle::corner_queries() {
                let truth = scan(&objects, &q);
                for probe in oracle::corner_probes(&truth) {
                    let hits = match probe {
                        QueryKind::Knn(k) => idx.knn(&q, k),
                        QueryKind::Range(radius) => idx.range(&q, radius),
                    };
                    let ctx = format!("{name} threads {threads}");
                    assert_matches(&truth, &pairs(&hits), probe, &ctx);
                }
            }
        }
    }
}

/// Stored lengths 1…9 against query lengths 1…9 and 13: every remainder of
/// the EGED wavefront's four-row strips, and stored sequences on both sides
/// of its four-column step (shorter ones take the row recurrence), at the
/// index level — scan ≡ index with the bounded kernels firing.
#[test]
fn short_sequences_cross_every_strip_remainder() {
    let walk = |id: u64, len: usize| -> Vec<Point2> {
        let (x0, y0) = (37.0 * (id % 5) as f64, 23.0 * (id % 3) as f64);
        (0..len)
            .map(|i| Point2::new(x0 + 3.0 * i as f64, y0 + ((id + i as u64) % 4) as f64))
            .collect()
    };
    let objects: oracle::Corpus = (0..54)
        .map(|id| (id, walk(id, 1 + id as usize % 9)))
        .collect();
    let mut kernels_fired = false;
    for threads in THREAD_MODES {
        let cfg = StrgIndexConfig::with_k(5).with_threads(Threads::Fixed(threads));
        let mut idx = StrgIndex::new(EgedMetric::<Point2>::new(), cfg);
        idx.add_segment(Default::default(), objects.clone());
        for len in (1..=9).chain([13]) {
            let q = walk(100 + len as u64, len);
            let truth = scan(&objects, &q);
            let near = truth[4].1;
            let probes = [1, 5, 54]
                .map(QueryKind::Knn)
                .into_iter()
                .chain([0.0, near, 1e6].map(QueryKind::Range));
            for probe in probes {
                let (hits, cost) = match probe {
                    QueryKind::Knn(k) => idx.knn_with_cost(&q, k),
                    QueryKind::Range(radius) => idx.range_with_cost(&q, radius),
                };
                let ctx = format!("query length {len} threads {threads}");
                assert_matches(&truth, &pairs(&hits), probe, &ctx);
                kernels_fired |= cost.early_abandoned > 0;
            }
        }
    }
    assert!(kernels_fired, "no short-sequence query abandoned a DP");
}

/// A short walk per id, spread over a grid of starts, headings and lengths.
fn singleton_walk(id: u64) -> Vec<Point2> {
    let (x0, y0) = (13.0 * (id % 11) as f64, 17.0 * (id % 7) as f64);
    let (dx, dy) = (1.0 + (id % 3) as f64, 0.5 * (id % 5) as f64 - 1.0);
    (0..6 + id as usize % 5)
        .map(|i| Point2::new(x0 + dx * i as f64, y0 + dy * i as f64))
        .collect()
}

/// The served corpus's shape: one root per segment and one or two records
/// per leaf (a segment of at most two objects is one cluster). Here the
/// cluster scan decides nearly everything: a one-record leaf is refined
/// without its centroid, a two-record leaf pays for one.
#[test]
fn singleton_leaves_match_the_scan_with_fewer_calls_than_clusters() {
    // Segments of one and two objects, alternately, over ids 0..225.
    let segments: Vec<oracle::Corpus> = (0..150)
        .map(|s| {
            let first = 3 * (s / 2) + s % 2;
            (first..first + 1 + s % 2)
                .map(|id| (id, singleton_walk(id)))
                .collect()
        })
        .collect();
    let objects: oracle::Corpus = segments.concat();
    let idxs = THREAD_MODES.map(|threads| {
        let cfg = StrgIndexConfig::default().with_threads(Threads::Fixed(threads));
        let mut idx = StrgIndex::new(EgedMetric::<Point2>::new(), cfg);
        for seg in &segments {
            idx.add_segment(Default::default(), seg.clone());
        }
        idx
    });
    let roots = idxs[0].roots();
    assert_eq!(roots.len(), segments.len());
    let leaf_lens: Vec<usize> = roots
        .iter()
        .flat_map(|r| &r.clusters)
        .map(|c| c.leaf.records.len())
        .collect();
    assert!(leaf_lens.iter().all(|n| (1..=2).contains(n)));
    assert!(leaf_lens.contains(&1) && leaf_lens.contains(&2));

    let mut queries: Vec<Vec<Point2>> = (0..6).map(|j| singleton_walk(1000 + 7 * j)).collect();
    queries.push(vec![Point2::new(900.0, 900.0), Point2::new(905.0, 899.0)]);
    for (qi, q) in queries.iter().enumerate() {
        // Every segment at once, then three single roots.
        let scopes = [Scope::All, Scope::Root(0), Scope::Root(1), Scope::Root(41)];
        for scope in scopes {
            let in_scope: &[(u64, Vec<Point2>)] = match scope {
                Scope::Root(r) => &segments[r as usize],
                _ => &objects,
            };
            let clusters = match scope {
                Scope::Root(r) => roots[r as usize].clusters.len(),
                _ => idxs[0].cluster_count(),
            } as u64;
            let truth = scan(in_scope, q);
            let n = truth.len();
            let knn = [1, 5, 20, n + 3].map(QueryKind::Knn);
            // Radius 0, bit-equal to the 1st, 2nd and 10th neighbour's
            // distance (the boundary object must come back), and all.
            let near = [0, 1, 9].map(|i| truth[i.min(n - 1)].1);
            let range = [0.0, near[0], near[1], near[2], 1e6].map(QueryKind::Range);
            for probe in knn.into_iter().chain(range) {
                let ctx = format!("query {qi} {scope:?}");
                let costs = idxs.each_ref().map(|idx| {
                    let (hits, cost) = idx.search(q, probe, scope);
                    assert_matches(&truth, &pairs(&hits), probe, &ctx);
                    cost
                });
                let cost = costs[0];
                assert!(cost.same_work(&costs[1]), "{ctx} {probe:?}: {costs:?}");
                assert_eq!(
                    cost.distance_calls + cost.pruned + cost.lb_pruned,
                    n as u64 + clusters,
                    "{ctx} {probe:?}: conservation"
                );
                assert!(cost.early_abandoned <= cost.distance_calls, "{ctx}");
                // Below the floor of a pass that evaluated every centroid
                // first — for a query among the data. Far from all of it
                // every summary bound is equally loose and the scan may
                // open most leaves.
                let among_data = qi < 6;
                if among_data && scope == Scope::All && matches!(probe, QueryKind::Knn(1 | 5)) {
                    assert!(
                        cost.distance_calls < clusters,
                        "{ctx} {probe:?}: {cost:?} against {clusters} clusters"
                    );
                }
            }
        }
    }
}

/// The midpoint-gap EGED by its definition: a textbook DP whose edit cost
/// is the distance to the midpoint element, `dist(v, (v + o) / 2)`, where
/// [`Eged`] computes `0.5 · dist(v, o)`.
struct EgedMidpointElement;

impl SequenceDistance<Point2> for EgedMidpointElement {
    fn distance(&self, a: &[Point2], b: &[Point2]) -> f64 {
        let edit = |v: Point2, opp: Option<&Point2>| match opp {
            Some(&o) => v.dist((v + o) * 0.5),
            None => v.norm(),
        };
        let mut prev: Vec<f64> = vec![0.0; b.len() + 1];
        for j in 1..=b.len() {
            prev[j] = prev[j - 1] + edit(b[j - 1], a.first());
        }
        for &ai in a {
            let mut cur = vec![prev[0] + edit(ai, b.first()); b.len() + 1];
            for (j, &bj) in b.iter().enumerate() {
                let replace = prev[j] + ai.dist(bj);
                let delete = prev[j + 1] + edit(ai, Some(&bj));
                let add = cur[j] + edit(bj, Some(&ai));
                cur[j + 1] = replace.min(delete).min(add);
            }
            prev = cur;
        }
        prev[b.len()]
    }
    fn name(&self) -> &'static str {
        "EGED-midpoint-element"
    }
}

#[test]
#[ignore = "fits 600 objects at K = 48 twice; run optimised by scripts/ci.sh"]
fn em_fit_is_the_same_under_the_midpoint_element_gap() {
    let data = generate_total(600, &SynthConfig::with_noise(0.10), 20050615).series();
    let mut cfg = EmConfig::new(48)
        .with_seed(20050614)
        .with_threads(Threads::Fixed(1));
    cfg.max_iters = 10;
    cfg.n_init = 1;
    let kernel = EmClusterer::new(CountingDistance::new(Eged), cfg);
    let reference = EmClusterer::new(EgedMidpointElement, cfg);
    let (got, want) = (kernel.fit(&data), reference.fit(&data));
    assert_eq!(got.assignments, want.assignments);
    assert_eq!(got.iterations, want.iterations);
    // Three iterations, the seeding's matrix serving as the first.
    assert_eq!(got.iterations, 3);
    assert_eq!(kernel.dist.count(), 3 * 48 * 600);
}
