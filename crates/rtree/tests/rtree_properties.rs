//! Property tests: the 3DR-tree's window query must agree with a linear
//! scan for arbitrary box sets and windows, and invariants must hold under
//! arbitrary insertion orders.

use proptest::prelude::*;
use strg_rtree::{Aabb3, Item, RTree3};

fn boxes() -> impl Strategy<Value = Vec<Aabb3>> {
    prop::collection::vec(
        (
            -50.0f64..50.0,
            -50.0f64..50.0,
            0.0f64..20.0,
            0.0f64..10.0,
            0.0f64..10.0,
            0.0f64..5.0,
        )
            .prop_map(|(x, y, t, w, h, d)| Aabb3::new([x, y, t], [x + w, y + h, t + d])),
        1..80,
    )
}

/// 2–11 trajectories of 2–7 samples each (1–6 segment boxes), each with
/// its start frame.
fn trajectories() -> impl Strategy<Value = Vec<(Vec<(f64, f64)>, f64)>> {
    prop::collection::vec(
        (
            prop::collection::vec((-50.0f64..50.0, -50.0f64..50.0), 2..8),
            0.0f64..20.0,
        ),
        2..12,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn window_query_equals_linear_scan(bs in boxes(), win in boxes()) {
        let mut t = RTree3::new();
        for (i, b) in bs.iter().enumerate() {
            t.insert(Item { id: i as u64, seq: 0, bbox: *b });
        }
        t.check_invariants();
        let w = win[0];
        let mut expect: Vec<u64> = bs
            .iter()
            .enumerate()
            .filter(|(_, b)| b.intersects(&w))
            .map(|(i, _)| i as u64)
            .collect();
        expect.sort_unstable();
        let mut got: Vec<u64> = t.window(&w).into_iter().map(|i| i.id).collect();
        got.sort_unstable();
        prop_assert_eq!(got, expect);
    }

    /// Several boxes per id, as `insert_trajectory` makes them: the k
    /// nearest ids are the k smallest per-id minimum box distances of a
    /// linear scan, whichever leaves the boxes of one id landed in.
    #[test]
    fn nearest_first_is_truly_nearest(
        trajs in trajectories(),
        p in (-60.0f64..60.0, -60.0f64..60.0, 0.0f64..30.0),
    ) {
        let mut t = RTree3::new();
        for (id, (points, t0)) in trajs.iter().enumerate() {
            t.insert_trajectory(id as u64, points, *t0);
        }
        let everything = Aabb3::new([-1e9; 3], [1e9; 3]);
        for p in [[0.0, 0.0, 0.0], [p.0, p.1, p.2]] {
            let mut per_id = vec![f64::INFINITY; trajs.len()];
            for it in t.window(&everything) {
                let d = &mut per_id[it.id as usize];
                *d = d.min(it.bbox.min_dist(p));
            }
            let mut linear: Vec<(u64, f64)> =
                per_id.into_iter().enumerate().map(|(id, d)| (id as u64, d)).collect();
            linear.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            for k in 1..=5 {
                let want: Vec<(u64, f64)> = linear.iter().take(k).copied().collect();
                prop_assert_eq!(t.nearest_ids(p, k), want, "k = {}, p = {:?}", k, p);
            }
        }
    }
}
