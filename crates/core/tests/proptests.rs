//! Property-based tests: scheme invariants and backend equivalence on
//! randomized parameters and data.

use proptest::prelude::*;

use std::collections::HashMap;

use pmr_core::analysis::limits::{design_curve_fits, max_v_design};
use pmr_core::enumeration::{diag_rank, diag_unrank, pair_count, pair_rank, pair_unrank};
use pmr_core::hierarchical::{BatchedDesign, TwoLevelBlock};
use pmr_core::runner::local::run_local;
use pmr_core::runner::sequential::run_sequential;
use pmr_core::runner::{comp_fn, CompFn, ConcatSort, Symmetry};
use pmr_core::scheme::{
    measure, verify_exactly_once, BlockScheme, BroadcastScheme, DesignScheme, DistributionScheme,
    PairedBlockScheme, QuorumScheme,
};

/// The multiset of pairs a task streams through `for_each_pair`.
fn streamed(s: &dyn DistributionScheme, t: u64) -> Vec<(u64, u64)> {
    let mut got = Vec::new();
    s.for_each_pair(t, &mut |a, b| got.push((a, b)));
    got
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pair_enumeration_roundtrip(rank in 0u64..10_000_000_000) {
        let (a, b) = pair_unrank(rank);
        prop_assert!(a > b);
        prop_assert_eq!(pair_rank(a, b), rank);
    }

    #[test]
    fn diag_enumeration_roundtrip(rank in 0u64..10_000_000_000) {
        let (i, j) = diag_unrank(rank);
        prop_assert!(i >= j);
        prop_assert_eq!(diag_rank(i, j), rank);
    }

    #[test]
    fn broadcast_exactly_once(v in 2u64..120, tasks in 1u64..40) {
        let s = BroadcastScheme::new(v, tasks);
        prop_assert!(verify_exactly_once(&s).is_ok());
    }

    #[test]
    fn block_exactly_once(v in 2u64..120, h in 1u64..20) {
        let s = BlockScheme::new(v, h);
        prop_assert!(verify_exactly_once(&s).is_ok());
        // Table-1 invariants.
        let m = measure(&s);
        prop_assert!(m.max_working_set <= 2 * s.edge());
        prop_assert!(m.max_evaluations <= s.edge() * s.edge());
        prop_assert_eq!(m.total_pairs, pair_count(v));
    }

    #[test]
    fn design_exactly_once(v in 2u64..150) {
        let s = DesignScheme::new(v);
        prop_assert!(verify_exactly_once(&s).is_ok());
        let m = measure(&s);
        prop_assert!(m.max_working_set <= s.order() + 1);
    }

    #[test]
    fn quorum_exactly_once_across_task_counts(v in 2u64..300) {
        // The quorum scheme has one task per element, so sweeping `v`
        // sweeps the task count; every unordered pair must be covered by
        // exactly one of the `v` rotations.
        let s = QuorumScheme::new(v);
        prop_assert_eq!(s.num_tasks(), v);
        prop_assert!(verify_exactly_once(&s).is_ok());
        let m = measure(&s);
        prop_assert_eq!(m.total_pairs, pair_count(v));
        prop_assert!(m.max_working_set <= s.quorum_size());
    }

    #[test]
    fn metrics_replication_matches_measured_memberships(v in 2u64..100, h in 1u64..12) {
        // Each scheme's analytic `metrics()` replication rate equals the
        // measured per-element emit count (working-set memberships / v):
        // exact for broadcast, block, and quorum; an upper bound for the
        // design (truncation drops emptied blocks, so some elements land
        // in fewer than q+1 tasks).
        let schemes: Vec<Box<dyn DistributionScheme>> = vec![
            Box::new(BroadcastScheme::new(v, h)),
            Box::new(BlockScheme::new(v, h)),
            Box::new(DesignScheme::new(v)),
            Box::new(QuorumScheme::new(v)),
        ];
        for s in &schemes {
            let analytic = s.metrics(1).replication_factor;
            let memberships: u64 = (0..s.num_tasks())
                .map(|t| s.working_set(t).len() as u64)
                .sum();
            let measured = memberships as f64 / v as f64;
            if s.name() == "design" {
                prop_assert!(
                    measured <= analytic + 1e-9,
                    "{}: measured {measured} > analytic {analytic}", s.name()
                );
            } else {
                prop_assert!(
                    (measured - analytic).abs() < 1e-9,
                    "{}: measured {measured} != analytic {analytic}", s.name()
                );
            }
        }
    }

    #[test]
    fn design_limit_curve_never_exceeds_exact_predicate(
        s in 1u64..1_000_000, maxis in 1u64..1_000_000_000_000,
    ) {
        // Satellite regression: the continuous v^{3/2}·s ≤ maxis curve,
        // floored to an integer limit, must itself satisfy the exact
        // integer predicate (the old +1e-6 epsilon could overshoot by 1).
        let lim = max_v_design(s as f64, maxis as f64);
        prop_assert_eq!(lim, lim.floor());
        if lim >= 1.0 {
            prop_assert!(
                design_curve_fits(lim as u64, s, maxis),
                "limit {lim} violates v³s² ≤ maxis² for s={s}, maxis={maxis}"
            );
        }
        prop_assert!(
            !design_curve_fits(lim as u64 + 1, s, maxis),
            "limit {lim} is not maximal for s={s}, maxis={maxis}"
        );
    }

    #[test]
    fn block_replication_is_exactly_h(v in 2u64..100, h in 1u64..12) {
        let s = BlockScheme::new(v, h);
        let eff_h = s.blocking_factor();
        for e in 0..v {
            prop_assert_eq!(s.subsets_of(e).len() as u64, eff_h);
        }
    }

    #[test]
    fn two_level_block_exactly_once(v in 4u64..80, coarse in 1u64..5, fine in 1u64..5) {
        let tlb = TwoLevelBlock::new(v, coarse, fine);
        prop_assert!(tlb.rounds().verify_exactly_once().is_ok());
    }

    #[test]
    fn batched_design_exactly_once(v in 4u64..60, batches in 1u64..8) {
        let bd = BatchedDesign::new(v, batches);
        prop_assert!(bd.rounds().verify_exactly_once().is_ok());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn local_backends_agree_with_sequential(
        data in prop::collection::vec(0i64..1000, 2..50),
        h in 1u64..8,
        threads in 1usize..5,
    ) {
        let v = data.len() as u64;
        let comp: CompFn<i64, i64> = comp_fn(|a: &i64, b: &i64| (a - b).abs());
        let reference = run_sequential(&data, &comp, Symmetry::Symmetric, &ConcatSort);

        let schemes: Vec<Box<dyn DistributionScheme>> = vec![
            Box::new(BroadcastScheme::new(v, h + 1)),
            Box::new(BlockScheme::new(v, h)),
            Box::new(DesignScheme::new(v)),
            Box::new(QuorumScheme::new(v)),
        ];
        for s in &schemes {
            let (out, stats) =
                run_local(&data, s.as_ref(), &comp, Symmetry::Symmetric, &ConcatSort, threads);
            prop_assert_eq!(&out, &reference, "scheme {}", s.name());
            prop_assert_eq!(stats.evaluations, pair_count(v));
        }
    }

    #[test]
    fn subsets_consistent_with_working_sets(v in 2u64..80, h in 1u64..10) {
        let schemes: Vec<Box<dyn DistributionScheme>> = vec![
            Box::new(BroadcastScheme::new(v, h)),
            Box::new(BlockScheme::new(v, h)),
            Box::new(DesignScheme::new(v)),
            Box::new(QuorumScheme::new(v)),
        ];
        for s in &schemes {
            for e in 0..v {
                for t in s.subsets_of(e) {
                    prop_assert!(
                        s.working_set(t).binary_search(&e).is_ok(),
                        "{}: element {e} not in claimed working set {t}", s.name()
                    );
                }
            }
        }
    }

    #[test]
    fn for_each_pair_union_covers_exactly_once(v in 2u64..60, h in 1u64..8) {
        // The union over a scheme's tasks, streamed, covers every
        // unordered pair of 0..v exactly once (the paper's correctness
        // invariant, checked through the streaming path). Hierarchical
        // *rounds* partition the pairs across rounds, so they are checked
        // via `Rounds::verify_exactly_once` above, not per round here.
        let schemes: Vec<Box<dyn DistributionScheme>> = vec![
            Box::new(BroadcastScheme::new(v, h + 1)),
            Box::new(BlockScheme::new(v, h)),
            Box::new(PairedBlockScheme::new(v, h)),
            Box::new(DesignScheme::new(v)),
            Box::new(QuorumScheme::new(v)),
        ];
        for s in &schemes {
            let mut seen: HashMap<(u64, u64), u64> = HashMap::new();
            for t in 0..s.num_tasks() {
                for (a, b) in streamed(s.as_ref(), t) {
                    prop_assert!(b < a && a < v, "{}: bad pair ({a},{b})", s.name());
                    *seen.entry((a, b)).or_insert(0) += 1;
                }
            }
            prop_assert_eq!(seen.len() as u64, pair_count(v), "{} misses pairs", s.name());
            prop_assert!(
                seen.values().all(|&c| c == 1),
                "{} covers some pair more than once", s.name()
            );
        }
    }

    #[test]
    fn num_pairs_matches_pairs_len(v in 2u64..60, h in 1u64..8) {
        let schemes: Vec<Box<dyn DistributionScheme>> = vec![
            Box::new(BroadcastScheme::new(v, h)),
            Box::new(BlockScheme::new(v, h)),
            Box::new(DesignScheme::new(v)),
            Box::new(QuorumScheme::new(v)),
        ];
        for s in &schemes {
            for t in 0..s.num_tasks() {
                prop_assert_eq!(
                    s.num_pairs(t),
                    s.pairs(t).len() as u64,
                    "{} task {}",
                    s.name(),
                    t
                );
            }
        }
    }
}
