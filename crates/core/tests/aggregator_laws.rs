//! Property-based decomposability laws: for every built-in aggregator,
//! folding an arbitrary partition of a partial list into separate
//! accumulators and merging them must finish to exactly the one-shot
//! aggregate of the whole list. This is the contract the fused backends
//! rely on when they reduce per-worker (local) or per-reduce-task (MR)
//! and merge at commit.

use proptest::prelude::*;

use pmr_core::runner::{
    aggregate_all, Accumulator, Aggregator, ConcatSort, DecomposableAggregator, FilterAggregator,
    TopKAggregator,
};

/// Attaches unique neighbor ids to the generated values. Multiplying the
/// index by an odd constant is a bijection mod 2⁶⁴, so ids never collide —
/// matching the runner, where each element sees every neighbor at most
/// once per aggregation group.
fn with_unique_ids<R: Copy>(values: &[R], idseed: u64) -> Vec<(u64, R)> {
    values
        .iter()
        .enumerate()
        .map(|(i, v)| ((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(idseed), *v))
        .collect()
}

/// Splits `partials` at the (normalized, sorted) cut points into
/// contiguous segments covering the whole list.
fn segments<R: Clone>(partials: &[(u64, R)], cuts: &[usize]) -> Vec<Vec<(u64, R)>> {
    let mut points: Vec<usize> = cuts.iter().map(|c| c % (partials.len() + 1)).collect();
    points.push(0);
    points.push(partials.len());
    points.sort_unstable();
    points.dedup();
    points.windows(2).map(|w| partials[w[0]..w[1]].to_vec()).collect()
}

/// fold+merge over the partition, then finish.
fn partitioned<R, A: DecomposableAggregator<R>>(
    agg: &A,
    element: u64,
    parts: Vec<Vec<(u64, R)>>,
) -> Vec<(u64, R)> {
    let mut base = agg.init(element);
    for seg in parts {
        let mut acc = agg.init(element);
        for (other, result) in seg {
            agg.fold(&mut acc, other, result);
        }
        agg.merge(&mut base, acc);
    }
    agg.finish(base)
}

fn law<A: DecomposableAggregator<u64>>(
    agg: &A,
    element: u64,
    values: &[u64],
    idseed: u64,
    cuts: &[usize],
) -> Result<(), TestCaseError> {
    let partials = with_unique_ids(values, idseed);
    let one_shot = aggregate_all(agg, element, partials.clone());
    let split = partitioned(agg, element, segments(&partials, cuts));
    prop_assert_eq!(&split, &one_shot, "partitioned fold+merge must equal one-shot aggregate");
    // Merge order must not matter either (commutativity): merging the
    // segments in reverse produces the same finished list.
    let mut rev = segments(&partials, cuts);
    rev.reverse();
    prop_assert_eq!(
        partitioned(agg, element, rev),
        one_shot,
        "merge must be insensitive to segment order"
    );
    Ok(())
}

/// The `k` best by `(score, id)` straight from the definition — sort the
/// whole list, keep `k` — sharing no code with `fold`, `merge` or the
/// compaction, so a reject that is wrong the same way on every path still
/// fails against it.
fn oracle(k: usize, mut partials: Vec<(u64, f64)>) -> Vec<(u64, f64)> {
    partials.sort_by(|(ia, a), (ib, b)| a.total_cmp(b).then(ia.cmp(ib)));
    partials.truncate(k);
    partials
}

/// Compared by bits, so that NaN results and the sign of zero count.
fn bits(list: &[(u64, f64)]) -> Vec<(u64, u64)> {
    list.iter().map(|(id, r)| (*id, r.to_bits())).collect()
}

/// Scores with ties (1.0 twice) and every value `total_cmp` orders
/// specially: both NaN signs, both infinities, both zeros, a subnormal.
const SCORES: [f64; 12] = [
    f64::NAN,
    -f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    0.0,
    -0.0,
    1.0,
    1.0,
    2.5,
    -7.0,
    1e300,
    f64::MIN_POSITIVE / 4.0,
];

/// Every way an accumulator reaches `finish` — one fold, fold and merge
/// over a partition, an accumulator rebuilt with `from_parts` from
/// unsorted partials, and one whose compacted partials were reordered
/// through `partials_mut` — finishes to the oracle's list.
fn topk_paths_match_oracle(
    k: usize,
    values: &[f64],
    idseed: u64,
    cuts: &[usize],
    split: usize,
) -> Result<(), TestCaseError> {
    let agg = TopKAggregator::new(k, |r: &f64| *r);
    let partials = with_unique_ids(values, idseed);
    let want = bits(&oracle(k, partials.clone()));
    let (head, tail) = partials.split_at(split % (partials.len() + 1));
    let fold_all = |mut acc: Accumulator<f64>, list: &[(u64, f64)]| {
        for &(other, result) in list {
            agg.fold(&mut acc, other, result);
        }
        acc
    };

    let one_fold = fold_all(agg.init(3), &partials);
    prop_assert_eq!(bits(&agg.finish(one_fold)), want.clone(), "fold");
    let merged = partitioned(&agg, 3, segments(&partials, cuts));
    prop_assert_eq!(bits(&merged), want.clone(), "fold + merge");
    let rebuilt = fold_all(Accumulator::from_parts(3, head.to_vec()), tail);
    prop_assert_eq!(bits(&agg.finish(rebuilt)), want.clone(), "from_parts");
    let mut edited = fold_all(agg.init(3), head);
    edited.partials_mut().reverse();
    let edited = fold_all(edited, tail);
    prop_assert_eq!(bits(&agg.finish(edited)), want, "partials_mut");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn topk_matches_sort_oracle(
        values in prop::collection::vec(prop::sample::select(SCORES.to_vec()), 0..80),
        idseed in 0u64..u64::MAX,
        cuts in prop::collection::vec(0usize..96, 0..6),
        split in 0usize..96,
        k in 0usize..12,
    ) {
        topk_paths_match_oracle(k, &values, idseed, &cuts, split)?;
    }

    #[test]
    fn concat_sort_decomposability(
        values in prop::collection::vec(0u64..1000, 0..60),
        element in 0u64..100,
        idseed in 0u64..u64::MAX,
        cuts in prop::collection::vec(0usize..64, 0..6),
    ) {
        law(&ConcatSort, element, &values, idseed, &cuts)?;
    }

    #[test]
    fn filter_decomposability(
        values in prop::collection::vec(0u64..1000, 0..60),
        element in 0u64..100,
        idseed in 0u64..u64::MAX,
        cuts in prop::collection::vec(0usize..64, 0..6),
        modulus in 2u64..7,
    ) {
        law(&FilterAggregator::new(move |r: &u64| !r.is_multiple_of(modulus)), element, &values, idseed, &cuts)?;
    }

    #[test]
    fn topk_decomposability(
        values in prop::collection::vec(0u64..1000, 0..60),
        element in 0u64..100,
        idseed in 0u64..u64::MAX,
        cuts in prop::collection::vec(0usize..64, 0..6),
        k in 1usize..10,
    ) {
        // Duplicate scores across distinct ids are common here (values are
        // drawn from a small range), so the (score, id) tiebreak is load-
        // bearing in this law.
        law(&TopKAggregator::new(k, |r: &u64| *r as f64), element, &values, idseed, &cuts)?;
    }
}

/// The oracle's edge cases pinned: `k = 0`; one score everywhere, so the
/// id alone decides, with more partials than the compaction threshold
/// ahead of the cut; and a list made of the special scores only.
#[test]
fn topk_edge_cases_match_oracle() {
    let specials: Vec<f64> = SCORES.iter().cycle().take(60).copied().collect();
    for k in [0, 1, 5, 11] {
        for (values, split) in [(vec![4.0; 60], 40), (specials.clone(), 30)] {
            topk_paths_match_oracle(k, &values, 17, &[7, 29], split).unwrap();
        }
    }
}

/// Not a proptest (the bound is structural, not data-dependent): top-k
/// accumulators stay O(k) under fold and merge no matter how many partials
/// stream through.
#[test]
fn topk_accumulators_stay_bounded_through_merge() {
    let agg = TopKAggregator::new(4, |r: &u64| *r as f64);
    let mut base = agg.init(0);
    for chunk in 0..50u64 {
        let mut acc = agg.init(0);
        for i in 0..50u64 {
            agg.fold(&mut acc, chunk * 50 + i + 1, 10_000 - (chunk * 50 + i));
        }
        // Compaction threshold for k = 4 is (2k).max(16) = 16; the
        // accumulator may transiently hold up to double that.
        assert!(acc.len() < 32, "fold must compact in place");
        agg.merge(&mut base, acc);
        assert!(base.len() < 32, "merge must compact in place");
    }
    let out = agg.finish(base);
    assert_eq!(out.len(), 4);
    // The 4 global minima are the last 4 results folded (scores 7501..7504).
    assert!(out.iter().all(|(_, r)| *r <= 7504 && *r >= 7501), "{out:?}");
}
