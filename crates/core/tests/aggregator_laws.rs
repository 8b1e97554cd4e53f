//! Property-based decomposability laws: for every built-in aggregator,
//! folding an arbitrary partition of a partial list into separate
//! accumulators and merging them must finish to exactly the one-shot
//! aggregate of the whole list. This is the contract the fused backends
//! rely on when they reduce per-worker (local) or per-reduce-task (MR)
//! and merge at commit.

use proptest::prelude::*;

use pmr_core::runner::{
    aggregate_all, Aggregator, ConcatSort, DecomposableAggregator, FilterAggregator, TopKAggregator,
};

/// Attaches unique neighbor ids to the generated values. Multiplying the
/// index by an odd constant is a bijection mod 2⁶⁴, so ids never collide —
/// matching the runner, where each element sees every neighbor at most
/// once per aggregation group.
fn with_unique_ids(values: &[u64], idseed: u64) -> Vec<(u64, u64)> {
    values
        .iter()
        .enumerate()
        .map(|(i, v)| ((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(idseed), *v))
        .collect()
}

/// Splits `partials` at the (normalized, sorted) cut points into
/// contiguous segments covering the whole list.
fn segments(partials: &[(u64, u64)], cuts: &[usize]) -> Vec<Vec<(u64, u64)>> {
    let mut points: Vec<usize> = cuts.iter().map(|c| c % (partials.len() + 1)).collect();
    points.push(0);
    points.push(partials.len());
    points.sort_unstable();
    points.dedup();
    points.windows(2).map(|w| partials[w[0]..w[1]].to_vec()).collect()
}

/// fold+merge over the partition, then finish.
fn partitioned<A: DecomposableAggregator<u64>>(
    agg: &A,
    element: u64,
    parts: Vec<Vec<(u64, u64)>>,
) -> Vec<(u64, u64)> {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

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
