//! Placed rows: an all-pairs output written once, in place.
//!
//! When the aggregator [places rows](crate::runner::DecomposableAggregator::places_rows)
//! and the run covers every pair, element `a`'s finished row is known in
//! shape before the first pair is evaluated: its `v − 1` neighbours in
//! ascending id, so neighbour `b` goes at index `b − (b > a)`. The local
//! runner and the fused MR driver merge then write each result at its index
//! in an exact-size row — no accumulator, no merge, no sort.
//!
//! Every write is checked. A row starts filled with a placeholder carrying
//! the element's own id, which is never a valid neighbour, so a write that
//! finds a different id at its index is a duplicate; a row not written
//! exactly `v − 1` times by the end has a hole. Either is an error, never a
//! silently wrong row.

use crate::runner::{DecomposableAggregator, PairwiseOutput};
use crate::scheme::DistributionScheme;

/// Whether a run that collects its results under `dec` may place rows —
/// the caller decides what `dec` is (a fused run's aggregator, or
/// `ConcatSort` gathering every partial). Each condition excludes a case
/// whose rows are not the full neighbour list or would cost more to fill:
///
/// * `dec` places rows — `TopK` and `Filter` keep a subset;
/// * no [`PairFilter`](crate::runner::PairFilter) is attached — a pruned
///   pair is a hole by design;
/// * `R` owns no heap memory — the placeholder fill clones one result
///   `v − 1` times per row;
/// * the tasks cover every pair, `Σ num_pairs(t) = v(v−1)/2` — a
///   [`TaskSliceScheme`](crate::hierarchical::TaskSliceScheme) holds part
///   of the pairs. A rounds plan passes its flat scheme, so its rows are
///   placed across all its rounds.
pub(crate) fn places_rows<R>(
    dec: &dyn DecomposableAggregator<R>,
    filtered: bool,
    scheme: &dyn DistributionScheme,
) -> bool {
    dec.places_rows() && !filtered && !std::mem::needs_drop::<R>() && covers_every_pair(scheme)
}

fn covers_every_pair(scheme: &dyn DistributionScheme) -> bool {
    let v = scheme.v();
    (0..scheme.num_tasks()).map(|t| scheme.num_pairs(t)).sum::<u64>() == v * v.saturating_sub(1) / 2
}

/// One element's exact-size output row and how many of its cells were
/// written.
#[derive(Debug)]
pub(crate) struct PlacedRow<R> {
    cells: Vec<(u64, R)>,
    written: usize,
}

/// Writes each `(other, result)` of `entries` into `element`'s row of a
/// `v`-element run at index `other − (other > element)`, allocating the
/// row — every cell the own-id placeholder — on first touch. A neighbour
/// outside `0..v`, the element itself, or a cell already written is an
/// error.
pub(crate) fn place<R: Clone>(
    row: &mut Option<PlacedRow<R>>,
    element: u64,
    v: u64,
    entries: impl IntoIterator<Item = (u64, R)>,
) -> Result<(), String> {
    let mut entries = entries.into_iter().peekable();
    let Some((_, first)) = entries.peek() else { return Ok(()) };
    let row = row.get_or_insert_with(|| PlacedRow {
        cells: vec![(element, first.clone()); v as usize - 1],
        written: 0,
    });
    for (other, result) in entries {
        // `other ≥ v` indexes past the row; `other == element` lands on a
        // placeholder and is caught by the second test.
        match row.cells.get_mut((other - u64::from(other > element)) as usize) {
            Some(cell) if cell.0 == element && other != element => *cell = (other, result),
            Some(_) if other != element => {
                return Err(format!("element {element}: neighbour {other} written twice"))
            }
            _ => {
                return Err(format!(
                    "element {element}: {other} is not a neighbour in a {v}-element run"
                ))
            }
        }
        row.written += 1;
    }
    Ok(())
}

/// Assembles the output from `rows` (`rows[id]` is element `id`'s), checking
/// that every row of the `v`-element run was written exactly `v − 1` times.
pub(crate) fn finish_rows<R>(
    rows: impl IntoIterator<Item = Option<PlacedRow<R>>>,
    v: u64,
) -> Result<PairwiseOutput<R>, String> {
    let want = v.saturating_sub(1) as usize;
    let per_element = (0u64..)
        .zip(rows)
        .map(|(id, row)| {
            let (cells, written) = row.map_or((Vec::new(), 0), |row| (row.cells, row.written));
            if written != want {
                return Err(format!("element {id}: {written} of {want} neighbours written"));
            }
            Ok((id, cells))
        })
        .collect::<Result<_, String>>()?;
    Ok(PairwiseOutput { per_element })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchical::TwoLevelBlock;
    use crate::runner::{ConcatSort, FilterAggregator, TopKAggregator};
    use crate::scheme::BlockScheme;

    #[test]
    fn gate_admits_only_unfiltered_fused_all_pairs_concat_of_plain_results() {
        // Whether the run is fused is the caller's term: an unfused MR run
        // never reaches the gate.
        let block = BlockScheme::new(20, 3);
        assert!(places_rows::<f64>(&ConcatSort, false, &block));
        assert!(!places_rows::<f64>(&ConcatSort, true, &block), "filtered");
        assert!(!places_rows::<String>(&ConcatSort, false, &block), "heap-owning R");
        let topk = TopKAggregator::new(3, |r: &f64| *r);
        assert!(!places_rows(&topk, false, &block), "top-k");
        let filter = FilterAggregator::new(|r: &f64| *r > 0.0);
        assert!(!places_rows(&filter, false, &block), "filter aggregator");
        let round = TwoLevelBlock::new(20, 2, 2).rounds().round(0);
        assert!(!places_rows::<f64>(&ConcatSort, false, &round), "one round");
    }

    fn row_of(element: u64, v: u64, others: &[u64]) -> Result<Option<PlacedRow<u64>>, String> {
        let mut row = None;
        place(&mut row, element, v, others.iter().map(|&other| (other, 10 * other)))?;
        Ok(row)
    }

    #[test]
    fn neighbours_land_in_ascending_order_whatever_the_write_order() {
        let rows = [row_of(0, 3, &[2, 1]), row_of(1, 3, &[2, 0]), row_of(2, 3, &[1, 0])];
        let out = finish_rows(rows.map(Result::unwrap), 3).unwrap();
        assert_eq!(
            out.per_element,
            vec![
                (0, vec![(1, 10), (2, 20)]),
                (1, vec![(0, 0), (2, 20)]),
                (2, vec![(0, 0), (1, 10)])
            ]
        );
    }

    #[test]
    fn foreign_self_and_duplicate_neighbours_are_errors() {
        assert!(row_of(2, 5, &[5]).unwrap_err().contains("not a neighbour"));
        assert!(row_of(2, 5, &[2]).unwrap_err().contains("not a neighbour"));
        assert!(row_of(2, 5, &[3, 3]).unwrap_err().contains("written twice"));
    }

    #[test]
    fn holes_are_errors_and_single_element_rows_are_empty() {
        let rows = [row_of(0, 3, &[1, 2]).unwrap(), row_of(1, 3, &[0]).unwrap(), None];
        let err = finish_rows(rows, 3).unwrap_err();
        assert!(err.contains("element 1: 1 of 2"), "{err}");
        let out = finish_rows([None::<PlacedRow<u64>>], 1).unwrap();
        assert_eq!(out.per_element, vec![(0, vec![])]);
    }
}
