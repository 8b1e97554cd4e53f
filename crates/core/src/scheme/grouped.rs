//! One scheme skeleton: element groups covered by lines.
//!
//! Every scheme but broadcast is the same construction. `0..v` is split
//! into contiguous, ascending *groups* (block: `h` stripes; design and
//! quorum: single elements), and each task is a *line* that holds some
//! groups and owns some pairs of them (block: one cell of the stripe
//! triangle; design: one block of the plane; quorum: one rotation of a
//! difference cover; the two-level rounds: a cover of part of the pair
//! matrix). A [`PairCover`] makes that one decision; [`GroupedScheme`]
//! answers the paper's `getSubsets` and `getPairs` from it once:
//!
//! - a line's working set is the union of its groups;
//! - an element's subsets are the lines through its group;
//! - a line's pairs are, for each group pair `(g, h)` it owns, the cross
//!   product `group(g) × group(h)` (`g > h`) or the strict triangle of
//!   `group(g)` (`g == h`), walked in cache-blocked tiles.
//!
//! **Exactly once.** A pair `a > b` lies in exactly one group pair,
//! `(group_of(a), group_of(b))`, and the walk of that group pair yields it
//! exactly once: groups ascend, so the cross product of two groups holds
//! only pairs with `a > b`, and the triangle of one group holds each of its
//! pairs once. So a cover in which each needed group pair has one owner,
//! and that owner's line holds both groups, evaluates every pair exactly
//! once, inside the owner's working set — and [`PairCover::owner`] is
//! [`DistributionScheme::owner_of`] one level up. A round of a hierarchical
//! scheme owns only some group pairs and answers `None` for the rest.

use std::ops::Range;

use crate::enumeration::{for_each_pair_rect, for_each_pair_triangle};
use crate::scheme::{DistributionScheme, Shape};

/// The decision a grouped scheme makes: which groups each line holds and
/// which group pairs it owns.
pub trait PairCover: Send + Sync {
    /// The elements of group `g`. Groups are contiguous and ascend with `g`.
    fn group(&self, g: u64) -> Range<u64>;

    /// The group holding element `e`, or `None` when no group does (an
    /// element outside a round's ranges).
    fn group_of(&self, e: u64) -> Option<u64>;

    /// The groups line `line` holds, ascending.
    fn groups_on(&self, line: u64) -> Vec<u64>;

    /// The lines that hold group `g`, ascending.
    fn lines_through(&self, g: u64) -> Vec<u64>;

    /// Calls `f(g, h)` for each group pair line `line` owns: `g ≥ h`, and
    /// `g == h` stands for the pairs inside group `g`.
    fn for_each_owned(&self, line: u64, f: impl FnMut(u64, u64));

    /// The line that owns group pair `(g, h)` (`g ≥ h`), or `None` when no
    /// line of this cover does.
    fn owner(&self, g: u64, h: u64) -> Option<u64>;

    /// Number of element pairs line `line` evaluates. The default sums the
    /// owned group pairs, which is O(pairs) on single-element groups — such
    /// covers override it with a closed form.
    fn num_pairs(&self, line: u64) -> u64 {
        let mut n = 0;
        self.for_each_owned(line, |g, h| {
            let (a, b) = (span(self.group(g)), span(self.group(h)));
            n += if g == h { a * a.saturating_sub(1) / 2 } else { a * b };
        });
        n
    }

    /// The cover's closed form: its name, lines (tasks) and sizes.
    fn shape(&self) -> Shape;
}

fn span(r: Range<u64>) -> u64 {
    r.end - r.start
}

/// A [`DistributionScheme`] whose tasks are the lines of a [`PairCover`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupedScheme<C> {
    /// Global element count (a round's ids stay global).
    pub(crate) v: u64,
    pub(crate) cover: C,
}

impl<C: PairCover> DistributionScheme for GroupedScheme<C> {
    fn v(&self) -> u64 {
        self.v
    }

    fn subsets_of(&self, element: u64) -> Vec<u64> {
        self.cover.group_of(element).map_or_else(Vec::new, |g| self.cover.lines_through(g))
    }

    fn working_set(&self, task: u64) -> Vec<u64> {
        self.cover.groups_on(task).into_iter().flat_map(|g| self.cover.group(g)).collect()
    }

    fn for_each_pair(&self, task: u64, f: &mut dyn FnMut(u64, u64)) {
        self.cover.for_each_owned(task, |g, h| {
            let (rg, rh) = (self.cover.group(g), self.cover.group(h));
            if g == h {
                for_each_pair_triangle(rg, f);
            } else if span(rg.clone()) == 1 && span(rh.clone()) == 1 {
                // Single-element groups (design, quorum): no tile loops.
                f(rg.start, rh.start);
            } else {
                for_each_pair_rect(rg, rh, f);
            }
        });
    }

    fn num_pairs(&self, task: u64) -> u64 {
        self.cover.num_pairs(task)
    }

    fn owner_of(&self, a: u64, b: u64) -> Option<u64> {
        debug_assert!(a != b && a.max(b) < self.v);
        self.cover.owner(self.cover.group_of(a)?, self.cover.group_of(b)?)
    }

    fn shape(&self) -> Shape {
        self.cover.shape()
    }
}
