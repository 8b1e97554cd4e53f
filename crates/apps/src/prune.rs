//! Candidate pruning for thresholded similarity joins.
//!
//! A thresholded join only wants pairs with similarity ≥ `t`, but the
//! pair relation the schemes enumerate is the full `v(v−1)/2` triangle.
//! The filters here implement [`PairFilter`] so a [`PairwiseJob`] can
//! reject most pairs *below* the scheme enumeration — before payloads
//! reach a kernel tile — while the distribution, replication accounting,
//! and every backend stay untouched:
//!
//! * [`PrefixFilter`] — prefix filtering over a global rarest-first term
//!   ordering (Chaudhuri et al. / Bayardo et al. style). **Exact**: a
//!   pair with cosine ≥ `t` is never pruned, so recall is 1.0 by
//!   construction and the thresholded output is byte-identical to the
//!   unpruned reference.
//! * [`LshFilter`] — minhash LSH banding over the term sets.
//!   **Probabilistic**: tunable `bands × rows` trades recall against
//!   pruning power; at the defaults (32 × 2) the S-curve
//!   `1 − (1 − s²)^32` keeps recall ≥ 0.95 for similarities near any
//!   practical threshold.
//!
//! Both filters are built once from the full element set (the driver
//! holds it anyway — pairwise jobs start from an in-memory store) and
//! are `Send + Sync`, so every worker shares one immutable copy. Both
//! also *generate* a task's candidates from its working set — the pairs
//! sharing a prefix term or an LSH bucket — so a task walks those pairs
//! instead of probing all of its own.
//!
//! [`PairwiseJob`]: pmr_core::runner::job::PairwiseJob

use crate::vector::SparseVector;
use pmr_core::runner::PairFilter;
use std::collections::HashMap;

/// Floating-point guard on the prefix boundary: the suffix norm must fall
/// below `t − EPS`, not `t`, so rounding in the norm accumulation can
/// only lengthen a prefix (keeping the filter exact), never shorten it.
const EPS: f64 = 1e-9;

/// Per-element prefix-filter state: term *ranks* (global rarest-first
/// order) sorted ascending, the prefix boundary, and 64-bit OR
/// signatures for the constant-time empty-intersection screen.
#[derive(Debug, Clone, Default)]
struct PrefixElem {
    /// All term ranks, ascending (= rarest first).
    ranks: Vec<u32>,
    /// `ranks[..prefix_len]` is the minimal prefix whose *suffix* norm is
    /// below `t − EPS`. Zero only for zero-norm vectors.
    prefix_len: usize,
    /// OR of a per-rank bit over all terms.
    sig_full: u64,
    /// OR of a per-rank bit over the prefix terms only.
    sig_prefix: u64,
}

/// Exact prefix filter for thresholded cosine joins.
///
/// Terms are ordered globally by ascending document frequency (rarest
/// first, ties by id). Each vector is unit-normalized and its entries
/// sorted into that order; the *prefix* is the minimal leading run whose
/// remaining suffix has norm `< t − ε`. If `cos(a, b) ≥ t` then `b` must
/// share a term with `prefix(a)` **and** `a` must share a term with
/// `prefix(b)` (otherwise the dot product is bounded by the suffix norm,
/// which is below `t`), so rejecting a pair when **either** intersection
/// is empty prunes strictly below the threshold: recall is 1.0 by
/// construction.
#[derive(Debug, Clone, Default)]
pub struct PrefixFilter {
    threshold: f64,
    elems: Vec<PrefixElem>,
}

impl PrefixFilter {
    /// Builds the filter from the full element set for threshold `t`
    /// (required in `(0, 1]` — a cosine threshold).
    ///
    /// Zero-weight entries are ignored; zero-norm vectors get an empty
    /// prefix and are never candidates (their cosine is 0 by convention).
    pub fn build(vectors: &[SparseVector], threshold: f64) -> PrefixFilter {
        assert!(
            threshold > 0.0 && threshold <= 1.0,
            "prefix filter threshold must be in (0, 1], got {threshold}"
        );
        // Global document frequency per term, then rarest-first ranks.
        let mut df: HashMap<u32, u32> = HashMap::new();
        for v in vectors {
            for &(id, w) in &v.0 {
                if w != 0.0 {
                    *df.entry(id).or_insert(0) += 1;
                }
            }
        }
        let mut order: Vec<(u32, u32)> = df.iter().map(|(&id, &n)| (n, id)).collect();
        order.sort_unstable();
        let rank: HashMap<u32, u32> =
            order.iter().enumerate().map(|(r, &(_, id))| (id, r as u32)).collect();

        let elems = vectors
            .iter()
            .map(|v| {
                // Unit-normalize and re-sort into rank order.
                let norm = v.norm();
                if norm == 0.0 {
                    return PrefixElem::default();
                }
                let mut entries: Vec<(u32, f64)> =
                    v.0.iter()
                        .filter(|(_, w)| *w != 0.0)
                        .map(|&(id, w)| (rank[&id], w / norm))
                        .collect();
                entries.sort_unstable_by_key(|(r, _)| *r);
                // Minimal prefix whose suffix norm drops below t − ε:
                // walk from the back accumulating the suffix square sum.
                let mut suffix_sq = 0.0;
                let mut prefix_len = entries.len();
                while prefix_len > 0 {
                    let w = entries[prefix_len - 1].1;
                    if (suffix_sq + w * w).sqrt() >= threshold - EPS {
                        break;
                    }
                    suffix_sq += w * w;
                    prefix_len -= 1;
                }
                let ranks: Vec<u32> = entries.iter().map(|(r, _)| *r).collect();
                let sig =
                    |rs: &[u32]| rs.iter().fold(0u64, |s, &r| s | 1 << (splitmix64(r as u64) & 63));
                PrefixElem {
                    sig_full: sig(&ranks),
                    sig_prefix: sig(&ranks[..prefix_len]),
                    ranks,
                    prefix_len,
                }
            })
            .collect();
        PrefixFilter { threshold, elems }
    }

    /// The cosine threshold the filter was built for.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Prefix length of element `id` (0 for zero-norm vectors).
    pub fn prefix_len(&self, id: u64) -> usize {
        self.elems[id as usize].prefix_len
    }
}

/// True when two ascending rank lists share at least one rank.
fn intersects(a: &[u32], b: &[u32]) -> bool {
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

impl PairFilter for PrefixFilter {
    fn name(&self) -> &'static str {
        "prefix"
    }

    fn exact(&self) -> bool {
        true
    }

    fn is_candidate(&self, a: u64, b: u64) -> bool {
        let (ea, eb) = (&self.elems[a as usize], &self.elems[b as usize]);
        if ea.prefix_len == 0 || eb.prefix_len == 0 {
            return false; // zero-norm: cosine 0 < t by convention
        }
        // Constant-time screen: a zero AND of the signatures proves the
        // corresponding intersection is empty (no shared rank bit).
        if ea.sig_prefix & eb.sig_full == 0 || eb.sig_prefix & ea.sig_full == 0 {
            return false;
        }
        intersects(&ea.ranks[..ea.prefix_len], &eb.ranks)
            && intersects(&eb.ranks[..eb.prefix_len], &ea.ranks)
    }

    /// The pairs sharing a *prefix* rank — exactly the candidates. A pair
    /// passes `is_candidate` iff `prefix(a) ∩ b` and `prefix(b) ∩ a` are
    /// both nonempty, and that holds iff `prefix(a) ∩ prefix(b)` is: if the
    /// prefixes were disjoint, a rank `r_a ∈ prefix(a) ∩ b` would lie in
    /// `b`'s suffix and a rank `r_b ∈ prefix(b) ∩ a` in `a`'s, and ranks
    /// ascend from prefix into suffix, so `r_a < r_b < r_a`. No postings
    /// are kept: the working set's own prefixes are grouped per task.
    fn generate_candidates(
        &self,
        working_set: &[u64],
        limit: u64,
        f: &mut dyn FnMut(u64, u64),
    ) -> bool {
        pairs_sharing_a_key(
            working_set,
            |id| {
                let e = &self.elems[id as usize];
                e.ranks[..e.prefix_len].iter().copied()
            },
            limit,
            f,
        )
    }
}

/// Calls `f(a, b)`, `a > b`, once for every pair of `working_set`
/// (ascending ids) whose `keys` share at least one key, first-operand-major,
/// and returns `true` — or returns `false`, having called `f` not at all,
/// when the key groups hold more than `limit` pairs (counted before a pair
/// sharing several keys is deduplicated).
fn pairs_sharing_a_key<K: Ord + Copy, I: Iterator<Item = K>>(
    working_set: &[u64],
    keys: impl Fn(u64) -> I,
    limit: u64,
    f: &mut dyn FnMut(u64, u64),
) -> bool {
    // `(key, slot)` for every key of every working-set element; slot `s`'s
    // keys are `entries[starts[s]..starts[s + 1]]` until the sort.
    let mut entries: Vec<(K, u32)> = Vec::new();
    let mut starts = Vec::with_capacity(working_set.len() + 1);
    for (slot, &id) in working_set.iter().enumerate() {
        starts.push(entries.len());
        entries.extend(keys(id).map(|k| (k, slot as u32)));
    }
    starts.push(entries.len());
    entries.sort_unstable();
    // `group[p]`: where the key group of sorted entry `p` begins. The
    // pairs inside the groups are the walk below, so they are the bound.
    let mut group = Vec::with_capacity(entries.len());
    let (mut begin, mut walk) = (0usize, 0u64);
    for (p, &(key, _)) in entries.iter().enumerate() {
        if key != entries[begin].0 {
            begin = p;
        }
        group.push(begin);
        walk += (p - begin) as u64;
    }
    if walk > limit {
        return false;
    }
    // `at[starts[s]..starts[s + 1]]`: where slot `s`'s keys sorted to.
    let mut at = vec![0usize; entries.len()];
    let mut next = starts.clone();
    for (p, &(_, slot)) in entries.iter().enumerate() {
        at[next[slot as usize]] = p;
        next[slot as usize] += 1;
    }
    // Slots ascend inside a group, so the members ahead of `a`'s entry are
    // its smaller partners; `seen[b] == a` marks `b` as already paired
    // (and `a` itself, should a key repeat).
    let mut seen = vec![u32::MAX; working_set.len()];
    for (a, &id) in working_set.iter().enumerate() {
        seen[a] = a as u32;
        for &p in &at[starts[a]..starts[a + 1]] {
            for &(_, b) in &entries[group[p]..p] {
                if seen[b as usize] != a as u32 {
                    seen[b as usize] = a as u32;
                    f(id, working_set[b as usize]);
                }
            }
        }
    }
    true
}

/// Default LSH geometry: 32 bands × 2 rows = 64 minhash functions.
pub const LSH_DEFAULT_BANDS: usize = 32;
/// Rows per band in the default geometry.
pub const LSH_DEFAULT_ROWS: usize = 2;
/// Default seed for the minhash family.
pub const LSH_DEFAULT_SEED: u64 = 0x05ee_d1e5_a11b_a0d5;

/// Probabilistic minhash-LSH banding filter over the term sets.
///
/// Each element gets `bands` band hashes, every band combining `rows`
/// minhash values; a pair is a candidate iff **any** band hash collides.
/// For Jaccard similarity `s` the candidate probability is
/// `1 − (1 − s^rows)^bands` — steep around `(1/bands)^(1/rows)`, so
/// bands × rows tune where the pruning knee sits. Not exact: recall is
/// probabilistic (≥ 0.95 near the defaults for similar pairs), so pair
/// it with a threshold check in the aggregator and accept the tradeoff —
/// or use [`PrefixFilter`] when recall 1.0 is required.
#[derive(Debug, Clone, Default)]
pub struct LshFilter {
    bands: usize,
    rows: usize,
    /// Per element, `bands` band hashes; empty for empty term sets.
    band_hashes: Vec<Vec<u64>>,
}

impl LshFilter {
    /// Builds a filter with explicit geometry. `bands * rows` minhash
    /// functions are derived deterministically from `seed`, so the same
    /// inputs always produce the same candidate set.
    pub fn build(vectors: &[SparseVector], bands: usize, rows: usize, seed: u64) -> LshFilter {
        assert!(bands > 0 && rows > 0, "lsh geometry must be nonzero, got {bands}x{rows}");
        let band_hashes = vectors
            .iter()
            .map(|v| {
                if v.0.iter().all(|(_, w)| *w == 0.0) {
                    return Vec::new();
                }
                (0..bands)
                    .map(|band| {
                        let mut h = splitmix64(seed ^ band as u64);
                        for row in 0..rows {
                            let fn_seed = splitmix64(seed ^ ((band * rows + row) as u64) << 8);
                            let min =
                                v.0.iter()
                                    .filter(|(_, w)| *w != 0.0)
                                    .map(|&(id, _)| splitmix64(fn_seed ^ id as u64))
                                    .min()
                                    .expect("nonzero entry exists");
                            h = splitmix64(h ^ min);
                        }
                        h
                    })
                    .collect()
            })
            .collect();
        LshFilter { bands, rows, band_hashes }
    }

    /// Builds with the default 32 × 2 geometry and seed.
    pub fn with_defaults(vectors: &[SparseVector]) -> LshFilter {
        LshFilter::build(vectors, LSH_DEFAULT_BANDS, LSH_DEFAULT_ROWS, LSH_DEFAULT_SEED)
    }

    /// `(bands, rows)` geometry.
    pub fn geometry(&self) -> (usize, usize) {
        (self.bands, self.rows)
    }

    /// Probability a pair with Jaccard similarity `s` becomes a
    /// candidate: `1 − (1 − s^rows)^bands`.
    pub fn candidate_probability(&self, s: f64) -> f64 {
        1.0 - (1.0 - s.powi(self.rows as i32)).powi(self.bands as i32)
    }
}

impl PairFilter for LshFilter {
    fn name(&self) -> &'static str {
        "lsh"
    }

    fn is_candidate(&self, a: u64, b: u64) -> bool {
        let (ha, hb) = (&self.band_hashes[a as usize], &self.band_hashes[b as usize]);
        ha.iter().zip(hb).any(|(x, y)| x == y)
    }

    /// The pairs sharing a `(band, band hash)` bucket — exactly the
    /// candidates.
    fn generate_candidates(
        &self,
        working_set: &[u64],
        limit: u64,
        f: &mut dyn FnMut(u64, u64),
    ) -> bool {
        pairs_sharing_a_key(
            working_set,
            |id| self.band_hashes[id as usize].iter().copied().enumerate(),
            limit,
            f,
        )
    }
}

/// SplitMix64: the one-shot mixer used for all hashing here (deterministic,
/// dependency-free, excellent avalanche).
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vecs(raw: &[&[(u32, f64)]]) -> Vec<SparseVector> {
        raw.iter().map(|e| SparseVector::from_entries(e.to_vec())).collect()
    }

    #[test]
    fn prefix_filter_never_prunes_above_threshold() {
        // Hand corpus with near-duplicates and disjoint outliers.
        let data = vecs(&[
            &[(0, 1.0), (1, 2.0), (2, 3.0)],
            &[(0, 1.0), (1, 2.0), (2, 2.9)],
            &[(7, 5.0), (9, 1.0)],
            &[(3, 1.0)],
            &[], // zero vector
        ]);
        let t = 0.8;
        let f = PrefixFilter::build(&data, t);
        assert!(f.exact());
        for a in 0..data.len() {
            for b in 0..a {
                let sim = data[a].cosine(&data[b]);
                if sim >= t {
                    assert!(
                        f.is_candidate(a as u64, b as u64),
                        "exactness violated: sim({a},{b})={sim} pruned"
                    );
                }
            }
        }
        // The near-duplicate pair survives; a disjoint pair is pruned.
        assert!(f.is_candidate(1, 0));
        assert!(!f.is_candidate(2, 0));
        // Zero vectors are never candidates.
        assert!(!f.is_candidate(4, 0));
        assert_eq!(f.prefix_len(4), 0);
    }

    #[test]
    fn prefix_boundary_shrinks_with_threshold() {
        let data = vecs(&[&[(0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0)]]);
        // Higher threshold ⇒ larger admissible suffix ⇒ shorter prefix.
        let lo = PrefixFilter::build(&data, 0.3).prefix_len(0);
        let hi = PrefixFilter::build(&data, 0.95).prefix_len(0);
        assert!(hi <= lo, "prefix at t=0.95 ({hi}) longer than at t=0.3 ({lo})");
        assert!(hi >= 1);
    }

    #[test]
    #[should_panic(expected = "must be in (0, 1]")]
    fn prefix_threshold_validated() {
        let _ = PrefixFilter::build(&[], 0.0);
    }

    #[test]
    fn lsh_identical_sets_always_collide_disjoint_rarely() {
        let a: Vec<(u32, f64)> = (0..40).map(|i| (i, 1.0)).collect();
        let b: Vec<(u32, f64)> = (100..140).map(|i| (i, 1.0)).collect();
        let data = vecs(&[&a, &a, &b, &[]]);
        let f = LshFilter::with_defaults(&data);
        assert!(!f.exact());
        assert!(f.is_candidate(1, 0), "identical sets share every band");
        assert!(!f.is_candidate(3, 0), "empty set is never a candidate");
        assert_eq!(f.geometry(), (LSH_DEFAULT_BANDS, LSH_DEFAULT_ROWS));
        // Probability sanity: near-duplicates land on the steep side.
        assert!(f.candidate_probability(0.9) > 0.999);
        assert!(f.candidate_probability(0.05) < 0.1);
    }

    /// Over a whole working set with room to spare, each filter generates
    /// precisely its candidate pairs, once each and first-operand-major;
    /// one pair short of its walk it declines without emitting anything.
    #[test]
    fn generation_names_exactly_the_candidates() {
        let a: Vec<(u32, f64)> = (0..12).map(|i| (i, 1.0 + i as f64)).collect();
        let mut data = vecs(&[&a, &a[..10], &[(40, 1.0), (41, 2.0)], &[], &[(40, 1.0)], &a[2..]]);
        data.extend(vecs(&[&[(3, 1.0), (40, 1.0)], &[(41, 1.0)], &a]));
        let ids: Vec<u64> = (0..data.len() as u64).collect();
        let filters: [Box<dyn PairFilter>; 3] = [
            Box::new(PrefixFilter::build(&data, 0.5)),
            Box::new(PrefixFilter::build(&data, 0.9)),
            Box::new(LshFilter::build(&data, 8, 1, 7)),
        ];
        for filter in &filters {
            let mut want = Vec::new();
            for x in 1..ids.len() as u64 {
                want.extend((0..x).filter(|&y| filter.is_candidate(x, y)).map(|y| (x, y)));
            }
            let mut got = Vec::new();
            assert!(filter.generate_candidates(&ids, u64::MAX, &mut |x, y| got.push((x, y))));
            assert!(got.windows(2).all(|w| w[0].0 <= w[1].0), "first-operand-major: {got:?}");
            got.sort_unstable();
            assert_eq!(got, want, "{}", filter.name());
            // The walk's length is the smallest limit that generates.
            let walk =
                (0..).find(|&l| filter.generate_candidates(&ids, l, &mut |_, _| {})).unwrap();
            assert!(walk >= want.len() as u64);
            let mut called = false;
            if walk > 0 {
                assert!(!filter.generate_candidates(&ids, walk - 1, &mut |_, _| called = true));
            }
            assert!(!called, "{}: declined after emitting", filter.name());
        }
    }

    #[test]
    fn lsh_is_deterministic_across_builds() {
        let a: Vec<(u32, f64)> = (0..16).map(|i| (i * 3, 1.0)).collect();
        let data = vecs(&[&a]);
        let f1 = LshFilter::with_defaults(&data);
        let f2 = LshFilter::with_defaults(&data);
        assert_eq!(f1.band_hashes, f2.band_hashes);
    }
}
