//! Thresholded-join pruning suite: prefix filtering must be *exact*
//! (recall 1.0 — the pruned join finds precisely the pairs at or above
//! the threshold), LSH banding must clear its recall target on near-dup
//! corpora, and a pruned run must stay byte-identical across every
//! scheme × backend × fusion × chaos combination.

use proptest::prelude::*;
use std::sync::Arc;

use pairwise_mr::apps::docsim::{cosine_comp, tfidf};
use pairwise_mr::apps::generate::zipf_documents;
use pairwise_mr::apps::prune::{LshFilter, PrefixFilter};
use pairwise_mr::apps::SparseVector;
use pairwise_mr::core::hierarchical::{BatchedDesign, Rounds, TwoLevelBlock};
use pairwise_mr::prelude::*;

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Random corpus over a small vocabulary (so similarities spread widely).
fn random_corpus(v: usize, vocab: u32, len: usize, seed: u64) -> Vec<SparseVector> {
    let mut s = seed;
    (0..v)
        .map(|_| {
            SparseVector::from_entries(
                (0..len)
                    .map(|_| (splitmix(&mut s) as u32 % vocab, 1.0 + (splitmix(&mut s) % 5) as f64))
                    .collect(),
            )
        })
        .collect()
}

/// Clustered corpus: `groups` groups of `per` members sharing a 12-term
/// core plus 2 private terms each — intra-group cosine 12/14 ≈ 0.857,
/// cross-group cosine 0. Gives a thresholded join with a known survivor
/// set and plenty to prune.
fn clustered_corpus(groups: u32, per: u32) -> Vec<SparseVector> {
    (0..groups)
        .flat_map(|g| {
            (0..per).map(move |m| {
                let base = g * 20;
                let entries: Vec<(u32, f64)> = (0..12)
                    .map(|i| (base + i, 1.0))
                    .chain([(base + 12 + 2 * m, 1.0), (base + 13 + 2 * m, 1.0)])
                    .collect();
                SparseVector::from_entries(entries)
            })
        })
        .collect()
}

fn keep_at_least(t: f64) -> Arc<dyn Aggregator<f64>> {
    Arc::new(FilterAggregator::new(move |r: &f64| *r >= t))
}

/// How a run distributes its tasks: one flat scheme, the broadcast scheme
/// through the §5.1 single-job variant, or a flat scheme's tasks in
/// sequential rounds.
enum Plan {
    Flat(Arc<dyn DistributionScheme>),
    Broadcast(BroadcastScheme),
    Rounds(Rounds),
}

impl Plan {
    /// `job`, distributed by this plan.
    fn apply<'a>(
        &self,
        job: PairwiseJob<'a, SparseVector, f64>,
    ) -> PairwiseJob<'a, SparseVector, f64> {
        match self {
            Plan::Flat(scheme) => job.scheme_arc(Arc::clone(scheme)),
            Plan::Broadcast(scheme) => job.broadcast(scheme.clone()),
            Plan::Rounds(rounds) => job.rounds(rounds.clone()),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The prefix-filtered thresholded join finds exactly the pairs with
    /// cosine ≥ t that the exact all-pairs reference finds: recall 1.0,
    /// and byte-identical output (the filter only ever removes pairs the
    /// threshold would drop anyway).
    #[test]
    fn prefix_filter_recall_is_one(
        v in 8usize..28,
        vocab in 12u32..64,
        len in 4usize..12,
        seed in any::<u64>(),
        t_idx in 0usize..4,
    ) {
        let t = [0.5, 0.7, 0.85, 0.95][t_idx];
        let corpus = random_corpus(v, vocab, len, seed);
        let filter = PrefixFilter::build(&corpus, t);

        // Recall 1.0 against the brute-force pair set.
        for a in 0..v as u64 {
            for b in 0..a {
                let sim = corpus[a as usize].cosine(&corpus[b as usize]);
                if sim >= t {
                    prop_assert!(
                        filter.is_candidate(a, b),
                        "exactness violated: sim({a},{b})={sim} ≥ {t} was pruned"
                    );
                }
            }
        }

        // The pruned run's output is byte-identical to the exact one.
        let exact = PairwiseJob::new(&corpus, cosine_comp())
            .aggregator_arc(keep_at_least(t))
            .run()
            .unwrap();
        let pruned = PairwiseJob::new(&corpus, cosine_comp())
            .aggregator_arc(keep_at_least(t))
            .pair_filter(filter)
            .run()
            .unwrap();
        prop_assert_eq!(&exact.output, &pruned.output);

        // Pruning accounting: every enumerated pair is either pruned or
        // evaluated (`check`), and the counters mirror the report section.
        prop_assert_eq!(pruned.check(), Ok(()));
        let p = pruned.report.pruning.as_ref().expect("filtered run reports pruning");
        prop_assert_eq!(p.candidates, (v * (v - 1) / 2) as u64);
        prop_assert_eq!(pruned.evaluations(), p.evaluated);
        prop_assert_eq!(
            pruned.report.counter(CANDIDATE_PAIRS_COUNTER),
            Some(p.candidates)
        );
        // The unfiltered reference never grows the pruning counters.
        prop_assert!(exact.report.pruning.is_none());
        prop_assert_eq!(exact.report.counter(CANDIDATE_PAIRS_COUNTER), None);
        prop_assert_eq!(exact.report.counter(PRUNED_PAIRS_COUNTER), None);
    }
}

/// LSH banding at the default 32 × 2 geometry keeps ≥ 95 % of the pairs
/// a 0.8-cosine threshold wants, while pruning most dissimilar pairs.
#[test]
fn lsh_recall_at_default_geometry() {
    // Near-dup corpus: 40 base docs of 40 uniform-weight terms, each with
    // a twin sharing 36 of them (Jaccard ≈ 0.82, cosine 0.9).
    let mut s = 0xD0C5_1234u64;
    let mut corpus: Vec<SparseVector> = Vec::new();
    for d in 0..40u32 {
        let terms: Vec<u32> =
            (0..40).map(|_| d * 4096 + (splitmix(&mut s) % 2048) as u32).collect();
        let base: Vec<(u32, f64)> = terms.iter().map(|&t| (t, 1.0)).collect();
        let twin: Vec<(u32, f64)> = terms
            .iter()
            .enumerate()
            .map(|(i, &t)| if i < 36 { (t, 1.0) } else { (d * 4096 + 2048 + i as u32, 1.0) })
            .collect();
        corpus.push(SparseVector::from_entries(base));
        corpus.push(SparseVector::from_entries(twin));
    }
    let filter = LshFilter::with_defaults(&corpus);
    let (mut wanted, mut kept, mut cold, mut cold_kept) = (0u64, 0u64, 0u64, 0u64);
    for a in 0..corpus.len() as u64 {
        for b in 0..a {
            let sim = corpus[a as usize].cosine(&corpus[b as usize]);
            let candidate = filter.is_candidate(a, b);
            if sim >= 0.8 {
                wanted += 1;
                kept += candidate as u64;
            } else if sim < 0.2 {
                cold += 1;
                cold_kept += candidate as u64;
            }
        }
    }
    assert!(wanted >= 40, "corpus must contain the near-dup pairs, got {wanted}");
    let recall = kept as f64 / wanted as f64;
    assert!(recall >= 0.95, "LSH recall {recall} below 0.95 ({kept}/{wanted})");
    assert!(
        (cold_kept as f64) < 0.2 * cold as f64,
        "LSH admits too many dissimilar pairs: {cold_kept}/{cold}"
    );
}

/// One pruned run, every execution shape: the prefix-filtered thresholded
/// join must produce the byte-identical survivor set on all schemes (and
/// the §5.1 broadcast job), both fusion modes, the local and MR backends,
/// and under seeded node crashes — all equal to the unfiltered sequential
/// reference. One document shares no term with any other, so the filter
/// prunes every pair of it and no task has a result for it: its row must
/// still be the aggregator over zero partials.
#[test]
fn pruned_runs_agree_across_schemes_backends_fusion_and_chaos() {
    let mut corpus = clustered_corpus(12, 3); // survivors: 3 per group
    let isolated = corpus.len() as u64;
    corpus.push(SparseVector::from_entries((1000..1014).map(|i| (i, 1.0)).collect()));
    let v = corpus.len() as u64;
    let t = 0.7;
    let total_pairs = v * (v - 1) / 2;

    let reference =
        PairwiseJob::new(&corpus, cosine_comp()).aggregator_arc(keep_at_least(t)).run().unwrap();
    // The clustered corpus has a known survivor count.
    let survivors: usize = reference.output.per_element.iter().map(|(_, rs)| rs.len()).sum();
    assert_eq!(survivors, 12 * 3 * 2, "each group member pairs with its 2 peers");
    assert_eq!(reference.output.results_of(isolated), Some(&[][..]));

    let filter = Arc::new(PrefixFilter::build(&corpus, t));
    assert!((0..isolated).all(|b| !filter.is_candidate(isolated, b)));
    let plans: Vec<(&str, Plan)> = vec![
        ("block", Plan::Flat(Arc::new(BlockScheme::new(v, 5)))),
        ("paired", Plan::Flat(Arc::new(PairedBlockScheme::new(v, 5)))),
        ("broadcast", Plan::Flat(Arc::new(BroadcastScheme::new(v, 6)))),
        ("§5.1 broadcast", Plan::Broadcast(BroadcastScheme::new(v, 6))),
        ("design", Plan::Flat(Arc::new(DesignScheme::new(v)))),
        ("quorum", Plan::Flat(Arc::new(QuorumScheme::new(v)))),
    ];
    for (name, plan) in &plans {
        for fuse in [true, false] {
            let job = || {
                plan.apply(PairwiseJob::new(&corpus, cosine_comp()))
                    .aggregator_arc(keep_at_least(t))
                    .pair_filter_arc(filter.clone())
                    .fuse(fuse)
            };
            let local = job().backend(Backend::Local { threads: 4 }).run().unwrap();
            let cluster = Cluster::new(ClusterConfig::with_nodes(4));
            let mr = job().backend(Backend::Mr(&cluster)).run().unwrap();
            // Chaos: a crashed node must not double- or under-count the
            // pruning counters, and the output stays identical.
            let chaotic_cluster = Cluster::new(ClusterConfig::with_nodes(4).chaos(1, 23));
            let chaotic = job().backend(Backend::Mr(&chaotic_cluster)).run().unwrap();
            for (row, run) in [("local", &local), ("mr", &mr), ("chaotic mr", &chaotic)] {
                let case = format!("{name}/fuse={fuse}/{row}");
                assert_eq!(run.output, reference.output, "{case}: pruned output drifted");
                let p = run.report.pruning.as_ref().unwrap();
                assert_eq!(p.candidates, total_pairs, "{case}: candidates == C(v, 2)");
                run.check().unwrap_or_else(|e| panic!("{case}: {e}"));
                assert_eq!(run.evaluations(), p.evaluated, "{case}: evaluations");
            }
            let (mp, cp) = (mr.report.pruning.as_ref().unwrap(), chaotic.report.pruning.unwrap());
            assert_eq!(
                (cp.candidates, cp.pruned, cp.evaluated),
                (mp.candidates, mp.pruned, mp.evaluated),
                "{name}/fuse={fuse}: chaos changed the pruning tallies"
            );
        }
    }
}

/// Corpora the generating filters must not mis-handle: random documents
/// with zero-norm vectors and exact duplicates mixed in (`v` as given),
/// and `v` all-identical documents, whose tasks fall back to the probe.
fn differential_corpora(v: usize, seed: u64) -> [Vec<SparseVector>; 2] {
    let mut mixed = random_corpus(v, 48, 7, seed);
    for i in 0..v {
        if i % 7 == 3 {
            mixed[i] = SparseVector::from_entries(Vec::new());
        } else if i % 5 == 4 {
            mixed[i] = mixed[i - 1].clone();
        }
    }
    let identical = vec![random_corpus(1, 48, 7, seed).remove(0); v];
    [mixed, identical]
}

/// Every scheme type: the five flat schemes and the rounds of both
/// hierarchical plans, each round a task slice.
fn every_scheme_type(v: u64) -> Vec<Arc<dyn DistributionScheme>> {
    let mut schemes: Vec<Arc<dyn DistributionScheme>> = vec![
        Arc::new(BlockScheme::new(v, 4)),
        Arc::new(PairedBlockScheme::new(v, 3)),
        Arc::new(BroadcastScheme::new(v, 5)),
        Arc::new(DesignScheme::new(v)),
        Arc::new(QuorumScheme::new(v)),
    ];
    for rounds in [TwoLevelBlock::new(v, 3, 2).rounds(), BatchedDesign::new(v, 3).rounds()] {
        schemes.extend(rounds.iter().map(|r| Arc::new(r) as Arc<_>));
    }
    schemes
}

/// Generated equals probed, task by task: on every scheme type, where the
/// filter can generate a task's candidates from its working set, the
/// generated pairs are distinct, first-operand-major with `a > b`, and the
/// ones the scheme's `owner_of` assigns to the task and `is_candidate`
/// re-admits are the multiset the plain probe of its `for_each_pair`
/// keeps, so the tallies match too — for prefix filters at three thresholds
/// and for LSH. Whole runs on the local and MR backends, in both
/// symmetries, then match the sequential oracle, which probes, in output
/// and prune tallies.
#[test]
fn generated_candidates_equal_probed_per_task() {
    let (mut generated, mut fell_back) = (0u64, 0u64);
    for (v, seed) in [(2usize, 1u64), (3, 2), (37, 3), (130, 4)] {
        for corpus in differential_corpora(v, seed) {
            let filters: Vec<(String, Arc<dyn PairFilter>)> = [0.5, 0.8, 0.95]
                .into_iter()
                .map(|t| (format!("prefix@{t}"), Arc::new(PrefixFilter::build(&corpus, t)) as _))
                .chain([("lsh".to_string(), Arc::new(LshFilter::build(&corpus, 8, 2, 5)) as _)])
                .collect();
            for scheme in every_scheme_type(v as u64) {
                for (name, filter) in &filters {
                    for t in 0..scheme.num_tasks() {
                        let case = format!("v={v} {name} {} task {t}", scheme.name());
                        let ws = scheme.working_set(t);
                        let relation = scheme.num_pairs(t);
                        let (mut enumerated, mut want) = (0u64, Vec::new());
                        scheme.for_each_pair(t, &mut |a, b| {
                            enumerated += 1;
                            if filter.is_candidate(a, b) {
                                want.push((a, b));
                            }
                        });
                        // A generating task tallies `candidates = num_pairs(t)` and
                        // `pruned = num_pairs(t) − survivors`: the probe's tallies
                        // exactly when these two checks hold.
                        assert_eq!(enumerated, relation, "{case}: num_pairs");
                        let mut emitted = Vec::new();
                        if !filter
                            .generate_candidates(&ws, relation, &mut |a, b| emitted.push((a, b)))
                        {
                            assert!(emitted.is_empty(), "{case}: emitted, then fell back");
                            fell_back += 1;
                            continue;
                        }
                        generated += 1;
                        assert!(emitted.iter().all(|&(a, b)| a > b), "{case}: a > b");
                        let mut firsts: Vec<u64> = emitted.iter().map(|&(a, _)| a).collect();
                        firsts.dedup();
                        let runs = firsts.len();
                        firsts.sort_unstable();
                        firsts.dedup();
                        assert_eq!(firsts.len(), runs, "{case}: first-operand-major");
                        let mut got: Vec<(u64, u64)> = emitted
                            .iter()
                            .copied()
                            .filter(|&(a, b)| {
                                scheme.owner_of(a, b) == Some(t) && filter.is_candidate(a, b)
                            })
                            .collect();
                        emitted.sort_unstable();
                        let all = emitted.len();
                        emitted.dedup();
                        assert_eq!(emitted.len(), all, "{case}: each pair once");
                        got.sort_unstable();
                        want.sort_unstable();
                        assert_eq!(got, want, "{case}: survivors");
                    }
                }
            }
        }
    }
    assert!(generated > 0 && fell_back > 0, "generated {generated}, fell back {fell_back}");

    for corpus in differential_corpora(37, 9) {
        let filter: Arc<dyn PairFilter> = Arc::new(PrefixFilter::build(&corpus, 0.8));
        let job = || {
            PairwiseJob::new(&corpus, cosine_comp())
                .aggregator_arc(keep_at_least(0.8))
                .pair_filter_arc(Arc::clone(&filter))
        };
        let oracle = job().run().unwrap();
        let oracle_pruning = oracle.report.pruning.clone().unwrap();
        let cluster = Cluster::new(ClusterConfig::with_nodes(3));
        let mut plans: Vec<(&str, Plan)> =
            every_scheme_type(37).into_iter().take(5).map(|s| (s.name(), Plan::Flat(s))).collect();
        plans.push(("two-level rounds", Plan::Rounds(TwoLevelBlock::new(37, 3, 2).rounds())));
        plans.push(("batched-design rounds", Plan::Rounds(BatchedDesign::new(37, 3).rounds())));
        for (name, plan) in &plans {
            for symmetry in [Symmetry::Symmetric, Symmetry::NonSymmetric] {
                for (backend_name, backend) in
                    [("local", Backend::Local { threads: 2 }), ("mr", Backend::Mr(&cluster))]
                {
                    let run = plan.apply(job()).symmetry(symmetry).backend(backend).run().unwrap();
                    let case = format!("{name} {symmetry:?} {backend_name}");
                    assert_eq!(run.output, oracle.output, "{case}");
                    assert_eq!(run.report.pruning.as_ref(), Some(&oracle_pruning), "{case}");
                }
            }
        }
    }
}

/// The skewed-corpus pruning claim at test scale: tf-idf + unit-normalized
/// Zipf documents at threshold 0.8 evaluate an order of magnitude fewer
/// pairs than the exact join, and the pruned output is the exact one.
#[test]
fn prefix_filter_prunes_skewed_corpus_hard() {
    let mut raw = zipf_documents(512, 4096, 48, 1.2, 11);
    // Plant near-duplicates (every 64th document copied with its last term
    // dropped), so the join has survivors for the exact run to match.
    for i in (0..511).step_by(64) {
        let mut twin = raw[i].clone();
        twin.0.pop();
        raw[i + 1] = twin;
    }
    let corpus: Vec<SparseVector> = tfidf(&raw)
        .into_iter()
        .map(|v| {
            let n = v.norm();
            if n == 0.0 {
                v
            } else {
                SparseVector(v.0.into_iter().map(|(i, w)| (i, w / n)).collect())
            }
        })
        .collect();
    let t = 0.8;
    let job = || {
        PairwiseJob::new(&corpus, cosine_comp())
            .scheme(BlockScheme::new(512, 8))
            .aggregator_arc(keep_at_least(t))
            .backend(Backend::Local { threads: 4 })
    };
    let run = job().pair_filter(PrefixFilter::build(&corpus, t)).run().unwrap();
    let exact = job().run().unwrap();
    assert_eq!(run.output, exact.output, "pruning changed the output");
    let survivors: usize = run.output.per_element.iter().map(|(_, r)| r.len()).sum();
    assert!(survivors >= 2 * 8, "planted near-duplicates lost: {survivors} row entries");
    let p = run.report.pruning.as_ref().unwrap();
    assert_eq!(p.candidates, 512 * 511 / 2);
    assert!(
        p.evaluated * 10 <= p.candidates,
        "expected ≥ 10× pruning, evaluated {} of {}",
        p.evaluated,
        p.candidates
    );
}
