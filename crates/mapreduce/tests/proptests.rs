//! Property-based tests: codec roundtrips on arbitrary data and full-engine
//! equivalence against an in-memory reference on random corpora.

use std::collections::BTreeMap;

use bytes::Bytes;
use pmr_cluster::{Cluster, ClusterConfig};
use pmr_mapreduce::{
    decode_record_stream, encode_record_stream, read_output, write_sharded, Engine,
    HashPartitioner, JobSpec, MapContext, Mapper, ModuloPartitioner, Partitioner, RawRecord,
    ReduceContext, Reducer, Values, Wire,
};
use proptest::prelude::*;

proptest! {
    #[test]
    fn u64_roundtrip_and_order(a in any::<u64>(), b in any::<u64>()) {
        prop_assert_eq!(u64::from_bytes(a.to_bytes()).unwrap(), a);
        prop_assert_eq!(a.to_bytes() < b.to_bytes(), a < b);
    }

    #[test]
    fn i64_roundtrip_and_order(a in any::<i64>(), b in any::<i64>()) {
        prop_assert_eq!(i64::from_bytes(a.to_bytes()).unwrap(), a);
        prop_assert_eq!(a.to_bytes() < b.to_bytes(), a < b);
    }

    #[test]
    fn f64_roundtrip(x in any::<f64>()) {
        let back = f64::from_bytes(x.to_bytes()).unwrap();
        prop_assert!(back == x || (back.is_nan() && x.is_nan()));
    }

    #[test]
    fn string_roundtrip(s in ".*") {
        prop_assert_eq!(String::from_bytes(s.clone().to_bytes()).unwrap(), s);
    }

    #[test]
    fn nested_roundtrip(v in prop::collection::vec((any::<u64>(), any::<i64>()), 0..20),
                        o in prop::option::of(any::<u32>())) {
        let val = (v.clone(), o);
        let back = <(Vec<(u64, i64)>, Option<u32>)>::from_bytes(val.to_bytes()).unwrap();
        prop_assert_eq!(back, (v, o));
    }

    #[test]
    fn record_stream_roundtrip(recs in prop::collection::vec((any::<u64>(), ".{0,30}"), 0..50)) {
        let (bytes, offsets) = encode_record_stream(recs.clone());
        prop_assert_eq!(offsets.len(), recs.len());
        let back: Vec<(u64, String)> = decode_record_stream(bytes.clone()).unwrap();
        prop_assert_eq!(&back, &recs);
        // Offsets point exactly at record starts: re-parse from each.
        for (i, &off) in offsets.iter().enumerate() {
            let mut rest = bytes.slice(off as usize..);
            let raw = RawRecord::read_framed(&mut rest).unwrap();
            let (k, _) = (u64::from_bytes(raw.key).unwrap(), raw.value);
            prop_assert_eq!(k, recs[i].0);
        }
    }

    // The id-moving pipeline's wire records: job 1 shuffles bare
    // `(working set, element id)` pairs, job 2 shuffles
    // `(element id, partial (other, result) list)` rows.
    #[test]
    fn job1_id_record_roundtrip(ws in any::<u64>(), id in any::<u64>()) {
        let rec = (ws, id);
        prop_assert_eq!(<(u64, u64)>::from_bytes(rec.to_bytes()).unwrap(), rec);
        // Framed size is fixed — ids move a constant 16 encoded bytes no
        // matter how large the payload they stand for is.
        prop_assert_eq!(rec.to_bytes().len(), 16);
    }

    #[test]
    fn job2_partial_list_record_roundtrip(
        id in any::<u64>(),
        partials in prop::collection::vec((any::<u64>(), any::<i64>()), 0..30),
    ) {
        let rec = (id, partials);
        let back = <(u64, Vec<(u64, i64)>)>::from_bytes(rec.to_bytes()).unwrap();
        prop_assert_eq!(back, rec);
    }

    // Element ids are dense and consecutive (`0..v`), the worst case for a
    // naive partitioner. Both partitioners must spread a consecutive id
    // range evenly: no reducer gets more than twice its fair share.
    #[test]
    fn partitioners_spread_consecutive_ids(
        start in 0u64..1 << 32,
        count in 64u64..512,
        partitions in 2usize..16,
    ) {
        for partitioner in [&ModuloPartitioner as &dyn Partitioner, &HashPartitioner] {
            let mut loads = vec![0u64; partitions];
            for id in start..start + count {
                loads[partitioner.partition(&id.to_bytes(), partitions)] += 1;
            }
            let cap = 2 * count.div_ceil(partitions as u64);
            let max = *loads.iter().max().unwrap();
            prop_assert!(
                max <= cap,
                "skew: max load {} over cap {} across {} partitions",
                max, cap, partitions
            );
        }
    }

    // Ids clustered on a stride that shares a factor with the partition
    // count defeat plain modulo (all keys land on few reducers) but not
    // the mixing hash — the reason job specs choose per-job.
    #[test]
    fn strided_ids_skew_modulo_but_not_hash(partitions in 2usize..9) {
        let stride = partitions as u64 * 2;
        let ids: Vec<u64> = (0..256u64).map(|i| i * stride).collect();
        let load = |p: &dyn Partitioner| {
            let mut loads = vec![0u64; partitions];
            for id in &ids {
                loads[p.partition(&id.to_bytes(), partitions)] += 1;
            }
            loads
        };
        let modulo = load(&ModuloPartitioner);
        // Plain modulo collapses the stride onto one reducer…
        prop_assert_eq!(*modulo.iter().max().unwrap(), ids.len() as u64);
        // …while the hash keeps every reducer under twice fair share.
        let hash = load(&HashPartitioner);
        let cap = 2 * (ids.len() as u64).div_ceil(partitions as u64);
        prop_assert!(*hash.iter().max().unwrap() <= cap, "hash skew: {hash:?}");
    }

    #[test]
    fn truncated_streams_error_not_panic(
        recs in prop::collection::vec((any::<u64>(), any::<u64>()), 1..10),
        cut in 1usize..16,
    ) {
        let (bytes, _) = encode_record_stream(recs);
        let cut = cut.min(bytes.len() - 1);
        let truncated = bytes.slice(0..bytes.len() - cut);
        // Must either produce a prefix of the records or a clean error.
        let _ = decode_record_stream::<u64, u64>(truncated);
    }
}

/// Key-sum job used for engine equivalence.
struct KeyedMapper;

impl Mapper for KeyedMapper {
    type KIn = u64;
    type VIn = u64;
    type KOut = u64;
    type VOut = u64;

    fn map(&self, k: u64, v: u64, ctx: &mut MapContext<'_, u64, u64>) -> pmr_mapreduce::Result<()> {
        ctx.emit(k % 10, v);
        ctx.emit(k % 7, v / 2);
        Ok(())
    }
}

struct SumReducer;

impl Reducer for SumReducer {
    type KIn = u64;
    type VIn = u64;
    type KOut = u64;
    type VOut = u64;

    fn reduce(
        &self,
        k: u64,
        values: Values<'_, u64>,
        ctx: &mut ReduceContext<'_, u64, u64>,
    ) -> pmr_mapreduce::Result<()> {
        ctx.emit(k, values.sum());
        Ok(())
    }
}

fn reference(records: &[(u64, u64)]) -> BTreeMap<u64, u64> {
    let mut out: BTreeMap<u64, u64> = BTreeMap::new();
    for &(k, v) in records {
        *out.entry(k % 10).or_insert(0) += v;
        *out.entry(k % 7).or_insert(0) += v / 2;
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn engine_matches_reference_on_random_corpora(
        records in prop::collection::vec((any::<u64>(), 0u64..1 << 40), 1..200),
        nodes in 1usize..5,
        reducers in 1usize..8,
        shards in 1usize..5,
        failure in prop::bool::ANY,
    ) {
        let mut cfg = ClusterConfig::with_nodes(nodes);
        if failure {
            cfg = cfg.failure_probability(0.15).seed(records.len() as u64);
        }
        let cluster = Cluster::new(cfg);
        let inputs = write_sharded(&cluster, "in", shards, records.clone()).unwrap();
        let engine = Engine::new(&cluster);
        let spec = JobSpec::new("sum", inputs, "out", KeyedMapper, SumReducer, reducers);
        let _ = engine.run(spec).unwrap();
        let got: BTreeMap<u64, u64> =
            read_output::<u64, u64>(&cluster, "out").unwrap().into_iter().collect();
        prop_assert_eq!(got, reference(&records));
    }

    #[test]
    fn dfs_splits_partition_any_record_file(
        lens in prop::collection::vec(0usize..60, 1..40),
        block_size in 8u64..128,
        desired in 1usize..10,
    ) {
        let cluster = Cluster::new(ClusterConfig {
            dfs_block_size: block_size,
            ..ClusterConfig::with_nodes(3)
        });
        let records: Vec<(u64, Bytes)> = lens
            .iter()
            .enumerate()
            .map(|(i, &l)| (i as u64, Bytes::from(vec![i as u8; l])))
            .collect();
        pmr_mapreduce::write_records(&cluster, "f", records.clone()).unwrap();
        let splits = cluster.dfs().splits("f", desired).unwrap();
        // Splits tile the file exactly.
        let mut pos = 0u64;
        for s in &splits {
            prop_assert_eq!(s.offset, pos);
            pos += s.len;
        }
        prop_assert_eq!(pos, cluster.dfs().len("f").unwrap());
        // Decoding each split independently yields all records once.
        let mut all: Vec<(u64, Bytes)> = Vec::new();
        for s in &splits {
            let data = cluster.dfs().read(&s.path).unwrap()
                .slice(s.offset as usize..(s.offset + s.len) as usize);
            all.extend(decode_record_stream::<u64, Bytes>(data).unwrap());
        }
        prop_assert_eq!(all, records);
    }
}
