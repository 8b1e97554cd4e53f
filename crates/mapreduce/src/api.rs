//! User-facing MapReduce programming interface: [`Mapper`], [`Reducer`],
//! combiners, and the task contexts they receive.
//!
//! Mirrors the shape of the paper's Algorithms 1 and 2: a `map` function
//! receiving one key/value record and emitting any number of records, and a
//! `reduce` function receiving a key together with *all* values grouped
//! under it by the sort/shuffle phase.

use bytes::{Bytes, BytesMut};
use pmr_cluster::MemoryGauge;

use crate::codec::{write_framed_record, RawRecord, Wire};
use crate::counters::{builtin, Counters};
use crate::error::Result;
use crate::partition::Partitioner;

/// A map function over typed records.
pub trait Mapper: Send + Sync + 'static {
    /// Input key type.
    type KIn: Wire;
    /// Input value type.
    type VIn: Wire;
    /// Output key type.
    type KOut: Wire;
    /// Output value type.
    type VOut: Wire;

    /// Processes one input record, emitting through the context.
    fn map(
        &self,
        key: Self::KIn,
        value: Self::VIn,
        ctx: &mut MapContext<'_, Self::KOut, Self::VOut>,
    ) -> Result<()>;
}

/// A reduce function over a key and its grouped values.
pub trait Reducer: Send + Sync + 'static {
    /// Input key type (the mapper's output key).
    type KIn: Wire;
    /// Input value type (the mapper's output value).
    type VIn: Wire;
    /// Output key type.
    type KOut: Wire;
    /// Output value type.
    type VOut: Wire;

    /// Processes one key group, emitting through the context.
    fn reduce(
        &self,
        key: Self::KIn,
        values: Values<'_, Self::VIn>,
        ctx: &mut ReduceContext<'_, Self::KOut, Self::VOut>,
    ) -> Result<()>;
}

/// Identity mapper: forwards records unchanged. Job 2 of the paper's
/// pairwise algorithm uses exactly this ("nothing needs to be done in the
/// map function of the second job").
#[derive(Debug, Clone, Copy, Default)]
pub struct IdentityMapper<K, V>(std::marker::PhantomData<fn() -> (K, V)>);

impl<K, V> IdentityMapper<K, V> {
    /// Creates an identity mapper.
    pub fn new() -> Self {
        IdentityMapper(std::marker::PhantomData)
    }
}

impl<K: Wire, V: Wire> Mapper for IdentityMapper<K, V>
where
    K: 'static,
    V: 'static,
{
    type KIn = K;
    type VIn = V;
    type KOut = K;
    type VOut = V;

    fn map(&self, key: K, value: V, ctx: &mut MapContext<'_, K, V>) -> Result<()> {
        ctx.emit(key, value);
        Ok(())
    }
}

/// An engine-level combiner operating on one key group of raw records.
///
/// Typed combiners are wrapped with [`typed_combiner`]; keeping the engine
/// interface raw avoids making job specs generic over a third type.
pub trait RawCombiner: Send + Sync {
    /// Combines the values of one key group; returns replacement records
    /// (usually one).
    fn combine(&self, key: Bytes, values: Vec<Bytes>) -> Vec<RawRecord>;
}

/// Wraps a typed `Fn(K, Vec<V>) -> Vec<(K, V)>` into a [`RawCombiner`].
pub fn typed_combiner<K, V, F>(f: F) -> std::sync::Arc<dyn RawCombiner>
where
    K: Wire,
    V: Wire,
    F: Fn(K, Vec<V>) -> Vec<(K, V)> + Send + Sync + 'static,
{
    struct Typed<K, V, F> {
        f: F,
        _pd: std::marker::PhantomData<fn() -> (K, V)>,
    }
    impl<K: Wire, V: Wire, F> RawCombiner for Typed<K, V, F>
    where
        F: Fn(K, Vec<V>) -> Vec<(K, V)> + Send + Sync + 'static,
    {
        fn combine(&self, key: Bytes, values: Vec<Bytes>) -> Vec<RawRecord> {
            let k = K::from_bytes(key).expect("combiner: corrupt key");
            let vs: Vec<V> = values
                .into_iter()
                .map(|b| V::from_bytes(b).expect("combiner: corrupt value"))
                .collect();
            (self.f)(k, vs)
                .into_iter()
                .map(|(k, v)| RawRecord { key: k.to_bytes(), value: v.to_bytes() })
                .collect()
        }
    }
    std::sync::Arc::new(Typed { f, _pd: std::marker::PhantomData })
}

/// Lazily-decoding iterator over one reduce group's values.
pub struct Values<'a, V: Wire> {
    raw: std::slice::Iter<'a, RawRecord>,
    _pd: std::marker::PhantomData<fn() -> V>,
}

impl<'a, V: Wire> Values<'a, V> {
    /// Builds a value iterator over the raw records of one group.
    pub(crate) fn new(records: &'a [RawRecord]) -> Self {
        Values { raw: records.iter(), _pd: std::marker::PhantomData }
    }

    /// Number of values remaining.
    pub fn len(&self) -> usize {
        self.raw.len()
    }

    /// True iff no values remain.
    pub fn is_empty(&self) -> bool {
        self.raw.len() == 0
    }
}

impl<'a, V: Wire> Iterator for Values<'a, V> {
    type Item = V;

    fn next(&mut self) -> Option<V> {
        self.raw.next().map(|r| V::from_bytes(r.value.clone()).expect("corrupt reduce value"))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.raw.size_hint()
    }
}

/// Read access to distributed-cache files and the job's node-shared
/// resolver handle from inside a task.
pub struct TaskCache<'a> {
    pub(crate) node: &'a pmr_cluster::Node,
    pub(crate) prefix: String,
    pub(crate) store: Option<&'a (dyn std::any::Any + Send + Sync)>,
}

impl<'a> TaskCache<'a> {
    /// Reads a cache file distributed with the job. Panics if the name was
    /// never registered in the job spec (a programming error).
    pub fn get(&self, name: &str) -> Bytes {
        self.node
            .read_local(&format!("{}{}", self.prefix, name))
            .unwrap_or_else(|_| panic!("cache file '{name}' not distributed with this job"))
    }

    /// True iff the named cache file exists.
    pub fn contains(&self, name: &str) -> bool {
        self.node.read_local(&format!("{}{}", self.prefix, name)).is_ok()
    }

    /// Typed view of the job's node-shared resolver handle (attached via
    /// [`crate::JobSpec::store`]). Returns `None` when no store was
    /// attached or the requested type does not match. The returned
    /// reference lives as long as the task (`'a`), so callers may hold it
    /// across mutable uses of their context.
    pub fn store<S: Send + Sync + 'static>(&self) -> Option<&'a S> {
        self.store.and_then(|s| s.downcast_ref::<S>())
    }
}

/// Destination for sort-buffer overflow: spills sorted runs to the
/// mapper's node-local store (Hadoop's `io.sort.mb` behaviour).
pub(crate) struct SpillSink<'a> {
    pub(crate) node: &'a pmr_cluster::Node,
    /// Local-file prefix for this task's spill runs.
    pub(crate) prefix: String,
    /// Completed spill runs.
    pub(crate) runs: std::cell::Cell<u32>,
    /// First error hit while spilling (surfaced after the map loop — emit
    /// itself is infallible, like Hadoop's collector API).
    pub(crate) error: std::cell::RefCell<Option<crate::error::MrError>>,
}

impl<'a> SpillSink<'a> {
    /// Sorts and writes the buffered partitions as one spill run, clearing
    /// the buffers.
    pub(crate) fn spill(&self, partitions: &mut [Vec<RawRecord>], counters: &Counters) {
        let run = self.runs.get();
        self.runs.set(run + 1);
        counters.inc(builtin::MAP_SPILLS);
        for (p, part) in partitions.iter_mut().enumerate() {
            if part.is_empty() {
                continue;
            }
            part.sort_by(|a, b| a.key.cmp(&b.key));
            let mut buf = bytes::BytesMut::new();
            for rec in part.iter() {
                rec.write_framed(&mut buf);
            }
            counters.add(builtin::SPILLED_RECORDS, part.len() as u64);
            if let Err(e) =
                self.node.write_local(&format!("{}{run}/p/{p}", self.prefix), buf.freeze())
            {
                let mut err = self.error.borrow_mut();
                if err.is_none() {
                    *err = Some(e.into());
                }
            }
            part.clear();
        }
    }
}

/// Context handed to [`Mapper::map`]: typed emit into partitioned buffers,
/// counters, and the distributed cache.
pub struct MapContext<'a, K: Wire, V: Wire> {
    pub(crate) partitions: &'a mut Vec<Vec<RawRecord>>,
    pub(crate) partitioner: &'a dyn Partitioner,
    pub(crate) counters: &'a Counters,
    pub(crate) cache: &'a TaskCache<'a>,
    /// Charged output bytes: framed record bytes plus any extra charge
    /// billed through [`MapContext::emit_charged`].
    pub(crate) output_bytes: u64,
    /// Physically buffered output bytes (framed records only).
    pub(crate) moved_bytes: u64,
    /// Extra charge billed per output partition, for exact per-transfer
    /// charged accounting in the shuffle.
    pub(crate) partition_charges: Vec<u64>,
    /// In-memory bytes since the last spill.
    pub(crate) buffered_bytes: u64,
    /// Sort-buffer capacity; emits past it trigger a spill when a sink is
    /// attached.
    pub(crate) sort_buffer: Option<u64>,
    pub(crate) spill_sink: Option<&'a SpillSink<'a>>,
    _pd: std::marker::PhantomData<fn(K, V)>,
}

impl<'a, K: Wire, V: Wire> MapContext<'a, K, V> {
    pub(crate) fn new(
        partitions: &'a mut Vec<Vec<RawRecord>>,
        partitioner: &'a dyn Partitioner,
        counters: &'a Counters,
        cache: &'a TaskCache<'a>,
    ) -> Self {
        let num_partitions = partitions.len();
        MapContext {
            partitions,
            partitioner,
            counters,
            cache,
            output_bytes: 0,
            moved_bytes: 0,
            partition_charges: vec![0; num_partitions],
            buffered_bytes: 0,
            sort_buffer: None,
            spill_sink: None,
            _pd: std::marker::PhantomData,
        }
    }

    pub(crate) fn with_spilling(
        mut self,
        sort_buffer: Option<u64>,
        sink: &'a SpillSink<'a>,
    ) -> Self {
        self.sort_buffer = sort_buffer;
        self.spill_sink = Some(sink);
        self
    }

    /// Emits one intermediate record.
    pub fn emit(&mut self, key: K, value: V) {
        self.emit_charged(key, value, 0);
    }

    /// Emits one intermediate record and bills `extra_charge` additional
    /// bytes to the paper's cost model on top of the record's framed
    /// length. The extra charge follows the record through the shuffle
    /// (charged byte counters, traffic, budgets) but is never physically
    /// buffered or moved — this is how an id-only record stands in for the
    /// replicated payload the model prices.
    pub fn emit_charged(&mut self, key: K, value: V, extra_charge: u64) {
        let rec = RawRecord { key: key.to_bytes(), value: value.to_bytes() };
        let p = self.partitioner.partition(&rec.key, self.partitions.len());
        let len = rec.framed_len() as u64;
        self.output_bytes += len + extra_charge;
        self.moved_bytes += len;
        self.partition_charges[p] += extra_charge;
        self.buffered_bytes += len;
        self.counters.inc(builtin::MAP_OUTPUT_RECORDS);
        self.partitions[p].push(rec);
        if let (Some(cap), Some(sink)) = (self.sort_buffer, self.spill_sink) {
            if self.buffered_bytes > cap {
                sink.spill(self.partitions, self.counters);
                self.buffered_bytes = 0;
            }
        }
    }

    /// User counters.
    pub fn counters(&self) -> &Counters {
        self.counters
    }

    /// The distributed cache.
    pub fn cache(&self) -> &TaskCache<'a> {
        self.cache
    }

    /// Typed view of the job's node-shared resolver handle (see
    /// [`TaskCache::store`]).
    pub fn store<S: Send + Sync + 'static>(&self) -> Option<&'a S> {
        self.cache.store::<S>()
    }

    pub(crate) fn take_output_bytes(&self) -> u64 {
        self.output_bytes
    }

    pub(crate) fn take_moved_bytes(&self) -> u64 {
        self.moved_bytes
    }

    pub(crate) fn take_partition_charges(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.partition_charges)
    }
}

/// Context handed to [`Reducer::reduce`]: typed emit into the task's DFS
/// output, counters, cache, and the task's working-set memory gauge.
pub struct ReduceContext<'a, K: Wire, V: Wire> {
    pub(crate) out: &'a mut BytesMut,
    pub(crate) offsets: &'a mut Vec<u64>,
    pub(crate) counters: &'a Counters,
    pub(crate) cache: &'a TaskCache<'a>,
    pub(crate) memory: &'a MemoryGauge,
    _pd: std::marker::PhantomData<fn(K, V)>,
}

impl<'a, K: Wire, V: Wire> ReduceContext<'a, K, V> {
    pub(crate) fn new(
        out: &'a mut BytesMut,
        offsets: &'a mut Vec<u64>,
        counters: &'a Counters,
        cache: &'a TaskCache<'a>,
        memory: &'a MemoryGauge,
    ) -> Self {
        ReduceContext { out, offsets, counters, cache, memory, _pd: std::marker::PhantomData }
    }

    /// Emits one output record, encoded in place at the end of the task's
    /// DFS part file (no intermediate key or value buffer).
    pub fn emit(&mut self, key: K, value: V) {
        self.offsets.push(self.out.len() as u64);
        write_framed_record(self.out, &key, &value);
        self.counters.inc(builtin::REDUCE_OUTPUT_RECORDS);
    }

    /// User counters.
    pub fn counters(&self) -> &Counters {
        self.counters
    }

    /// The distributed cache.
    pub fn cache(&self) -> &TaskCache<'a> {
        self.cache
    }

    /// Typed view of the job's node-shared resolver handle (see
    /// [`TaskCache::store`]).
    pub fn store<S: Send + Sync + 'static>(&self) -> Option<&'a S> {
        self.cache.store::<S>()
    }

    /// The task's working-set memory gauge (budget = the paper's `maxws`).
    /// Reduce implementations that materialize data should reserve here so
    /// the budget is honored.
    pub fn memory(&self) -> &MemoryGauge {
        self.memory
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::HashPartitioner;

    #[test]
    fn map_context_partitions_by_key() {
        let mut parts: Vec<Vec<RawRecord>> = vec![Vec::new(); 4];
        let counters = Counters::new();
        let node = pmr_cluster::Node::new(pmr_cluster::NodeId(0), None);
        let cache = TaskCache { node: &node, prefix: "c/".into(), store: None };
        let part = HashPartitioner;
        let mut ctx: MapContext<'_, u64, String> =
            MapContext::new(&mut parts, &part, &counters, &cache);
        for i in 0..100u64 {
            ctx.emit(i, format!("v{i}"));
        }
        assert!(ctx.take_output_bytes() > 0);
        let total: usize = parts.iter().map(Vec::len).sum();
        assert_eq!(total, 100);
        assert_eq!(counters.get(builtin::MAP_OUTPUT_RECORDS), 100);
        // Same key always lands in the same partition.
        let p1 = HashPartitioner.partition(&42u64.to_bytes(), 4);
        let p2 = HashPartitioner.partition(&42u64.to_bytes(), 4);
        assert_eq!(p1, p2);
    }

    #[test]
    fn emit_charged_splits_charged_and_moved_series() {
        let mut parts: Vec<Vec<RawRecord>> = vec![Vec::new(); 4];
        let counters = Counters::new();
        let node = pmr_cluster::Node::new(pmr_cluster::NodeId(0), None);
        let cache = TaskCache { node: &node, prefix: "c/".into(), store: None };
        let part = HashPartitioner;
        let mut ctx: MapContext<'_, u64, u64> =
            MapContext::new(&mut parts, &part, &counters, &cache);
        ctx.emit_charged(1, 2, 600);
        ctx.emit(3, 4);
        // Each (u64, u64) record frames to 8 + 8 + 8 = 24 bytes.
        assert_eq!(ctx.take_moved_bytes(), 48);
        assert_eq!(ctx.take_output_bytes(), 48 + 600);
        let p = HashPartitioner.partition(&1u64.to_bytes(), 4);
        let charges = ctx.take_partition_charges();
        assert_eq!(charges[p], 600);
        assert_eq!(charges.iter().sum::<u64>(), 600);
    }

    #[test]
    fn task_cache_store_downcasts() {
        let node = pmr_cluster::Node::new(pmr_cluster::NodeId(0), None);
        let handle: std::sync::Arc<dyn std::any::Any + Send + Sync> =
            std::sync::Arc::new(vec![1u64, 2, 3]);
        let cache = TaskCache { node: &node, prefix: "c/".into(), store: Some(&*handle) };
        assert_eq!(cache.store::<Vec<u64>>().unwrap(), &vec![1, 2, 3]);
        assert!(cache.store::<String>().is_none());
    }

    #[test]
    fn values_iterator_decodes_lazily() {
        let records: Vec<RawRecord> = (0..5u64)
            .map(|i| RawRecord { key: 1u64.to_bytes(), value: (i * 10).to_bytes() })
            .collect();
        let vals: Values<'_, u64> = Values::new(&records);
        assert_eq!(vals.len(), 5);
        let collected: Vec<u64> = vals.collect();
        assert_eq!(collected, vec![0, 10, 20, 30, 40]);
    }

    #[test]
    fn typed_combiner_sums() {
        let c = typed_combiner(|k: u64, vs: Vec<u64>| vec![(k, vs.iter().sum::<u64>())]);
        let out = c.combine(7u64.to_bytes(), vec![1u64.to_bytes(), 2u64.to_bytes()]);
        assert_eq!(out.len(), 1);
        assert_eq!(u64::from_bytes(out[0].value.clone()).unwrap(), 3);
    }
}
