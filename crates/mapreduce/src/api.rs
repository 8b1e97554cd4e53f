//! User-facing MapReduce programming interface: [`Mapper`], [`Reducer`],
//! and the task contexts they receive.
//!
//! Mirrors the shape of the paper's Algorithms 1 and 2: a `map` function
//! receiving one key/value record and emitting any number of records, and a
//! `reduce` function receiving a key together with *all* values grouped
//! under it by the sort/shuffle phase.

use std::any::Any;

use bytes::BytesMut;
use pmr_cluster::MemoryGauge;
use pmr_obs::Span;

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

/// The job's node-shared resolver handle as tasks see it (attached via
/// [`crate::JobSpec::store`]); `None` when the job attached none.
pub(crate) type StoreRef<'a> = Option<&'a (dyn Any + Send + Sync)>;

/// Context handed to [`Mapper::map`]: typed emit into partitioned buffers,
/// counters, and the job's store handle.
pub struct MapContext<'a, K: Wire, V: Wire> {
    pub(crate) partitions: &'a mut Vec<Vec<RawRecord>>,
    pub(crate) partitioner: &'a dyn Partitioner,
    pub(crate) counters: &'a Counters,
    pub(crate) store: StoreRef<'a>,
    /// Charged output bytes: framed record bytes plus any extra charge
    /// billed through [`MapContext::emit_charged`].
    pub(crate) output_bytes: u64,
    /// Physically buffered output bytes (framed records only).
    pub(crate) moved_bytes: u64,
    /// Extra charge billed per output partition, for exact per-transfer
    /// charged accounting in the shuffle.
    pub(crate) partition_charges: Vec<u64>,
    span: &'a mut Span,
    _pd: std::marker::PhantomData<fn(K, V)>,
}

impl<'a, K: Wire, V: Wire> MapContext<'a, K, V> {
    pub(crate) fn new(
        partitions: &'a mut Vec<Vec<RawRecord>>,
        partitioner: &'a dyn Partitioner,
        counters: &'a Counters,
        store: StoreRef<'a>,
        span: &'a mut Span,
    ) -> Self {
        let num_partitions = partitions.len();
        MapContext {
            partitions,
            partitioner,
            counters,
            store,
            span,
            output_bytes: 0,
            moved_bytes: 0,
            partition_charges: vec![0; num_partitions],
            _pd: std::marker::PhantomData,
        }
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
        self.counters.inc(builtin::MAP_OUTPUT_RECORDS);
        self.partitions[p].push(rec);
    }

    /// User counters.
    pub fn counters(&self) -> &Counters {
        self.counters
    }

    /// Records a histogram observation that reaches the run report only
    /// if this task attempt commits, like its counters.
    pub fn record_value(&mut self, histogram: &'static str, value: u64) {
        self.span.record_value(histogram, value);
    }

    /// Typed view of the job's node-shared resolver handle. Returns `None`
    /// when no store was attached or the requested type does not match.
    /// The returned reference lives as long as the task (`'a`), so callers
    /// may hold it across mutable uses of their context.
    pub fn store<S: Send + Sync + 'static>(&self) -> Option<&'a S> {
        self.store.and_then(|s| s.downcast_ref::<S>())
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
/// output, counters, the job's store handle, and the task's working-set
/// memory gauge.
pub struct ReduceContext<'a, K: Wire, V: Wire> {
    pub(crate) out: &'a mut BytesMut,
    /// Where each record starts in `out`, for the DFS record index; `None`
    /// when the part is handed to a sink and never written.
    pub(crate) offsets: Option<&'a mut Vec<u64>>,
    pub(crate) counters: &'a Counters,
    pub(crate) store: StoreRef<'a>,
    pub(crate) memory: &'a MemoryGauge,
    span: &'a mut Span,
    _pd: std::marker::PhantomData<fn(K, V)>,
}

impl<'a, K: Wire, V: Wire> ReduceContext<'a, K, V> {
    pub(crate) fn new(
        out: &'a mut BytesMut,
        offsets: Option<&'a mut Vec<u64>>,
        counters: &'a Counters,
        store: StoreRef<'a>,
        memory: &'a MemoryGauge,
        span: &'a mut Span,
    ) -> Self {
        let _pd = std::marker::PhantomData;
        ReduceContext { out, offsets, counters, store, memory, span, _pd }
    }

    /// Emits one output record, encoded in place at the end of the task's
    /// output part (no intermediate key or value buffer).
    pub fn emit(&mut self, key: K, value: V) {
        if let Some(offsets) = &mut self.offsets {
            offsets.push(self.out.len() as u64);
        }
        write_framed_record(self.out, &key, &value);
        self.counters.inc(builtin::REDUCE_OUTPUT_RECORDS);
    }

    /// User counters.
    pub fn counters(&self) -> &Counters {
        self.counters
    }

    /// Records a histogram observation (see [`MapContext::record_value`]).
    pub fn record_value(&mut self, histogram: &'static str, value: u64) {
        self.span.record_value(histogram, value);
    }

    /// Typed view of the job's node-shared resolver handle (see
    /// [`MapContext::store`]).
    pub fn store<S: Send + Sync + 'static>(&self) -> Option<&'a S> {
        self.store.and_then(|s| s.downcast_ref::<S>())
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
        let (counters, mut span) = (Counters::new(), Span::default());
        let part = HashPartitioner;
        let mut ctx: MapContext<'_, u64, String> =
            MapContext::new(&mut parts, &part, &counters, None, &mut span);
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
        let (counters, mut span) = (Counters::new(), Span::default());
        let part = HashPartitioner;
        let mut ctx: MapContext<'_, u64, u64> =
            MapContext::new(&mut parts, &part, &counters, None, &mut span);
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
    fn context_store_downcasts() {
        let handle: std::sync::Arc<dyn Any + Send + Sync> = std::sync::Arc::new(vec![1u64, 2, 3]);
        let mut parts: Vec<Vec<RawRecord>> = vec![Vec::new(); 1];
        let (counters, mut span) = (Counters::new(), Span::default());
        let ctx: MapContext<'_, u64, u64> =
            MapContext::new(&mut parts, &HashPartitioner, &counters, Some(&*handle), &mut span);
        assert_eq!(ctx.store::<Vec<u64>>().unwrap(), &vec![1, 2, 3]);
        assert!(ctx.store::<String>().is_none());
        let (mut out, mut offsets) = (BytesMut::new(), Vec::new());
        let (gauge, held) = (MemoryGauge::new(None), Some(&*handle));
        let ctx: ReduceContext<'_, u64, u64> =
            ReduceContext::new(&mut out, Some(&mut offsets), &counters, held, &gauge, &mut span);
        assert_eq!(ctx.store::<Vec<u64>>().unwrap(), &vec![1, 2, 3]);
        let ctx: ReduceContext<'_, u64, u64> =
            ReduceContext::new(&mut out, None, &counters, None, &gauge, &mut span);
        assert!(ctx.store::<Vec<u64>>().is_none());
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
}
