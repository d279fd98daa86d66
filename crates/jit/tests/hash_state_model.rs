//! Model-based properties of the flat hash state: whatever sequence of
//! inserts, batches, merges and threads produced it, a [`JoinHashTable`] must
//! answer like an ordered map from key to its payload rows in insertion
//! order, and a [`GroupByTable`] like an ordered map from key to its folded
//! aggregates.

use hetex_common::{MemoryNodeId, PipelineId};
use hetex_jit::state::{FlatGroups, GroupByTable, JoinHashTable, JoinMatches};
use hetex_jit::{
    AggFunc, AggSpec, CompiledPipeline, ExecCtx, Expr, SharedState, StateSlot, TerminalStep,
};
use hetex_topology::DeviceKind;
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Barrier;

type JoinModel = BTreeMap<i64, Vec<Vec<i64>>>;

/// Key number `i`: the extremes and zero first, then keys spread over the
/// whole `i64` range, negative ones included.
fn key_of(i: usize) -> i64 {
    const EDGES: [i64; 6] = [i64::MIN, i64::MAX, 0, -1, 1, i64::MIN + 1];
    match EDGES.get(i) {
        Some(&edge) => edge,
        None => (i as i64 - 200).wrapping_mul(0x0123_4567_89AB_CDEF),
    }
}

/// The payload of the `row`-th inserted tuple: distinct per row, so order
/// mistakes show.
fn payload_of(row: usize, width: usize) -> Vec<i64> {
    (0..width).map(|c| (row * 10 + c) as i64).collect()
}

fn probe_all(table: &JoinHashTable, key: i64) -> Vec<Vec<i64>> {
    let mut rows = Vec::new();
    let matches = table.probe(key, |payload| rows.push(payload.to_vec()));
    assert_eq!(matches, rows.len());
    rows
}

fn assert_join_matches_model(table: &JoinHashTable, model: &JoinModel, key_space: usize) {
    assert_eq!(table.len(), model.values().map(Vec::len).sum::<usize>());
    assert_eq!(table.is_empty(), model.is_empty());
    assert_eq!(table.distinct_keys(), model.len());
    let keys: Vec<i64> = (0..key_space).map(key_of).collect();
    for &key in &keys {
        let expected = model.get(&key).cloned().unwrap_or_default();
        assert_eq!(probe_all(table, key), expected, "key {key}");
    }

    // The chunked probe sees the same matches in the same order.
    let mut matches = JoinMatches::default();
    let guard = table.read();
    guard.probe_batch(&keys, &mut matches);
    let JoinMatches { lanes, rows, .. } = &matches;
    let mut columns = vec![Vec::new(); table.payload_width()];
    for (c, column) in columns.iter_mut().enumerate() {
        guard.gather_payload(c, rows, column);
    }
    let mut batched = vec![Vec::new(); keys.len()];
    for (m, &lane) in lanes.iter().enumerate() {
        batched[lane as usize].push(columns.iter().map(|col| col[m]).collect::<Vec<i64>>());
    }
    assert!(lanes.windows(2).all(|w| w[0] <= w[1]), "matches come back in probe order");
    for (lane, &key) in keys.iter().enumerate() {
        assert_eq!(batched[lane], model.get(&key).cloned().unwrap_or_default(), "key {key}");
    }
}

/// Transpose payload rows into the columns `insert_batch` takes.
fn columns_of(rows: &[Vec<i64>], width: usize) -> Vec<Vec<i64>> {
    (0..width).map(|c| rows.iter().map(|r| r[c]).collect()).collect()
}

/// A group-by over the first `arity` input columns into `slot`.
fn group_by_pipeline(arity: usize, aggs: &[AggSpec], slot: StateSlot) -> CompiledPipeline {
    let keys = (0..arity).map(Expr::col).collect();
    let terminal = TerminalStep::GroupBy { keys, aggs: aggs.to_vec(), slot };
    CompiledPipeline::new(PipelineId::new(1), DeviceKind::CpuCore, arity, vec![], terminal).unwrap()
}

#[test]
fn a_group_by_with_no_groups_emits_no_block() {
    let aggs = vec![AggSpec::sum(Expr::col(0)), AggSpec::count()];
    let mut state = SharedState::new();
    let slot = state.add_group_by(&aggs);
    let out = group_by_pipeline(2, &aggs, slot)
        .emit_state_results(&state, &mut ExecCtx::cpu(MemoryNodeId::new(0), 64))
        .unwrap();
    assert!(out.blocks.is_empty());
    assert_eq!((out.counters.rows_emitted, out.counters.bytes_out), (0, 0));
    assert!(state.group_by(slot).unwrap().snapshot().is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Single-tuple inserts, probed while the table grows (no freeze step).
    #[test]
    fn join_table_behaves_like_an_ordered_multimap(
        ops in vec(0usize..400, 0..3_000),
        wide in 0u8..2,
    ) {
        let width = if wide == 1 { 4 } else { 0 };
        let table = JoinHashTable::new(width);
        let mut model = JoinModel::new();
        for (row, &op) in ops.iter().enumerate() {
            let key = key_of(op);
            table.insert(key, payload_of(row, width));
            model.entry(key).or_default().push(payload_of(row, width));
            if row % 257 == 0 {
                prop_assert_eq!(probe_all(&table, key), model[&key].clone());
            }
        }
        // 400 keys from 16 slots: the slot array doubled several times.
        assert_join_matches_model(&table, &model, 410);
    }

    /// Chunked inserts of any chunking equal tuple-by-tuple inserts.
    #[test]
    fn insert_batch_equals_repeated_insert(
        ops in vec(0usize..120, 1..2_000),
        cuts in vec(1usize..700, 1..12),
    ) {
        let width = 2;
        let keys: Vec<i64> = ops.iter().map(|&op| key_of(op)).collect();
        let rows: Vec<Vec<i64>> = (0..keys.len()).map(|r| payload_of(r, width)).collect();
        let single = JoinHashTable::new(width);
        let mut model = JoinModel::new();
        for (key, row) in keys.iter().zip(&rows) {
            single.insert(*key, row.clone());
            model.entry(*key).or_default().push(row.clone());
        }
        let batched = JoinHashTable::new(width);
        let mut start = 0;
        for cut in cuts.iter().cycle() {
            let end = (start + cut).min(keys.len());
            batched.insert_batch(&keys[start..end], &columns_of(&rows[start..end], width));
            start = end;
            if start == keys.len() {
                break;
            }
        }
        assert_join_matches_model(&single, &model, 130);
        assert_join_matches_model(&batched, &model, 130);
    }

    /// One chunk that takes the table across several growth boundaries and
    /// repeats keys inside itself (more tuples than keys) links every row
    /// where repeated single inserts would: chains stay in insertion order.
    #[test]
    fn one_batch_across_growth_boundaries_keeps_chain_order(
        before in vec(0usize..40, 0..120),
        chunk in vec(0usize..300, 301..1_100),
        wide in 0u8..2,
    ) {
        let width = if wide == 1 { 3 } else { 0 };
        let keys: Vec<i64> = before.iter().chain(&chunk).map(|&op| key_of(op)).collect();
        let rows: Vec<Vec<i64>> = (0..keys.len()).map(|r| payload_of(r, width)).collect();
        let single = JoinHashTable::new(width);
        let batched = JoinHashTable::new(width);
        let mut model = JoinModel::new();
        for (r, (key, row)) in keys.iter().zip(&rows).enumerate() {
            single.insert(*key, row.clone());
            if r < before.len() {
                batched.insert(*key, row.clone());
            }
            model.entry(*key).or_default().push(row.clone());
        }
        let distinct_before = batched.distinct_keys();
        let tail = before.len()..keys.len();
        batched.insert_batch(&keys[tail.clone()], &columns_of(&rows[tail], width));
        prop_assert!(batched.distinct_keys() > 2 * distinct_before.max(8), "no growth crossed");
        assert_join_matches_model(&single, &model, 310);
        assert_join_matches_model(&batched, &model, 310);
    }

    /// The group-by stage emits its groups as sorted columns: the block holds
    /// the rows, in the order, that sorting `(key, values)` pairs gives, for
    /// 1–3 key columns spanning the whole `i64` range.
    #[test]
    fn sorted_column_emission_equals_the_pair_sort(
        tuples in vec(0usize..400, 1..2_000),
        arity in 1usize..4,
    ) {
        let aggs = vec![AggSpec::sum(Expr::col(0)), AggSpec::count(), AggSpec::min(Expr::col(0))];
        let mut local = FlatGroups::new(arity, &aggs);
        for (row, &t) in tuples.iter().enumerate() {
            // Wider keys share leading columns, so later columns break ties.
            let key = [key_of(t % 7), key_of(t % 11 + 3), key_of(t)][3 - arity..].to_vec();
            let value = (row as i64 - 900).wrapping_mul(0x0100_0000_0000_0001);
            for (acc, agg) in local.entry(&key).iter_mut().zip(&aggs) {
                *acc = agg.func.accumulate(*acc, value);
            }
        }
        let mut pairs: Vec<(Vec<i64>, Vec<i64>)> =
            local.iter().map(|(k, v)| (k.to_vec(), v.to_vec())).collect();
        pairs.sort();

        let mut state = SharedState::new();
        let slot = state.add_group_by(&aggs);
        state.group_by(slot).unwrap().merge_batch(&local);
        prop_assert_eq!(&state.group_by(slot).unwrap().snapshot(), &pairs);
        let out = group_by_pipeline(arity, &aggs, slot)
            .emit_state_results(&state, &mut ExecCtx::cpu(MemoryNodeId::new(0), 64))
            .unwrap();
        prop_assert_eq!(out.blocks.len(), 1);
        let block = out.blocks[0].block();
        let emitted: Vec<(Vec<i64>, Vec<i64>)> = (0..block.rows())
            .map(|r| {
                let row: Vec<i64> = block.columns().map(|c| c.get_i64(r).unwrap()).collect();
                (row[..arity].to_vec(), row[arity..].to_vec())
            })
            .collect();
        prop_assert_eq!(&emitted, &pairs);
        prop_assert_eq!(out.counters.rows_emitted, pairs.len() as u64);
        prop_assert_eq!(out.counters.bytes_out, (pairs.len() * (arity + aggs.len()) * 8) as u64);
    }

    /// Threads building one table concurrently lose and duplicate nothing.
    #[test]
    fn concurrent_build_keeps_every_row(ops in vec(0usize..60, 400..2_000), threads in 2usize..5) {
        let width = 1;
        let keys: Vec<i64> = ops.iter().map(|&op| key_of(op)).collect();
        let table = JoinHashTable::new(width);
        let per_thread = keys.len().div_ceil(threads);
        let barrier = Barrier::new(keys.chunks(per_thread).count());
        std::thread::scope(|scope| {
            for (t, slice) in keys.chunks(per_thread).enumerate() {
                let (table, barrier) = (&table, &barrier);
                scope.spawn(move || {
                    // Every builder starts together and alternates between
                    // the chunked and the single-tuple entry points.
                    barrier.wait();
                    for (c, chunk) in slice.chunks(64).enumerate() {
                        let base = t * per_thread + c * 64;
                        let rows: Vec<Vec<i64>> =
                            (0..chunk.len()).map(|j| payload_of(base + j, width)).collect();
                        if c % 2 == 0 {
                            table.insert_batch(chunk, &columns_of(&rows, width));
                        } else {
                            for (key, row) in chunk.iter().zip(rows) {
                                table.insert(*key, row);
                            }
                        }
                    }
                });
            }
        });
        let mut model = JoinModel::new();
        for (row, &key) in keys.iter().enumerate() {
            model.entry(key).or_default().push(payload_of(row, width));
        }
        prop_assert_eq!(table.len(), keys.len());
        prop_assert_eq!(table.distinct_keys(), model.len());
        for (key, expected) in &model {
            // Interleaving decides the order across threads; the multiset is fixed.
            let mut got = probe_all(&table, *key);
            got.sort();
            prop_assert_eq!(&got, expected, "key {}", key);
        }
    }

    /// Local partials built per tuple or per chunk, merged in any number of
    /// batches, fold to the model's aggregates — for every aggregate function
    /// and for one- and three-column keys.
    #[test]
    fn group_by_behaves_like_an_ordered_map_of_folds(
        tuples in vec(0usize..90, 0..2_500),
        batches in 1usize..6,
        wide_key in 0u8..2,
    ) {
        let arity = if wide_key == 1 { 3 } else { 1 };
        let aggs = vec![
            AggSpec::sum(Expr::col(0)),
            AggSpec::count(),
            AggSpec::min(Expr::col(0)),
            AggSpec::max(Expr::col(0)),
        ];
        let key_row = |t: usize| -> Vec<i64> {
            // Three-column keys share their first column across many groups.
            [key_of(t % 7), key_of(t), (t / 30) as i64][3 - arity..].to_vec()
        };
        let value = |row: usize| (row as i64 - 900).wrapping_mul(0x0100_0000_0000_0001);

        let shared = GroupByTable::new(&aggs);
        let mut model: BTreeMap<Vec<i64>, Vec<i64>> = BTreeMap::new();
        let per_batch = tuples.len().div_ceil(batches).max(1);
        let mut local = FlatGroups::new(arity, &aggs);
        for (b, batch) in tuples.chunks(per_batch).enumerate() {
            local.reset(arity, &aggs);
            let base = b * per_batch;
            if b % 2 == 0 {
                let key_cols: Vec<Vec<i64>> =
                    (0..arity).map(|c| batch.iter().map(|&t| key_row(t)[c]).collect()).collect();
                let values: Vec<i64> = (0..batch.len()).map(|j| value(base + j)).collect();
                local.accumulate_batch(&key_cols, &vec![values; aggs.len()], batch.len());
            } else {
                for (j, &t) in batch.iter().enumerate() {
                    let accs = local.entry(&key_row(t));
                    for (acc, agg) in accs.iter_mut().zip(&aggs) {
                        *acc = agg.func.accumulate(*acc, value(base + j));
                    }
                }
            }
            shared.merge_batch(&local);
            for (j, &t) in batch.iter().enumerate() {
                let accs = model
                    .entry(key_row(t))
                    .or_insert_with(|| aggs.iter().map(|a| a.func.identity()).collect());
                for (acc, agg) in accs.iter_mut().zip(&aggs) {
                    *acc = agg.func.accumulate(*acc, value(base + j));
                }
            }
        }
        prop_assert_eq!(shared.len(), model.len());
        prop_assert_eq!(shared.is_empty(), model.is_empty());
        prop_assert_eq!(shared.funcs(), &[AggFunc::Sum, AggFunc::Count, AggFunc::Min, AggFunc::Max][..]);
        let expected: Vec<(Vec<i64>, Vec<i64>)> = model.into_iter().collect();
        prop_assert_eq!(shared.snapshot(), expected);
    }
}
