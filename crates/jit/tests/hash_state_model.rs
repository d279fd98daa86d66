//! Model-based properties of the flat hash state: whatever sequence of
//! inserts, batches, merges and threads produced it, a [`JoinHashTable`] must
//! answer like an ordered map from key to its payload rows in insertion
//! order, and a group-by table like an ordered map from key to its folded
//! aggregates. A sealed join table answers exactly as the unsealed one does,
//! whether its seal built a direct key index or left it hashed.
//!
//! The case budget is `HETEX_HASH_CASES` generated cases per property
//! (default 24); CI's release job raises it.

use hetex_common::{Block, BlockHandle, BlockId, BlockMeta, ColumnData, MemoryNodeId, PipelineId};
use hetex_jit::state::{
    FlatGroups, GroupByTable, JoinHashTable, JoinMatches, StateArena, DIRECT_FLOOR,
    GROUP_DIRECT_SPAN,
};
use hetex_jit::{
    AggFunc, AggSpec, CompiledPipeline, ExecCtx, Expr, SharedState, StateSlot, TerminalStep,
    VEC_CHUNK,
};
use hetex_topology::DeviceKind;
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Barrier;

type JoinModel = BTreeMap<i64, Vec<Vec<i64>>>;

/// A group-by input row: its key columns and its value.
type Tuple = (Vec<i64>, i64);

/// Generated-case budget: `HETEX_HASH_CASES` cases per property (default 24).
fn case_budget() -> u32 {
    std::env::var("HETEX_HASH_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(24)
}

/// Key number `i`: the extremes and zero first, then keys spread over the
/// whole `i64` range, negative ones included. Keys this sparse always leave
/// a sealed table hashed.
fn key_of(i: usize) -> i64 {
    const EDGES: [i64; 6] = [i64::MIN, i64::MAX, 0, -1, 1, i64::MIN + 1];
    match EDGES.get(i) {
        Some(&edge) => edge,
        None => (i as i64 - 200).wrapping_mul(0x0123_4567_89AB_CDEF),
    }
}

/// The first `n` keys of [`key_of`].
fn spread_keys(n: usize) -> Vec<i64> {
    (0..n).map(key_of).collect()
}

/// The lowest key of a dense window of `span` keys: at the bottom of `i64`
/// (`at` 0), at its top (1), or across zero (2).
fn window_base(at: u8, span: u64) -> i64 {
    match at {
        0 => i64::MIN,
        1 => i64::MAX.wrapping_sub(span as i64 - 1),
        _ => -(span as i64 / 2),
    }
}

/// Keys of the window of `span` keys from `base`: both ends first, so the
/// window's span is exactly `span`, then one key per offset in `offsets`.
fn window_keys(base: i64, span: u64, offsets: &[u64]) -> Vec<i64> {
    [0, span - 1].iter().chain(offsets).map(|&off| base.wrapping_add((off % span) as i64)).collect()
}

/// Keys to probe a window from `base` with: every built key, the neighbours
/// just outside the window (wrapping around `i64`), its middle and the
/// extremes of `i64`.
fn window_probes(base: i64, span: u64, built: &[i64]) -> Vec<i64> {
    let mut keys = vec![
        base.wrapping_sub(1),
        base.wrapping_add(span as i64),
        base.wrapping_add(span as i64 / 2),
        i64::MIN,
        i64::MAX,
        0,
    ];
    keys.extend_from_slice(built);
    keys
}

/// A table of `width` payload columns and its model, holding `keys` in
/// order, inserted as one batch.
fn built_table(keys: &[i64], width: usize) -> (JoinHashTable, JoinModel) {
    let rows: Vec<Vec<i64>> = (0..keys.len()).map(|r| payload_of(r, width)).collect();
    let table = JoinHashTable::new(width);
    table.insert_batch(keys, &columns_of(&rows, width));
    let mut model = JoinModel::new();
    for (key, row) in keys.iter().zip(rows) {
        model.entry(*key).or_default().push(row);
    }
    (table, model)
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

/// Every payload row [`JoinProbe::probe_batch`] matches with each of `keys`,
/// per key, gathered with [`JoinProbe::gather_payload`].
///
/// [`JoinProbe::probe_batch`]: hetex_jit::state::JoinProbe::probe_batch
/// [`JoinProbe::gather_payload`]: hetex_jit::state::JoinProbe::gather_payload
fn probe_batch_all(table: &JoinHashTable, keys: &[i64]) -> Vec<Vec<Vec<i64>>> {
    let mut matches = JoinMatches::default();
    let guard = table.read();
    guard.probe_batch(keys, &mut matches);
    let JoinMatches { lanes, rows, .. } = &matches;
    assert_eq!(lanes.len(), rows.len());
    assert!(lanes.windows(2).all(|w| w[0] <= w[1]), "matches come back in probe order");
    let mut columns = vec![Vec::new(); table.payload_width()];
    for (c, column) in columns.iter_mut().enumerate() {
        guard.gather_payload(c, rows, column);
    }
    let mut batched = vec![Vec::new(); keys.len()];
    for (m, &lane) in lanes.iter().enumerate() {
        batched[lane as usize].push(columns.iter().map(|col| col[m]).collect::<Vec<i64>>());
    }
    batched
}

fn assert_join_matches_model(table: &JoinHashTable, model: &JoinModel, keys: &[i64]) {
    assert_eq!(table.len(), model.values().map(Vec::len).sum::<usize>());
    assert_eq!(table.is_empty(), model.is_empty());
    assert_eq!(table.distinct_keys(), model.len());
    for &key in keys {
        let expected = model.get(&key).cloned().unwrap_or_default();
        assert_eq!(probe_all(table, key), expected, "key {key}");
    }
    // The chunked probe sees the same matches in the same order.
    for (batched, &key) in probe_batch_all(table, keys).iter().zip(keys) {
        assert_eq!(batched, &model.get(&key).cloned().unwrap_or_default(), "key {key}");
    }
}

/// The slots of a hashed index over `rows` rows: at most half full, and
/// never fewer than 16.
fn slots_for(rows: usize) -> usize {
    (2 * rows).next_power_of_two().max(16)
}

/// True if the seal's rule indexes `keys` directly: their span is at most
/// `max(4 × slots, DIRECT_FLOOR)`, with the slots counted from the rows, not
/// the distinct keys.
fn direct_by_rule(keys: &[i64]) -> bool {
    let (Some(&min), Some(&max)) = (keys.iter().min(), keys.iter().max()) else {
        return false;
    };
    i128::from(max) - i128::from(min) < (4 * slots_for(keys.len())).max(DIRECT_FLOOR) as i128
}

/// Bytes an indexed table of `rows` rows of `width` payload columns holds:
/// its key column, its arena of payloads and chain links, and one index —
/// four bytes a key of the span for a direct one (`Some(span)`), sixteen a
/// slot for a hashed one, never both.
fn indexed_bytes(rows: usize, width: usize, direct_span: Option<u64>) -> u64 {
    let index = direct_span.map_or(16 * slots_for(rows) as u64, |span| 4 * span);
    8 * rows as u64 + 8 * (rows * (width + 1)) as u64 + index
}

/// Every key of `probes` matches the model's rows for it: in the model's
/// order if `exact`, else as a multiset. Either way the rows one block
/// appended (payload `[block, position]`) form one run of its chain, in
/// ascending position, and a chunked probe finds what single probes find.
fn assert_blocks_stay_whole(table: &JoinHashTable, model: &JoinModel, probes: &[i64], exact: bool) {
    if exact {
        return assert_join_matches_model(table, model, probes);
    }
    assert_eq!(table.len(), model.values().map(Vec::len).sum::<usize>());
    assert_eq!(table.distinct_keys(), model.len());
    for (batched, &key) in probe_batch_all(table, probes).iter().zip(probes) {
        let chain = probe_all(table, key);
        assert_eq!(batched, &chain, "key {key}");
        let mut blocks = std::collections::HashSet::new();
        for (i, row) in chain.iter().enumerate() {
            if i > 0 && chain[i - 1][0] == row[0] {
                assert!(chain[i - 1][1] < row[1], "key {key}: block {} reordered", row[0]);
            } else {
                assert!(blocks.insert(row[0]), "key {key}: block {} split", row[0]);
            }
        }
        let mut got = chain;
        let mut expected = model.get(&key).cloned().unwrap_or_default();
        got.sort();
        expected.sort();
        assert_eq!(got, expected, "key {key}");
    }
}

/// Add the rows `insert_batch(keys, payload)` appends to the model.
fn record(model: &mut JoinModel, keys: &[i64], payload: &[Vec<i64>]) {
    for (j, &key) in keys.iter().enumerate() {
        model.entry(key).or_default().push(payload.iter().map(|c| c[j]).collect());
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

/// Column spans of a group key of `arity` columns whose packed span is
/// exactly [`GROUP_DIRECT_SPAN`], or — `past` — its last column one wider,
/// which takes the product past it.
fn group_spans(arity: usize, past: bool) -> Vec<u64> {
    let mut spans = match arity {
        1 => vec![GROUP_DIRECT_SPAN as u64],
        2 => vec![256, 256],
        _ => vec![64, 32, 32],
    };
    *spans.last_mut().unwrap() += u64::from(past);
    spans
}

/// A group table's sorted columns as `(key, values)` rows.
fn group_rows(columns: Vec<Vec<i64>>, arity: usize) -> Vec<(Vec<i64>, Vec<i64>)> {
    let rows = columns.first().map_or(0, Vec::len);
    let (keys, values) = columns.split_at(arity);
    let row = |cols: &[Vec<i64>], r: usize| cols.iter().map(|c| c[r]).collect();
    (0..rows).map(|r| (row(keys, r), row(values, r))).collect()
}

/// `SUM`, `COUNT`, `MIN` and `MAX` of register `value`.
fn value_aggs(value: usize) -> Vec<AggSpec> {
    let v = || Expr::col(value);
    vec![AggSpec::sum(v()), AggSpec::count(), AggSpec::min(v()), AggSpec::max(v())]
}

/// The per-tuple model: each key's aggregates folded tuple by tuple, as
/// `(key, values)` rows in key order.
fn model_of(aggs: &[AggSpec], tuples: &[Tuple]) -> Vec<(Vec<i64>, Vec<i64>)> {
    let mut model: BTreeMap<Vec<i64>, Vec<i64>> = BTreeMap::new();
    for (key, v) in tuples {
        let accs = model
            .entry(key.clone())
            .or_insert_with(|| aggs.iter().map(|a| a.func.identity()).collect());
        for (acc, agg) in accs.iter_mut().zip(aggs) {
            *acc = agg.func.accumulate(*acc, *v);
        }
    }
    model.into_iter().collect()
}

/// Fold `tuples` into `table` tuple by tuple, through `entry`.
fn fold_entries(table: &mut FlatGroups, aggs: &[AggSpec], tuples: &[Tuple]) {
    for (key, value) in tuples {
        for (acc, agg) in table.entry(key).iter_mut().zip(aggs) {
            *acc = agg.func.accumulate(*acc, *value);
        }
    }
}

/// Run one lane of a group-by over `arity` key columns and the value after
/// them ([`value_aggs`]) through the chunk kernel: `tuples` arrive in blocks
/// of `block` rows, and the lane's partials merge into `slot`'s table when
/// it finishes. With `narrow`, a key column whose values fit is `Int32`.
fn fold_lane(
    state: &SharedState,
    slot: StateSlot,
    arity: usize,
    tuples: &[Tuple],
    (block, narrow): (usize, bool),
) {
    let keys = (0..arity).map(Expr::col).collect();
    let terminal = TerminalStep::GroupBy { keys, aggs: value_aggs(arity), slot };
    let pipeline =
        CompiledPipeline::new(PipelineId::new(1), DeviceKind::CpuCore, arity + 1, vec![], terminal)
            .unwrap();
    let mut ctx = ExecCtx::cpu(MemoryNodeId::new(0), 1024).with_arena(state.arena());
    for part in tuples.chunks(block) {
        let column = |values: Vec<i64>| match values.iter().map(|&v| i32::try_from(v)).collect() {
            Ok(values) if narrow => ColumnData::Int32(values),
            _ => ColumnData::Int64(values),
        };
        let mut columns: Vec<ColumnData> =
            (0..arity).map(|c| column(part.iter().map(|(k, _)| k[c]).collect())).collect();
        columns.push(ColumnData::Int64(part.iter().map(|&(_, v)| v).collect()));
        let meta = BlockMeta::new(BlockId::new(0), MemoryNodeId::new(0));
        let input = BlockHandle::new(Block::new(columns, part.len()).unwrap(), meta);
        pipeline.process_block(&input, state, &mut ctx).unwrap();
    }
    pipeline.finalize_instance(state, &mut ctx).unwrap();
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

#[test]
fn sealing_an_empty_table_is_a_no_op() {
    let table = JoinHashTable::new(1);
    table.seal();
    assert!(!table.is_direct());
    assert_eq!(table.approx_bytes(), 0, "an empty sealed table owns no memory");
    assert_join_matches_model(&table, &JoinModel::new(), &[0, 1, i64::MIN, i64::MAX]);
    // It is still an ordinary table: it fills, and then seals.
    table.insert(7, vec![70]);
    table.seal();
    assert!(table.is_direct());
    assert_join_matches_model(&table, &JoinModel::from([(7, vec![vec![70]])]), &[6, 7, 8]);
}

#[test]
fn a_span_that_overflows_i64_stays_hashed() {
    for keys in [
        vec![i64::MIN, i64::MAX],
        vec![i64::MIN, 0, -1],
        vec![-1, i64::MAX, 3],
        vec![i64::MIN, i64::MIN + 1, i64::MAX - 1, i64::MAX],
    ] {
        let (table, model) = built_table(&keys, 1);
        table.seal();
        assert!(!table.is_direct(), "keys {keys:?}");
        assert_join_matches_model(&table, &model, &window_probes(0, 2, &keys));
    }
}

/// Past [`DIRECT_FLOOR`], the seal indexes a span up to four times the slot
/// count. 5,000 distinct keys inserted as one batch take 16 Ki slots, so
/// a span of 64 Ki keys is indexed and one more key of span is not.
#[test]
fn past_the_floor_the_direct_limit_is_four_times_the_slots() {
    let offsets: Vec<u64> = (1..4_999).map(|i| i * 13).collect();
    for at in 0..3 {
        for (span, direct) in [(64 * 1024, true), (64 * 1024 + 1, false)] {
            let base = window_base(at, span);
            let keys = window_keys(base, span, &offsets);
            let (table, model) = built_table(&keys, 1);
            assert_eq!(table.distinct_keys(), 5_000);
            table.seal();
            assert_eq!(table.is_direct(), direct, "span {span} from {base}");
            assert_join_matches_model(&table, &model, &window_probes(base, span, &keys));
        }
    }
}

/// A chained table is sized by its rows: 10,000 rows over 5,000 keys take
/// 32 Ki slots, so a span of 128 Ki keys is indexed and one more key of
/// span is not — where slots counted from the distinct keys would have
/// stopped at 64 Ki.
#[test]
fn a_chained_table_is_sized_by_its_rows() {
    let offsets: Vec<u64> = (1..4_999).map(|i| i * 13).collect();
    for at in 0..3 {
        for (span, direct) in [(128 * 1024, true), (128 * 1024 + 1, false)] {
            let base = window_base(at, span);
            let keys = window_keys(base, span, &offsets).repeat(2);
            let (table, model) = built_table(&keys, 1);
            table.seal();
            assert_eq!((table.len(), table.distinct_keys()), (10_000, 5_000));
            assert_eq!(table.is_direct(), direct, "span {span} from {base}");
            assert_join_matches_model(&table, &model, &window_probes(base, span, &keys));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(case_budget()))]

    /// Single-tuple inserts, probed while the table grows (unsealed), and
    /// again once sealed: keys this sparse keep it hashed.
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
        assert_join_matches_model(&table, &model, &spread_keys(410));
        table.seal();
        prop_assert!(!table.is_direct());
        assert_join_matches_model(&table, &model, &spread_keys(410));
    }

    /// Dense key windows — at the bottom of `i64`, at its top and across
    /// zero, with spans from tiny to just past [`DIRECT_FLOOR`], unique keys
    /// or chains — answer the same sealed and unsealed, equal to the model.
    /// The seal indexes exactly the windows within the floor (a table this
    /// small has fewer than `DIRECT_FLOOR / 4` slots), a second seal changes
    /// nothing, and an insert after the seal drops the index without
    /// changing an answer.
    #[test]
    fn sealed_dense_windows_answer_like_the_model(
        at in 0u8..3,
        span_pick in 0usize..4,
        offsets in vec(0u64..1 << 40, 0..600),
        chains in 0u8..2,
        wide in 0u8..2,
    ) {
        let span = [3, 1_000, DIRECT_FLOOR as u64, DIRECT_FLOOR as u64 + 1][span_pick];
        let base = window_base(at, span);
        let mut keys = window_keys(base, span, &offsets);
        if chains == 1 {
            // Every other key again: chains of up to three rows.
            let again: Vec<i64> = keys.iter().step_by(2).copied().collect();
            keys.extend(again);
        } else {
            let mut seen = std::collections::HashSet::new();
            keys.retain(|&k| seen.insert(k));
        }
        let width = if wide == 1 { 2 } else { 0 };
        let (unsealed, mut model) = built_table(&keys, width);
        let (sealed, _) = built_table(&keys, width);
        sealed.seal();
        let direct = span <= DIRECT_FLOOR as u64;
        prop_assert_eq!(sealed.is_direct(), direct);
        let table_bytes = indexed_bytes(keys.len(), width, direct.then_some(span));
        prop_assert_eq!(sealed.approx_bytes(), table_bytes);
        let probes = window_probes(base, span, &keys);
        assert_join_matches_model(&unsealed, &model, &probes);
        assert_join_matches_model(&sealed, &model, &probes);

        sealed.seal();
        prop_assert_eq!(sealed.is_direct(), direct);
        prop_assert_eq!(sealed.approx_bytes(), table_bytes);

        let extra = base.wrapping_add(span as i64 / 3);
        sealed.insert(extra, payload_of(keys.len(), width));
        model.entry(extra).or_default().push(payload_of(keys.len(), width));
        prop_assert!(!sealed.is_direct(), "an insert drops the direct index");
        assert_join_matches_model(&sealed, &model, &probes);
        sealed.seal();
        prop_assert_eq!(sealed.is_direct(), direct);
        assert_join_matches_model(&sealed, &model, &probes);
    }

    /// The branch-free compaction a table of unique keys is probed with
    /// finds what the chain walk finds: one table, direct or hashed, probed
    /// before and after one duplicate key makes it walk chains, differs by
    /// exactly that duplicate's row.
    #[test]
    fn unique_key_compaction_equals_the_chain_walk(
        at in 0u8..3,
        span_pick in 0usize..2,
        offsets in vec(0u64..1 << 40, 0..600),
        dup_pick in 0usize..1_000,
    ) {
        let span = [2_000, 1 << 40][span_pick];
        let base = window_base(at, span);
        let mut keys = window_keys(base, span, &offsets);
        let mut seen = std::collections::HashSet::new();
        keys.retain(|&k| seen.insert(k));
        let (table, mut model) = built_table(&keys, 1);
        table.seal();
        prop_assert_eq!(table.is_direct(), span_pick == 0);
        let probes = window_probes(base, span, &keys);
        let compacted = probe_batch_all(&table, &probes);

        let dup = keys[dup_pick % keys.len()];
        table.insert(dup, payload_of(keys.len(), 1));
        model.entry(dup).or_default().push(payload_of(keys.len(), 1));
        table.seal();
        prop_assert_eq!(table.is_direct(), span_pick == 0);
        assert_join_matches_model(&table, &model, &probes);
        let mut walked = probe_batch_all(&table, &probes);
        for (lane, &key) in probes.iter().enumerate() {
            if key == dup {
                prop_assert_eq!(walked[lane].pop(), Some(payload_of(keys.len(), 1)));
            }
        }
        prop_assert_eq!(walked, compacted);
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
        assert_join_matches_model(&single, &model, &spread_keys(130));
        assert_join_matches_model(&batched, &model, &spread_keys(130));
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
        assert_join_matches_model(&single, &model, &spread_keys(310));
        assert_join_matches_model(&batched, &model, &spread_keys(310));
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
        let mut pairs: Vec<(Vec<i64>, Vec<i64>)> = Vec::new();
        local.for_each(|k, v| pairs.push((k.to_vec(), v.to_vec())));
        pairs.sort();

        let mut state = SharedState::new();
        let slot = state.add_group_by(&aggs);
        state.group_by(slot).unwrap().absorb(&mut local);
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

    /// One to four threads hand blocks of 0–3,000 rows to one table, each
    /// block in one `insert_batch`, as build workers do. The keys are dense
    /// or sparse, in a window at either end of `i64` or across zero, unique,
    /// in chains of up to three rows or a few hot keys, or dense but for a
    /// last key at exactly `4 × slots` (shape 2) or one past it (shape 3).
    /// Every block stays one ordered run of each chain it joins, and a
    /// single thread's table equals the model. The seal follows the direct
    /// rule on rows, and so does each re-index after a late block.
    #[test]
    fn concurrent_block_hand_offs_stay_whole(
        blocks in vec(vec(0usize..3_000, 1..4), 1..5),
        late in vec(0usize..40, 0..4),
        at in 0u8..3,
        shape in 0u8..4,
        fanout in 0u8..3,
        hot in 1usize..9,
    ) {
        const SPARSE: i64 = 0x0123_4567_89AB;
        let rows: usize = blocks.iter().flatten().sum();
        let distinct = [rows, rows.div_ceil(3), hot][usize::from(fanout)].max(1);
        let span = match shape {
            0 => distinct as u64,
            1 => (distinct as u64 - 1) * SPARSE as u64 + 1,
            _ => 4 * slots_for(rows) as u64 + u64::from(shape - 2),
        };
        let base = window_base(at, span);
        // Row `id` has key number `id % distinct`; with shapes 2 and 3 the
        // last key number sits at the far end of the span.
        let key_at = |id: usize| {
            let k = id % distinct;
            let off = match shape {
                0 => k as i64,
                1 => k as i64 * SPARSE,
                _ if k + 1 == distinct && k > 0 => span as i64 - 1,
                _ => k as i64,
            };
            base.wrapping_add(off)
        };
        // Block `tag`'s rows, from row id `first` on.
        let block_rows = |tag: usize, first: usize, len: usize| {
            let keys: Vec<i64> = (first..first + len).map(key_at).collect();
            let payload = vec![vec![tag as i64; len], (0..len as i64).collect()];
            (keys, payload)
        };
        let (mut model, mut all_keys) = (JoinModel::new(), Vec::new());
        let mut first = 0;
        let mut planned = Vec::new();
        for (t, sizes) in blocks.iter().enumerate() {
            let mut thread_blocks = Vec::new();
            for (b, &len) in sizes.iter().enumerate() {
                let (keys, payload) = block_rows(t * 10 + b, first, len);
                record(&mut model, &keys, &payload);
                all_keys.extend_from_slice(&keys);
                thread_blocks.push((keys, payload));
                first += len;
            }
            planned.push(thread_blocks);
        }

        let table = JoinHashTable::new(2);
        let barrier = Barrier::new(planned.len());
        std::thread::scope(|scope| {
            for thread_blocks in &planned {
                let (table, barrier) = (&table, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    for (keys, payload) in thread_blocks {
                        table.insert_batch(keys, payload);
                    }
                });
            }
        });
        let exact = planned.len() == 1;
        let mut probes: Vec<i64> = (0..distinct).map(key_at).collect();
        probes = window_probes(base, span, &probes);
        prop_assert_eq!(table.len(), rows);
        table.seal();
        prop_assert_eq!(table.is_direct(), direct_by_rule(&all_keys));
        assert_blocks_stay_whole(&table, &model, &probes, exact);

        // Late blocks re-index on the next read, probed in between.
        for (i, &len) in late.iter().enumerate() {
            let (keys, payload) = block_rows(100 + i, first, len);
            table.insert_batch(&keys, &payload);
            record(&mut model, &keys, &payload);
            all_keys.extend_from_slice(&keys);
            first += len;
            prop_assert_eq!(table.is_direct(), len == 0 && direct_by_rule(&all_keys));
            if let Some(&key) = keys.first() {
                prop_assert_eq!(probe_all(&table, key).len(), model[&key].len());
            }
            prop_assert_eq!(table.is_direct(), direct_by_rule(&all_keys));
        }
        assert_blocks_stay_whole(&table, &model, &probes, exact);
    }

    /// Lane partials built through the chunk kernel or tuple by tuple,
    /// merged in any number of batches, fold to the model's aggregates — for
    /// every aggregate function and for one- and three-column keys.
    #[test]
    fn group_by_behaves_like_an_ordered_map_of_folds(
        tuples in vec(0usize..90, 0..2_500),
        batches in 1usize..6,
        wide_key in 0u8..2,
    ) {
        let arity = if wide_key == 1 { 3 } else { 1 };
        let aggs = value_aggs(arity);
        let key_row = |t: usize| -> Vec<i64> {
            // Three-column keys share their first column across many groups.
            [key_of(t % 7), key_of(t), (t / 30) as i64][3 - arity..].to_vec()
        };
        let value = |row: usize| (row as i64 - 900).wrapping_mul(0x0100_0000_0000_0001);
        let tuples: Vec<Tuple> =
            tuples.iter().enumerate().map(|(row, &t)| (key_row(t), value(row))).collect();

        let mut state = SharedState::new();
        let slot = state.add_group_by(&aggs);
        let shared = state.group_by(slot).unwrap();
        let mut local = FlatGroups::new(arity, &aggs);
        for (b, batch) in tuples.chunks(tuples.len().div_ceil(batches).max(1)).enumerate() {
            if b % 2 == 0 {
                fold_lane(&state, slot, arity, batch, (VEC_CHUNK, false));
            } else {
                local.reset(arity, &aggs);
                fold_entries(&mut local, &aggs, batch);
                shared.absorb(&mut local);
                prop_assert!(local.is_empty());
            }
        }
        let expected = model_of(&aggs, &tuples);
        prop_assert_eq!(shared.len(), expected.len());
        prop_assert_eq!(shared.is_empty(), expected.is_empty());
        prop_assert_eq!(shared.funcs(), &[AggFunc::Sum, AggFunc::Count, AggFunc::Min, AggFunc::Max][..]);
        prop_assert_eq!(shared.snapshot(), expected);
    }

    /// A group table is direct exactly while its keys' packed span is within
    /// [`GROUP_DIRECT_SPAN`], and direct, hashed and merged tables all fold
    /// like the per-tuple model, through the chunk kernel and tuple by tuple.
    /// Keys fill a window at the bottom or top of `i64` or across zero, whose
    /// packed span is the cap or one past it, over one to three columns, of
    /// which most cells are never touched; they arrive as drawn, in ascending
    /// order (the box grows up mid-stream) or descending (its base moves
    /// down), with the window's corners among them. A hashed lane is the
    /// same input behind one far key. Lanes merge direct into direct over
    /// different boxes, direct into hashed and hashed into direct, beside
    /// empty lanes. Every table takes its buffers from an arena that a run
    /// over the same keys with other values gave back dirty first.
    #[test]
    fn direct_and_hashed_group_tables_fold_like_the_per_tuple_model(
        draws in vec(0..u64::MAX, 1..1_500),
        arity in 1usize..4,
        at in 0u8..3,
        past in 0u8..2,
        order in 0u8..3,
        block in 1usize..1_500,
        narrow in 0u8..2,
    ) {
        let aggs = value_aggs(arity);
        let past = past == 1;
        let spans = group_spans(arity, past);
        let bases: Vec<i64> = spans.iter().map(|&span| window_base(at, span)).collect();
        let key = |offsets: &dyn Fn(usize) -> u64| -> Vec<i64> {
            (0..arity).map(|c| bases[c].wrapping_add((offsets(c) % spans[c]) as i64)).collect()
        };
        let mut keys: Vec<Vec<i64>> =
            draws.iter().map(|&r| key(&|c| r >> (21 * c))).collect();
        keys.push(key(&|_| 0));
        keys.push(key(&|c| spans[c] - 1));
        let offset = |k: &Vec<i64>| -> Vec<u64> {
            k.iter().zip(&bases).map(|(&k, &b)| k.wrapping_sub(b) as u64).collect()
        };
        match order {
            1 => keys.sort_by_key(offset),
            2 => keys.sort_by_key(|k| std::cmp::Reverse(offset(k))),
            _ => {}
        }
        let value = |row: usize| (row as i64 - 900).wrapping_mul(0x0100_0000_0000_0001);
        let tuples: Vec<Tuple> =
            keys.into_iter().enumerate().map(|(row, k)| (k, value(row))).collect();
        let expected = model_of(&aggs, &tuples);
        let far = (bases.iter().map(|b| b.wrapping_add(1 << 40)).collect::<Vec<i64>>(), 7);
        let without_far = |mut rows: Vec<(Vec<i64>, Vec<i64>)>| {
            rows.retain(|(k, _)| *k != far.0);
            rows
        };

        // Tuple by tuple: a direct table visits its groups in key order.
        let mut direct = FlatGroups::new(arity, &aggs);
        fold_entries(&mut direct, &aggs, &tuples);
        prop_assert_eq!(direct.is_direct(), !past);
        let mut visited = Vec::new();
        direct.for_each(|k, v| visited.push((k.to_vec(), v.to_vec())));
        if !past {
            prop_assert_eq!(&visited, &expected);
        }
        prop_assert_eq!(&group_rows(direct.sorted_columns(), arity), &expected);
        let mut hashed = FlatGroups::new(arity, &aggs);
        fold_entries(&mut hashed, &aggs, std::slice::from_ref(&far));
        fold_entries(&mut hashed, &aggs, &tuples);
        prop_assert!(!hashed.is_direct());
        prop_assert_eq!(without_far(group_rows(hashed.sorted_columns(), arity)), expected.clone());

        // One lane's partials, absorbed twice: moved whole into the empty
        // table, then merged into it. Each absorb leaves them empty for reuse.
        let (first, second) = tuples.split_at(tuples.len() / 2);
        let shared = GroupByTable::new(&aggs);
        let mut partials = FlatGroups::new(arity, &aggs);
        for lane in [second, first] {
            fold_entries(&mut partials, &aggs, lane);
            shared.absorb(&mut partials);
            prop_assert!(partials.is_empty());
        }
        prop_assert_eq!(shared.is_direct(), !past);
        prop_assert_eq!(shared.snapshot(), expected.clone());

        // Through the chunk kernel, lane by lane, on an arena that a run over
        // the same keys with other values leaves dirty.
        let arena = StateArena::new();
        let behind_far = |lane: &[Tuple]| [std::slice::from_ref(&far), lane].concat();
        let lane_sets: Vec<Vec<Vec<Tuple>>> = vec![
            vec![tuples.clone()],
            vec![behind_far(&tuples)],
            // Direct into direct over other boxes, beside an empty lane.
            vec![second.to_vec(), Vec::new(), first.to_vec()],
            // Direct into hashed, and hashed into direct.
            vec![behind_far(first), Vec::new(), second.to_vec()],
            vec![first.to_vec(), behind_far(second)],
        ];
        for (k, lanes) in lane_sets.iter().enumerate() {
            let hashed = past || lanes.iter().flatten().any(|t| *t == far);
            for poison in [true, false] {
                let mut state = SharedState::new();
                let slot = state.add_group_by(&aggs);
                state.use_arena(&arena);
                for lane in lanes {
                    let lane: Vec<Tuple> = match poison {
                        true => lane.iter().map(|(k, _)| (k.clone(), i64::MIN + 3)).collect(),
                        false => lane.clone(),
                    };
                    fold_lane(&state, slot, arity, &lane, (block, narrow == 1));
                }
                let table = state.group_by(slot).unwrap();
                prop_assert_eq!(table.is_direct(), !hashed, "lane set {}", k);
                if !poison {
                    prop_assert_eq!(without_far(table.snapshot()), expected.clone(), "lane set {}", k);
                }
            }
        }
    }
}
