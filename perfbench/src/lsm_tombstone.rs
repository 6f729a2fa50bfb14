//! `lsm_tombstone`: the same rows and delete set on the delete-aware LSM
//! engine.
//!
//! The rows are bulk-loaded into an `LsmTable` whose memtable gets 1/4 of
//! the 5 paper-MB budget, as in the repository's engine experiment. The
//! statement is `bulk_delete` (a membership probe, then a tombstone, per
//! key, plus the flushes and compactions those writes trigger). Reads and
//! scans then run against the tombstoned tree, `purge_all` runs as
//! upkeep, and refill inserts follow. The output check replays the same
//! rows, delete set and refill on a B-tree twin and diffs the engines.

use bd_btree::Key;
use bd_core::report::measure;
use bd_core::{
    audit_engine_equivalence, BtreeEngine, Database, DatabaseConfig, DbError, DbResult, IndexDef,
    TableEngine, Tuple,
};
use bd_lsm::{LsmConfig, LsmTable};
use bd_storage::PAGE_SIZE;
use bd_workload::{TableSpec, Workload as Table};

use crate::paper_vertical::{DELETE_FRACTION, PAPER_MEM_MB};
use crate::trace::{self, span};
use crate::{
    digest, fresh_row, mem_bytes, rows_digest, scan_ok, space_amp, timed_ns, timed_s, Params, Rep,
    Rng, SCAN_WIDTH,
};

/// LSM knobs: the memtable plays the role the sort/hash workspace plays
/// for the B-tree (1/4 of the memory budget); everything else default.
/// The same rule as the repository's engine experiment.
pub fn lsm_config(total_memory: usize, record_len: usize) -> LsmConfig {
    LsmConfig {
        memtable_capacity: (total_memory / 4 / (record_len + 9)).max(64),
        ..LsmConfig::default()
    }
}

/// A freshly loaded LSM table and its inputs.
pub struct Setup {
    /// The table.
    pub lsm: LsmTable,
    /// The generated rows.
    pub rows: Vec<Tuple>,
    /// The delete set, in random order.
    pub d: Vec<Key>,
}

/// Generate the rows, bulk-load them and draw the delete set.
pub fn build(p: &Params) -> DbResult<Setup> {
    let spec = TableSpec::paper_scaled()
        .with_rows(p.rows)
        .with_seed(p.seed);
    let rows = span("bd-workload", "TableSpec::generate_rows", || {
        spec.generate_rows()
    });
    let total_memory = mem_bytes(PAPER_MEM_MB, p.rows);
    let schema = spec.schema();
    let mut lsm = LsmTable::new(
        schema,
        total_memory,
        lsm_config(total_memory, schema.record_len),
    );
    span("bd-lsm", "LsmTable::bulk_load", || lsm.bulk_load(&rows))?;
    // The delete set is drawn exactly as for `paper_vertical`; the table
    // id is unused without a `Database`.
    let table = Table {
        spec,
        tid: 0,
        a_values: rows.iter().map(|r| r.attr(0)).collect(),
    };
    let d = span("bd-workload", "Workload::delete_set", || {
        table.delete_set(DELETE_FRACTION, p.seed.wrapping_add(1))
    });
    Ok(Setup { lsm, rows, d })
}

/// One repetition.
pub fn run(p: &Params) -> DbResult<Rep> {
    let mut rep = Rep::default();
    let (setup, setup_s) = timed_s(|| build(p));
    let Setup { mut lsm, rows, d } = setup?;
    rep.setup_s = setup_s;
    rep.rows_digest = rows_digest(&rows);
    rep.d_digest = digest(d.iter().copied());
    let schema = lsm.schema();
    let pool = lsm.pool().clone();

    if trace::enabled() {
        // Traced run only: what the statement's membership probes cost
        // on their own. `bulk_delete` measures from a cold cache, so this
        // leaves its simulated figures unchanged.
        span("bd-lsm", "TableEngine::lookup (probe D)", || {
            d.iter().try_for_each(|&k| lsm.lookup(k).map(drop))
        })?;
    }

    // The statement.
    let shape_before = lsm.lsm_stats();
    let (report, delete_s) =
        timed_s(|| span("bd-lsm", "LsmTable::bulk_delete", || lsm.bulk_delete(&d)));
    let report = report?;
    rep.delete_s.push(delete_s);
    rep.delete_sim_ms.push(report.sim_ms());
    rep.add_disk(&report.io);
    rep.add_pool(&report.pool);
    rep.bytes_written += report.io.pages_written * PAGE_SIZE as u64;
    rep.bytes_deleted += (report.deleted * schema.record_len) as u64;
    rep.check(report.deleted == d.len(), || {
        format!("statement deleted {} of {} keys", report.deleted, d.len())
    });
    let shape = lsm.lsm_stats();
    rep.add("lsm.flushes", (shape.flushes - shape_before.flushes) as f64);
    rep.add(
        "lsm.compactions",
        (shape.compactions - shape_before.compactions) as f64,
    );
    rep.add("lsm.tombstones_left", shape.tombstones as f64);
    rep.add("lsm.runs", shape.runs as f64);
    rep.add("lsm.levels", shape.levels as f64);
    rep.add("lsm.pages", shape.pages as f64);

    let mut victims = d.clone();
    victims.sort_unstable();
    let mut live: Vec<Key> = rows
        .iter()
        .map(|r| r.attr(0))
        .filter(|k| victims.binary_search(k).is_err())
        .collect();
    live.sort_unstable();

    // Reads against the tombstoned tree, from a cold cache.
    pool.clear_cache()?;
    let before = pool.disk_stats();
    let mut rng = Rng::new(p.seed);
    for _ in 0..p.n_reads() {
        let key = rows[rng.below(rows.len())].attr(0);
        let (got, ns) = timed_ns(|| span("bd-lsm", "LsmTable::lookup", || lsm.lookup(key)));
        rep.read_ns.push(ns);
        let ok = match got {
            Ok(Some(t)) => t.attr(0) == key && live.binary_search(&key).is_ok(),
            Ok(None) => live.binary_search(&key).is_err(),
            Err(_) => false,
        };
        rep.check(ok, || format!("point read of key {key}"));
    }
    rep.read_sim_ms += pool.disk_stats().since(&before).sim_ms;
    rep.read_probes += p.n_reads() as u64;
    for _ in 0..p.n_scans() {
        let lo = rows[rng.below(rows.len())].attr(0);
        let hi = lo + SCAN_WIDTH;
        let (got, ns) = timed_ns(|| {
            span("bd-lsm", "LsmTable::range_lookup", || {
                lsm.range_lookup(lo, hi)
            })
        });
        rep.scan_ns.push(ns);
        let ok = matches!(&got, Ok(got) if scan_ok(got, &live, lo, hi));
        rep.check(ok, || format!("range scan {lo}..={hi}"));
    }

    // Upkeep: force compaction until no tombstone is left.
    let (purge, maint_s) = timed_s(|| {
        span("bd-lsm", "LsmTable::purge_all", || {
            measure(&pool, "lsm purge", || lsm.purge_all())
        })
    });
    let (_, purge) = purge.map_err(DbError::Storage)?;
    rep.maint_s.push(maint_s);
    rep.bytes_written += purge.io.pages_written * PAGE_SIZE as u64;
    rep.add("lsm.purge_pages_written", purge.io.pages_written as f64);

    // Refill inserts.
    let mut refill = Vec::with_capacity(p.n_inserts());
    for i in 0..p.n_inserts() {
        let row = fresh_row(p.rows, i, schema.n_attrs);
        let (got, ns) = timed_ns(|| span("bd-lsm", "LsmTable::insert", || lsm.insert(&row)));
        rep.insert_ns.push(ns);
        rep.check(got.is_ok(), || {
            format!("insert of {:?}: {got:?}", row.attrs)
        });
        live.push(row.attr(0));
        refill.push(row);
    }
    let in_use = rep.add_footprint(&pool);
    rep.space_amp = space_amp(in_use, live.len(), schema.record_len);

    // Output check (untimed): the B-tree twin fed the same inputs, built
    // in ample memory — only its contents matter.
    let mut twin_db = Database::new(DatabaseConfig::with_total_memory(64 << 20));
    let twin_tid = twin_db.create_table("twin", schema);
    for r in &rows {
        twin_db.insert(twin_tid, r)?;
    }
    twin_db.create_index(twin_tid, IndexDef::secondary(0).unique())?;
    let mut twin = BtreeEngine::from_db(twin_db, twin_tid, 1);
    let twin_report = twin.bulk_delete(&d)?;
    rep.check(twin_report.deleted == d.len(), || {
        "twin delete count".into()
    });
    for row in &refill {
        twin.insert(row)?;
    }
    let eq = audit_engine_equivalence(&mut twin, &mut lsm)?;
    rep.check(eq.is_clean(), || {
        format!("lsm diverged from its B-tree twin: {}", eq.render())
    });
    let pages = lsm.audit_pages();
    rep.check(pages.is_clean(), || {
        format!("lsm page audit: {}", pages.render())
    });
    let dump = lsm.audit_dump()?;
    rep.check(
        dump.iter().map(|t| t.attr(0)).eq(live.iter().copied()),
        || "lsm does not hold every survivor and refill exactly once".into(),
    );
    Ok(rep)
}
