//! The crash-at-every-I/O campaign: the executable proof of §3.2's
//! roll-forward recovery.
//!
//! For a seeded workload the campaign first runs the bulk delete fault-free
//! to obtain a reference state, then sweeps a crash point over every
//! successive disk access of the run: rebuild the database, install
//! [`FaultPlan::crash_at_access`] at the `n`-th access, run, observe the
//! crash, discard volatile memory (`pool.crash()`), run [`recover`], and
//! assert via `audit_equivalence` that the recovered state matches the
//! reference. The sweep ends at the first crash point the run never
//! reaches. `workers` sets the driver's fan-out width, so one sweep covers
//! the arms run in order and another the arms run concurrently.

use bd_btree::Key;
use bd_core::{audit_catalog, audit_equivalence, Database, DbError, TableId};
use bd_storage::{FaultPlan, FaultSpec, StorageError};

use crate::driver::{
    recover, recover_media_report, run_bulk_delete_parallel, CrashInjector, MediaRecovery, WalError,
};
use crate::log::LogManager;

/// What a completed campaign covered.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Crash points swept (one per disk access the run issued; every one
    /// recovered to the reference state).
    pub crash_points: usize,
    /// Disk accesses of the fault-free run (the sweep's upper bound).
    pub fault_free_accesses: u64,
    /// Victim rows each run deleted.
    pub deleted: usize,
}

/// Sweep a crash over every disk access of a recoverable bulk delete.
///
/// `build` must deterministically reconstruct the same database and return
/// the same [`TableId`] on every call; `workers <= 1` runs the driver's
/// fan-out arms in order on one thread, `workers > 1` runs them
/// concurrently. `limit` optionally caps the number of crash points (for
/// smoke runs); `None` sweeps until the run outruns the crash point.
///
/// Returns [`WalError::Divergence`] for the first crash point whose
/// recovered state does not match the fault-free reference.
pub fn crash_at_every_io<F>(
    build: F,
    probe_attr: usize,
    d_keys: &[Key],
    workers: usize,
    limit: Option<usize>,
) -> Result<CampaignReport, WalError>
where
    F: FnMut() -> (Database, TableId),
{
    crash_at_every_io_from(build, probe_attr, d_keys, workers, 0, limit)
}

/// [`crash_at_every_io`] starting the sweep at access `start + 1` instead
/// of access 1. A late `start` targets the tail of the access stream —
/// the hash phases run last, so this is how a test covers crash points
/// inside them (and resume-from-progress deep into a pass) without paying
/// for the thousands of earlier crash points of a large table.
pub fn crash_at_every_io_from<F>(
    mut build: F,
    probe_attr: usize,
    d_keys: &[Key],
    workers: usize,
    start: u64,
    limit: Option<usize>,
) -> Result<CampaignReport, WalError>
where
    F: FnMut() -> (Database, TableId),
{
    // Reference: the same workload, no faults.
    let (mut reference, tid) = build();
    let ref_c0 = reference.pool().with_disk(|d| d.accesses());
    let deleted = {
        let log = LogManager::new();
        run_bulk_delete_parallel(
            &mut reference,
            tid,
            probe_attr,
            d_keys,
            &log,
            CrashInjector::none(),
            workers,
        )?
    };
    let fault_free_accesses = reference.pool().with_disk(|d| d.accesses()) - ref_c0;

    let mut crash_points = 0usize;
    let mut n: u64 = start;
    loop {
        n += 1;
        if let Some(lim) = limit {
            if crash_points >= lim {
                break;
            }
        }
        let (mut db, tid_n) = build();
        assert_eq!(tid, tid_n, "build() must be deterministic");
        // The pre-statement state must be on stable storage before the
        // sweep: a crash on the statement's first access discards only the
        // statement's work, not the table build sitting dirty in the pool.
        db.pool().flush_all()?;
        let log = LogManager::new();
        let c0 = db.pool().with_disk(|d| d.accesses());
        db.pool()
            .with_disk(|d| d.set_fault_plan(FaultPlan::new().crash_at_access(c0 + n)));

        match run_bulk_delete_parallel(
            &mut db,
            tid,
            probe_attr,
            d_keys,
            &log,
            CrashInjector::none(),
            workers,
        ) {
            Ok(_) => break, // the run finished under the crash point: done
            Err(WalError::Crashed(_)) => {
                // Volatile memory is gone; stable storage (disk pages +
                // log) survives. Clear the plan so recovery runs fault-free.
                db.pool().crash();
                db.pool().with_disk(|d| d.clear_fault_plan());
                recover(&mut db, tid, &log, &[])?;
                let eq = audit_equivalence(&reference, &db, tid)?;
                if !eq.is_clean() {
                    return Err(WalError::Divergence {
                        crash_point: n,
                        details: eq.to_string(),
                    });
                }
                let cat = audit_catalog(&db, tid)?;
                if !cat.is_clean() {
                    return Err(WalError::Divergence {
                        crash_point: n,
                        details: format!("catalog audit after recovery: {cat}"),
                    });
                }
                crash_points += 1;
            }
            Err(e) => return Err(e),
        }
    }

    Ok(CampaignReport {
        crash_points,
        fault_free_accesses,
        deleted,
    })
}

/// What a completed torn-write sweep covered.
#[derive(Debug, Clone)]
pub struct TornWriteReport {
    /// Tears that corrupted a page detectably (its post-run disk checksum
    /// mismatched, or the run itself died on the mismatch read); every one
    /// was media-recovered to the reference state.
    pub torn_points: usize,
    /// Tears that left no detectable damage. Bulk-delete writes often
    /// change only a page's front half (a heap delete clears slot
    /// directory entries), and a tear preserves exactly the front half —
    /// the persisted image equals the intended one. A later full rewrite
    /// of the page also heals a tear before anything reads it.
    pub silent_points: usize,
    /// Write accesses the sweep managed to tear (torn + silent). Sweep
    /// positions that landed on reads are not counted — a torn-write
    /// fault only arms on writes.
    pub accesses_swept: u64,
    /// Victim rows each run deleted.
    pub deleted: usize,
    /// Structures rebuilt across every torn point (B-trees bulk-loaded plus
    /// hash chains re-inserted). With catalog-precise classification this
    /// is at most one per torn point.
    pub structures_rebuilt: usize,
    /// The worst single torn point's rebuild count. The old heuristic
    /// classifier rebuilt *every* B-tree for any unattributed tear; the
    /// catalog pins this at ≤ 1 (one page has one owner).
    pub max_rebuilt_per_point: usize,
    /// Torn pages that were free in the catalog and were healed with no
    /// rebuild at all.
    pub healed_free: usize,
}

/// Sweep a torn write over every *write* access of a recoverable bulk
/// delete (the write-side mirror of [`crash_at_every_io`]).
///
/// For each position `n` past `start` the run executes with a
/// [`FaultSpec::write_at_access`]`.torn()` fault at access `n`: that write
/// is acknowledged but persists only half the page, with the checksum
/// recording the *intended* image. If the run later reads the torn page it
/// dies on [`StorageError::ChecksumMismatch`]; if not, a post-run scrub
/// ([`corrupt_pages`]) finds the latent damage. Either way the campaign
/// discards volatile memory, runs [`recover_media`] over the damaged
/// pages — which heals them and **rebuilds** the owning structures from
/// the surviving heap and the WAL's materialized rows — and asserts
/// equivalence with the fault-free reference.
///
/// Sweep positions that land on read accesses tear nothing (the fault
/// arms only on writes) and are skipped. The sweep ends at the first
/// position the run never reaches; `limit` optionally caps the number of
/// *torn* positions for smoke runs, and `start` skips the read-heavy
/// early region (materialization) when time is short.
///
/// [`corrupt_pages`]: bd_storage::SimDisk::corrupt_pages
pub fn torn_write_at_every_io<F>(
    mut build: F,
    probe_attr: usize,
    d_keys: &[Key],
    workers: usize,
    start: u64,
    limit: Option<usize>,
) -> Result<TornWriteReport, WalError>
where
    F: FnMut() -> (Database, TableId),
{
    // Reference: the same workload, no faults.
    let (mut reference, tid) = build();
    let deleted = {
        let log = LogManager::new();
        run_bulk_delete_parallel(
            &mut reference,
            tid,
            probe_attr,
            d_keys,
            &log,
            CrashInjector::none(),
            workers,
        )?
    };

    let mut torn_points = 0usize;
    let mut silent_points = 0usize;
    let mut structures_rebuilt = 0usize;
    let mut max_rebuilt_per_point = 0usize;
    let mut healed_free = 0usize;
    let mut n: u64 = start;
    loop {
        n += 1;
        if let Some(lim) = limit {
            if torn_points >= lim {
                break;
            }
        }
        let (mut db, tid_n) = build();
        assert_eq!(tid, tid_n, "build() must be deterministic");
        // The pre-statement state must be on stable storage before the
        // sweep (same contract as the crash campaign).
        db.pool().flush_all()?;
        let log = LogManager::new();
        let c0 = db.pool().with_disk(|d| d.accesses());
        db.pool().with_disk(|d| {
            d.set_fault_plan(FaultPlan::new().inject(FaultSpec::write_at_access(c0 + n).torn()))
        });

        let run = run_bulk_delete_parallel(
            &mut db,
            tid,
            probe_attr,
            d_keys,
            &log,
            CrashInjector::none(),
            workers,
        );
        let used = db.pool().with_disk(|d| d.accesses()) - c0;
        let fired = db.pool().with_disk(|d| d.fault_plan_fired());
        match run {
            Ok(_) if fired == 0 => {
                if n >= used {
                    break; // the run finished under the sweep point: done
                }
                continue; // position n was a read: nothing torn
            }
            Ok(_) => {
                // The tear landed but the run finished: the damage (if
                // any survived later rewrites) is latent. Surface it the
                // way a restart would — drop the cache, scrub the disk.
                db.pool().crash();
                db.pool().with_disk(|d| d.clear_fault_plan());
                let corrupt = db.pool().with_disk(|d| d.corrupt_pages());
                if corrupt.is_empty() {
                    silent_points += 1;
                    continue;
                }
                let (_, media) = recover_media_report(&mut db, tid, &log, &[], &corrupt)?;
                tally(&media, &mut structures_rebuilt, &mut max_rebuilt_per_point);
                healed_free += media.healed_free;
                torn_points += 1;
            }
            Err(WalError::Db(DbError::Storage(StorageError::ChecksumMismatch(_)))) => {
                // The run read the torn page back and died on it.
                db.pool().crash();
                db.pool().with_disk(|d| d.clear_fault_plan());
                let corrupt = db.pool().with_disk(|d| d.corrupt_pages());
                let (_, media) = recover_media_report(&mut db, tid, &log, &[], &corrupt)?;
                tally(&media, &mut structures_rebuilt, &mut max_rebuilt_per_point);
                healed_free += media.healed_free;
                torn_points += 1;
            }
            Err(e) => return Err(e),
        }
        let eq = audit_equivalence(&reference, &db, tid)?;
        if !eq.is_clean() {
            return Err(WalError::Divergence {
                crash_point: n,
                details: eq.to_string(),
            });
        }
        let cat = audit_catalog(&db, tid)?;
        if !cat.is_clean() {
            return Err(WalError::Divergence {
                crash_point: n,
                details: format!("catalog audit after media recovery: {cat}"),
            });
        }
    }

    Ok(TornWriteReport {
        torn_points,
        silent_points,
        accesses_swept: (torn_points + silent_points) as u64,
        deleted,
        structures_rebuilt,
        max_rebuilt_per_point,
        healed_free,
    })
}

/// Fold one media-recovery report into the sweep's rebuild counters.
fn tally(media: &MediaRecovery, total: &mut usize, max_per_point: &mut usize) {
    let here = media.structures_rebuilt();
    *total += here;
    *max_per_point = (*max_per_point).max(here);
}

/// What an erasure-campaign fault sweep covered.
#[derive(Debug, Clone)]
pub struct ErasureSweepReport {
    /// Fault points that damaged the run and were recovered: crash points
    /// for [`erasure_crash_at_every_io`], surfaced tears for
    /// [`erasure_torn_write_at_every_io`]. At every one the recovered
    /// database matched the reference, the catalog audit was clean, and
    /// the proof-of-deletion found zero residue.
    pub recovered_points: usize,
    /// Torn positions that left no detectable damage (torn sweep only).
    pub silent_points: usize,
    /// Disk accesses of the fault-free campaign (the sweep's bound).
    pub fault_free_accesses: u64,
    /// Victim rows the reference campaign deleted across the cascade.
    pub deleted: usize,
    /// Manifest steps of the cascade (≥ tables touched).
    pub steps: usize,
}

/// Per-sweep-point bookkeeping shared by the two erasure sweeps: audits
/// the recovered database against the reference for every campaign table
/// and re-proves the deletion with the externally-held sensitive list —
/// the post-redaction log no longer remembers it, exactly as designed.
fn check_erasure_point(
    reference: &Database,
    db: &Database,
    log: &LogManager,
    tables: &[TableId],
    sensitive: &[u64],
    n: u64,
) -> Result<(), WalError> {
    let raw = log.raw_bytes();
    let proof = bd_core::verify_erasure(db, sensitive, &[("wal", &raw)])?;
    if !proof.is_clean() {
        return Err(WalError::Divergence {
            crash_point: n,
            details: format!("erasure proof after recovery: {}", proof.render()),
        });
    }
    for &t in tables {
        let eq = audit_equivalence(reference, db, t)?;
        if !eq.is_clean() {
            return Err(WalError::Divergence {
                crash_point: n,
                details: format!("table {t}: {eq}"),
            });
        }
        let cat = audit_catalog(db, t)?;
        if !cat.is_clean() {
            return Err(WalError::Divergence {
                crash_point: n,
                details: format!("table {t} catalog: {cat}"),
            });
        }
    }
    Ok(())
}

/// Plan the cascade and capture its sensitive values on a freshly built
/// database (both sweeps need the pair before arming any fault).
fn plan_and_sensitive(
    db: &Database,
    root: TableId,
    root_attr: usize,
    d_keys: &[Key],
) -> Result<(bd_core::CascadePlan, Vec<u64>), WalError> {
    let plan = bd_core::plan_cascade(db, root, root_attr, d_keys)?;
    let sensitive = bd_core::collect_sensitive(db, &plan)?;
    Ok((plan, sensitive))
}

/// True when the log carries the campaign's commit marker. The begin
/// record is redacted at commit, so [`crate::erasure::recover_campaign`]
/// returning `None` *plus* a commit marker means the fault surfaced after
/// the campaign closed — in the proof's own post-commit scan, the one
/// reader that touches pages nothing else re-reads.
fn campaign_committed(log: &LogManager) -> Result<bool, WalError> {
    Ok(log
        .records()?
        .iter()
        .any(|r| matches!(r, crate::record::LogRecord::CampaignCommit { .. })))
}

/// The restart path for damage surfacing after commit: accept the torn
/// images, re-run the idempotent whole-database scrub (it re-derives
/// every byte it writes), and flush. The campaign itself is closed and
/// durable, so there is nothing to resume — only physical healing.
fn heal_after_commit(db: &mut Database, corrupt: &[bd_storage::PageId]) -> Result<(), WalError> {
    db.pool()
        .with_disk(|d| -> Result<(), StorageError> {
            for &pid in corrupt {
                d.accept_torn_page(pid)?;
            }
            Ok(())
        })
        .map_err(DbError::from)?;
    bd_core::scrub_database(db)?;
    db.pool().flush_all()?;
    Ok(())
}

/// Sweep a crash over every disk access of a whole erasure campaign —
/// the cascade's bulk deletes, the physical scrub, and the commit tail.
///
/// `build` must deterministically reconstruct the same multi-table
/// database (with its foreign keys) and return the cascade root's table
/// id. At every crash point the campaign is recovered with
/// [`crate::erasure::recover_campaign`] and must run to completion: the
/// recovered state must match the fault-free reference on every campaign
/// table, the catalog audits must be clean, and the proof-of-deletion —
/// checked against a sensitive list held *outside* the database, since
/// redaction destroys the log's copy — must find zero residue.
pub fn erasure_crash_at_every_io<F>(
    mut build: F,
    root_attr: usize,
    d_keys: &[Key],
    workers: usize,
    start: u64,
    limit: Option<usize>,
) -> Result<ErasureSweepReport, WalError>
where
    F: FnMut() -> (Database, TableId),
{
    use crate::erasure::{recover_campaign, run_erasure_campaign};
    let pacer = bd_storage::Pacer::new();

    // Reference: the same campaign, no faults.
    let (mut reference, root) = build();
    reference.pool().flush_all()?;
    let (plan, sensitive) = plan_and_sensitive(&reference, root, root_attr, d_keys)?;
    let mut tables: Vec<TableId> = plan.steps.iter().map(|s| s.table).collect();
    tables.sort_unstable();
    tables.dedup();
    let ref_c0 = reference.pool().with_disk(|d| d.accesses());
    let ref_log = LogManager::new();
    let ref_out = run_erasure_campaign(&mut reference, &plan, &ref_log, workers, &pacer)?;
    if !ref_out.report.is_clean() {
        return Err(WalError::Divergence {
            crash_point: 0,
            details: format!("fault-free proof: {}", ref_out.report.render()),
        });
    }
    let fault_free_accesses = reference.pool().with_disk(|d| d.accesses()) - ref_c0;

    let mut recovered_points = 0usize;
    let mut n: u64 = start;
    loop {
        n += 1;
        if let Some(lim) = limit {
            if recovered_points >= lim {
                break;
            }
        }
        let (mut db, root_n) = build();
        assert_eq!(root, root_n, "build() must be deterministic");
        db.pool().flush_all()?;
        let (plan_n, _) = plan_and_sensitive(&db, root, root_attr, d_keys)?;
        assert_eq!(plan, plan_n, "cascade plan must be deterministic");
        let log = LogManager::new();
        let c0 = db.pool().with_disk(|d| d.accesses());
        db.pool()
            .with_disk(|d| d.set_fault_plan(FaultPlan::new().crash_at_access(c0 + n)));

        match run_erasure_campaign(&mut db, &plan_n, &log, workers, &pacer) {
            Ok(_) => break, // the campaign outran the crash point: done
            Err(WalError::Crashed(_))
            | Err(WalError::Db(DbError::Storage(StorageError::SimulatedCrash))) => {
                db.pool().crash();
                db.pool().with_disk(|d| d.clear_fault_plan());
                let resumed = recover_campaign(&mut db, &log, workers, &[])?;
                if resumed.is_none() {
                    // Legitimate only when the crash landed inside the
                    // post-commit proof scan: every step and the scrub
                    // were flushed before the commit marker, so the disk
                    // is already the final state and the restart has
                    // nothing to do but re-prove it.
                    if !campaign_committed(&log)? {
                        return Err(WalError::Divergence {
                            crash_point: n,
                            details: "crashed campaign not found open in the log".into(),
                        });
                    }
                }
                check_erasure_point(&reference, &db, &log, &tables, &sensitive, n)?;
                recovered_points += 1;
            }
            Err(e) => return Err(e),
        }
    }

    Ok(ErasureSweepReport {
        recovered_points,
        silent_points: 0,
        fault_free_accesses,
        deleted: ref_out.deleted,
        steps: plan.steps.len(),
    })
}

/// Sweep a torn write over every write access of a whole erasure
/// campaign (the write-side mirror of [`erasure_crash_at_every_io`]).
///
/// Tears surfaced while the campaign is open (a read dies on the torn
/// page's checksum) recover through
/// [`crate::erasure::recover_campaign`], which heals the pages, rebuilds
/// what the in-flight step damaged, and re-runs the scrub. Tears that
/// stay latent past commit (the campaign finished; the damage sits in a
/// page nothing re-read, scrub-phase writes included) are surfaced the
/// way a restart would — drop the cache, scrub the disk for checksum
/// mismatches — then healed and re-scrubbed: scrub writes never change
/// live bytes, so accepting the torn image and re-running the scrub
/// restores both structure and proof.
pub fn erasure_torn_write_at_every_io<F>(
    mut build: F,
    root_attr: usize,
    d_keys: &[Key],
    workers: usize,
    start: u64,
    limit: Option<usize>,
) -> Result<ErasureSweepReport, WalError>
where
    F: FnMut() -> (Database, TableId),
{
    use crate::erasure::{recover_campaign, run_erasure_campaign};
    let pacer = bd_storage::Pacer::new();

    let (mut reference, root) = build();
    reference.pool().flush_all()?;
    let (plan, sensitive) = plan_and_sensitive(&reference, root, root_attr, d_keys)?;
    let mut tables: Vec<TableId> = plan.steps.iter().map(|s| s.table).collect();
    tables.sort_unstable();
    tables.dedup();
    let ref_c0 = reference.pool().with_disk(|d| d.accesses());
    let ref_log = LogManager::new();
    let ref_out = run_erasure_campaign(&mut reference, &plan, &ref_log, workers, &pacer)?;
    if !ref_out.report.is_clean() {
        return Err(WalError::Divergence {
            crash_point: 0,
            details: format!("fault-free proof: {}", ref_out.report.render()),
        });
    }
    let fault_free_accesses = reference.pool().with_disk(|d| d.accesses()) - ref_c0;

    let mut recovered_points = 0usize;
    let mut silent_points = 0usize;
    let mut n: u64 = start;
    loop {
        n += 1;
        if let Some(lim) = limit {
            if recovered_points >= lim {
                break;
            }
        }
        let (mut db, root_n) = build();
        assert_eq!(root, root_n, "build() must be deterministic");
        db.pool().flush_all()?;
        let (plan_n, _) = plan_and_sensitive(&db, root, root_attr, d_keys)?;
        let log = LogManager::new();
        let c0 = db.pool().with_disk(|d| d.accesses());
        db.pool().with_disk(|d| {
            d.set_fault_plan(FaultPlan::new().inject(FaultSpec::write_at_access(c0 + n).torn()))
        });

        let run = run_erasure_campaign(&mut db, &plan_n, &log, workers, &pacer);
        let used = db.pool().with_disk(|d| d.accesses()) - c0;
        let fired = db.pool().with_disk(|d| d.fault_plan_fired());
        match run {
            Ok(_) if fired == 0 => {
                if n >= used {
                    break; // the campaign outran the sweep point: done
                }
                continue; // position n was a read: nothing torn
            }
            Ok(_) => {
                // The tear landed but the campaign committed. Surface any
                // latent damage like a restart would.
                db.pool().crash();
                db.pool().with_disk(|d| d.clear_fault_plan());
                let corrupt = db.pool().with_disk(|d| d.corrupt_pages());
                if corrupt.is_empty() {
                    silent_points += 1;
                    continue;
                }
                // The campaign is committed (and its begin record
                // redacted), so there is nothing to resume — heal the
                // torn images and re-run the scrub.
                heal_after_commit(&mut db, &corrupt)?;
                check_erasure_point(&reference, &db, &log, &tables, &sensitive, n)?;
                recovered_points += 1;
            }
            Err(WalError::Db(DbError::Storage(StorageError::ChecksumMismatch(_)))) => {
                // The campaign read the torn page back and died on it.
                db.pool().crash();
                db.pool().with_disk(|d| d.clear_fault_plan());
                let corrupt = db.pool().with_disk(|d| d.corrupt_pages());
                let resumed = recover_campaign(&mut db, &log, workers, &corrupt)?;
                if resumed.is_none() {
                    // Legitimate only when the torn page stayed latent
                    // through commit and the mismatch fired in the proof
                    // scan itself — same restart path as the Ok case.
                    if !campaign_committed(&log)? {
                        return Err(WalError::Divergence {
                            crash_point: n,
                            details: "torn campaign not found open in the log".into(),
                        });
                    }
                    heal_after_commit(&mut db, &corrupt)?;
                }
                check_erasure_point(&reference, &db, &log, &tables, &sensitive, n)?;
                recovered_points += 1;
            }
            Err(e) => return Err(e),
        }
    }

    Ok(ErasureSweepReport {
        recovered_points,
        silent_points,
        fault_free_accesses,
        deleted: ref_out.deleted,
        steps: plan.steps.len(),
    })
}
