#![warn(missing_docs)]

//! Checkpointing and crash recovery for bulk deletes — paper §3.2.
//!
//! "We propose to make use of checkpoints to minimize the loss of work
//! during a system failure. ... To take full advantage of checkpointing and
//! to save the work done even after a system failure we propose to finish
//! the bulk deletion instead of rolling it back."
//!
//! * [`record`] — log records: materialized delete lists and victim rows,
//!   fuzzy checkpoints with tree metadata, per-structure completion,
//!   commit;
//! * [`log`] — an append-only, force-on-append log manager (stable storage
//!   in the simulation);
//! * [`driver`] — one recoverable bulk-delete driver,
//!   [`driver::run_bulk_delete`] (or [`driver::run_bulk_delete_parallel`]
//!   with a worker count for its fan-out group), with crash injection at
//!   every interesting point, and [`driver::recover`], which *rolls the
//!   bulk delete forward* through the same passes and applies pending
//!   side-files afterwards;
//! * [`erasure`] — durable erasure campaigns: the full cascade persisted
//!   as a manifest, each step recoverable, a physical scrub plus log
//!   redaction at commit, and a byte-level proof of deletion.

pub mod campaign;
pub mod driver;
pub mod erasure;
pub mod log;
pub mod record;

pub use campaign::{
    crash_at_every_io, crash_at_every_io_from, erasure_crash_at_every_io,
    erasure_torn_write_at_every_io, torn_write_at_every_io, CampaignReport, ErasureSweepReport,
    TornWriteReport,
};
pub use driver::{
    recover, recover_media, recover_media_report, run_bulk_delete, run_bulk_delete_parallel,
    run_maintenance_cycle, with_maintenance_bracket, CrashInjector, CrashSite, MediaRecovery,
    WalError,
};
pub use erasure::{recover_campaign, run_erasure_campaign, ErasureOutcome, KEY_BEARING_TAGS};
pub use log::LogManager;
pub use record::{CampaignStep, LogRecord, Lsn, MaterializedRow, StructureId, TreeMeta};
