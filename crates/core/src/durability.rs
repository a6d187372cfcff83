//! Whole-lens dump and restore: dataset, session log, and live-monitor
//! state persisted to one directory, so a long-running monitor's
//! write-ahead log can be **compacted into a snapshot plus tail**.
//!
//! A dump directory contains:
//!
//! * `dataset/` — the trace tables and machine declarations as columnar
//!   [`batchlens_trace::store`] segments (sorted, checksummed,
//!   memory-mappable); [`restore`] reopens them via the lazy
//!   [`TraceDataset::open`] path, bit-exact on every f64,
//! * `session.json` — the recorded interaction log,
//! * `monitor/config.json` + `monitor/wal/` — the live monitor's
//!   configuration (shard count included) and its WAL, each shard's log
//!   compacted to a single sealed segment with sequence numbers preserved,
//!   in the [`StreamMonitor::shard_wal_dir`] layout (present only when a
//!   monitor was dumped).
//!
//! The compacted monitor WAL is the **snapshot** half of a
//! snapshot-plus-tail scheme: [`restore`] replays it through
//! [`StreamMonitor::recover`], and any records a one-shard monitor's live
//! log accepted *after* the dump (sequence numbers past the dump's last)
//! are the tail — feed them to [`StreamMonitor::apply_replayed`] to catch
//! up. Monitor state round-trips **bit-identically** (the WAL codec is
//! bit-exact). The CSV codec stays the import/export format (see the
//! `trace_export` example); it is not part of a dump.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use batchlens_trace::wal::{self, RecoveryReport, WalError};
use batchlens_trace::{store, TraceDataset, TraceError};

use crate::app::BatchLens;
use crate::session::SessionLog;
use crate::stream::{merge_reports, RecoverError, StreamConfig, StreamMonitor};

/// Why a [`dump`] failed.
#[derive(Debug)]
pub enum DumpError {
    /// A file could not be written.
    Io {
        /// The operation that failed.
        op: &'static str,
        /// The path it failed on.
        path: PathBuf,
        /// The OS error.
        source: io::Error,
    },
    /// The session log or monitor config failed to serialize.
    Serialize(serde_json::Error),
    /// The monitor's WAL could not be compacted.
    Wal(WalError),
    /// The columnar segment payload could not be written.
    Store(TraceError),
    /// The monitor to dump has no WAL attached: its state can only be
    /// persisted by replaying its log, so an unlogged monitor cannot be
    /// dumped.
    MonitorHasNoWal,
}

impl std::fmt::Display for DumpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DumpError::Io { op, path, source } => {
                write!(f, "dump: {op} {} failed: {source}", path.display())
            }
            DumpError::Serialize(e) => write!(f, "dump: serialize failed: {e}"),
            DumpError::Wal(e) => write!(f, "dump: wal compaction failed: {e}"),
            DumpError::Store(e) => write!(f, "dump: segment store write failed: {e}"),
            DumpError::MonitorHasNoWal => {
                write!(
                    f,
                    "dump: monitor has no wal attached, state cannot be persisted"
                )
            }
        }
    }
}

impl std::error::Error for DumpError {}

impl From<serde_json::Error> for DumpError {
    fn from(e: serde_json::Error) -> DumpError {
        DumpError::Serialize(e)
    }
}

impl From<WalError> for DumpError {
    fn from(e: WalError) -> DumpError {
        DumpError::Wal(e)
    }
}

impl From<TraceError> for DumpError {
    fn from(e: TraceError) -> DumpError {
        DumpError::Store(e)
    }
}

/// Why a [`restore`] failed.
#[derive(Debug)]
pub enum RestoreError {
    /// A dump file could not be read.
    Io {
        /// The operation that failed.
        op: &'static str,
        /// The path it failed on.
        path: PathBuf,
        /// The OS error.
        source: io::Error,
    },
    /// The dataset payload was missing, corrupt or invalid.
    Trace(TraceError),
    /// `session.json` or `monitor/config.json` was malformed.
    Deserialize(serde_json::Error),
    /// The monitor could not be recovered from the dumped WAL.
    Recover(RecoverError),
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::Io { op, path, source } => {
                write!(f, "restore: {op} {} failed: {source}", path.display())
            }
            RestoreError::Trace(e) => write!(f, "restore: invalid table: {e}"),
            RestoreError::Deserialize(e) => write!(f, "restore: malformed json: {e}"),
            RestoreError::Recover(e) => write!(f, "restore: monitor recovery failed: {e}"),
        }
    }
}

impl std::error::Error for RestoreError {}

impl From<TraceError> for RestoreError {
    fn from(e: TraceError) -> RestoreError {
        RestoreError::Trace(e)
    }
}

impl From<serde_json::Error> for RestoreError {
    fn from(e: serde_json::Error) -> RestoreError {
        RestoreError::Deserialize(e)
    }
}

impl From<RecoverError> for RestoreError {
    fn from(e: RecoverError) -> RestoreError {
        RestoreError::Recover(e)
    }
}

/// What a [`dump`] wrote.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DumpReport {
    /// Rows written per segment family: tasks, instances, usage, events,
    /// machines.
    pub rows: [usize; 5],
    /// Columnar segment files written into `dataset/`.
    pub segments: usize,
    /// The monitor WAL compaction outcome, when a monitor was dumped (the
    /// shard logs' reports summed, at N shards). A non-clean reason means a
    /// live log had a torn/corrupt tail and the dump captured its intact
    /// prefix.
    pub monitor: Option<RecoveryReport>,
}

/// A restored lens: the rebuilt dataset + session, and the recovered
/// monitor when the dump contained one.
#[derive(Debug)]
pub struct RestoredLens {
    /// The lens, with the dumped session log replayed into its view state.
    pub lens: BatchLens,
    /// The recovered monitor (no WAL attached — attach a fresh one to
    /// resume logging).
    pub monitor: Option<StreamMonitor>,
    /// The monitor replay outcome, when a monitor was restored.
    pub monitor_report: Option<RecoveryReport>,
}

fn write_file(path: &Path, contents: &str) -> Result<(), DumpError> {
    fs::write(path, contents).map_err(|source| DumpError::Io {
        op: "write",
        path: path.to_path_buf(),
        source,
    })
}

fn read_file(path: &Path) -> Result<String, RestoreError> {
    fs::read_to_string(path).map_err(|source| RestoreError::Io {
        op: "read",
        path: path.to_path_buf(),
        source,
    })
}

/// Dumps the whole lens state — dataset segments, session log, and (when
/// `monitor` is given) the live monitor's config plus each shard's WAL
/// compacted to a single segment — into `dir`, creating it if needed.
///
/// The monitor must have a WAL attached ([`StreamMonitor::attach_wal`] or
/// [`StreamMonitor::attach_wal_family`]): its state is persisted *as* that
/// log, synced and compacted with sequence numbers preserved, so a later
/// [`restore`] replays to the bit-identical state and newer live-log
/// records still apply as a tail.
///
/// # Errors
///
/// [`DumpError::MonitorHasNoWal`] for an unlogged monitor; otherwise IO,
/// serialization, or WAL-compaction failures.
pub fn dump(
    dir: &Path,
    lens: &BatchLens,
    monitor: Option<&StreamMonitor>,
) -> Result<DumpReport, DumpError> {
    fs::create_dir_all(dir).map_err(|source| DumpError::Io {
        op: "create dir",
        path: dir.to_path_buf(),
        source,
    })?;

    write_file(&dir.join("session.json"), &lens.log().to_json()?)?;
    let store_report = store::dump_dataset(&dir.join("dataset"), lens.dataset())?;

    let mut report = DumpReport {
        rows: store_report.rows,
        segments: store_report.segments,
        monitor: None,
    };
    if let Some(monitor) = monitor {
        let wal_root = monitor.wal_dir().ok_or(DumpError::MonitorHasNoWal)?;
        monitor.sync_wal();
        let monitor_dir = dir.join("monitor");
        fs::create_dir_all(&monitor_dir).map_err(|source| DumpError::Io {
            op: "create dir",
            path: monitor_dir.clone(),
            source,
        })?;
        write_file(
            &monitor_dir.join("config.json"),
            &serde_json::to_string_pretty(monitor.config())?,
        )?;
        let dumped_root = monitor_dir.join("wal");
        let reports = (0..monitor.shard_count())
            .map(|i| {
                wal::compact(
                    &monitor.shard_wal_dir(&wal_root, i),
                    &monitor.shard_wal_dir(&dumped_root, i),
                )
            })
            .collect::<Result<Vec<_>, _>>()?;
        report.monitor = Some(merge_reports(reports));
    }
    Ok(report)
}

/// Restores a lens (and monitor, when the dump contains one) from a
/// directory written by [`dump`].
///
/// The dataset is reopened from the `dataset/` segments, the session log
/// replays into the view state ([`BatchLens::with_session`]), and the
/// monitor — if dumped — is recovered from the compacted WAL with the
/// dumped configuration. Apply tail records from a newer live log via
/// [`StreamMonitor::apply_replayed`] to catch the monitor up past the
/// dump point.
///
/// # Errors
///
/// IO failures reading the dump, a missing or corrupt segment payload
/// ([`RestoreError::Trace`]), malformed JSON, or an invalid dumped monitor
/// configuration. Corrupt WAL *contents* are not an error — replay stops at
/// the last intact record and the report says so.
pub fn restore(dir: &Path) -> Result<RestoredLens, RestoreError> {
    let log = SessionLog::from_json(&read_file(&dir.join("session.json"))?)?;

    let dataset = TraceDataset::open(&dir.join("dataset"))?;
    let lens = BatchLens::with_session(dataset, log);

    let monitor_dir = dir.join("monitor");
    let (monitor, monitor_report) = if monitor_dir.is_dir() {
        let cfg: StreamConfig =
            serde_json::from_str(&read_file(&monitor_dir.join("config.json"))?)?;
        let (monitor, report) = StreamMonitor::recover(&monitor_dir.join("wal"), cfg)?;
        (Some(monitor), Some(report))
    } else {
        (None, None)
    };

    Ok(RestoredLens {
        lens,
        monitor,
        monitor_report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interaction::Event;
    use batchlens_trace::wal::WalConfig;
    use batchlens_trace::{
        BatchInstanceRecord, BatchTaskRecord, DatasetQuery, InstanceStatus, JobId, MachineEvent,
        MachineEventRecord, MachineId, ServerUsageRecord, TaskId, TaskStatus, Timestamp,
        TraceDatasetBuilder, UtilizationTriple,
    };

    fn temp_dump_dir(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "batchlens-dump-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn sample_lens() -> BatchLens {
        let mut b = TraceDatasetBuilder::new();
        b.push_task(BatchTaskRecord {
            create_time: Timestamp::new(0),
            modify_time: Timestamp::new(900),
            job: JobId::new(1),
            task: TaskId::new(1),
            instance_count: 2,
            status: TaskStatus::Terminated,
            plan_cpu: 1.5,
            plan_mem: 0.25,
        });
        for seq in 0..2 {
            b.push_instance(BatchInstanceRecord {
                start_time: Timestamp::new(60),
                end_time: Timestamp::new(600 + 60 * i64::from(seq)),
                job: JobId::new(1),
                task: TaskId::new(1),
                seq,
                total: 2,
                machine: MachineId::new(seq + 1),
                status: InstanceStatus::Terminated,
                cpu_avg: 0.5,
                cpu_max: 0.75,
                mem_avg: 0.25,
                mem_max: 0.5,
            });
        }
        for t in 0..4 {
            b.push_usage(ServerUsageRecord {
                time: Timestamp::new(t * 300),
                machine: MachineId::new(1),
                // On the 0.01 % grid the CSV codec uses, so the dump
                // round-trips exactly.
                util: UtilizationTriple::clamped(0.25, 0.5, 0.75),
            });
        }
        b.push_machine_event(MachineEventRecord {
            time: Timestamp::new(0),
            machine: MachineId::new(2),
            event: MachineEvent::Add,
            capacity_cpu: 64.0,
            capacity_mem: 1.0,
            capacity_disk: 1.0,
        });
        BatchLens::new(b.build().unwrap())
    }

    #[test]
    fn dump_restore_round_trips_lens_and_monitor() {
        for shards in [1, 4] {
            dump_restore_round_trip(shards);
        }
    }

    fn dump_restore_round_trip(shards: usize) {
        let dump_dir = temp_dump_dir("roundtrip");
        let wal_dir = temp_dump_dir("roundtrip-wal");
        let mut lens = sample_lens();
        lens.apply(Event::SelectTimestamp(Timestamp::new(300)));
        lens.apply(Event::SelectJob(JobId::new(1)));

        let cfg = StreamConfig {
            shards,
            ..Default::default()
        };
        let monitor = StreamMonitor::new(cfg).unwrap();
        monitor
            .attach_wal_family(&wal_dir, WalConfig::default())
            .unwrap();
        for t in 0..6 {
            monitor.ingest(ServerUsageRecord {
                time: Timestamp::new(t * 60),
                // Three machines, so a 4-shard monitor logs to several
                // shards.
                machine: MachineId::new(1 + (t % 3) as u32),
                util: UtilizationTriple::clamped(0.95, 0.3, 0.2),
            });
        }
        monitor.instance_started(
            JobId::new(1),
            TaskId::new(1),
            0,
            MachineId::new(1),
            Timestamp::new(30),
        );

        let report = dump(&dump_dir, &lens, Some(&monitor)).unwrap();
        assert_eq!(report.rows, [1, 2, 4, 1, 2]);
        let wal_report = report.monitor.unwrap();
        assert!(wal_report.reason.is_clean());
        assert_eq!(wal_report.records_replayed, 7);

        let restored = restore(&dump_dir).unwrap();
        assert_eq!(restored.lens.log(), lens.log());
        assert_eq!(restored.lens.view(), lens.view());
        assert_eq!(
            restored.lens.dataset().instance_records(),
            lens.dataset().instance_records()
        );
        assert_eq!(
            restored
                .lens
                .dataset()
                .machine(MachineId::new(2))
                .unwrap()
                .info(),
            lens.dataset().machine(MachineId::new(2)).unwrap().info()
        );
        for t in [0, 300, 600, 900] {
            assert_eq!(
                restored.lens.dataset().frame(Timestamp::new(t)),
                lens.dataset().frame(Timestamp::new(t)),
                "dataset frame({t})"
            );
        }

        let rm = restored.monitor.unwrap();
        assert_eq!(rm.shard_count(), shards);
        assert!(restored.monitor_report.unwrap().reason.is_clean());
        assert_eq!(rm.state_version(), monitor.state_version());
        assert_eq!(rm.shard_ingested(), monitor.shard_ingested());
        assert_eq!(rm.total_alerts(), monitor.total_alerts());
        assert_eq!(rm.peek_alerts(), monitor.peek_alerts());
        for t in [0, 150, 300] {
            assert_eq!(
                rm.live_view().frame(Timestamp::new(t)),
                monitor.live_view().frame(Timestamp::new(t)),
                "monitor frame({t}) at {shards} shards"
            );
        }

        if shards == 1 {
            // Snapshot plus tail: the live log keeps growing after the
            // dump; records past the dump's last sequence catch the
            // restored monitor up to the live one, bit-identically.
            let last_dumped = wal_report.last_seq.unwrap();
            monitor.ingest(ServerUsageRecord {
                time: Timestamp::new(360),
                machine: MachineId::new(1),
                util: UtilizationTriple::clamped(0.2, 0.9, 0.1),
            });
            monitor.instance_finished(JobId::new(1), TaskId::new(1), 0, Timestamp::new(400));
            drop(monitor.detach_wal());
            let mut tail = batchlens_trace::wal::WalReader::open(&wal_dir).unwrap();
            for (seq, record) in &mut tail {
                if seq > last_dumped {
                    rm.apply_replayed(record);
                }
            }
            assert_eq!(rm.state_version(), monitor.state_version());
            for t in [300, 360, 400] {
                assert_eq!(
                    rm.live_view().frame(Timestamp::new(t)),
                    monitor.live_view().frame(Timestamp::new(t)),
                    "caught-up frame({t})"
                );
            }
        }

        fs::remove_dir_all(&dump_dir).ok();
        fs::remove_dir_all(&wal_dir).ok();
    }

    #[test]
    fn restore_prefers_segment_payload_over_csvs() {
        let dir = temp_dump_dir("segments");
        let lens = sample_lens();
        let report = dump(&dir, &lens, None).unwrap();
        assert!(report.segments >= 4, "dump must write a segment payload");
        assert!(dir.join("dataset").is_dir());
        let restored = restore(&dir).unwrap();
        assert_eq!(restored.lens.dataset(), lens.dataset());

        // The segments are the only dataset payload: without them the
        // restore is a typed error.
        fs::remove_dir_all(dir.join("dataset")).unwrap();
        assert!(matches!(restore(&dir), Err(RestoreError::Trace(_))));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dump_without_monitor_restores_none() {
        let dir = temp_dump_dir("nomonitor");
        let lens = sample_lens();
        let report = dump(&dir, &lens, None).unwrap();
        assert!(report.monitor.is_none());
        let restored = restore(&dir).unwrap();
        assert!(restored.monitor.is_none());
        assert!(restored.monitor_report.is_none());
        assert_eq!(
            restored.lens.dataset().machine_count(),
            lens.dataset().machine_count()
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dumping_an_unlogged_monitor_is_an_error() {
        let dir = temp_dump_dir("unlogged");
        let lens = sample_lens();
        let monitor = StreamMonitor::new(StreamConfig::default()).unwrap();
        let err = dump(&dir, &lens, Some(&monitor)).unwrap_err();
        assert!(matches!(err, DumpError::MonitorHasNoWal));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn restore_from_missing_dir_reports_io() {
        let dir = temp_dump_dir("missing");
        let err = restore(&dir).unwrap_err();
        assert!(matches!(err, RestoreError::Io { .. }));
    }
}
