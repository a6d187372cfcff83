//! The generated load: `paper_day(seed)` cut into one-minute epochs.
//!
//! Each epoch carries the structural deliveries of its minute (instance
//! starts and finishes, machine events) in time order, followed by the
//! minute's usage records, which the generator seals into one `Batch`.

use batchlens::analytics::baseline::export_usage_records;
use batchlens::stream::{Batch, BatchSequencer, StreamConfig, StreamMonitor};
use batchlens::trace::wal::WalRecord;
use batchlens::trace::{
    JobId, MachineEventRecord, MachineId, ServerUsageRecord, TaskId, TimeDelta, Timestamp,
    TraceDataset,
};

/// Seconds per epoch: one trace minute.
pub const EPOCH_SECONDS: i64 = 60;

/// One structural delivery, as the monitor's structural entry points take it.
#[derive(Debug, Clone, Copy)]
pub enum Delivery {
    Started {
        job: JobId,
        task: TaskId,
        seq: u32,
        machine: MachineId,
        at: Timestamp,
    },
    Finished {
        job: JobId,
        task: TaskId,
        seq: u32,
        at: Timestamp,
    },
    Machine(MachineEventRecord),
}

impl Delivery {
    fn at(&self) -> Timestamp {
        match *self {
            Delivery::Started { at, .. } | Delivery::Finished { at, .. } => at,
            Delivery::Machine(ev) => ev.time,
        }
    }

    /// Delivers this record through the monitor's structural entry point.
    pub fn deliver(&self, monitor: &StreamMonitor) {
        match *self {
            Delivery::Started {
                job,
                task,
                seq,
                machine,
                at,
            } => monitor.instance_started(job, task, seq, machine, at),
            Delivery::Finished { job, task, seq, at } => {
                monitor.instance_finished(job, task, seq, at);
            }
            Delivery::Machine(ev) => monitor.ingest_machine_event(ev),
        }
    }

    /// The log record the monitor appends for this delivery.
    pub fn wal_record(&self) -> WalRecord {
        match *self {
            Delivery::Started {
                job,
                task,
                seq,
                machine,
                at,
            } => WalRecord::InstanceStarted {
                job,
                task,
                seq,
                machine,
                at,
            },
            Delivery::Finished { job, task, seq, at } => {
                WalRecord::InstanceFinished { job, task, seq, at }
            }
            Delivery::Machine(ev) => WalRecord::MachineEvent(ev),
        }
    }
}

/// One trace minute of load.
#[derive(Debug, Clone)]
pub struct Epoch {
    /// The end of the minute: the batch's `created_at`.
    pub sealed_at: Timestamp,
    pub structure: Vec<Delivery>,
    pub usage: Vec<ServerUsageRecord>,
}

impl Epoch {
    /// Delivers the structural records through the monitor's entry points.
    pub fn deliver_structure(&self, monitor: &StreamMonitor) {
        for d in &self.structure {
            d.deliver(monitor);
        }
    }

    /// Seals the usage records into the sequencer's next batch.
    pub fn seal(&self, sequencer: &BatchSequencer) -> Batch {
        sequencer.seal(self.sealed_at, self.usage.clone())
    }

    /// Every record a WAL-attached monitor appends for this epoch, given
    /// the batch version it is sealed as.
    pub fn wal_records(&self, version: u64) -> Vec<WalRecord> {
        let mut out: Vec<WalRecord> = self.structure.iter().map(Delivery::wal_record).collect();
        out.extend(self.usage.iter().map(|&r| WalRecord::Usage(r)));
        out.push(WalRecord::EpochSealed(version));
        out
    }
}

/// The whole day, plus a WAL-less reference replay of it.
#[derive(Debug)]
pub struct Feed {
    pub epochs: Vec<Epoch>,
    /// After epoch `i` has been applied to a fresh default monitor:
    /// alerts fired so far, its `state_version()` and its `ingested()`.
    pub reference: Vec<(u64, u64, u64)>,
}

impl Feed {
    pub fn build(ds: &TraceDataset) -> Feed {
        let usage = export_usage_records(ds);
        let mut structure: Vec<Delivery> = Vec::new();
        for r in ds.instance_records() {
            structure.push(Delivery::Started {
                job: r.job,
                task: r.task,
                seq: r.seq,
                machine: r.machine,
                at: r.start_time,
            });
            if r.end_time > r.start_time {
                structure.push(Delivery::Finished {
                    job: r.job,
                    task: r.task,
                    seq: r.seq,
                    at: r.end_time,
                });
            }
        }
        structure.extend(ds.machine_events().iter().map(|&ev| Delivery::Machine(ev)));
        // Stable: a start sorts before its own finish even at equal times.
        structure.sort_by_key(Delivery::at);

        let origin = usage.first().map_or(0, |r| r.time.seconds());
        let minute = |t: Timestamp| (t.seconds() - origin).div_euclid(EPOCH_SECONDS).max(0);
        let last = usage.last().map_or(0, |r| minute(r.time));
        let mut epochs: Vec<Epoch> = (0..=last)
            .map(|m| Epoch {
                sealed_at: Timestamp::new(origin + (m + 1) * EPOCH_SECONDS),
                structure: Vec::new(),
                usage: Vec::new(),
            })
            .collect();
        for r in usage {
            epochs[minute(r.time) as usize].usage.push(r);
        }
        for d in structure {
            let m = (minute(d.at()) as usize).min(epochs.len() - 1);
            epochs[m].structure.push(d);
        }
        let reference = reference_replay(&epochs);
        Feed { epochs, reference }
    }

    pub fn usage_records(&self) -> usize {
        self.epochs.iter().map(|e| e.usage.len()).sum()
    }

    /// The trace instant the dashboard shows as "latest" once epoch `i`
    /// has been delivered: the start of that minute.
    pub fn minute_of(&self, i: usize) -> Timestamp {
        self.epochs[i].sealed_at - TimeDelta::seconds(EPOCH_SECONDS)
    }
}

/// Replays every epoch into a WAL-less monitor, recording the state after
/// each: the expected outcome for any replay of the same epoch prefix.
fn reference_replay(epochs: &[Epoch]) -> Vec<(u64, u64, u64)> {
    let monitor = StreamMonitor::new(StreamConfig::default()).expect("default config is valid");
    let sequencer = BatchSequencer::new();
    epochs
        .iter()
        .map(|e| {
            e.deliver_structure(&monitor);
            monitor.ingest_batch(&e.seal(&sequencer));
            (
                monitor.total_alerts(),
                monitor.state_version(),
                monitor.ingested(),
            )
        })
        .collect()
}
