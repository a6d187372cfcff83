//! Differential proptests for sharded ingestion: shards {1, 4} of one
//! [`StreamMonitor`]. A 4-shard monitor fed a delivery sequence — mixed
//! record-at-a-time and sealed batch epochs, with stragglers and
//! out-of-order arrivals — must be **bit-identical** to a 1-shard monitor
//! fed the same records one at a time, on every [`DatasetQuery`] method, on
//! transactional frames, on every counter, and on the global alert sequence
//! (values *and* sequence numbers).
//!
//! Each case runs the comparison at worker-pool widths {1, 8}: shard count
//! must never change an answer, and neither may the parallelism of the
//! epoch fan-out. CI additionally re-runs the whole suite under
//! `BATCHLENS_THREADS={1,8}` for the pool-default paths.

use batchlens::stream::{Alert, BatchSequencer, StreamConfig, StreamMonitor};
use batchlens::trace::{
    BatchInstanceRecord, DatasetQuery, JobId, MachineEvent, MachineEventRecord, MachineId, Metric,
    ServerUsageRecord, TaskId, TaskStatus, TimeDelta, TimeRange, Timestamp, UtilizationTriple,
};
use proptest::prelude::*;

const MACHINES: u32 = 8;
/// The monitor tolerance; delivery jitter deliberately exceeds it so some
/// records are beyond-tolerance stragglers on both sides.
const TOLERANCE_S: i64 = 180;

/// A random record soup plus its delivery order.
#[derive(Debug, Clone)]
struct Soup {
    instances: Vec<BatchInstanceRecord>,
    /// Usage records in delivery order (bounded jitter, some beyond the
    /// monitor tolerance, duplicate timestamps included).
    usage_deliveries: Vec<ServerUsageRecord>,
    events: Vec<MachineEventRecord>,
    /// Where to cut `usage_deliveries` into alternating single-ingest runs
    /// and sealed batch epochs.
    chunk: usize,
}

fn soup_strategy() -> impl Strategy<Value = Soup> {
    (
        prop::collection::vec(
            // (job, task, machine, start, duration)
            (0u32..5, 1u32..4, 0..MACHINES, 0i64..4_000, 0i64..3_000),
            1..40,
        ),
        prop::collection::vec(
            // (machine, time, cpu, delivery jitter — up to 2x tolerance)
            (0..MACHINES, 0i64..6_000, 0.0f64..1.0, 0i64..2 * TOLERANCE_S),
            1..220,
        ),
        prop::collection::vec((0..MACHINES, 0i64..6_000, 0u8..4), 0..10),
        5usize..40,
    )
        .prop_map(|(inst_rows, usage_rows, event_rows, chunk)| {
            let mut instances = Vec::new();
            let mut seq_of = std::collections::BTreeMap::new();
            for (job, task, machine, start, dur) in inst_rows {
                let seq = seq_of.entry((job, task)).or_insert(0u32);
                instances.push(BatchInstanceRecord {
                    start_time: Timestamp::new(start),
                    end_time: Timestamp::new(start + dur),
                    job: JobId::new(job),
                    task: TaskId::new(task),
                    seq: *seq,
                    total: 1,
                    machine: MachineId::new(machine),
                    status: TaskStatus::Terminated,
                    cpu_avg: 0.4,
                    cpu_max: 0.6,
                    mem_avg: 0.3,
                    mem_max: 0.5,
                });
                *seq += 1;
            }
            let mut deliveries: Vec<(i64, ServerUsageRecord)> = usage_rows
                .into_iter()
                .map(|(machine, t, cpu, jitter)| {
                    let rec = ServerUsageRecord {
                        time: Timestamp::new(t),
                        machine: MachineId::new(machine),
                        util: UtilizationTriple::clamped(cpu, cpu * 0.7, cpu * 0.4),
                    };
                    (t + jitter, rec)
                })
                .collect();
            deliveries.sort_by_key(|&(arrival, rec)| (arrival, rec.machine, rec.time));
            let events = event_rows
                .into_iter()
                .map(|(machine, t, kind)| MachineEventRecord {
                    time: Timestamp::new(t),
                    machine: MachineId::new(machine),
                    event: match kind {
                        0 => MachineEvent::Add,
                        1 => MachineEvent::SoftError,
                        2 => MachineEvent::HardError,
                        _ => MachineEvent::Remove,
                    },
                    capacity_cpu: 1.0,
                    capacity_mem: 1.0,
                    capacity_disk: 1.0,
                })
                .collect();
            Soup {
                instances,
                usage_deliveries: deliveries.into_iter().map(|(_, rec)| rec).collect(),
                events,
                chunk,
            }
        })
}

/// Feeds the soup identically into the 1-shard `single` (every record one
/// at a time) and `sharded` (even chunks one at a time, odd chunks as
/// sealed batch epochs), interleaving structural records between chunks,
/// and asserts the fired alert streams bit-identical as they happen.
/// Returns all alerts.
fn feed(
    soup: &Soup,
    single: &StreamMonitor,
    sharded: &StreamMonitor,
) -> Result<Vec<Alert>, TestCaseError> {
    let sequencer = BatchSequencer::new();
    let mut fired = Vec::new();
    // Structural records: every instance through both, alternating the
    // completed-record and open/close paths; events in reverse arrival.
    for (i, rec) in soup.instances.iter().enumerate() {
        if i % 2 == 0 {
            single.ingest_instance(*rec);
            sharded.ingest_instance(*rec);
        } else {
            single.instance_started(rec.job, rec.task, rec.seq, rec.machine, rec.start_time);
            sharded.instance_started(rec.job, rec.task, rec.seq, rec.machine, rec.start_time);
            let a = single.instance_finished(rec.job, rec.task, rec.seq, rec.end_time);
            let b = sharded.instance_finished(rec.job, rec.task, rec.seq, rec.end_time);
            prop_assert_eq!(a, b, "instance_finished outcome");
        }
    }
    for ev in soup.events.iter().rev() {
        single.ingest_machine_event(*ev);
        sharded.ingest_machine_event(*ev);
    }
    for (k, chunk) in soup.usage_deliveries.chunks(soup.chunk).enumerate() {
        if k % 2 == 0 {
            for &rec in chunk {
                let a = single.ingest(rec);
                let b = sharded.ingest(rec);
                prop_assert_eq!(&a, &b, "single-record alert parity");
                fired.extend(a);
            }
        } else {
            // The single monitor still sees the records one at a time: the
            // sharded epoch fan-out must be equivalent to that.
            let batch = sequencer.seal(
                chunk.last().map_or(Timestamp::new(0), |r| r.time),
                chunk.to_vec(),
            );
            let mut a = Vec::new();
            for &rec in chunk {
                a.extend(single.ingest(rec));
            }
            let b = sharded.ingest_batch(&batch);
            prop_assert_eq!(&a, &b, "epoch alert parity (order and seq)");
            fired.extend(a);
        }
    }
    Ok(fired)
}

/// Probe timestamps covering the soup's span, edges and far outside.
fn probes() -> impl Iterator<Item = Timestamp> {
    (-500..7_000)
        .step_by(237)
        .chain([0, 3_999, 4_000, 5_999, 6_000, 55_000, -10_000])
        .map(Timestamp::new)
}

/// A monitor of `shards` shards over the suite's configuration.
fn sharded_cfg(shards: usize, alert_capacity: usize) -> StreamConfig {
    StreamConfig {
        horizon: TimeDelta::hours(100),
        ooo_tolerance: TimeDelta::seconds(TOLERANCE_S),
        alert_capacity,
        shards,
        ..Default::default()
    }
}

fn assert_surfaces_equal(
    single: &StreamMonitor,
    sharded: &StreamMonitor,
) -> Result<(), TestCaseError> {
    // Merged counters.
    prop_assert_eq!(sharded.ingested(), single.ingested());
    prop_assert_eq!(sharded.stale_dropped(), single.stale_dropped());
    prop_assert_eq!(sharded.late_accepted(), single.late_accepted());
    prop_assert_eq!(sharded.ingested_instances(), single.ingested_instances());
    prop_assert_eq!(sharded.ingested_events(), single.ingested_events());
    prop_assert_eq!(sharded.tracked_machines(), single.tracked_machines());
    prop_assert_eq!(sharded.live_instances(), single.live_instances());
    prop_assert_eq!(sharded.state_version(), single.state_version());
    // The global alert sequence: retained ring, totals, and the
    // cursorable surface.
    prop_assert_eq!(sharded.peek_alerts(), single.peek_alerts());
    prop_assert_eq!(sharded.total_alerts(), single.total_alerts());
    prop_assert_eq!(sharded.alerts_len(), single.alerts_len());
    prop_assert_eq!(sharded.alerts_overflowed(), single.alerts_overflowed());
    prop_assert_eq!(sharded.next_alert_seq(), single.next_alert_seq());
    let a = single.alerts_since(0);
    let b = sharded.alerts_since(0);
    prop_assert_eq!(a.alerts, b.alerts);
    prop_assert_eq!(a.next_seq, b.next_seq);
    prop_assert_eq!(a.missed, b.missed);

    let live = single.live_view();
    let sharded = sharded.live_view();
    prop_assert_eq!(sharded.machine_ids(), live.machine_ids());
    for t in probes() {
        prop_assert_eq!(
            sharded.jobs_running_at(t),
            live.jobs_running_at(t),
            "jobs_running_at({})",
            t
        );
        prop_assert_eq!(
            sharded.running_triples_at(t),
            live.running_triples_at(t),
            "running_triples_at({})",
            t
        );
        prop_assert_eq!(
            sharded.running_instance_count_at(t),
            live.running_instance_count_at(t),
            "running_instance_count_at({})",
            t
        );
        prop_assert_eq!(
            sharded.machines_active_at(t),
            live.machines_active_at(t),
            "machines_active_at({})",
            t
        );
        for m in 0..MACHINES {
            let m = MachineId::new(m);
            prop_assert_eq!(sharded.alive_at(m, t), live.alive_at(m, t), "alive_at");
            prop_assert_eq!(sharded.util_at(m, t), live.util_at(m, t), "util_at");
            prop_assert_eq!(sharded.util_hold(m, t), live.util_hold(m, t), "util_hold");
        }
        // One-version-cut transactional capture vs the single-lock capture.
        prop_assert_eq!(sharded.frame(t), live.frame(t), "frame({})", t);
    }
    for (lo, hi) in [(-100i64, 2_000i64), (1_000, 1_001), (0, 6_500)] {
        let w = TimeRange::new(Timestamp::new(lo), Timestamp::new(hi)).unwrap();
        for m in 0..MACHINES {
            let m = MachineId::new(m);
            for metric in Metric::ALL {
                prop_assert_eq!(
                    sharded.series_window(m, metric, &w),
                    live.series_window(m, metric, &w),
                    "series_window({}, {:?})",
                    m,
                    metric
                );
            }
        }
    }
    for (t0, t1) in [(0i64, 2_000i64), (2_000, 500), (-300, 6_500)] {
        let (t0, t1) = (Timestamp::new(t0), Timestamp::new(t1));
        prop_assert_eq!(
            sharded.running_delta(t0, t1),
            live.running_delta(t0, t1),
            "running_delta({}, {})",
            t0,
            t1
        );
        prop_assert_eq!(
            sharded.liveness_delta(t0, t1),
            live.liveness_delta(t0, t1),
            "liveness_delta({}, {})",
            t0,
            t1
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline contract: at pool widths {1, 8}, a 4-shard monitor is
    /// bit-identical to a 1-shard one on every query, frame, counter and
    /// alert — with stragglers, out-of-order arrivals and mixed
    /// single/batch epochs interleaved.
    #[test]
    fn sharded_facade_equals_single_monitor(soup in soup_strategy()) {
        let capacity = StreamConfig::default().alert_capacity;
        for threads in [1usize, 8] {
            let single = StreamMonitor::new(sharded_cfg(1, capacity)).unwrap();
            let sharded = StreamMonitor::new(sharded_cfg(4, capacity))
                .unwrap()
                .with_threads(threads);
            feed(&soup, &single, &sharded)?;
            assert_surfaces_equal(&single, &sharded)?;
        }
    }

    /// Draining mid-feed preserves parity: a 4-shard monitor drains its
    /// shard rings and its global ring in one sweep, returning exactly what
    /// the 1-shard drain returns, and both resume identically afterwards.
    #[test]
    fn drains_interleave_without_divergence(soup in soup_strategy()) {
        let capacity = StreamConfig::default().alert_capacity;
        let single = StreamMonitor::new(sharded_cfg(1, capacity)).unwrap();
        let sharded = StreamMonitor::new(sharded_cfg(4, capacity))
            .unwrap()
            .with_threads(2);
        let halfway = soup.usage_deliveries.len() / 2;
        for (i, &rec) in soup.usage_deliveries.iter().enumerate() {
            let a = single.ingest(rec);
            let b = sharded.ingest(rec);
            prop_assert_eq!(a, b);
            if i == halfway {
                prop_assert_eq!(single.drain_alerts(), sharded.drain_alerts());
                prop_assert_eq!(single.alerts_len(), 0);
                prop_assert_eq!(sharded.alerts_len(), 0);
            }
        }
        prop_assert_eq!(single.peek_alerts(), sharded.peek_alerts());
        prop_assert_eq!(single.total_alerts(), sharded.total_alerts());
    }

    /// A tiny alert ring overflows identically on both sides: global
    /// eviction order and the overflow counter agree, so lagging cursors
    /// observe identical gaps either way.
    #[test]
    fn alert_overflow_is_identical(soup in soup_strategy()) {
        let single = StreamMonitor::new(sharded_cfg(1, 3)).unwrap();
        let sharded = StreamMonitor::new(sharded_cfg(4, 3))
            .unwrap()
            .with_threads(2);
        feed(&soup, &single, &sharded)?;
        prop_assert_eq!(sharded.peek_alerts(), single.peek_alerts());
        prop_assert_eq!(sharded.alerts_overflowed(), single.alerts_overflowed());
        prop_assert_eq!(sharded.total_alerts(), single.total_alerts());
    }
}

/// A deterministic straggler scenario across shard boundaries, pinned
/// outside proptest: per-machine acceptance is shard-local state, so a
/// record that is stale for one machine must not disturb another machine in
/// a different (or the same) shard.
#[test]
fn cross_shard_stragglers_stay_shard_local() {
    let cfg = StreamConfig {
        ooo_tolerance: TimeDelta::seconds(TOLERANCE_S),
        ..Default::default()
    };
    let single = StreamMonitor::new(cfg).unwrap();
    let sharded = StreamMonitor::new(StreamConfig { shards: 4, ..cfg }).unwrap();
    let rec = |machine: u32, t: i64| ServerUsageRecord {
        time: Timestamp::new(t),
        machine: MachineId::new(machine),
        util: UtilizationTriple::clamped(0.5, 0.3, 0.3),
    };
    let feedboth = |r: ServerUsageRecord| {
        let a = single.ingest(r);
        let b = sharded.ingest(r);
        assert_eq!(a, b);
    };
    feedboth(rec(0, 1_000));
    feedboth(rec(1, 10)); // machine 1 is far behind machine 0: fine
    feedboth(rec(0, 1_000 - TOLERANCE_S)); // boundary-late: accepted
    feedboth(rec(0, 1_000 - TOLERANCE_S - 1)); // beyond: dropped
    feedboth(rec(1, 20)); // machine 1 unaffected by machine 0's frontier
    assert_eq!(sharded.stale_dropped(), single.stale_dropped());
    assert_eq!(sharded.late_accepted(), single.late_accepted());
    assert_eq!(sharded.ingested(), single.ingested());
    assert_eq!(sharded.ingested(), 4);
}

/// Machine-set partition sanity: every machine lands in exactly its owning
/// shard, and the union over shards is the whole universe.
#[test]
fn shards_partition_the_machine_universe() {
    let sharded = StreamMonitor::new(StreamConfig {
        shards: 4,
        ..Default::default()
    })
    .unwrap();
    let mut expected = vec![0u64; sharded.shard_count()];
    for machine in 0..64u32 {
        sharded.ingest(ServerUsageRecord {
            time: Timestamp::new(0),
            machine: MachineId::new(machine),
            util: UtilizationTriple::clamped(0.4, 0.3, 0.3),
        });
        expected[sharded.shard_of(MachineId::new(machine))] += 1;
    }
    assert_eq!(
        sharded.shard_ingested(),
        expected,
        "each machine's record lands in its owning shard"
    );
    assert!(expected.iter().all(|&n| n > 0), "64 ids cover all 4 shards");
    assert_eq!(sharded.tracked_machines(), 64, "no machine in two shards");
    assert_eq!(
        sharded.live_view().machine_ids(),
        (0..64).map(MachineId::new).collect::<Vec<_>>()
    );
}
