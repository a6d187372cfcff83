//! Serving-layer health integration for N-shard monitors: one shard's WAL
//! going unhealthy must flip `/readyz` to `503` and show up as that
//! shard's `wal_errors` entry in `/statsz` — the server never reports
//! ready while *any* shard's log is lossy.

use std::sync::Arc;

use batchlens::sim::scenario;
use batchlens::stream::{StreamConfig, StreamMonitor};
use batchlens::trace::wal::{WalConfig, WalWriter};
use batchlens::trace::{MachineId, ServerUsageRecord, Timestamp, UtilizationTriple};
use batchlens::BatchLens;
use batchlens_serve::router::{route, RouterContext};
use batchlens_serve::session::SessionManager;
use batchlens_serve::stats::{ServeStats, StatszPayload};

fn rec(machine: u32, t: i64) -> ServerUsageRecord {
    ServerUsageRecord {
        time: Timestamp::new(t),
        machine: MachineId::new(machine),
        util: UtilizationTriple::clamped(0.5, 0.3, 0.3),
    }
}

fn get(target: &str) -> batchlens_serve::codec::Request {
    batchlens_serve::codec::Request {
        method: "GET".to_string(),
        target: target.to_string(),
        minor_version: 1,
        headers: Vec::new(),
        body: Vec::new(),
    }
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "batchlens-serve-shard-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn four_shards() -> StreamMonitor {
    StreamMonitor::new(StreamConfig {
        shards: 4,
        ..Default::default()
    })
    .unwrap()
}

fn statsz(ctx: &RouterContext<'_>) -> StatszPayload {
    let resp = route(ctx, &get("/statsz"));
    assert_eq!(resp.status, 200);
    serde_json::from_str(std::str::from_utf8(&resp.body).unwrap()).unwrap()
}

/// One shard's failed WAL append degrades readiness and is attributed to
/// exactly that shard in `/statsz`.
#[test]
fn one_unhealthy_shard_wal_degrades_readiness() {
    let _g = batchlens_fault::test_guard();
    let dir = temp_dir("degrade");
    let dataset = scenario::fig3b(17).run().unwrap();
    let monitor = Arc::new(four_shards());
    monitor
        .attach_wal_family(&dir, WalConfig::default())
        .unwrap();
    let mut lens = BatchLens::new(dataset);
    lens.attach_live_monitor(Arc::clone(&monitor));
    let manager = SessionManager::new(Arc::new(lens));
    let stats = ServeStats::new();
    let ctx = RouterContext {
        manager: &manager,
        stats: &stats,
        workers: 1,
    };

    monitor.ingest(rec(0, 0));
    monitor.ingest(rec(1, 0));
    let ready = route(&ctx, &get("/readyz"));
    assert_eq!(ready.status, 200);
    let payload = statsz(&ctx);
    assert!(payload.live);
    assert!(payload.wal_healthy);
    assert_eq!(payload.shard_wal_errors, vec![0, 0, 0, 0]);
    assert_eq!(payload.shard_ingested.len(), 4);
    assert_eq!(payload.shard_ingested.iter().sum::<u64>(), 2);

    // Fail exactly one append: the next delivery routes to machine 0's
    // shard, and only that shard's log takes the error.
    let victim = monitor.shard_of(MachineId::new(0));
    batchlens_fault::arm(
        "wal.append",
        batchlens_fault::FaultSpec::new(
            batchlens_fault::Fault::Error,
            batchlens_fault::Trigger::Times(1),
        ),
    );
    monitor.ingest(rec(0, 60));
    batchlens_fault::disarm_all();

    assert!(!monitor.wal_healthy());
    let ready = route(&ctx, &get("/readyz"));
    assert_eq!(
        ready.status, 503,
        "any unhealthy shard WAL blocks readiness"
    );
    let body = String::from_utf8_lossy(&ready.body).to_string();
    assert!(body.contains("\"wal_healthy\":false"), "{body}");

    let payload = statsz(&ctx);
    assert!(!payload.wal_healthy);
    let mut expected = vec![0u64; 4];
    expected[victim] = 1;
    assert_eq!(
        payload.shard_wal_errors, expected,
        "the error is attributed to the shard that owns machine 0"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A one-shard monitor reports the same shape: one-entry shard vectors and
/// the same readiness gate.
#[test]
fn single_monitor_health_keeps_the_same_gate() {
    let _g = batchlens_fault::test_guard();
    let dir = temp_dir("single");
    let dataset = scenario::fig3b(18).run().unwrap();
    let monitor = Arc::new(StreamMonitor::new(StreamConfig::default()).unwrap());
    monitor.attach_wal(WalWriter::open(&dir, WalConfig::default()).unwrap());
    let mut lens = BatchLens::new(dataset);
    lens.attach_live_monitor(Arc::clone(&monitor));
    let manager = SessionManager::new(Arc::new(lens));
    let stats = ServeStats::new();
    let ctx = RouterContext {
        manager: &manager,
        stats: &stats,
        workers: 1,
    };

    let payload = statsz(&ctx);
    assert!(payload.live);
    assert_eq!(payload.shard_wal_errors, vec![0]);
    assert_eq!(route(&ctx, &get("/readyz")).status, 200);

    batchlens_fault::arm(
        "wal.append",
        batchlens_fault::FaultSpec::new(
            batchlens_fault::Fault::Error,
            batchlens_fault::Trigger::Times(1),
        ),
    );
    monitor.ingest(rec(0, 0));
    batchlens_fault::disarm_all();

    assert_eq!(route(&ctx, &get("/readyz")).status, 503);
    let payload = statsz(&ctx);
    assert!(!payload.wal_healthy);
    assert_eq!(payload.shard_wal_errors, vec![1]);
    std::fs::remove_dir_all(&dir).ok();
}

/// Alert cursors served over a 4-shard monitor: a session's poll drains the
/// same contiguous global sequence a 1-shard monitor would produce.
#[test]
fn sessions_poll_alerts_from_the_sharded_facade() {
    let dataset = scenario::fig3b(19).run().unwrap();
    let monitor = Arc::new(four_shards());
    let mut lens = BatchLens::new(dataset);
    lens.attach_live_monitor(Arc::clone(&monitor));
    let manager = SessionManager::new(Arc::new(lens));
    let created = manager.create();

    // Saturation run on one machine fires alerts into the global ring.
    for k in 0..30 {
        monitor.ingest(ServerUsageRecord {
            time: Timestamp::new(k * 60),
            machine: MachineId::new(2),
            util: UtilizationTriple::clamped(0.95, 0.3, 0.3),
        });
    }
    let fired = monitor.next_alert_seq();
    assert!(fired > 0, "scenario must fire alerts");
    let poll = manager.poll_alerts(created.session).unwrap();
    assert!(poll.live);
    assert_eq!(poll.alerts.len() as u64, fired - created.cursor);
    assert_eq!(poll.next_seq, fired);
    for pair in poll.alerts.windows(2) {
        assert_eq!(pair[1].seq, pair[0].seq + 1, "global seq is contiguous");
    }
    // A second poll delivers nothing new (exactly-once per cursor).
    assert!(manager
        .poll_alerts(created.session)
        .unwrap()
        .alerts
        .is_empty());
}
