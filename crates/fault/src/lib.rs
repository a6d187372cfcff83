//! # batchlens-fault
//!
//! A zero-dependency, deterministic **failpoint registry**: named sites in
//! production code (`wal.append`, `serve.capture`, ...) that tests and chaos
//! harnesses arm with seeded fault schedules — injected IO errors, short
//! writes, delays, panics, disconnects — without touching the code under
//! test.
//!
//! ## Design
//!
//! * **Disarmed is free.** Every [`check`]/[`fire`] call starts with a single
//!   relaxed atomic load of the global armed-site count; when no site is
//!   armed (the production configuration) that load is the *entire* cost —
//!   no lock, no map lookup, no branch history pollution. The hot-path
//!   guardrail benches (`ingest_wal_overhead`, `serve_sessions_*`) run with
//!   the registry compiled in and disarmed.
//! * **Deterministic.** A schedule's firing decisions depend only on its
//!   [`Trigger`] and the site's hit counter — [`Trigger::Prob`] draws from a
//!   per-site splitmix64 stream seeded at arm time, so the same seed and the
//!   same delivery order reproduce the same fault sequence exactly. There is
//!   no wall-clock or global-RNG input anywhere.
//! * **Observable.** Every site counts how many times it was evaluated and
//!   how many times it fired ([`site_stats`]), so chaos suites can assert
//!   "every injected fault is accounted for" instead of hoping.
//!
//! ## Arming
//!
//! Programmatic: [`arm`]`("wal.append", FaultSpec::new(Fault::Error,
//! Trigger::Prob { seed: 7, fire_per_1024: 64 }))`.
//!
//! From the environment ([`arm_from_env`], read by test binaries and the
//! chaos CI job): `BATCHLENS_FAILPOINTS="wal.append=error@prob:7:64;
//! serve.route=panic@nth:3"`. See [`arm_from_spec_str`] for the grammar.
//!
//! ## Scoping
//!
//! The registry is process-global (that is the point: the site lives deep in
//! a crate the test does not construct), so concurrently running tests that
//! arm sites must serialize. [`test_guard`] hands out a global lock whose
//! guard disarms everything on drop — take it at the top of every test that
//! arms failpoints.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

/// The fault a site injects when its schedule fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Fail the operation with an injected error (for IO sites: the write
    /// or sync returns `Err` having done nothing — a full disk).
    Error,
    /// Perform only the first `n` bytes of a write, then fail — a torn
    /// write (power-loss shape) the caller sees as an error. The tear is
    /// clamped to `min(n, len - 1)` bytes of a `len`-byte write, so a write
    /// reported as failed is always short: at least its last byte is
    /// missing, however large `n` is.
    ShortWrite(usize),
    /// Stall the operation for the given duration, then proceed normally —
    /// a slow disk, a slow capture, a scheduling hiccup.
    Delay(Duration),
    /// Panic at the site (callers under `catch_unwind` supervision must
    /// contain it).
    Panic,
    /// Drop the peer mid-exchange (serving sites: close the connection
    /// without a response).
    Disconnect,
}

/// When a site's schedule fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// Every evaluation fires.
    Always,
    /// Only the `n`-th evaluation fires (0-based, counted from arming).
    Nth(u64),
    /// The first `n` evaluations fire, then the site goes quiet.
    Times(u64),
    /// Every `n`-th evaluation fires (`n >= 1`; `hits % n == 0`).
    EveryNth(u64),
    /// Fires pseudo-randomly with probability `fire_per_1024 / 1024`, drawn
    /// from a splitmix64 stream seeded with `seed` — deterministic in the
    /// site's evaluation order.
    Prob {
        /// Stream seed; same seed, same delivery order → same fault
        /// sequence.
        seed: u64,
        /// Firing probability numerator out of 1024.
        fire_per_1024: u32,
    },
}

/// A complete site schedule: which fault, on which evaluations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// The fault injected when the trigger fires.
    pub fault: Fault,
    /// The firing schedule.
    pub trigger: Trigger,
}

impl FaultSpec {
    /// A spec from its two parts.
    pub fn new(fault: Fault, trigger: Trigger) -> FaultSpec {
        FaultSpec { fault, trigger }
    }
}

/// Cumulative per-site counters, for accounting assertions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SiteStats {
    /// Times the site was evaluated while armed.
    pub hits: u64,
    /// Times the schedule fired (a fault was injected).
    pub fired: u64,
}

#[derive(Debug)]
struct Site {
    spec: FaultSpec,
    hits: u64,
    fired: u64,
    rng: u64,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Site {
    fn evaluate(&mut self) -> Option<Fault> {
        let hit = self.hits;
        self.hits += 1;
        let fires = match self.spec.trigger {
            Trigger::Always => true,
            Trigger::Nth(n) => hit == n,
            Trigger::Times(n) => hit < n,
            Trigger::EveryNth(n) => n >= 1 && hit.is_multiple_of(n),
            Trigger::Prob { fire_per_1024, .. } => {
                (splitmix64(&mut self.rng) >> 54) < fire_per_1024 as u64
            }
        };
        if fires {
            self.fired += 1;
            Some(self.spec.fault)
        } else {
            None
        }
    }
}

/// Number of armed sites; `0` is the disarmed fast path every [`check`]
/// reads with one relaxed load.
static ARMED: AtomicUsize = AtomicUsize::new(0);

fn registry() -> &'static Mutex<HashMap<String, Site>> {
    static REGISTRY: OnceLock<Mutex<HashMap<String, Site>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

fn lock_registry() -> MutexGuard<'static, HashMap<String, Site>> {
    // A panic injected *through* the registry can poison the lock while a
    // caller is unwinding; the map itself is always in a consistent state
    // (mutations are single assignments), so poisoning is ignorable.
    registry().lock().unwrap_or_else(PoisonError::into_inner)
}

/// Arms `site` with `spec`, replacing any existing schedule (and resetting
/// its counters).
pub fn arm(site: &str, spec: FaultSpec) {
    let seed = match spec.trigger {
        Trigger::Prob { seed, .. } => seed,
        _ => 0,
    };
    let mut reg = lock_registry();
    if reg
        .insert(
            site.to_string(),
            Site {
                spec,
                hits: 0,
                fired: 0,
                rng: seed,
            },
        )
        .is_none()
    {
        ARMED.fetch_add(1, Ordering::Relaxed);
    }
}

/// Disarms `site`; returns its final counters if it was armed.
pub fn disarm(site: &str) -> Option<SiteStats> {
    let mut reg = lock_registry();
    reg.remove(site).map(|s| {
        ARMED.fetch_sub(1, Ordering::Relaxed);
        SiteStats {
            hits: s.hits,
            fired: s.fired,
        }
    })
}

/// Disarms every site.
pub fn disarm_all() {
    let mut reg = lock_registry();
    ARMED.fetch_sub(reg.len(), Ordering::Relaxed);
    reg.clear();
}

/// The counters of an armed site (`None` when not armed).
pub fn site_stats(site: &str) -> Option<SiteStats> {
    lock_registry().get(site).map(|s| SiteStats {
        hits: s.hits,
        fired: s.fired,
    })
}

/// Evaluates `site`'s schedule: `Some(fault)` when it fires. Disarmed (the
/// production configuration) this is a single relaxed atomic load.
#[inline]
pub fn check(site: &str) -> Option<Fault> {
    if ARMED.load(Ordering::Relaxed) == 0 {
        return None;
    }
    check_slow(site)
}

#[cold]
fn check_slow(site: &str) -> Option<Fault> {
    lock_registry().get_mut(site)?.evaluate()
}

/// Like [`check`], but applies [`Fault::Delay`] (sleeps) and
/// [`Fault::Panic`] (panics with a message naming the site) inline,
/// returning only the faults the caller must act on itself
/// (`Error` / `ShortWrite` / `Disconnect`).
///
/// # Panics
///
/// When the site is armed with [`Fault::Panic`] and its schedule fires —
/// that is the injected fault.
#[inline]
pub fn fire(site: &str) -> Option<Fault> {
    match check(site) {
        Some(Fault::Delay(d)) => {
            std::thread::sleep(d);
            None
        }
        Some(Fault::Panic) => panic!("failpoint '{site}': injected panic"),
        other => other,
    }
}

/// The `std::io::Error` an IO site surfaces when its schedule fires.
pub fn injected_io_error(site: &str) -> std::io::Error {
    std::io::Error::other(format!("failpoint '{site}': injected io error"))
}

/// Whether an `std::io::Error` was produced by [`injected_io_error`] (or a
/// short write at a failpoint site).
pub fn is_injected(err: &std::io::Error) -> bool {
    err.to_string().contains("failpoint '")
}

// ---------------------------------------------------------------------------
// Environment / spec-string arming
// ---------------------------------------------------------------------------

/// Environment variable [`arm_from_env`] reads.
pub const FAILPOINTS_ENV: &str = "BATCHLENS_FAILPOINTS";

/// Arms sites from [`FAILPOINTS_ENV`], if set. Returns the number of sites
/// armed (0 when unset or empty). Malformed entries are skipped with a
/// message on stderr rather than panicking — a typo in a chaos-job env var
/// must not abort the suite before it reports anything.
pub fn arm_from_env() -> usize {
    match std::env::var(FAILPOINTS_ENV) {
        Ok(v) if !v.trim().is_empty() => arm_from_spec_str(&v),
        _ => 0,
    }
}

/// Arms sites from a spec string; returns how many were armed.
///
/// Grammar (entries separated by `;`):
///
/// ```text
/// site=kind[:param[:param]][@trigger[:param[:param]]]
///
/// kind     := error | short_write:<bytes> | delay:<millis> | panic | disconnect
/// trigger  := always | nth:<n> | times:<n> | every:<n> | prob:<seed>:<per1024>
/// ```
///
/// Omitting `@trigger` means `always`. Examples:
///
/// ```text
/// wal.append=error@prob:7:64          # ~6% of appends fail, seeded
/// wal.append=short_write:4@nth:10     # the 11th append tears after 4 bytes
/// serve.route=panic@every:50          # every 50th request panics
/// serve.capture=delay:40@times:2      # the first two captures stall 40 ms
/// ```
pub fn arm_from_spec_str(spec: &str) -> usize {
    let mut armed = 0;
    for entry in spec.split(';') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        match parse_entry(entry) {
            Some((site, spec)) => {
                arm(site, spec);
                armed += 1;
            }
            None => eprintln!("batchlens-fault: skipping malformed failpoint entry {entry:?}"),
        }
    }
    armed
}

fn parse_entry(entry: &str) -> Option<(&str, FaultSpec)> {
    let (site, rest) = entry.split_once('=')?;
    let site = site.trim();
    if site.is_empty() {
        return None;
    }
    let (kind, trigger) = match rest.split_once('@') {
        Some((k, t)) => (k.trim(), parse_trigger(t.trim())?),
        None => (rest.trim(), Trigger::Always),
    };
    let fault = parse_fault(kind)?;
    Some((site, FaultSpec::new(fault, trigger)))
}

fn parse_fault(kind: &str) -> Option<Fault> {
    let mut parts = kind.split(':');
    let name = parts.next()?;
    let fault = match name {
        "error" => Fault::Error,
        "panic" => Fault::Panic,
        "disconnect" => Fault::Disconnect,
        "short_write" => Fault::ShortWrite(parts.next()?.parse().ok()?),
        "delay" => Fault::Delay(Duration::from_millis(parts.next()?.parse().ok()?)),
        _ => return None,
    };
    parts.next().is_none().then_some(fault)
}

fn parse_trigger(trigger: &str) -> Option<Trigger> {
    let mut parts = trigger.split(':');
    let name = parts.next()?;
    let trigger = match name {
        "always" => Trigger::Always,
        "nth" => Trigger::Nth(parts.next()?.parse().ok()?),
        "times" => Trigger::Times(parts.next()?.parse().ok()?),
        "every" => Trigger::EveryNth(parts.next()?.parse().ok()?),
        "prob" => Trigger::Prob {
            seed: parts.next()?.parse().ok()?,
            fire_per_1024: parts.next()?.parse().ok()?,
        },
        _ => return None,
    };
    parts.next().is_none().then_some(trigger)
}

// ---------------------------------------------------------------------------
// Test scoping
// ---------------------------------------------------------------------------

/// Serializes tests that arm global failpoints; disarms everything on drop.
#[derive(Debug)]
pub struct TestGuard {
    _guard: MutexGuard<'static, ()>,
}

impl Drop for TestGuard {
    fn drop(&mut self) {
        disarm_all();
    }
}

/// Takes the global failpoint test lock. Hold the returned guard for the
/// whole test: it keeps concurrently running tests from observing your
/// armed sites, and disarms everything when dropped (including on panic —
/// a failing assertion must not leak faults into the next test).
pub fn test_guard() -> TestGuard {
    static LOCK: Mutex<()> = Mutex::new(());
    TestGuard {
        _guard: LOCK.lock().unwrap_or_else(PoisonError::into_inner),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_sites_never_fire() {
        let _guard = test_guard();
        assert_eq!(check("nope"), None);
        assert_eq!(fire("nope"), None);
        assert_eq!(site_stats("nope"), None);
    }

    #[test]
    fn triggers_follow_their_schedules() {
        let _guard = test_guard();
        arm("t.always", FaultSpec::new(Fault::Error, Trigger::Always));
        arm("t.nth", FaultSpec::new(Fault::Error, Trigger::Nth(2)));
        arm("t.times", FaultSpec::new(Fault::Error, Trigger::Times(2)));
        arm(
            "t.every",
            FaultSpec::new(Fault::Error, Trigger::EveryNth(3)),
        );
        let pattern = |site: &str| -> Vec<bool> { (0..6).map(|_| check(site).is_some()).collect() };
        assert_eq!(pattern("t.always"), vec![true; 6]);
        assert_eq!(
            pattern("t.nth"),
            vec![false, false, true, false, false, false]
        );
        assert_eq!(
            pattern("t.times"),
            vec![true, true, false, false, false, false]
        );
        assert_eq!(
            pattern("t.every"),
            vec![true, false, false, true, false, false]
        );
        let stats = site_stats("t.every").unwrap();
        assert_eq!(stats.hits, 6);
        assert_eq!(stats.fired, 2);
    }

    #[test]
    fn prob_schedules_are_deterministic_and_seeded() {
        let _guard = test_guard();
        let run = |seed: u64| -> Vec<bool> {
            arm(
                "t.prob",
                FaultSpec::new(
                    Fault::Error,
                    Trigger::Prob {
                        seed,
                        fire_per_1024: 256,
                    },
                ),
            );
            (0..256).map(|_| check("t.prob").is_some()).collect()
        };
        let a = run(42);
        let b = run(42);
        let c = run(43);
        assert_eq!(a, b, "same seed, same sequence");
        assert_ne!(a, c, "different seed, different sequence");
        let fired = a.iter().filter(|&&f| f).count();
        // 256/1024 = 25%; over 256 draws the count concentrates well away
        // from 0 and from always-firing.
        assert!((20..110).contains(&fired), "implausible fire count {fired}");
    }

    #[test]
    fn fire_applies_delay_inline_and_panics_on_panic_faults() {
        let _guard = test_guard();
        arm(
            "t.delay",
            FaultSpec::new(Fault::Delay(Duration::from_millis(5)), Trigger::Always),
        );
        let start = std::time::Instant::now();
        assert_eq!(fire("t.delay"), None, "delay is applied, not returned");
        assert!(start.elapsed() >= Duration::from_millis(4));

        arm("t.panic", FaultSpec::new(Fault::Panic, Trigger::Always));
        let result = std::panic::catch_unwind(|| fire("t.panic"));
        let err = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(err.contains("t.panic"), "panic names the site: {err}");
    }

    #[test]
    fn spec_strings_arm_and_malformed_entries_are_skipped() {
        let _guard = test_guard();
        let armed = arm_from_spec_str(
            "a=error@prob:7:64; b=short_write:4@nth:10; c=delay:25; \
             bogus; d=panic@every:50; e=nonsense@always; f=disconnect@times:2",
        );
        assert_eq!(armed, 5);
        assert_eq!(
            lock_registry().get("a").unwrap().spec,
            FaultSpec::new(
                Fault::Error,
                Trigger::Prob {
                    seed: 7,
                    fire_per_1024: 64
                }
            )
        );
        assert_eq!(
            lock_registry().get("b").unwrap().spec,
            FaultSpec::new(Fault::ShortWrite(4), Trigger::Nth(10))
        );
        assert_eq!(
            lock_registry().get("c").unwrap().spec,
            FaultSpec::new(Fault::Delay(Duration::from_millis(25)), Trigger::Always)
        );
        assert_eq!(
            lock_registry().get("f").unwrap().spec,
            FaultSpec::new(Fault::Disconnect, Trigger::Times(2))
        );
        assert!(lock_registry().get("bogus").is_none());
        assert!(lock_registry().get("e").is_none());
        disarm_all();
        assert_eq!(check("a"), None);
    }

    #[test]
    fn injected_io_errors_are_recognizable() {
        let err = injected_io_error("wal.append");
        assert!(is_injected(&err));
        assert!(!is_injected(&std::io::Error::other("disk on fire")));
    }
}
