//! Deterministic, seeded fault injection for the durability layer.
//!
//! A [`FaultPlan`] is a shared, thread-safe schedule of faults consulted by
//! the slice pool behind [`crate::server::Server`] and the
//! [`crate::store::SessionStore`] at fixed hook points ([`FaultSite`]): checkpoint encode/decode, store
//! write/read/rename, and scheduling-slice boundaries. Each site keeps an
//! atomic call ordinal; whether call `n` at site `s` faults — and which
//! [`Fault`] it draws — is a pure function of `(seed, s, n)`, so a plan is
//! reproducible from its seed alone. (Under a multi-worker scheduler the
//! *assignment* of ordinals to jobs follows thread interleaving; the fault
//! sequence per site does not.)
//!
//! Every site has a bounded injection budget, so a torture run provably
//! drains its faults: once the budgets are exhausted the system must settle
//! into a clean, fully-recovered state — the property
//! `tests/service_recovery.rs` pins. This module is a first-class public
//! API, not test scaffolding: chaos drills against a deployed service use
//! the same hooks.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// The hook points at which a [`FaultPlan`] is consulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Immediately before a session checkpoint is encoded (a stand-in for a
    /// panicking probe or codec defect). Supports [`Fault::Panic`].
    CheckpointEncode,
    /// Immediately before a frozen session is decoded back into a live one.
    /// Supports [`Fault::Panic`].
    CheckpointDecode,
    /// Each attempt to write a frame (or manifest) file in the store.
    /// Supports [`Fault::TornWrite`], [`Fault::BitFlip`], [`Fault::IoError`].
    StoreWrite,
    /// Each frame read from the store. Supports [`Fault::BitFlip`] (applied
    /// to the bytes in flight, modelling media corruption) and
    /// [`Fault::IoError`].
    StoreRead,
    /// Each temp-file → final-name rename in the store. Supports
    /// [`Fault::IoError`].
    StoreRename,
    /// Each scheduling-slice boundary in the service. Supports
    /// [`Fault::Panic`] (a runaway/defective session) and — on its own
    /// kill schedule — [`Fault::KillService`].
    SliceBoundary,
    /// Each command frame read from a protocol connection. Supports
    /// [`Fault::TornWrite`] (frame truncated mid-read, as a dying client
    /// leaves it), [`Fault::BitFlip`] (garbage bytes in flight),
    /// [`Fault::IoError`] (mid-command disconnect) and [`Fault::Stall`]
    /// (a slow/stalled client).
    WireRead,
    /// Each response frame written to a protocol connection. Supports
    /// [`Fault::IoError`] (the reply is dropped — the client never sees it,
    /// exercising idempotent retry) and [`Fault::Stall`].
    WireWrite,
}

/// Number of distinct [`FaultSite`] values (array-index domain).
const SITE_COUNT: usize = 8;

impl FaultSite {
    fn index(self) -> usize {
        match self {
            FaultSite::CheckpointEncode => 0,
            FaultSite::CheckpointDecode => 1,
            FaultSite::StoreWrite => 2,
            FaultSite::StoreRead => 3,
            FaultSite::StoreRename => 4,
            FaultSite::SliceBoundary => 5,
            FaultSite::WireRead => 6,
            FaultSite::WireWrite => 7,
        }
    }

    /// Every site, in index order (the iteration domain of
    /// [`FaultPlan::drained`] and the bookkeeping tests).
    pub const ALL: [FaultSite; SITE_COUNT] = [
        FaultSite::CheckpointEncode,
        FaultSite::CheckpointDecode,
        FaultSite::StoreWrite,
        FaultSite::StoreRead,
        FaultSite::StoreRename,
        FaultSite::SliceBoundary,
        FaultSite::WireRead,
        FaultSite::WireWrite,
    ];
}

/// A concrete fault drawn from the plan at one call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The write stops after `keep` bytes and the torn temp file is left
    /// behind — the on-disk trace of a crash mid-write.
    TornWrite {
        /// Bytes actually written before the simulated crash.
        keep: usize,
    },
    /// One bit at `offset` (mod the buffer length) is flipped in the bytes
    /// in flight — silent media corruption the checksums must catch.
    BitFlip {
        /// Byte offset of the flip, reduced modulo the buffer length.
        offset: usize,
    },
    /// The call site must panic (the supervision layer is expected to
    /// contain it).
    Panic,
    /// The operation fails with a synthetic I/O error (the retry/degradation
    /// machinery is expected to absorb it).
    IoError,
    /// The whole server "crashes" at this slice boundary: workers stop
    /// dead, in-flight slices are discarded and the server shuts down
    /// unresolved. Only the on-disk store survives.
    KillService,
    /// The call site sleeps for `millis` before proceeding — a slow or
    /// stalled peer. The operation itself then succeeds; what the stall
    /// tests is the *other* side's deadline/timeout machinery.
    Stall {
        /// Milliseconds the site sleeps (bounded small so tests stay fast).
        millis: u64,
    },
}

/// Which fault kinds a site may draw (builder-facing tags).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// [`Fault::TornWrite`].
    Torn,
    /// [`Fault::BitFlip`].
    Flip,
    /// [`Fault::Panic`].
    Panic,
    /// [`Fault::IoError`].
    Io,
    /// [`Fault::Stall`].
    Stall,
}

/// Per-site schedule: fire every `period`-th call, at most `budget` times,
/// drawing among `kinds`.
#[derive(Debug, Clone)]
struct SiteConfig {
    period: u64,
    budget: u64,
    kinds: Vec<FaultKind>,
}

/// A deterministic, seeded fault-injection schedule. Construct with
/// [`FaultPlan::new`], arm sites with [`FaultPlan::with_site`] /
/// [`FaultPlan::with_kills`], share via `Arc`, and hand it to
/// [`crate::server::ServerOptions::fault_plan`] and
/// [`crate::store::SessionStore::set_fault_plan`].
pub struct FaultPlan {
    seed: u64,
    sites: [Option<SiteConfig>; SITE_COUNT],
    /// Kill-service schedule over the slice-boundary ordinal: fire whenever
    /// the ordinal is a positive multiple of `kill_every`, at most
    /// `max_kills` times.
    kill_every: u64,
    max_kills: u64,
    calls: [AtomicU64; SITE_COUNT],
    injected: [AtomicU64; SITE_COUNT],
    kills: AtomicU64,
}

impl fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultPlan")
            .field("seed", &self.seed)
            .field("kill_every", &self.kill_every)
            .field("max_kills", &self.max_kills)
            .field("kills", &self.kills.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// SplitMix64 — the deterministic mixer behind every fault decision.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// A plan with the given seed and no faults armed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            sites: Default::default(),
            kill_every: 0,
            max_kills: 0,
            calls: Default::default(),
            injected: Default::default(),
            kills: AtomicU64::new(0),
        }
    }

    /// Arms `site`: every `period`-th call faults (at most `budget` times),
    /// drawing uniformly among the site's default fault kinds. A `period`
    /// of 0 disarms the site.
    pub fn with_site(self, site: FaultSite, period: u64, budget: u64) -> Self {
        let kinds = match site {
            FaultSite::CheckpointEncode | FaultSite::CheckpointDecode => vec![FaultKind::Panic],
            FaultSite::StoreWrite => vec![FaultKind::Torn, FaultKind::Flip, FaultKind::Io],
            FaultSite::StoreRead => vec![FaultKind::Flip, FaultKind::Io],
            FaultSite::StoreRename => vec![FaultKind::Io],
            FaultSite::SliceBoundary => vec![FaultKind::Panic],
            FaultSite::WireRead => {
                vec![FaultKind::Torn, FaultKind::Flip, FaultKind::Io, FaultKind::Stall]
            }
            FaultSite::WireWrite => vec![FaultKind::Io, FaultKind::Stall],
        };
        self.with_site_kinds(site, period, budget, &kinds)
    }

    /// Like [`FaultPlan::with_site`] but drawing only among `kinds`
    /// (e.g. I/O errors alone, to drive the degradation path without
    /// corruption). Kinds a site cannot express are ignored; if none
    /// remain, the site stays disarmed.
    pub fn with_site_kinds(
        mut self,
        site: FaultSite,
        period: u64,
        budget: u64,
        kinds: &[FaultKind],
    ) -> Self {
        let kinds: Vec<FaultKind> = kinds.to_vec();
        self.sites[site.index()] = (period > 0 && budget > 0 && !kinds.is_empty())
            .then_some(SiteConfig { period, budget, kinds });
        self
    }

    /// Arms the service-kill schedule: the service "crashes" at every
    /// `kill_every`-th slice boundary, at most `max_kills` times across the
    /// plan's lifetime (spanning service restarts that share the plan).
    pub fn with_kills(mut self, kill_every: u64, max_kills: u64) -> Self {
        self.kill_every = kill_every;
        self.max_kills = max_kills;
        self
    }

    /// Consults the plan at `site`. `len` is the length of the byte buffer
    /// in flight (0 when there is none); torn-write/bit-flip offsets are
    /// derived from it. Returns the fault to inject, if any.
    pub fn decide(&self, site: FaultSite, len: usize) -> Option<Fault> {
        let index = site.index();
        let ordinal = self.calls[index].fetch_add(1, Ordering::Relaxed);
        // The kill schedule rides the slice-boundary ordinal but has its own
        // budget, independent of the site's panic schedule.
        if site == FaultSite::SliceBoundary
            && self.kill_every > 0
            && ordinal > 0
            && ordinal.is_multiple_of(self.kill_every)
            && self.kills.fetch_add(1, Ordering::Relaxed) < self.max_kills
        {
            return Some(Fault::KillService);
        }
        let config = self.sites[index].as_ref()?;
        if !(ordinal + 1).is_multiple_of(config.period) {
            return None;
        }
        if self.injected[index].fetch_add(1, Ordering::Relaxed) >= config.budget {
            return None;
        }
        let h = mix(self.seed ^ mix((index as u64) << 32 ^ ordinal));
        let kind = config.kinds[(h as usize) % config.kinds.len()];
        Some(match kind {
            FaultKind::Torn => Fault::TornWrite { keep: (h >> 8) as usize % len.max(1) },
            FaultKind::Flip => Fault::BitFlip { offset: (h >> 8) as usize % len.max(1) },
            FaultKind::Panic => Fault::Panic,
            FaultKind::Io => Fault::IoError,
            FaultKind::Stall => Fault::Stall { millis: 1 + (h >> 8) % 15 },
        })
    }

    /// Calls observed at `site` so far.
    pub fn calls(&self, site: FaultSite) -> u64 {
        self.calls[site.index()].load(Ordering::Relaxed)
    }

    /// Faults actually injected at `site` so far (kills excluded — see
    /// [`FaultPlan::kills`]). May transiently overcount by concurrent racers
    /// only in the call counter, never in injections beyond the budget.
    pub fn injected(&self, site: FaultSite) -> u64 {
        self.injected[site.index()]
            .load(Ordering::Relaxed)
            .min(self.sites[site.index()].as_ref().map(|config| config.budget).unwrap_or(0))
    }

    /// Service kills injected so far.
    pub fn kills(&self) -> u64 {
        self.kills.load(Ordering::Relaxed).min(self.max_kills)
    }

    /// The panic message every injected [`Fault::Panic`] uses — test panic
    /// hooks filter on it to keep torture-run output readable.
    pub const PANIC_MESSAGE: &'static str = "injected fault: panic";

    /// Proves every configured fault budget was actually *spent*: `Ok(())`
    /// when each armed site injected its full budget and the kill schedule
    /// (if armed) fired `max_kills` times, otherwise `Err` naming every
    /// unspent budget. Torture tests end with
    /// `plan.drained().expect("budgets spent")` so a schedule that silently
    /// stopped firing (periods never hit, sites never reached) fails loudly
    /// instead of vacuously passing.
    pub fn drained(&self) -> Result<(), String> {
        let mut unspent = Vec::new();
        for site in FaultSite::ALL {
            if let Some(config) = &self.sites[site.index()] {
                let injected = self.injected(site);
                if injected < config.budget {
                    unspent.push(format!("{site:?}: {injected}/{} injected", config.budget));
                }
            }
        }
        if self.max_kills > 0 && self.kills() < self.max_kills {
            unspent.push(format!("KillService: {}/{} fired", self.kills(), self.max_kills));
        }
        if unspent.is_empty() {
            Ok(())
        } else {
            Err(format!("fault budgets not drained: {}", unspent.join(", ")))
        }
    }
}

/// Sleeps out a [`Fault::Stall`] (other faults are a no-op). Returns whether
/// the call actually stalled.
pub fn apply_stall(fault: Fault) -> bool {
    if let Fault::Stall { millis } = fault {
        std::thread::sleep(std::time::Duration::from_millis(millis));
        return true;
    }
    false
}

/// Flips one bit of `bytes` in place per `fault` if it is a
/// [`Fault::BitFlip`]; other faults (and empty buffers) leave the bytes
/// untouched. Returns whether a flip happened.
pub fn apply_bit_flip(fault: Fault, bytes: &mut [u8]) -> bool {
    if let Fault::BitFlip { offset } = fault {
        if !bytes.is_empty() {
            let at = offset % bytes.len();
            bytes[at] ^= 1 << (offset % 8);
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_plan_never_faults() {
        let plan = FaultPlan::new(42);
        for _ in 0..1000 {
            assert_eq!(plan.decide(FaultSite::StoreWrite, 100), None);
            assert_eq!(plan.decide(FaultSite::SliceBoundary, 0), None);
        }
        assert_eq!(plan.kills(), 0);
        assert_eq!(plan.calls(FaultSite::StoreWrite), 1000);
    }

    #[test]
    fn budgets_bound_injections_and_schedule_is_deterministic() {
        let run = || {
            let plan = FaultPlan::new(7).with_site(FaultSite::StoreWrite, 5, 3);
            let mut seen = Vec::new();
            for n in 0..100 {
                if let Some(fault) = plan.decide(FaultSite::StoreWrite, 64) {
                    seen.push((n, fault));
                }
            }
            seen
        };
        let first = run();
        assert_eq!(first.len(), 3, "budget of 3 must bound injections: {first:?}");
        assert_eq!(first, run(), "same seed, same schedule");
        // Fires on every period-th call until the budget drains.
        assert_eq!(first.iter().map(|(n, _)| *n).collect::<Vec<_>>(), vec![4, 9, 14]);
    }

    #[test]
    fn kill_schedule_is_budgeted_and_rides_the_slice_ordinal() {
        let plan = FaultPlan::new(1).with_kills(10, 2);
        let mut kills = Vec::new();
        for n in 0..100 {
            if plan.decide(FaultSite::SliceBoundary, 0) == Some(Fault::KillService) {
                kills.push(n);
            }
        }
        assert_eq!(kills, vec![10, 20]);
        assert_eq!(plan.kills(), 2);
    }

    #[test]
    fn drained_reports_unspent_budgets_by_site() {
        let plan = FaultPlan::new(5)
            .with_site(FaultSite::WireRead, 2, 3)
            .with_site_kinds(FaultSite::WireWrite, 3, 2, &[FaultKind::Io])
            .with_kills(4, 1);
        let err = plan.drained().unwrap_err();
        assert!(err.contains("WireRead: 0/3"), "{err}");
        assert!(err.contains("WireWrite: 0/2"), "{err}");
        assert!(err.contains("KillService: 0/1"), "{err}");
        // Spend everything: wire reads fire on every 2nd call, wire writes on
        // every 3rd, the kill on the 4th slice boundary.
        for _ in 0..8 {
            plan.decide(FaultSite::WireRead, 32);
            plan.decide(FaultSite::WireWrite, 32);
            plan.decide(FaultSite::SliceBoundary, 0);
        }
        plan.drained().expect("all budgets spent");
    }

    #[test]
    fn wire_sites_draw_their_own_kinds_and_stalls_sleep() {
        let plan = FaultPlan::new(21).with_site_kinds(
            FaultSite::WireRead,
            1,
            u64::MAX,
            &[FaultKind::Stall],
        );
        match plan.decide(FaultSite::WireRead, 16) {
            Some(stall @ Fault::Stall { millis }) => {
                assert!((1..=15).contains(&millis), "stalls stay short: {millis} ms");
                let before = std::time::Instant::now();
                assert!(apply_stall(stall));
                assert!(before.elapsed() >= std::time::Duration::from_millis(millis));
            }
            other => panic!("expected a stall, got {other:?}"),
        }
        assert!(!apply_stall(Fault::IoError));
        // Distinct wire sites keep distinct ordinals.
        assert_eq!(plan.calls(FaultSite::WireRead), 1);
        assert_eq!(plan.calls(FaultSite::WireWrite), 0);
    }

    #[test]
    fn kind_restriction_and_bit_flip_application() {
        let plan =
            FaultPlan::new(3).with_site_kinds(FaultSite::StoreWrite, 1, 1000, &[FaultKind::Io]);
        for _ in 0..50 {
            assert_eq!(plan.decide(FaultSite::StoreWrite, 16), Some(Fault::IoError));
        }
        let mut bytes = vec![0u8; 8];
        assert!(apply_bit_flip(Fault::BitFlip { offset: 13 }, &mut bytes));
        assert_eq!(bytes.iter().filter(|&&b| b != 0).count(), 1);
        assert!(!apply_bit_flip(Fault::IoError, &mut bytes.clone()));
        assert!(!apply_bit_flip(Fault::BitFlip { offset: 0 }, &mut []));
    }
}
