//! Kill-the-primary chaos campaign over the replicated auditor.
//!
//! Each seed draws a full failure scenario from the fault plane — op
//! count, kill point, a compaction racing the kill, a partition window
//! putting one follower into catch-up, probabilistic ship loss, an
//! optional torn primary append at the kill, an optional failed
//! append on one follower's backend just before the kill, and an
//! optional restart of one follower over the backend it kept — then:
//!
//! 1. runs the **cluster**: a journaled primary shipping to two
//!    followers under `Quorum(1)` through seeded
//!    [`FaultyLink`](alidrone::chaos::FaultyLink)s, killing the
//!    primary at the drawn offset. A write that finds the last one's
//!    quorum still lost is refused unwritten (`Overloaded`);
//! 2. promotes through [`promote`], the one promotion rule
//!    (most-caught-up follower → fence → replay → re-arm → new epoch);
//! 3. runs a crash-free **reference** auditor over the ops the primary
//!    wrote, in order, then every other op, checkpointing state after
//!    every op, and asserts:
//!    * the promoted state is **byte-identical to a reference
//!      checkpoint** (followers hold whole-record journal prefixes);
//!    * **zero acked-then-lost records**: every op the dead primary
//!      acknowledged under `Quorum(1)` is in the promoted state;
//!    * the deposed primary is **fenced** — its next durable mutation
//!      fails with a typed error under any policy;
//!    * **no forked heads**: every signed tree head fetched from the
//!      dead primary (after each op, and after its fenced write) is
//!      extended by the promoted primary's head taken right after
//!      promotion, before any post-promotion op (under `Quorum(1)` the
//!      promoted follower holds every committed record), and every
//!      served head, the promoted one's included, is extended by the
//!      promoted primary's final head, so a client holding any served
//!      head never sees the auditor equivocate. The first check matters
//!      because post-promotion ops re-send every op the promoted state
//!      lacks byte for byte: a head over a record no follower held would
//!      be extended again by an identical leaf, and only the head at
//!      promotion shows the fork;
//!    * post-promotion, the surviving follower converges to a journal
//!      image byte-identical to the new primary's, and the quiesced
//!      scrape reconciles exactly (zero lag, matching acked offsets,
//!      the new epoch, one failover).
//!
//! `FAILOVER_SEEDS=<n>` sets the seed count (`make failover` and CI
//! run 400); the default is 40 seeds.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use alidrone::chaos::{FaultPlane, FaultyLink, PartitionSwitch};
use alidrone::core::audit::{verify_consistency, SignedTreeHead};
use alidrone::core::journal::{MemBackend, StorageBackend, FRAME_OVERHEAD, HEADER_LEN};
use alidrone::core::repl::{
    arm, promote, Follower, InProcessLink, Promotion, ReplAck, ReplError, ReplFrame, ReplLink,
    ReplicationPolicy, Replicator,
};
use alidrone::core::{Auditor, AuditorConfig, ProtocolError};
use alidrone::crypto::rng::XorShift64;
use alidrone::crypto::rsa::RsaPrivateKey;
use alidrone::geo::{Distance, GeoPoint, NoFlyZone};
use alidrone::obs::{FlightRecorder, Level, Obs};

/// Per-seed key cache (512-bit keygen in debug builds is slow).
fn key(seed: u64) -> RsaPrivateKey {
    static KEYS: OnceLock<Mutex<HashMap<u64, RsaPrivateKey>>> = OnceLock::new();
    let cache = KEYS.get_or_init(Default::default);
    let mut map = cache.lock().unwrap();
    map.entry(seed)
        .or_insert_with(|| {
            let mut rng = XorShift64::seed_from_u64(seed);
            RsaPrivateKey::generate(512, &mut rng)
        })
        .clone()
}

fn zone(i: usize) -> NoFlyZone {
    NoFlyZone::new(
        GeoPoint::new(40.0 + i as f64 * 0.02, -88.2 + (i % 7) as f64 * 0.01).unwrap(),
        Distance::from_meters(60.0 + i as f64),
    )
}

/// Seeds to run: `FAILOVER_SEEDS` for the widened `make failover`
/// sweep, 40 (≥ the acceptance floor of 30) by default.
fn campaign_seeds() -> u64 {
    std::env::var("FAILOVER_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(40)
}

/// Tries the boot's epoch-1 write gets: with both links dropping each
/// frame at 0.15, all four fail once in ~4·10^6 seeds.
const BOOT_ATTEMPTS: usize = 4;

/// One scenario drawn deterministically from the plane.
#[derive(Debug)]
struct Plan {
    n_ops: usize,
    kill_at: usize,
    compact_at: Option<usize>,
    /// Ops during which follower 1's link is cut (catch-up pressure;
    /// may still be cut at the kill — the "kill during catch-up" case).
    partition: Option<(usize, usize)>,
    drop_p: f64,
    /// Tear the primary's final journal append (kill mid-record).
    tear_on_kill: bool,
    /// `(op, follower)`: that follower's backend fails its append
    /// during that op, one of the last two before the kill, so the
    /// followers may disagree on the last acked record when the
    /// primary dies.
    backend_fault: Option<(usize, usize)>,
    /// `(op, follower)`: after that op, one of the last two before the
    /// kill, that follower restarts — a fresh [`Follower::new`] over
    /// the backend it kept.
    restart: Option<(usize, usize)>,
}

impl Plan {
    fn draw(plane: &FaultPlane) -> Plan {
        let s = plane.stream("failover.plan");
        let n_ops = 10 + (s.next_u64() % 8) as usize;
        let kill_at = 2 + (s.next_u64() % (n_ops as u64 - 2)) as usize;
        let compact_at = s
            .chance(0.6)
            .then(|| (s.next_u64() % n_ops as u64) as usize);
        let partition = s.chance(0.5).then(|| {
            let start = (s.next_u64() % n_ops as u64) as usize;
            let len = 1 + (s.next_u64() % 5) as usize;
            (start, start + len)
        });
        let drop_p = if s.chance(0.4) { 0.15 } else { 0.0 };
        let tear_on_kill = s.chance(0.5);
        // Drawn last, so every earlier field keeps its value per seed.
        let backend_fault = s.chance(0.4).then(|| {
            let op = kill_at - 1 - (s.next_u64() % 2) as usize;
            (op, (s.next_u64() % 2) as usize)
        });
        let restart = s.chance(0.5).then(|| {
            let op = kill_at - 1 - (s.next_u64() % 2) as usize;
            (op, (s.next_u64() % 2) as usize)
        });
        Plan {
            n_ops,
            kill_at,
            compact_at,
            partition,
            drop_p,
            tear_on_kill,
            backend_fault,
            restart,
        }
    }
}

/// A follower set as [`promote`] takes it.
type Members = Vec<(String, Arc<Follower>)>;

/// Two followers named `f0`, `f1`, with their backends kept for fault
/// injection.
fn followers() -> (Vec<Arc<MemBackend>>, Members) {
    let backends: Vec<Arc<MemBackend>> = (0..2).map(|_| Arc::new(MemBackend::new())).collect();
    let followers = backends
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let backend: Arc<dyn StorageBackend> = Arc::clone(b) as _;
            (format!("f{i}"), Arc::new(Follower::new(backend)))
        })
        .collect();
    (backends, followers)
}

/// A link to whichever follower currently serves its slot, so a
/// restarted follower takes over the dead one's link.
#[derive(Clone)]
struct SlotLink(Arc<Mutex<Arc<Follower>>>);

impl ReplLink for SlotLink {
    fn ship(&self, frame: &ReplFrame<'_>) -> Result<ReplAck, ReplError> {
        let follower = Arc::clone(&self.0.lock().unwrap());
        follower.apply(frame)
    }
}

/// Applies op `i` through the durable (quorum-gated) API. Every op is
/// exactly one journal record, so reference checkpoints align with
/// whole-record follower prefixes.
fn apply_op(auditor: &Auditor, i: usize) -> Result<(), ProtocolError> {
    if i % 5 == 3 {
        auditor
            .register_drone_durable(key(2).public_key().clone(), key(1).public_key().clone())
            .map(|_| ())
    } else {
        auditor.register_zone_durable(zone(i)).map(|_| ())
    }
}

/// The crash-free reference: the ops in `order`, no faults, no
/// replication. Returns state checkpoints; `checkpoints[m]` is the
/// state after the first `m` ops of `order`.
fn reference_checkpoints(plan: &Plan, order: &[usize]) -> Vec<Vec<u8>> {
    let (auditor, _) = Auditor::recover(
        Arc::new(MemBackend::new()) as Arc<dyn StorageBackend>,
        AuditorConfig::default(),
        key(0),
    )
    .expect("fresh reference recovers");
    let mut checkpoints = vec![auditor.snapshot()];
    for &i in order {
        if plan.compact_at == Some(i) {
            auditor.compact_journal().expect("reference compaction");
        }
        apply_op(&auditor, i).expect("reference op");
        checkpoints.push(auditor.snapshot());
    }
    checkpoints
}

/// `true` when `newer`, served by `auditor`, extends `head`: it is no
/// smaller, and `auditor`'s consistency proof between the two verifies
/// offline. An empty head is extended by every head.
fn extends(auditor: &Auditor, head: &SignedTreeHead, newer: &SignedTreeHead) -> bool {
    head.size == 0
        || (head.size <= newer.size
            && auditor
                .audit_consistency_proof(head.size, newer.size)
                .is_ok_and(|p| {
                    verify_consistency(head.size, newer.size, &p.path, &head.root, &newer.root)
                }))
}

/// One full campaign run. Returns an outcome log so failing seeds can
/// be replayed and compared bit-for-bit.
fn campaign_run(seed: u64) -> Vec<String> {
    let mut log = Vec::new();
    let plane = FaultPlane::new(seed);
    let plan = Plan::draw(&plane);
    log.push(format!("{plan:?}"));

    // --- cluster under test ------------------------------------------
    let obs = Obs::noop();
    let primary_backend = Arc::new(MemBackend::new());
    let (primary, _) = Auditor::recover_with_obs(
        Arc::clone(&primary_backend) as Arc<dyn StorageBackend>,
        AuditorConfig::default(),
        key(0),
        &obs,
    )
    .expect("primary recovers");
    let primary = Arc::new(primary);
    let (backends, mut followers) = followers();
    let mut switches: Vec<PartitionSwitch> = Vec::new();
    let mut replicator = Replicator::new(&obs, ReplicationPolicy::Quorum(1));
    let slots: Vec<SlotLink> = followers
        .iter()
        .map(|(_, f)| SlotLink(Arc::new(Mutex::new(Arc::clone(f)))))
        .collect();
    for ((name, _), slot) in followers.iter().zip(&slots) {
        let link =
            FaultyLink::new(slot.clone(), &plane, &format!("repl.{name}")).drop_with(plan.drop_p);
        switches.push(link.partition_switch());
        replicator = replicator.with_follower(name.clone(), link);
    }
    primary.set_replicator(Arc::new(replicator));
    // Both links may drop the epoch-1 frame, which loses Quorum(1)
    // before any drawn fault: boot retries it, a bounded number of
    // times. A first attempt that succeeds draws nothing more, so every
    // seed keeps its draws.
    let booted = (0..BOOT_ATTEMPTS).any(|_| primary.begin_epoch(1).is_ok());
    assert!(booted, "seed {seed}: epoch 1 never replicated");

    // Ops until the kill, toggling the partition window on follower 1.
    // Every primary's signed head is fetched after each op it runs. An
    // op refused with `Overloaded` was not written.
    let mut acked: Vec<usize> = Vec::new();
    let mut written: Vec<usize> = Vec::new();
    let mut heads: Vec<SignedTreeHead> = Vec::new();
    for i in 0..plan.kill_at {
        if let Some((start, end)) = plan.partition {
            if i == start {
                switches[1].partition();
            }
            if i == end {
                switches[1].heal();
            }
        }
        if plan.compact_at == Some(i) {
            match primary.compact_journal() {
                Ok(()) => log.push(format!("op {i}: compacted")),
                Err(e) => log.push(format!("op {i}: compact err {e}")),
            }
        }
        let fault = plan
            .backend_fault
            .filter(|&(op, _)| op == i)
            .map(|(_, f)| f);
        if let Some(f) = fault {
            backends[f].fail_next_append();
        }
        let result = apply_op(&primary, i);
        if !result.as_ref().is_err_and(ProtocolError::is_shed) {
            written.push(i);
        }
        match result {
            Ok(()) => {
                acked.push(i);
                log.push(format!("op {i}: acked"));
            }
            Err(e) => log.push(format!("op {i}: err {e}")),
        }
        heads.push(primary.signed_tree_head().expect("primary signs its head"));
        if let Some(f) = fault {
            // An empty append consumes a fault the op never reached (a
            // cut link, a dropped frame, a snapshot replace), so it
            // cannot fire after the kill.
            match backends[f].append(&[]) {
                Ok(()) => log.push(format!(
                    "op {i}: f{f} append failed; acked offsets {:?}",
                    followers
                        .iter()
                        .map(|(_, follower)| follower.acked_offset())
                        .collect::<Vec<_>>()
                )),
                Err(_) => log.push(format!("op {i}: f{f} append fault unreached")),
            }
        }
        if let Some((_, f)) = plan.restart.filter(|&(op, _)| op == i) {
            let restarted = Arc::new(Follower::new(Arc::clone(&backends[f]) as _));
            *slots[f].0.lock().unwrap() = Arc::clone(&restarted);
            followers[f].1 = restarted;
            log.push(format!(
                "op {i}: f{f} restarted; acked offsets {:?}",
                followers
                    .iter()
                    .map(|(_, follower)| follower.acked_offset())
                    .collect::<Vec<_>>()
            ));
        }
    }
    // Kill mid-record: the primary's final append tears. The op must
    // surface a typed error (never an ack), and the torn tail must die
    // with the primary.
    if plan.tear_on_kill {
        primary_backend.tear_next_append(4);
        match apply_op(&primary, plan.kill_at) {
            Ok(()) => panic!("seed {seed}: torn append was acked"),
            Err(e) => {
                if !e.is_shed() {
                    written.push(plan.kill_at);
                }
                log.push(format!("kill op: torn err {e}"));
            }
        }
        heads.push(primary.signed_tree_head().expect("primary signs its head"));
    }

    // --- fail-stop kill + promotion by the one rule ------------------
    // It fences before replay, so from then on the dead primary's
    // frames land Stale, and re-arms over the survivor at epoch 2.
    let members = followers.clone();
    let Promotion {
        auditor: promoted,
        follower: promoted_name,
        report,
    } = promote(
        &mut followers,
        ReplicationPolicy::Quorum(1),
        AuditorConfig::default(),
        key(0),
        &obs,
    )
    .unwrap_or_else(|e| panic!("seed {seed}: promotion failed: {e}"));
    log.push(format!("promote {promoted_name}"));
    assert!(
        !report.torn_tail,
        "seed {seed}: follower received a torn record"
    );
    log.push(format!("replayed {} records", report.records_applied));
    let at_promotion = promoted
        .signed_tree_head()
        .expect("promoted primary signs its head");

    // The reference replays the ops the primary wrote, in order, then
    // every other op (refused unwritten, or never sent before the
    // kill): the order a client resending the ops missing from the
    // promoted state sends them in.
    let order: Vec<usize> = written
        .iter()
        .copied()
        .chain((0..plan.n_ops).filter(|i| !written.contains(i)))
        .collect();
    let checkpoints = reference_checkpoints(&plan, &order);

    // Byte-identical to a crash-free reference checkpoint, and zero
    // acked-then-lost under Quorum(1).
    let promoted_state = promoted.snapshot();
    let m = (0..checkpoints.len())
        .find(|&m| checkpoints[m] == promoted_state)
        .unwrap_or_else(|| panic!("seed {seed}: promoted state matches no crash-free checkpoint"));
    log.push(format!("promoted at checkpoint {m}"));
    for op in &acked {
        assert!(
            order[..m].contains(op),
            "seed {seed}: acked-then-lost — op {op} acked but promoted \
             state only covers {m} ops"
        );
    }

    // The deposed primary's links still point at both followers;
    // healed, its next write reaches a fenced one.
    let (survivor_name, survivor) = &followers[0];
    switches.iter().for_each(PartitionSwitch::heal);
    assert_eq!(promoted.current_epoch(), 2, "seed {seed}");

    // The deposed primary is fenced: its next durable mutation fails
    // with a typed error (stale epoch once a fenced follower answers).
    match apply_op(&primary, plan.n_ops + 90) {
        Ok(()) => panic!("seed {seed}: deposed primary still acks writes"),
        Err(e) => {
            log.push(format!("deposed: {e}"));
            assert!(
                matches!(e, ProtocolError::Storage(_)),
                "seed {seed}: fencing must be a typed storage error, got {e}"
            );
        }
    }
    // Its refused write must not reach the head it still serves.
    heads.push(
        primary
            .signed_tree_head()
            .expect("deposed primary signs its head"),
    );

    // No head the dead primary served runs ahead of the promoted
    // primary's head at promotion, nor forks from it.
    for head in &heads {
        assert!(
            extends(&promoted, head, &at_promotion),
            "seed {seed}: forked head — the dead primary served a head of size {} that the \
             promoted head of size {} does not extend",
            head.size,
            at_promotion.size
        );
    }
    heads.push(at_promotion);

    // The promoted primary keeps serving durable mutations. The client
    // resends every op the promoted state does not hold: written but
    // never acked by a follower, refused unwritten, or never sent.
    for &i in &order[m..] {
        apply_op(&promoted, i)
            .unwrap_or_else(|e| panic!("seed {seed}: post-promotion op {i} failed: {e}"));
    }
    assert_eq!(
        promoted.snapshot(),
        *checkpoints.last().expect("checkpoints non-empty"),
        "seed {seed}: promoted primary must finish the schedule on the \
         reference state"
    );

    // No forked heads: every head served on the way extends to the
    // final primary's head, checked offline with its consistency proof.
    let last = promoted
        .signed_tree_head()
        .expect("promoted primary signs its head");
    for head in &heads {
        assert!(
            extends(&promoted, head, &last),
            "seed {seed}: forked head — a served head of size {} is not extended by the \
             final head of size {}",
            head.size,
            last.size
        );
    }

    // Quiesced reconciliation: the survivor's journal image is
    // byte-identical to the new primary's, and the scrape agrees
    // exactly — zero lag, matching acked offset, epoch 2.
    let primary_image = members
        .iter()
        .find(|(name, _)| *name == promoted_name)
        .expect("promoted follower was a member")
        .1
        .image()
        .expect("promoted journal readable");
    assert_eq!(
        survivor.image().expect("survivor readable"),
        primary_image,
        "seed {seed}: survivor diverged from the promoted primary"
    );
    let snap = obs.snapshot();
    assert_eq!(snap.gauges["repl.lag_bytes"], 0, "seed {seed}");
    assert_eq!(snap.gauges["repl.lag_records"], 0, "seed {seed}");
    assert_eq!(snap.gauges["repl.epoch"], 2, "seed {seed}");
    assert_eq!(
        snap.gauges[&format!("repl.acked_offset.{survivor_name}")],
        survivor.acked_offset() as i64,
        "seed {seed}"
    );
    log.push(format!(
        "quiesced end={} survivor_epoch={}",
        survivor.acked_offset(),
        survivor.current_epoch()
    ));
    log
}

/// The acceptance campaign: ≥30 seeds (default 40), each killing the
/// primary at a drawn offset — mid-record, mid-batch, during
/// compaction, during catch-up — with every invariant checked inside
/// [`campaign_run`].
#[test]
fn kill_the_primary_campaign() {
    let seeds = campaign_seeds();
    let mut compactions = 0usize;
    let mut catchup_kills = 0usize;
    let mut torn_kills = 0usize;
    let mut backend_faults = 0usize;
    let mut rule_decided = 0usize;
    let mut restarts_after_compaction = 0usize;
    let mut restarted_promoted = 0usize;
    for seed in 0..seeds {
        let log = campaign_run(seed);
        for line in &log {
            if line.contains("compacted") {
                compactions += 1;
            }
            if line.contains("torn err") {
                torn_kills += 1;
            }
            if line.contains("promote f0") {
                catchup_kills += 1;
            }
            if line.contains("append failed") {
                backend_faults += 1;
            }
        }
        // f1 wins every tie, so passing it over after its backend
        // failed means it was behind at the kill: a seed where
        // promoting the other follower would have lost acked records.
        let has = |s: &str| log.iter().any(|l| l.contains(s));
        if has("f1 append failed") && has("promote f0") {
            rule_decided += 1;
        }
        let restarted = log.iter().position(|l| l.contains("restarted"));
        if restarted.is_some_and(|r| log[..r].iter().any(|l| l.contains("compacted"))) {
            restarts_after_compaction += 1;
        }
        if (0..2).any(|f| has(&format!("f{f} restarted")) && has(&format!("promote f{f}"))) {
            restarted_promoted += 1;
        }
    }
    // The plan space must actually cover the interesting offsets.
    if seeds >= 30 {
        assert!(compactions > 0, "no seed compacted before the kill");
        assert!(torn_kills > 0, "no seed tore the final append");
        assert!(catchup_kills > 0, "no seed killed during catch-up");
        assert!(backend_faults > 0, "no follower backend failed an append");
        assert!(
            rule_decided > 0,
            "no seed left a failed follower behind at the kill"
        );
        assert!(
            restarts_after_compaction > 0,
            "no follower restarted over a compacted image"
        );
        assert!(
            restarted_promoted > 0,
            "no seed promoted a restarted follower"
        );
    }
}

/// A failing (or any) seed replays its exact outcome log.
#[test]
fn failover_seeds_replay_deterministically() {
    for seed in [2u64, 17, 33] {
        assert_eq!(campaign_run(seed), campaign_run(seed), "seed {seed}");
    }
}

/// Boot by [`arm`], fail over by [`promote`], as the simulated fleet
/// does: the promoted primary serves the dead one's state, the deposed
/// primary is fenced, and the failover shows on the scrape.
#[test]
fn armed_cluster_survives_promotion() {
    let obs = Obs::noop();
    let policy = ReplicationPolicy::Quorum(1);
    let (_, mut followers) = followers();
    let (old_primary, _) = Auditor::recover_with_obs(
        Arc::new(MemBackend::new()),
        AuditorConfig::default(),
        key(0),
        &obs,
    )
    .unwrap();
    arm(&old_primary, &followers, policy, 1, &obs).unwrap();
    for i in 0..6 {
        apply_op(&old_primary, i).unwrap();
    }
    let before = old_primary.snapshot();
    let promoted = promote(
        &mut followers,
        policy,
        AuditorConfig::default(),
        key(0),
        &obs,
    )
    .unwrap()
    .auditor;
    assert_eq!(promoted.snapshot(), before);
    assert_eq!(promoted.current_epoch(), 2);
    // Old primary fenced, new primary serving.
    assert!(apply_op(&old_primary, 90).is_err());
    for i in 6..9 {
        apply_op(&promoted, i).unwrap();
    }
    let snap = obs.snapshot();
    assert_eq!(snap.counter("repl.failovers"), 1);
    assert_eq!(snap.gauges["repl.epoch"], 2);
    assert_eq!(snap.gauges["repl.lag_bytes"], 0);
    assert_eq!(snap.gauges["repl.lag_records"], 0);
    assert!(
        snap.histograms
            .get("repl.failover_duration_us")
            .is_some_and(|h| h.count == 1),
        "failover duration must be recorded once"
    );
}

/// Leader completeness: `Quorum(1)` acks a record through follower 0
/// while follower 1's backend fails that append, then the primary dies.
/// The rule promotes follower 0 and every acked record survives;
/// promoting follower 1 would recover only the first of the two zones.
#[test]
fn promotion_keeps_a_record_only_one_follower_acked() {
    let obs = Obs::noop();
    let (backends, mut followers) = followers();
    let (primary, _) = Auditor::recover_with_obs(
        Arc::new(MemBackend::new()),
        AuditorConfig::default(),
        key(0),
        &obs,
    )
    .unwrap();
    arm(&primary, &followers, ReplicationPolicy::Quorum(1), 1, &obs).unwrap();
    let mut acked = vec![primary.register_zone_durable(zone(0)).unwrap()];
    backends[1].fail_next_append();
    acked.push(primary.register_zone_durable(zone(1)).unwrap());
    let (f0, f1) = (&followers[0].1, &followers[1].1);
    assert!(
        f1.acked_offset() < f0.acked_offset(),
        "f1 missed the append"
    );
    drop(primary);

    let promotion = promote(
        &mut followers,
        ReplicationPolicy::Quorum(1),
        AuditorConfig::default(),
        key(0),
        &obs,
    )
    .unwrap();
    assert_eq!(promotion.follower, "f0");
    for id in acked {
        assert!(
            promotion.auditor.zone(id).is_some(),
            "acked zone {id} lost at failover"
        );
    }
}

/// A write that no follower took is never served. Under `Quorum(1)`
/// zone 0 commits, then both followers fail their next append, so
/// zone 1's registration returns `replication quorum lost`. The
/// primary's signed head must not cover zone 1: once a follower is
/// promoted and registers another zone, the new primary's head is an
/// append-only extension of the head the old primary served.
#[test]
fn a_failed_quorum_write_is_never_served() {
    let obs = Obs::noop();
    let (backends, mut followers) = followers();
    let (primary, _) = Auditor::recover_with_obs(
        Arc::new(MemBackend::new()),
        AuditorConfig::default(),
        key(0),
        &obs,
    )
    .unwrap();
    arm(&primary, &followers, ReplicationPolicy::Quorum(1), 1, &obs).unwrap();
    primary.register_zone_durable(zone(0)).unwrap();
    backends.iter().for_each(|b| b.fail_next_append());
    let err = primary.register_zone_durable(zone(1)).unwrap_err();
    assert!(err.to_string().contains("quorum lost"), "{err}");
    let served = primary.signed_tree_head().unwrap();
    assert_eq!(served.size, 1, "the served head covers the failed write");
    assert_eq!(primary.zone_count(), 1, "the failed write is served");
    drop(primary);

    let promotion = promote(
        &mut followers,
        ReplicationPolicy::Quorum(1),
        AuditorConfig::default(),
        key(0),
        &obs,
    )
    .unwrap();
    let promoted = promotion.auditor;
    assert_eq!(promoted.zone_count(), 1);
    promoted.register_zone_durable(zone(2)).unwrap();
    let head = promoted.signed_tree_head().unwrap();
    assert_eq!(head.size, 2);
    let proof = promoted
        .audit_consistency_proof(served.size, head.size)
        .unwrap();
    assert!(
        verify_consistency(
            proof.old_size,
            proof.new_size,
            &proof.path,
            &served.root,
            &head.root
        ),
        "the served head forks from the new primary's"
    );
}

/// Three zones acked under `Quorum(1)` with a compaction after the
/// first, the last through follower 0 alone (follower 1's backend fails
/// that append); then follower 0 restarts over the compacted image it
/// kept. Its image records the logical base compaction gave it, so it
/// still reports the highest acked offset: the rule promotes it and
/// every acked zone survives. Promoting follower 1 would lose the last.
#[test]
fn promotion_after_a_compacted_follower_restart_keeps_every_acked_record() {
    let obs = Obs::noop();
    let (backends, mut followers) = followers();
    let (primary, _) = Auditor::recover_with_obs(
        Arc::new(MemBackend::new()),
        AuditorConfig::default(),
        key(0),
        &obs,
    )
    .unwrap();
    arm(&primary, &followers, ReplicationPolicy::Quorum(1), 1, &obs).unwrap();
    let mut acked = vec![primary.register_zone_durable(zone(0)).unwrap()];
    primary.compact_journal().unwrap();
    acked.push(primary.register_zone_durable(zone(1)).unwrap());
    backends[1].fail_next_append();
    acked.push(primary.register_zone_durable(zone(2)).unwrap());
    drop(primary);

    let before = followers[0].1.acked_offset();
    assert!(
        before > followers[1].1.acked_offset(),
        "f1 missed the append"
    );
    followers[0].1 = Arc::new(Follower::new(Arc::clone(&backends[0]) as _));
    assert_eq!(
        followers[0].1.acked_offset(),
        before,
        "restart kept f0's offset"
    );

    let promotion = promote(
        &mut followers,
        ReplicationPolicy::Quorum(1),
        AuditorConfig::default(),
        key(0),
        &obs,
    )
    .unwrap();
    assert_eq!(promotion.follower, "f0");
    for id in acked {
        assert!(
            promotion.auditor.zone(id).is_some(),
            "acked zone {id} lost at failover"
        );
    }
}

/// A bit rots inside the first frame of follower 1's image and it
/// restarts. It keeps only the prefix it can verify — here no record,
/// so it holds nothing — and says so once (`repl.chain_divergence`, one Warn
/// event), so the rule promotes the intact follower 0 instead of
/// failing on follower 1's damaged image at every retry.
#[test]
fn promotion_passes_over_a_follower_whose_image_is_corrupt() {
    let obs = Obs::noop();
    let recorder = Arc::new(FlightRecorder::new(64));
    obs.set_subscriber(recorder.clone());
    let (backends, mut followers) = followers();
    let (primary, _) = Auditor::recover_with_obs(
        Arc::new(MemBackend::new()),
        AuditorConfig::default(),
        key(0),
        &obs,
    )
    .unwrap();
    arm(&primary, &followers, ReplicationPolicy::Quorum(1), 1, &obs).unwrap();
    let acked: Vec<_> = (0..2)
        .map(|i| primary.register_zone_durable(zone(i)).unwrap())
        .collect();
    drop(primary);

    backends[1].flip_bits(HEADER_LEN + FRAME_OVERHEAD + 2, 0x10);
    followers[1].1 = Arc::new(Follower::with_obs(Arc::clone(&backends[1]) as _, &obs));
    assert!(
        followers[1].1.acked_offset() < followers[0].1.acked_offset(),
        "f1 acked bytes it cannot verify"
    );
    assert_eq!(obs.snapshot().counter("repl.chain_divergence"), 1);
    let warned = recorder
        .events()
        .into_iter()
        .filter(|e| e.level == Level::Warn && e.target == "repl")
        .count();
    assert_eq!(warned, 1);

    let promotion = promote(
        &mut followers,
        ReplicationPolicy::Quorum(1),
        AuditorConfig::default(),
        key(0),
        &obs,
    )
    .unwrap();
    assert_eq!(promotion.follower, "f0");
    for id in acked {
        assert!(
            promotion.auditor.zone(id).is_some(),
            "acked zone {id} lost at failover"
        );
    }
    // The damaged follower takes the new primary's image whole.
    assert_eq!(
        followers[0].1.image().unwrap(),
        backends[0].bytes(),
        "f1 converged on the promoted image"
    );
}

/// Follower 0 is cut off before a compaction and holds the old image;
/// follower 1 takes the compacted one, whose snapshot record then rots,
/// and restarts. The history before the compacted image's base lived
/// only in that snapshot run, so follower 1 holds no record and acks 0
/// rather than its header's base: the rule promotes follower 0, which
/// keeps every zone it held. Promoting follower 1 would recover an
/// empty auditor and then replace follower 0's image with it.
#[test]
fn promotion_passes_over_a_compacted_follower_that_lost_its_snapshot() {
    let obs = Obs::noop();
    let (backends, mut followers) = followers();
    let (primary, _) = Auditor::recover_with_obs(
        Arc::new(MemBackend::new()),
        AuditorConfig::default(),
        key(0),
        &obs,
    )
    .unwrap();
    let plane = FaultPlane::new(0);
    let mut replicator = Replicator::new(&obs, ReplicationPolicy::Quorum(1));
    let mut switches = Vec::new();
    for (name, follower) in &followers {
        let link = FaultyLink::new(
            InProcessLink::new(Arc::clone(follower)),
            &plane,
            &format!("repl.{name}"),
        );
        switches.push(link.partition_switch());
        replicator = replicator.with_follower(name.clone(), link);
    }
    primary.set_replicator(Arc::new(replicator));
    primary.begin_epoch(1).unwrap();
    let held = primary.register_zone_durable(zone(0)).unwrap();
    switches[0].partition();
    primary.register_zone_durable(zone(1)).unwrap();
    primary.compact_journal().unwrap();
    primary.register_zone_durable(zone(2)).unwrap();
    drop(primary);

    let lagging = followers[0].1.acked_offset();
    assert!(
        followers[1].1.acked_offset() > lagging,
        "f1 took the compacted image"
    );
    backends[1].flip_bits(HEADER_LEN + FRAME_OVERHEAD + 2, 0x10);
    followers[1].1 = Arc::new(Follower::with_obs(Arc::clone(&backends[1]) as _, &obs));
    assert_eq!(followers[1].1.acked_offset(), 0, "f1 holds no record");
    assert_eq!(obs.snapshot().counter("repl.chain_divergence"), 1);

    let promotion = promote(
        &mut followers,
        ReplicationPolicy::Quorum(1),
        AuditorConfig::default(),
        key(0),
        &obs,
    )
    .unwrap();
    assert_eq!(promotion.follower, "f0");
    assert!(
        promotion.auditor.zone(held).is_some(),
        "f0's zone lost at failover"
    );
}

/// A journaled primary booted at epoch 1 under `Quorum(1)` over one
/// follower, with its backend, the follower and the switch that cuts
/// the link.
fn one_follower_primary() -> (Auditor, Arc<MemBackend>, Arc<Follower>, PartitionSwitch) {
    let obs = Obs::noop();
    let backend = Arc::new(MemBackend::new());
    let (primary, _) = Auditor::recover_with_obs(
        Arc::clone(&backend) as Arc<dyn StorageBackend>,
        AuditorConfig::default(),
        key(0),
        &obs,
    )
    .unwrap();
    let follower = Arc::new(Follower::new(Arc::new(MemBackend::new())));
    let link = FaultyLink::new(
        InProcessLink::new(Arc::clone(&follower)),
        &FaultPlane::new(0),
        "repl.f0",
    );
    let switch = link.partition_switch();
    let replicator = Replicator::new(&obs, ReplicationPolicy::Quorum(1)).with_follower("f0", link);
    primary.set_replicator(Arc::new(replicator));
    primary.begin_epoch(1).unwrap();
    (primary, backend, follower, switch)
}

/// While the only follower is cut off, the first write is appended and
/// left pending (`quorum lost`), and every later one is refused with
/// `Overloaded` before it is appended, so the journal grows by one
/// write only. Once the link heals, the next write commits the pending
/// zone and its own: two zones, not one per refused call.
#[test]
fn a_lost_quorum_holds_one_write_and_refuses_the_rest_unwritten() {
    let (primary, backend, _follower, switch) = one_follower_primary();
    switch.partition();
    let before = backend.len();
    let err = primary.register_zone_durable(zone(0)).unwrap_err();
    assert!(err.to_string().contains("quorum lost"), "{err}");
    let one_write = backend.len();
    assert!(one_write > before, "the first write was not appended");
    for i in 1..50 {
        let err = primary.register_zone_durable(zone(i)).unwrap_err();
        assert!(
            matches!(err, ProtocolError::Overloaded { .. }),
            "write {i}: {err}"
        );
    }
    assert_eq!(backend.len(), one_write, "a refused write was appended");
    assert_eq!(primary.zone_count(), 0);
    switch.heal();
    primary.register_zone_durable(zone(50)).unwrap();
    assert_eq!(primary.zone_count(), 2);
}

/// A compaction after the link heals commits the write left pending,
/// with no client write, then compacts: the image starts with a
/// snapshot, the follower holds it, and it recovers both zones. While
/// the link is still down, the compaction is skipped.
#[test]
fn a_compaction_after_the_link_heals_commits_the_pending_write() {
    let (primary, backend, follower, switch) = one_follower_primary();
    primary.register_zone_durable(zone(0)).unwrap();
    switch.partition();
    primary.register_zone_durable(zone(1)).unwrap_err();
    primary.compact_journal().unwrap();
    assert_eq!(
        primary.zone_count(),
        1,
        "skipped while the write is pending"
    );
    switch.heal();
    primary.compact_journal().unwrap();
    assert_eq!(primary.zone_count(), 2);
    assert_eq!(primary.audit_tree_size(), 2);
    assert_eq!(follower.image().unwrap(), backend.bytes());
    let (recovered, report) = Auditor::recover(
        Arc::new(MemBackend::with_bytes(backend.bytes())) as Arc<dyn StorageBackend>,
        AuditorConfig::default(),
        key(0),
    )
    .unwrap();
    assert!(report.snapshot_loaded, "the journal was not compacted");
    assert_eq!(recovered.snapshot(), primary.snapshot());
}
