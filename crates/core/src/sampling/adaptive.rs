//! The adaptive sampling algorithm (paper §IV-C3, Algorithm 1).
//!
//! Let `S₁` be the last sample recorded in the PoA and `S₂` the latest
//! measurement, with `D₁`, `D₂` their distances to the boundary of the
//! nearest no-fly zone. With GPS update rate `R`, Algorithm 1 records
//! `S₂` when
//!
//! ```text
//! t₂ − t₁  ≤  (D₁ + D₂) / v_max  ≤  t₂ − t₁ + 2/R        (eq. 2 ∧ 3)
//! ```
//!
//! i.e. the pair is *still* sufficient now (eq. 2) but would *not* be
//! after one more skipped update (eq. 3).
//!
//! **Recovery deviation.** As printed, Algorithm 1 never samples again
//! once eq. 2 has failed (e.g. after a GPS dropout): the left inequality
//! stays false while the drone remains near the zone, so the PoA gap
//! grows forever. The paper's own field study shows the prototype
//! recovering — adaptive sampling records exactly one insufficient pair
//! at the dropout, not a truncated trace (§VI-A3). We therefore sample
//! whenever the *right* inequality holds (`D₁+D₂ ≤ v_max(t₂−t₁+2/R)`),
//! which equals Algorithm 1 when eq. 2 holds and recovers immediately
//! (accepting the one already-insufficient pair) when it does not.

use std::sync::Arc;

use alidrone_geo::{GpsSample, Speed, ZoneSet, FAA_MAX_SPEED};
use alidrone_gps::GpsFix;
use alidrone_obs::{Counter, Level, Obs};

use super::{Decision, SamplingPolicy};

/// The paper's adaptive sampler.
#[derive(Debug, Clone)]
pub struct AdaptiveSampler {
    zones: ZoneSet,
    v_max: Speed,
    hw_rate_hz: f64,
    last_recorded: Option<GpsSample>,
    strict: bool,
    pairwise: bool,
    obs: Obs,
    samples: Arc<Counter>,
    skips: Arc<Counter>,
}

impl AdaptiveSampler {
    /// Creates an adaptive sampler for the given zone set, the FAA
    /// `v_max`, and the receiver's hardware update rate `R`.
    pub fn new(zones: ZoneSet, hw_rate_hz: f64) -> Self {
        Self::with_v_max(zones, hw_rate_hz, FAA_MAX_SPEED)
    }

    /// As [`new`](Self::new) with an explicit speed bound.
    pub fn with_v_max(zones: ZoneSet, hw_rate_hz: f64, v_max: Speed) -> Self {
        let obs = Obs::noop();
        let samples = obs.counter("sampler.decisions.sample");
        let skips = obs.counter("sampler.decisions.skip");
        AdaptiveSampler {
            zones,
            v_max,
            hw_rate_hz: hw_rate_hz.max(0.1),
            last_recorded: None,
            strict: false,
            pairwise: false,
            obs,
            samples,
            skips,
        }
    }

    /// Routes decision counters and rate-change events (with the
    /// Algorithm 1 distance terms `D₁`, `D₂` as fields) into `obs`.
    pub fn with_obs(mut self, obs: &Obs) -> Self {
        self.obs = obs.clone();
        self.samples = obs.counter("sampler.decisions.sample");
        self.skips = obs.counter("sampler.decisions.skip");
        self
    }

    /// A variant that evaluates the trigger against **every** zone (the
    /// minimum of `D₁+D₂` over the zone set) instead of only the zone
    /// nearest to the current fix.
    ///
    /// The paper argues the nearest zone suffices ("a PoA proving alibi
    /// to the nearest NFZ is also sufficient for the other NFZs",
    /// §IV-C3) — which holds pointwise per sample, but **not per pair**:
    /// at a sharp turn between two zones, the zone nearest to `S₂` can
    /// differ from the zone minimising `D₁+D₂`, and the nearest-zone
    /// trigger fires too late, leaving one insufficient pair at the
    /// corner. This reproduction discovered the case empirically (see
    /// EXPERIMENTS.md); the pairwise variant closes it at the same
    /// O(|Z|) per-update cost.
    pub fn pairwise_safe(zones: ZoneSet, hw_rate_hz: f64) -> Self {
        AdaptiveSampler {
            pairwise: true,
            ..Self::new(zones, hw_rate_hz)
        }
    }

    /// The *literal* Algorithm 1: requires eq. 2 **and** eq. 3 — no
    /// recovery once a pair has already gone insufficient. Exists for the
    /// ablation study showing why the prototype cannot have behaved this
    /// way (one dropout near a zone stalls sampling permanently).
    pub fn strict_paper(zones: ZoneSet, hw_rate_hz: f64) -> Self {
        AdaptiveSampler {
            strict: true,
            ..Self::new(zones, hw_rate_hz)
        }
    }

    /// The last PoA sample this policy knows about.
    pub fn last_recorded(&self) -> Option<&GpsSample> {
        self.last_recorded.as_ref()
    }
}

impl SamplingPolicy for AdaptiveSampler {
    fn decide(&mut self, fix: &GpsFix) -> Decision {
        // The very first sample anchors the PoA.
        let Some(last) = self.last_recorded else {
            self.samples.inc();
            self.obs
                .emit(Level::Info, "sampler.adaptive", "anchor_sample", |f| {
                    f.field("t", fix.sample.time().secs());
                });
            return Decision::Sample;
        };
        let dt = fix.sample.time().since(last.time());
        if dt.secs() <= 0.0 {
            // Stale measurement (dropout repeating the old fix).
            self.skips.inc();
            return Decision::Skip;
        }
        if self.zones.is_empty() {
            // No zones: nothing to prove, skip (the flight driver still
            // records takeoff/landing anchors).
            self.skips.inc();
            return Decision::Skip;
        }
        let (d1, d2) = if self.pairwise {
            // Tightest zone across the *pair*: min over zones of D1+D2.
            self.zones
                .iter()
                .map(|z| {
                    (
                        z.boundary_distance(&last.point()).meters(),
                        z.boundary_distance(&fix.sample.point()).meters(),
                    )
                })
                .min_by(|a, b| (a.0 + a.1).total_cmp(&(b.0 + b.1)))
                .expect("non-empty zones")
        } else {
            // Only the nearest zone matters (paper §IV-C3, Algorithm 1).
            let (zone, d2) = self
                .zones
                .nearest_with_distance(&fix.sample.point())
                .expect("non-empty");
            (zone.boundary_distance(&last.point()).meters(), d2.meters())
        };
        let budget_now = self.v_max.mps() * dt.secs();
        let budget_next = self.v_max.mps() * (dt.secs() + 2.0 / self.hw_rate_hz);
        if self.strict && d1 + d2 < budget_now {
            // Literal Algorithm 1: eq. 2 already failed; never sample.
            self.skips.inc();
            return Decision::Skip;
        }
        if d1 + d2 <= budget_next {
            // The effective sampling rate steps up here: the trigger
            // fired because the distance budget is nearly exhausted.
            self.samples.inc();
            self.obs
                .emit(Level::Info, "sampler.adaptive", "rate_change", |f| {
                    f.field("d1_m", d1)
                        .field("d2_m", d2)
                        .field("dt_s", dt.secs())
                        .field("budget_m", budget_next);
                });
            Decision::Sample
        } else {
            self.skips.inc();
            Decision::Skip
        }
    }

    fn on_recorded(&mut self, sample: &GpsSample) {
        self.last_recorded = Some(*sample);
    }

    fn name(&self) -> String {
        match (self.strict, self.pairwise) {
            (true, _) => "adaptive-strict".to_string(),
            (_, true) => "adaptive-pairwise".to_string(),
            _ => "adaptive".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alidrone_geo::{Distance, GeoPoint, NoFlyZone, Timestamp};
    use alidrone_gps::GpsFix;

    fn origin() -> GeoPoint {
        GeoPoint::new(40.1, -88.2).unwrap()
    }

    fn fix_at(dist_east_m: f64, t: f64) -> GpsFix {
        GpsFix {
            sample: GpsSample::new(
                origin().destination(90.0, Distance::from_meters(dist_east_m)),
                Timestamp::from_secs(t),
            ),
            speed: Speed::from_mps(10.0),
            sequence: (t * 5.0) as u64,
        }
    }

    fn zone_north(dist_m: f64, radius_m: f64) -> ZoneSet {
        std::iter::once(NoFlyZone::new(
            origin().destination(0.0, Distance::from_meters(dist_m)),
            Distance::from_meters(radius_m),
        ))
        .collect()
    }

    #[test]
    fn first_update_always_sampled() {
        let mut s = AdaptiveSampler::new(ZoneSet::new(), 5.0);
        assert_eq!(s.decide(&fix_at(0.0, 0.0)), Decision::Sample);
    }

    #[test]
    fn far_zone_skips() {
        // Zone 10 km away: pairs stay sufficient for a long time.
        let mut s = AdaptiveSampler::new(zone_north(10_000.0, 50.0), 5.0);
        s.on_recorded(&fix_at(0.0, 0.0).sample);
        for k in 1..50 {
            let d = s.decide(&fix_at(2.0 * k as f64, 0.2 * k as f64));
            assert_eq!(d, Decision::Skip, "update {k}");
        }
    }

    #[test]
    fn samples_just_before_insufficiency() {
        // Zone boundary 500 m away; D1+D2 ≈ 1000 m; at v_max 44.7 m/s the
        // budget reaches 1000 m at dt ≈ 22.4 s; with R = 5 Hz the trigger
        // window starts at dt ≈ 22.4 − 0.4 s.
        let zones = zone_north(600.0, 100.0);
        let mut s = AdaptiveSampler::new(zones, 5.0);
        s.on_recorded(&fix_at(0.0, 0.0).sample);
        // Drone hovers at the same spot (D constant).
        assert_eq!(s.decide(&fix_at(0.0, 21.6)), Decision::Skip);
        assert_eq!(s.decide(&fix_at(0.0, 22.0)), Decision::Sample);
    }

    #[test]
    fn recovers_after_dropout() {
        // After a long dropout the pair is already insufficient; the
        // sampler must sample immediately rather than deadlock.
        let zones = zone_north(600.0, 100.0);
        let mut s = AdaptiveSampler::new(zones, 5.0);
        s.on_recorded(&fix_at(0.0, 0.0).sample);
        assert_eq!(s.decide(&fix_at(0.0, 60.0)), Decision::Sample);
    }

    #[test]
    fn stale_fix_skipped() {
        let zones = zone_north(100.0, 50.0);
        let mut s = AdaptiveSampler::new(zones, 5.0);
        let f = fix_at(0.0, 1.0);
        s.on_recorded(&f.sample);
        // Same timestamp (receiver dropped the update): skip.
        assert_eq!(s.decide(&f), Decision::Skip);
    }

    #[test]
    fn no_zones_never_samples_after_first() {
        let mut s = AdaptiveSampler::new(ZoneSet::new(), 5.0);
        assert_eq!(s.decide(&fix_at(0.0, 0.0)), Decision::Sample);
        s.on_recorded(&fix_at(0.0, 0.0).sample);
        assert_eq!(s.decide(&fix_at(10.0, 1.0)), Decision::Skip);
        assert_eq!(s.decide(&fix_at(1_000.0, 100.0)), Decision::Skip);
    }

    #[test]
    fn closer_zone_drives_rate_up() {
        // Two zones; when the drone nears the small one, sampling must
        // trigger on its distance, not the far one's.
        let near = NoFlyZone::new(
            origin().destination(0.0, Distance::from_meters(60.0)),
            Distance::from_meters(10.0),
        );
        let far = NoFlyZone::new(
            origin().destination(0.0, Distance::from_km(50.0)),
            Distance::from_meters(10.0),
        );
        let zones: ZoneSet = [far, near].into_iter().collect();
        let mut s = AdaptiveSampler::new(zones, 5.0);
        s.on_recorded(&fix_at(0.0, 0.0).sample);
        // D1 = D2 = 50 m ⇒ trigger when 100 ≤ 44.7·(dt+0.4):
        // dt ≥ 1.84 s.
        assert_eq!(s.decide(&fix_at(0.0, 1.6)), Decision::Skip);
        assert_eq!(s.decide(&fix_at(0.0, 2.0)), Decision::Sample);
    }

    #[test]
    fn pairwise_variant_matches_nearest_for_single_zone() {
        // With one zone the nearest-zone and pairwise rules coincide.
        let zones = zone_north(600.0, 100.0);
        for dt in [5.0, 15.0, 21.0, 22.0, 30.0] {
            let mut near = AdaptiveSampler::new(zones.clone(), 5.0);
            let mut pair = AdaptiveSampler::pairwise_safe(zones.clone(), 5.0);
            near.on_recorded(&fix_at(0.0, 0.0).sample);
            pair.on_recorded(&fix_at(0.0, 0.0).sample);
            let f = fix_at(0.0, dt);
            assert_eq!(near.decide(&f), pair.decide(&f), "dt={dt}");
        }
    }

    #[test]
    fn rate_change_events_carry_distances() {
        use alidrone_obs::FlightRecorder;
        use std::sync::Arc;

        let obs = Obs::noop();
        let recorder = Arc::new(FlightRecorder::new(16));
        obs.set_subscriber(recorder.clone());
        // Hovering 500 m from the boundary: skip at 21.6 s, sample at
        // 22.0 s (see samples_just_before_insufficiency).
        let mut s = AdaptiveSampler::new(zone_north(600.0, 100.0), 5.0).with_obs(&obs);
        s.on_recorded(&fix_at(0.0, 0.0).sample);
        assert_eq!(s.decide(&fix_at(0.0, 21.6)), Decision::Skip);
        assert_eq!(s.decide(&fix_at(0.0, 22.0)), Decision::Sample);

        let snap = obs.snapshot();
        assert_eq!(snap.counter("sampler.decisions.sample"), 1);
        assert_eq!(snap.counter("sampler.decisions.skip"), 1);
        let events = recorder.events();
        let ev = events
            .iter()
            .find(|e| e.message == "rate_change")
            .expect("rate_change event");
        let d1 = ev.field("d1_m").unwrap().as_f64().unwrap();
        let d2 = ev.field("d2_m").unwrap().as_f64().unwrap();
        assert!((d1 - 500.0).abs() < 1.0, "d1 {d1}");
        assert!((d2 - 500.0).abs() < 1.0, "d2 {d2}");
        assert_eq!(ev.field("dt_s").unwrap().as_f64(), Some(22.0));
    }

    #[test]
    fn policy_names_distinguish_variants() {
        let z = zone_north(100.0, 10.0);
        assert_eq!(AdaptiveSampler::new(z.clone(), 5.0).name(), "adaptive");
        assert_eq!(
            AdaptiveSampler::pairwise_safe(z.clone(), 5.0).name(),
            "adaptive-pairwise"
        );
        assert_eq!(
            AdaptiveSampler::strict_paper(z, 5.0).name(),
            "adaptive-strict"
        );
    }

    #[test]
    fn strict_variant_deadlocks_after_dropout() {
        // The literal Algorithm 1: once the pair is already insufficient
        // (dropout pushed dt past the window), it never samples again
        // while the drone stays near the zone — the recovery ablation.
        let zones = zone_north(600.0, 100.0);
        let mut strict = AdaptiveSampler::strict_paper(zones.clone(), 5.0);
        let mut recovering = AdaptiveSampler::new(zones, 5.0);
        for s in [&mut strict, &mut recovering] {
            s.on_recorded(&fix_at(0.0, 0.0).sample);
        }
        // Window for D=500 m each side ends at dt ≈ 22.4 s; at 60 s the
        // pair is long insufficient.
        assert_eq!(strict.decide(&fix_at(0.0, 60.0)), Decision::Skip);
        assert_eq!(strict.decide(&fix_at(0.0, 120.0)), Decision::Skip);
        assert_eq!(recovering.decide(&fix_at(0.0, 60.0)), Decision::Sample);
    }

    #[test]
    fn strict_and_recovering_agree_inside_window() {
        let zones = zone_north(600.0, 100.0);
        for dt in [5.0, 15.0, 21.0, 22.0] {
            let mut strict = AdaptiveSampler::strict_paper(zones.clone(), 5.0);
            let mut rec = AdaptiveSampler::new(zones.clone(), 5.0);
            strict.on_recorded(&fix_at(0.0, 0.0).sample);
            rec.on_recorded(&fix_at(0.0, 0.0).sample);
            let f = fix_at(0.0, dt);
            assert_eq!(strict.decide(&f), rec.decide(&f), "dt={dt}");
        }
    }

    #[test]
    fn paper_window_semantics_hold() {
        // When eq. 2 holds, our rule must agree exactly with Algorithm 1:
        // sample iff (D1+D2)/vmax ≤ dt + 2/R.
        let zones = zone_north(600.0, 100.0);
        let v = FAA_MAX_SPEED.mps();
        for dt in [5.0, 10.0, 15.0, 20.0, 21.0, 22.0, 22.3] {
            let mut s = AdaptiveSampler::new(zones.clone(), 5.0);
            s.on_recorded(&fix_at(0.0, 0.0).sample);
            let d_sum = 2.0 * 500.0; // hovering at 500 m from boundary
            let alg1 = dt <= d_sum / v && d_sum / v <= dt + 0.4;
            let ours = s.decide(&fix_at(0.0, dt)) == Decision::Sample;
            if d_sum / v >= dt {
                assert_eq!(alg1, ours, "dt={dt}");
            }
        }
    }
}
