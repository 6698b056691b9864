//! Deterministic device-fault injection — the failure model of the
//! simulated fleet.
//!
//! The paper's fleet story (and the ROADMAP's production north star) needs
//! more than failure *bookkeeping*: real GPU fleets lose devices and links
//! routinely. A [`FaultPlan`] is a seeded, **fully deterministic**
//! description of what goes wrong on a fleet during one campaign:
//!
//! * **transient launch faults** — an attempt dies mid-flight (an ECC trip,
//!   an Xid launch error); the device was busy for a deterministic fraction
//!   of the attempt before the fault struck, then the work is lost;
//! * **hangs** — the attempt never completes; a watchdog reclaims the
//!   device. The campaign's deadline for a hung attempt is a small multiple
//!   of the attempt's priced hold, capped by
//!   [`crate::DeviceSpec::watchdog_timeout_s`] (the TDR-style timer every
//!   real driver arms);
//! * **link flaps** — the attempt completes, but its H2D/D2H legs ran over
//!   a degraded link and are re-priced by a deterministic factor
//!   ([`crate::EndToEnd::repriced_transfers`]);
//! * **permanent device death** — a device drops out of the fleet at a
//!   deterministic timeline instant and never returns; everything still
//!   assigned to it must be rescheduled onto the survivors.
//!
//! The plan's unit is the device, the fleet's shard target: campaign
//! recovery draws faults and deaths by device (group) index.
//!
//! Every decision is a pure function of `(seed, group, attempt key)`
//! hashed through SplitMix64, so the same seed replays the same faults
//! bit-for-bit — the property the chaos test tier pins. All knobs are
//! integers (per-mille rates, a doomed-device bit mask) so the plan stays
//! `Copy + Eq` and can ride inside fleet specs without poisoning their
//! equality.

/// SplitMix64 finalizer — one stateless mixing step (same constants as the
/// public-domain splitmix64.c and `zc-data`'s generator; carried here so
/// the simulator stays dependency-free).
#[inline]
fn mix(v: u64) -> u64 {
    let mut z = v.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash a `(seed, channel, group, key)` tuple into 64 uniform bits. Each
/// fault channel draws from its own stream so e.g. raising the hang rate
/// never changes *which* attempts take transient faults.
#[inline]
fn draw(seed: u64, channel: u64, group: u32, key: u64) -> u64 {
    mix(mix(seed ^ channel.wrapping_mul(0xA076_1D64_78BD_642F)) ^ mix(key) ^ (group as u64) << 32)
}

/// Uniform fraction in `[0, 1)` from 53 hashed bits.
#[inline]
fn frac01(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

const CH_TRANSIENT: u64 = 1;
const CH_HANG: u64 = 2;
const CH_FLAP: u64 = 3;
const CH_DEATH: u64 = 4;
const CH_DEATH_AT: u64 = 5;
const CH_ABORT_FRAC: u64 = 6;
const CH_FLAP_FACTOR: u64 = 7;

/// What the fault plan decided for one execution attempt.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultDraw {
    /// The attempt runs clean.
    None,
    /// A transient launch fault kills the attempt after `abort_frac` of
    /// its nominal span; the partial work is lost but the device was busy
    /// (and reading field bytes) for that fraction.
    Transient {
        /// Fraction of the nominal attempt span executed before the fault.
        abort_frac: f64,
    },
    /// The attempt hangs; the device is reclaimed only when the watchdog
    /// trips, and no work survives.
    Hang,
    /// The attempt completes, but its transfer legs ran over a flapping
    /// link and cost `factor`× their nominal time.
    LinkFlap {
        /// Multiplier applied to the H2D/D2H legs (`> 1`).
        factor: f64,
    },
}

/// A seeded, deterministic fleet fault model. `Copy + Eq` by construction
/// (integer rates and timeouts only): two fleets with the same plan are
/// the same fleet, and the same seed replays the same faults exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed of every fault stream.
    pub seed: u64,
    /// Per-attempt transient launch-fault probability, in per-mille
    /// (50 = 5%).
    pub transient_permille: u32,
    /// Per-attempt hang probability (watchdog trip), in per-mille.
    pub hang_permille: u32,
    /// Per-attempt link-flap probability, in per-mille.
    pub flap_permille: u32,
    /// Per-group permanent-death probability, in per-mille; a doomed
    /// group dies at a deterministic fraction of the fault-free makespan.
    pub death_permille: u32,
    /// Explicitly doomed groups (bit *i* dooms device group *i*) — the
    /// test- and demo-friendly way to stage a specific degraded-mode
    /// scenario on top of (or instead of) the seeded `death_permille` draw.
    pub death_mask: u64,
}

impl FaultPlan {
    /// The standard chaos plan: transient launch faults only, at
    /// `rate_permille` per attempt (the CLI's `--chaos <seed>:<rate>`).
    pub fn chaos(seed: u64, rate_permille: u32) -> Self {
        FaultPlan {
            seed,
            transient_permille: rate_permille.min(1000),
            hang_permille: 0,
            flap_permille: 0,
            death_permille: 0,
            death_mask: 0,
        }
    }

    /// Add seeded hang faults (watchdog trips) at `rate_permille`.
    pub fn with_hangs(mut self, rate_permille: u32) -> Self {
        self.hang_permille = rate_permille.min(1000);
        self
    }

    /// Add seeded link flaps at `rate_permille`.
    pub fn with_flaps(mut self, rate_permille: u32) -> Self {
        self.flap_permille = rate_permille.min(1000);
        self
    }

    /// Add seeded permanent deaths at `rate_permille` per device group.
    pub fn with_deaths(mut self, rate_permille: u32) -> Self {
        self.death_permille = rate_permille.min(1000);
        self
    }

    /// Doom device group `group` (in addition to any seeded deaths). The
    /// mask holds groups 0–63; a higher index leaves the plan unchanged.
    pub fn with_dead_device(mut self, group: u32) -> Self {
        if let Some(bit) = 1u64.checked_shl(group) {
            self.death_mask |= bit;
        }
        self
    }

    /// True when the plan can never inject anything.
    pub fn is_null(&self) -> bool {
        self.transient_permille == 0
            && self.hang_permille == 0
            && self.flap_permille == 0
            && self.death_permille == 0
            && self.death_mask == 0
    }

    /// The fault (if any) striking one execution attempt on device group
    /// `group`.
    /// `key` must be unique per (job part, attempt) — the campaign's
    /// recovery engine derives it from the job id and the attempt ordinal,
    /// which is unique per job — so retries re-roll instead of replaying
    /// the same fault.
    ///
    /// Hangs outrank transients outrank flaps: a hung launch never gets
    /// far enough to observe a slow link.
    pub fn attempt_fault(&self, group: u32, key: u64) -> FaultDraw {
        if self.hang_permille > 0
            && draw(self.seed, CH_HANG, group, key) % 1000 < self.hang_permille as u64
        {
            return FaultDraw::Hang;
        }
        if self.transient_permille > 0
            && draw(self.seed, CH_TRANSIENT, group, key) % 1000 < self.transient_permille as u64
        {
            return FaultDraw::Transient {
                abort_frac: frac01(draw(self.seed, CH_ABORT_FRAC, group, key)),
            };
        }
        if self.flap_permille > 0
            && draw(self.seed, CH_FLAP, group, key) % 1000 < self.flap_permille as u64
        {
            // Flapped legs cost 1.5–4× their healthy price.
            let f = frac01(draw(self.seed, CH_FLAP_FACTOR, group, key));
            return FaultDraw::LinkFlap {
                factor: 1.5 + 2.5 * f,
            };
        }
        FaultDraw::None
    }

    /// When (as a fraction of the fault-free campaign makespan) device
    /// group `group` permanently dies, or `None` if it survives the whole
    /// campaign. Seeded deaths strike at a deterministic per-`(seed, group)`
    /// instant inside the campaign; masked groups are dead on arrival (fraction
    /// `0.0`) — the way to stage a degraded-mode scenario that does not
    /// depend on how far the clocks happen to run.
    pub fn death_frac(&self, group: u32) -> Option<f64> {
        if group < 64 && self.death_mask & (1u64 << group) != 0 {
            return Some(0.0);
        }
        (self.death_permille > 0
            && draw(self.seed, CH_DEATH, group, 0) % 1000 < self.death_permille as u64)
            .then(|| frac01(draw(self.seed, CH_DEATH_AT, group, 0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_replays_identically() {
        let p = FaultPlan::chaos(42, 50).with_hangs(10).with_flaps(20);
        for device in 0..8 {
            for key in 0..64 {
                assert_eq!(
                    p.attempt_fault(device, key),
                    p.attempt_fault(device, key),
                    "device {device} key {key}"
                );
            }
            assert_eq!(p.death_frac(device), p.death_frac(device));
        }
    }

    #[test]
    fn rates_bound_the_draws() {
        let none = FaultPlan::chaos(7, 0);
        assert!(none.is_null());
        for key in 0..256 {
            assert_eq!(none.attempt_fault(0, key), FaultDraw::None);
        }
        let all = FaultPlan::chaos(7, 1000);
        for key in 0..256 {
            assert!(matches!(
                all.attempt_fault(0, key),
                FaultDraw::Transient { .. }
            ));
        }
    }

    #[test]
    fn five_percent_rate_is_roughly_five_percent() {
        let p = FaultPlan::chaos(42, 50);
        let n = 20_000u64;
        let faults = (0..n)
            .filter(|&k| p.attempt_fault((k % 8) as u32, k) != FaultDraw::None)
            .count();
        let rate = faults as f64 / n as f64;
        assert!((0.035..0.065).contains(&rate), "measured rate {rate}");
    }

    #[test]
    fn channels_are_independent() {
        // Turning hangs on must not change which attempts take transients
        // (each channel hashes its own stream).
        let base = FaultPlan::chaos(99, 100);
        let with_hangs = base.with_hangs(100);
        for key in 0..512 {
            let b = base.attempt_fault(3, key);
            let h = with_hangs.attempt_fault(3, key);
            if h != FaultDraw::Hang {
                assert_eq!(b, h, "key {key}");
            }
        }
    }

    #[test]
    fn death_mask_dooms_exactly_the_masked_devices() {
        let p = FaultPlan::chaos(1, 0)
            .with_dead_device(2)
            .with_dead_device(5);
        for device in 0..8 {
            let dead = p.death_frac(device).is_some();
            assert_eq!(dead, device == 2 || device == 5, "device {device}");
            // Masked devices are dead on arrival.
            if let Some(f) = p.death_frac(device) {
                assert_eq!(f, 0.0);
            }
        }
        // Seeded deaths strike at an instant strictly inside the campaign.
        let p = FaultPlan::chaos(1, 0).with_deaths(1000);
        for device in 0..8 {
            let f = p.death_frac(device).expect("1000‰ dooms every device");
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn a_group_past_the_mask_dooms_nothing() {
        // The mask holds groups 0–63; group 100 must not doom group 63.
        assert!(FaultPlan::chaos(1, 0).with_dead_device(100).is_null());
        let last = FaultPlan::chaos(1, 0).with_dead_device(63);
        assert_eq!(last.death_mask, 1 << 63);
        assert_eq!(last.death_frac(63), Some(0.0));
    }

    #[test]
    fn flap_factors_and_abort_fracs_stay_in_range() {
        let p = FaultPlan::chaos(3, 400).with_flaps(600);
        for key in 0..2048 {
            match p.attempt_fault(1, key) {
                FaultDraw::Transient { abort_frac } => {
                    assert!((0.0..1.0).contains(&abort_frac))
                }
                FaultDraw::LinkFlap { factor } => assert!((1.5..4.0).contains(&factor)),
                _ => {}
            }
        }
    }
}
