//! The tenant script of the two wire workloads: the mix of
//! `dmc_experiments::service::run_service_script` (batched offers,
//! cohort departures, malformed offers, corrupted frames and a path
//! failing for one tick out of every five), made unbounded and
//! parameterised by region count, cohort hold time and rate range.
//!
//! With [`Mix::WIRE_8SHARD`] the per-tick frames are exactly those of
//! `run_service_script(seed, …, 8, 1)`; the unit test below pins that by
//! comparing decision hashes.

use std::collections::VecDeque;

use dmc_proto::wire::{DepartFrame, LinkChangeFrame, OfferFrame};
use dmc_sim::LinkChange;

use crate::util::SeedStream;

/// The knobs that distinguish the two wire workloads.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    /// Two-path capacity regions (`region_paths(regions)`).
    pub regions: usize,
    /// Ticks an admitted cohort stays before it departs.
    pub hold_ticks: usize,
    /// Offer data-rate range, bits/second.
    pub rate: (f64, f64),
}

impl Mix {
    /// `run_service_script`'s mix over 8 regions.
    pub const WIRE_8SHARD: Mix = Mix {
        regions: 8,
        hold_ticks: 2,
        rate: (3e6, 12e6),
    };

    /// One region holding about 64 flows (8 offers × 8 ticks), rates
    /// scaled so that about 90% are admitted.
    pub const REGION_64FLOWS: Mix = Mix {
        regions: 1,
        hold_ticks: 8,
        rate: (0.3e6, 1.6e6),
    };
}

/// Offers per tick (as in `run_service_script`).
pub const OFFERS_PER_TICK: u64 = 8;

/// One offer of a tick, already encoded.
pub struct Offer {
    /// Client tag, echoed in the decision frame.
    pub tag: u64,
    pub frame: OfferFrame,
    /// The bytes handed to the service (flipped bits when `corrupt`).
    pub bytes: Vec<u8>,
    /// Negative rate: must be answered `Invalid`.
    pub malformed: bool,
    /// Checksum broken: must be dropped without an answer.
    pub corrupt: bool,
}

/// Everything the client sends in one tick, in submission order.
pub struct TickFrames {
    pub offers: Vec<Offer>,
    /// (departing global flow id, encoded frame).
    pub departs: Vec<(u64, Vec<u8>)>,
    /// (path, change, encoded frame).
    pub link: Option<(usize, LinkChange, Vec<u8>)>,
}

/// The unbounded, seeded client script.
pub struct Script {
    mix: Mix,
    rng: SeedStream,
    groups: Vec<Vec<usize>>,
    num_paths: usize,
    offered: u64,
    ticks: u64,
    live: VecDeque<Vec<u64>>,
    failed_path: Option<usize>,
}

impl Script {
    pub fn new(mix: Mix, seed: u64) -> Self {
        let (paths, groups) = dmc_experiments::service::region_paths(mix.regions);
        Script {
            mix,
            rng: SeedStream::new(seed),
            groups,
            num_paths: paths.len(),
            offered: 0,
            ticks: 0,
            live: VecDeque::new(),
            failed_path: None,
        }
    }

    /// The frames of the next tick. `offers` caps the offers still to be
    /// made (the bounded replay in the tests); the workloads pass
    /// [`OFFERS_PER_TICK`].
    pub fn next_tick(&mut self, offers: u64) -> TickFrames {
        let regions = self.mix.regions;
        let mut out = TickFrames {
            offers: Vec::with_capacity(offers as usize),
            departs: Vec::new(),
            link: None,
        };
        for _ in 0..offers {
            let tag = self.offered;
            self.offered += 1;
            let roll = self.rng.next_u64();
            let region = (roll % regions as u64) as usize;
            let spanning = regions > 1 && roll % 16 == 7;
            let subset: Vec<usize> = if spanning {
                let other = (region + 1) % regions;
                let mut s = self.groups[region].clone();
                s.extend(&self.groups[other]);
                s.sort_unstable();
                s
            } else {
                self.groups[region].clone()
            };
            let mut frame = OfferFrame {
                seq: tag,
                data_rate: self.rng.in_range(self.mix.rate.0, self.mix.rate.1),
                lifetime: self.rng.in_range(0.5, 1.2),
                min_quality: self.rng.in_range(0.0, 0.7),
                cost_budget: f64::INFINITY,
                priority: 1.0 + self.rng.in_range(0.0, 3.0),
                transmissions: 2,
                path_mask: OfferFrame::mask_for(&subset)
                    .expect("region paths stay within the 128-bit mask"),
            };
            let malformed = roll % 32 == 19;
            if malformed {
                frame.data_rate = -frame.data_rate;
            }
            let mut bytes = frame.encode().to_vec();
            let corrupt = roll % 64 == 33;
            if corrupt {
                bytes[12] ^= 0x08;
            }
            out.offers.push(Offer {
                tag,
                frame,
                bytes,
                malformed,
                corrupt,
            });
        }
        if self.live.len() >= self.mix.hold_ticks {
            if let Some(cohort) = self.live.pop_front() {
                for flow in cohort {
                    out.departs
                        .push((flow, DepartFrame { seq: flow, flow }.encode().to_vec()));
                }
            }
        }
        if let Some(path) = self.failed_path.take() {
            let frame = LinkChangeFrame::from_change(0, path as u16, &LinkChange::Recover);
            out.link = Some((path, LinkChange::Recover, frame.encode().to_vec()));
        } else if self.ticks % 5 == 3 {
            let path = ((self.ticks * 7) as usize) % self.num_paths;
            let frame = LinkChangeFrame::from_change(0, path as u16, &LinkChange::Fail);
            out.link = Some((path, LinkChange::Fail, frame.encode().to_vec()));
            self.failed_path = Some(path);
        }
        out
    }

    /// Closes the tick: `admitted` (global flow ids, in decision order)
    /// depart `hold_ticks` ticks from now.
    pub fn finish_tick(&mut self, admitted: Vec<u64>) {
        self.ticks += 1;
        self.live.push_back(admitted);
    }

    /// Whether any admitted cohort is still waiting to depart.
    #[cfg(test)]
    pub fn has_live(&self) -> bool {
        self.live.iter().any(|c| !c.is_empty())
    }

    #[cfg(test)]
    pub fn offered(&self) -> u64 {
        self.offered
    }
}

#[cfg(test)]
mod tests {
    use dmc_fleet::{FleetService, ServiceConfig};
    use dmc_proto::wire::{DecisionFrame, Verdict};

    use super::*;

    /// Bounded like `run_service_script`: stop offering after `flows`,
    /// keep ticking until every admitted cohort has departed.
    fn replay(seed: u64, flows: u64) -> u64 {
        let (paths, groups) = dmc_experiments::service::region_paths(Mix::WIRE_8SHARD.regions);
        let mut service = FleetService::new(
            paths,
            &groups,
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        let mut script = Script::new(Mix::WIRE_8SHARD, seed);
        loop {
            let frames = script.next_tick(OFFERS_PER_TICK.min(flows - script.offered()));
            for offer in &frames.offers {
                assert_eq!(service.handle_frame(&offer.bytes).is_none(), offer.corrupt);
            }
            for (_, bytes) in &frames.departs {
                assert!(service.handle_frame(bytes).is_some());
            }
            if let Some((_, _, bytes)) = &frames.link {
                assert!(service.handle_frame(bytes).is_some());
            }
            let (encoded, _) = service.tick_frames().unwrap();
            let admitted = encoded
                .iter()
                .map(|b| DecisionFrame::decode(b).unwrap())
                .filter(|d| d.verdict == Verdict::Admitted)
                .map(|d| d.flow)
                .collect();
            script.finish_tick(admitted);
            if script.offered() >= flows && !script.has_live() {
                return service.decision_hash();
            }
        }
    }

    #[test]
    fn wire_8shard_script_is_run_service_script() {
        for seed in [1, 0xFEED] {
            let reference = dmc_experiments::service::run_service_script(seed, 300, 8, 1);
            assert_eq!(replay(seed, 300), reference.decision_hash, "seed {seed}");
        }
    }
}
