//! `horizon_mixed`: the reservation plane. A [`FleetService`] with a
//! 16-slot [`TimeGrid`] of 0.5 s over two regions; every cycle slides
//! the horizon by one slot (`advance_to`) and makes windowed offers
//! whose width (1–4 slots) and start offset vary, so the slotted LP
//! changes shape on every offer.
//!
//! Offer cost grows with the number of flows ever offered, so the run
//! is made of whole episodes of [`CYCLES`] cycles, each on a fresh
//! service; an episode never stops half way.

use std::time::{Duration, Instant};

use dmc_fleet::{
    FleetConfig, FleetService, FlowRequest, ScheduleDecision, ScheduleRequest, ServiceConfig,
    SlotWindow, TimeGrid,
};

use crate::report::{Counts, Metrics, Outcome};
use crate::service::{check_addback, raw_note};
use crate::util::{fnv1a, ratio, replay, Busy, Replay, SeedStream, Timeline, FNV_BASIS, REPLAYS};

const SLOT_S: f64 = 0.5;
const HORIZON_SLOTS: u64 = 16;
const REGIONS: usize = 2;
/// Cycles per episode (one horizon advance each): four horizons. Offer
/// cost still grows several-fold within an episode (`schedule.offer_growth`
/// reads about 9), and a run averages over tens of episodes, so which
/// episodes a seed draws moves the result little. With 200 cycles a run
/// held 3–4 episodes and its 99th percentile spread 0.30 between seeds.
pub const CYCLES: u64 = 64;
const OFFERS_PER_CYCLE: u64 = 1;
/// Cycles of the set-up warm-up: three full horizons.
const WARMUP_CYCLES: u64 = 3 * HORIZON_SLOTS;

/// One episode: a fresh service and its seeded client.
struct Episode {
    service: FleetService,
    groups: Vec<Vec<usize>>,
    rng: SeedStream,
    cycle: u64,
    /// FNV-1a over every decision's `Debug` form, when fingerprinting.
    hash: Option<u64>,
}

#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    answered: u64,
    admitted: u64,
    reserved: u64,
    quality_sum: f64,
    /// Cycle and offer times (untraced replays only).
    timeline: Timeline,
}

impl Tally {
    /// Hash of what the episodes decided, to compare replays.
    fn fingerprint(&self) -> u64 {
        let fields = [
            self.attempted,
            self.failed,
            self.answered,
            self.admitted,
            self.reserved,
            self.quality_sum.to_bits(),
        ];
        fields
            .iter()
            .fold(FNV_BASIS, |h, v| fnv1a(h, &v.to_le_bytes()))
    }
}

#[derive(Default)]
struct Layers {
    driver: Busy,
    offer: Busy,
    advance: Busy,
    /// Offer time in the first and the last quarter of each episode.
    first_quarter: Duration,
    last_quarter: Duration,
    wall: Duration,
}

impl Episode {
    fn new(seed: u64, index: u64, obs: dmc_obs::Obs, fingerprint: bool) -> Result<Self, String> {
        let (paths, groups) = dmc_experiments::service::region_paths(REGIONS);
        let grid = TimeGrid::new(SLOT_S, HORIZON_SLOTS as usize).map_err(|e| e.to_string())?;
        let service = FleetService::new(
            paths,
            &groups,
            ServiceConfig {
                workers: 1,
                fleet: FleetConfig {
                    obs,
                    ..FleetConfig::default()
                },
                grid: Some(grid),
            },
        )
        .map_err(|e| format!("service construction: {e}"))?;
        Ok(Episode {
            service,
            groups,
            rng: SeedStream::new(dmc_experiments::montecarlo::trial_seed(seed, index + 1)),
            cycle: 0,
            hash: fingerprint.then_some(FNV_BASIS),
        })
    }

    /// One cycle: slide the horizon, then offer.
    fn cycle(&mut self, tally: &mut Tally, mut layers: Option<&mut Layers>) -> Result<(), String> {
        let start = Instant::now();
        let mut mark = start;
        if self.cycle > 0 {
            let advanced = self.service.advance_to(self.cycle);
            if let Some(l) = layers.as_deref_mut() {
                let now = Instant::now();
                l.advance.add(now - mark);
                mark = now;
            }
            tally.attempted += 1;
            if advanced.is_err() {
                tally.failed += 1;
            }
        }
        let quarter = match self.cycle * 4 / CYCLES {
            0 => Some(true),
            3 => Some(false),
            _ => None,
        };
        for _ in 0..OFFERS_PER_CYCLE {
            let roll = self.rng.next_u64();
            let region = (roll % REGIONS as u64) as usize;
            let width = 1 + (roll >> 8) % 4;
            let offset = (roll >> 16) % (HORIZON_SLOTS - width + 1);
            let start = self.cycle + offset;
            let floor = self.rng.in_range(0.5, 0.95);
            let flow = FlowRequest::new(self.rng.in_range(30e6, 80e6), self.rng.in_range(0.5, 1.2))
                .map_err(|e| e.to_string())?
                .with_min_quality(floor)
                .with_paths(self.groups[region].clone());
            let window = SlotWindow::new(start, start + width).map_err(|e| e.to_string())?;
            let request = ScheduleRequest::new(flow, window);
            let submitted = Instant::now();
            if let Some(l) = layers.as_deref_mut() {
                l.driver.add(submitted - mark);
            }
            let answer = self.service.offer_windowed(request);
            let answered_at = Instant::now();
            tally.timeline.latency(answered_at - submitted);
            if let Some(l) = layers.as_deref_mut() {
                let d = answered_at - submitted;
                l.offer.add(d);
                match quarter {
                    Some(true) => l.first_quarter += d,
                    Some(false) => l.last_quarter += d,
                    None => {}
                }
            }
            mark = answered_at;
            tally.attempted += 1;
            let (got_region, decision) = match answer {
                Ok(answer) => answer,
                Err(_) => {
                    tally.failed += 1;
                    continue;
                }
            };
            if got_region != region {
                return Err(format!("offer for region {region} landed in {got_region}"));
            }
            check_decision(&decision, window, floor)?;
            tally.answered += 1;
            if let Some(q) = decision.predicted_quality() {
                tally.admitted += 1;
                tally.quality_sum += q;
            }
            if decision.is_reserved() {
                tally.reserved += 1;
            }
            if let Some(h) = &mut self.hash {
                *h = fnv1a(*h, format!("{decision:?}").as_bytes());
            }
        }
        self.cycle += 1;
        if let Some(l) = layers {
            l.driver.add(mark.elapsed());
        }
        tally.timeline.step(start.elapsed());
        Ok(())
    }
}

/// A scheduled flow runs in its requested window; a reserved one in a
/// later window of the same width; both meet their floor.
fn check_decision(
    decision: &ScheduleDecision,
    asked: SlotWindow,
    floor: f64,
) -> Result<(), String> {
    let ok = match decision {
        ScheduleDecision::Scheduled {
            window,
            predicted_quality,
            ..
        } => *window == asked && *predicted_quality >= floor - 1e-9,
        ScheduleDecision::Reserved {
            requested,
            window,
            predicted_quality,
            ..
        } => {
            *requested == asked
                && window.len() == asked.len()
                && window.start() > asked.start()
                && *predicted_quality >= floor - 1e-9
        }
        ScheduleDecision::Rejected { .. } => true,
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "decision {decision:?} breaks the request (window {asked}, floor {floor})"
        ))
    }
}

/// Runs one whole episode; returns its wall time, and its telemetry
/// snapshot when `obs` is enabled.
fn episode(
    seed: u64,
    index: u64,
    obs: dmc_obs::Obs,
    tally: &mut Tally,
    mut layers: Option<&mut Layers>,
) -> Result<(Duration, Option<dmc_obs::Snapshot>), String> {
    let start = Instant::now();
    let enabled = obs.is_enabled();
    let mut ep = Episode::new(seed, index, obs, false)?;
    tally.timeline.step(start.elapsed());
    if let Some(l) = layers.as_deref_mut() {
        l.driver.add(start.elapsed());
    }
    for _ in 0..CYCLES {
        ep.cycle(tally, layers.as_deref_mut())?;
    }
    let wall = start.elapsed();
    if let Some(l) = layers {
        l.wall += wall;
    }
    Ok((wall, enabled.then(|| ep.service.obs_snapshot())))
}

/// The set-up: a fresh service through [`WARMUP_CYCLES`] cycles; its
/// fingerprint is the hash of every decision.
fn set_up(seed: u64) -> Result<(Episode, u64), String> {
    let mut ep = Episode::new(seed, 0, dmc_obs::Obs::disabled(), true)?;
    let mut tally = Tally::default();
    for _ in 0..WARMUP_CYCLES {
        ep.cycle(&mut tally, None)?;
    }
    if tally.failed > 0 {
        return Err(format!(
            "{} operation(s) failed during warm-up",
            tally.failed
        ));
    }
    let hash = ep
        .hash
        .ok_or("set-up episodes fingerprint their decisions")?;
    Ok((ep, hash))
}

/// The counted pass: episode 1 with telemetry on. Its counters are
/// exact and repeat bit for bit for a seed; the traced run reads them
/// from its first traced episode, which is the same episode.
#[cfg(test)]
pub fn counted(seed: u64) -> Result<Counts, String> {
    let mut tally = Tally::default();
    let (_, snap) = episode(seed, 1, dmc_obs::Obs::enabled(), &mut tally, None)?;
    let snap = snap.ok_or("a telemetry-enabled episode yields a snapshot")?;
    Ok(Counts::new(snap, tally.answered, 0))
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let mut m = Metrics::default();
    let mut notes = Vec::new();
    let mut tally = Tally::default();
    let mut episodes = 0;
    if !traced {
        let run = replay(
            seconds,
            || set_up(seed),
            |_, timeline| {
                let mut tally = Tally {
                    timeline,
                    ..Tally::default()
                };
                let mut episodes = 0;
                while tally.timeline.more(episodes) {
                    episodes += 1;
                    episode(seed, episodes, dmc_obs::Obs::disabled(), &mut tally, None)?;
                }
                Ok(Replay {
                    units: episodes,
                    fingerprint: tally.fingerprint(),
                    timeline: std::mem::take(&mut tally.timeline),
                    tally,
                })
            },
        )?;
        notes.push(format!(
            "{REPLAYS} replays of {} episodes of {CYCLES} cycles, each after a set-up of \
             {WARMUP_CYCLES} cycles; warm-up decision hash {:#018x}, replay hash {:#018x} on every one",
            run.units, run.set_up_fingerprint, run.fingerprint
        ));
        // Every replay made the same decisions; the counts are the first's.
        let first = &run.tallies[0];
        let secs = run.secs();
        m.set("decisions_per_s", first.answered as f64 / secs);
        m.set("decision_p50_us", run.latency_us(0.50).ok_or("no offers")?);
        m.set("decision_p99_us", run.latency_us(0.99).ok_or("no offers")?);
        m.set(
            "admitted_frac",
            ratio(first.admitted as f64, first.answered as f64),
        );
        m.set("quality", ratio(first.quality_sum, first.admitted as f64));
        m.set("setup_s", run.setup_s);
        m.set("peak_rss_mb", crate::util::peak_rss_mb()?);
        notes.push(format!(
            "decisions_per_s = {:.1} 1/s ({} windowed offers per replay in {secs:.4} s, \
             the sum of each cycle's fastest replay); {}",
            m.get("decisions_per_s").unwrap_or(0.0),
            first.answered,
            raw_note(&run, first.answered),
        ));
        notes.push(format!(
            "decision_p50_us = {:.2} us, decision_p99_us = {:.2} us (each offer's fastest replay; n = {})",
            m.get("decision_p50_us").unwrap_or(0.0),
            m.get("decision_p99_us").unwrap_or(0.0),
            run.latency_samples()
        ));
        notes.push(format!(
            "admitted_frac = {:.4} (scheduled or reserved; {} reserved), predicted_quality = {:.4}",
            m.get("admitted_frac").unwrap_or(0.0),
            first.reserved,
            m.get("quality").unwrap_or(0.0)
        ));
        for t in &run.tallies {
            tally.attempted += t.attempted;
            tally.failed += t.failed;
        }
    } else {
        // Alternate plain and traced runs of the same episodes; the
        // first traced episode, with telemetry on, is the counted pass.
        let mut layers = Layers::default();
        let mut traced_tally = Tally::default();
        let mut plain_wall = Duration::ZERO;
        let mut counts = None;
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds {
            episodes += 1;
            plain_wall += episode(seed, episodes, dmc_obs::Obs::disabled(), &mut tally, None)?.0;
            let before = traced_tally.answered;
            let (_, snap) = episode(
                seed,
                episodes,
                dmc_obs::Obs::enabled(),
                &mut traced_tally,
                Some(&mut layers),
            )?;
            if counts.is_none() {
                let snap = snap.ok_or("a telemetry-enabled episode yields a snapshot")?;
                counts = Some(Counts::new(snap, traced_tally.answered - before, 0));
            }
        }
        let counts = counts.ok_or("no traced episode ran")?;
        let plain_rate = tally.answered as f64 / plain_wall.as_secs_f64();
        let traced_rate = traced_tally.answered as f64 / layers.wall.as_secs_f64();
        m.set("trace_overhead", 1.0 - traced_rate / plain_rate);
        m.set("schedule.offer_us", layers.offer.mean_us());
        m.set("schedule.advance_us", layers.advance.mean_us());
        m.set(
            "schedule.offer_growth",
            ratio(
                layers.last_quarter.as_secs_f64(),
                layers.first_quarter.as_secs_f64(),
            ),
        );
        m.set("driver.self_s", layers.driver.secs());
        m.set("trace.wall_s", layers.wall.as_secs_f64());
        counts.apply(&mut m);
        notes.push(check_addback(
            (layers.driver.secs() + layers.offer.secs() + layers.advance.secs())
                / layers.wall.as_secs_f64(),
        )?);
        notes.push(format!(
            "traced {episodes} episodes; offer time grows {:.2}x from the first to the last quarter; counted episode: {}",
            m.get("schedule.offer_growth").unwrap_or(0.0),
            counts.fingerprint()
        ));
        tally.attempted += traced_tally.attempted;
        tally.failed += traced_tally.failed;
    }
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: m,
        notes,
    })
}
