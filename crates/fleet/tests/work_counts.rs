//! Deterministic work counts of a fixed 64-flow churn script.
//!
//! Wall time depends on the machine; pivot and warm-hit counts do not.
//! This script fills one region to 64 flows, then churns it: every
//! cycle the oldest flow leaves and a new one arrives, every fourth
//! cycle a pair leaves in one batch, and every eighth cycle a path's
//! bandwidth drops or comes back. The joint LP's shape survives most of
//! these events, but tombstones, revives and capacity drops leave the
//! cached basis primal infeasible, so the warm path depends on the
//! basis repair.
//!
//! The counts are pinned as "equal or better" bounds: a change that
//! loses the repair (or any other warm-start path) raises the pivot
//! count and lowers the warm-hit count past them on any hardware. A
//! change that lowers the pivots or raises the hits should tighten the
//! bounds to its own counts.

use dmc_core::ScenarioPath;
use dmc_fleet::{FleetConfig, FleetPlanner, FlowId, FlowRequest};
use dmc_sim::LinkChange;

/// Upper bound on `lp.pivots` over the script.
const MAX_PIVOTS: u64 = 12_547;
/// Lower bound on `fleet.warm_hits` over the script.
const MIN_WARM_HITS: u64 = 117;

/// Deterministic draw in `[0, 1)` (SplitMix64).
fn draw(state: &mut u64) -> f64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z = z ^ (z >> 31);
    (z >> 11) as f64 / (1u64 << 53) as f64
}

fn request(state: &mut u64) -> FlowRequest {
    let rate = 0.3e6 + 1.3e6 * draw(state);
    let request = FlowRequest::new(rate, 0.4).expect("valid request");
    if draw(state) < 0.5 {
        request.with_min_quality(0.5 + 0.4 * draw(state))
    } else {
        request
    }
}

/// Runs the script; returns the obs snapshot and the admitted count.
fn run() -> (dmc_obs::Snapshot, usize) {
    let obs = dmc_obs::Obs::enabled();
    let config = FleetConfig {
        obs: obs.clone(),
        ..FleetConfig::default()
    };
    let paths = vec![
        ScenarioPath::constant(40e6, 0.120, 0.02).expect("valid path"),
        ScenarioPath::constant(25e6, 0.060, 0.0).expect("valid path"),
    ];
    let mut fleet = FleetPlanner::new(paths, config).expect("valid paths");
    let mut state = 64u64;
    let mut admitted = 0usize;
    let mut offer = |fleet: &mut FleetPlanner, state: &mut u64| {
        let decision = fleet.offer(request(state)).expect("offer succeeds");
        admitted += usize::from(decision.is_admitted());
    };
    for _ in 0..64 {
        offer(&mut fleet, &mut state);
    }
    for cycle in 0..64usize {
        let ids: Vec<FlowId> = fleet.flow_ids();
        if cycle % 4 == 3 && ids.len() >= 2 {
            fleet.depart_batch(&ids[..2]).expect("known ids");
        } else if let Some(&oldest) = ids.first() {
            fleet.depart(oldest).expect("known id");
        }
        offer(&mut fleet, &mut state);
        if cycle % 8 == 7 {
            let bandwidth = if cycle % 16 == 7 { 18e6 } else { 25e6 };
            fleet
                .apply_link_change(1, &LinkChange::SetBandwidth(bandwidth))
                .expect("valid change");
        }
    }
    (obs.snapshot(), admitted)
}

#[test]
fn churn_work_counts_stay_within_their_pinned_bounds() {
    let (snap, admitted) = run();
    let pivots = snap.counter("lp.pivots").unwrap_or(0);
    let hits = snap.counter("fleet.warm_hits").unwrap_or(0);
    let repairs = snap.counter("lp.warm_repairs").unwrap_or(0);
    eprintln!("admitted {admitted}, lp.pivots {pivots}, fleet.warm_hits {hits}, lp.warm_repairs {repairs}");
    assert!(
        admitted > 64,
        "the churn must admit replacements: {admitted}"
    );
    assert!(repairs > 0, "the script never reached the basis repair");
    assert!(
        pivots <= MAX_PIVOTS,
        "lp.pivots {pivots} exceeds the pinned bound {MAX_PIVOTS}"
    );
    assert!(
        hits >= MIN_WARM_HITS,
        "fleet.warm_hits {hits} fell below the pinned bound {MIN_WARM_HITS}"
    );
}
