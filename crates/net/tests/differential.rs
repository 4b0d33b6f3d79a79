//! Differential oracle for the sparse water-filling solver.
//!
//! `reference_max_min_fair` is the dense solver the fabric used before:
//! every round scans every link and every flow. The production
//! `max_min_fair_into` visits only the links and flows a round can touch,
//! but must fix flows in the same order, so every rate has to match the
//! reference bit for bit — not merely within a tolerance.

use std::cell::RefCell;

use proptest::prelude::*;
use vine_net::fairshare::{max_min_fair_into, FairScratch, FlowSpec};

/// The dense progressive water-filling: kept here as the test oracle.
fn reference_max_min_fair(flows: &[FlowSpec], link_capacity: &[f64]) -> Vec<f64> {
    let n = flows.len();
    let mut rate = vec![0.0; n];
    if n == 0 {
        return rate;
    }

    let mut remaining = link_capacity.to_vec();
    let mut active = vec![true; n];
    let mut active_count = n;
    // Number of active flows on each link.
    let mut load = vec![0usize; link_capacity.len()];
    for f in flows {
        load[f.egress_link] += 1;
        load[f.ingress_link] += 1;
    }

    const EPS: f64 = 1e-9;

    while active_count > 0 {
        // Fair share offered by the most constrained link.
        let mut bottleneck_share = f64::INFINITY;
        for (l, &cap) in remaining.iter().enumerate() {
            if load[l] > 0 {
                bottleneck_share = bottleneck_share.min(cap.max(0.0) / load[l] as f64);
            }
        }

        // Flows whose private cap binds below the link share are fixed at
        // their cap; this releases capacity, so redo the loop afterwards.
        let mut fixed_any_cap = false;
        for i in 0..n {
            if active[i]
                && flows[i].rate_cap.is_finite()
                && flows[i].rate_cap <= bottleneck_share + EPS
            {
                fix_flow(
                    i,
                    flows[i].rate_cap,
                    flows,
                    &mut rate,
                    &mut remaining,
                    &mut load,
                    &mut active,
                );
                active_count -= 1;
                fixed_any_cap = true;
            }
        }
        if fixed_any_cap {
            continue;
        }

        if !bottleneck_share.is_finite() {
            // No finite constraint remains: uncapped flows on unconstrained
            // links get a huge-but-finite rate.
            for i in 0..n {
                if active[i] {
                    rate[i] = f64::MAX / 1e6;
                    active[i] = false;
                }
            }
            break;
        }

        // Fix every flow on the (first) bottleneck link, then recompute.
        let bottleneck_link = (0..remaining.len()).find(|&l| {
            load[l] > 0 && (remaining[l].max(0.0) / load[l] as f64) <= bottleneck_share + EPS
        });
        let Some(l) = bottleneck_link else {
            panic!("water-filling made no progress");
        };
        for i in 0..n {
            if active[i] && (flows[i].egress_link == l || flows[i].ingress_link == l) {
                fix_flow(
                    i,
                    bottleneck_share,
                    flows,
                    &mut rate,
                    &mut remaining,
                    &mut load,
                    &mut active,
                );
                active_count -= 1;
            }
        }
    }
    rate
}

fn fix_flow(
    i: usize,
    r: f64,
    flows: &[FlowSpec],
    rate: &mut [f64],
    remaining: &mut [f64],
    load: &mut [usize],
    active: &mut [bool],
) {
    let r = r.max(0.0);
    rate[i] = r;
    active[i] = false;
    let f = &flows[i];
    remaining[f.egress_link] = (remaining[f.egress_link] - r).max(0.0);
    remaining[f.ingress_link] = (remaining[f.ingress_link] - r).max(0.0);
    load[f.egress_link] -= 1;
    load[f.ingress_link] -= 1;
}

/// Whether the fast solver, run on `scratch`, disagrees with the oracle
/// in any bit of any rate.
fn differs(flows: &[FlowSpec], caps: &[f64], scratch: &mut FairScratch) -> bool {
    let mut fast = Vec::new();
    max_min_fair_into(flows, caps, &mut fast, scratch);
    let oracle = reference_max_min_fair(flows, caps);
    fast.len() != oracle.len()
        || fast
            .iter()
            .zip(&oracle)
            .any(|(a, b)| a.to_bits() != b.to_bits())
}

/// Shrink a failing case by dropping flows while it still fails on a
/// fresh scratch. Returns `None` if even the full case passes on a fresh
/// scratch, i.e. only stale scratch state made it fail.
fn shrink(flows: &[FlowSpec], caps: &[f64]) -> Option<Vec<FlowSpec>> {
    let mut flows = flows.to_vec();
    if !differs(&flows, caps, &mut FairScratch::default()) {
        return None;
    }
    let mut i = 0;
    while i < flows.len() {
        let mut fewer = flows.clone();
        fewer.remove(i);
        if differs(&fewer, caps, &mut FairScratch::default()) {
            flows = fewer;
        } else {
            i += 1;
        }
    }
    Some(flows)
}

/// Link capacities: zero, infinite, a shared round value (so shares tie
/// across links) or arbitrary.
fn link_cap() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), Just(f64::INFINITY), Just(120.0), 0.1f64..1000.0]
}

/// Flow caps: zero, finite (tying with the round link shares or not) or
/// infinite.
fn flow_cap() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(f64::INFINITY),
        Just(f64::INFINITY),
        Just(30.0),
        0.1f64..500.0,
    ]
}

/// Up to 24 links and 40 flows. Endpoints are drawn independently, so a
/// flow's egress may equal its ingress, and with few flows many links
/// carry none.
fn cases() -> impl Strategy<Value = (Vec<FlowSpec>, Vec<f64>)> {
    (1usize..25).prop_flat_map(|n_links| {
        let caps = proptest::collection::vec(link_cap(), n_links..=n_links);
        let flows = proptest::collection::vec((0..n_links, 0..n_links, flow_cap()), 0..41)
            .prop_map(|v| {
                v.into_iter()
                    .map(|(e, i, rate_cap)| FlowSpec {
                        egress_link: e,
                        ingress_link: i,
                        rate_cap,
                    })
                    .collect::<Vec<_>>()
            });
        (flows, caps)
    })
}

thread_local! {
    /// One scratch shared by every case, so state a solve leaves behind
    /// is visible to the next one.
    static SCRATCH: RefCell<FairScratch> = RefCell::new(FairScratch::default());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    #[test]
    fn sparse_solver_is_bit_identical_to_dense_reference((flows, caps) in cases()) {
        let failed = SCRATCH.with(|s| differs(&flows, &caps, &mut s.borrow_mut()));
        if failed {
            match shrink(&flows, &caps) {
                Some(min) => panic!(
                    "rates differ from the reference; minimal flows {min:?} over links {caps:?}"
                ),
                None => panic!(
                    "rates differ only on a reused scratch; flows {flows:?} over links {caps:?}"
                ),
            }
        }
    }
}

#[test]
fn reference_and_sparse_agree_on_campus_fanout() {
    // Manager fan-out plus peer pairs plus capped shared-FS flows on a
    // 64-worker star: many rounds, many tied shares.
    let workers = 64;
    let mut caps = vec![1.5e9, 1.5e9];
    for _ in 0..workers {
        caps.extend([1.25e9, 1.25e9]);
    }
    caps.extend([2.5e9, 2.5e9]);
    let fs = workers + 1;
    let mut flows = Vec::new();
    for w in 1..=workers {
        flows.push(FlowSpec {
            egress_link: 0,
            ingress_link: 2 * w + 1,
            rate_cap: f64::INFINITY,
        });
        flows.push(FlowSpec {
            egress_link: 2 * w,
            ingress_link: 2 * (w % workers + 1) + 1,
            rate_cap: f64::INFINITY,
        });
        flows.push(FlowSpec {
            egress_link: 2 * fs,
            ingress_link: 2 * w + 1,
            rate_cap: 6.25e7,
        });
    }
    let mut scratch = FairScratch::default();
    assert!(!differs(&flows, &caps, &mut scratch));
    // Again on the same scratch, with the last worker's flows gone.
    flows.truncate(flows.len() - 3);
    assert!(!differs(&flows, &caps, &mut scratch));
}
