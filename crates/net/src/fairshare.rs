//! Max–min fair rate allocation (progressive water-filling).
//!
//! Given flows, each crossing one egress link and one ingress link and
//! optionally carrying its own rate cap, compute the max–min fair rate
//! vector: repeatedly find the most-constrained resource, fix its flows at
//! the fair share, remove them, and continue. Flows whose private cap is
//! below the current fair share are fixed at their cap first.
//!
//! The output satisfies (up to floating-point tolerance):
//!
//! 1. **feasibility** — no link's total allocated rate exceeds its capacity;
//! 2. **cap respect** — no flow exceeds its private cap;
//! 3. **work conservation / max–min optimality** — every flow is limited by
//!    a saturated link or by its own cap.

/// One flow's constraints: the index of its egress link, the index of its
/// ingress link, and an optional private rate cap (bytes/second).
#[derive(Clone, Copy, Debug)]
pub struct FlowSpec {
    /// Index into the capacity array for the sender's access link.
    pub egress_link: usize,
    /// Index into the capacity array for the receiver's access link.
    pub ingress_link: usize,
    /// Private rate cap, bytes/second (`f64::INFINITY` if uncapped).
    pub rate_cap: f64,
}

/// Reusable working memory for [`max_min_fair_into`], so the per-event
/// recompute in the fabric hot path allocates nothing.
///
/// Between calls every slot's `load` is zero; a slot's other fields are
/// written before they are read, so stale contents never leak into a
/// solve.
#[derive(Default)]
pub struct FairScratch {
    /// Per-link state, indexed by link id.
    slot: Vec<LinkSlot>,
    /// Whether each flow is still unfixed.
    active: Vec<bool>,
    /// Links that carry an unfixed flow, ascending, plus drained links not
    /// yet pruned. Every link with a nonzero `load` is in it.
    live: Vec<usize>,
    /// CSR adjacency: the flows on link `l` are
    /// `adj[slot[l].adj_begin..slot[l].adj_end]`, in ascending flow order.
    /// A flow whose egress is its ingress appears twice on that link.
    adj: Vec<u32>,
    /// Unfixed flows with a finite cap, ascending.
    capped: Vec<usize>,
}

#[derive(Clone, Copy, Default)]
struct LinkSlot {
    /// Capacity not yet allocated to fixed flows.
    remaining: f64,
    /// `remaining.max(0.0) / load`: the fair share the link offers its
    /// unfixed flows. Kept current while `load > 0`.
    share: f64,
    /// Unfixed flow endpoints on the link.
    load: u32,
    /// The link's range in `FairScratch::adj`.
    adj_begin: u32,
    adj_end: u32,
}

impl LinkSlot {
    fn update_share(&mut self) {
        if self.load > 0 {
            self.share = self.remaining.max(0.0) / self.load as f64;
        }
    }
}

/// Compute max–min fair rates for `flows` over links with the given
/// capacities (bytes/second; may be `f64::INFINITY`).
///
/// Returns one rate per flow, in order.
pub fn max_min_fair(flows: &[FlowSpec], link_capacity: &[f64]) -> Vec<f64> {
    let mut rate = Vec::new();
    max_min_fair_into(flows, link_capacity, &mut rate, &mut FairScratch::default());
    rate
}

/// Allocation-free variant of [`max_min_fair`]: writes one rate per flow
/// (in order) into `rate`, reusing `scratch` across calls.
///
/// A round costs the links that still carry an unfixed flow, the unfixed
/// capped flows, and the adjacency of the bottleneck link; links no flow
/// crosses are never visited. Flows are fixed in the same order as a dense
/// scan over every link and flow would fix them, so each link sees the
/// same subtractions in the same order and the rates are bit-identical.
pub fn max_min_fair_into(
    flows: &[FlowSpec],
    link_capacity: &[f64],
    rate: &mut Vec<f64>,
    scratch: &mut FairScratch,
) {
    let n = flows.len();
    rate.clear();
    rate.resize(n, 0.0);
    if n == 0 {
        return;
    }

    let FairScratch {
        slot,
        active,
        live,
        adj,
        capped,
    } = scratch;
    if slot.len() < link_capacity.len() {
        slot.resize(link_capacity.len(), LinkSlot::default());
    }
    active.clear();
    active.resize(n, true);
    let mut active_count = n;

    // Number of active flows on each link, and the links touched.
    live.clear();
    capped.clear();
    for (i, f) in flows.iter().enumerate() {
        for l in [f.egress_link, f.ingress_link] {
            if slot[l].load == 0 {
                live.push(l);
            }
            slot[l].load += 1;
        }
        if f.rate_cap.is_finite() {
            capped.push(i);
        }
    }
    live.sort_unstable();

    // Adjacency: bucket flows by link. Each bucket is filled from its end
    // in descending flow order, so it reads ascending.
    let mut end = 0;
    for &l in live.iter() {
        let s = &mut slot[l];
        s.remaining = link_capacity[l];
        s.update_share();
        end += s.load;
        s.adj_begin = end;
        s.adj_end = end;
    }
    adj.clear();
    adj.resize(end as usize, 0);
    for (i, f) in flows.iter().enumerate().rev() {
        for l in [f.egress_link, f.ingress_link] {
            let s = &mut slot[l];
            s.adj_begin -= 1;
            adj[s.adj_begin as usize] = i as u32;
        }
    }

    const EPS: f64 = 1e-9;

    while active_count > 0 {
        // Fair share offered by the most constrained link; links whose
        // flows are all fixed drop out of `live` for good.
        let mut bottleneck_share = f64::INFINITY;
        live.retain(|&l| {
            let s = &slot[l];
            if s.load == 0 {
                return false;
            }
            bottleneck_share = bottleneck_share.min(s.share);
            true
        });

        // Flows whose private cap binds below the link share are fixed at
        // their cap; this releases capacity, so redo the loop afterwards.
        let mut fixed_any_cap = false;
        capped.retain(|&i| {
            if !active[i] {
                return false;
            }
            if flows[i].rate_cap <= bottleneck_share + EPS {
                fix_flow(i, flows[i].rate_cap, flows, rate, slot, active);
                active_count -= 1;
                fixed_any_cap = true;
                return false;
            }
            true
        });
        if fixed_any_cap {
            continue;
        }

        if !bottleneck_share.is_finite() {
            // No finite constraint remains: uncapped flows on unconstrained
            // links. Give them a huge-but-finite rate to keep downstream
            // arithmetic sane, and stop.
            for i in 0..n {
                if active[i] {
                    rate[i] = f64::MAX / 1e6;
                    active[i] = false;
                }
            }
            break;
        }

        // Fix every flow on the (first) bottleneck link, then recompute.
        let Some(&l) = live
            .iter()
            .find(|&&l| slot[l].share <= bottleneck_share + EPS)
        else {
            debug_assert!(false, "water-filling made no progress");
            break;
        };
        let mut fixed_any = false;
        for &i in &adj[slot[l].adj_begin as usize..slot[l].adj_end as usize] {
            let i = i as usize;
            if active[i] {
                fix_flow(i, bottleneck_share, flows, rate, slot, active);
                active_count -= 1;
                fixed_any = true;
            }
        }
        debug_assert!(fixed_any, "bottleneck link had no active flows");
        if !fixed_any {
            break;
        }
    }

    // Restore the all-zero `load` invariant (the unconstrained exit and
    // the no-progress guard leave loads behind).
    for &l in live.iter() {
        slot[l].load = 0;
    }
}

fn fix_flow(
    i: usize,
    r: f64,
    flows: &[FlowSpec],
    rate: &mut [f64],
    slot: &mut [LinkSlot],
    active: &mut [bool],
) {
    let r = r.max(0.0);
    rate[i] = r;
    active[i] = false;
    let f = &flows[i];
    for l in [f.egress_link, f.ingress_link] {
        let s = &mut slot[l];
        s.remaining = (s.remaining - r).max(0.0);
        s.load -= 1;
    }
    slot[f.egress_link].update_share();
    slot[f.ingress_link].update_share();
}

#[cfg(test)]
mod tests {
    use super::*;

    const INF: f64 = f64::INFINITY;

    fn spec(e: usize, i: usize, cap: f64) -> FlowSpec {
        FlowSpec {
            egress_link: e,
            ingress_link: i,
            rate_cap: cap,
        }
    }

    #[test]
    fn single_flow_gets_min_of_links() {
        let rates = max_min_fair(&[spec(0, 1, INF)], &[100.0, 40.0]);
        assert_eq!(rates, vec![40.0]);
    }

    #[test]
    fn private_cap_binds() {
        let rates = max_min_fair(&[spec(0, 1, 10.0)], &[100.0, 40.0]);
        assert_eq!(rates, vec![10.0]);
    }

    #[test]
    fn equal_flows_share_equally() {
        // Two flows out of the same egress link into distinct sinks.
        let rates = max_min_fair(&[spec(0, 1, INF), spec(0, 2, INF)], &[100.0, 100.0, 100.0]);
        assert!((rates[0] - 50.0).abs() < 1e-6);
        assert!((rates[1] - 50.0).abs() < 1e-6);
    }

    #[test]
    fn capped_flow_releases_capacity_to_peer() {
        // Flow 0 capped at 10; flow 1 picks up the slack.
        let rates = max_min_fair(&[spec(0, 1, 10.0), spec(0, 2, INF)], &[100.0, 100.0, 100.0]);
        assert!((rates[0] - 10.0).abs() < 1e-6);
        assert!((rates[1] - 90.0).abs() < 1e-6);
    }

    #[test]
    fn classic_three_link_example() {
        // Textbook max-min: links A=10 shared by f0,f1; link B=20 used by f1
        // only after A... construct: f0 on (0,1), f1 on (0,2), f2 on (3,2).
        // caps: link0=10, link1=inf, link2=8, link3=inf.
        // Shares: link0 offers 5, link2 offers 4 -> bottleneck link2 fixes
        // f1,f2 at 4 each? No: link2 hosts f1,f2 -> share 4. Then link0 has
        // f0 alone with 10-4=6 remaining -> f0=6.
        let rates = max_min_fair(
            &[spec(0, 1, INF), spec(0, 2, INF), spec(3, 2, INF)],
            &[10.0, INF, 8.0, INF],
        );
        assert!((rates[1] - 4.0).abs() < 1e-6, "{rates:?}");
        assert!((rates[2] - 4.0).abs() < 1e-6, "{rates:?}");
        assert!((rates[0] - 6.0).abs() < 1e-6, "{rates:?}");
    }

    #[test]
    fn manager_fanout_collapses_per_flow_rate() {
        // The Work Queue pattern: 200 flows all leaving link 0.
        let flows: Vec<FlowSpec> = (0..200).map(|w| spec(0, 1 + w, INF)).collect();
        let mut caps = vec![1.25e9]; // 10 Gbit/s manager uplink
        caps.extend(std::iter::repeat_n(1.25e9, 200));
        let rates = max_min_fair(&flows, &caps);
        for r in &rates {
            assert!((r - 1.25e9 / 200.0).abs() < 1.0, "{r}");
        }
    }

    #[test]
    fn peer_transfers_use_disjoint_links_fully() {
        // The TaskVine pattern: disjoint pairs each get full link rate.
        let flows: Vec<FlowSpec> = (0..100).map(|w| spec(2 * w, 2 * w + 1, INF)).collect();
        let caps = vec![1.25e9; 200];
        let rates = max_min_fair(&flows, &caps);
        for r in &rates {
            assert!((r - 1.25e9).abs() < 1.0);
        }
    }

    #[test]
    fn empty_input() {
        assert!(max_min_fair(&[], &[10.0]).is_empty());
    }

    #[test]
    fn zero_capacity_link_gives_zero_rate() {
        let rates = max_min_fair(&[spec(0, 1, INF)], &[0.0, 10.0]);
        assert_eq!(rates, vec![0.0]);
    }

    #[test]
    fn all_infinite_links_finite_rates() {
        let rates = max_min_fair(&[spec(0, 1, INF)], &[INF, INF]);
        assert!(rates[0].is_finite());
        assert!(rates[0] > 1e12);
    }

    /// Check the three max-min properties on a random-ish asymmetric case.
    #[test]
    fn allocation_is_feasible_and_work_conserving() {
        let flows = vec![
            spec(0, 3, INF),
            spec(0, 4, 2.0),
            spec(1, 3, INF),
            spec(1, 4, INF),
            spec(2, 4, INF),
        ];
        let caps = vec![10.0, 6.0, 100.0, 5.0, 8.0];
        let rates = max_min_fair(&flows, &caps);

        // Feasibility per link.
        for (l, &cap) in caps.iter().enumerate() {
            let used: f64 = flows
                .iter()
                .zip(&rates)
                .filter(|(f, _)| f.egress_link == l || f.ingress_link == l)
                .map(|(_, r)| r)
                .sum();
            assert!(used <= cap + 1e-6, "link {l} over capacity: {used} > {cap}");
        }
        // Cap respect.
        for (f, r) in flows.iter().zip(&rates) {
            assert!(*r <= f.rate_cap + 1e-6);
        }
        // Work conservation: each flow limited by a saturated link or cap.
        for (f, &r) in flows.iter().zip(&rates) {
            let cap_binds = (r - f.rate_cap).abs() < 1e-6;
            let sat = [f.egress_link, f.ingress_link].iter().any(|&l| {
                let used: f64 = flows
                    .iter()
                    .zip(&rates)
                    .filter(|(g, _)| g.egress_link == l || g.ingress_link == l)
                    .map(|(_, r)| r)
                    .sum();
                used >= caps[l] - 1e-6
            });
            assert!(cap_binds || sat, "flow {f:?} at {r} is not bottlenecked");
        }
    }
}
