//! Integer LP / min-cost-flow relaxation of the (epoch × battery)
//! allocation polytope.
//!
//! The battery-scheduling search assigns every draw slot of the load to
//! exactly one battery. Relaxing the integrality (a slot may be split
//! across batteries) and the interleaving dynamics (only each battery's
//! *cumulative* service up to every epoch end is constrained) leaves a
//! transportation problem over prefix capacities:
//!
//! * battery `i` may serve at most `columns[i][e]` units among epochs
//!   `0..=e` (a non-decreasing *column* produced by the exact
//!   single-battery DP in `dkibam`);
//! * epoch `e` offers `demands[e]` units that want covering.
//!
//! Because the capacity rows are prefix constraints, the min cut of the
//! corresponding flow network is **laminar**: it always cuts every
//! battery chain at one common epoch threshold `t` plus all later demand
//! arcs. [`coverage_bound`] evaluates that closed form directly — an
//! `O(B·E)` walk — and [`max_coverage`] solves the same network with an
//! actual successive-shortest-path min-cost flow, returning a concrete
//! integral assignment (used to round a warm-start schedule). The root
//! bound in `battery-sched` uses the closed-form walk, once per search;
//! the flow solver cross-checks the equality in tests and powers the
//! rounding.
//!
//! Everything here is integer arithmetic on `u64` capacities with `i64`
//! arc costs (distances in `i128`), deterministic, allocation-light and
//! panic-free: malformed inputs degrade to the empty relaxation instead
//! of aborting a search.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

use std::collections::VecDeque;

/// A large-but-safe arc capacity standing in for "unbounded".
const UNBOUNDED: u64 = u64::MAX / 4;

/// Distance sentinel for unreached nodes.
const UNREACHED: i128 = i128::MAX / 4;

/// A small dense min-cost max-flow solver (successive shortest paths with
/// SPFA label correcting). Arc order is insertion order and relaxations
/// are strict, so identical inputs produce identical flows.
#[derive(Debug, Clone, Default)]
pub struct MinCostFlow {
    /// Adjacency: arc ids leaving each node (forward and residual arcs).
    adjacency: Vec<Vec<u32>>,
    to: Vec<u32>,
    cap: Vec<u64>,
    cost: Vec<i64>,
}

impl MinCostFlow {
    /// Creates a solver over `nodes` nodes (ids `0..nodes`).
    #[must_use]
    pub fn new(nodes: usize) -> Self {
        Self {
            adjacency: vec![Vec::new(); nodes],
            to: Vec::new(),
            cap: Vec::new(),
            cost: Vec::new(),
        }
    }

    /// Adds a directed arc `from → to` with capacity `cap` and
    /// per-unit cost `cost ≥ 0`, returning its id (for
    /// [`MinCostFlow::flow_on`]). Out-of-range endpoints make the arc
    /// inert (capacity zero on node 0) instead of panicking.
    pub fn add_arc(&mut self, from: usize, to: usize, cap: u64, cost: i64) -> usize {
        debug_assert!(cost >= 0, "negative arc costs break SSP termination");
        let id = self.to.len();
        let (from, to, cap) = if from < self.adjacency.len() && to < self.adjacency.len() {
            (from, to, cap)
        } else {
            (0, 0, 0)
        };
        // Forward arc (even id) and residual arc (odd id).
        self.to.push(crate::checked_u32(to));
        self.cap.push(cap);
        self.cost.push(cost);
        self.to.push(crate::checked_u32(from));
        self.cap.push(0);
        self.cost.push(-cost);
        self.adjacency[from].push(crate::checked_u32(id));
        self.adjacency[to].push(crate::checked_u32(id + 1));
        id
    }

    /// Pushes as much flow as possible from `source` to `sink`, cheapest
    /// augmenting paths first. Returns the total flow.
    pub fn solve(&mut self, source: usize, sink: usize) -> u64 {
        if source >= self.adjacency.len() || sink >= self.adjacency.len() || source == sink {
            return 0;
        }
        let nodes = self.adjacency.len();
        let mut total = 0u64;
        let mut dist = vec![UNREACHED; nodes];
        let mut parent = vec![u32::MAX; nodes];
        let mut queued = vec![false; nodes];
        // Each augmentation saturates at least one arc of a shortest path;
        // with non-negative costs the number of augmentations is bounded,
        // but keep an explicit guard so a malformed network cannot spin.
        let mut guard = self.to.len().saturating_mul(4).max(64);
        loop {
            guard = match guard.checked_sub(1) {
                Some(left) => left,
                None => break,
            };
            // SPFA from source: strict relaxations, FIFO order.
            dist.iter_mut().for_each(|d| *d = UNREACHED);
            parent.iter_mut().for_each(|p| *p = u32::MAX);
            queued.iter_mut().for_each(|q| *q = false);
            dist[source] = 0;
            let mut queue = VecDeque::new();
            queue.push_back(checked_u32(source));
            queued[source] = true;
            while let Some(node) = queue.pop_front() {
                let node = index(node);
                queued[node] = false;
                let here = dist[node];
                for slot in 0..self.adjacency[node].len() {
                    let arc = index(self.adjacency[node][slot]);
                    if self.cap[arc] == 0 {
                        continue;
                    }
                    let next = index(self.to[arc]);
                    let candidate = here + i128::from(self.cost[arc]);
                    if candidate < dist[next] {
                        dist[next] = candidate;
                        parent[next] = checked_u32(arc);
                        if !queued[next] {
                            queue.push_back(checked_u32(next));
                            queued[next] = true;
                        }
                    }
                }
            }
            if dist[sink] >= UNREACHED {
                break;
            }
            // Bottleneck along the recorded shortest path, then augment.
            let mut bottleneck = u64::MAX;
            let mut node = sink;
            while node != source {
                let arc = index(parent[node]);
                if arc >= self.cap.len() {
                    return total;
                }
                bottleneck = bottleneck.min(self.cap[arc]);
                node = index(self.to[arc ^ 1]);
            }
            if bottleneck == 0 || bottleneck == u64::MAX {
                break;
            }
            let mut node = sink;
            while node != source {
                let arc = index(parent[node]);
                self.cap[arc] -= bottleneck;
                self.cap[arc ^ 1] += bottleneck;
                node = index(self.to[arc ^ 1]);
            }
            total = total.saturating_add(bottleneck);
        }
        total
    }

    /// The flow carried by the arc returned from [`MinCostFlow::add_arc`]
    /// (the residual capacity of its reverse arc).
    #[must_use]
    pub fn flow_on(&self, arc: usize) -> u64 {
        self.cap.get(arc | 1).copied().unwrap_or(0)
    }
}

/// `usize → u32` for node/arc ids (graphs here are far below `u32::MAX`).
fn checked_u32(value: usize) -> u32 {
    debug_assert!(u32::try_from(value).is_ok(), "graph id {value} exceeds u32");
    // xlint: allow(cast) -- the debug_assert above pins the u32 range
    value as u32
}

/// `u32 → usize` for node/arc ids (lossless on 32/64-bit targets).
fn index(value: u32) -> usize {
    // xlint: allow(cast) -- u32 -> usize is lossless on 32/64-bit targets
    value as usize
}

/// The maximum coverage and a concrete assignment achieving it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Coverage {
    /// Total units covered over all epochs (`≤ Σ demands`).
    pub total: u64,
    /// `assignment[i][e]` = units battery `i` serves in epoch `e`.
    pub assignment: Vec<Vec<u64>>,
}

/// Truncates the instance to a consistent epoch count: the shortest of
/// `demands` and every column.
fn epoch_count<C: AsRef<[u64]>>(columns: &[C], demands: &[u64]) -> usize {
    columns
        .iter()
        .map(|column| column.as_ref().len())
        .chain(std::iter::once(demands.len()))
        .min()
        .unwrap_or(0)
}

/// The closed-form LP optimum of the prefix-capacity transportation
/// problem: because the columns are cumulative (non-decreasing), the min
/// cut always takes one common epoch threshold `t` — every battery chain
/// cut at `t`, every later demand arc cut — so
///
/// ```text
/// coverage = min over t in {-1, 0, .., E-1} of
///            Σ_i columns[i][t]  +  Σ_{e > t} demands[e]
/// ```
///
/// (`t = -1` contributes the bare `Σ demands`). Equality with the actual
/// flow optimum of [`max_coverage`] is asserted in tests; the search
/// bound uses this walk, which is `O(B·E)` and allocation-free.
#[must_use]
pub fn coverage_bound<C: AsRef<[u64]>>(columns: &[C], demands: &[u64]) -> u64 {
    let epochs = epoch_count(columns, demands);
    let mut suffix: u64 = demands.iter().take(epochs).sum();
    let mut best = suffix; // t = -1: cut every demand arc.
    for (e, &demand) in demands.iter().enumerate().take(epochs) {
        suffix = suffix.saturating_sub(demand);
        let chains: u64 =
            columns.iter().map(|column| column.as_ref()[e]).fold(0, u64::saturating_add);
        best = best.min(chains.saturating_add(suffix));
    }
    best
}

/// The first epoch index whose cumulative demand exceeds the summed
/// cumulative capacities — the epoch the relaxed system dies in — or
/// `None` if the relaxation covers every epoch.
#[must_use]
pub fn first_shortfall<C: AsRef<[u64]>>(columns: &[C], demands: &[u64]) -> Option<usize> {
    let epochs = epoch_count(columns, demands);
    let mut cumulative = 0u64;
    for (e, &demand) in demands.iter().enumerate().take(epochs) {
        cumulative = cumulative.saturating_add(demand);
        let capacity: u64 =
            columns.iter().map(|column| column.as_ref()[e]).fold(0, u64::saturating_add);
        if cumulative > capacity {
            return Some(e);
        }
    }
    None
}

/// Solves the prefix-capacity transportation problem with a min-cost
/// max-flow and returns an integral assignment.
///
/// Among all maximum-coverage flows, the costs prefer (in order):
/// covering *early* epochs — an uncovered early epoch ends the system's
/// life regardless of later coverage — and a round-robin rotation of the
/// batteries within each epoch, which is the alternation shape that wins
/// on the paper's `ILs alt` loads. The rotation is only a tie-break among
/// optimal flows; [`Coverage::total`] always equals [`coverage_bound`].
#[must_use]
pub fn max_coverage<C: AsRef<[u64]>>(columns: &[C], demands: &[u64]) -> Coverage {
    let epochs = epoch_count(columns, demands);
    let batteries = columns.len();
    let mut assignment = vec![vec![0u64; epochs]; batteries];
    if epochs == 0 || batteries == 0 {
        return Coverage { total: 0, assignment };
    }
    // Node layout: source, E epoch nodes, B×E chain nodes, sink.
    let source = 0usize;
    let epoch_node = |e: usize| 1 + e;
    let chain_node = |i: usize, e: usize| 1 + epochs + i * epochs + e;
    let sink = 1 + epochs + batteries * epochs;
    let mut network = MinCostFlow::new(sink + 1);
    // Rotation costs stay below this per-epoch priority step.
    let priority = i64::try_from(batteries).unwrap_or(i64::MAX).saturating_mul(2).max(16);
    for (e, &demand) in demands.iter().enumerate().take(epochs) {
        let lateness = i64::try_from(e).unwrap_or(i64::MAX).saturating_mul(priority);
        network.add_arc(source, epoch_node(e), demand, lateness);
    }
    let mut epoch_arcs = vec![vec![usize::MAX; epochs]; batteries];
    for (i, column) in columns.iter().enumerate() {
        let column = column.as_ref();
        for e in 0..epochs {
            // Round-robin rotation: epoch e's preferred battery is
            // e mod B (cost 0), then e+1 mod B, ...
            let rotation = (i + batteries - e % batteries) % batteries;
            let bias = i64::try_from(rotation).unwrap_or(0);
            epoch_arcs[i][e] = network.add_arc(epoch_node(e), chain_node(i, e), UNBOUNDED, bias);
            // Chain arc carrying battery i's cumulative service through
            // epoch e: capacity columns[i][e].
            let next = if e + 1 < epochs { chain_node(i, e + 1) } else { sink };
            network.add_arc(chain_node(i, e), next, column[e], 0);
        }
    }
    let total = network.solve(source, sink);
    for (i, arcs) in epoch_arcs.iter().enumerate() {
        for (e, &arc) in arcs.iter().enumerate() {
            assignment[i][e] = network.flow_on(arc);
        }
    }
    Coverage { total, assignment }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random u64 stream (xorshift).
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
        fn below(&mut self, bound: u64) -> u64 {
            if bound == 0 {
                0
            } else {
                self.next() % bound
            }
        }
    }

    /// Random monotone columns + demands.
    fn random_instance(seed: u64, batteries: usize, epochs: usize) -> (Vec<Vec<u64>>, Vec<u64>) {
        let mut rng = Rng(seed | 1);
        let mut columns = Vec::new();
        for _ in 0..batteries {
            let mut column = Vec::with_capacity(epochs);
            let mut level = 0u64;
            for _ in 0..epochs {
                level += rng.below(7);
                column.push(level);
            }
            columns.push(column);
        }
        let demands = (0..epochs).map(|_| rng.below(9)).collect();
        (columns, demands)
    }

    #[test]
    fn flow_matches_the_laminar_cut_closed_form() {
        for seed in 1..40u64 {
            let (columns, demands) = random_instance(seed, 1 + (seed as usize % 4), 12);
            let cut = coverage_bound(&columns, &demands);
            let flow = max_coverage(&columns, &demands);
            assert_eq!(flow.total, cut, "seed {seed}: flow vs closed-form cut");
        }
    }

    #[test]
    fn feasibility_walk_agrees_with_full_coverage() {
        for seed in 1..40u64 {
            let (columns, demands) = random_instance(seed, 2, 10);
            let total: u64 = demands.iter().sum();
            let covered = coverage_bound(&columns, &demands);
            assert_eq!(
                first_shortfall(&columns, &demands).is_none(),
                covered == total,
                "seed {seed}: shortfall iff coverage < demand"
            );
        }
    }

    #[test]
    fn assignments_respect_prefix_capacities_and_demands() {
        for seed in 1..25u64 {
            let (columns, demands) = random_instance(seed, 3, 8);
            let coverage = max_coverage(&columns, &demands);
            let mut served_total = 0u64;
            for e in 0..demands.len() {
                let epoch_total: u64 = coverage.assignment.iter().map(|a| a[e]).sum();
                assert!(epoch_total <= demands[e], "seed {seed}: epoch {e} over-served");
                served_total += epoch_total;
            }
            assert_eq!(served_total, coverage.total);
            for (i, column) in columns.iter().enumerate() {
                let mut cumulative = 0u64;
                for (e, &cap) in column.iter().enumerate().take(demands.len()) {
                    cumulative += coverage.assignment[i][e];
                    assert!(
                        cumulative <= cap,
                        "seed {seed}: battery {i} breaks its prefix cap at epoch {e}"
                    );
                }
            }
        }
    }

    #[test]
    fn early_epochs_are_covered_first() {
        // One battery, cap 5 total from the start; three epochs of 3: the
        // priority costs must cover epochs 0 and 1 before epoch 2.
        let columns = vec![vec![5, 5, 5]];
        let demands = vec![3, 3, 3];
        let coverage = max_coverage(&columns, &demands);
        assert_eq!(coverage.total, 5);
        assert_eq!(coverage.assignment[0], vec![3, 2, 0]);
    }

    #[test]
    fn rotation_spreads_uniform_fleets() {
        // Two identical batteries, each able to serve one unit per epoch
        // cumulatively; demand one unit per epoch: the rotation tie-break
        // alternates them.
        let columns = vec![vec![1, 1, 2, 2], vec![1, 1, 2, 2]];
        let demands = vec![1, 1, 1, 1];
        let coverage = max_coverage(&columns, &demands);
        assert_eq!(coverage.total, 4);
        assert_eq!(coverage.assignment[0], vec![1, 0, 1, 0]);
        assert_eq!(coverage.assignment[1], vec![0, 1, 0, 1]);
    }

    #[test]
    fn solver_is_deterministic() {
        let (columns, demands) = random_instance(97, 4, 16);
        let a = max_coverage(&columns, &demands);
        let b = max_coverage(&columns, &demands);
        assert_eq!(a, b);
    }

    #[test]
    fn degenerate_inputs_are_harmless() {
        let no_columns: &[Vec<u64>] = &[];
        assert_eq!(coverage_bound(no_columns, &[]), 0);
        assert_eq!(first_shortfall(no_columns, &[1]), Some(0));
        let empty = max_coverage(no_columns, &[3, 3]);
        assert_eq!(empty.total, 0);
        // Mismatched column lengths truncate to the shortest.
        let ragged = max_coverage(&[vec![2, 2, 2], vec![1]], &[1, 1, 1]);
        assert_eq!(ragged.total, coverage_bound(&[vec![2, 2, 2], vec![1]], &[1, 1, 1]));
        // An out-of-range arc is inert rather than a panic.
        let mut network = MinCostFlow::new(2);
        let arc = network.add_arc(0, 7, 10, 0);
        assert_eq!(network.solve(0, 1), 0);
        assert_eq!(network.flow_on(arc), 0);
        assert_eq!(network.flow_on(999), 0);
    }

    #[test]
    fn straight_line_network_saturates() {
        let mut network = MinCostFlow::new(3);
        let a = network.add_arc(0, 1, 5, 1);
        let b = network.add_arc(1, 2, 3, 1);
        assert_eq!(network.solve(0, 2), 3);
        assert_eq!(network.flow_on(a), 3);
        assert_eq!(network.flow_on(b), 3);
    }
}
