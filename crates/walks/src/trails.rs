//! Breadcrumb trails for routing along completed random-walk paths.
//!
//! Algorithm 2 requires three kinds of traffic to follow the walks after
//! they complete: proxy replies travel *backwards* to the contender
//! (rounds 1 and 3), contender broadcasts travel *forwards* to the proxies
//! (round 2, winner messages, stop commitments). Nodes therefore remember,
//! per `(origin, epoch, step)`, through which ports walk tokens arrived and
//! left. Since the origin is the unique source of its walks, following
//! *any* recorded in-port backwards reaches the origin; following all
//! recorded out-ports forwards (with per-wave dedup — the paper's
//! "filtering and forwarding") reaches every proxy.
//!
//! Trails store sparse `(step, hop)` pairs: memory is proportional to the
//! number of distinct passages, not to the walk length.

use welle_graph::Port;

/// One hop of a walk trail as seen from a node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Hop {
    /// The walk started here (only at step 0 on the origin itself).
    Origin,
    /// The walk stayed here for a lazy step.
    Stay,
    /// The walk crossed the edge behind this local port.
    Via(Port),
}

/// The recorded passage of one origin's walks through one node during one
/// epoch.
#[derive(Clone, Debug)]
pub struct Trail {
    epoch: u32,
    len: u32,
    finalized: bool,
    /// Deduplicated `(step, hop)` pairs: step-`s` tokens arrived via hop.
    ins: Vec<(u32, Hop)>,
    /// Deduplicated `(step, hop)` pairs: step-`s` tokens left via hop
    /// (arriving elsewhere as step `s + 1`).
    outs: Vec<(u32, Hop)>,
    /// The `Via` ports of `outs`, sorted and deduplicated (kept in step
    /// by [`Trail::record_out`]).
    out_ports: Vec<Port>,
}

impl Trail {
    fn new(epoch: u32, len: u32) -> Self {
        Trail {
            epoch,
            len,
            finalized: false,
            ins: Vec::new(),
            outs: Vec::new(),
            out_ports: Vec::new(),
        }
    }

    /// Turns this trail into an empty one of another epoch, keeping the
    /// capacity of its lists.
    fn reset(&mut self, epoch: u32, len: u32) {
        self.epoch = epoch;
        self.len = len;
        self.finalized = false;
        self.ins.clear();
        self.outs.clear();
        self.out_ports.clear();
    }

    /// Epoch this trail belongs to.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Walk length of that epoch.
    pub fn len(&self) -> u32 {
        self.len
    }

    /// Whether the trail has no recorded hops at all.
    pub fn is_empty(&self) -> bool {
        self.ins.is_empty() && self.outs.is_empty()
    }

    /// Whether the origin committed to this epoch as its final guess.
    pub fn is_finalized(&self) -> bool {
        self.finalized
    }

    /// Records that step-`step` tokens arrived here via `hop`
    /// (deduplicated).
    pub fn record_in(&mut self, step: u32, hop: Hop) {
        if !self.ins.contains(&(step, hop)) {
            self.ins.push((step, hop));
        }
    }

    /// Records that step-`step` tokens left here via `hop` (deduplicated).
    pub fn record_out(&mut self, step: u32, hop: Hop) {
        if self.outs.contains(&(step, hop)) {
            return;
        }
        self.outs.push((step, hop));
        if let Hop::Via(p) = hop {
            if let Err(at) = self.out_ports.binary_search(&p) {
                self.out_ports.insert(at, p);
            }
        }
    }

    /// Hops through which step-`step` tokens arrived.
    pub fn ins(&self, step: u32) -> impl Iterator<Item = Hop> + '_ {
        self.ins
            .iter()
            .filter(move |&&(s, _)| s == step)
            .map(|&(_, h)| h)
    }

    /// Hops through which step-`step` tokens departed.
    pub fn outs(&self, step: u32) -> impl Iterator<Item = Hop> + '_ {
        self.outs
            .iter()
            .filter(move |&&(s, _)| s == step)
            .map(|&(_, h)| h)
    }

    /// The reverse-routing decision at `step`: follow the first recorded
    /// in-hop (any recorded hop leads to the origin). Skips over lazy
    /// stays by descending steps.
    pub fn reverse_route(&self, step: u32) -> ReverseRoute {
        let mut s = step;
        loop {
            let Some(hop) = self.ins(s).next() else {
                return ReverseRoute::Broken;
            };
            match hop {
                Hop::Origin => return ReverseRoute::AtOrigin,
                Hop::Stay => {
                    debug_assert!(s > 0, "stay recorded at step 0");
                    s -= 1;
                }
                Hop::Via(p) => {
                    debug_assert!(s > 0, "in-edge recorded at step 0");
                    return ReverseRoute::Forward(p, s - 1);
                }
            }
        }
    }

    /// Number of recorded (in, out) entries — memory diagnostics.
    pub fn footprint(&self) -> (usize, usize) {
        (self.ins.len(), self.outs.len())
    }

    /// Distinct ports over which tokens ever left this node, across all
    /// steps. Forward waves (round 2, stop marks, winner messages) are
    /// relayed over exactly these ports once per item — the paper's
    /// "filtering and forwarding": every path segment of the walk DAG is
    /// covered, and per-node dedup keeps one copy per edge. Ascending
    /// port order.
    pub fn distinct_out_ports(&self) -> &[Port] {
        &self.out_ports
    }
}

/// Outcome of a reverse-routing lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReverseRoute {
    /// This node *is* the origin: deliver locally.
    AtOrigin,
    /// Send over the port; the receiver continues at the given step.
    Forward(Port, u32),
    /// No trail information (protocol bug or stale GC) — callers treat
    /// this as a dropped reply.
    Broken,
}

/// Per-node store of trails, keyed by origin id.
///
/// Epoch discipline (Fidelity note 5 of DESIGN.md): non-finalized trails
/// of an older epoch are replaced when the origin starts a new epoch;
/// finalized trails persist for the rest of the execution (their origin
/// stopped and keeps its proxies).
///
/// A `Vec` sorted by origin, searched by bisection: [`TrailStore::iter`]
/// walks it in ascending origin order, as an ordered map would, and
/// seeded-path iteration order must be deterministic
/// (`welle-lint: no-hash-iter`). A node tracks few origins, so inserts
/// shift little. A trail replaced at an epoch change is reset in place,
/// and one dropped by [`TrailStore::gc`] is kept empty for the next
/// origin, so both keep the capacity of their lists.
#[derive(Clone, Debug, Default)]
pub struct TrailStore {
    trails: Vec<(u64, Trail)>,
    /// Trails dropped by `gc`, reset when reused. Together with `trails`
    /// never more than the store once held at the same time.
    spare: Vec<Trail>,
}

impl TrailStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        TrailStore::default()
    }

    /// Number of tracked origins.
    pub fn len(&self) -> usize {
        self.trails.len()
    }

    /// Whether the store tracks no origin.
    pub fn is_empty(&self) -> bool {
        self.trails.is_empty()
    }

    /// The trail for `origin` usable at `epoch`: creates or resets it if
    /// the stored one is older and not finalized. Returns `None` if the
    /// stored trail is finalized with a different epoch (walks of a
    /// stopped contender cannot restart) or newer than `epoch` (stale
    /// token arriving late — dropped).
    pub fn enter_epoch(&mut self, origin: u64, epoch: u32, len: u32) -> Option<&mut Trail> {
        match self.search(origin) {
            Ok(i) => {
                let t = &mut self.trails[i].1;
                if t.epoch == epoch {
                    return Some(t);
                }
                if t.finalized || t.epoch > epoch {
                    return None;
                }
                t.reset(epoch, len);
                Some(t)
            }
            Err(i) => {
                let trail = match self.spare.pop() {
                    Some(mut t) => {
                        t.reset(epoch, len);
                        t
                    }
                    None => Trail::new(epoch, len),
                };
                self.trails.insert(i, (origin, trail));
                Some(&mut self.trails[i].1)
            }
        }
    }

    /// The trail for `origin` at exactly `epoch`, if present.
    pub fn at_epoch(&self, origin: u64, epoch: u32) -> Option<&Trail> {
        self.current(origin).filter(|t| t.epoch == epoch)
    }

    /// The current trail of `origin`, whatever its epoch.
    pub fn current(&self, origin: u64) -> Option<&Trail> {
        self.search(origin).ok().map(|i| &self.trails[i].1)
    }

    /// Marks `origin`'s trail at `epoch` as final (the contender stopped
    /// with this guess); ignored if the stored epoch differs.
    pub fn finalize(&mut self, origin: u64, epoch: u32) {
        if let Ok(i) = self.search(origin) {
            let t = &mut self.trails[i].1;
            if t.epoch == epoch {
                t.finalized = true;
            }
        }
    }

    /// Drops non-finalized trails older than `current_epoch` (their
    /// origins moved on; the records can never be used again).
    pub fn gc(&mut self, current_epoch: u32) {
        let spare = &mut self.spare;
        self.trails.retain_mut(|(_, t)| {
            let keep = t.finalized || t.epoch >= current_epoch;
            if !keep {
                spare.push(std::mem::replace(t, Trail::new(0, 0)));
            }
            keep
        });
    }

    /// Iterates over `(origin, trail)` pairs in ascending origin order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &Trail)> {
        self.trails.iter().map(|(o, t)| (*o, t))
    }

    fn search(&self, origin: u64) -> Result<usize, usize> {
        self.trails.binary_search_by_key(&origin, |&(o, _)| o)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_dedup() {
        let mut t = Trail::new(2, 4);
        t.record_in(1, Hop::Via(Port::new(0)));
        t.record_in(1, Hop::Via(Port::new(0)));
        t.record_in(1, Hop::Via(Port::new(2)));
        assert_eq!(t.ins(1).count(), 2);
        assert_eq!(t.ins(0).count(), 0);
        t.record_out(1, Hop::Stay);
        t.record_out(1, Hop::Stay);
        assert_eq!(t.outs(1).collect::<Vec<_>>(), vec![Hop::Stay]);
        assert_eq!(t.footprint(), (2, 1));
    }

    #[test]
    fn no_preallocation_for_long_walks() {
        let mut store = TrailStore::new();
        let t = store.enter_epoch(1, 20, 1 << 20).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.footprint(), (0, 0));
        assert_eq!(t.len(), 1 << 20);
    }

    #[test]
    fn reverse_route_skips_stays() {
        let mut t = Trail::new(0, 5);
        // Token arrived at step 1 via port 3, stayed for steps 2 and 3.
        t.record_in(1, Hop::Via(Port::new(3)));
        t.record_in(2, Hop::Stay);
        t.record_in(3, Hop::Stay);
        assert_eq!(t.reverse_route(3), ReverseRoute::Forward(Port::new(3), 0));
    }

    #[test]
    fn reverse_route_at_origin() {
        let mut t = Trail::new(0, 2);
        t.record_in(0, Hop::Origin);
        t.record_in(1, Hop::Stay);
        assert_eq!(t.reverse_route(1), ReverseRoute::AtOrigin);
        assert_eq!(t.reverse_route(0), ReverseRoute::AtOrigin);
    }

    #[test]
    fn reverse_route_broken_without_records() {
        let t = Trail::new(0, 3);
        assert_eq!(t.reverse_route(2), ReverseRoute::Broken);
    }

    #[test]
    fn epoch_replacement_rules() {
        let mut store = TrailStore::new();
        store.enter_epoch(7, 0, 1).unwrap().record_in(0, Hop::Origin);
        // Same epoch: same trail.
        assert_eq!(
            store.enter_epoch(7, 0, 1).unwrap().ins(0).collect::<Vec<_>>(),
            vec![Hop::Origin]
        );
        // Newer epoch replaces a non-finalized trail.
        let t = store.enter_epoch(7, 1, 2).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.epoch(), 1);
        // Stale (older-epoch) token is rejected.
        assert!(store.enter_epoch(7, 0, 1).is_none());
    }

    #[test]
    fn finalized_trails_are_immutable_across_epochs() {
        let mut store = TrailStore::new();
        store.enter_epoch(9, 2, 4).unwrap();
        store.finalize(9, 2);
        assert!(store.current(9).unwrap().is_finalized());
        // A finalized trail refuses other epochs but accepts its own.
        assert!(store.enter_epoch(9, 3, 8).is_none());
        assert!(store.enter_epoch(9, 2, 4).is_some());
        // GC keeps finalized trails forever.
        store.gc(10);
        assert!(store.current(9).is_some());
    }

    #[test]
    fn gc_drops_stale_unfinalized() {
        let mut store = TrailStore::new();
        store.enter_epoch(1, 0, 1);
        store.enter_epoch(2, 5, 32);
        store.gc(3);
        assert!(store.current(1).is_none());
        assert!(store.current(2).is_some());
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn finalize_wrong_epoch_is_ignored() {
        let mut store = TrailStore::new();
        store.enter_epoch(4, 1, 2);
        store.finalize(4, 0);
        assert!(!store.current(4).unwrap().is_finalized());
    }
}
