//! Traffic metrics and transmission observers.

use welle_graph::{EdgeId, NodeId, Port};

/// Aggregate traffic statistics collected by an engine.
///
/// "Messages" counts individual CONGEST transmissions (the paper's message
/// complexity measure); "bits" weights them by [`crate::Payload::bit_size`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Total messages transmitted over edges.
    pub messages: u64,
    /// Total bits transmitted.
    pub bits: u64,
    /// Messages sent per node (indexed by simulator node index).
    pub sent_by_node: Vec<u64>,
    /// Number of rounds in which at least one protocol callback ran or a
    /// message was transmitted.
    pub active_rounds: u64,
    /// Largest backlog any single directed edge reached (≥ 1 message means
    /// congestion delayed delivery). `u64` so big-`n` runs and 32-bit
    /// hosts can't silently wrap the counter.
    pub max_edge_backlog: u64,
    /// Messages removed by an installed [`crate::FaultPlan`] — dropped in
    /// transit, suppressed by a crashed endpoint, or sent into a cut
    /// edge. Always zero without a plan.
    pub dropped_messages: u64,
    /// Nodes with a crash scheduled by the installed [`crate::FaultPlan`]
    /// (zero without a plan); failure reporting, not a traffic counter.
    pub crashed_nodes: u64,
}

impl Metrics {
    pub(crate) fn new(n: usize) -> Self {
        Metrics {
            sent_by_node: vec![0; n],
            ..Metrics::default()
        }
    }

    /// Zeroes every counter for a network of `n` nodes, reusing the
    /// `sent_by_node` allocation (the pooled-engine reset path).
    pub(crate) fn reset(&mut self, n: usize) {
        self.messages = 0;
        self.bits = 0;
        self.sent_by_node.clear();
        self.sent_by_node.resize(n, 0);
        self.active_rounds = 0;
        self.max_edge_backlog = 0;
        self.dropped_messages = 0;
        self.crashed_nodes = 0;
    }
}

/// One message crossing one directed edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TransmitEvent {
    /// Round in which the transmission happened.
    pub round: u64,
    /// Sending node.
    pub from: NodeId,
    /// Port on the sender's side.
    pub from_port: Port,
    /// Receiving node.
    pub to: NodeId,
    /// Port on the receiver's side.
    pub to_port: Port,
    /// Undirected edge id (lets observers classify intra/inter-clique
    /// edges and bridges in the lower-bound experiments).
    pub edge: EdgeId,
    /// Payload size in bits.
    pub bits: usize,
}

/// Observer notified of every transmission; drives the §4/§5 experiments
/// (clique communication graphs, bridge crossing) without touching the
/// protocols themselves.
pub trait TransmitObserver {
    /// Called once per message, in transmission order.
    fn on_transmit(&mut self, event: &TransmitEvent);

    /// Whether this observer listens at all. The engines ask once per
    /// round; on `false` they neither build [`TransmitEvent`]s nor call
    /// [`TransmitObserver::on_transmit`] for that round. Only an
    /// observer that ignores every event may return `false`.
    fn wants_events(&self) -> bool {
        true
    }
}

/// Observer that does nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopObserver;

impl TransmitObserver for NoopObserver {
    fn on_transmit(&mut self, _event: &TransmitEvent) {}

    fn wants_events(&self) -> bool {
        false
    }
}

/// Observer recording every event (tests / small traces only).
#[derive(Clone, Debug, Default)]
pub struct RecordingObserver {
    /// The recorded transmissions, in order.
    pub events: Vec<TransmitEvent>,
}

impl TransmitObserver for RecordingObserver {
    fn on_transmit(&mut self, event: &TransmitEvent) {
        self.events.push(*event);
    }
}

impl<F: FnMut(&TransmitEvent)> TransmitObserver for F {
    fn on_transmit(&mut self, event: &TransmitEvent) {
        self(event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_start_zeroed() {
        let m = Metrics::new(3);
        assert_eq!(m.messages, 0);
        assert_eq!(m.bits, 0);
        assert_eq!(m.sent_by_node, vec![0, 0, 0]);
    }

    #[test]
    fn only_the_noop_observer_declines_events() {
        assert!(!NoopObserver.wants_events());
        assert!(RecordingObserver::default().wants_events());
        assert!((|_e: &TransmitEvent| {}).wants_events());
    }

    #[test]
    fn closure_is_an_observer() {
        let mut count = 0usize;
        {
            let mut obs = |_e: &TransmitEvent| count += 1;
            let ev = TransmitEvent {
                round: 0,
                from: NodeId::new(0),
                from_port: Port::new(0),
                to: NodeId::new(1),
                to_port: Port::new(0),
                edge: EdgeId::new(0),
                bits: 8,
            };
            obs.on_transmit(&ev);
            obs.on_transmit(&ev);
        }
        assert_eq!(count, 2);
    }

    #[test]
    fn recording_observer_keeps_order() {
        let mut rec = RecordingObserver::default();
        for r in 0..3 {
            rec.on_transmit(&TransmitEvent {
                round: r,
                from: NodeId::new(0),
                from_port: Port::new(0),
                to: NodeId::new(1),
                to_port: Port::new(0),
                edge: EdgeId::new(0),
                bits: 1,
            });
        }
        let rounds: Vec<u64> = rec.events.iter().map(|e| e.round).collect();
        assert_eq!(rounds, vec![0, 1, 2]);
    }
}
