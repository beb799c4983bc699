//! Aggregated random-walk tokens (the CONGEST trick of Lemma 12).
//!
//! Instead of sending `count` separate `⟨u, t_u⟩` tokens along the same
//! edge, a node sends one [`TokenBatch`] carrying the count — "we send
//! only one token and the count of tokens that need to be sent", as the
//! paper puts it. At each step a batch is split *lazily* (each walk stays
//! with probability ½) and the movers are assigned to ports uniformly.

use rand::{Rng, RngExt};
use welle_congest::{bits_for, id_bits};
use welle_graph::Port;

/// A bundle of `count` parallel random walks of the same origin and epoch
/// crossing an edge together.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TokenBatch {
    /// The originating contender's id (the paper's random id in `[1, n⁴]`).
    pub origin: u64,
    /// Guess-and-double epoch this walk belongs to (walk length `2^epoch`).
    pub epoch: u32,
    /// Remaining steps before the holder becomes a proxy.
    pub remaining: u32,
    /// Number of walks in this bundle.
    pub count: u32,
}

impl TokenBatch {
    /// Wire size: an id (`4⌈log₂n⌉` bits), an epoch (`⌈log₂ horizon⌉`),
    /// a step counter, and the multiplicity.
    pub fn bit_size(&self, n: usize) -> usize {
        id_bits(n) + bits_for(64) + bits_for(self.remaining.max(1) as u64)
            + bits_for(self.count as u64)
    }
}

/// Result of one lazy splitting step of a [`TokenBatch`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LazySplit {
    /// Walks that stay at the current node this step.
    pub stay: u32,
    /// Walks leaving through each port, as sparse `(port, count)` pairs
    /// sorted by port.
    pub moves: Vec<(Port, u32)>,
}

/// Splits `count` walks one lazy step: each stays with probability ½,
/// otherwise picks one of `degree` ports uniformly.
///
/// Allocates a fresh [`LazySplit`]; hot loops reuse one through
/// [`split_lazy_into`], which draws the same random numbers.
///
/// # Panics
///
/// Panics if `degree == 0` (an isolated node cannot host walks).
pub fn split_lazy<R: Rng + ?Sized>(count: u32, degree: usize, rng: &mut R) -> LazySplit {
    let mut split = LazySplit::default();
    split_lazy_into(count, degree, rng, &mut split);
    split
}

/// [`split_lazy`] into a caller-owned buffer: overwrites `out`, reusing
/// the capacity of `out.moves` (at most `degree` entries). For every
/// walk it draws the stay coin and, for a mover, the port, in that
/// order; `out.moves` ends sorted by port.
///
/// # Panics
///
/// Panics if `degree == 0` (an isolated node cannot host walks).
pub fn split_lazy_into<R: Rng + ?Sized>(
    count: u32,
    degree: usize,
    rng: &mut R,
    out: &mut LazySplit,
) {
    assert!(degree > 0, "cannot forward walks from an isolated node");
    out.stay = 0;
    // Dense per-port tally first, then drop the ports no walk took.
    out.moves.clear();
    out.moves.extend((0..degree).map(|p| (Port::new(p), 0)));
    for _ in 0..count {
        if rng.random_bool(0.5) {
            out.stay += 1;
        } else {
            out.moves[rng.random_range(0..degree)].1 += 1;
        }
    }
    out.moves.retain(|&(_, c)| c > 0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn split_conserves_count() {
        let mut rng = StdRng::seed_from_u64(3);
        for count in [0u32, 1, 7, 100, 2_000] {
            for degree in [1usize, 2, 5, 32] {
                let s = split_lazy(count, degree, &mut rng);
                let moved: u32 = s.moves.iter().map(|&(_, c)| c).sum();
                assert_eq!(s.stay + moved, count);
                for &(p, c) in &s.moves {
                    assert!(p.index() < degree);
                    assert!(c > 0);
                }
            }
        }
    }

    #[test]
    fn split_is_roughly_half_lazy() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut stayed = 0u64;
        let total = 200_000u32;
        let s = split_lazy(total, 4, &mut rng);
        stayed += s.stay as u64;
        let frac = stayed as f64 / total as f64;
        assert!((frac - 0.5).abs() < 0.01, "lazy fraction {frac}");
    }

    #[test]
    fn split_moves_are_uniform_over_ports() {
        let mut rng = StdRng::seed_from_u64(6);
        let degree = 8;
        let s = split_lazy(400_000, degree, &mut rng);
        let moved: u32 = s.moves.iter().map(|&(_, c)| c).sum();
        let expect = moved as f64 / degree as f64;
        for &(_, c) in &s.moves {
            assert!(
                (c as f64 - expect).abs() < 0.05 * expect,
                "port got {c}, expected ≈{expect}"
            );
        }
    }

    #[test]
    fn token_bit_size_is_logarithmic() {
        let t = TokenBatch {
            origin: 12345,
            epoch: 3,
            remaining: 16,
            count: 500,
        };
        let bits = t.bit_size(1024);
        // 44 (id) + 7 (epoch) + 5 (remaining) + 9 (count)
        assert_eq!(bits, 44 + 7 + 5 + 9);
    }

    #[test]
    #[should_panic(expected = "isolated")]
    fn split_on_isolated_node_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = split_lazy(1, 0, &mut rng);
    }
}
