//! The single-bit-flip fault model.

use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};

/// One silent data corruption: flip bit `bit` of the value computed for
/// point `(x, y, z)` during the sweep that advances iteration
/// `iteration → iteration+1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitFlip {
    /// Sweep index during which the flip strikes (0-based: `0` corrupts
    /// the very first sweep).
    pub iteration: usize,
    pub x: usize,
    pub y: usize,
    pub z: usize,
    /// Bit position (0 = least-significant mantissa bit; 31/63 = sign).
    pub bit: u32,
}

impl BitFlip {
    /// Uniformly random flip, mirroring the paper's campaign: iteration in
    /// `0..iters`, point anywhere in the domain, bit in `0..bits`.
    pub fn random(
        rng: &mut impl Rng,
        iters: usize,
        dims: (usize, usize, usize),
        bits: u32,
    ) -> Self {
        let (nx, ny, nz) = dims;
        Self {
            iteration: rng.random_range(0..iters),
            x: rng.random_range(0..nx),
            y: rng.random_range(0..ny),
            z: rng.random_range(0..nz),
            bit: rng.random_range(0..bits),
        }
    }

    /// Random flip with a fixed bit position (the paper's §5.3 campaign
    /// sweeps the bit position while randomising iteration and location).
    pub fn random_at_bit(
        rng: &mut impl Rng,
        iters: usize,
        dims: (usize, usize, usize),
        bit: u32,
    ) -> Self {
        Self {
            bit,
            ..Self::random(rng, iters, dims, bit + 1)
        }
    }
}

/// Where in the datapath a [`BitFlip`] strikes.
///
/// The paper's campaign (§5.1) uses [`Fault::Output`]: the freshly
/// computed value is corrupted between update and store, so exactly one
/// stored point is wrong and the fused checksum already reflects it.
/// [`Fault::Memory`] models the other case of Theorem 2's proof — "an
/// error that occurs in the domain at `t`, *after* the checksum at `t`
/// has been computed": a stored value is corrupted between sweeps, the
/// next sweep smears it over the stencil neighbourhood, and detection
/// fires one iteration later with *multiple* row/column mismatches.
/// Online ABFT detects but generally cannot fully correct a smeared
/// memory fault; the offline scheme's rollback erases it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Corrupt the value computed during sweep `flip.iteration`
    /// (the paper's injection site).
    Output(BitFlip),
    /// Corrupt the stored domain value at `flip` coordinates right
    /// *before* sweep `flip.iteration` starts.
    Memory(BitFlip),
}

impl Fault {
    /// The underlying flip description.
    pub fn flip(&self) -> BitFlip {
        match self {
            Fault::Output(f) | Fault::Memory(f) => *f,
        }
    }
}

/// A whole-rank loss plan for the distributed substrate: simulated rank
/// `rank` dies at the *start* of sweep `iter` — it posts nothing for that
/// iteration and drops its halo channel endpoints, so every neighbour
/// observes a disconnect instead of a hang.
///
/// This is the fail-stop complement to [`BitFlip`]'s silent-corruption
/// model: the online protector repairs flipped points in place, but a
/// lost rank (or a strike at rest that a re-sweep cannot repair) can only
/// be repaired by rolling back to a checkpoint and replaying.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankKill {
    /// Victim rank index (row-major over the rank grid).
    pub rank: usize,
    /// Sweep index at whose start the rank dies (0-based; `0` kills the
    /// rank before it ever posts).
    pub iter: usize,
}

impl RankKill {
    /// Kill plan for `rank` at the start of sweep `iter`.
    pub fn new(rank: usize, iter: usize) -> Self {
        Self { rank, iter }
    }

    /// Uniformly random kill: rank in `0..ranks`, iteration in `0..iters`.
    pub fn random(rng: &mut impl Rng, ranks: usize, iters: usize) -> Self {
        Self {
            rank: rng.random_range(0..ranks),
            iter: rng.random_range(0..iters),
        }
    }
}

/// Deterministic batch of uniformly random rank kills from a seed.
pub fn random_kills(seed: u64, n: usize, ranks: usize, iters: usize) -> Vec<RankKill> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| RankKill::random(&mut rng, ranks, iters))
        .collect()
}

/// Deterministic batch of uniformly random flips from a seed.
pub fn random_flips(
    seed: u64,
    n: usize,
    iters: usize,
    dims: (usize, usize, usize),
    bits: u32,
) -> Vec<BitFlip> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| BitFlip::random(&mut rng, iters, dims, bits))
        .collect()
}

/// Deterministic batch of random flips pinned to one bit position.
pub fn random_flips_at_bit(
    seed: u64,
    n: usize,
    iters: usize,
    dims: (usize, usize, usize),
    bit: u32,
) -> Vec<BitFlip> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| BitFlip::random_at_bit(&mut rng, iters, dims, bit))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_flip_within_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let f = BitFlip::random(&mut rng, 128, (64, 32, 8), 32);
            assert!(f.iteration < 128);
            assert!(f.x < 64 && f.y < 32 && f.z < 8);
            assert!(f.bit < 32);
        }
    }

    #[test]
    fn seeded_batches_are_deterministic() {
        let a = random_flips(42, 10, 100, (16, 16, 4), 32);
        let b = random_flips(42, 10, 100, (16, 16, 4), 32);
        assert_eq!(a, b);
        let c = random_flips(43, 10, 100, (16, 16, 4), 32);
        assert_ne!(a, c);
    }

    #[test]
    fn fixed_bit_batches_pin_the_bit() {
        for bit in [0u32, 15, 31] {
            let flips = random_flips_at_bit(1, 50, 64, (8, 8, 2), bit);
            assert!(flips.iter().all(|f| f.bit == bit));
        }
    }

    #[test]
    fn random_kills_within_bounds_and_deterministic() {
        let a = random_kills(9, 40, 4, 24);
        assert!(a.iter().all(|k| k.rank < 4 && k.iter < 24));
        assert_eq!(a, random_kills(9, 40, 4, 24));
        assert_ne!(a, random_kills(10, 40, 4, 24));
    }

    #[test]
    fn flips_cover_the_domain() {
        // sanity: with many draws every layer gets hit
        let flips = random_flips(3, 500, 10, (4, 4, 4), 32);
        for z in 0..4 {
            assert!(flips.iter().any(|f| f.z == z), "layer {z} never hit");
        }
    }
}
