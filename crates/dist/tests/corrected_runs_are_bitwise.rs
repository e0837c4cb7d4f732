//! Repair by re-execution: a run in which every step suffers one to four
//! flips in one layer ends **bitwise** equal to the fault-free protected
//! run, with no rollback. The column test flags the layer, and the repair
//! sweeps the whole layer again from the time-`t` grid and re-sums it, so
//! grid and trusted column checksums alike are the clean run's. Drawn
//! over kernels, boundary kinds, `f32` / `f64`, epoch lengths
//! `k ∈ {1, 2}`, fault sites and bits, for the serial protector and both
//! distributed drivers. The last test is a case a locator using both
//! checksum vectors gets wrong: two aligned flips that fake one are both
//! repaired in place.

use abft_checkpoint::CheckpointPolicy;
use abft_core::{AbftConfig, OnlineAbft};
use abft_dist::{run_distributed, DistConfig, HaloMode};
use abft_fault::{BitFlip, MultiFlipHook};
use abft_grid::{Boundary, BoundarySpec, Grid3D};
use abft_num::Real;
use abft_stencil::{Exec, NoHook, Stencil2D, Stencil3D, StencilSim};
use proptest::prelude::*;

const NX: usize = 12;
const NY: usize = 16;
const NZ: usize = 6;
const ITERS: usize = 6;

/// A 7-point, a 27-point, and an asymmetric 9-tap kernel of reach 2 in x
/// and y; each sums to 1.
fn kernel<T: Real>(pick: usize) -> Stencil3D<T> {
    let w = T::from_f64;
    match pick {
        0 => Stencil3D::seven_point(w(0.4), w(0.12), w(0.08), w(0.1)),
        1 => Stencil3D::twenty_seven_point(w(0.48), w(0.02)),
        _ => {
            let taps = [
                (0, 0, 0, 0.3),
                (-1, 0, 0, 0.14),
                (2, 0, 0, 0.09),
                (0, -2, 0, 0.12),
                (0, 1, 0, 0.07),
                (0, 0, -1, 0.1),
                (0, 0, 1, 0.06),
                (1, 1, 1, 0.05),
                (-1, 0, -1, 0.07),
            ];
            let taps: Vec<_> = taps.iter().map(|&(i, j, k, v)| (i, j, k, w(v))).collect();
            Stencil3D::from_tuples(&taps)
        }
    }
}

/// Every boundary kind a distributed run admits, on all three axes.
fn bounds<T: Real>(pick: usize) -> BoundarySpec<T> {
    BoundarySpec::uniform(match pick {
        0 => Boundary::Clamp,
        1 => Boundary::Periodic,
        2 => Boundary::Reflect,
        3 => Boundary::Zero,
        _ => Boundary::Constant(T::from_f64(45.0)),
    })
}

/// Values in 40–47: a flip of any drawn bit stays finite, and is far
/// past the detection threshold.
fn field<T: Real>() -> Grid3D<T> {
    Grid3D::from_fn(NX, NY, NZ, |x, y, z| {
        T::from_f64(40.0 + ((x * 5 + y * 3 + z * 11) % 17) as f64 * 0.4)
    })
}

/// The lowest bit a drawn flip strikes: it moves a value near 40 by at
/// least 0.01 in `f64` (ε = 1e-11) and 0.3 in `f32` (ε = 1e-5).
fn low_bit<T: Real>() -> u32 {
    if T::BITS == 32 {
        16
    } else {
        40
    }
}

fn bits<T: Real>(v: &[T]) -> Vec<u64> {
    v.iter().map(|c| c.to_bits_u64()).collect()
}

/// One step's drawn flips: a site `(x, y, z, bit)`, and up to three more
/// `(x, bit)` in the same layer on the lines after it.
type Site = (usize, usize, usize, u32, Vec<(usize, u32)>);

/// A drawn site folded into `brick` and `T`'s drawable bits, as the flips
/// at `iteration`: one to four in layer `z`, each on a line `y` of its own
/// (flips on one line could cancel in its sum; on lines of their own,
/// each is detected).
fn flips<T: Real>(
    iteration: usize,
    (x, y, z, bit, more): &Site,
    brick: (usize, usize, usize),
) -> Vec<BitFlip> {
    let low = low_bit::<T>();
    let first = std::iter::once((*x, *bit));
    let lines = first.chain(more.iter().copied()).enumerate();
    let at = |(i, (x, bit)): (usize, (usize, u32))| BitFlip {
        iteration,
        x: x % brick.0,
        y: (y + i) % brick.1,
        z: z % brick.2,
        bit: low + bit % (T::BITS - low),
    };
    lines.map(at).collect()
}

/// Up to three more flips beside a site, for [`Site`].
fn more() -> impl Strategy<Value = Vec<(usize, u32)>> {
    proptest::collection::vec((0usize..NX, 0u32..64), 0..=3)
}

/// The serial protector, one to four flips in one layer per step: every
/// step detects the layer once and corrects every flip, and after every
/// step the grid and the trusted column checksums are bitwise the clean
/// protected run's.
fn serial_case<T: Real>(
    kernel_pick: usize,
    bounds_pick: usize,
    sites: &[Site],
) -> Result<(), TestCaseError> {
    let (stencil, bounds) = (kernel::<T>(kernel_pick), bounds::<T>(bounds_pick));
    let sim = || StencilSim::new(field::<T>(), stencil.clone(), bounds).with_exec(Exec::Serial);
    let cfg = AbftConfig::<T>::paper_defaults();
    let (mut clean, mut struck) = (sim(), sim());
    let mut clean_abft = OnlineAbft::new(&clean, cfg);
    let mut abft = OnlineAbft::new(&struck, cfg);
    for (t, site) in sites.iter().enumerate() {
        let flips = flips::<T>(t, site, (NX, NY, NZ));
        let ctx = format!(
            "{} bits, kernel {kernel_pick}, {bounds:?}, {flips:?}",
            T::BITS
        );
        prop_assert!(clean_abft.step(&mut clean, &NoHook).is_clean(), "{}", ctx);
        let n = flips.len();
        let out = abft.step(&mut struck, &MultiFlipHook::new(flips));
        let counts = (out.detections, out.corrections.len(), out.uncorrectable);
        prop_assert_eq!(counts, (1, n, 0), "{:?}, {}", out, ctx);
        prop_assert_eq!(
            bits(struck.current().as_slice()),
            bits(clean.current().as_slice()),
            "grid, {}",
            ctx
        );
        prop_assert_eq!(
            bits(abft.col_checksums()),
            bits(clean_abft.col_checksums()),
            "trusted checksums, {}",
            ctx
        );
    }
    Ok(())
}

/// One distributed job, one to four flips in one layer per iteration on a
/// drawn rank: each iteration is one detection, every flip one correction
/// in the rank it struck, nothing else is flagged (a trusted vector off
/// by a bit would be, one step later), no rank rolls back, and the
/// gathered grid is bitwise the clean protected job's.
fn distributed_case<T: Real>(
    kernel_pick: usize,
    bounds_pick: usize,
    (slabs, k, mode): (bool, usize, HaloMode),
    sites: &[(usize, Site)],
) -> Result<(), TestCaseError> {
    let (stencil, bounds) = (kernel::<T>(kernel_pick), bounds::<T>(bounds_pick));
    let (rx, ry) = if slabs { (1, 2) } else { (2, 2) };
    let ranks = rx * ry;
    let base = DistConfig::new(ranks, ITERS)
        .with_grid(rx, ry)
        .with_steps_per_exchange(k)
        .with_abft(AbftConfig::<T>::paper_defaults())
        .with_mode(mode);
    let mut struck = base.clone();
    let mut per_rank = vec![0; ranks];
    for (t, (rank, site)) in sites.iter().enumerate() {
        let rank = rank % ranks;
        for flip in flips::<T>(t, site, (NX / rx, NY / ry, NZ)) {
            per_rank[rank] += 1;
            struck = struck.with_flip(rank, flip);
        }
    }
    let ctx = format!(
        "{} bits, kernel {kernel_pick}, {bounds:?}, {rx}x{ry}, k = {k}, {mode:?}, {sites:?}",
        T::BITS
    );
    let initial = field::<T>();
    let clean = run_distributed(&initial, &stencil, &bounds, None, &base).expect("valid config");
    let rep = run_distributed(&initial, &stencil, &bounds, None, &struck).expect("valid config");
    let total = rep.total_stats();
    let counts = (total.detections, total.corrections, total.uncorrectable);
    let flipped = per_rank.iter().sum();
    prop_assert_eq!(counts, (ITERS, flipped, 0), "{}", ctx);
    prop_assert_eq!(rep.recovery.rollbacks, 0, "{}", ctx);
    let corrected: Vec<_> = rep.ranks.iter().map(|r| r.stats.corrections).collect();
    prop_assert_eq!(corrected, per_rank, "{}", ctx);
    prop_assert_eq!(
        bits(rep.global.as_slice()),
        bits(clean.global.as_slice()),
        "grid, {}",
        ctx
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_env(64))]

    #[test]
    fn a_serial_run_with_a_corrected_flip_per_step_is_bitwise_the_clean_run(
        kernel_pick in 0usize..3,
        bounds_pick in 0usize..5,
        sites in proptest::collection::vec(
            (0usize..NX, 0usize..NY, 0usize..NZ, 0u32..64, more()),
            ITERS..=ITERS,
        ),
    ) {
        serial_case::<f32>(kernel_pick, bounds_pick, &sites)?;
        serial_case::<f64>(kernel_pick, bounds_pick, &sites)?;
    }

    #[test]
    fn a_distributed_run_with_a_corrected_flip_per_step_is_bitwise_the_clean_run(
        kernel_pick in 0usize..3,
        bounds_pick in 0usize..5,
        slabs in any::<bool>(),
        k in 1usize..=2,
        snapshot in any::<bool>(),
        sites in proptest::collection::vec(
            (0usize..4, (0usize..NX, 0usize..NY, 0usize..NZ, 0u32..64, more())),
            ITERS..=ITERS,
        ),
    ) {
        let mode = if snapshot { HaloMode::Snapshot } else { HaloMode::Pipelined };
        let shape = (slabs, k, mode);
        distributed_case::<f32>(kernel_pick, bounds_pick, shape, &sites)?;
        distributed_case::<f64>(kernel_pick, bounds_pick, shape, &sites)?;
    }
}

/// Two flips in one layer of one rank, aligned to fake one to a locator
/// that uses both checksum vectors. A 16×32 layer of values near 1, cut
/// into two 16×16 slabs, has one hot cell at (4, 11) of rank 0, whose
/// heat keeps the sums of its row x = 4 and its column y = 11 near
/// 1e5–1e6 for the first sweeps. A flip at (4, 2) hides in the hot row
/// and shows only in column 2; one at (12, 11) hides in the hot column
/// and shows only in row 12, so Eq. 10 would locate one error where row
/// 12 meets column 2, at a clean cell. The column test sees column 2
/// alone, but it flags the layer, and sweeping the layer again repairs
/// both flips in place: no rollback, and the gathered grid is the serial
/// grid, bitwise.
#[test]
fn two_aligned_flips_that_fake_one_are_repaired_in_place() {
    let initial = Grid3D::from_fn(16, 32, 1, |x, y, _| match (x, y) {
        (4, 11) => 1e6,
        _ => 1.0 + ((x * 7 + y * 13) % 11) as f64 * 0.01,
    });
    let stencil = Stencil2D::jacobi_heat(0.1).into_3d();
    let bounds = BoundarySpec::clamp();
    let mut serial =
        StencilSim::new(initial.clone(), stencil.clone(), bounds).with_exec(Exec::Serial);
    for _ in 0..ITERS {
        serial.step();
    }
    for mode in [HaloMode::Pipelined, HaloMode::Snapshot] {
        let mut cfg = DistConfig::new(2, ITERS)
            .with_grid(1, 2)
            .with_abft(AbftConfig::<f64>::paper_defaults())
            .with_checkpoint(CheckpointPolicy::every(2))
            .with_mode(mode);
        for (x, y) in [(4, 2), (12, 11)] {
            // Bit 29 of a value in [1, 2) moves it by 2^-23 ≈ 1.2e-7.
            let flip = BitFlip {
                iteration: 2,
                x,
                y,
                z: 0,
                bit: 29,
            };
            cfg = cfg.with_flip(0, flip);
        }
        let rep = run_distributed(&initial, &stencil, &bounds, None, &cfg).expect("valid config");
        let total = rep.total_stats();
        let counts = (total.detections, total.corrections, total.uncorrectable);
        assert_eq!(counts, (1, 2, 0), "{mode:?}");
        assert_eq!(rep.recovery.rollbacks, 0, "{mode:?}");
        assert_eq!(rep.global, *serial.current(), "{mode:?}");
    }
}
