//! Admission checks: a configuration against its domain, and the halo
//! depth it implies.

use crate::{auto_grid, DistConfig, DistError, GridSpec, HaloPlan, Partition3};
use abft_grid::{BoundarySpec, Grid3D};
use abft_num::Real;
use abft_stencil::Stencil3D;

/// Resolve the grid spec against the rank count, without validating it
/// against the domain.
fn grid_shape<T: Real>(
    cfg: &DistConfig<T>,
    nx: usize,
    ny: usize,
) -> Result<(usize, usize, usize), DistError> {
    match cfg.grid {
        GridSpec::Slabs => Ok((1, cfg.ranks, 1)),
        GridSpec::Auto => {
            let (rx, ry) = auto_grid(cfg.ranks, nx, ny);
            Ok((rx, ry, 1))
        }
        GridSpec::Explicit { rx, ry, rz } => {
            if rx * ry * rz != cfg.ranks {
                Err(DistError::GridMismatch {
                    rx,
                    ry,
                    rz,
                    ranks: cfg.ranks,
                })
            } else {
                Ok((rx, ry, rz))
            }
        }
    }
}

/// Check a distributed configuration against the domain, returning the
/// brick decomposition on success.
pub(crate) fn validate<T: Real>(
    initial: &Grid3D<T>,
    stencil: &Stencil3D<T>,
    bounds: &BoundarySpec<T>,
    constant: Option<&Grid3D<T>>,
    cfg: &DistConfig<T>,
) -> Result<Partition3, DistError> {
    let (nx, ny, nz) = initial.dims();
    if nx == 0 || ny == 0 || nz == 0 {
        return Err(DistError::EmptyGrid { dims: (nx, ny, nz) });
    }
    if cfg.iters == 0 {
        return Err(DistError::ZeroIterations);
    }
    if let Some(c) = constant {
        if c.dims() != initial.dims() {
            return Err(DistError::ConstantShape {
                expected: initial.dims(),
                got: c.dims(),
            });
        }
    }
    if cfg.ranks == 0 {
        return Err(DistError::NoRanks);
    }
    let (rx, ry, rz) = grid_shape(cfg, nx, ny)?;
    if ry > ny {
        return Err(DistError::TooManyRanks {
            rows: ny,
            ranks: ry,
        });
    }
    if rx > nx {
        return Err(DistError::TooManyRanksX {
            cols: nx,
            ranks: rx,
        });
    }
    if rz > nz {
        return Err(DistError::TooManyRanksZ {
            layers: nz,
            ranks: rz,
        });
    }
    let part = Partition3::new(nx, ny, nz, rx, ry, rz);
    for rank in 0..part.ranks() {
        let brick = part.brick(rank);
        if brick.y_len <= stencil.extent_y() {
            return Err(DistError::SlabTooShort {
                rank,
                rows: brick.y_len,
                extent: stencil.extent_y(),
            });
        }
        if rx > 1 && brick.x_len <= stencil.extent_x() {
            return Err(DistError::TileTooNarrow {
                rank,
                cols: brick.x_len,
                extent: stencil.extent_x(),
            });
        }
        if rz > 1 && brick.z_len <= stencil.extent_z() {
            return Err(DistError::BrickTooThin {
                rank,
                layers: brick.z_len,
                extent: stencil.extent_z(),
            });
        }
    }
    for (rank, flip) in &cfg.flips {
        if *rank >= cfg.ranks {
            return Err(DistError::FlipRank {
                rank: *rank,
                ranks: cfg.ranks,
            });
        }
        let brick = part.brick(*rank);
        if flip.x >= brick.x_len || flip.y >= brick.y_len || flip.z >= brick.z_len {
            return Err(DistError::FlipOutOfBrick {
                rank: *rank,
                flip: (flip.x, flip.y, flip.z),
                brick: (brick.x_len, brick.y_len, brick.z_len),
            });
        }
        if flip.bit >= T::BITS {
            return Err(DistError::FlipBit {
                bit: flip.bit,
                bits: T::BITS,
            });
        }
        if flip.iteration >= cfg.iters {
            return Err(DistError::FlipIteration {
                iteration: flip.iteration,
                iters: cfg.iters,
            });
        }
    }
    for kill in &cfg.kills {
        if kill.rank >= cfg.ranks {
            return Err(DistError::KillRank {
                rank: kill.rank,
                ranks: cfg.ranks,
            });
        }
        if kill.iter >= cfg.iters {
            return Err(DistError::KillIteration {
                iter: kill.iter,
                iters: cfg.iters,
            });
        }
    }
    let k = cfg.steps_per_exchange;
    if k == 0 {
        return Err(DistError::ZeroStepsPerExchange);
    }
    if k > 1 {
        // Deep shells fold through the boundary at most once: the
        // effective halo must stay narrower than each exchanged axis.
        let (hx, hy, hz) = effective_halo(cfg, stencil, (rx, ry, rz));
        for (axis, h, n) in [('x', hx, nx), ('y', hy, ny), ('z', hz, nz)] {
            if h > 0 && h >= n {
                return Err(DistError::HaloTooDeep {
                    axis,
                    halo: h,
                    len: n,
                });
            }
        }
    }
    if let Some(p) = cfg.checkpoint {
        if p.period == 0 {
            return Err(DistError::ZeroCheckpointPeriod);
        }
        // Snapshots must land on exchange boundaries: only there is the
        // decayed ghost shell spent (rebuilt from the next exchange
        // rather than stored).
        if p.period % k != 0 {
            return Err(DistError::CheckpointEpochMismatch {
                period: p.period,
                steps_per_exchange: k,
            });
        }
    }
    for (rank, flip) in &cfg.shell_flips {
        if *rank >= cfg.ranks {
            return Err(DistError::FlipRank {
                rank: *rank,
                ranks: cfg.ranks,
            });
        }
        if flip.bit >= T::BITS {
            return Err(DistError::FlipBit {
                bit: flip.bit,
                bits: T::BITS,
            });
        }
        if flip.iteration >= cfg.iters {
            return Err(DistError::FlipIteration {
                iteration: flip.iteration,
                iters: cfg.iters,
            });
        }
        // The shell decays after every sweep except an epoch's last (the
        // next exchange rebuilds it), so a flip on the boundary — or any
        // flip at k = 1 — would never fire.
        if k == 1 || flip.iteration % k == k - 1 {
            return Err(DistError::ShellFlipAtBoundary {
                iter: flip.iteration,
                steps_per_exchange: k,
            });
        }
        // The target must be a shell cell the rank receives: in one of its
        // halo boxes, and not a boundary fold onto its own brick.
        let halo = effective_halo(cfg, stencil, (rx, ry, rz));
        let brick = part.brick(*rank);
        let shell = HaloPlan::new(&brick, *rank, &part, halo, (nx, ny, nz), bounds);
        if shell.slot(flip.x, flip.y, flip.z).is_none() || brick.contains(flip.x, flip.y, flip.z) {
            return Err(DistError::ShellFlipOutsideHalo {
                rank: *rank,
                x: flip.x,
                y: flip.y,
                z: flip.z,
            });
        }
    }
    Ok(part)
}

/// The per-axis halo depth `(hx, hy, hz)`: `k` stencil reaches — one per
/// sweep of an exchange epoch, the shell decaying by a reach per sweep —
/// on the axes that exchange (y always — it is always ghost-decomposed —
/// x and z only when actually split).
pub(crate) fn effective_halo<T: Real>(
    cfg: &DistConfig<T>,
    stencil: &Stencil3D<T>,
    (rx, _ry, rz): (usize, usize, usize),
) -> (usize, usize, usize) {
    let k = cfg.steps_per_exchange;
    (
        if rx > 1 { k * stencil.extent_x() } else { 0 },
        k * stencil.extent_y(),
        if rz > 1 { k * stencil.extent_z() } else { 0 },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use abft_fault::BitFlip;
    use abft_grid::Boundary;
    use abft_stencil::Stencil2D;

    /// Shell-flip admission over a table of targets: rank 0 of three
    /// y-slabs (rows 0..4 of 8×12×2) with a reach-1 kernel, so the shell
    /// is `k` rows deep. A target is admitted exactly when the rank
    /// receives it — a fold onto its own brick, a brick cell and anything
    /// beyond the shell are `ShellFlipOutsideHalo`.
    #[test]
    fn shell_flip_admission_follows_the_halo_boxes() {
        let initial = Grid3D::from_fn(8, 12, 2, |x, y, z| (x + y + z) as f64);
        let stencil = Stencil2D::five_point(0.4, 0.15, 0.1).into_3d();
        // (boundary, k, target (x, y, z), admitted)
        let table = [
            // Clamp: rows -1.. fold onto the rank's own row 0; rows 4.. are
            // the neighbour's.
            (Boundary::Clamp, 2, (3, 4, 0), true),
            (Boundary::Clamp, 2, (7, 5, 1), true),
            (Boundary::Clamp, 2, (3, 6, 0), false), // one row past a 2-deep shell
            (Boundary::Clamp, 3, (3, 6, 0), true),
            (Boundary::Clamp, 3, (3, 7, 0), false),
            (Boundary::Clamp, 2, (3, 0, 0), false), // folded into the brick
            (Boundary::Clamp, 3, (0, 0, 1), false),
            (Boundary::Clamp, 2, (3, 2, 0), false), // brick interior
            (Boundary::Clamp, 2, (3, 11, 0), false), // far side of the domain
            (Boundary::Clamp, 2, (8, 4, 0), false), // outside the domain
            (Boundary::Clamp, 2, (3, 4, 2), false),
            // Periodic: rows -1.. wrap onto the last slab's rows 11, 10, ..
            (Boundary::Periodic, 2, (3, 11, 0), true),
            (Boundary::Periodic, 2, (0, 10, 1), true),
            (Boundary::Periodic, 2, (3, 9, 0), false),
            (Boundary::Periodic, 3, (3, 9, 0), true),
            (Boundary::Periodic, 3, (3, 8, 0), false),
            (Boundary::Periodic, 2, (3, 5, 0), true),
            (Boundary::Periodic, 3, (3, 6, 1), true),
            (Boundary::Periodic, 2, (3, 0, 0), false), // its own row: no fold under periodic
            (Boundary::Periodic, 3, (3, 3, 0), false),
        ];
        for (boundary, k, (x, y, z), admitted) in table {
            let flip = BitFlip {
                iteration: 0,
                x,
                y,
                z,
                bit: 51,
            };
            let cfg = DistConfig::<f64>::new(3, 6)
                .with_steps_per_exchange(k)
                .with_shell_flip(0, flip);
            let bounds = BoundarySpec::uniform(boundary);
            let got = validate(&initial, &stencil, &bounds, None, &cfg).map(|_| ());
            let want = if admitted {
                Ok(())
            } else {
                Err(DistError::ShellFlipOutsideHalo { rank: 0, x, y, z })
            };
            assert_eq!(got, want, "{boundary:?}, k = {k}, target ({x}, {y}, {z})");
        }
    }
}
