//! Regression test for f32 checksum precision on wide domains.
//!
//! With naive f32 accumulation, a 512-wide line sum drifts by up to
//! ~n/2 ulps; over a couple hundred iterations the drift between the
//! fused (data-side) and interpolated (state-side) checksums crossed the
//! paper's ε = 1e-5 and produced **false positives** on the paper's own
//! 512×512×8 tile. Checksums are therefore accumulated in f64 everywhere
//! (sweep fusion, direct recomputation, interpolation). These tests pin
//! that down.

use stencil_abft::prelude::*;

#[test]
fn error_free_f32_run_with_512_wide_lines_never_flags() {
    // 512-wide lines (the failure axis), thin in y/z to stay fast.
    let initial = Grid3D::from_fn(512, 12, 2, |x, y, z| {
        80.0f32 + ((x * 7 + y * 3 + z) % 13) as f32 * 0.3
    });
    let stencil = Stencil3D::seven_point(0.4f32, 0.12, 0.08, 0.1);
    let mut sim = StencilSim::new(initial, stencil, BoundarySpec::clamp()).with_exec(Exec::Serial);
    let mut abft = OnlineAbft::new(&sim, AbftConfig::<f32>::paper_defaults());
    for t in 0..256 {
        let out = abft.step(&mut sim, &NoHook);
        assert!(out.is_clean(), "false positive at iteration {t}");
    }
}

#[test]
fn error_free_f32_run_with_512_wide_columns_never_flags() {
    // 512-tall columns: the row checksums, built only when a column
    // mismatches, sum along this axis.
    let initial = tall_columns();
    let stencil = Stencil3D::seven_point(0.4f32, 0.12, 0.08, 0.1);
    let mut sim = StencilSim::new(initial, stencil, BoundarySpec::clamp()).with_exec(Exec::Serial);
    let mut abft = OnlineAbft::new(&sim, AbftConfig::<f32>::paper_defaults());
    for t in 0..256 {
        let out = abft.step(&mut sim, &NoHook);
        assert!(out.is_clean(), "false positive at iteration {t}");
    }
}

fn tall_columns() -> Grid3D<f32> {
    Grid3D::from_fn(12, 512, 2, |x, y, z| {
        80.0f32 + ((x * 3 + y * 7 + z) % 11) as f32 * 0.4
    })
}

#[test]
fn faults_on_512_tall_columns_are_located_exactly() {
    // The rows materialised for a flagged layer are 512-long sums; they
    // must still pin every corruption to its exact cell.
    let stencil = Stencil3D::seven_point(0.4f32, 0.12, 0.08, 0.1);
    let mut sim =
        StencilSim::new(tall_columns(), stencil, BoundarySpec::clamp()).with_exec(Exec::Serial);
    let mut abft = OnlineAbft::new(&sim, AbftConfig::<f32>::paper_defaults());
    for t in 0..256 {
        if t % 32 != 16 {
            let out = abft.step(&mut sim, &NoHook);
            assert!(out.is_clean(), "false positive at iteration {t}");
            continue;
        }
        // y = 0, 73, …, 511: both ends and six cells between.
        let i = t / 32;
        let site = ((i * 5 + 3) % 12, i * 73, i % 2);
        let hook = move |x: usize, y: usize, z: usize, v: f32| {
            if (x, y, z) == site {
                v + 5.0 // well above ε·|a| ≈ 1e-5·512·80 ≈ 0.41
            } else {
                v
            }
        };
        let out = abft.step(&mut sim, &hook);
        assert_eq!(out.detections, 1, "fault at {site:?} (t = {t})");
        assert_eq!(out.corrections.len(), 1, "fault at {site:?} (t = {t})");
        let ev = out.corrections[0];
        assert_eq!((ev.x, ev.y, ev.z), site, "t = {t}");
    }
}

#[test]
fn wide_f32_offline_windows_never_flag() {
    let initial = Grid3D::from_fn(512, 12, 2, |x, y, z| {
        80.0f32 + ((x * 5 + y * 3 + z) % 7) as f32 * 0.5
    });
    let stencil = Stencil3D::seven_point(0.4f32, 0.12, 0.08, 0.1);
    let mut sim = StencilSim::new(initial, stencil, BoundarySpec::clamp()).with_exec(Exec::Serial);
    let cfg = AbftConfig::<f32>::paper_defaults().with_period(16);
    let mut abft = OfflineAbft::new(&sim, cfg);
    for t in 0..128 {
        let out = abft.step(&mut sim, &NoHook);
        assert!(!out.detected, "offline false positive at iteration {t}");
    }
}

#[test]
fn faults_still_detected_on_wide_lines() {
    // Precision work must not have dulled the detector.
    let initial = Grid3D::from_fn(512, 12, 2, |x, y, z| {
        80.0f32 + ((x * 7 + y * 3 + z) % 13) as f32 * 0.3
    });
    let stencil = Stencil3D::seven_point(0.4f32, 0.12, 0.08, 0.1);
    let mut sim = StencilSim::new(initial, stencil, BoundarySpec::clamp()).with_exec(Exec::Serial);
    let mut abft = OnlineAbft::new(&sim, AbftConfig::<f32>::paper_defaults());
    let hook = |x: usize, y: usize, z: usize, v: f32| {
        if (x, y, z) == (300, 6, 1) {
            v + 5.0 // well above ε·|b| ≈ 1e-5·512·80 ≈ 0.41
        } else {
            v
        }
    };
    let out = abft.step(&mut sim, &hook);
    assert_eq!(out.detections, 1);
    assert_eq!(out.corrections.len(), 1);
    assert_eq!(
        (
            out.corrections[0].x,
            out.corrections[0].y,
            out.corrections[0].z
        ),
        (300, 6, 1)
    );
}
