//! API-surface tests of the facade crate: everything a downstream user
//! reaches for must be importable from `stencil_abft::prelude` and wired
//! together without referencing internal crates.

use stencil_abft::prelude::*;

#[test]
fn prelude_covers_the_quickstart_flow() {
    let initial = Grid3D::from_fn(16, 16, 1, |x, y, _| (x * y) as f64);
    let mut sim = StencilSim::new(
        initial,
        Stencil2D::jacobi_heat(0.2f64).into_3d(),
        BoundarySpec::clamp(),
    )
    .with_exec(Exec::Serial);
    let mut abft = OnlineAbft::new(&sim, AbftConfig::<f64>::paper_defaults());
    for _ in 0..5 {
        assert!(abft.step(&mut sim, &NoHook).is_clean());
    }
    let stats: ProtectorStats = abft.stats();
    assert_eq!(stats.steps, 5);
}

#[test]
fn prelude_covers_offline_and_campaign_types() {
    let initial = Grid3D::filled(12, 12, 2, 1.0f32);
    let sim = StencilSim::new(
        initial,
        Stencil3D::seven_point(0.4f32, 0.1, 0.1, 0.1),
        BoundarySpec::periodic(),
    )
    .with_exec(Exec::Serial);
    let mut sim = sim;
    let mut offline = OfflineAbft::new(&sim, AbftConfig::<f32>::paper_defaults().with_period(2));
    offline.step(&mut sim, &NoHook);
    offline.step(&mut sim, &NoHook);
    assert_eq!(offline.stats().verifications, 1);

    // Campaign + fault types.
    let _m: [Method; 3] = Method::all();
    let flip = BitFlip {
        iteration: 0,
        x: 1,
        y: 1,
        z: 0,
        bit: 31,
    };
    let hook = FlipHook::<f32>::new(flip);
    let v: f32 = hook.transform(1, 1, 0, 2.0);
    assert_eq!(v, -2.0);
}

#[test]
fn submodules_are_reachable() {
    // Spot-check each re-exported crate through the facade paths.
    let _ = stencil_abft::num::relative_error(1.0f64, 1.0);
    let g = stencil_abft::grid::Grid3D::<f32>::zeros(2, 2, 1);
    assert_eq!(g.len(), 4);
    let s = stencil_abft::stencil::Stencil2D::<f64>::four_point_average();
    assert_eq!(s.len(), 4);
    let ring = stencil_abft::checkpoint::EpochRing::<f32>::new(1);
    assert!(ring.is_empty());
    assert_eq!(stencil_abft::fault::detection_floor(1e-5, 64, 80.0), 0.0512);
    let t = stencil_abft::metrics::Table::new(vec!["a"]);
    assert!(t.is_empty());
    let sc = stencil_abft::hotspot::Scenario::tile_small();
    assert_eq!(sc.dims, (64, 64, 8));
    let p = stencil_abft::dist::Partition3::new(8, 8, 1, 1, 2, 1);
    assert_eq!(p.brick(0).y_len, 4);
}

#[test]
fn l2_and_timer_utilities() {
    let a = Grid3D::filled(4, 4, 1, 1.0f64);
    let mut b = a.clone();
    b.set(0, 0, 0, 2.0);
    assert_eq!(l2_error(&a, &b), 1.0);
    let (x, secs) = Timer::time(|| 21 * 2);
    assert_eq!(x, 42);
    assert!(secs >= 0.0);
    let s = Summary::from_sample(&[1.0, 2.0, 3.0]);
    assert_eq!(s.median, 2.0);
}
